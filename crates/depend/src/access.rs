//! Memory-access extraction.
//!
//! Walks statements/expressions and produces a flat list of variable
//! accesses — each a read or write of a scalar, an array element (with
//! affine subscripts), or a pointer dereference — carrying the span
//! needed for DRB-ML-style `name@line:col:R/W` labels.

use crate::affine::Affine;
use minic::ast::*;
use minic::printer::print_expr;
use minic::span::Span;
use serde::{Deserialize, Serialize};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// The location's value is read.
    Read,
    /// The location is written.
    Write,
}

impl AccessKind {
    /// DRB-ML operation letter (`"r"` / `"w"`).
    pub fn letter(&self) -> &'static str {
        match self {
            AccessKind::Read => "r",
            AccessKind::Write => "w",
        }
    }

    /// Whether `self` and `other` conflict (at least one write).
    pub fn conflicts(&self, other: &AccessKind) -> bool {
        matches!(self, AccessKind::Write) || matches!(other, AccessKind::Write)
    }
}

/// One memory access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Access {
    /// Root variable name (`a[i+1]` → `a`, `*p` → `p`).
    pub var: String,
    /// Read or write.
    pub kind: AccessKind,
    /// Affine forms of the subscripts, outermost first; empty for scalars.
    pub subscripts: Vec<Affine>,
    /// Pointer-dereference depth at the access site (`*p` → 1).
    pub deref: u8,
    /// Source text of the whole lvalue (`a[i+1]`).
    pub text: String,
    /// Location of the access (the lvalue expression).
    pub span: Span,
}

impl Access {
    /// Whether this access targets an array element.
    pub fn is_array(&self) -> bool {
        !self.subscripts.is_empty()
    }

    /// Whether any subscript is opaque (non-affine).
    pub fn has_opaque_subscript(&self) -> bool {
        self.subscripts.iter().any(|s| s.opaque)
    }

    /// DRB-style label `a[i]@14:5:W`.
    pub fn label(&self) -> String {
        format!(
            "{}@{}:{}:{}",
            self.text,
            self.span.line(),
            self.span.col(),
            self.kind.letter().to_uppercase()
        )
    }
}

/// Collect all accesses in a statement subtree, in evaluation order.
pub fn accesses_of_stmt(s: &Stmt) -> Vec<Access> {
    let mut c = Collector::default();
    c.stmt(s);
    c.out
}

/// Collect all accesses in an expression.
pub fn accesses_of_expr(e: &Expr) -> Vec<Access> {
    let mut c = Collector::default();
    c.expr(e, AccessKind::Read);
    c.out
}

/// Collect accesses in a whole block.
pub fn accesses_of_block(b: &Block) -> Vec<Access> {
    let mut c = Collector::default();
    for s in &b.stmts {
        c.stmt(s);
    }
    c.out
}

#[derive(Default)]
struct Collector {
    out: Vec<Access>,
}

impl Collector {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(d) => {
                for v in &d.vars {
                    for dim in v.ty.dims.iter().flatten() {
                        self.expr(dim, AccessKind::Read);
                    }
                    match &v.init {
                        Some(Init::Expr(e)) => {
                            self.expr(e, AccessKind::Read);
                            // The declared variable itself is written, but a
                            // fresh local can never race with other accesses
                            // to the same (new) storage in its declaration;
                            // we still record it for completeness.
                            self.out.push(Access {
                                var: v.name.clone(),
                                kind: AccessKind::Write,
                                subscripts: Vec::new(),
                                deref: 0,
                                text: v.name.clone(),
                                span: v.span,
                            });
                        }
                        Some(Init::List(es)) => {
                            for e in es {
                                self.expr(e, AccessKind::Read);
                            }
                        }
                        None => {}
                    }
                }
            }
            Stmt::Expr(e) => self.expr(e, AccessKind::Read),
            Stmt::Empty(_) | Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(b) => {
                for s in &b.stmts {
                    self.stmt(s);
                }
            }
            Stmt::If { cond, then, els, .. } => {
                self.expr(cond, AccessKind::Read);
                self.stmt(then);
                if let Some(e) = els {
                    self.stmt(e);
                }
            }
            Stmt::For(f) => {
                match &f.init {
                    ForInit::Empty => {}
                    ForInit::Decl(d) => self.stmt(&Stmt::Decl(d.clone())),
                    ForInit::Expr(e) => self.expr(e, AccessKind::Read),
                }
                if let Some(c) = &f.cond {
                    self.expr(c, AccessKind::Read);
                }
                if let Some(st) = &f.step {
                    self.expr(st, AccessKind::Read);
                }
                self.stmt(&f.body);
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond, AccessKind::Read);
                self.stmt(body);
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.stmt(body);
                self.expr(cond, AccessKind::Read);
            }
            Stmt::Return(Some(e), _) => self.expr(e, AccessKind::Read),
            Stmt::Return(None, _) => {}
            Stmt::Omp { body, .. } => {
                if let Some(b) = body {
                    self.stmt(b);
                }
            }
        }
    }

    /// Record `e` as accessed once per entry of `kinds`, in order.
    /// Subexpressions (subscripts, the pointer under a deref) are
    /// evaluated once however many kinds there are: `a[i]++` reads `i`
    /// once, and nested read-modify-writes stay linear.
    fn lvalue(&mut self, e: &Expr, kinds: &[AccessKind]) {
        let own = |var: &str, subscripts: Vec<Affine>, deref: u8, text: String, span: Span| {
            kinds
                .iter()
                .map(|&kind| Access {
                    var: var.to_string(),
                    kind,
                    subscripts: subscripts.clone(),
                    deref,
                    text: text.clone(),
                    span,
                })
                .collect::<Vec<_>>()
        };
        match e {
            Expr::Ident { name, span } => {
                self.out.extend(own(name, Vec::new(), 0, name.clone(), *span))
            }
            Expr::Index { .. } => {
                // Unwind nested Index to get base + subscript list.
                let mut subs_rev = Vec::new();
                let mut cur = e;
                while let Expr::Index { base, index, .. } = cur {
                    subs_rev.push(index.as_ref());
                    cur = base;
                }
                // Subscript expressions themselves are reads.
                for idx in subs_rev.iter().rev() {
                    self.expr(idx, AccessKind::Read);
                }
                if let Expr::Ident { name, .. } = cur {
                    let subscripts =
                        subs_rev.iter().rev().map(|i| Affine::from_expr(i)).collect();
                    self.out.extend(own(name, subscripts, 0, print_expr(e), e.span()));
                } else {
                    // Exotic base (call result, deref); record the base reads.
                    self.expr(cur, AccessKind::Read);
                }
            }
            Expr::Unary { op: UnOp::Deref, expr, span } => {
                // `*p = …` writes through p: the pointer value is read, the
                // pointee (modelled as `p` with deref=1) has `kind`.
                if let Some(root) = expr.root_var() {
                    self.out.extend(own(root, Vec::new(), 1, print_expr(e), *span));
                }
                self.expr(expr, AccessKind::Read);
            }
            Expr::Cast { expr, .. } => self.lvalue(expr, kinds),
            // Anything else used as an lvalue: treat subexpressions as reads.
            other => self.expr(other, AccessKind::Read),
        }
    }

    fn expr(&mut self, e: &Expr, kind: AccessKind) {
        match e {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::StrLit { .. }
            | Expr::CharLit { .. } => {}
            Expr::Ident { .. } | Expr::Index { .. } => self.lvalue(e, &[kind]),
            Expr::Call { callee, args, .. } => {
                for a in args {
                    // `&x` arguments may be written by the callee; handled
                    // conservatively by racecheck, recorded as reads here
                    // except for the OpenMP lock API, which is sync-only.
                    if callee.starts_with("omp_") {
                        continue;
                    }
                    self.expr(a, AccessKind::Read);
                }
            }
            Expr::Unary { op: UnOp::Deref, .. } => self.lvalue(e, &[kind]),
            Expr::Unary { op: UnOp::AddrOf, expr, .. } => {
                // Taking an address is not itself an access.
                let _ = expr;
            }
            Expr::Unary { expr, .. } => self.expr(expr, AccessKind::Read),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs, AccessKind::Read);
                self.expr(rhs, AccessKind::Read);
            }
            Expr::Assign { op, lhs, rhs, .. } => {
                self.expr(rhs, AccessKind::Read);
                if op.bin_op().is_some() {
                    // Compound assignment reads then writes the target.
                    self.lvalue(lhs, &[AccessKind::Read, AccessKind::Write]);
                } else {
                    self.lvalue(lhs, &[AccessKind::Write]);
                }
            }
            Expr::IncDec { expr, .. } => self.lvalue(expr, &[AccessKind::Read, AccessKind::Write]),
            Expr::Cond { cond, then, els, .. } => {
                self.expr(cond, AccessKind::Read);
                self.expr(then, AccessKind::Read);
                self.expr(els, AccessKind::Read);
            }
            Expr::Cast { expr, .. } => self.expr(expr, kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parser::parse;

    fn body_accesses(src: &str) -> Vec<Access> {
        let unit = parse(src).unwrap();
        let Item::Func(f) = &unit.items[0] else { panic!("no function") };
        accesses_of_block(&f.body)
    }

    #[test]
    fn simple_assignment() {
        let a = body_accesses("void f(int x, int y) { x = y; }");
        assert_eq!(a.len(), 2);
        assert_eq!((a[0].var.as_str(), a[0].kind), ("y", AccessKind::Read));
        assert_eq!((a[1].var.as_str(), a[1].kind), ("x", AccessKind::Write));
    }

    #[test]
    fn compound_assignment_reads_then_writes() {
        let a = body_accesses("void f(int x) { x += 1; }");
        let kinds: Vec<_> = a.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AccessKind::Read, AccessKind::Write]);
    }

    #[test]
    fn array_access_with_affine_subscript() {
        let a = body_accesses("void f(int* a, int i) { a[i] = a[i+1]; }");
        let w = a.iter().find(|x| x.kind == AccessKind::Write).unwrap();
        assert_eq!(w.var, "a");
        assert_eq!(w.subscripts.len(), 1);
        assert_eq!(w.subscripts[0].coeff("i"), 1);
        let r = a.iter().find(|x| x.kind == AccessKind::Read && x.var == "a").unwrap();
        assert_eq!(r.subscripts[0].constant, 1);
        assert_eq!(r.text, "a[i + 1]");
    }

    #[test]
    fn subscript_index_vars_are_reads() {
        let a = body_accesses("void f(int* a, int i) { a[i] = 0; }");
        assert!(a.iter().any(|x| x.var == "i" && x.kind == AccessKind::Read));
    }

    #[test]
    fn incdec_is_read_write() {
        let a = body_accesses("void f(int x) { x++; }");
        assert_eq!(a.len(), 2);
        assert!(a[0].kind == AccessKind::Read && a[1].kind == AccessKind::Write);
    }

    #[test]
    fn nested_read_modify_writes_stay_linear() {
        // Each shape nests 16 read-modify-writes; walking every operand
        // twice would record 2^16 accesses.
        let mut dec = "x".to_string();
        let mut compound = "x".to_string();
        let mut subscript = "i".to_string();
        for _ in 0..16 {
            dec = format!("--{dec}");
            compound = format!("({compound} += 1)");
            subscript = format!("a[{subscript}]++");
        }
        let shapes =
            [(format!("x = {dec};"), 3), (format!("{compound};"), 2), (format!("{subscript};"), 33)];
        for (body, count) in shapes {
            let a = body_accesses(&format!("void f(int x, int i, int* a) {{ {body} }}"));
            assert_eq!(a.len(), count, "{body}");
        }
    }

    #[test]
    fn subscripts_of_a_read_modify_write_are_read_once() {
        let a = body_accesses("void f(int* a, int i) { a[i] += 1; }");
        let seen: Vec<_> = a.iter().map(|x| (x.var.as_str(), x.kind)).collect();
        assert_eq!(
            seen,
            [("i", AccessKind::Read), ("a", AccessKind::Read), ("a", AccessKind::Write)]
        );
    }

    #[test]
    fn two_dimensional() {
        let a = body_accesses("void f(int i, int j) { double b[10][10]; b[i][j] = b[j][i]; }");
        let w = a.iter().find(|x| x.kind == AccessKind::Write && x.var == "b").unwrap();
        assert_eq!(w.subscripts.len(), 2);
        assert_eq!(w.subscripts[0].coeff("i"), 1);
        assert_eq!(w.subscripts[1].coeff("j"), 1);
    }

    #[test]
    fn deref_write() {
        let a = body_accesses("void f(int* p) { *p = 3; }");
        let w = a.iter().find(|x| x.kind == AccessKind::Write).unwrap();
        assert_eq!(w.var, "p");
        assert_eq!(w.deref, 1);
    }

    #[test]
    fn omp_lock_calls_are_not_accesses() {
        let a = body_accesses("void f(int* l) { omp_set_lock(l); }");
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn label_format_matches_drb() {
        let a = body_accesses("void f(int* a, int i) {\n  a[i] = a[i + 1];\n}");
        let r = a.iter().find(|x| x.var == "a" && x.kind == AccessKind::Read).unwrap();
        assert_eq!(r.label(), format!("a[i + 1]@{}:{}:R", r.span.line(), r.span.col()));
    }

    #[test]
    fn opaque_subscript_flagged() {
        let a = body_accesses("void f(int* a, int* idx, int i) { a[idx[i]] = 1; }");
        let w = a.iter().find(|x| x.var == "a" && x.kind == AccessKind::Write).unwrap();
        assert!(w.has_opaque_subscript());
    }
}
