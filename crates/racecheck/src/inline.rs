//! Conservative call-site inlining.
//!
//! DataRaceBench contains kernels whose racy accesses hide behind helper
//! functions (`foo(a, i)` called from a parallel loop). The detector
//! inlines calls to functions *defined in the same unit* before event
//! collection, substituting parameter names with the textual argument
//! expressions, so the dependence analysis sees through one (bounded)
//! level of calls — like a context-insensitive interprocedural analysis.

use minic::ast::*;
use std::collections::HashMap;

/// Maximum inlining depth (guards against recursion).
const MAX_DEPTH: u32 = 3;

/// Inline intra-unit calls in every function body.
pub fn inline_unit(unit: &TranslationUnit) -> TranslationUnit {
    let funcs: HashMap<String, FuncDef> = unit
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Func(f) => Some((f.name.clone(), f.clone())),
            _ => None,
        })
        .collect();
    let mut out = unit.clone();
    for item in &mut out.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| inline_stmt(s, &funcs, 0));
        }
    }
    out
}

/// Replace an expandable call statement with the callee's body (then
/// inline inside it, one level deeper), or recurse into child statements.
fn inline_stmt(s: &mut Stmt, funcs: &HashMap<String, FuncDef>, depth: u32) {
    if let Stmt::Expr(Expr::Call { callee, args, span }) = s {
        let expanded = if depth < MAX_DEPTH {
            funcs.get(callee.as_str()).and_then(|f| expand(f, args, *span))
        } else {
            None
        };
        if let Some(block) = expanded {
            *s = Stmt::Block(block);
            inline_stmt(s, funcs, depth + 1);
        }
        return;
    }
    s.children_mut().for_each(|c| inline_stmt(c, funcs, depth));
}

/// Expand a call into the callee body with parameters renamed to the
/// argument expressions. Only simple arguments (identifiers, literals,
/// `&x`) are substitutable; otherwise the call is left alone.
fn expand(f: &FuncDef, args: &[Expr], span: minic::Span) -> Option<Block> {
    if f.params.len() != args.len() {
        return None;
    }
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for (p, a) in f.params.iter().zip(args) {
        let simple = matches!(
            a,
            Expr::Ident { .. }
                | Expr::IntLit { .. }
                | Expr::FloatLit { .. }
                | Expr::Unary { op: UnOp::AddrOf, .. }
        );
        if !simple {
            return None;
        }
        // `&x` passed for a pointer parameter: the callee's `*p`/`p[…]`
        // accesses hit `x`; substituting the root name preserves the
        // aliasing relationship the detector needs.
        let replacement = match a {
            Expr::Unary { op: UnOp::AddrOf, expr, .. } => (**expr).clone(),
            other => other.clone(),
        };
        subst.insert(p.name.clone(), replacement);
    }
    let mut body = f.body.clone();
    subst_block(&mut body, &subst);
    body.span = span;
    Some(body)
}

fn subst_block(b: &mut Block, subst: &HashMap<String, Expr>) {
    for s in &mut b.stmts {
        subst_stmt(s, subst);
    }
}

fn subst_stmt(s: &mut Stmt, subst: &HashMap<String, Expr>) {
    match s {
        Stmt::Decl(d) => {
            for v in &mut d.vars {
                match &mut v.init {
                    Some(Init::Expr(e)) => subst_expr(e, subst),
                    Some(Init::List(es)) => {
                        for e in es {
                            subst_expr(e, subst);
                        }
                    }
                    None => {}
                }
            }
        }
        Stmt::Expr(e) => subst_expr(e, subst),
        Stmt::Empty(_) | Stmt::Break(_) | Stmt::Continue(_) => {}
        Stmt::Block(b) => subst_block(b, subst),
        Stmt::If { cond, then, els, .. } => {
            subst_expr(cond, subst);
            subst_stmt(then, subst);
            if let Some(e) = els {
                subst_stmt(e, subst);
            }
        }
        Stmt::For(f) => {
            match &mut f.init {
                ForInit::Empty => {}
                ForInit::Decl(d) => {
                    for v in &mut d.vars {
                        if let Some(Init::Expr(e)) = &mut v.init {
                            subst_expr(e, subst);
                        }
                    }
                }
                ForInit::Expr(e) => subst_expr(e, subst),
            }
            if let Some(c) = &mut f.cond {
                subst_expr(c, subst);
            }
            if let Some(st) = &mut f.step {
                subst_expr(st, subst);
            }
            subst_stmt(&mut f.body, subst);
        }
        Stmt::While { cond, body, .. } => {
            subst_expr(cond, subst);
            subst_stmt(body, subst);
        }
        Stmt::DoWhile { body, cond, .. } => {
            subst_stmt(body, subst);
            subst_expr(cond, subst);
        }
        Stmt::Return(e, _) => {
            if let Some(e) = e {
                subst_expr(e, subst);
            }
        }
        Stmt::Omp { body, .. } => {
            if let Some(b) = body {
                subst_stmt(b, subst);
            }
        }
    }
}

fn subst_expr(e: &mut Expr, subst: &HashMap<String, Expr>) {
    if let Expr::Ident { name, span } = e {
        if let Some(rep) = subst.get(name) {
            let mut rep = rep.clone();
            retarget_span(&mut rep, *span);
            *e = rep;
        }
        return;
    }
    e.children_mut().for_each(|c| subst_expr(c, subst));
}

/// Point a substituted expression's span at the use site, so race
/// reports refer to caller-side locations.
fn retarget_span(e: &mut Expr, span: minic::Span) {
    match e {
        Expr::IntLit { span: s, .. }
        | Expr::FloatLit { span: s, .. }
        | Expr::StrLit { span: s, .. }
        | Expr::CharLit { span: s, .. }
        | Expr::Ident { span: s, .. }
        | Expr::Index { span: s, .. }
        | Expr::Call { span: s, .. }
        | Expr::Unary { span: s, .. }
        | Expr::Binary { span: s, .. }
        | Expr::Assign { span: s, .. }
        | Expr::IncDec { span: s, .. }
        | Expr::Cond { span: s, .. }
        | Expr::Cast { span: s, .. } => *s = span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    #[test]
    fn inlines_simple_call() {
        let src = r#"
int a[100];
void work(int i) { a[i] = a[i + 1]; }
int main() {
  #pragma omp parallel for
  for (int i = 0; i < 99; i++)
    work(i);
  return 0;
}
"#;
        let unit = inline_unit(&parse(src).unwrap());
        let Item::Func(main) = unit.items.iter().find(|i| matches!(i, Item::Func(f) if f.name == "main")).unwrap()
        else {
            unreachable!()
        };
        let printed = minic::printer::print_unit(&TranslationUnit {
            preprocessor: vec![],
            items: vec![Item::Func(main.clone())],
        });
        assert!(printed.contains("a[i] = a[i + 1]"), "{printed}");
    }

    #[test]
    fn leaves_unknown_calls() {
        let src = "int main() { printf(\"x\"); return 0; }";
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("printf"));
    }

    #[test]
    fn recursion_bounded() {
        let src = "void f() { f(); } int main() { f(); return 0; }";
        // Must terminate.
        let _ = inline_unit(&parse(src).unwrap());
    }

    #[test]
    fn complex_args_not_inlined() {
        let src = "void g(int x) { int y = x; } int main() { g(1 + 2); return 0; }";
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("g(1 + 2)"));
    }

    #[test]
    fn addr_of_substitutes_root() {
        let src = r#"
void incr(int* p) { *p = *p + 1; }
int x;
int main() {
  #pragma omp parallel
  { incr(&x); }
  return 0;
}
"#;
        let unit = inline_unit(&parse(src).unwrap());
        let printed = minic::print_unit(&unit);
        assert!(printed.contains("*x = *x + 1"), "{printed}");
    }
}
