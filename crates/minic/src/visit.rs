//! AST walkers.
//!
//! [`Visitor`] is a classic borrow-visitor over statements and
//! expressions; `walk_*` free functions provide the default traversal so
//! implementations override only what they need. [`collect_names`] and
//! [`rename_unit`] are the α-rename pair that corpus augmentation and
//! differential testing share.

use crate::ast::*;
use crate::pragma::{Clause, Directive, DirectiveKind};
use std::collections::HashMap;

/// A read-only AST visitor. All hooks default to plain traversal.
pub trait Visitor {
    /// Called for every statement before its children.
    fn visit_stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }

    /// Called for every expression before its children.
    fn visit_expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }

    /// Called for every declaration.
    fn visit_decl(&mut self, d: &Decl) {
        walk_decl(self, d);
    }

    /// Called for every OpenMP directive (before the body statement).
    fn visit_directive(&mut self, _d: &Directive) {}
}

/// Traverse all statements of a function body.
pub fn walk_func<V: Visitor + ?Sized>(v: &mut V, f: &FuncDef) {
    walk_block(v, &f.body);
}

/// Traverse a block.
pub fn walk_block<V: Visitor + ?Sized>(v: &mut V, b: &Block) {
    for s in &b.stmts {
        v.visit_stmt(s);
    }
}

/// Default statement traversal.
pub fn walk_stmt<V: Visitor + ?Sized>(v: &mut V, s: &Stmt) {
    match s {
        Stmt::Decl(d) => v.visit_decl(d),
        Stmt::Expr(e) => v.visit_expr(e),
        Stmt::Empty(_) | Stmt::Break(_) | Stmt::Continue(_) => {}
        Stmt::Block(b) => walk_block(v, b),
        Stmt::If { cond, then, els, .. } => {
            v.visit_expr(cond);
            v.visit_stmt(then);
            if let Some(e) = els {
                v.visit_stmt(e);
            }
        }
        Stmt::For(f) => {
            match &f.init {
                ForInit::Empty => {}
                ForInit::Decl(d) => v.visit_decl(d),
                ForInit::Expr(e) => v.visit_expr(e),
            }
            if let Some(c) = &f.cond {
                v.visit_expr(c);
            }
            if let Some(st) = &f.step {
                v.visit_expr(st);
            }
            v.visit_stmt(&f.body);
        }
        Stmt::While { cond, body, .. } => {
            v.visit_expr(cond);
            v.visit_stmt(body);
        }
        Stmt::DoWhile { body, cond, .. } => {
            v.visit_stmt(body);
            v.visit_expr(cond);
        }
        Stmt::Return(e, _) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        Stmt::Omp { dir, body, .. } => {
            v.visit_directive(dir);
            if let Some(b) = body {
                v.visit_stmt(b);
            }
        }
    }
}

/// Default declaration traversal (visits initializers and array dims).
pub fn walk_decl<V: Visitor + ?Sized>(v: &mut V, d: &Decl) {
    for var in &d.vars {
        for dim in var.ty.dims.iter().flatten() {
            v.visit_expr(dim);
        }
        match &var.init {
            Some(Init::Expr(e)) => v.visit_expr(e),
            Some(Init::List(es)) => {
                for e in es {
                    v.visit_expr(e);
                }
            }
            None => {}
        }
    }
}

/// Default expression traversal.
pub fn walk_expr<V: Visitor + ?Sized>(v: &mut V, e: &Expr) {
    for c in e.children() {
        v.visit_expr(c);
    }
}

/// Collect every directive in a unit, in source order.
pub fn collect_directives(unit: &TranslationUnit) -> Vec<&Directive> {
    fn stmt<'a>(s: &'a Stmt, out: &mut Vec<&'a Directive>) {
        if let Stmt::Omp { dir, .. } = s {
            out.push(dir);
        }
        s.children().for_each(|c| stmt(c, out));
    }
    let mut out = Vec::new();
    for item in &unit.items {
        match item {
            Item::Func(f) => f.body.stmts.iter().for_each(|s| stmt(s, &mut out)),
            Item::Pragma(d) => out.push(d),
            Item::Global(_) => {}
        }
    }
    out
}

/// Names that must never be renamed.
fn is_reserved(name: &str) -> bool {
    name.starts_with("omp_")
        || matches!(name, "main" | "printf" | "malloc" | "calloc" | "free" | "argc" | "argv")
}

/// Collect every renameable variable in declaration order: globals,
/// then each function's parameters and its body's declarations in
/// pre-order. Reserved names (`main`, `omp_*`, libc) are skipped.
pub fn collect_names(unit: &TranslationUnit) -> Vec<String> {
    struct Names(Vec<String>);
    impl Names {
        fn push(&mut self, n: &str) {
            if !is_reserved(n) && !self.0.iter().any(|x| x == n) {
                self.0.push(n.to_string());
            }
        }
    }
    impl Visitor for Names {
        fn visit_decl(&mut self, d: &Decl) {
            for v in &d.vars {
                self.push(&v.name);
            }
        }
    }
    let mut names = Names(Vec::new());
    for item in &unit.items {
        match item {
            Item::Global(d) => names.visit_decl(d),
            Item::Func(f) => {
                for p in &f.params {
                    names.push(&p.name);
                }
                walk_func(&mut names, f);
            }
            Item::Pragma(_) => {}
        }
    }
    names.0
}

/// Apply a rename map everywhere a variable name can occur: idents,
/// declarators, clause variable lists, `threadprivate`/`flush` lists.
pub fn rename_unit(unit: &mut TranslationUnit, map: &HashMap<String, String>) {
    fn ren(n: &mut String, map: &HashMap<String, String>) {
        if let Some(new) = map.get(n.as_str()) {
            *n = new.clone();
        }
    }
    fn expr(e: &mut Expr, map: &HashMap<String, String>) {
        if let Expr::Ident { name, .. } = e {
            ren(name, map);
        }
        e.children_mut().for_each(|c| expr(c, map));
    }
    fn decl(d: &mut Decl, map: &HashMap<String, String>) {
        for v in &mut d.vars {
            ren(&mut v.name, map);
            for dim in v.ty.dims.iter_mut().flatten() {
                expr(dim, map);
            }
            match &mut v.init {
                Some(Init::Expr(e)) => expr(e, map),
                Some(Init::List(es)) => es.iter_mut().for_each(|e| expr(e, map)),
                None => {}
            }
        }
    }
    fn clause_names(c: &mut Clause, map: &HashMap<String, String>) {
        let lists: &mut Vec<String> = match c {
            Clause::Private(v)
            | Clause::Firstprivate(v)
            | Clause::Lastprivate(v)
            | Clause::Shared(v)
            | Clause::Linear(v) => v,
            Clause::Reduction(_, v) => v,
            Clause::Depend(_, v) => v,
            Clause::Schedule(_, Some(e)) => {
                expr(e, map);
                return;
            }
            Clause::NumThreads(e) | Clause::If(e) => {
                expr(e, map);
                return;
            }
            _ => return,
        };
        lists.iter_mut().for_each(|n| ren(n, map));
    }
    fn stmt(s: &mut Stmt, map: &HashMap<String, String>) {
        match s {
            Stmt::Decl(d) => decl(d, map),
            Stmt::Expr(e) => expr(e, map),
            Stmt::Block(b) => b.stmts.iter_mut().for_each(|s| stmt(s, map)),
            Stmt::If { cond, then, els, .. } => {
                expr(cond, map);
                stmt(then, map);
                if let Some(e) = els {
                    stmt(e, map);
                }
            }
            Stmt::For(f) => {
                match &mut f.init {
                    ForInit::Decl(d) => decl(d, map),
                    ForInit::Expr(e) => expr(e, map),
                    ForInit::Empty => {}
                }
                if let Some(c) = &mut f.cond {
                    expr(c, map);
                }
                if let Some(st) = &mut f.step {
                    expr(st, map);
                }
                stmt(&mut f.body, map);
            }
            Stmt::While { cond, body, .. } => {
                expr(cond, map);
                stmt(body, map);
            }
            Stmt::DoWhile { body, cond, .. } => {
                stmt(body, map);
                expr(cond, map);
            }
            Stmt::Return(Some(e), _) => expr(e, map),
            Stmt::Omp { dir, body, .. } => {
                for c in &mut dir.clauses {
                    clause_names(c, map);
                }
                if let DirectiveKind::Threadprivate(vs) | DirectiveKind::Flush(vs) = &mut dir.kind
                {
                    vs.iter_mut().for_each(|n| ren(n, map));
                }
                if let Some(b) = body {
                    stmt(b, map);
                }
            }
            _ => {}
        }
    }
    for item in &mut unit.items {
        match item {
            Item::Global(d) => decl(d, map),
            Item::Func(f) => {
                f.params.iter_mut().for_each(|p| ren(&mut p.name, map));
                f.body.stmts.iter_mut().for_each(|s| stmt(s, map));
            }
            Item::Pragma(d) => {
                if let DirectiveKind::Threadprivate(vs) = &mut d.kind {
                    vs.iter_mut().for_each(|n| ren(n, map));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pragma::DirectiveKind;

    #[test]
    fn collects_nested_directives() {
        let src = r#"
void f() {
  #pragma omp parallel
  {
    #pragma omp for
    for (int i = 0; i < 10; i++) {
      #pragma omp critical
      { int x = 1; }
    }
  }
}
"#;
        let u = parse(src).unwrap();
        let ds = collect_directives(&u);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].kind, DirectiveKind::Parallel);
        assert_eq!(ds[1].kind, DirectiveKind::For);
        assert!(matches!(ds[2].kind, DirectiveKind::Critical(None)));
    }

    #[test]
    fn names_come_in_declaration_preorder() {
        let u = parse(
            "int g, a[4];\nint main(int n) {\n  int x;\n  #pragma omp parallel for private(t)\n  for (int i = 0; i < n; i++) { int t = g; x = t; }\n  if (x) { int y = 0; } else { int x = 1; }\n  return omp_get_num_threads();\n}\n",
        )
        .unwrap();
        assert_eq!(collect_names(&u), ["g", "a", "n", "x", "i", "t", "y"]);
        let map: HashMap<String, String> =
            [("t".to_string(), "tmp".to_string())].into_iter().collect();
        let mut renamed = u.clone();
        rename_unit(&mut renamed, &map);
        let printed = crate::print_unit(&renamed);
        assert!(printed.contains("private(tmp)") && printed.contains("int tmp = g"), "{printed}");
        assert!(!printed.contains(" t "), "{printed}");
    }

    #[test]
    fn visitor_counts_idents() {
        struct Count(usize);
        impl Visitor for Count {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(e, Expr::Ident { .. }) {
                    self.0 += 1;
                }
                walk_expr(self, e);
            }
        }
        let u = parse("void f() { int a = b + c * d; }").unwrap();
        let crate::ast::Item::Func(f) = &u.items[0] else { panic!() };
        let mut v = Count(0);
        walk_func(&mut v, f);
        assert_eq!(v.0, 3);
    }
}
