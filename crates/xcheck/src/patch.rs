//! The mutation vocabulary run in reverse: targeted repair edits.
//!
//! [`FlipMutation`](crate::mutate::FlipMutation) *removes* protection
//! to flip a kernel's label toward racy; a [`RepairEdit`] adds it back.
//! Each edit is parameterized by the variable the detectors reported
//! racing (a `var_pairs` entry), so the repair loop can enumerate a
//! small, targeted candidate set instead of spraying clauses:
//!
//! * [`AddReduction`](RepairEdit::AddReduction) — the inverse of
//!   `drop-reduction`: attach `reduction(op: v)` to the innermost
//!   parallel/worksharing directive whose body updates `v`, deriving
//!   `op` from the update site itself (`sum += e` → `+`).
//! * [`WrapAtomic`](RepairEdit::WrapAtomic) — the inverse of
//!   `drop-sync`: wrap every unprotected read-modify-write of `v` in
//!   `#pragma omp atomic`.
//! * [`WrapCritical`](RepairEdit::WrapCritical) — wrap every statement
//!   inside a parallel region that touches `v` in one unnamed
//!   `#pragma omp critical` (mutual exclusion across all of them).
//! * [`AddPrivate`](RepairEdit::AddPrivate) — the inverse of
//!   `drop-private`: privatize a scratch temporary.
//! * [`DropNowait`](RepairEdit::DropNowait) — restore the barrier a
//!   `nowait` clause removed.
//! * [`SerializeBody`](RepairEdit::SerializeBody) — the big hammer:
//!   wrap the parallel (or per-iteration) body in one critical section.
//!   Gated on bodies free of nested pragmas, where mutual exclusion
//!   cannot deadlock a barrier.
//!
//! Application is best-effort and *structural only*: [`apply_repair`]
//! returns `None` when the targeted construct is absent, and makes no
//! semantic promise — every candidate goes through the repair crate's
//! certification (racecheck + hbsan sweep + output equivalence) before
//! anyone calls it a fix.

use crate::mutate::for_each_directive_mut;
use minic::ast::*;
use minic::pragma::{AtomicKind, Clause, Directive, DirectiveKind, ReductionOp};
use minic::Span;

/// One targeted repair edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairEdit {
    /// Attach `reduction(op: var)` to the innermost enclosing
    /// parallel/worksharing directive, deriving `op` from the update.
    AddReduction {
        /// The reported racy scalar.
        var: String,
    },
    /// Wrap every read-modify-write of `var` in `#pragma omp atomic`.
    WrapAtomic {
        /// The reported racy scalar.
        var: String,
    },
    /// Wrap every parallel-region statement touching `var` in one
    /// unnamed `#pragma omp critical`.
    WrapCritical {
        /// The reported racy variable.
        var: String,
    },
    /// Attach `private(var)` to the innermost enclosing
    /// parallel/worksharing directive that writes it.
    AddPrivate {
        /// The reported racy scratch temporary.
        var: String,
    },
    /// Remove every `nowait` clause (restores worksharing barriers).
    DropNowait,
    /// Wrap the first parallel region's body — for combined
    /// parallel-loop directives, each iteration's body — in one
    /// `#pragma omp critical`.
    SerializeBody,
}

impl RepairEdit {
    /// Short display tag (patch-table row labels).
    pub fn tag(&self) -> &'static str {
        match self {
            RepairEdit::AddReduction { .. } => "add-reduction",
            RepairEdit::WrapAtomic { .. } => "wrap-atomic",
            RepairEdit::WrapCritical { .. } => "wrap-critical",
            RepairEdit::AddPrivate { .. } => "add-private",
            RepairEdit::DropNowait => "drop-nowait",
            RepairEdit::SerializeBody => "serialize-body",
        }
    }

    /// Human-readable description for certificates and reports.
    pub fn describe(&self) -> String {
        match self {
            RepairEdit::AddReduction { var } => format!("add reduction clause for `{var}`"),
            RepairEdit::WrapAtomic { var } => format!("wrap updates of `{var}` in omp atomic"),
            RepairEdit::WrapCritical { var } => {
                format!("wrap accesses of `{var}` in omp critical")
            }
            RepairEdit::AddPrivate { var } => format!("privatize `{var}`"),
            RepairEdit::DropNowait => "drop nowait clauses".to_string(),
            RepairEdit::SerializeBody => "serialize the parallel body with omp critical".to_string(),
        }
    }

    /// The variable this edit declares dead scratch storage, if any —
    /// the output-equivalence check excludes it (a `private` clause
    /// makes the shared cell's final value unobservable by contract).
    pub fn scratch_var(&self) -> Option<&str> {
        match self {
            RepairEdit::AddPrivate { var } => Some(var),
            _ => None,
        }
    }
}

/// Apply a repair edit; `None` when the targeted construct is absent
/// (no update of the variable under a parallel directive, no `nowait`
/// to drop, a serialize target with nested pragmas, …).
pub fn apply_repair(unit: &TranslationUnit, e: &RepairEdit) -> Option<TranslationUnit> {
    let mut u = unit.clone();
    let changed = match e {
        RepairEdit::AddReduction { var } => add_reduction(&mut u, var),
        RepairEdit::WrapAtomic { var } => wrap_atomic_updates(&mut u, var),
        RepairEdit::WrapCritical { var } => wrap_critical_accesses(&mut u, var),
        RepairEdit::AddPrivate { var } => add_private(&mut u, var),
        RepairEdit::DropNowait => {
            let mut changed = false;
            for_each_directive_mut(&mut u, &mut |d| {
                let before = d.clauses.len();
                d.clauses.retain(|c| !matches!(c, Clause::Nowait));
                changed |= d.clauses.len() != before;
            });
            changed
        }
        RepairEdit::SerializeBody => serialize_body(&mut u),
    };
    changed.then_some(u)
}

/// `op` of `v op= e` / `v = v op e` / `v++`, when it has a reduction
/// spelling.
fn reduction_op(s: &Stmt, var: &str) -> Option<ReductionOp> {
    let is_var = |e: &Expr| matches!(e, Expr::Ident { name, .. } if name == var);
    match s {
        Stmt::Expr(Expr::Assign { op, lhs, rhs, .. }) if is_var(lhs) => match op {
            AssignOp::Add => Some(ReductionOp::Add),
            AssignOp::Sub => Some(ReductionOp::Sub),
            AssignOp::Mul => Some(ReductionOp::Mul),
            AssignOp::BitAnd => Some(ReductionOp::BitAnd),
            AssignOp::BitOr => Some(ReductionOp::BitOr),
            AssignOp::BitXor => Some(ReductionOp::BitXor),
            AssignOp::Assign => match rhs.as_ref() {
                // `v = v op e` (and `v = e op v` for commutative ops).
                Expr::Binary { op, lhs: bl, rhs: br, .. } => {
                    let (l, r) = (is_var(bl), is_var(br));
                    match op {
                        BinOp::Add if l || r => Some(ReductionOp::Add),
                        BinOp::Mul if l || r => Some(ReductionOp::Mul),
                        BinOp::Sub if l => Some(ReductionOp::Sub),
                        BinOp::BitAnd if l || r => Some(ReductionOp::BitAnd),
                        BinOp::BitOr if l || r => Some(ReductionOp::BitOr),
                        BinOp::BitXor if l || r => Some(ReductionOp::BitXor),
                        _ => None,
                    }
                }
                _ => None,
            },
            _ => None,
        },
        Stmt::Expr(Expr::IncDec { expr, .. }) if is_var(expr) => Some(ReductionOp::Add),
        _ => None,
    }
}

/// First reduction-shaped update of `var` anywhere in a subtree.
fn find_reducible(s: &Stmt, var: &str) -> Option<ReductionOp> {
    reduction_op(s, var).or_else(|| s.children().find_map(|c| find_reducible(c, var)))
}

/// Whether a subtree assigns the scalar `var`.
fn writes_scalar(s: &Stmt, var: &str) -> bool {
    let direct = matches!(
        s,
        Stmt::Expr(Expr::Assign { lhs, .. })
            if matches!(lhs.as_ref(), Expr::Ident { name, .. } if name == var)
    ) || matches!(
        s,
        Stmt::Expr(Expr::IncDec { expr, .. })
            if matches!(expr.as_ref(), Expr::Ident { name, .. } if name == var)
    );
    direct || s.children().any(|c| writes_scalar(c, var))
}

/// Remove `var` from every data-sharing clause list on a directive
/// (a variable cannot be `shared` and `reduction` at once; dropping the
/// stale attribute keeps the patched pragma well-formed).
fn scrub_data_sharing(d: &mut Directive, var: &str) {
    for c in &mut d.clauses {
        let list = match c {
            Clause::Private(l)
            | Clause::Firstprivate(l)
            | Clause::Lastprivate(l)
            | Clause::Shared(l)
            | Clause::Reduction(_, l)
            | Clause::Linear(l) => l,
            _ => continue,
        };
        list.retain(|v| v != var);
    }
    d.clauses.retain(|c| {
        !matches!(
            c,
            Clause::Private(l)
            | Clause::Firstprivate(l)
            | Clause::Lastprivate(l)
            | Clause::Shared(l)
            | Clause::Reduction(_, l)
            | Clause::Linear(l) if l.is_empty()
        )
    });
}

/// Attach a clause built by `mk` to the *innermost* parallel-creating
/// or worksharing-loop directive whose body satisfies `site` — the
/// construct OpenMP data-sharing clauses actually bind to.
fn attach_clause(
    unit: &mut TranslationUnit,
    var: &str,
    site: &dyn Fn(&Stmt) -> bool,
    mk: &dyn Fn() -> Clause,
) -> bool {
    fn walk(
        s: &mut Stmt,
        var: &str,
        site: &dyn Fn(&Stmt) -> bool,
        mk: &dyn Fn() -> Clause,
    ) -> bool {
        // Try children first so the innermost candidate directive wins.
        if s.children_mut().any(|c| walk(c, var, site, mk)) {
            return true;
        }
        if let Stmt::Omp { dir, body: Some(b), .. } = s {
            let binds = dir.kind.creates_parallelism() || dir.kind.is_worksharing_loop();
            if binds && site(b) {
                scrub_data_sharing(dir, var);
                dir.clauses.push(mk());
                return true;
            }
        }
        false
    }
    unit.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(|s| walk(s, var, site, mk)),
        _ => false,
    })
}

fn add_reduction(unit: &mut TranslationUnit, var: &str) -> bool {
    // Derive the operator once, from anywhere in the unit, then attach
    // to the innermost directive enclosing such an update.
    let op = unit.items.iter().find_map(|item| match item {
        Item::Func(f) => f.body.stmts.iter().find_map(|s| find_reducible(s, var)),
        _ => None,
    });
    let Some(op) = op else { return false };
    attach_clause(
        unit,
        var,
        &|b| find_reducible(b, var).is_some(),
        &|| Clause::Reduction(op, vec![var.to_string()]),
    )
}

fn add_private(unit: &mut TranslationUnit, var: &str) -> bool {
    attach_clause(
        unit,
        var,
        &|b| writes_scalar(b, var),
        &|| Clause::Private(vec![var.to_string()]),
    )
}

/// Wrap a statement in a directive, in place.
fn wrap_stmt(s: &mut Stmt, kind: DirectiveKind) {
    let inner = std::mem::replace(s, Stmt::Empty(Span::DUMMY));
    *s = Stmt::Omp {
        dir: Directive { kind, clauses: Vec::new(), span: Span::DUMMY },
        body: Some(Box::new(inner)),
        span: Span::DUMMY,
    };
}

/// Walk every statement of every function, skipping subtrees already
/// under `critical`/`atomic` protection, and wrap each statement the
/// predicate selects. Returns how many statements were wrapped.
fn wrap_matching(
    unit: &mut TranslationUnit,
    kind: &dyn Fn() -> DirectiveKind,
    want: &dyn Fn(&Stmt, bool) -> bool,
) -> usize {
    fn walk(
        s: &mut Stmt,
        in_parallel: bool,
        kind: &dyn Fn() -> DirectiveKind,
        want: &dyn Fn(&Stmt, bool) -> bool,
        wrapped: &mut usize,
    ) {
        if want(s, in_parallel) {
            wrap_stmt(s, kind());
            *wrapped += 1;
            return;
        }
        let mut par = in_parallel;
        if let Stmt::Omp { dir, .. } = s {
            if dir.kind.is_mutex() {
                return; // already protected
            }
            par |= dir.kind.creates_parallelism();
        }
        s.children_mut().for_each(|c| walk(c, par, kind, want, wrapped));
    }
    let mut wrapped = 0;
    for item in &mut unit.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| walk(s, false, kind, want, &mut wrapped));
        }
    }
    wrapped
}

fn wrap_atomic_updates(unit: &mut TranslationUnit, var: &str) -> bool {
    wrap_matching(
        unit,
        &|| DirectiveKind::Atomic(AtomicKind::Update),
        &|s, _| reduction_op(s, var).is_some(),
    ) > 0
}

fn wrap_critical_accesses(unit: &mut TranslationUnit, var: &str) -> bool {
    wrap_matching(
        unit,
        &|| DirectiveKind::Critical(None),
        &|s, in_parallel| {
            in_parallel
                && matches!(s, Stmt::Expr(_))
                && depend::accesses_of_stmt(s).iter().any(|a| a.var == var)
        },
    ) > 0
}

/// Whether a subtree contains any OpenMP statement pragma.
fn has_pragma(s: &Stmt) -> bool {
    matches!(s, Stmt::Omp { .. }) || s.children().any(has_pragma)
}

fn serialize_body(unit: &mut TranslationUnit) -> bool {
    fn walk(s: &mut Stmt) -> bool {
        if let Stmt::Omp { dir, body: Some(b), .. } = s {
            if dir.kind.creates_parallelism() {
                // For combined parallel-loop directives the directive
                // grammar owns the `for`; serialize each iteration's
                // body instead of the loop statement itself.
                let target = if dir.kind.is_worksharing_loop() {
                    match b.as_mut() {
                        Stmt::For(f) => &mut f.body,
                        _ => return false,
                    }
                } else {
                    b.as_mut()
                };
                // Mutual exclusion around a nested pragma (a barrier,
                // another worksharing loop) would deadlock; give up.
                if has_pragma(target) {
                    return false;
                }
                wrap_stmt(target, DirectiveKind::Critical(None));
                return true;
            }
        }
        s.children_mut().any(walk)
    }
    unit.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(walk),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::printer::print_unit;

    fn parse(code: &str) -> TranslationUnit {
        minic::parse(code).expect("test kernel parses")
    }

    const RACY_SUM: &str = "int a[64]; int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += a[i];\n  return sum;\n}\n";

    #[test]
    fn add_reduction_targets_innermost_directive() {
        let u = parse(RACY_SUM);
        let fixed = apply_repair(&u, &RepairEdit::AddReduction { var: "sum".into() }).unwrap();
        let text = print_unit(&fixed);
        assert!(text.contains("reduction(+: sum)"), "got:\n{text}");
        assert!(racecheck::check(&fixed).races.is_empty(), "reduction patch must satisfy racecheck");
    }

    #[test]
    fn add_reduction_derives_the_operator() {
        let u = parse(
            "int p;\nint main() {\n  #pragma omp parallel for\n  for (int i = 1; i < 9; i++) p = p * i;\n  return p;\n}\n",
        );
        let fixed = apply_repair(&u, &RepairEdit::AddReduction { var: "p".into() }).unwrap();
        assert!(print_unit(&fixed).contains("reduction(*: p)"));
        // No reduction-shaped update of an unrelated var → inapplicable.
        assert!(apply_repair(&u, &RepairEdit::AddReduction { var: "i".into() }).is_none());
    }

    #[test]
    fn wrap_atomic_hits_every_update_of_the_var_only() {
        let code = "int hits; int misses;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 32; i++) {\n    hits += 1;\n    misses += 2;\n    hits += 3;\n  }\n  return hits;\n}\n";
        let fixed = apply_repair(&parse(code), &RepairEdit::WrapAtomic { var: "hits".into() }).unwrap();
        let text = print_unit(&fixed);
        assert_eq!(text.matches("#pragma omp atomic").count(), 2, "got:\n{text}");
        assert!(text.contains("misses += 2"), "unrelated update untouched:\n{text}");
    }

    #[test]
    fn wrap_atomic_skips_already_protected_updates() {
        let code = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 8; i++) {\n    #pragma omp critical\n    { sum += i; }\n  }\n  return sum;\n}\n";
        assert!(apply_repair(&parse(code), &RepairEdit::WrapAtomic { var: "sum".into() }).is_none());
    }

    #[test]
    fn wrap_critical_guards_parallel_accesses_only() {
        let code = "int t; int a[16];\nint main() {\n  t = 5;\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) {\n    t = i;\n    a[i] = t;\n  }\n  t = 9;\n  return t;\n}\n";
        let fixed = apply_repair(&parse(code), &RepairEdit::WrapCritical { var: "t".into() }).unwrap();
        let text = print_unit(&fixed);
        assert_eq!(
            text.matches("#pragma omp critical").count(),
            2,
            "both loop-body accesses, neither serial one:\n{text}"
        );
    }

    #[test]
    fn add_private_scrubs_conflicting_clauses() {
        let code = "int t; int a[16];\nint main() {\n  #pragma omp parallel for shared(t, a)\n  for (int i = 0; i < 16; i++) {\n    t = i * 2;\n    a[i] = t;\n  }\n  return 0;\n}\n";
        let fixed = apply_repair(&parse(code), &RepairEdit::AddPrivate { var: "t".into() }).unwrap();
        let text = print_unit(&fixed);
        assert!(text.contains("private(t)"), "got:\n{text}");
        assert!(text.contains("shared(a)"), "other vars keep their attribute:\n{text}");
        assert!(!text.contains("shared(t"), "conflicting attribute scrubbed:\n{text}");
    }

    #[test]
    fn drop_nowait_restores_the_barrier() {
        let code = "int a[8]; int b[8];\nint main() {\n  #pragma omp parallel\n  {\n    #pragma omp for nowait\n    for (int i = 0; i < 8; i++) a[i] = i;\n    #pragma omp for\n    for (int i = 0; i < 8; i++) b[i] = a[i];\n  }\n  return 0;\n}\n";
        let fixed = apply_repair(&parse(code), &RepairEdit::DropNowait).unwrap();
        assert!(!print_unit(&fixed).contains("nowait"));
        // Nothing to drop → inapplicable.
        assert!(apply_repair(&fixed, &RepairEdit::DropNowait).is_none());
    }

    #[test]
    fn serialize_body_wraps_the_iteration_body() {
        let u = parse(RACY_SUM);
        let fixed = apply_repair(&u, &RepairEdit::SerializeBody).unwrap();
        let text = print_unit(&fixed);
        assert!(text.contains("#pragma omp critical"), "got:\n{text}");
        assert!(
            text.contains("parallel for"),
            "the parallel-loop directive itself survives:\n{text}"
        );
        assert!(racecheck::check(&fixed).races.is_empty());
    }

    #[test]
    fn serialize_body_refuses_nested_pragmas() {
        let code = "int x;\nint main() {\n  #pragma omp parallel\n  {\n    x = 1;\n    #pragma omp barrier\n    x = 2;\n  }\n  return x;\n}\n";
        assert!(apply_repair(&parse(code), &RepairEdit::SerializeBody).is_none());
    }

    #[test]
    fn patched_units_reparse() {
        for e in [
            RepairEdit::AddReduction { var: "sum".into() },
            RepairEdit::WrapAtomic { var: "sum".into() },
            RepairEdit::WrapCritical { var: "sum".into() },
            RepairEdit::SerializeBody,
        ] {
            let fixed = apply_repair(&parse(RACY_SUM), &e).unwrap();
            let text = print_unit(&fixed);
            let reparsed = minic::parse(&text).unwrap_or_else(|err| {
                panic!("{} output must reparse ({err:?}):\n{text}", e.tag())
            });
            let mut a = fixed.clone();
            let mut b = reparsed;
            a.strip_spans();
            b.strip_spans();
            assert_eq!(a, b, "{} print/reparse round-trip", e.tag());
        }
    }
}
