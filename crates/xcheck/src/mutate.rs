//! The two mutation families.
//!
//! * **Semantics-preserving rewrites** ([`SemMutation`]) — α-renaming
//!   (through `minic::visit`'s rename pair, which the corpus augmenter
//!   shares), pragma-clause reordering, permutation of adjacent
//!   independent statements, and loop re-rolling (canonicalizing `i++` steps and re-bracing loop
//!   bodies). Applying one must leave every detector's verdict fixed;
//!   the sweep records any violation.
//! * **Label-flipping edits** ([`FlipMutation`]) — drop/add
//!   `critical`/`atomic`/`reduction`/`private` protection, or perturb a
//!   stencil subscript offset across the dependence-distance boundary.
//!   Each flip's expected label delta is machine-derived from the
//!   generator recipe that gates it (see [`FlipMutation::applicable`]).

use crate::gen::{GenKernel, Pattern, SyncKind};
use minic::ast::*;
use minic::pragma::{AtomicKind, Clause, Directive, DirectiveKind};
use minic::Span;
use std::collections::HashMap;

/// A semantics-preserving rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemMutation {
    /// Consistently α-rename every program variable.
    Rename,
    /// Reverse the clause list of every multi-clause directive.
    ClauseReorder,
    /// Swap the first pair of adjacent independent expression statements.
    StmtPermute,
    /// Canonicalize `i++` loop steps to `i = i + 1` and brace bare loop
    /// bodies.
    Reroll,
}

impl SemMutation {
    /// All semantics-preserving rewrites, in sweep order.
    pub const ALL: [SemMutation; 4] =
        [SemMutation::Rename, SemMutation::ClauseReorder, SemMutation::StmtPermute, SemMutation::Reroll];

    /// Short display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            SemMutation::Rename => "rename",
            SemMutation::ClauseReorder => "clause-reorder",
            SemMutation::StmtPermute => "stmt-permute",
            SemMutation::Reroll => "reroll",
        }
    }
}

/// Apply a semantics-preserving rewrite; `None` when it does not apply
/// (nothing to rename, no multi-clause directive, …).
pub fn apply_sem(unit: &TranslationUnit, m: SemMutation) -> Option<TranslationUnit> {
    let mut u = unit.clone();
    let changed = match m {
        SemMutation::Rename => {
            let names = minic::visit::collect_names(&u);
            if names.is_empty() {
                return None;
            }
            let map: HashMap<String, String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), format!("rn{i}_{n}")))
                .collect();
            minic::visit::rename_unit(&mut u, &map);
            true
        }
        SemMutation::ClauseReorder => {
            let mut changed = false;
            for_each_directive_mut(&mut u, &mut |d| {
                if d.clauses.len() >= 2 {
                    d.clauses.reverse();
                    changed = true;
                }
            });
            changed
        }
        SemMutation::StmtPermute => permute_first_independent_pair(&mut u),
        SemMutation::Reroll => reroll_loops(&mut u),
    };
    changed.then_some(u)
}

/// A label-flipping edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipMutation {
    /// Remove every `reduction` clause (unprotects the scalar update).
    DropReduction,
    /// Unwrap the first `critical`/`atomic` region to its bare body.
    DropSyncRegion,
    /// Wrap the first compound scalar update in `#pragma omp atomic`.
    AddAtomic,
    /// Remove every `private` clause (shares the temp).
    DropPrivate,
    /// Add `private(t)` for the temp written first in the ws-loop body.
    AddPrivate,
    /// Collapse the stencil read offset to 0 (dependence distance 0).
    OffsetZero,
    /// Grow the stencil read offset from 0 to 1 (crosses the boundary).
    OffsetOne,
}

impl FlipMutation {
    /// Short display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FlipMutation::DropReduction => "drop-reduction",
            FlipMutation::DropSyncRegion => "drop-sync",
            FlipMutation::AddAtomic => "add-atomic",
            FlipMutation::DropPrivate => "drop-private",
            FlipMutation::AddPrivate => "add-private",
            FlipMutation::OffsetZero => "offset-to-0",
            FlipMutation::OffsetOne => "offset-to-1",
        }
    }

    /// The flips applicable to a generated kernel, each paired with the
    /// machine-derived expected label after the edit. Derivation is from
    /// the generative recipe: e.g. dropping the reduction clause of a
    /// `sum += a[i]` loop leaves an unprotected read-modify-write per
    /// iteration (label → race), and collapsing a stencil offset to 0
    /// removes the only loop-carried dependence (label → no race).
    pub fn applicable(k: &GenKernel) -> Vec<(FlipMutation, bool)> {
        match k.pattern {
            Pattern::ScalarUpdate { sync: SyncKind::Reduction, .. } => {
                vec![(FlipMutation::DropReduction, true)]
            }
            Pattern::ScalarUpdate { sync: SyncKind::Critical | SyncKind::Atomic, .. } => {
                vec![(FlipMutation::DropSyncRegion, true)]
            }
            Pattern::ScalarUpdate { sync: SyncKind::None, .. } => {
                vec![(FlipMutation::AddAtomic, false)]
            }
            Pattern::PrivateTemp { private: true, .. } => vec![(FlipMutation::DropPrivate, true)],
            Pattern::PrivateTemp { private: false, .. } => vec![(FlipMutation::AddPrivate, false)],
            Pattern::Stencil { off: 0, .. } => vec![(FlipMutation::OffsetOne, true)],
            Pattern::Stencil { .. } => vec![(FlipMutation::OffsetZero, false)],
            Pattern::Sections { .. } | Pattern::Indirect { .. } => Vec::new(),
        }
    }
}

/// Apply a label-flipping edit; `None` when the targeted construct is
/// absent (the edit is gated on the recipe, so this means the kernel
/// was already mutated out from under us).
pub fn apply_flip(unit: &TranslationUnit, m: FlipMutation) -> Option<TranslationUnit> {
    let mut u = unit.clone();
    let changed = match m {
        FlipMutation::DropReduction => {
            let mut changed = false;
            for_each_directive_mut(&mut u, &mut |d| {
                let before = d.clauses.len();
                d.clauses.retain(|c| !matches!(c, Clause::Reduction(..)));
                changed |= d.clauses.len() != before;
            });
            changed
        }
        FlipMutation::DropPrivate => {
            let mut changed = false;
            for_each_directive_mut(&mut u, &mut |d| {
                let before = d.clauses.len();
                d.clauses.retain(|c| !matches!(c, Clause::Private(_)));
                changed |= d.clauses.len() != before;
            });
            changed
        }
        FlipMutation::DropSyncRegion => unwrap_first_sync_region(&mut u),
        FlipMutation::AddAtomic => wrap_first_compound_update(&mut u),
        FlipMutation::AddPrivate => add_private_for_loop_temp(&mut u),
        FlipMutation::OffsetZero => perturb_stencil_offset(&mut u, 0),
        FlipMutation::OffsetOne => perturb_stencil_offset(&mut u, 1),
    };
    changed.then_some(u)
}

/// Visit every directive in the unit mutably (statement pragmas and
/// file-scope pragmas alike).
pub(crate) fn for_each_directive_mut(unit: &mut TranslationUnit, f: &mut dyn FnMut(&mut Directive)) {
    fn stmt(s: &mut Stmt, f: &mut dyn FnMut(&mut Directive)) {
        if let Stmt::Omp { dir, .. } = s {
            f(dir);
        }
        s.children_mut().for_each(|c| stmt(c, f));
    }
    for item in &mut unit.items {
        match item {
            Item::Func(fd) => fd.body.stmts.iter_mut().for_each(|s| stmt(s, f)),
            Item::Pragma(d) => f(d),
            Item::Global(_) => {}
        }
    }
}

/// Swap the first adjacent pair of independent expression statements
/// (call-free, disjoint root-variable access sets) in any block.
fn permute_first_independent_pair(unit: &mut TranslationUnit) -> bool {
    fn roots(s: &Stmt) -> Option<Vec<String>> {
        // Only simple expression statements participate; a call makes
        // the statement opaque.
        let accesses = depend::accesses_of_stmt(s);
        if !matches!(s, Stmt::Expr(_)) || has_call(s) {
            return None;
        }
        Some(accesses.into_iter().map(|a| a.var).collect())
    }
    fn has_call(s: &Stmt) -> bool {
        struct C(bool);
        impl minic::visit::Visitor for C {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(e, Expr::Call { .. }) {
                    self.0 = true;
                }
                minic::visit::walk_expr(self, e);
            }
        }
        let mut c = C(false);
        minic::visit::walk_stmt(&mut c, s);
        c.0
    }
    fn in_block(b: &mut Block) -> bool {
        for i in 0..b.stmts.len().saturating_sub(1) {
            if let (Some(ra), Some(rb)) = (roots(&b.stmts[i]), roots(&b.stmts[i + 1])) {
                let disjoint = ra.iter().all(|v| !rb.contains(v));
                if disjoint && !ra.is_empty() && !rb.is_empty() {
                    b.stmts.swap(i, i + 1);
                    return true;
                }
            }
        }
        for s in &mut b.stmts {
            if in_stmt(s) {
                return true;
            }
        }
        false
    }
    fn in_stmt(s: &mut Stmt) -> bool {
        match s {
            Stmt::Block(b) => in_block(b),
            _ => s.children_mut().any(in_stmt),
        }
    }
    let mut items = false;
    for item in &mut unit.items {
        if let Item::Func(f) = item {
            if in_block(&mut f.body) {
                items = true;
                break;
            }
        }
    }
    items
}

/// Canonicalize `i++`/`++i` loop steps to `i = i + 1` and wrap bare
/// (non-block) loop bodies in a block.
fn reroll_loops(unit: &mut TranslationUnit) -> bool {
    fn stmt(s: &mut Stmt, changed: &mut bool) {
        if let Stmt::For(f) = s {
            if let Some(Expr::IncDec { inc: true, expr, .. }) = &f.step {
                if let Expr::Ident { name, .. } = expr.as_ref() {
                    let ident = |n: &str| Expr::Ident { name: n.to_string(), span: Span::DUMMY };
                    f.step = Some(Expr::Assign {
                        op: AssignOp::Assign,
                        lhs: Box::new(ident(name)),
                        rhs: Box::new(Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(ident(name)),
                            rhs: Box::new(Expr::IntLit { value: 1, span: Span::DUMMY }),
                            span: Span::DUMMY,
                        }),
                        span: Span::DUMMY,
                    });
                    *changed = true;
                }
            }
            brace(&mut f.body, changed);
        }
        s.children_mut().for_each(|c| stmt(c, changed));
    }
    fn brace(body: &mut Stmt, changed: &mut bool) {
        if !matches!(body, Stmt::Block(_)) {
            let inner = std::mem::replace(body, Stmt::Empty(Span::DUMMY));
            *body = Stmt::Block(Block { stmts: vec![inner], span: Span::DUMMY });
            *changed = true;
        }
    }
    let mut changed = false;
    for item in &mut unit.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| stmt(s, &mut changed));
        }
    }
    changed
}

/// Replace the first `critical`/`atomic`-guarded statement with its
/// bare body.
fn unwrap_first_sync_region(unit: &mut TranslationUnit) -> bool {
    fn stmt(s: &mut Stmt) -> bool {
        if let Stmt::Omp { dir, body, .. } = s {
            if matches!(dir.kind, DirectiveKind::Critical(_) | DirectiveKind::Atomic(_)) {
                *s = match body.take() {
                    Some(b) => *b,
                    None => Stmt::Empty(Span::DUMMY),
                };
                return true;
            }
        }
        s.children_mut().any(stmt)
    }
    unit.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(stmt),
        _ => false,
    })
}

/// Wrap the first compound assignment to a scalar (`sum += …`) in
/// `#pragma omp atomic`.
fn wrap_first_compound_update(unit: &mut TranslationUnit) -> bool {
    fn stmt(s: &mut Stmt) -> bool {
        let is_target = matches!(
            s,
            Stmt::Expr(Expr::Assign { op, lhs, .. })
                if *op != AssignOp::Assign && matches!(lhs.as_ref(), Expr::Ident { .. })
        );
        if is_target {
            let inner = std::mem::replace(s, Stmt::Empty(Span::DUMMY));
            *s = Stmt::Omp {
                dir: Directive {
                    kind: DirectiveKind::Atomic(AtomicKind::Update),
                    clauses: Vec::new(),
                    span: Span::DUMMY,
                },
                body: Some(Box::new(inner)),
                span: Span::DUMMY,
            };
            return true;
        }
        s.children_mut().any(stmt)
    }
    unit.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(stmt),
        _ => false,
    })
}

/// Add `private(v)` to the first parallel-creating loop directive,
/// where `v` is the first scalar assigned in its body (the shared
/// temp). Machine-derived: the variable is read back later in the same
/// iteration, so privatizing it removes the only inter-thread conflict.
fn add_private_for_loop_temp(unit: &mut TranslationUnit) -> bool {
    // Find the ws-loop directive and its body's first scalar store.
    fn first_scalar_store(s: &Stmt) -> Option<String> {
        match s {
            Stmt::Expr(Expr::Assign { lhs, .. }) => match lhs.as_ref() {
                Expr::Ident { name, .. } => Some(name.clone()),
                _ => None,
            },
            Stmt::Block(b) => b.stmts.iter().find_map(first_scalar_store),
            Stmt::For(f) => first_scalar_store(&f.body),
            Stmt::Omp { body: Some(b), .. } => first_scalar_store(b),
            _ => None,
        }
    }
    fn stmt(s: &mut Stmt) -> bool {
        if let Stmt::Omp { dir, body: Some(b), .. } = s {
            if dir.kind.creates_parallelism() {
                if let Some(v) = first_scalar_store(b) {
                    dir.clauses.push(Clause::Private(vec![v]));
                    return true;
                }
            }
        }
        match s {
            Stmt::Block(b) => b.stmts.iter_mut().any(stmt),
            Stmt::Omp { body: Some(b), .. } => stmt(b),
            Stmt::For(f) => stmt(&mut f.body),
            _ => false,
        }
    }
    unit.items.iter_mut().any(|item| match item {
        Item::Func(f) => f.body.stmts.iter_mut().any(stmt),
        _ => false,
    })
}

/// Rewrite the stencil's read subscript: for every assignment
/// `base[…] = rhs`, any read of `base` inside `rhs` gets its index set
/// to `i + new_off` (or plain `i` when `new_off == 0`), where `i` is
/// the subscript's root induction variable. The generator always emits
/// the loop bound with headroom ≥ 3, so offsets in `0..=3` stay
/// in-bounds without touching the bound.
fn perturb_stencil_offset(unit: &mut TranslationUnit, new_off: i64) -> bool {
    fn index_root(e: &Expr) -> Option<String> {
        match e {
            Expr::Ident { name, .. } => Some(name.clone()),
            Expr::Binary { lhs, .. } => index_root(lhs),
            _ => None,
        }
    }
    fn rewrite_reads(e: &mut Expr, base: &str, new_off: i64, changed: &mut bool) {
        if let Expr::Index { base: b, index, .. } = e {
            if b.root_var() == Some(base) {
                if let Some(var) = index_root(index) {
                    let ident = Expr::Ident { name: var, span: Span::DUMMY };
                    let new_index = if new_off == 0 {
                        ident
                    } else {
                        Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(ident),
                            rhs: Box::new(Expr::IntLit { value: new_off, span: Span::DUMMY }),
                            span: Span::DUMMY,
                        }
                    };
                    if **index != new_index {
                        **index = new_index;
                        *changed = true;
                    }
                    return;
                }
            }
        }
        e.children_mut().for_each(|c| rewrite_reads(c, base, new_off, changed));
    }
    let mut changed = false;
    fn walk(s: &mut Stmt, in_parallel: bool, new_off: i64, changed: &mut bool) {
        if in_parallel {
            if let Stmt::Expr(Expr::Assign { lhs, rhs, .. }) = s {
                if let Expr::Index { base, .. } = lhs.as_ref() {
                    if let Some(b) = base.root_var() {
                        let b = b.to_string();
                        rewrite_reads(rhs, &b, new_off, changed);
                    }
                }
            }
        }
        let par = match s {
            Stmt::Omp { dir, .. } => in_parallel || dir.kind.creates_parallelism(),
            _ => in_parallel,
        };
        s.children_mut().for_each(|c| walk(c, par, new_off, changed));
    }
    for item in &mut unit.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| walk(s, false, new_off, &mut changed));
        }
    }
    changed
}
