//! Delta-debugging shrinker over `minic` ASTs.
//!
//! Given a kernel on which the detectors disagree, greedily apply the
//! smallest reductions that keep the *exact* disagreement signature
//! (the full [`Verdicts`] triple): remove one statement, unwrap one
//! pragma to its bare body, or drop one clause. Every accepted
//! reduction restarts the candidate enumeration, so the result is a
//! local minimum — no single reduction preserves the signature — and
//! the process is fully deterministic.

use crate::verdict::{verdicts_of_code, Verdicts};
use minic::ast::*;
use minic::Span;

/// Upper bound on accepted reductions (a generated kernel has well
/// under 100 statements; this is a runaway guard, not a tuning knob).
const MAX_STEPS: usize = 200;

/// Shrink `code` while `verdicts_of_code` keeps returning exactly
/// `sig`. Returns the minimized source (at worst, `code` reprinted
/// as-is if nothing can be removed).
pub fn shrink(code: &str, sig: Verdicts) -> String {
    let Some(mut current) = minic::parse(code).ok() else {
        return code.to_string();
    };
    let mut steps = 0;
    'outer: while steps < MAX_STEPS {
        steps += 1;
        for candidate in candidates(&current) {
            let printed = minic::print_unit(&candidate);
            if verdicts_of_code(&printed) == Some(sig) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    minic::print_unit(&current)
}

/// Whether a shrunk kernel still reproduces the signature (used by the
/// acceptance tests and the triage report).
pub fn reproduces(code: &str, sig: Verdicts) -> bool {
    verdicts_of_code(code) == Some(sig)
}

/// All single-step reductions of a unit, in deterministic order:
/// statement removals (DFS order), pragma unwraps, clause removals,
/// then top-level item removals.
fn candidates(unit: &TranslationUnit) -> Vec<TranslationUnit> {
    let mut out = Vec::new();
    for t in 0..count_stmts(unit) {
        if let Some(u) = remove_stmt(unit, t) {
            out.push(u);
        }
    }
    for t in 0..count_omp(unit) {
        if let Some(u) = unwrap_omp(unit, t) {
            out.push(u);
        }
    }
    for t in 0..count_clauses(unit) {
        if let Some(u) = remove_clause(unit, t) {
            out.push(u);
        }
    }
    for t in 0..unit.items.len() {
        let mut u = unit.clone();
        u.items.remove(t);
        out.push(u);
    }
    out
}

// ---- statement removal ------------------------------------------------

fn count_stmts(unit: &TranslationUnit) -> usize {
    fn stmt(s: &Stmt, n: &mut usize) {
        match s {
            Stmt::Block(b) => block(b, n),
            _ => s.children().for_each(|c| stmt(c, n)),
        }
    }
    fn block(b: &Block, n: &mut usize) {
        for s in &b.stmts {
            *n += 1;
            stmt(s, n);
        }
    }
    let mut n = 0;
    for item in &unit.items {
        if let Item::Func(f) = item {
            block(&f.body, &mut n);
        }
    }
    n
}

/// Remove the `target`-th statement (DFS order over all block entry
/// lists) from a clone of the unit.
fn remove_stmt(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    fn stmt(s: &mut Stmt, n: &mut usize, target: usize, done: &mut bool) {
        if *done {
            return;
        }
        match s {
            Stmt::Block(b) => block(b, n, target, done),
            _ => s.children_mut().for_each(|c| stmt(c, n, target, done)),
        }
    }
    fn block(b: &mut Block, n: &mut usize, target: usize, done: &mut bool) {
        let mut i = 0;
        while i < b.stmts.len() {
            if *done {
                return;
            }
            if *n == target {
                b.stmts.remove(i);
                *done = true;
                return;
            }
            *n += 1;
            stmt(&mut b.stmts[i], n, target, done);
            i += 1;
        }
    }
    let mut u = unit.clone();
    let (mut n, mut done) = (0usize, false);
    for item in &mut u.items {
        if let Item::Func(f) = item {
            block(&mut f.body, &mut n, target, &mut done);
        }
    }
    done.then_some(u)
}

// ---- pragma unwrapping ------------------------------------------------

fn count_omp(unit: &TranslationUnit) -> usize {
    minic::visit::collect_directives(unit).len()
}

/// Replace the `target`-th `Stmt::Omp` (source order) with its bare
/// body (or an empty statement for stand-alone directives).
fn unwrap_omp(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    fn stmt(s: &mut Stmt, n: &mut usize, target: usize, done: &mut bool) {
        if *done {
            return;
        }
        if let Stmt::Omp { body, .. } = s {
            if *n == target {
                *s = match body.take() {
                    Some(b) => *b,
                    None => Stmt::Empty(Span::DUMMY),
                };
                *done = true;
                return;
            }
            *n += 1;
        }
        s.children_mut().for_each(|c| stmt(c, n, target, done));
    }
    let mut u = unit.clone();
    let (mut n, mut done) = (0usize, false);
    for item in &mut u.items {
        if let Item::Func(f) = item {
            f.body.stmts.iter_mut().for_each(|s| stmt(s, &mut n, target, &mut done));
        }
    }
    done.then_some(u)
}

// ---- clause removal ---------------------------------------------------

fn count_clauses(unit: &TranslationUnit) -> usize {
    minic::visit::collect_directives(unit).iter().map(|d| d.clauses.len()).sum()
}

/// Remove the `target`-th clause (across all directives, source order).
fn remove_clause(unit: &TranslationUnit, target: usize) -> Option<TranslationUnit> {
    fn dir(d: &mut minic::pragma::Directive, n: &mut usize, target: usize, done: &mut bool) {
        if *done {
            return;
        }
        if *n + d.clauses.len() > target {
            d.clauses.remove(target - *n);
            *done = true;
        } else {
            *n += d.clauses.len();
        }
    }
    fn stmt(s: &mut Stmt, n: &mut usize, target: usize, done: &mut bool) {
        if *done {
            return;
        }
        if let Stmt::Omp { dir: d, .. } = s {
            dir(d, n, target, done);
        }
        s.children_mut().for_each(|c| stmt(c, n, target, done));
    }
    let mut u = unit.clone();
    let (mut n, mut done) = (0usize, false);
    for item in &mut u.items {
        match item {
            Item::Func(f) => f.body.stmts.iter_mut().for_each(|s| stmt(s, &mut n, target, &mut done)),
            Item::Pragma(d) => dir(d, &mut n, target, &mut done),
            Item::Global(_) => {}
        }
    }
    done.then_some(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::verdicts_of_code;

    #[test]
    fn shrink_preserves_signature_and_removes_noise() {
        // Static FP generator (opaque subscript, runtime-disjoint) with
        // extra statements that contribute nothing to the disagreement.
        let code = "int a[32];\nint idx[32];\nint z;\n\nint main() {\n  int i;\n  z = 0;\n  z = z + 5;\n  for (i = 0; i < 32; i++) {\n    idx[i] = i;\n  }\n  for (i = 0; i < 32; i++) {\n    a[i] = 0;\n  }\n  #pragma omp parallel for\n  for (i = 0; i < 32; i++) {\n    a[idx[i]] = i;\n  }\n  return 0;\n}\n";
        let sig = verdicts_of_code(code).unwrap();
        assert!(!sig.unanimous(), "fixture should disagree: {}", sig.summary());
        let small = shrink(code, sig);
        assert!(reproduces(&small, sig), "shrunk kernel must reproduce");
        // The decoy scalar work must be gone.
        assert!(!small.contains("z + 5"), "decoy survived:\n{small}");
        assert!(small.len() < code.len());
    }

    #[test]
    fn candidate_counts_match_structure() {
        let u = minic::parse(
            "int x;\nint main() {\n  #pragma omp parallel for private(x) schedule(static)\n  for (int i = 0; i < 4; i++) {\n    x = i;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert_eq!(count_omp(&u), 1);
        assert_eq!(count_clauses(&u), 2);
        // The omp statement, the loop-body statement, and the return.
        assert_eq!(count_stmts(&u), 3);
        // Every enumerated candidate prints and re-parses.
        for c in candidates(&u) {
            let printed = minic::print_unit(&c);
            let _ = minic::parse(&printed);
        }
    }
}
