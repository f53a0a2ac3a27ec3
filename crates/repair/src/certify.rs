//! Candidate certification: the three machine-checkable gates.
//!
//! A candidate patch is *certified* when
//! 1. `racecheck` reports zero races on the patched kernel,
//! 2. the adversarial happens-before sweep is clean under every
//!    certification seed ([`xcheck::DEFAULT_SEEDS`]), and
//! 3. the patched kernel's observable output ([`hbsan::obs`]) is
//!    byte-identical to the original's under each seed — modulo the
//!    globals the patch itself privatizes.
//!
//! Gates 2 and 3 share one [`hbsan::sweep`]: each seed runs the
//! candidate once on the oracle, and that run's trace is analyzed and
//! its output observed, so every certificate comes from the runs it
//! describes. The sweep stops at the candidate's first racy run. The
//! original's outputs are the observations [`xcheck::detect`] kept from
//! its own sweep over the same seeds, so the original runs once per
//! seed on the whole fix path. A schedule that never consults its RNG
//! produces the same run under every seed, so one run serves all of
//! them ([`hbsan::obs::seed_observation`]).

use crate::Certificate;
use hbsan::obs::{self, Observation};
use hbsan::Config;
use minic::printer::print_unit;
use minic::TranslationUnit;
use std::ops::ControlFlow;
use xcheck::{apply_repair, RepairEdit, DEFAULT_SEEDS};

/// Apply an edit list in order; `None` when any edit does not apply
/// (e.g. an earlier edit removed its target).
pub(crate) fn apply_edits(unit: &TranslationUnit, edits: &[RepairEdit]) -> Option<TranslationUnit> {
    let mut u = unit.clone();
    for e in edits {
        u = apply_repair(&u, e)?;
    }
    Some(u)
}

/// A candidate that passed all three gates.
pub(crate) struct Certified {
    /// The patched kernel, canonically printed.
    pub code: String,
    /// The evidence.
    pub certificate: Certificate,
}

/// Run the full certification on one applied candidate against the
/// original's per-seed observations (`Evidence::observations`). `None`
/// when any gate fails.
pub(crate) fn certify(
    original: &[Observation],
    edits: &[RepairEdit],
    patched: TranslationUnit,
) -> Option<Certified> {
    // Gate 1 — static: cheapest, so first.
    if !racecheck::check(&patched).races.is_empty() {
        return None;
    }

    // Gates 2 and 3 — one run per seed on the oracle (candidates are
    // lowered fresh; they are new programs, not the cached original):
    // its trace must be race-free, and its output must match the
    // original's, excluding globals the patch declares scratch.
    let prog = hbsan::lower(&patched);
    let run_seed =
        |seed| obs::observe_oracle(&patched, &prog, &Config { seed, ..Config::default() });
    let mut runs = Vec::with_capacity(DEFAULT_SEEDS.len());
    let report = hbsan::sweep(&DEFAULT_SEEDS, run_seed, |observation, report| {
        runs.push(observation);
        if report.has_race() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .ok()?;
    if report.has_race() {
        return None;
    }
    let scratch: Vec<String> =
        edits.iter().filter_map(|e| e.scratch_var().map(str::to_string)).collect();
    for i in 0..DEFAULT_SEEDS.len() {
        match (obs::seed_observation(original, i), obs::seed_observation(&runs, i)) {
            (Some(a), Some(b)) if obs::equivalent(a, b, &scratch) => {}
            _ => return None,
        }
    }

    // Recorded evidence (not a gate): the surrogate's verdict on the
    // patched kernel.
    let code = print_unit(&patched);
    let features = llm::CodeFeatures::from_parts(llm::count_tokens(&code), Some(&patched));
    let surrogate_clean = !llm::feature_verdict(&features, llm::ModelKind::Gpt4);

    Some(Certified {
        code,
        certificate: Certificate {
            racecheck_clean: true,
            hbsan_seeds: DEFAULT_SEEDS.to_vec(),
            equivalent_seeds: DEFAULT_SEEDS.to_vec(),
            scratch,
            surrogate_clean,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // `sum` ends nonzero, so a patch that corrupts the value (e.g.
    // privatization zeroing it) cannot sneak past the equivalence gate.
    const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";

    /// A kernel and the per-seed observations detection kept of it.
    pub(crate) fn setup(code: &str) -> (TranslationUnit, Vec<Observation>) {
        let ev = xcheck::detect(&llm::AnalyzedKernel::analyze(code)).unwrap();
        (minic::parse(code).unwrap(), ev.observations)
    }

    #[test]
    fn reduction_candidate_certifies() {
        let (unit, base) = setup(RACY_SUM);
        let edits = [RepairEdit::AddReduction { var: "sum".into() }];
        let patched = apply_edits(&unit, &edits).unwrap();
        let cert = certify(&base, &edits, patched).expect("certifies");
        assert!(cert.certificate.certified());
        assert!(cert.certificate.scratch.is_empty());
    }

    #[test]
    fn identity_equivalence_rejects_wrong_output() {
        // Privatizing `sum` zeroes it: race-free, but *not* the same
        // program — AddPrivate marks it scratch, yet the exit value
        // still differs, so equivalence must reject it.
        let (unit, base) = setup(RACY_SUM);
        let edits = [RepairEdit::AddPrivate { var: "sum".into() }];
        let patched = apply_edits(&unit, &edits).unwrap();
        assert!(
            certify(&base, &edits, patched).is_none(),
            "exit value depends on sum; privatization must fail equivalence"
        );
    }

    #[test]
    fn racy_candidate_is_rejected_at_the_static_gate() {
        // Two racy scalars; protecting only one leaves the other race
        // in place, so the static gate must reject the half-patch.
        let (unit, base) = setup(
            "int sum; int count;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) {\n    sum += i;\n    count += 1;\n  }\n  return sum + count;\n}\n",
        );
        let edits = [RepairEdit::WrapCritical { var: "count".into() }];
        let patched = apply_edits(&unit, &edits).expect("applies");
        assert!(certify(&base, &edits, patched).is_none());
    }

    #[test]
    fn inapplicable_edit_fails_application() {
        let unit = minic::parse(RACY_SUM).unwrap();
        assert!(apply_edits(&unit, &[RepairEdit::DropNowait]).is_none());
        // A later edit invalidated by an earlier one also fails whole.
        assert!(apply_edits(
            &unit,
            &[
                RepairEdit::AddReduction { var: "sum".into() },
                RepairEdit::DropNowait,
            ],
        )
        .is_none());
    }
}
