//! Candidate certification: the three machine-checkable gates.
//!
//! A candidate patch is *certified* when
//! 1. `racecheck` reports zero races on the patched kernel,
//! 2. the adversarial happens-before sweep is clean under every
//!    certification seed, and
//! 3. the patched kernel's observable output ([`hbsan::obs`]) is
//!    byte-identical to the original's under each seed — modulo the
//!    globals the patch itself privatizes.
//!
//! Gates 2 and 3 share one pass ([`run_seeds`]): each seed runs the
//! candidate once on the oracle, and that run's trace is analyzed and
//! its output observed, so every certificate comes from the runs it
//! describes. The original's per-seed output is computed once per
//! repair run ([`baseline`]) by the same pass and shared by every
//! candidate. A schedule that never consults its RNG produces the same
//! run under every seed, so one run serves all of them — the same
//! short-circuit the sweep APIs use.

use crate::{Certificate, RepairConfig};
use hbsan::obs::{self, Observation};
use hbsan::{Config, Program, Trace};
use minic::printer::print_unit;
use minic::TranslationUnit;
use xcheck::{apply_repair, RepairEdit};

/// Per-seed observations of the original kernel.
pub(crate) struct Baseline {
    /// One observation per certification seed, in seed order.
    obs: Vec<Observation>,
}

/// Run a kernel's program once per seed on the oracle and keep each
/// run's observation, stopping
/// after the first run when the schedule ignores the seed. `None` when
/// there are no seeds, a run fails, or `trace_ok` rejects a run's
/// trace.
fn run_seeds(
    unit: &TranslationUnit,
    prog: &Program,
    seeds: &[u64],
    trace_ok: impl Fn(&Trace) -> bool,
) -> Option<Vec<Observation>> {
    let mut out: Vec<Observation> = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        if out.first().is_some_and(|o| !o.schedule_sensitive) {
            out.push(out[0].clone());
            continue;
        }
        let (observation, trace) =
            obs::observe_oracle(unit, prog, &Config { seed, ..Config::default() }).ok()?;
        if !trace_ok(&trace) {
            return None;
        }
        out.push(observation);
    }
    (!out.is_empty()).then_some(out)
}

/// Build the original kernel's output baseline.
pub(crate) fn baseline(
    unit: &TranslationUnit,
    prog: &Program,
    cfg: &RepairConfig,
) -> Option<Baseline> {
    Some(Baseline { obs: run_seeds(unit, prog, &cfg.seeds, |_| true)? })
}

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

/// Run the full certification on one applied candidate. `None` when
/// any gate fails.
pub(crate) fn certify(
    base: &Baseline,
    edits: &[RepairEdit],
    patched: TranslationUnit,
    cfg: &RepairConfig,
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
    let patched_obs = run_seeds(&patched, &prog, &cfg.seeds, |trace| {
        !hbsan::analyze(trace).has_race()
    })?;
    let scratch: Vec<String> =
        edits.iter().filter_map(|e| e.scratch_var().map(str::to_string)).collect();
    for (a, b) in base.obs.iter().zip(&patched_obs) {
        if !obs::equivalent(a, b, &scratch) {
            return None;
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
            hbsan_seeds: cfg.seeds.clone(),
            equivalent_seeds: cfg.seeds.clone(),
            scratch,
            surrogate_clean,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // `sum` ends nonzero, so a patch that corrupts the value (e.g.
    // privatization zeroing it) cannot sneak past the equivalence gate.
    const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";

    fn setup(code: &str) -> (TranslationUnit, Baseline, RepairConfig) {
        let unit = minic::parse(code).unwrap();
        let cfg = RepairConfig::default();
        let base = baseline(&unit, &hbsan::lower(&unit), &cfg).unwrap();
        (unit, base, cfg)
    }

    #[test]
    fn reduction_candidate_certifies() {
        let (unit, base, cfg) = setup(RACY_SUM);
        let edits = [RepairEdit::AddReduction { var: "sum".into() }];
        let patched = apply_edits(&unit, &edits).unwrap();
        let cert = certify(&base, &edits, patched, &cfg).expect("certifies");
        assert!(cert.certificate.certified(&cfg.seeds));
        assert!(cert.certificate.scratch.is_empty());
    }

    #[test]
    fn identity_equivalence_rejects_wrong_output() {
        // Privatizing `sum` zeroes it: race-free, but *not* the same
        // program — AddPrivate marks it scratch, yet the exit value
        // still differs, so equivalence must reject it.
        let (unit, base, cfg) = setup(RACY_SUM);
        let edits = [RepairEdit::AddPrivate { var: "sum".into() }];
        let patched = apply_edits(&unit, &edits).unwrap();
        assert!(
            certify(&base, &edits, patched, &cfg).is_none(),
            "exit value depends on sum; privatization must fail equivalence"
        );
    }

    #[test]
    fn racy_candidate_is_rejected_at_the_static_gate() {
        // Two racy scalars; protecting only one leaves the other race
        // in place, so the static gate must reject the half-patch.
        let (unit, base, cfg) = setup(
            "int sum; int count;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) {\n    sum += i;\n    count += 1;\n  }\n  return sum + count;\n}\n",
        );
        let edits = [RepairEdit::WrapCritical { var: "count".into() }];
        let patched = apply_edits(&unit, &edits).expect("applies");
        assert!(certify(&base, &edits, patched, &cfg).is_none());
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
