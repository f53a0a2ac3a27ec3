//! `repair` — the detect → fix → verify loop.
//!
//! The paper's pipeline stops at detection; the valuable product (DR.FIX
//! frames the same argument for production Go services) is a *verified
//! patch*. This crate closes the loop for kernels the detector stack
//! flags racy:
//!
//! 1. **Candidate generation** ([`candidates`]) — run `xcheck`'s
//!    label-flipping mutation vocabulary *in reverse*: instead of
//!    dropping protection to create a race, insert
//!    `reduction`/`atomic`/`critical`/`private` protection targeted at
//!    the variables the detectors actually reported, with a
//!    serialize-the-body fallback for dependences no clause can fix.
//! 2. **Certification** ([`certify`]) — a candidate only survives if it
//!    is provably better: `racecheck` clean, the adversarial `hbsan`
//!    schedule sweep clean across every certification seed (the
//!    detector stack's own [`xcheck::DEFAULT_SEEDS`], run on the
//!    bytecode oracle), *and* byte-identical observable output
//!    ([`hbsan::obs`]) versus the original under each seed's race-free
//!    schedule. The original's outputs come from the runs detection
//!    already made, so it executes once per seed. The surrogate-LLM
//!    verdict is recorded in the certificate but does not gate it — the
//!    certificate's claims are exactly the machine-checkable ones.
//! 3. **Minimization** ([`minimize`]) — the winning edit list is
//!    delta-debugged: drop any edit whose removal still certifies.
//!
//! The result is a [`FixReport`] whose [`Certificate`] replays green by
//! construction: re-run the three checks on `patched_code` and they
//! pass, because that is literally how the certificate was produced.

#![warn(missing_docs)]

mod candidates;
mod certify;
mod minimize;
mod sweep;

pub use sweep::{render_table, smoke, SweepRow, SweepSummary};

use llm::AnalyzedKernel;
use minic::printer::print_unit;
use xcheck::{RepairEdit, Verdicts};

/// Cap on candidate patches certified per kernel.
const MAX_CANDIDATES: usize = 16;

/// Settings of one repair run: none remain. Certification runs under
/// the detector stack's seeds, [`xcheck::DEFAULT_SEEDS`], because
/// detection's runs of the original are what it compares candidates
/// against, and the candidate cap is a constant.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig;

/// The machine-checkable evidence attached to every emitted patch.
/// Every field is reproducible from `patched_code` + the original
/// kernel + the seed list; [`smoke`] replays one end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// `racecheck` reports zero races on the patched kernel.
    pub racecheck_clean: bool,
    /// Seeds the adversarial happens-before sweep verified race-free.
    pub hbsan_seeds: Vec<u64>,
    /// Seeds under which the patched kernel's observable output
    /// (printed lines, exit value, final globals) is byte-identical to
    /// the original's.
    pub equivalent_seeds: Vec<u64>,
    /// Globals excluded from the output comparison because the patch
    /// privatizes them (their shared cells become dead scratch).
    pub scratch: Vec<String>,
    /// Surrogate-LLM verdict on the patched kernel (recorded evidence,
    /// not a gate: the surrogate's suspicion heuristics can lag behind
    /// a proof-carrying patch).
    pub surrogate_clean: bool,
}

impl Certificate {
    /// Whether the certificate's gating claims all hold: static clean,
    /// dynamic clean and output-equivalent on every
    /// [`xcheck::DEFAULT_SEEDS`] seed.
    pub fn certified(&self) -> bool {
        self.racecheck_clean
            && self.hbsan_seeds == xcheck::DEFAULT_SEEDS
            && self.equivalent_seeds == xcheck::DEFAULT_SEEDS
    }
}

/// A certified patch.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    /// The minimized edit list that produced the patch.
    pub edits: Vec<RepairEdit>,
    /// The patched kernel, printed in canonical form.
    pub patched_code: String,
    /// Unified diff from the original (canonically printed) kernel to
    /// `patched_code`.
    pub patch: String,
    /// Added-plus-removed line count of `patch`.
    pub patch_lines: usize,
    /// The evidence.
    pub certificate: Certificate,
}

/// What the repair loop concluded for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// No detector flagged the kernel; nothing to repair.
    CleanAlready,
    /// The kernel does not parse; no candidates exist.
    Unparseable,
    /// A certified patch was found (and minimized).
    Fixed(Fix),
    /// Every applicable candidate failed certification — or the
    /// original kernel cannot be executed, so there is no output to
    /// hold a candidate equivalent to.
    Unfixed,
}

impl Outcome {
    /// Short display tag for tables.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::CleanAlready => "clean",
            Outcome::Unparseable => "unparseable",
            Outcome::Fixed(_) => "fixed",
            Outcome::Unfixed => "unfixed",
        }
    }
}

/// Full output of one repair run.
#[derive(Debug, Clone, PartialEq)]
pub struct FixReport {
    /// The original kernel's per-detector verdicts (`None` when it does
    /// not parse).
    pub verdicts: Option<Verdicts>,
    /// The conclusion.
    pub outcome: Outcome,
    /// Candidates that applied and went through certification.
    pub candidates_tried: usize,
}

impl FixReport {
    /// The certified fix, if the outcome carries one.
    pub fn fix(&self) -> Option<&Fix> {
        match &self.outcome {
            Outcome::Fixed(f) => Some(f),
            _ => None,
        }
    }
}

/// Display label for an edit, e.g. `add-reduction(sum)`.
pub fn edit_label(e: &RepairEdit) -> String {
    match e {
        RepairEdit::AddReduction { var }
        | RepairEdit::WrapAtomic { var }
        | RepairEdit::WrapCritical { var }
        | RepairEdit::AddPrivate { var } => format!("{}({var})", e.tag()),
        _ => e.tag().to_string(),
    }
}

/// Repair one kernel from source. Parses, runs the detector stack,
/// and — when any detector flags a race — enumerates, certifies, and
/// minimizes candidate patches.
pub fn fix(code: &str) -> FixReport {
    fix_artifact(&AnalyzedKernel::analyze(code), &RepairConfig)
}

/// [`fix`] over an existing analysis artifact (reuses the cached parse
/// and lowered bytecode program; builds nothing twice). Detection is
/// [`xcheck::detect`], and certification compares every candidate
/// against the original runs it kept. `RepairConfig` carries no
/// settings.
pub fn fix_artifact(artifact: &AnalyzedKernel, _cfg: &RepairConfig) -> FixReport {
    let (Some(unit), Some(ev)) = (artifact.ast.as_ref(), xcheck::detect(artifact)) else {
        return FixReport {
            verdicts: None,
            outcome: Outcome::Unparseable,
            candidates_tried: 0,
        };
    };
    let verdicts = ev.verdicts;
    let report =
        |outcome, candidates_tried| FixReport { verdicts: Some(verdicts), outcome, candidates_tried };
    let flagged = verdicts.stat || verdicts.dynv == Some(true) || verdicts.llm;
    if !flagged {
        return report(Outcome::CleanAlready, 0);
    }
    // An original that fails at run time has no output to hold a
    // candidate equivalent to, hence no certificate.
    if ev.dynamic.is_none() {
        return report(Outcome::Unfixed, 0);
    }

    let canon = print_unit(unit);
    let mut tried = 0usize;
    for cand in candidates::enumerate(unit, &ev.stat, ev.dynamic.as_ref(), MAX_CANDIDATES) {
        let Some(patched) = certify::apply_edits(unit, &cand) else { continue };
        tried += 1;
        if let Some(cert) = certify::certify(&ev.observations, &cand, patched) {
            let (edits, cert) =
                minimize::minimize(unit, cand, cert, &ev.observations, &mut tried);
            let patch = minic::unified_diff(&canon, &cert.code, 2);
            let patch_lines = minic::diff_size(&patch);
            let fix = Fix {
                edits,
                patched_code: cert.code,
                patch,
                patch_lines,
                certificate: cert.certificate,
            };
            return report(Outcome::Fixed(fix), tried);
        }
    }
    report(Outcome::Unfixed, tried)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";
    const CLEAN: &str = "int a[64];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) a[i] = i * 2;\n  return 0;\n}\n";
    const RACY_STENCIL: &str = "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n";

    #[test]
    fn racy_sum_gets_a_reduction_patch() {
        let r = fix(RACY_SUM);
        let f = r.fix().expect("racy sum is fixable");
        assert_eq!(f.edits, vec![RepairEdit::AddReduction { var: "sum".into() }]);
        assert!(f.patch.contains("+") && f.patch.contains("reduction(+: sum)"), "{}", f.patch);
        assert!(f.certificate.certified());
        assert!(f.certificate.surrogate_clean, "reduction clause satisfies the surrogate too");
        assert_eq!(f.patch_lines, 2, "one pragma line replaced: {}", f.patch);
        assert!(r.candidates_tried >= 1);
    }

    #[test]
    fn clean_kernel_is_left_alone() {
        let r = fix(CLEAN);
        assert_eq!(r.outcome, Outcome::CleanAlready);
        assert_eq!(r.candidates_tried, 0);
        assert!(r.verdicts.unwrap().consensus() == Some(false));
    }

    #[test]
    fn stencil_race_serializes() {
        let r = fix(RACY_STENCIL);
        let f = r.fix().expect("stencil is fixable by serialization");
        assert!(f.certificate.certified());
        assert!(
            f.edits.iter().any(|e| matches!(
                e,
                RepairEdit::SerializeBody | RepairEdit::WrapCritical { .. }
            )),
            "{:?}",
            f.edits
        );
        // The patch must actually pacify the detectors on replay.
        let patched = minic::parse(&f.patched_code).unwrap();
        assert!(racecheck::check(&patched).races.is_empty());
    }

    #[test]
    fn original_failing_at_run_time_is_unfixed_untried() {
        // racecheck flags the shifted copy, but the loop writes past the
        // end of `a`: the original has no output to hold a candidate
        // equivalent to, so no candidate is tried.
        let r = fix("int a[16];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) a[i + 1] = a[i];\n  return 0;\n}\n");
        let v = r.verdicts.expect("parses");
        assert!(v.stat);
        assert_eq!(v.dynv, None, "the out-of-bounds write fails every run");
        assert_eq!(r.outcome, Outcome::Unfixed);
        assert_eq!(r.candidates_tried, 0);
    }

    #[test]
    fn unparseable_input_reports_unparseable() {
        let r = fix("int main() {");
        assert_eq!(r.outcome, Outcome::Unparseable);
        assert!(r.verdicts.is_none());
    }

    #[test]
    fn certificate_replays_green() {
        let r = fix(RACY_SUM);
        let f = r.fix().unwrap();
        // Replay every certificate claim from scratch on the emitted
        // patch text — the whole point of a machine-checkable cert.
        let orig = minic::parse(RACY_SUM).unwrap();
        let patched = minic::parse(&f.patched_code).unwrap();
        assert!(racecheck::check(&patched).races.is_empty());
        let sweep =
            hbsan::check_adversarial(&patched, &hbsan::Config::default(), &xcheck::DEFAULT_SEEDS)
                .unwrap();
        assert!(!sweep.has_race());
        for seed in xcheck::DEFAULT_SEEDS {
            let c = hbsan::Config { seed, ..hbsan::Config::default() };
            let a = hbsan::observe(&orig, &c).unwrap();
            let b = hbsan::observe(&patched, &c).unwrap();
            assert!(hbsan::obs::equivalent(&a, &b, &f.certificate.scratch));
        }
    }

    #[test]
    fn fix_is_deterministic() {
        assert_eq!(fix(RACY_SUM), fix(RACY_SUM));
        assert_eq!(fix(RACY_STENCIL), fix(RACY_STENCIL));
    }

    #[test]
    fn edit_labels_are_compact() {
        assert_eq!(edit_label(&RepairEdit::AddReduction { var: "s".into() }), "add-reduction(s)");
        assert_eq!(edit_label(&RepairEdit::SerializeBody), "serialize-body");
    }
}
