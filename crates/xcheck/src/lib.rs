//! `xcheck` — seeded differential fuzzing and metamorphic
//! cross-validation of the three race detectors.
//!
//! The paper's evaluation compares LLM verdicts against one traditional
//! tool over 201 fixed kernels; this crate drives our three independent
//! oracles (`racecheck`, `hbsan`, the surrogate pipeline) against each
//! other on *generated* inputs:
//!
//! 1. [`gen`] — a grammar-directed generator whose recipes carry
//!    machine-derived expected labels,
//! 2. [`mutate`] — semantics-preserving rewrites (verdicts must stay
//!    fixed) and label-flipping edits (expected label delta derived
//!    from the recipe),
//! 3. [`verdict`] — [`detect`], the one composition of the three
//!    detectors every surface renders, swept with [`par::par_map`],
//! 4. [`shrink`] — a delta-debugging loop that reduces every
//!    disagreement to a minimal reproducing kernel,
//! 5. [`report`] — the triage report behind `racellm-cli xcheck`.
//!
//! Everything is a pure function of the seed and the caller's corpus
//! sample: the smoke gate ([`smoke`]) runs the sweep twice and insists
//! on identical [`Agreement`] matrices.
//!
//! ```
//! let report = xcheck::run(&xcheck::XConfig { count: 8, shrink: false, ..Default::default() }, &[]);
//! assert_eq!(report.generated, 8);
//! assert!(report.sem_violations.is_empty());
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod gen;
pub mod mutate;
pub mod patch;
pub mod report;
pub mod shrink;
pub mod verdict;

pub use agreement::Agreement;
pub use gen::{generate, GenKernel, Pattern, SyncKind};
pub use mutate::{apply_flip, apply_sem, FlipMutation, SemMutation};
pub use patch::{apply_repair, RepairEdit};
pub use report::render_report;
pub use shrink::{reproduces, shrink};
pub use verdict::{detect, verdicts_of_code, Evidence, Verdicts, DEFAULT_SEEDS};

/// Sweep configuration. Every field participates in determinism; the
/// default is the configuration the tier-1 smoke gate pins.
#[derive(Debug, Clone)]
pub struct XConfig {
    /// Generator seed.
    pub seed: u64,
    /// Number of grammar-generated kernels.
    pub count: usize,
    /// Whether to delta-debug disagreements down to minimal kernels.
    pub shrink: bool,
    /// Cap on the number of disagreements shrunk (shrinking re-runs the
    /// detectors many times per kernel).
    pub max_shrink: usize,
}

impl Default for XConfig {
    fn default() -> Self {
        XConfig { seed: 0xD1FF, count: 64, shrink: true, max_shrink: 8 }
    }
}

/// One kernel that the detectors disagreed on.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Kernel name (generated name, plus the flip tag for mutants).
    pub name: String,
    /// Machine-derived expected label.
    pub expected: bool,
    /// The disagreeing verdict triple.
    pub verdicts: Verdicts,
    /// Full kernel source.
    pub code: String,
    /// Delta-debugged minimal reproducer, when shrinking was enabled.
    pub shrunk: Option<String>,
}

/// A semantics-preserving mutation that moved a verdict — by
/// construction this is always a bug in a detector, the mutation, or
/// the printer, so the smoke gate fails on any entry here.
#[derive(Debug, Clone)]
pub struct SemViolation {
    /// Kernel name.
    pub name: String,
    /// The rewrite that moved the verdict.
    pub mutation: SemMutation,
    /// Verdicts before.
    pub base: Verdicts,
    /// Verdicts after.
    pub mutant: Verdicts,
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct XReport {
    /// The seed the sweep ran under.
    pub seed: u64,
    /// 4×4 agreement matrix over expected/static/dynamic/llm.
    pub matrix: Agreement,
    /// Grammar-generated kernels swept.
    pub generated: usize,
    /// Label-flip mutants swept.
    pub flips: usize,
    /// Semantics-preserving mutants checked (generated + corpus).
    pub sem_mutants: usize,
    /// Corpus kernels included in the invariance pass.
    pub corpus_checked: usize,
    /// Kernels the dynamic oracle could not execute.
    pub dyn_errors: usize,
    /// Semantics-preserving invariance violations (must be empty).
    pub sem_violations: Vec<SemViolation>,
    /// Kernels where the detectors agreed with each other but not with
    /// the machine-derived label.
    pub label_misses: usize,
    /// Kernels the detectors disagreed on, in sweep order.
    pub disagreements: Vec<Disagreement>,
}

/// The classifier labels of [`XReport::matrix`], in order.
pub const MATRIX_LABELS: [&str; 4] = ["expected", "racecheck", "hbsan", "llm"];

struct SweepItem {
    name: String,
    expected: bool,
    code: String,
}

/// Run one differential sweep. `corpus` is the `(name, code)` sample
/// the semantics-preserving mutations are re-verified on besides the
/// generated kernels; an empty slice skips that part of the pass.
pub fn run(cfg: &XConfig, corpus: &[(&str, &str)]) -> XReport {
    let kernels = gen::generate(cfg.seed, cfg.count);
    let workers = par::default_workers();

    // Phase 1: expand generated kernels with their label-flip mutants.
    let mut items: Vec<SweepItem> = Vec::new();
    for k in &kernels {
        items.push(SweepItem {
            name: k.name.clone(),
            expected: k.expected,
            code: k.code.clone(),
        });
        let unit = match minic::parse(&k.code) {
            Ok(u) => u,
            Err(_) => continue,
        };
        for (flip, new_expected) in FlipMutation::applicable(k) {
            if let Some(mutant) = mutate::apply_flip(&unit, flip) {
                items.push(SweepItem {
                    name: format!("{}+{}", k.name, flip.tag()),
                    expected: new_expected,
                    code: minic::print_unit(&mutant),
                });
            }
        }
    }

    // Phase 2: the differential sweep proper.
    let verdicts: Vec<Option<Verdicts>> =
        par::par_map(&items, workers, |it| verdict::verdicts_of_code(&it.code));

    let mut matrix = Agreement::new(&MATRIX_LABELS);
    let mut dyn_errors = 0usize;
    let mut label_misses = 0usize;
    let mut disagreements = Vec::new();
    let flips = items.len() - kernels.len();
    for (it, v) in items.iter().zip(&verdicts) {
        let Some(v) = *v else { continue };
        let Some(d) = v.dynv else {
            dyn_errors += 1;
            continue;
        };
        matrix.record(&[it.expected, v.stat, d, v.llm]);
        if v.unanimous() {
            if v.consensus() != Some(it.expected) {
                label_misses += 1;
            }
        } else {
            disagreements.push(Disagreement {
                name: it.name.clone(),
                expected: it.expected,
                verdicts: v,
                code: it.code.clone(),
                shrunk: None,
            });
        }
    }

    // Phase 3: semantics-preserving invariance over generated kernels
    // plus the corpus sample. Each unit is checked against its own base
    // verdicts, whatever they are.
    let mut inv_inputs: Vec<(&str, &str)> =
        kernels.iter().map(|k| (k.name.as_str(), k.code.as_str())).collect();
    inv_inputs.extend_from_slice(corpus);
    let inv_results: Vec<(usize, Vec<SemViolation>)> =
        par::par_map(&inv_inputs, workers, |(name, code)| check_invariance(name, code));
    let mut sem_mutants = 0usize;
    let mut sem_violations = Vec::new();
    for (count, mut violations) in inv_results {
        sem_mutants += count;
        sem_violations.append(&mut violations);
    }

    // Phase 4: shrink disagreements (sequential: each shrink is itself
    // a long detector loop, and determinism is easier to audit).
    if cfg.shrink {
        for d in disagreements.iter_mut().take(cfg.max_shrink) {
            d.shrunk = Some(shrink::shrink(&d.code, d.verdicts));
        }
    }

    XReport {
        seed: cfg.seed,
        matrix,
        generated: kernels.len(),
        flips,
        sem_mutants,
        corpus_checked: corpus.len(),
        dyn_errors,
        sem_violations,
        label_misses,
        disagreements,
    }
}

/// Apply every applicable semantics-preserving rewrite to one kernel
/// and compare verdicts against the unmutated base. Returns (mutants
/// checked, violations).
fn check_invariance(name: &str, code: &str) -> (usize, Vec<SemViolation>) {
    let artifact = llm::AnalyzedKernel::analyze(code);
    let (Some(unit), Some(base)) = (artifact.ast.as_ref(), detect(&artifact)) else {
        return (0, Vec::new());
    };
    let base = base.verdicts;
    let mut checked = 0;
    let mut violations = Vec::new();
    for m in SemMutation::ALL {
        let Some(mutant) = mutate::apply_sem(unit, m) else { continue };
        let printed = minic::print_unit(&mutant);
        let Some(v) = verdict::verdicts_of_code(&printed) else {
            violations.push(SemViolation {
                name: name.to_string(),
                mutation: m,
                base,
                mutant: Verdicts { stat: false, dynv: None, llm: false },
            });
            continue;
        };
        checked += 1;
        if v != base {
            violations.push(SemViolation { name: name.to_string(), mutation: m, base, mutant: v });
        }
    }
    (checked, violations)
}

/// The deterministic tier-1 smoke gate: run the default 64-kernel sweep
/// with the `corpus` sample twice (shrinking off for speed) and require
/// identical agreement matrices and zero semantics-preserving
/// violations. Returns the report of the first run.
pub fn smoke(seed: u64, corpus: &[(&str, &str)]) -> Result<XReport, String> {
    let cfg = XConfig { seed, shrink: false, ..Default::default() };
    let first = run(&cfg, corpus);
    let second = run(&cfg, corpus);
    if first.matrix != second.matrix {
        return Err(format!(
            "non-deterministic sweep: agreement matrices differ\nfirst:\n{}\nsecond:\n{}",
            first.matrix.render(),
            second.matrix.render()
        ));
    }
    if !first.sem_violations.is_empty() {
        let mut msg = String::from("semantics-preserving mutations moved verdicts:\n");
        for v in &first.sem_violations {
            msg.push_str(&format!(
                "  {} [{}]: {} -> {}\n",
                v.name,
                v.mutation.tag(),
                v.base.summary(),
                v.mutant.summary()
            ));
        }
        return Err(msg);
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_clean() {
        let cfg = XConfig { seed: 5, count: 10, shrink: false, max_shrink: 0 };
        let a = run(&cfg, &[]);
        let b = run(&cfg, &[]);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.generated, 10);
        assert!(a.flips > 0, "flip mutants should exist");
        assert!(a.sem_violations.is_empty(), "{:?}", a.sem_violations);
        assert_eq!(a.dyn_errors, 0);
    }

    #[test]
    fn flipped_labels_track_detectors() {
        // On the flip mutants of protected scalar updates, static and
        // dynamic agree with the derived label (expected/racecheck cell
        // of the matrix is dominated by agreement).
        let cfg = XConfig { seed: 21, count: 24, shrink: false, max_shrink: 0 };
        let r = run(&cfg, &[]);
        assert!(r.matrix.total() > 0);
        // expected-vs-racecheck agreement rate should beat coin flips
        // by a wide margin on recipe-labelled kernels.
        assert!(r.matrix.rate(0, 1) > 0.7, "{}", r.matrix.render());
        assert!(r.matrix.rate(0, 2) > 0.7, "{}", r.matrix.render());
    }
}
