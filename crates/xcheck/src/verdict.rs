//! The detector stack, composed once.
//!
//! [`detect`] runs the three detectors over one analysis artifact:
//! `racecheck` (static), `hbsan` (dynamic, adversarial schedule sweep
//! over [`DEFAULT_SEEDS`] through the artifact's cached bytecode
//! program), and the surrogate-LLM feature verdict at GPT-4 depth (the
//! uncalibrated path — calibration tables are keyed by corpus kernel id
//! and say nothing about generated code). Every surface — the umbrella
//! pipeline, the differential sweep, the HTTP service, and the repair
//! loop — renders the [`Evidence`] it returns. The evidence keeps what
//! each seed's run computed, so the repair loop certifies patches
//! against the original's outputs without running it again.

use hbsan::{Config, DynReport, Observation};
use llm::{AnalyzedKernel, ModelKind};
use racecheck::RaceReport;
use std::ops::ControlFlow;

/// The schedule seeds every sweep uses.
pub const DEFAULT_SEEDS: [u64; 3] = [1, 7, 23];

/// One verdict per detector for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    /// `racecheck` static verdict.
    pub stat: bool,
    /// `hbsan` dynamic verdict; `None` when the kernel could not be
    /// executed (fuel, bad address, …).
    pub dynv: Option<bool>,
    /// Surrogate-LLM feature verdict (GPT-4 analysis depth).
    pub llm: bool,
}

impl Verdicts {
    /// Whether all three detectors produced a verdict and agree.
    pub fn unanimous(&self) -> bool {
        matches!(self.dynv, Some(d) if d == self.stat && self.stat == self.llm)
    }

    /// The unanimous verdict, if any.
    pub fn consensus(&self) -> Option<bool> {
        self.unanimous().then_some(self.stat)
    }

    /// Human-readable one-liner.
    pub fn summary(&self) -> String {
        let yn = |b: bool| if b { "yes" } else { "no" };
        let d = match self.dynv {
            Some(d) => yn(d),
            None => "err",
        };
        format!("static={} dynamic={} llm={}", yn(self.stat), d, yn(self.llm))
    }
}

/// Everything the detector stack concluded about one kernel.
#[derive(Debug)]
pub struct Evidence {
    /// The static report.
    pub stat: RaceReport,
    /// The dynamic sweep merged across [`DEFAULT_SEEDS`]; `None` when
    /// the kernel could not be executed (fuel, bad address, …).
    pub dynamic: Option<DynReport>,
    /// What the sweep's run of each seed computed, in seed order: one
    /// entry per run, so a single one when the kernel ignores the seed
    /// (read seed `i` through [`hbsan::obs::seed_observation`]). Empty
    /// when `dynamic` is `None`.
    pub observations: Vec<Observation>,
    /// One verdict per detector.
    pub verdicts: Verdicts,
}

/// Run the detector stack on an analyzed kernel; `None` when it does
/// not parse.
pub fn detect(artifact: &AnalyzedKernel) -> Option<Evidence> {
    let unit = artifact.ast.as_ref()?;
    let stat = racecheck::check(unit);
    let prog = artifact.oracle_program()?;
    let run_seed = |seed| hbsan::observe_oracle(prog, &Config { seed, ..Config::default() });
    let mut observations = Vec::new();
    let dynamic = hbsan::sweep(&DEFAULT_SEEDS, run_seed, |observation, _| {
        observations.push(observation);
        ControlFlow::Continue(())
    })
    .ok();
    if dynamic.is_none() {
        observations.clear();
    }
    let verdicts = Verdicts {
        stat: stat.has_race(),
        dynv: dynamic.as_ref().map(DynReport::has_race),
        llm: llm::feature_verdict(&artifact.features, ModelKind::Gpt4),
    };
    Some(Evidence { stat, dynamic, observations, verdicts })
}

/// Parse and run all three detectors; `None` when the code no longer
/// parses (a mutation or shrink step went wrong).
pub fn verdicts_of_code(code: &str) -> Option<Verdicts> {
    detect(&AnalyzedKernel::analyze(code)).map(|e| e.verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_race_is_unanimous() {
        let v = verdicts_of_code(
            "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert!(v.stat);
        assert_eq!(v.dynv, Some(true));
        assert!(v.llm);
        assert!(v.unanimous());
        assert_eq!(v.consensus(), Some(true));
    }

    #[test]
    fn clean_kernel_is_unanimously_clean() {
        let v = verdicts_of_code(
            "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    a[i] = i * 2;\n  }\n  return 0;\n}\n",
        )
        .unwrap();
        assert_eq!(v.summary(), "static=no dynamic=no llm=no");
        assert!(v.unanimous());
    }

    #[test]
    fn unparseable_code_yields_none() {
        assert!(verdicts_of_code("int main() {").is_none());
    }
}
