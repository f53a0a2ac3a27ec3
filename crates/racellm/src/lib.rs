//! `racellm` — reproduction of *Data Race Detection Using Large
//! Language Models* (Chen et al., Correctness @ SC'23).
//!
//! This umbrella crate re-exports the whole workspace and offers a
//! high-level [`Pipeline`] that mirrors the paper's Figure 1: DRB-ML
//! dataset construction → prompt engineering → (surrogate) LLM
//! inference → output parsing → metrics, alongside the traditional
//! static and dynamic detectors used as the comparison baseline. It
//! also owns the corpus-wide passes ([`sweep_corpus`],
//! [`corpus_sample`]): the service crates (`serve`, `repair`, `xcheck`)
//! do not depend on the corpus and take what they check from here.
//!
//! ```
//! let pipeline = racellm::Pipeline::new();
//! let report = pipeline.analyze(r#"
//! int a[100];
//! int main(void) {
//!   int i;
//!   #pragma omp parallel for
//!   for (i = 0; i < 99; i++)
//!     a[i] = a[i + 1];
//!   return 0;
//! }
//! "#).unwrap();
//! assert!(report.static_verdict);
//! assert!(report.dynamic_verdict);
//! ```

#![warn(missing_docs)]

pub use depend;
pub use drb_gen;
pub use drb_ml;
pub use eval;
pub use finetune;
pub use hbsan;
pub use llm;
pub use minic;
pub use racecheck;
pub use repair;
pub use serve;
pub use xcheck;

use llm::{KernelView, ModelKind, PromptStrategy, Surrogate};
use serde::{Deserialize, Serialize};

/// Combined verdicts for one analyzed source snippet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Static detector verdict (racecheck).
    pub static_verdict: bool,
    /// Static race descriptions (`var@line:col:OP vs. …`).
    pub static_races: Vec<String>,
    /// Dynamic happens-before verdict (hbsan, `xcheck::DEFAULT_SEEDS`).
    pub dynamic_verdict: bool,
    /// Dynamic race descriptions.
    pub dynamic_races: Vec<String>,
    /// Per-model LLM answers (free text) and parsed verdicts, p1 prompt.
    pub llm_answers: Vec<(String, String, Option<bool>)>,
    /// Token count of the trimmed code.
    pub tokens: usize,
}

/// The end-to-end pipeline of Figure 1.
///
/// It holds nothing: the corpus-backed calls ([`views`](Self::views),
/// [`surrogate`](Self::surrogate), [`detection`](Self::detection),
/// [`baseline`](Self::baseline)) read the process-wide caches
/// (`eval::corpus_views` / `corpus_surrogates`) on first use, and
/// [`analyze`](Self::analyze) never builds them.
#[derive(Debug, Default)]
pub struct Pipeline;

impl Pipeline {
    /// The pipeline. Building it costs nothing; the corpus, DRB-ML and
    /// the four calibrated surrogates are built the first time a call
    /// reads them, once per process.
    pub fn new() -> Pipeline {
        Pipeline
    }

    /// The evaluation subset the pipeline was calibrated on.
    pub fn views(&self) -> &'static [KernelView] {
        eval::corpus_views()
    }

    /// Surrogate for a model.
    pub fn surrogate(&self, kind: ModelKind) -> &'static Surrogate {
        &eval::corpus_surrogates().iter().find(|(k, _)| *k == kind).expect("all four present").1
    }

    /// Analyze an arbitrary snippet with every tool in the workspace.
    ///
    /// For code outside the calibrated corpus, the LLM verdicts come from
    /// the surrogate's feature-based suspicion score (what the decision
    /// layer degrades to without a calibration entry).
    pub fn analyze(&self, source: &str) -> minic::Result<AnalysisReport> {
        let trimmed = minic::trim_comments(source);
        // Parse once (for the error); every downstream consumer shares
        // the artifact built around the AST.
        let unit = minic::parse(&trimmed.code)?;
        let artifact = llm::AnalyzedKernel::from_parsed(&trimmed.code, Some(unit));
        let ev = xcheck::detect(&artifact).expect("parsed above");
        let dy = ev.dynamic.unwrap_or_default();
        let mut llm_answers = Vec::new();
        for kind in ModelKind::ALL {
            let suspicious = llm::feature_verdict(&artifact.features, kind);
            let text = if suspicious {
                format!("Yes, {} suspects a data race in this code.", kind.name())
            } else {
                format!("No, {} does not see a data race here.", kind.name())
            };
            let verdict = match eval::parse_verdict(&text) {
                eval::Verdict::Yes => Some(true),
                eval::Verdict::No => Some(false),
                eval::Verdict::Unknown => None,
            };
            llm_answers.push((kind.short().to_string(), text, verdict));
        }

        Ok(AnalysisReport {
            static_verdict: ev.verdicts.stat,
            static_races: ev.stat.races.iter().map(racecheck::Race::describe).collect(),
            dynamic_verdict: dy.has_race(),
            dynamic_races: dy.races.iter().map(hbsan::DynRace::describe).collect(),
            llm_answers,
            tokens: artifact.tokens.len(),
        })
    }

    /// Run one calibrated detection experiment (model × prompt) over the
    /// evaluation subset.
    pub fn detection(&self, kind: ModelKind, strategy: PromptStrategy) -> eval::Confusion {
        eval::run_detection(self.surrogate(kind), strategy, self.views()).0
    }

    /// The traditional-tool baseline confusion over the subset.
    pub fn baseline(&self) -> eval::Confusion {
        eval::run_baseline(self.views())
    }
}

/// Every `stride`-th corpus kernel as the `(name, trimmed code)` sample
/// that `xcheck::run`/`xcheck::smoke` and `repair::smoke` re-check.
pub fn corpus_sample(stride: usize) -> Vec<(&'static str, &'static str)> {
    drb_gen::corpus()
        .iter()
        .step_by(stride)
        .map(|k| (k.name.as_str(), k.trimmed_code.as_str()))
        .collect()
}

/// Run the repair loop over every corpus kernel on `workers` threads;
/// rows come back in corpus order, whatever the worker count.
pub fn sweep_corpus(workers: usize) -> repair::SweepSummary {
    let rows = par::par_map(drb_gen::corpus(), workers, |k| {
        let r = repair::fix(&k.trimmed_code);
        let (edits, patch_lines) = match r.fix() {
            Some(f) => (
                f.edits.iter().map(repair::edit_label).collect::<Vec<_>>().join("+"),
                f.patch_lines,
            ),
            None => ("-".to_string(), 0),
        };
        repair::SweepRow {
            id: k.id,
            name: k.name.clone(),
            category: k.category.as_str(),
            racy: k.race,
            outcome: r.outcome.tag(),
            edits,
            patch_lines,
            candidates_tried: r.candidates_tried,
        }
    });
    repair::SweepSummary { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_analyzes_clean_code() {
        let p = Pipeline::new();
        let r = p
            .analyze(
                "int a[64]; int main(void) {\n#pragma omp parallel for\nfor (int i=0;i<64;i++) a[i]=i;\n return 0; }",
            )
            .unwrap();
        assert!(!r.static_verdict);
        assert!(!r.dynamic_verdict);
        assert_eq!(r.llm_answers.len(), 4);
    }

    #[test]
    fn pipeline_detection_matches_eval() {
        let p = Pipeline::new();
        let c = p.detection(ModelKind::Gpt4, PromptStrategy::P1);
        assert_eq!(c.total(), 198);
        assert!(p.baseline().f1() > c.f1());
    }
}
