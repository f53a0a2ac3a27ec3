//! Experiment runners: one function per paper table.
//!
//! Every runner returns structured rows *and* can format itself the way
//! the paper prints it, so `cargo run -p bench --bin tables` regenerates
//! the artifacts and EXPERIMENTS.md can diff them against the published
//! values.

use crate::detection::{run_baseline, run_detection_cells};
use crate::metrics::Confusion;
use crate::varid::run_varid_cells;
use drb_ml::Dataset;
use finetune::{folds_for, mean, std_dev, FineTuned, TrainConfig};
use llm::{KernelView, ModelKind, PromptStrategy, Surrogate, VarIdOutcome};
use par::default_workers;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A detection-table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRow {
    /// Row label (`Ins`, `GPT3`, …).
    pub model: String,
    /// Prompt label (`N/A`, `p1`, …).
    pub prompt: String,
    /// Confusion cells + metrics.
    pub confusion: Confusion,
}

impl DetectionRow {
    fn fmt_row(&self) -> String {
        let c = &self.confusion;
        format!(
            "| {:5} | {:6} | {:3} | {:3} | {:3} | {:3} | {:.3} | {:.3} | {:.3} |",
            self.model,
            self.prompt,
            c.tp,
            c.fp,
            c.tn,
            c.fn_,
            c.recall(),
            c.precision(),
            c.f1()
        )
    }
}

/// A cross-validation summary row (Tables 4 and 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvRow {
    /// Row label (`SC`, `SC-FT`, …).
    pub model: String,
    /// Mean recall across folds.
    pub avg_r: f64,
    /// SD of recall.
    pub sd_r: f64,
    /// Mean precision.
    pub avg_p: f64,
    /// SD of precision.
    pub sd_p: f64,
    /// Mean F1.
    pub avg_f1: f64,
    /// SD of F1.
    pub sd_f1: f64,
}

impl CvRow {
    fn from_folds(model: &str, folds: &[Confusion]) -> CvRow {
        let rs: Vec<f64> = folds.iter().map(Confusion::recall).collect();
        let ps: Vec<f64> = folds.iter().map(Confusion::precision).collect();
        let f1s: Vec<f64> = folds.iter().map(Confusion::f1).collect();
        CvRow {
            model: model.to_string(),
            avg_r: mean(&rs),
            sd_r: std_dev(&rs),
            avg_p: mean(&ps),
            sd_p: std_dev(&ps),
            avg_f1: mean(&f1s),
            sd_f1: std_dev(&f1s),
        }
    }

    fn fmt_row(&self) -> String {
        format!(
            "| {:6} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            self.model, self.avg_r, self.sd_r, self.avg_p, self.sd_p, self.avg_f1, self.sd_f1
        )
    }
}

/// The cached evaluation-subset views every table runner shares
/// ([`Dataset::generated_views`]); each view carries its analysis
/// artifact.
pub fn corpus_views() -> &'static [KernelView] {
    Dataset::generated_views()
}

/// The calibrated surrogates every table runner shares — one
/// `Surrogate` per model, reused across all prompt strategies and all
/// tables (calibration is deterministic in the corpus, so reuse cannot
/// change any cell).
pub fn corpus_surrogates() -> &'static [(ModelKind, Surrogate)] {
    static SURROGATES: OnceLock<Vec<(ModelKind, Surrogate)>> = OnceLock::new();
    SURROGATES.get_or_init(|| crate::detection::surrogates(corpus_views()))
}

fn surrogate(m: ModelKind) -> &'static Surrogate {
    &corpus_surrogates().iter().find(|(k, _)| *k == m).expect("all models calibrated").1
}

/// One detection row per (model, prompt) cell, from one fan-out over
/// every (cell × kernel) chat.
fn detection_rows(cells: &[(ModelKind, PromptStrategy)], workers: usize) -> Vec<DetectionRow> {
    let runs: Vec<(&Surrogate, PromptStrategy)> =
        cells.iter().map(|&(m, p)| (surrogate(m), p)).collect();
    run_detection_cells(&runs, corpus_views(), workers)
        .into_iter()
        .zip(cells)
        .map(|((confusion, _), &(m, p))| DetectionRow {
            model: m.short().into(),
            prompt: p.label().into(),
            confusion,
        })
        .collect()
}

/// Table 2 — GPT-3.5-turbo with basic prompts BP1/BP2.
pub fn table2() -> Vec<DetectionRow> {
    table2_at(default_workers())
}

fn table2_at(workers: usize) -> Vec<DetectionRow> {
    let cells = [PromptStrategy::Bp1, PromptStrategy::Bp2].map(|p| (ModelKind::Gpt35Turbo, p));
    detection_rows(&cells, workers)
}

/// Table 3 — Inspector baseline + four LLMs × {p1, p2, p3}.
pub fn table3() -> Vec<DetectionRow> {
    table3_at(default_workers())
}

fn table3_at(workers: usize) -> Vec<DetectionRow> {
    let cells: Vec<(ModelKind, PromptStrategy)> = ModelKind::ALL
        .iter()
        .flat_map(|&m| [PromptStrategy::P1, PromptStrategy::P2, PromptStrategy::P3].map(|p| (m, p)))
        .collect();
    let mut rows = vec![DetectionRow {
        model: "Ins".into(),
        prompt: "N/A".into(),
        confusion: run_baseline(corpus_views()),
    }];
    rows.extend(detection_rows(&cells, workers));
    rows
}

/// Table 5 — variable identification, four LLMs.
pub fn table5() -> Vec<DetectionRow> {
    table5_at(default_workers())
}

fn table5_at(workers: usize) -> Vec<DetectionRow> {
    let surrogates = ModelKind::ALL.map(surrogate);
    run_varid_cells(&surrogates, corpus_views(), workers)
        .into_iter()
        .zip(ModelKind::ALL)
        .map(|((confusion, _), m)| DetectionRow {
            model: m.short().into(),
            prompt: "varid".into(),
            confusion,
        })
        .collect()
}

/// The open-weight models fine-tuned under CV (paper §4.3), in table
/// row order.
const CV_MODELS: [ModelKind; 2] = [ModelKind::StarChatBeta, ModelKind::Llama2_7b];

/// Fold seed shared by Tables 4 and 6 — same folds, same adapters.
const CV_SEED: u64 = 20230915;

/// Record a var-id outcome into a confusion matrix.
fn record_varid(c: &mut Confusion, race: bool, outcome: VarIdOutcome) {
    match (race, outcome) {
        (true, VarIdOutcome::CorrectPairs) => c.tp += 1,
        (true, _) => c.fn_ += 1,
        (false, VarIdOutcome::NoPairs) => c.tn += 1,
        (false, _) => c.fp += 1,
    }
}

/// Per-fold detection confusion for the base (pre-trained) surrogate
/// (memoized predictions — the trainer already asked for every one).
fn cv_base_detection(s: &Surrogate, vs: &[KernelView], folds: &[finetune::Fold]) -> Vec<Confusion> {
    folds
        .iter()
        .map(|fold| {
            let mut c = Confusion::default();
            for &i in &fold.test {
                c.record(vs[i].race, s.predict_memo(&vs[i], PromptStrategy::P1));
            }
            c
        })
        .collect()
}

/// Per-fold var-id confusion for the base surrogate.
fn cv_base_varid(s: &Surrogate, vs: &[KernelView], folds: &[finetune::Fold]) -> Vec<Confusion> {
    folds
        .iter()
        .map(|fold| {
            let mut c = Confusion::default();
            for &i in &fold.test {
                record_varid(&mut c, vs[i].race, s.varid_outcome(&vs[i]));
            }
            c
        })
        .collect()
}

/// One fine-tuning job's outcome: detection (Table 4) and var-id
/// (Table 6) confusions on the fold's validation split, both evaluated
/// from the **same** trained adapter — the two tables share folds, fold
/// seed, and training config, so training once per (model, fold) halves
/// the total training work.
struct FtFoldEval {
    det: Confusion,
    varid: Confusion,
}

fn ft_fold_eval(
    s: &Surrogate,
    vs: &[KernelView],
    fold: &finetune::Fold,
    cfg: &TrainConfig,
) -> FtFoldEval {
    let ft = FineTuned::train_on(s, vs, &fold.train, cfg);
    let mut det = Confusion::default();
    let mut varid = Confusion::default();
    for &i in &fold.test {
        let k = &vs[i];
        det.record(k.race, ft.predict(s, k));
        record_varid(&mut varid, k.race, finetune::varid_outcome_finetuned(&ft, s, k));
    }
    FtFoldEval { det, varid }
}

/// Build Tables 4 and 6 together with an explicit worker count: the
/// 2 models × 5 folds fine-tuning jobs fan out over [`par::par_map`].
/// Each job owns a deterministic RNG stream seeded only by the training
/// config, and `par_map` is order-preserving, so the rows are
/// byte-identical at every worker count (proved by the equivalence
/// tests at 1 and 8 workers).
pub fn cv_tables_with_workers(workers: usize) -> (Vec<CvRow>, Vec<CvRow>) {
    let vs = corpus_views();
    let folds = folds_for(vs, 5, CV_SEED);
    let jobs: Vec<(ModelKind, usize)> =
        CV_MODELS.iter().flat_map(|&m| (0..folds.len()).map(move |f| (m, f))).collect();
    let evals: Vec<FtFoldEval> = par::par_map(&jobs, workers, |&(m, f)| {
        ft_fold_eval(surrogate(m), vs, &folds[f], &TrainConfig::for_model(m))
    });

    let mut det_rows = Vec::new();
    let mut varid_rows = Vec::new();
    for (mi, m) in CV_MODELS.iter().enumerate() {
        let s = surrogate(*m);
        let ft: &[FtFoldEval] = &evals[mi * folds.len()..(mi + 1) * folds.len()];
        det_rows.push(CvRow::from_folds(m.short(), &cv_base_detection(s, vs, &folds)));
        det_rows.push(CvRow::from_folds(
            &format!("{}-FT", m.short()),
            &ft.iter().map(|e| e.det).collect::<Vec<_>>(),
        ));
        varid_rows.push(CvRow::from_folds(m.short(), &cv_base_varid(s, vs, &folds)));
        varid_rows.push(CvRow::from_folds(
            &format!("{}-FT", m.short()),
            &ft.iter().map(|e| e.varid).collect::<Vec<_>>(),
        ));
    }
    (det_rows, varid_rows)
}

/// Both CV tables, built once per process (they are deterministic in
/// the corpus; every caller after the first gets the cached rows).
fn cv_tables_cached() -> &'static (Vec<CvRow>, Vec<CvRow>) {
    static TABLES: OnceLock<(Vec<CvRow>, Vec<CvRow>)> = OnceLock::new();
    TABLES.get_or_init(|| cv_tables_with_workers(default_workers()))
}

/// Table 4 — 5-fold CV, detection, StarChat-β and Llama2-7b ± FT.
pub fn table4() -> Vec<CvRow> {
    cv_tables_cached().0.clone()
}

/// Table 6 — 5-fold CV, variable identification, ± FT.
pub fn table6() -> Vec<CvRow> {
    cv_tables_cached().1.clone()
}

/// Format detection rows as a paper-style markdown table.
pub fn format_detection_table(title: &str, rows: &[DetectionRow]) -> String {
    let mut s = format!("{title}\n");
    s.push_str("| Model | Prompt | TP  | FP  | TN  | FN  | R     | P     | F1    |\n");
    s.push_str("|-------|--------|-----|-----|-----|-----|-------|-------|-------|\n");
    for r in rows {
        s.push_str(&r.fmt_row());
        s.push('\n');
    }
    s
}

/// Format CV rows as a paper-style markdown table.
pub fn format_cv_table(title: &str, rows: &[CvRow]) -> String {
    let mut s = format!("{title}\n");
    s.push_str("| Model  | AVG R | SD R  | AVG P | SD P  | AVG F1 | SD F1 |\n");
    s.push_str("|--------|-------|-------|-------|-------|--------|-------|\n");
    for r in rows {
        s.push_str(&r.fmt_row());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_matches_paper() {
        let rows = table2();
        assert_eq!(rows.len(), 2);
        // BP1 beats BP2 on F1 (the paper's "greedy prompt" effect).
        assert!(rows[0].confusion.f1() > rows[1].confusion.f1());
        // Cells near the paper's: BP1 TP 66, BP2 TP 35 (±1).
        assert!((rows[0].confusion.tp as i64 - 66).abs() <= 1, "{:?}", rows[0]);
        assert!((rows[1].confusion.tp as i64 - 35).abs() <= 1, "{:?}", rows[1]);
    }

    #[test]
    fn table3_orderings_hold() {
        let rows = table3();
        assert_eq!(rows.len(), 13);
        let f1 = |m: &str, p: &str| {
            rows.iter().find(|r| r.model == m && r.prompt == p).unwrap().confusion.f1()
        };
        let ins = rows[0].confusion.f1();
        // Traditional tool beats every LLM.
        for r in &rows[1..] {
            assert!(ins > r.confusion.f1(), "{:?}", r);
        }
        // GPT-4 is the best LLM on every prompt.
        for p in ["p1", "p2", "p3"] {
            for m in ["GPT3", "SC", "LM"] {
                assert!(f1("GPT4", p) > f1(m, p), "GPT4 must beat {m} on {p}");
            }
        }
        // GPT-4 comes close to the tool (within 0.05 F1).
        assert!(ins - f1("GPT4", "p3") < 0.05);
    }

    /// The artifact cache must not shift a single table cell: rebuild
    /// Table 3 from freshly analyzed, uncached views and freshly
    /// calibrated surrogates (the pre-caching behaviour) and require the
    /// rows to be identical to the shared-cache path.
    #[test]
    fn table3_identical_with_fresh_uncached_views() {
        let cached = table3();
        // A cloned dataset is a different allocation, so `subset_views`
        // bypasses the canonical view cache and re-analyzes everything.
        let ds = Dataset::generate().clone();
        let vs = ds.subset_views();
        let mut fresh = vec![DetectionRow {
            model: "Ins".into(),
            prompt: "N/A".into(),
            confusion: run_baseline(&vs),
        }];
        for m in ModelKind::ALL {
            let s = Surrogate::new(m, &vs);
            for p in [PromptStrategy::P1, PromptStrategy::P2, PromptStrategy::P3] {
                fresh.push(DetectionRow {
                    model: m.short().into(),
                    prompt: p.label().into(),
                    confusion: crate::run_detection(&s, p, &vs).0,
                });
            }
        }
        assert_eq!(fresh, cached);
    }

    /// One fan-out per table is a pure throughput change: the rows are
    /// identical on one worker and on eight.
    #[test]
    fn detection_tables_equal_at_1_and_8_workers() {
        assert_eq!(table2_at(1), table2_at(8));
        assert_eq!(table3_at(1), table3_at(8));
        assert_eq!(table5_at(1), table5_at(8));
        assert_eq!(table3_at(8), table3());
    }

    #[test]
    fn table5_gpt4_best() {
        let rows = table5();
        assert_eq!(rows.len(), 4);
        let gpt4 = rows.iter().find(|r| r.model == "GPT4").unwrap().confusion.f1();
        for r in &rows {
            if r.model != "GPT4" {
                assert!(gpt4 > r.confusion.f1(), "{:?}", r);
            }
        }
        // All scores collapse below 0.25 (paper: 0.059–0.193).
        assert!(rows.iter().all(|r| r.confusion.f1() < 0.25));
    }
}
