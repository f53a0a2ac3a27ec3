//! Detection experiments (S1): run a model × prompt sweep over the
//! DRB-ML subset through the full textual pipeline — render prompts,
//! chat, parse the free-text answers, score against labels.

use crate::metrics::Confusion;
use crate::parse::{parse_verdict, Verdict};
use llm::{ChatSession, KernelView, ModelKind, PromptStrategy, Surrogate};
use par::{default_workers, par_map};

/// Outcome of one kernel's chat (kept for audits / failure analysis).
/// The prompts are not kept: `drb_ml::render(strategy, &code)` renders
/// the same turns again, and a table's fan-out would otherwise hold
/// every cell's prompts at once.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// Kernel id.
    pub id: u32,
    /// Model responses per turn.
    pub responses: Vec<String>,
    /// Parsed verdict of the final turn.
    pub verdict: Option<bool>,
    /// Ground truth.
    pub truth: bool,
}

/// Apply `f` to every (cell, kernel) pair in one order-preserving
/// [`par_map`] fan-out and regroup the results per cell, in cell order.
/// A table's cells share one fan-out: a fan-out per cell would join its
/// workers, and leave all but one idle on the cell's last chunk, once
/// per cell.
pub(crate) fn per_cell<U: Send>(
    cells: usize,
    views: &[KernelView],
    workers: usize,
    f: impl Fn(usize, &KernelView) -> U + Sync,
) -> Vec<Vec<U>> {
    let pairs: Vec<(usize, &KernelView)> =
        (0..cells).flat_map(|c| views.iter().map(move |k| (c, k))).collect();
    let mut out = par_map(&pairs, workers, |&(c, k)| f(c, k)).into_iter();
    (0..cells).map(|_| out.by_ref().take(views.len()).collect()).collect()
}

/// Run the full textual pipeline for several (model, prompt) cells in
/// one fan-out over every (cell × kernel) chat. Returns each cell's
/// confusion and exchanges, in cell order; the result does not depend
/// on `workers`.
pub fn run_detection_cells(
    cells: &[(&Surrogate, PromptStrategy)],
    views: &[KernelView],
    workers: usize,
) -> Vec<(Confusion, Vec<Exchange>)> {
    per_cell(cells.len(), views, workers, |c, k| {
        let (surrogate, strategy) = cells[c];
        let prompts = drb_ml::render(strategy, &k.trimmed_code);
        let mut chat = ChatSession::new(surrogate, k, strategy);
        let responses: Vec<String> = prompts.iter().map(|p| chat.send(p)).collect();
        let final_resp = responses.last().map(String::as_str).unwrap_or("");
        let verdict = match parse_verdict(final_resp) {
            Verdict::Yes => Some(true),
            Verdict::No => Some(false),
            Verdict::Unknown => None,
        };
        Exchange { id: k.id, responses, verdict, truth: k.race }
    })
    .into_iter()
    .map(|exchanges| {
        let mut c = Confusion::default();
        for e in &exchanges {
            // An unparseable answer counts as "no race flagged" (the
            // tools comparison treats silence as a negative).
            c.record(e.truth, e.verdict.unwrap_or(false));
        }
        (c, exchanges)
    })
    .collect()
}

/// Run the full textual pipeline for one (model, prompt) pair: the
/// one-cell case of [`run_detection_cells`].
pub fn run_detection(
    surrogate: &Surrogate,
    strategy: PromptStrategy,
    views: &[KernelView],
) -> (Confusion, Vec<Exchange>) {
    let mut cells = run_detection_cells(&[(surrogate, strategy)], views, default_workers());
    cells.pop().expect("one cell in, one cell out")
}

/// The traditional-tool baseline row (Table 3 "Ins"): run the static
/// detector on every subset entry, reusing each view's cached AST
/// (unparseable code still counts as "no race flagged", exactly as the
/// parse-per-sweep version did).
pub fn run_baseline(views: &[KernelView]) -> Confusion {
    let preds = par_map(views, default_workers(), |k| {
        k.artifact().ast.as_ref().map(|u| racecheck::check(u).has_race()).unwrap_or(false)
    });
    let mut c = Confusion::default();
    for (k, p) in views.iter().zip(preds) {
        c.record(k.race, p);
    }
    c
}

/// Build (and cache) surrogates for all four models against a subset.
pub fn surrogates(views: &[KernelView]) -> Vec<(ModelKind, Surrogate)> {
    ModelKind::ALL.iter().map(|&m| (m, Surrogate::new(m, views))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drb_ml::Dataset;

    #[test]
    fn detection_matches_calibrated_cells() {
        let views = Dataset::generate().subset_views();
        let s = Surrogate::new(ModelKind::Gpt4, &views);
        let (c, ex) = run_detection(&s, PromptStrategy::P1, &views);
        assert_eq!(c.total(), 198);
        assert_eq!(ex.len(), 198);
        // Paper Table 3, GPT4 p1: TP 77, TN 70 (±1 for rounding).
        assert!((c.tp as i64 - 77).abs() <= 1, "{c}");
        assert!((c.tn as i64 - 70).abs() <= 1, "{c}");
    }

    #[test]
    fn cells_equal_one_cell_runs_at_any_worker_count() {
        let views = Dataset::generate().subset_views();
        let gpt4 = Surrogate::new(ModelKind::Gpt4, &views);
        let sc = Surrogate::new(ModelKind::StarChatBeta, &views);
        let cells =
            [(&gpt4, PromptStrategy::P3), (&sc, PromptStrategy::Bp2), (&gpt4, PromptStrategy::P1)];
        let replies = |ex: &[Exchange]| -> Vec<(u32, Vec<String>)> {
            ex.iter().map(|e| (e.id, e.responses.clone())).collect()
        };
        for workers in [1, 3, 8] {
            let joint = run_detection_cells(&cells, &views, workers);
            assert_eq!(joint.len(), cells.len());
            for ((c, ex), &(s, p)) in joint.iter().zip(&cells) {
                let (c1, ex1) = run_detection(s, p, &views);
                assert_eq!(*c, c1, "{p:?} at {workers} workers");
                assert_eq!(replies(ex), replies(&ex1), "{p:?} at {workers} workers");
            }
        }
        assert!(run_detection_cells(&[], &views, 2).is_empty());
    }

    #[test]
    fn every_exchange_has_parseable_verdict() {
        let views = Dataset::generate().subset_views();
        let s = Surrogate::new(ModelKind::StarChatBeta, &views);
        let (_, ex) = run_detection(&s, PromptStrategy::P3, &views);
        assert!(ex.iter().all(|e| e.verdict.is_some()));
        // p3 is a two-turn chat.
        assert!(ex.iter().all(|e| e.responses.len() == 2));
    }

    #[test]
    fn baseline_is_best_f1() {
        let views = Dataset::generate().subset_views();
        let ins = run_baseline(&views);
        for (_, s) in surrogates(&views) {
            for p in [PromptStrategy::P1, PromptStrategy::P2, PromptStrategy::P3] {
                let (c, _) = run_detection(&s, p, &views);
                assert!(
                    ins.f1() > c.f1(),
                    "traditional tool must beat every LLM (paper §4.4): {} vs {}",
                    ins.f1(),
                    c.f1()
                );
            }
        }
    }
}
