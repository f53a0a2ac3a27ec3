//! Variable-identification experiments (S2/S3).
//!
//! A response counts as a true positive only when the pair info is
//! *fully* correct — names, line numbers, and operations (§4.3's strict
//! standard, which is why Table 5's scores collapse to 0.06–0.19).

use crate::detection::per_cell;
use crate::metrics::Confusion;
use crate::parse::{parse_pairs, ParsedPair};
use llm::{KernelView, Surrogate};
use par::default_workers;

/// Normalize an lvalue text for comparison (whitespace-insensitive).
fn norm(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Does a parsed response exactly match some ground-truth pair?
pub fn pair_matches(parsed: &ParsedPair, k: &KernelView) -> bool {
    if parsed.names.len() < 2 || parsed.lines.len() < 2 || parsed.ops.len() < 2 {
        return false;
    }
    let cand = [
        (
            norm(&parsed.names[0]),
            parsed.lines[0],
            parsed.ops[0].as_str(),
            norm(&parsed.names[1]),
            parsed.lines[1],
            parsed.ops[1].as_str(),
        ),
        // Allow the two sides in either order.
        (
            norm(&parsed.names[1]),
            parsed.lines[1],
            parsed.ops[1].as_str(),
            norm(&parsed.names[0]),
            parsed.lines[0],
            parsed.ops[0].as_str(),
        ),
    ];
    k.pairs.iter().any(|p| {
        let truth = (
            norm(&p.names.0),
            p.lines.0,
            p.ops.0.as_str(),
            norm(&p.names.1),
            p.lines.1,
            p.ops.1.as_str(),
        );
        cand.iter().any(|c| {
            c.0 == truth.0
                && c.1 == truth.1
                && c.2 == truth.2
                && c.3 == truth.3
                && c.4 == truth.4
                && c.5 == truth.5
        })
    })
}

/// How much of the pair information matched (the paper's S2 vs S3
/// scenarios: S2 = the right variables, S3 = full name/line/operation
/// detail). Levels are ordered: each implies the ones before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MatchLevel {
    /// Nothing matched (or no pairs given).
    #[default]
    None,
    /// Variable names match some ground-truth pair (S2).
    NamesOnly,
    /// Names, lines, and operations all match (S3).
    Full,
}

/// Classify a parsed response against the ground truth.
pub fn match_level(parsed: &ParsedPair, k: &KernelView) -> MatchLevel {
    if pair_matches(parsed, k) {
        return MatchLevel::Full;
    }
    if parsed.names.len() >= 2 {
        let c0 = norm(&parsed.names[0]);
        let c1 = norm(&parsed.names[1]);
        let names_match = k.pairs.iter().any(|p| {
            let t0 = norm(&p.names.0);
            let t1 = norm(&p.names.1);
            (c0 == t0 && c1 == t1) || (c0 == t1 && c1 == t0)
        });
        if names_match {
            return MatchLevel::NamesOnly;
        }
    }
    MatchLevel::None
}

use serde::{Deserialize, Serialize};

/// One kernel's var-id exchange.
#[derive(Debug, Clone, Default)]
pub struct VarIdExchange {
    /// Kernel id.
    pub id: u32,
    /// Raw response.
    pub response: String,
    /// Whether the response contained pair info at all.
    pub gave_pairs: bool,
    /// How much of that info matched the ground truth
    /// ([`MatchLevel::None`] when there was none).
    pub level: MatchLevel,
    /// Ground truth.
    pub truth: bool,
}

/// Score exchanges into a confusion: a race-yes kernel is a true
/// positive when its pair info matched at `level` or better; a race-no
/// kernel is a true negative when it invented no pair info.
fn score(exchanges: &[VarIdExchange], level: MatchLevel) -> Confusion {
    let mut c = Confusion::default();
    for e in exchanges {
        match (e.truth, e.level >= level, e.gave_pairs) {
            (true, true, _) => c.tp += 1,
            (true, false, _) => c.fn_ += 1,
            (false, _, true) => c.fp += 1,
            (false, _, false) => c.tn += 1,
        }
    }
    c
}

/// Run variable identification scored at both S2 (names) and S3 (full
/// detail) levels, from [`run_varid`]'s exchanges. Returns `(s2, s3)`
/// confusions.
pub fn run_varid_levels(surrogate: &Surrogate, views: &[KernelView]) -> (Confusion, Confusion) {
    let (s3, exchanges) = run_varid(surrogate, views);
    (score(&exchanges, MatchLevel::NamesOnly), s3)
}

/// Run variable identification for several models in one fan-out over
/// every (model × kernel) exchange. Returns each model's confusion and
/// exchanges, in model order; the result does not depend on `workers`.
///
/// Cells per the paper's Table-5 definitions: TP = race-yes with fully
/// correct pair info; TN = race-no without invented pair info.
pub fn run_varid_cells(
    surrogates: &[&Surrogate],
    views: &[KernelView],
    workers: usize,
) -> Vec<(Confusion, Vec<VarIdExchange>)> {
    per_cell(surrogates.len(), views, workers, |c, k| {
        let response = surrogates[c].answer_varid(k);
        let parsed = parse_pairs(&response);
        let gave_pairs = parsed.is_some();
        let level = parsed.as_ref().map_or(MatchLevel::None, |p| match_level(p, k));
        VarIdExchange { id: k.id, response, gave_pairs, level, truth: k.race }
    })
    .into_iter()
    .map(|exchanges| (score(&exchanges, MatchLevel::Full), exchanges))
    .collect()
}

/// Run variable identification for one model over a subset: the
/// one-cell case of [`run_varid_cells`].
pub fn run_varid(surrogate: &Surrogate, views: &[KernelView]) -> (Confusion, Vec<VarIdExchange>) {
    let mut cells = run_varid_cells(&[surrogate], views, default_workers());
    cells.pop().expect("one cell in, one cell out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drb_ml::Dataset;
    use llm::{ModelKind, PairView};

    fn kv(pairs: Vec<PairView>) -> KernelView {
        KernelView::new(1, String::new(), true, pairs, 0.5)
    }

    #[test]
    fn exact_match_required() {
        let truth = PairView {
            names: ("a[i + 1]".into(), "a[i]".into()),
            lines: (7, 7),
            ops: ("read".into(), "write".into()),
        };
        let k = kv(vec![truth]);
        let good = ParsedPair {
            names: vec!["a[i+1]".into(), "a[i]".into()], // whitespace-insensitive
            lines: vec![7, 7],
            ops: vec!["read".into(), "write".into()],
        };
        assert!(pair_matches(&good, &k));
        let wrong_line = ParsedPair {
            names: vec!["a[i+1]".into(), "a[i]".into()],
            lines: vec![8, 7],
            ops: vec!["read".into(), "write".into()],
        };
        assert!(!pair_matches(&wrong_line, &k));
        let wrong_op = ParsedPair {
            names: vec!["a[i+1]".into(), "a[i]".into()],
            lines: vec![7, 7],
            ops: vec!["write".into(), "write".into()],
        };
        assert!(!pair_matches(&wrong_op, &k));
    }

    #[test]
    fn order_insensitive() {
        let truth = PairView {
            names: ("x".into(), "y".into()),
            lines: (3, 5),
            ops: ("write".into(), "read".into()),
        };
        let k = kv(vec![truth]);
        let swapped = ParsedPair {
            names: vec!["y".into(), "x".into()],
            lines: vec![5, 3],
            ops: vec!["read".into(), "write".into()],
        };
        assert!(pair_matches(&swapped, &k));
    }

    #[test]
    fn varid_counts_match_calibration() {
        let views = Dataset::generate().subset_views();
        let s = Surrogate::new(ModelKind::Gpt4, &views);
        let (c, _) = run_varid(&s, &views);
        assert_eq!(c.tp + c.fn_, 100);
        assert_eq!(c.fp + c.tn, 98);
        // Paper Table 5, GPT4: TP 14, TN 67 (small tolerance: the pair
        // matcher is strict and parsing is lossy by design).
        assert!((c.tp as i64 - 14).abs() <= 2, "{c}");
        assert!((c.tn as i64 - 67).abs() <= 2, "{c}");
    }
}

#[cfg(test)]
mod level_tests {
    use super::*;
    use drb_ml::Dataset;
    use llm::ModelKind;

    #[test]
    fn s2_dominates_s3() {
        // Getting the names right is strictly easier than full detail —
        // the paper's §4.3 point that line numbers are where models fail.
        let views = Dataset::generate().subset_views();
        for m in ModelKind::ALL {
            let s = Surrogate::new(m, &views);
            let (s2, s3) = run_varid_levels(&s, &views);
            assert!(s2.tp >= s3.tp, "{m:?}: S2 {s2} vs S3 {s3}");
            assert!(s2.f1() >= s3.f1(), "{m:?}");
        }
    }

    #[test]
    fn s3_equals_table5_definition() {
        let views = Dataset::generate().subset_views();
        let s = Surrogate::new(ModelKind::Gpt4, &views);
        let (_, s3) = run_varid_levels(&s, &views);
        let (t5, _) = run_varid(&s, &views);
        assert_eq!(s3, t5);
    }

    #[test]
    fn names_only_classified_correctly() {
        let truth = llm::PairView {
            names: ("a[i]".into(), "a[i + 1]".into()),
            lines: (7, 7),
            ops: ("write".into(), "read".into()),
        };
        let k = KernelView::new(1, String::new(), true, vec![truth], 0.5);
        let wrong_lines = ParsedPair {
            names: vec!["a[i]".into(), "a[i+1]".into()],
            lines: vec![9, 9],
            ops: vec!["write".into(), "read".into()],
        };
        assert_eq!(match_level(&wrong_lines, &k), MatchLevel::NamesOnly);
        let all_wrong = ParsedPair {
            names: vec!["q".into(), "z".into()],
            lines: vec![9, 9],
            ops: vec!["write".into(), "read".into()],
        };
        assert_eq!(match_level(&all_wrong, &k), MatchLevel::None);
    }
}
