//! Stratified 5-fold cross validation (paper §3.5).
//!
//! The 198-entry subset (100 positive / 98 negative) is split into
//! three folds of 20+20 and two folds of 20+19; each fold serves once
//! as validation while the rest trains.

use crate::train::Rng;
use llm::KernelView;
use serde::{Deserialize, Serialize};

/// One fold: indices into the dataset slice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fold {
    /// Validation indices.
    pub test: Vec<usize>,
    /// Training indices (complement).
    pub train: Vec<usize>,
}

/// Build stratified k folds over the given labels.
///
/// Positives and negatives are shuffled (seeded) and dealt round-robin,
/// so every fold keeps the overall class balance; with k=5 over 100/98
/// this reproduces the paper's 40/40/40/39/39 fold sizes.
pub fn stratified_folds(labels: &[bool], k: usize, seed: u64) -> Vec<Fold> {
    stratified_folds_by(labels, None, k, seed)
}

/// Stratified folds that additionally balance a per-item score (e.g.
/// kernel difficulty): items are sorted by score within each class and
/// dealt round-robin, so every fold sees a representative spread — the
/// variance-reduction that keeps the paper's per-fold SDs small.
/// `k = 0` asks for no folds and gets none.
pub fn stratified_folds_by(
    labels: &[bool],
    score: Option<&[f64]>,
    k: usize,
    seed: u64,
) -> Vec<Fold> {
    if k == 0 {
        return Vec::new();
    }
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut pos);
    rng.shuffle(&mut neg);
    if let Some(score) = score {
        // total_cmp: a NaN score (e.g. a degenerate difficulty from a
        // 0-token kernel) must not panic the fold builder — NaNs sort
        // after every real score and stratification proceeds.
        pos.sort_by(|&a, &b| score[a].total_cmp(&score[b]));
        neg.sort_by(|&a, &b| score[a].total_cmp(&score[b]));
        // Seeded rotation keeps fold membership seed-dependent.
        let rot = (rng.next_u64() % k as u64) as usize;
        let pr = rot.min(pos.len().saturating_sub(1));
        let nr = rot.min(neg.len().saturating_sub(1));
        pos.rotate_left(pr);
        neg.rotate_left(nr);
    }

    let mut tests: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (j, &i) in pos.iter().enumerate() {
        tests[j % k].push(i);
    }
    for (j, &i) in neg.iter().enumerate() {
        tests[j % k].push(i);
    }
    tests
        .into_iter()
        .map(|mut test| {
            test.sort_unstable();
            let train: Vec<usize> =
                (0..labels.len()).filter(|i| test.binary_search(i).is_err()).collect();
            Fold { test, train }
        })
        .collect()
}

/// Convenience: folds over kernel views, balanced by difficulty.
pub fn folds_for(views: &[KernelView], k: usize, seed: u64) -> Vec<Fold> {
    let labels: Vec<bool> = views.iter().map(|v| v.race).collect();
    let scores: Vec<f64> = views.iter().map(|v| v.difficulty).collect();
    stratified_folds_by(&labels, Some(&scores), k, seed)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_labels() -> Vec<bool> {
        // 100 positives, 98 negatives.
        let mut l = vec![true; 100];
        l.extend(vec![false; 98]);
        l
    }

    #[test]
    fn fold_sizes_match_paper() {
        let folds = stratified_folds(&paper_labels(), 5, 1);
        let mut sizes: Vec<usize> = folds.iter().map(|f| f.test.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![39, 39, 40, 40, 40], "paper §3.5 fold sizes");
    }

    #[test]
    fn folds_are_stratified() {
        let labels = paper_labels();
        let folds = stratified_folds(&labels, 5, 1);
        for f in &folds {
            let pos = f.test.iter().filter(|&&i| labels[i]).count();
            assert_eq!(pos, 20, "each fold holds exactly 20 positives");
        }
    }

    #[test]
    fn folds_partition_everything() {
        let labels = paper_labels();
        let folds = stratified_folds(&labels, 5, 9);
        let mut seen = vec![false; labels.len()];
        for f in &folds {
            for &i in &f.test {
                assert!(!seen[i], "index {i} in two folds");
                seen[i] = true;
            }
            // train + test = all
            assert_eq!(f.train.len() + f.test.len(), labels.len());
            for &i in &f.train {
                assert!(f.test.binary_search(&i).is_err());
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_per_seed() {
        let labels = paper_labels();
        assert_eq!(stratified_folds(&labels, 5, 7), stratified_folds(&labels, 5, 7));
        assert_ne!(
            stratified_folds(&labels, 5, 7)[0].test,
            stratified_folds(&labels, 5, 8)[0].test
        );
    }

    #[test]
    fn nan_scores_do_not_panic_stratification() {
        // Regression: `partial_cmp(..).unwrap()` panicked on NaN
        // difficulty scores; `total_cmp` must build valid folds instead.
        let labels: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        let mut scores: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        scores[3] = f64::NAN;
        scores[17] = f64::NAN;
        let folds = stratified_folds_by(&labels, Some(&scores), 5, 42);
        assert_eq!(folds.len(), 5);
        let mut seen = vec![false; labels.len()];
        for f in &folds {
            for &i in &f.test {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert_eq!(f.train.len() + f.test.len(), labels.len());
        }
        assert!(seen.iter().all(|&s| s), "NaN-scored items still partitioned");
    }

    #[test]
    fn zero_folds_is_empty_not_a_panic() {
        // Regression: `k = 0` divided by zero in the seeded rotation and
        // in the round-robin deal.
        let labels = paper_labels();
        let scores: Vec<f64> = (0..labels.len()).map(|i| i as f64).collect();
        assert!(stratified_folds(&labels, 0, 1).is_empty());
        assert!(stratified_folds_by(&labels, Some(&scores), 0, 1).is_empty());
        assert!(stratified_folds_by(&[], Some(&[]), 0, 1).is_empty());
    }

    #[test]
    fn mean_and_sd() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }
}
