//! Order statistics and the classification score the benchmark reports.

/// Nearest-rank percentile `p` (0–100] of `xs`; `None` when fewer than
/// `min_beyond` samples lie above it (a tail read from too few samples
/// is not reported).
pub fn percentile(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v.len() - rank >= min_beyond).then(|| v[rank - 1])
}

/// Percentile `p` over inputs of each input's own figure, the
/// nearest-rank `own_pct` percentile of its samples. Inputs without
/// samples are skipped; `None` when fewer than `min_beyond` inputs lie
/// above `p`.
pub fn over_inputs(by_input: &[Vec<f64>], own_pct: f64, p: f64, min_beyond: usize) -> Option<f64> {
    let own: Vec<f64> = by_input
        .iter()
        .filter_map(|xs| percentile(xs, own_pct, 0))
        .collect();
    percentile(&own, p, min_beyond)
}

/// Median (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The favourable quartile of per-round figures: the 25th percentile
/// when lower is better, the 75th when higher is better (linear
/// interpolation between order statistics).
///
/// Interference from outside the program (steal time, a busy
/// neighbour) only ever slows a round down. The favourable quartile
/// estimates the undisturbed machine as long as a quarter of the rounds
/// ran undisturbed, yet one lucky round cannot set the result.
pub fn favourable(xs: &[f64], lower_is_better: bool) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quartile of no samples");
    let q = if lower_is_better { 0.25 } else { 0.75 };
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// F1 of `(predicted, actual)` pairs, positives being races.
pub fn f1(pairs: impl IntoIterator<Item = (bool, bool)>) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0u32, 0u32, 0u32);
    for (pred, actual) in pairs {
        match (pred, actual) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    if tp == 0 {
        0.0
    } else {
        2.0 * f64::from(tp) / f64::from(2 * tp + fp + fn_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0, 10), Some(990.0));
        assert_eq!(percentile(&xs[..999], 99.0, 10), None);
        assert_eq!(percentile(&xs, 50.0, 10), Some(500.0));
    }

    #[test]
    fn over_inputs_takes_each_inputs_low_order_statistic() {
        // Input i took i ms at best; its other attempts were disturbed.
        let by_input: Vec<Vec<f64>> = (1..=20)
            .map(|i| {
                let i = f64::from(i);
                vec![i + 9.0, i, i + 5.0, i + 30.0, i + 1.0]
            })
            .chain([Vec::new()])
            .collect();
        assert_eq!(over_inputs(&by_input, 12.5, 50.0, 10), Some(10.0));
        assert_eq!(over_inputs(&by_input, 12.5, 75.0, 5), Some(15.0));
        assert_eq!(over_inputs(&by_input, 12.5, 75.0, 6), None);
        // With eight attempts each, p12.5 is the best one.
        assert_eq!(
            over_inputs(
                &[vec![4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0]],
                12.5,
                50.0,
                0
            ),
            Some(1.0)
        );
        // With sixteen, the second best.
        let sixteen: Vec<f64> = (1..=16).map(f64::from).rev().collect();
        assert_eq!(over_inputs(&[sixteen], 12.5, 50.0, 0), Some(2.0));
    }

    #[test]
    fn favourable_quartile_ignores_slow_rounds() {
        let rounds = [1.0, 1.1, 1.05, 3.0, 2.5, 1.02, 4.0, 1.08, 2.0];
        assert_eq!(favourable(&rounds, true), 1.05);
        assert_eq!(favourable(&[1.0, 2.0, 3.0, 4.0, 5.0], false), 4.0);
        assert_eq!(favourable(&[2.0], true), 2.0);
    }

    #[test]
    fn median_and_f1() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            f1([(true, true), (true, false), (false, true), (false, false)]),
            0.5
        );
    }
}
