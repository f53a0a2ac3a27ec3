//! Classification metrics (paper §3.6: recall, precision, F1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// True negatives.
    pub tn: u32,
    /// False negatives.
    #[serde(rename = "fn")]
    pub fn_: u32,
}

impl Confusion {
    /// Record one (truth, prediction) observation.
    pub fn record(&mut self, truth: bool, pred: bool) {
        match (truth, pred) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u32 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Recall = TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            f64::from(self.tp) / f64::from(self.tp + self.fn_)
        }
    }

    /// Precision = TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            f64::from(self.tp) / f64::from(self.tp + self.fp)
        }
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (r, p) = (self.recall(), self.precision());
        if r + p == 0.0 {
            0.0
        } else {
            2.0 * r * p / (r + p)
        }
    }

    /// Accuracy (not reported by the paper but useful for ablations).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            f64::from(self.tp + self.tn) / f64::from(self.total())
        }
    }

    /// Merge another matrix in.
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }
}

impl fmt::Display for Confusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TP={} FP={} TN={} FN={} R={:.3} P={:.3} F1={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.recall(),
            self.precision(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_inspector_row() {
        // Table 3, Ins: TP 88, FP 44, TN 53, FN 11 → R .889 P .667 F1 .762
        let c = Confusion { tp: 88, fp: 44, tn: 53, fn_: 11 };
        assert!((c.recall() - 0.889).abs() < 0.001);
        assert!((c.precision() - 0.667).abs() < 0.001);
        assert!((c.f1() - 0.762).abs() < 0.001);
    }

    #[test]
    fn degenerate_cases() {
        let c = Confusion::default();
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn record_and_merge() {
        let mut a = Confusion::default();
        a.record(true, true);
        a.record(false, true);
        let mut b = Confusion::default();
        b.record(true, false);
        b.record(false, false);
        a.merge(&b);
        assert_eq!(a, Confusion { tp: 1, fp: 1, tn: 1, fn_: 1 });
        assert_eq!(a.accuracy(), 0.5);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let c = Confusion { tp: 50, fp: 50, tn: 0, fn_: 50 };
        // P = 0.5, R = 0.5 → F1 = 0.5.
        assert!((c.f1() - 0.5).abs() < 1e-12);
    }
}
