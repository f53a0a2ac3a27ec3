//! The pairwise agreement matrix the differential sweep reports.

/// A pairwise agreement matrix between several binary classifiers over
/// a shared item set ([`run`](crate::run) records one verdict vector
/// per kernel: expected label + one verdict per detector).
///
/// `Eq` is derived so deterministic sweeps can be compared whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agreement {
    labels: Vec<String>,
    /// Flattened row-major n×n table; `agree[i*n+j]` counts items where
    /// classifier `i` and classifier `j` gave the same verdict.
    agree: Vec<u32>,
    total: u32,
}

impl Agreement {
    /// An empty matrix over the given classifier labels.
    pub fn new<S: AsRef<str>>(labels: &[S]) -> Agreement {
        let n = labels.len();
        Agreement {
            labels: labels.iter().map(|s| s.as_ref().to_string()).collect(),
            agree: vec![0; n * n],
            total: 0,
        }
    }

    /// Classifier labels, in matrix order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of recorded verdict vectors.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Record one verdict vector (one verdict per classifier, in label
    /// order). Panics if the length does not match the label count.
    pub fn record(&mut self, verdicts: &[bool]) {
        let n = self.labels.len();
        assert_eq!(verdicts.len(), n, "verdict vector must match label count");
        for i in 0..n {
            for j in 0..n {
                if verdicts[i] == verdicts[j] {
                    self.agree[i * n + j] += 1;
                }
            }
        }
        self.total += 1;
    }

    /// How many items classifiers `i` and `j` agreed on.
    pub fn count(&self, i: usize, j: usize) -> u32 {
        self.agree[i * self.labels.len() + j]
    }

    /// Agreement rate between classifiers `i` and `j` in [0, 1]
    /// (0 when nothing was recorded).
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.count(i, j)) / f64::from(self.total)
        }
    }

    /// Render as a markdown table of `agree/total (rate)` cells.
    pub fn render(&self) -> String {
        let n = self.labels.len();
        let mut out = String::new();
        out.push_str("| agreement |");
        for l in &self.labels {
            out.push_str(&format!(" {l} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in 0..n {
            out.push_str("---|");
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!("| {} |", self.labels[i]));
            for j in 0..n {
                out.push_str(&format!(" {}/{} ({:.3}) |", self.count(i, j), self.total, self.rate(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_counts_pairwise() {
        let mut a = Agreement::new(&["expected", "static", "dynamic"]);
        a.record(&[true, true, false]);
        a.record(&[false, false, false]);
        a.record(&[true, false, true]);
        assert_eq!(a.total(), 3);
        // Diagonal is always total.
        for i in 0..3 {
            assert_eq!(a.count(i, i), 3);
        }
        assert_eq!(a.count(0, 1), 2);
        assert_eq!(a.count(0, 2), 2);
        assert_eq!(a.count(1, 2), 1);
        // Symmetric.
        assert_eq!(a.count(1, 0), a.count(0, 1));
        assert!((a.rate(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        let r = a.render();
        assert!(r.contains("| expected |"), "{r}");
    }

    #[test]
    fn empty_agreement_is_safe() {
        let a = Agreement::new(&["x", "y"]);
        assert_eq!(a.total(), 0);
        assert_eq!(a.rate(0, 1), 0.0);
        assert!(a.render().contains("0/0"));
    }
}
