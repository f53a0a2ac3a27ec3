//! The Adam optimizer (Kingma & Ba), used by the paper's fine-tuning
//! recipe (§3.4: "used the Adam optimizer").
//!
//! First/second-moment estimates with bias correction; one parameter
//! group per adapter matrix.

use serde::{Deserialize, Serialize};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Step size.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Adam state for one flat parameter vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Fresh optimizer state for `dim` parameters.
    pub fn new(dim: usize, cfg: AdamConfig) -> Adam {
        Adam { cfg, m: vec![0.0; dim], v: vec![0.0; dim], t: 0 }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update: `params -= lr * m̂ / (√v̂ + ε)`.
    ///
    /// `grads` must have the same length as `params`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count fixed at construction");
        assert_eq!(params.len(), grads.len());
        self.t += 1;
        let b1t = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.cfg.beta1 * self.m[i] + (1.0 - self.cfg.beta1) * grads[i];
            self.v[i] = self.cfg.beta2 * self.v[i] + (1.0 - self.cfg.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
        }
    }

    /// [`Adam::step`] rewritten per Kingma & Ba §2's "efficiency"
    /// rearrangement: the bias corrections are folded into a per-step
    /// `step_size = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)` and `ε̂ = ε·√(1−β₂ᵗ)`, so the
    /// per-coordinate work drops from three divisions and a square root
    /// to one of each. Algebraically identical to `step` (it computes
    /// `lr·m̂/(√v̂+ε)` exactly when ε is rescaled), numerically within
    /// rounding — the update differs only in float evaluation order.
    pub fn step_fast(&mut self, params: &mut [f64], grads: &[f64]) {
        self.step_fast_outer(params, &[], &[], grads);
    }

    /// [`Adam::step_fast`] with the gradient in factored form: the
    /// leading `rows.len() × cols.len()` parameters (row-major) take
    /// `g = rows[r]·cols[j]`, formed inline, and the remaining ones take
    /// `tail`. A plain gradient slice is the case with no rows, so both
    /// run the one update expression and agree bit for bit with
    /// `step_fast` over the materialized gradient.
    pub fn step_fast_outer(&mut self, params: &mut [f64], rows: &[f64], cols: &[f64], tail: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count fixed at construction");
        assert_eq!(params.len(), rows.len() * cols.len() + tail.len());
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let b1t = 1.0 - b1.powi(self.t as i32);
        let b2t_sqrt = (1.0 - b2.powi(self.t as i32)).sqrt();
        let step_size = self.cfg.lr * b2t_sqrt / b1t;
        let eps_hat = self.cfg.eps * b2t_sqrt;
        // The one copy of the update expression.
        let update = |p: &mut f64, m: &mut f64, v: &mut f64, g: f64| {
            let mi = b1 * *m + (1.0 - b1) * g;
            let vi = b2 * *v + (1.0 - b2) * g * g;
            *m = mi;
            *v = vi;
            *p -= step_size * mi / (vi.sqrt() + eps_hat);
        };
        let split = rows.len() * cols.len();
        let (p, p_tail) = params.split_at_mut(split);
        let (m, m_tail) = self.m.split_at_mut(split);
        let (v, v_tail) = self.v.split_at_mut(split);
        let n = cols.len().max(1);
        for (((p, m), v), &c) in p.chunks_mut(n).zip(m.chunks_mut(n)).zip(v.chunks_mut(n)).zip(rows) {
            for (((p, m), v), &x) in p.iter_mut().zip(m).zip(v).zip(cols) {
                update(p, m, v, c * x);
            }
        }
        for (((p, m), v), &g) in p_tail.iter_mut().zip(m_tail).zip(v_tail).zip(tail) {
            update(p, m, v, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)²; Adam must converge to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut x = vec![0.0f64];
        let mut opt = Adam::new(1, AdamConfig { lr: 0.1, ..Default::default() });
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "{}", x[0]);
    }

    #[test]
    fn bias_correction_makes_first_step_lr_sized() {
        // With a unit gradient, the first Adam step is ≈ lr.
        let mut x = vec![0.0f64];
        let mut opt = Adam::new(1, AdamConfig { lr: 0.05, ..Default::default() });
        opt.step(&mut x, &[1.0]);
        assert!((x[0] + 0.05).abs() < 1e-6, "{}", x[0]);
    }

    #[test]
    fn per_coordinate_scaling() {
        // A coordinate with a 100× larger gradient still moves ≈ lr per
        // step (Adam normalizes by RMS).
        let mut x = vec![0.0f64, 0.0];
        let mut opt = Adam::new(2, AdamConfig { lr: 0.01, ..Default::default() });
        for _ in 0..10 {
            opt.step(&mut x, &[0.01, 1.0]);
        }
        assert!((x[0] - x[1]).abs() < 0.02, "{x:?}");
    }

    #[test]
    fn steps_counted() {
        let mut opt = Adam::new(3, AdamConfig::default());
        let mut p = vec![0.0; 3];
        for _ in 0..7 {
            opt.step(&mut p, &[0.1, 0.2, 0.3]);
        }
        assert_eq!(opt.steps(), 7);
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn rejects_dimension_mismatch() {
        let mut opt = Adam::new(2, AdamConfig::default());
        let mut p = vec![0.0; 3];
        opt.step(&mut p, &[0.0; 3]);
    }

    #[test]
    fn step_fast_tracks_step_to_rounding() {
        // The two formulations are the same algebra in a different
        // evaluation order; over hundreds of steps on a rough loss the
        // trajectories must agree to ~1e-9 (rounding, not drift).
        let cfg = AdamConfig { lr: 0.02, ..Default::default() };
        let (mut slow, mut fast) = (Adam::new(3, cfg), Adam::new(3, cfg));
        let mut ps = vec![0.5f64, -1.0, 2.0];
        let mut pf = ps.clone();
        for t in 0..500 {
            let g: Vec<f64> = ps
                .iter()
                .enumerate()
                .map(|(i, x)| 2.0 * (x - i as f64) + (t as f64 * 0.7).sin() * 0.1)
                .collect();
            slow.step(&mut ps, &g);
            fast.step_fast(&mut pf, &g);
        }
        assert_eq!(slow.steps(), fast.steps());
        for (a, b) in ps.iter().zip(&pf) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
