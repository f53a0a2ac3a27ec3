//! The fine-tunable model: a frozen (quantized) base head plus a
//! LoRA-style low-rank adapter.
//!
//! QLoRA (paper §3.4) freezes 4-bit-quantized base weights and learns a
//! low-rank additive delta. At our scale the "base model" is the
//! surrogate's detection head: a linear layer fitted once to mimic the
//! pre-trained model's answers, then 4-bit quantized and frozen.
//! Fine-tuning trains `ΔW = (α/r)·B·A` (rank `r`, scale `α`) with
//! dropout on the input — structurally the same recipe.

use serde::{Deserialize, Serialize};

/// Logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// 4-bit absmax quantization of a weight vector (NF4-flavoured grid).
pub fn quantize_4bit(w: &[f64]) -> Vec<f64> {
    let absmax = w.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if absmax == 0.0 {
        return w.to_vec();
    }
    w.iter()
        .map(|x| {
            let q = (x / absmax * 7.0).round().clamp(-8.0, 7.0);
            q / 7.0 * absmax
        })
        .collect()
}

/// The ascending indices of `x`'s nonzero entries (`-0.0` counts as
/// zero), the only features a training step has to touch.
pub fn nonzero_indices(x: &[f64]) -> Vec<u32> {
    (0..x.len() as u32).filter(|&j| x[j as usize] != 0.0).collect()
}

/// Reusable flat scratch for the allocation-free training loop.
///
/// One instance lives for a whole [`FineTuned::train`](crate::FineTuned)
/// call; every buffer the per-example step needs — the kept inputs, the
/// dropped input, `A·x` activations, and the `grad_A` row factors — is
/// sized once here and overwritten in place each step, so the inner loop
/// touches the allocator zero times after warmup (proved by the
/// `count-train-allocs` gated test).
#[derive(Debug, Clone)]
pub struct TrainScratch {
    /// Indices of the loaded example's nonzero inputs that dropout
    /// kept, ascending.
    pub kept: Vec<u32>,
    /// Input with dropout applied: `x` at `kept`, `0` everywhere else.
    pub xd: Vec<f64>,
    /// Adapter activations `(A·xd)`, one per rank; the step overwrites
    /// them with `grad_B`.
    pub ax: Vec<f64>,
    /// Row factors `c[r] = err·scale·B_r`, so `grad_A[r][j] = c[r]·xd[j]`.
    pub c: Vec<f64>,
}

impl TrainScratch {
    /// Scratch sized for a rank-`rank`, `dim`-wide adapter.
    pub fn new(rank: usize, dim: usize) -> TrainScratch {
        TrainScratch {
            kept: Vec::with_capacity(dim),
            xd: vec![0.0; dim],
            ax: vec![0.0; rank],
            c: vec![0.0; rank],
        }
    }

    /// Load example `x`, whose nonzero indices are `nonzeros`, with input
    /// dropout applied. Feature `j` is kept iff the generator's uniform
    /// `j` draws ahead (see [`Rng::uniform_ahead`](crate::train::Rng::uniform_ahead))
    /// is `>= dropout`, and the generator then advances
    /// by `dim` draws: the stream is one shuffle per epoch followed by
    /// `dim` draws per example, in the shuffled order, exactly as if
    /// every feature drew its mask bit in turn. Only the draws of
    /// nonzero features are evaluated (a dropped zero is still zero).
    /// Tables 4 and 6 (and the full-precision `tests/golden/cv_tables.json`
    /// and `cv_adapters.json`) pin that order.
    pub fn load(&mut self, x: &[f64], nonzeros: &[u32], dropout: f64, rng: &mut crate::train::Rng) {
        debug_assert_eq!(x.len(), self.xd.len());
        for &j in &self.kept {
            self.xd[j as usize] = 0.0;
        }
        self.kept.clear();
        for &j in nonzeros {
            if rng.uniform_ahead(u64::from(j)) >= dropout {
                self.kept.push(j);
                self.xd[j as usize] = x[j as usize];
            }
        }
        rng.skip(self.xd.len() as u64);
    }
}

/// A rank-`r` adapter over a `dim`-wide linear head.
///
/// The effective weight applied to input `x` is
/// `w_base + (alpha / r) * B A` where `A ∈ R^{r×dim}`, `B ∈ R^{1×r}`
/// (we only need a scalar output head). `A` and `B` live in one
/// contiguous buffer (`A` rows, then `B`) so a single fused
/// [`Adam`](crate::adam::Adam) can update every adapter parameter in one
/// pass; Adam's updates are per coordinate, so one optimizer over the
/// fused buffer equals one optimizer per matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoraHead {
    /// Frozen base weights (quantized).
    pub w_base: Vec<f64>,
    /// Frozen base bias.
    pub b_base: f64,
    /// Contiguous adapter parameters: down-projection `A` (`r × dim`,
    /// row-major) followed by up-projection `B` (`1 × r`).
    ab: Vec<f64>,
    /// Adapter rank.
    pub rank: usize,
    /// LoRA scale α.
    pub alpha: f64,
}

impl LoraHead {
    /// Wrap a base head; the adapter starts at zero (B = 0), so the
    /// fine-tuned model initially equals the base model.
    pub fn new(w_base: Vec<f64>, b_base: f64, rank: usize, alpha: f64, seed: u64) -> LoraHead {
        let dim = w_base.len();
        let mut rng = crate::train::Rng::new(seed);
        // A ~ small random (like LoRA's gaussian init), B = 0.
        let mut ab: Vec<f64> =
            (0..rank * dim).map(|_| (rng.uniform() - 0.5) * 0.02).collect();
        ab.resize(rank * dim + rank, 0.0);
        LoraHead { w_base: quantize_4bit(&w_base), b_base, ab, rank, alpha }
    }

    /// Dimension of the input features.
    pub fn dim(&self) -> usize {
        self.w_base.len()
    }

    /// Number of adapter parameters (`rank·dim + rank`), the length of
    /// the fused optimizer's parameter vector.
    pub fn adapter_params(&self) -> usize {
        self.ab.len()
    }

    /// Adapter down-projection `A` (`r × dim`, row-major).
    pub fn a(&self) -> &[f64] {
        &self.ab[..self.rank * self.dim()]
    }

    /// Adapter up-projection `B` (`1 × r`).
    pub fn b(&self) -> &[f64] {
        &self.ab[self.rank * self.dim()..]
    }

    /// Raw logit for an input: the forward pass over `x`'s nonzero
    /// entries (see [`LoraHead::forward`]). Equal to the dense sums
    /// `b_base + Σ w_j·x_j + Σ_r scale·B_r·(A_r·x)`, each in index order,
    /// except that a zero logit may carry the other sign, which
    /// [`sigmoid`] does not see.
    pub fn logit(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let mut ax = vec![0.0; self.rank];
        let nonzero = x.iter().enumerate().filter(|&(_, &xj)| xj != 0.0);
        self.forward(nonzero.map(|(j, &xj)| (j, xj)), &mut ax)
    }

    /// The one forward pass of training and inference: the logit of the
    /// input whose nonzero entries `(j, x_j)` arrive in ascending `j`,
    /// leaving the adapter activations `A·x` in `ax` (one per rank).
    ///
    /// The base-head logit and every row of `A·x` are their own add
    /// chains in index order, fed in one pass over the entries. Skipping
    /// exact-zero terms cannot move a nonzero sum, and a row that sums
    /// to zero is `+0` either way (it starts at `+0`, and `+0 + ±0 =
    /// +0`), so the activations are bit-identical to dense sums.
    fn forward(&self, nonzero: impl Iterator<Item = (usize, f64)>, ax: &mut [f64]) -> f64 {
        let dim = self.dim();
        let scale = self.alpha / self.rank.max(1) as f64;
        let (a, b) = self.ab.split_at(self.rank * dim);
        ax.fill(0.0);
        let mut z = self.b_base;
        for (j, xj) in nonzero {
            z += self.w_base[j] * xj;
            for (acc, &arj) in ax.iter_mut().zip(a[j..].iter().step_by(dim)) {
                *acc += arj * xj;
            }
        }
        for (&b, &ax) in b.iter().zip(ax.iter()) {
            z += scale * b * ax;
        }
        z
    }

    /// Probability of the positive class.
    pub fn prob(&self, x: &[f64]) -> f64 {
        sigmoid(self.logit(x))
    }

    /// The dense reference of [`LoraHead::forward`], written out apart
    /// from it so the differential tests check the sparse pass against
    /// independent code: the logit and the activations `A·x`, every add
    /// chain over all `dim` terms in index order.
    pub(crate) fn dense_forward(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let dim = self.dim();
        let (a, b) = self.ab.split_at(self.rank * dim);
        let scale = self.alpha / self.rank.max(1) as f64;
        let ax: Vec<f64> = (0..self.rank)
            .map(|r| a[r * dim..(r + 1) * dim].iter().zip(x).fold(0.0, |acc, (a, xi)| acc + a * xi))
            .collect();
        let mut z = self.b_base;
        for (w, xi) in self.w_base.iter().zip(x) {
            z += w * xi;
        }
        for (&b, &ax) in b.iter().zip(&ax) {
            z += scale * b * ax;
        }
        (z, ax)
    }

    /// Adapter gradients for one example (cross-entropy loss) without
    /// applying them. Returns `(grad_a, grad_b, loss)`. This is the
    /// allocating dense reference; training proper uses
    /// [`LoraHead::adam_step_scratch`], which updates the parameters
    /// exactly as these gradients fed to
    /// [`Adam::step_fast`](crate::adam::Adam::step_fast) would.
    pub fn grads(&self, x: &[f64], y: f64, dropout_mask: &[bool]) -> (Vec<f64>, Vec<f64>, f64) {
        let dim = self.dim();
        let b = self.b();
        let xd: Vec<f64> =
            x.iter().zip(dropout_mask).map(|(v, keep)| if *keep { *v } else { 0.0 }).collect();
        let (z, ax) = self.dense_forward(&xd);
        let p = sigmoid(z);
        let err = p - y; // dL/dz for cross-entropy + sigmoid
        let scale = self.alpha / self.rank.max(1) as f64;
        // dz/dB_r = scale·(A x)_r ; dz/dA_rj = scale·B_r·x_j
        let mut ga = vec![0.0; self.rank * dim];
        let mut gb = vec![0.0; self.rank];
        for r in 0..self.rank {
            gb[r] = err * scale * ax[r];
            let brow = b[r];
            for (j, xi) in xd.iter().enumerate() {
                ga[r * dim + j] = err * scale * brow * xi;
            }
        }
        let eps = 1e-12;
        let loss = -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln());
        (ga, gb, loss)
    }

    /// Plain SGD step for one example (kept for tests/ablations);
    /// training proper uses [`crate::adam::Adam`]. Returns the loss.
    pub fn sgd_step(&mut self, x: &[f64], y: f64, lr: f64, dropout_mask: &[bool]) -> f64 {
        let (ga, gb, loss) = self.grads(x, y, dropout_mask);
        let split = self.rank * self.dim();
        let (a, b) = self.ab.split_at_mut(split);
        for (a, g) in a.iter_mut().zip(&ga) {
            *a -= lr * g;
        }
        for (b, g) in b.iter_mut().zip(&gb) {
            *b -= lr * g;
        }
        loss
    }

    /// Allocation-free fused training step on the example loaded into
    /// `scratch` (see [`TrainScratch::load`]): [`LoraHead::forward`]
    /// over the kept nonzero inputs, then one
    /// [`Adam::step_fast_outer`](crate::adam::Adam::step_fast_outer) over
    /// the whole contiguous parameter buffer that forms
    /// `grad_A[r][j] = c[r]·xd[j]` inline.
    ///
    /// The parameters end bit-identical to [`LoraHead::grads`] followed by
    /// `Adam::step_fast`. The forward skips only exact-zero terms, so
    /// only the sign of a zero logit can differ (a `-0.0` input that `xd`
    /// holds as `+0`, or a zero sum), and neither `sigmoid` nor Adam sees
    /// it: the moments start at `+0`, and `+0 + ±0 = +0`. The row factors
    /// `c[r] = err·scale·B_r` come from the pre-step `B` and keep the
    /// reference's left-associated multiply order. The (unused) loss is
    /// not computed.
    pub fn adam_step_scratch(&mut self, y: f64, opt: &mut crate::adam::Adam, scratch: &mut TrainScratch) {
        debug_assert_eq!(scratch.xd.len(), self.dim());
        let scale = self.alpha / self.rank.max(1) as f64;
        let TrainScratch { kept, xd, ax, c } = scratch;
        let z = self.forward(kept.iter().map(|&j| (j as usize, xd[j as usize])), ax);

        // dL/dz for cross-entropy + sigmoid, times the LoRA scale.
        let es = (sigmoid(z) - y) * scale;
        for ((c, gb), &b) in c.iter_mut().zip(ax.iter_mut()).zip(self.b()) {
            *c = es * b;
            *gb *= es;
        }
        opt.step_fast_outer(&mut self.ab, c, xd, ax);
    }
}

/// Fit a plain logistic head by gradient descent (used to build the
/// frozen base head that mimics the surrogate's behaviour). Accepts any
/// slice-of-rows (`Vec<f64>` or borrowed `&[f64]` rows alike), so the
/// fast trainer can feed cached artifact vectors without copying them;
/// `nonzeros[i]` is row `i`'s [`nonzero_indices`]. The logit sums only
/// those features, in index order (a skipped `w·0` term cannot move a
/// nonzero sum); the weight-decay update stays dense.
pub fn fit_base_head<X: AsRef<[f64]>>(
    xs: &[X],
    nonzeros: &[Vec<u32>],
    ys: &[f64],
    epochs: usize,
    lr: f64,
    l2: f64,
) -> (Vec<f64>, f64) {
    let dim = xs.first().map(|x| x.as_ref().len()).unwrap_or(0);
    let mut w = vec![0.0f64; dim];
    let mut b = 0.0f64;
    for _ in 0..epochs {
        for ((x, nz), y) in xs.iter().zip(nonzeros).zip(ys) {
            let x = x.as_ref();
            let mut z = b;
            for &j in nz {
                z += w[j as usize] * x[j as usize];
            }
            let err = sigmoid(z) - y;
            for (wi, xi) in w.iter_mut().zip(x) {
                *wi -= lr * (err * xi + l2 * *wi);
            }
            b -= lr * err;
        }
    }
    (w, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_bounds() {
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(100.0) > 1.0 - 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantization_preserves_scale() {
        let w = vec![0.5, -1.0, 0.25, 0.0];
        let q = quantize_4bit(&w);
        assert_eq!(q.len(), 4);
        assert!((q[1] + 1.0).abs() < 1e-9); // absmax element is exact
        for (a, b) in w.iter().zip(&q) {
            assert!((a - b).abs() <= 1.0 / 7.0 + 1e-9);
        }
    }

    #[test]
    fn adapter_starts_as_identity() {
        let head = LoraHead::new(vec![1.0, -2.0], 0.5, 4, 16.0, 7);
        let x = vec![0.3, 0.1];
        let base_z = 0.5 + head.w_base[0] * 0.3 + head.w_base[1] * 0.1;
        assert!((head.logit(&x) - base_z).abs() < 1e-9);
    }

    #[test]
    fn training_separates_separable_data() {
        // y = 1 iff x0 > 0.
        let xs: Vec<Vec<f64>> =
            (0..100).map(|i| vec![if i % 2 == 0 { 1.0 } else { -1.0 }, 0.5]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let mut head = LoraHead::new(vec![0.0, 0.0], 0.0, 4, 16.0, 3);
        let keep = vec![true; 2];
        for _ in 0..200 {
            for (x, y) in xs.iter().zip(&ys) {
                head.sgd_step(x, *y, 0.5, &keep);
            }
        }
        assert!(head.prob(&[1.0, 0.5]) > 0.9);
        assert!(head.prob(&[-1.0, 0.5]) < 0.1);
    }

    #[test]
    fn base_head_fits_linear_rule() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 2) as f64]).collect();
        let nz: Vec<Vec<u32>> = xs.iter().map(|x| nonzero_indices(x)).collect();
        let ys: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let (w, b) = fit_base_head(&xs, &nz, &ys, 300, 0.5, 0.0);
        assert!(sigmoid(w[0] + b) > 0.85);
        assert!(sigmoid(b) < 0.15);
    }

    #[test]
    fn base_head_accepts_borrowed_rows() {
        // The fast trainer hands over cached `&[f64]` artifact rows; the
        // generic must produce the exact same fit as owned rows.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 2) as f64, 0.25]).collect();
        let nz: Vec<Vec<u32>> = xs.iter().map(|x| nonzero_indices(x)).collect();
        let ys: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
        let borrowed: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        assert_eq!(
            fit_base_head(&xs, &nz, &ys, 50, 0.3, 1e-3),
            fit_base_head(&borrowed, &nz, &ys, 50, 0.3, 1e-3)
        );
    }

    /// A test input with exact zeros of both signs, and every seventh
    /// example all zero.
    fn sparse_example(step: usize, dim: usize) -> Vec<f64> {
        if step % 7 == 3 {
            return vec![0.0; dim];
        }
        (0..dim)
            .map(|i| match (step + i) % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (((step * dim + i) as f64) * 0.37).sin(),
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn nonzero_indices_skip_both_zeros() {
        assert_eq!(nonzero_indices(&[0.0, 1.5, -0.0, -2.0, 0.0]), vec![1, 3]);
        assert!(nonzero_indices(&[0.0; 4]).is_empty());
    }

    #[test]
    fn base_fit_over_nonzeros_matches_the_dense_fit() {
        // Dense reference: every logit sums over all features.
        fn dense_fit(xs: &[Vec<f64>], ys: &[f64], epochs: usize, lr: f64, l2: f64) -> (Vec<f64>, f64) {
            let mut w = vec![0.0f64; xs[0].len()];
            let mut b = 0.0f64;
            for _ in 0..epochs {
                for (x, y) in xs.iter().zip(ys) {
                    let mut z = b;
                    for (wi, xi) in w.iter().zip(x) {
                        z += wi * xi;
                    }
                    let err = sigmoid(z) - y;
                    for (wi, xi) in w.iter_mut().zip(x) {
                        *wi -= lr * (err * xi + l2 * *wi);
                    }
                    b -= lr * err;
                }
            }
            (w, b)
        }
        let xs: Vec<Vec<f64>> = (0..40).map(|i| sparse_example(i, 11)).collect();
        let nz: Vec<Vec<u32>> = xs.iter().map(|x| nonzero_indices(x)).collect();
        let ys: Vec<f64> = (0..40).map(|i| f64::from(i % 3 == 0)).collect();
        let (w, b) = fit_base_head(&xs, &nz, &ys, 12, 0.1, 1e-3);
        let (dw, db) = dense_fit(&xs, &ys, 12, 0.1, 1e-3);
        assert_eq!(bits(&w), bits(&dw));
        assert_eq!(b.to_bits(), db.to_bits());
    }

    #[test]
    fn fused_step_gradients_match_reference_bitwise() {
        // After every step, the sparse fused step's parameters equal bit
        // for bit the dense reference: a mask drawn densely from a clone
        // of the step's RNG, `grads`, then `Adam::step_fast`. Inputs carry
        // exact zeros, `-0.0` and all-zero examples.
        let dim = 13;
        for rank in [1, 3, 4, 8, 12] {
            for dropout in [0.0, 0.3, 1.0] {
                let mut rng = crate::train::Rng::new(11);
                let w: Vec<f64> = (0..dim).map(|_| rng.uniform() - 0.5).collect();
                let mut head = LoraHead::new(w, 0.2, rank, 16.0, 5);
                let mut ref_head = head.clone();
                let cfg = crate::adam::AdamConfig { lr: 0.01, ..Default::default() };
                let mut opt = crate::adam::Adam::new(head.adapter_params(), cfg);
                let mut ref_opt = opt.clone();
                let mut scratch = TrainScratch::new(rank, dim);
                let mut rng = crate::train::Rng::new(99);
                for step in 0..60 {
                    let x = sparse_example(step, dim);
                    let y = f64::from(step % 2 == 0);
                    let mut ref_rng = rng.clone();
                    let mask: Vec<bool> = (0..dim).map(|_| ref_rng.uniform() >= dropout).collect();
                    let (ga, gb, _) = ref_head.grads(&x, y, &mask);
                    ref_opt.step_fast(&mut ref_head.ab, &[ga, gb].concat());

                    scratch.load(&x, &nonzero_indices(&x), dropout, &mut rng);
                    head.adam_step_scratch(y, &mut opt, &mut scratch);
                    let at = format!("rank {rank}, dropout {dropout}, step {step}");
                    assert_eq!(bits(&head.ab), bits(&ref_head.ab), "{at}");
                    // Inference runs the same sparse forward: equal to the
                    // dense logit, up to the sign of a zero (`==`).
                    assert!(head.logit(&x) == head.dense_forward(&x).0, "{at}: logit");
                    assert_eq!(rng.clone().next_u64(), ref_rng.next_u64(), "{at}: RNG advanced differently");
                }
            }
        }
    }

    #[test]
    fn fused_training_tracks_two_optimizer_reference() {
        // Same inputs, same dropout masks: the fused single-Adam
        // `step_fast` path and a two-optimizer step built here from
        // `grads` plus one textbook `Adam::step` per matrix differ only
        // in Adam's float evaluation order, so parameters must agree to
        // rounding over a full training run.
        let mut rng = crate::train::Rng::new(21);
        let dim = 17;
        let rank = 3;
        let w: Vec<f64> = (0..dim).map(|_| rng.uniform() - 0.5).collect();
        let mut ref_head = LoraHead::new(w, -0.1, rank, 16.0, 5);
        let mut fast_head = ref_head.clone();
        let cfg = crate::adam::AdamConfig { lr: 0.02, ..Default::default() };
        let mut opt_a = crate::adam::Adam::new(rank * dim, cfg);
        let mut opt_b = crate::adam::Adam::new(rank, cfg);
        let mut opt = crate::adam::Adam::new(fast_head.adapter_params(), cfg);
        let mut scratch = TrainScratch::new(rank, dim);
        let mut mask_rng = crate::train::Rng::new(7);
        for step in 0..300 {
            let x: Vec<f64> =
                (0..dim).map(|i| (((step * dim + i) as f64) * 0.61).cos()).collect();
            let y = f64::from(step % 3 == 0);
            let mut ref_rng = mask_rng.clone();
            let mask: Vec<bool> = (0..dim).map(|_| ref_rng.uniform() >= 0.1).collect();
            let (ga, gb, _) = ref_head.grads(&x, y, &mask);
            let (a, b) = ref_head.ab.split_at_mut(rank * dim);
            opt_a.step(a, &ga);
            opt_b.step(b, &gb);
            scratch.load(&x, &nonzero_indices(&x), 0.1, &mut mask_rng);
            fast_head.adam_step_scratch(y, &mut opt, &mut scratch);
        }
        for (p, q) in ref_head.a().iter().zip(fast_head.a()) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
        for (p, q) in ref_head.b().iter().zip(fast_head.b()) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
    }
}
