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

/// Reusable flat scratch for the allocation-free training loop.
///
/// One instance lives for a whole [`FineTuned::train`](crate::FineTuned)
/// call; every buffer the per-example step needs — dropout mask, dropped
/// input, `A·x` activations, and the fused adapter gradient — is sized
/// once here and overwritten in place each step, so the inner loop
/// touches the allocator zero times after warmup (proved by the
/// `count-train-allocs` gated test).
#[derive(Debug, Clone)]
pub struct TrainScratch {
    /// Per-input dropout keep mask.
    pub mask: Vec<bool>,
    /// Input with dropout applied (`x` where kept, `0` where dropped).
    pub xd: Vec<f64>,
    /// Adapter activations `(A·xd)`, one per rank.
    pub ax: Vec<f64>,
    /// Fused gradient buffer: `grad_A` (`rank × dim`) then `grad_B`
    /// (`rank`) — same layout as [`LoraHead`]'s parameter buffer.
    pub grads: Vec<f64>,
}

impl TrainScratch {
    /// Scratch sized for a rank-`rank`, `dim`-wide adapter.
    pub fn new(rank: usize, dim: usize) -> TrainScratch {
        TrainScratch {
            mask: vec![true; dim],
            xd: vec![0.0; dim],
            ax: vec![0.0; rank],
            grads: vec![0.0; rank * dim + rank],
        }
    }

    /// Refill the dropout mask in place, drawing exactly `mask.len()`
    /// uniforms, one per input feature in feature order. The trainer's
    /// RNG stream is therefore one shuffle per epoch followed by `dim`
    /// draws per example, in the shuffled order; Tables 4 and 6 (and
    /// the full-precision `tests/golden/cv_tables.json`) pin that order,
    /// so any change to it shows up as a golden diff.
    pub fn fill_mask(&mut self, rng: &mut crate::train::Rng, dropout: f64) {
        for m in &mut self.mask {
            *m = rng.uniform() >= dropout;
        }
    }
}

/// Adapter rows whose `A·x` dot products [`LoraHead::adam_step_scratch`]
/// accumulates side by side.
const AX_BLOCK: usize = 4;

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

    /// Raw logit for an input.
    pub fn logit(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let mut z = self.b_base;
        for (w, xi) in self.w_base.iter().zip(x) {
            z += w * xi;
        }
        // Adapter path: B (A x) * alpha / r.
        let scale = self.alpha / self.rank.max(1) as f64;
        let (a, b) = self.ab.split_at(self.rank * self.dim());
        for r in 0..self.rank {
            let mut ax = 0.0;
            let row = &a[r * self.dim()..(r + 1) * self.dim()];
            for (a, xi) in row.iter().zip(x) {
                ax += a * xi;
            }
            z += scale * b[r] * ax;
        }
        z
    }

    /// Probability of the positive class.
    pub fn prob(&self, x: &[f64]) -> f64 {
        sigmoid(self.logit(x))
    }

    /// Adapter gradients for one example (cross-entropy loss) without
    /// applying them. Returns `(grad_a, grad_b, loss)`. This is the
    /// allocating reference path; training proper uses
    /// [`LoraHead::adam_step_scratch`], which produces bit-identical
    /// gradients without the intermediate `Vec`s.
    pub fn grads(&self, x: &[f64], y: f64, dropout_mask: &[bool]) -> (Vec<f64>, Vec<f64>, f64) {
        let dim = self.dim();
        let (a, b) = self.ab.split_at(self.rank * dim);
        let xd: Vec<f64> =
            x.iter().zip(dropout_mask).map(|(v, keep)| if *keep { *v } else { 0.0 }).collect();
        let p = self.prob(&xd);
        let err = p - y; // dL/dz for cross-entropy + sigmoid
        let scale = self.alpha / self.rank.max(1) as f64;
        let ax: Vec<f64> = (0..self.rank)
            .map(|r| {
                let row = &a[r * dim..(r + 1) * dim];
                row.iter().zip(&xd).map(|(a, xi)| a * xi).sum()
            })
            .collect();
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

    /// Allocation-free fused training step: dropout + forward + backward
    /// into `scratch`, then one [`Adam::step_fast`](crate::adam::Adam)
    /// over the whole contiguous parameter buffer. `scratch.mask` must
    /// already hold this step's dropout draw (see
    /// [`TrainScratch::fill_mask`]).
    ///
    /// Gradients are bit-identical to [`LoraHead::grads`]: the dropped
    /// input and the base-head dot product are fused into one pass that
    /// preserves the reference accumulation order, each row of `A·x` sums
    /// left to right as the reference does (rows interleaved in blocks),
    /// and the hoisted `err·scale·B_r` factor keeps the reference's
    /// left-associated multiply order. The (unused) loss
    /// is not computed.
    pub fn adam_step_scratch(
        &mut self,
        x: &[f64],
        y: f64,
        opt: &mut crate::adam::Adam,
        scratch: &mut TrainScratch,
    ) {
        let dim = self.dim();
        debug_assert_eq!(x.len(), dim);
        debug_assert_eq!(scratch.mask.len(), dim);
        debug_assert_eq!(scratch.grads.len(), self.ab.len());
        let scale = self.alpha / self.rank.max(1) as f64;
        let (a, b) = self.ab.split_at(self.rank * dim);

        // Fused dropout + base-head forward (same accumulation order as
        // `logit` over the dropped input).
        let mut z = self.b_base;
        for (((&xi, &keep), xd), &w) in x
            .iter()
            .zip(&scratch.mask)
            .zip(scratch.xd.iter_mut())
            .zip(&self.w_base)
        {
            let xi = if keep { xi } else { 0.0 };
            *xd = xi;
            z += w * xi;
        }
        // Adapter forward, activations kept for the backward pass. Rows
        // go in blocks of `AX_BLOCK` accumulators over one pass of the
        // input, so their independent add chains overlap; each row still
        // sums j = 0..dim in order, so every activation is bit-identical
        // to a row-at-a-time dot product.
        let xd = &scratch.xd[..dim];
        let mut r = 0;
        while r + AX_BLOCK <= self.rank {
            let rows: [&[f64]; AX_BLOCK] =
                std::array::from_fn(|i| &a[(r + i) * dim..(r + i + 1) * dim]);
            let mut acc = [0.0f64; AX_BLOCK];
            for (j, &xi) in xd.iter().enumerate() {
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    *acc += row[j] * xi;
                }
            }
            scratch.ax[r..r + AX_BLOCK].copy_from_slice(&acc);
            r += AX_BLOCK;
        }
        for r in r..self.rank {
            let mut ax = 0.0;
            for (a, xi) in a[r * dim..(r + 1) * dim].iter().zip(xd) {
                ax += a * xi;
            }
            scratch.ax[r] = ax;
        }
        for (&b, &ax) in b.iter().zip(&scratch.ax) {
            z += scale * b * ax;
        }

        let err = sigmoid(z) - y; // dL/dz for cross-entropy + sigmoid
        let (ga, gb) = scratch.grads.split_at_mut(self.rank * dim);
        for r in 0..self.rank {
            gb[r] = err * scale * scratch.ax[r];
            let c = err * scale * b[r];
            for (g, xi) in ga[r * dim..(r + 1) * dim].iter_mut().zip(&scratch.xd) {
                *g = c * xi;
            }
        }
        opt.step_fast(&mut self.ab, &scratch.grads);
    }
}

/// Fit a plain logistic head by gradient descent (used to build the
/// frozen base head that mimics the surrogate's behaviour). Accepts any
/// slice-of-rows (`Vec<f64>` or borrowed `&[f64]` rows alike), so the
/// fast trainer can feed cached artifact vectors without copying them.
pub fn fit_base_head<X: AsRef<[f64]>>(
    xs: &[X],
    ys: &[f64],
    epochs: usize,
    lr: f64,
    l2: f64,
) -> (Vec<f64>, f64) {
    let dim = xs.first().map(|x| x.as_ref().len()).unwrap_or(0);
    let mut w = vec![0.0f64; dim];
    let mut b = 0.0f64;
    for _ in 0..epochs {
        for (x, y) in xs.iter().zip(ys) {
            let x = x.as_ref();
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
        let ys: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let (w, b) = fit_base_head(&xs, &ys, 300, 0.5, 0.0);
        assert!(sigmoid(w[0] + b) > 0.85);
        assert!(sigmoid(b) < 0.15);
    }

    #[test]
    fn base_head_accepts_borrowed_rows() {
        // The fast trainer hands over cached `&[f64]` artifact rows; the
        // generic must produce the exact same fit as owned rows.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 2) as f64, 0.25]).collect();
        let ys: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
        let borrowed: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        assert_eq!(fit_base_head(&xs, &ys, 50, 0.3, 1e-3), fit_base_head(&borrowed, &ys, 50, 0.3, 1e-3));
    }

    #[test]
    fn fused_step_gradients_match_reference_bitwise() {
        // Ranks below, at, between and at twice the `A·x` block width,
        // so both the blocked rows and the leftover rows are covered.
        for rank in [1, AX_BLOCK, AX_BLOCK + 2, 2 * AX_BLOCK] {
            let mut rng = crate::train::Rng::new(11);
            let dim = 13;
            let w: Vec<f64> = (0..dim).map(|_| rng.uniform() - 0.5).collect();
            let mut head = LoraHead::new(w, 0.2, rank, 16.0, 5);
            let cfg = crate::adam::AdamConfig { lr: 0.01, ..Default::default() };
            let mut opt = crate::adam::Adam::new(head.adapter_params(), cfg);
            let mut scratch = TrainScratch::new(rank, dim);
            let mut mask_rng = crate::train::Rng::new(99);
            for step in 0..50 {
                let x: Vec<f64> =
                    (0..dim).map(|i| (((step * dim + i) as f64) * 0.37).sin()).collect();
                let y = f64::from(step % 2 == 0);
                scratch.fill_mask(&mut mask_rng, 0.3);
                let (ga, gb, _) = head.grads(&x, y, &scratch.mask);
                head.adam_step_scratch(&x, y, &mut opt, &mut scratch);
                let (sa, sb) = scratch.grads.split_at(rank * dim);
                assert_eq!(sa, &ga[..], "rank {rank}: grad_A diverged at step {step}");
                assert_eq!(sb, &gb[..], "rank {rank}: grad_B diverged at step {step}");
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
            scratch.fill_mask(&mut mask_rng, 0.1);
            let (ga, gb, _) = ref_head.grads(&x, y, &scratch.mask);
            let (a, b) = ref_head.ab.split_at_mut(rank * dim);
            opt_a.step(a, &ga);
            opt_b.step(b, &gb);
            fast_head.adam_step_scratch(&x, y, &mut opt, &mut scratch);
        }
        for (p, q) in ref_head.a().iter().zip(fast_head.a()) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
        for (p, q) in ref_head.b().iter().zip(fast_head.b()) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
    }
}
