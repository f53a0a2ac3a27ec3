//! Training loop, configuration, and deterministic RNG.

use crate::model::{fit_base_head, nonzero_indices, LoraHead, TrainScratch};
use llm::{KernelView, PromptStrategy, Surrogate};
use serde::{Deserialize, Serialize};

// The SplitMix64 generator used for shuffles/dropout; once a private
// duplicate here, now the single shared implementation in `par`
// (identical stream — seeded runs reproduce historical results).
pub use par::rng::Rng;

/// Fine-tuning hyperparameters (paper §3.4: lr 2e-4 for Llama2,
/// 9.65e-6 for StarChat, LoRA dim 64, dropout 0.1, batch 4 — our
/// feature-space trainer rescales the learning rates but keeps the
/// structure: frozen quantized base + low-rank adapter + dropout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adapter learning rate.
    pub lr: f64,
    /// Training epochs over the fold's training split.
    pub epochs: usize,
    /// LoRA rank.
    pub rank: usize,
    /// LoRA α scale.
    pub alpha: f64,
    /// Input dropout probability.
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
    /// How strongly the fine-tuned head is trusted over the base model
    /// at inference (0 = pure base, 1 = pure adapter head). Small
    /// values model the reality that 158 examples barely move a
    /// billion-parameter model.
    pub trust: f64,
}

impl TrainConfig {
    /// Defaults for a model kind (mirrors the paper's per-model lrs).
    pub fn for_model(kind: llm::ModelKind) -> TrainConfig {
        match kind {
            llm::ModelKind::Llama2_7b => TrainConfig {
                lr: 0.008,
                epochs: 10,
                rank: 8,
                alpha: 16.0,
                dropout: 0.1,
                seed: 2024,
                trust: 0.12,
            },
            _ => TrainConfig {
                lr: 0.004,
                epochs: 5,
                rank: 8,
                alpha: 16.0,
                dropout: 0.1,
                seed: 4242,
                trust: 0.18,
            },
        }
    }
}

/// A fine-tuned detector: frozen base head mimicking the surrogate plus
/// a trained adapter, blended by `trust`.
#[derive(Debug, Clone)]
pub struct FineTuned {
    head: LoraHead,
    trust: f64,
    base: Vec<(u32, bool)>, // (kernel id, base prediction)
}

impl FineTuned {
    /// Train on `train` (prompt–response pairs come from the dataset
    /// layer; here we consume the views + labels directly, which is the
    /// same information Listing 8 encodes).
    pub fn train(
        surrogate: &Surrogate,
        train: &[KernelView],
        cfg: &TrainConfig,
    ) -> FineTuned {
        let refs: Vec<&KernelView> = train.iter().collect();
        FineTuned::train_core(surrogate, &refs, cfg)
    }

    /// Train on a subset of `views` selected by `indices` (the CV
    /// runners' per-fold training split) without materializing a cloned
    /// `Vec<KernelView>` per fold.
    pub fn train_on(
        surrogate: &Surrogate,
        views: &[KernelView],
        indices: &[usize],
        cfg: &TrainConfig,
    ) -> FineTuned {
        let refs: Vec<&KernelView> = indices.iter().map(|&i| &views[i]).collect();
        FineTuned::train_core(surrogate, &refs, cfg)
    }

    /// The training loop. It (1) borrows feature vectors straight from
    /// the shared analysis artifacts instead of copying each row, (2)
    /// asks the surrogate once per kernel through the
    /// [`Surrogate::predict_memo`] cache, (3) lists each example's
    /// nonzero features once, so the base fit's logits, the dropout
    /// draws and the adapter forward pass touch only those, (4) reuses
    /// one flat [`TrainScratch`] for every step, and (5) drives a single
    /// fused Adam over the contiguous adapter buffer via
    /// `step_fast_outer`, which forms the adapter gradient inline. The
    /// RNG stream is consumed in a fixed order (see
    /// [`TrainScratch::load`]), so seeded runs are reproducible and the
    /// Table 4/6 goldens pin the result.
    fn train_core(surrogate: &Surrogate, train: &[&KernelView], cfg: &TrainConfig) -> FineTuned {
        // 1. Build the frozen base head: fit to the surrogate's own
        //    answers (not the ground truth) — this is the "pre-trained
        //    model" the adapter perturbs.
        let xs: Vec<&[f64]> = train.iter().map(|k| crate::ngram::feature_vector_of(k)).collect();
        let nonzeros: Vec<Vec<u32>> = xs.iter().map(|x| nonzero_indices(x)).collect();
        let mut base: Vec<(u32, bool)> =
            train.iter().map(|k| (k.id, surrogate.predict_memo(k, PromptStrategy::P1))).collect();
        let base_ys: Vec<f64> = base.iter().map(|&(_, p)| f64::from(p)).collect();
        // An empty training split degrades to the zero head at the full
        // feature width (an uninformed 0.5 prior) instead of a 0-dim
        // head that would fail the dimension check at inference time.
        let (w0, b0) = if xs.is_empty() {
            (vec![0.0; crate::ngram::FEATURE_DIM], 0.0)
        } else {
            fit_base_head(&xs, &nonzeros, &base_ys, 12, 0.1, 1e-3)
        };

        // 2. LoRA fine-tuning on the ground-truth labels (Adam, as in
        //    the paper's §3.4).
        let mut head = LoraHead::new(w0, b0, cfg.rank, cfg.alpha, cfg.seed);
        let mut rng = Rng::new(cfg.seed ^ 0xF17E);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let adam_cfg = crate::adam::AdamConfig { lr: cfg.lr, ..Default::default() };
        let mut opt = crate::adam::Adam::new(head.adapter_params(), adam_cfg);
        let mut scratch = TrainScratch::new(cfg.rank, head.dim());
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                scratch.load(xs[i], &nonzeros[i], cfg.dropout, &mut rng);
                head.adam_step_scratch(f64::from(train[i].race), &mut opt, &mut scratch);
            }
        }

        // Sorted by id so `prob` can binary-search training-set answers.
        base.sort_unstable_by_key(|&(id, _)| id);
        FineTuned { head, trust: cfg.trust, base }
    }

    /// Fine-tuned probability that a kernel is racy, blending the base
    /// model's (calibrated) answer with the adapter head.
    ///
    /// Training-set kernels read the base prediction recorded at
    /// training time (`base` is sorted by id); unseen kernels fall back
    /// to the memoized surrogate path. Either way the surrogate is not
    /// re-run for a kernel it has already answered.
    pub fn prob(&self, surrogate: &Surrogate, k: &KernelView) -> f64 {
        let adapter = self.head.prob(crate::ngram::feature_vector_of(k));
        let base_pred = match self.base.binary_search_by_key(&k.id, |&(id, _)| id) {
            Ok(i) => self.base[i].1,
            Err(_) => surrogate.predict_memo(k, PromptStrategy::P1),
        };
        let base = if base_pred { 0.58 } else { 0.42 };
        (1.0 - self.trust) * base + self.trust * adapter
    }

    /// Fine-tuned yes/no prediction.
    pub fn predict(&self, surrogate: &Surrogate, k: &KernelView) -> bool {
        self.prob(surrogate, k) > 0.5
    }

    /// Number of training examples seen.
    pub fn train_size(&self) -> usize {
        self.base.len()
    }

    /// The trained head: frozen base plus adapter.
    pub fn head(&self) -> &LoraHead {
        &self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::ModelKind;

    fn views(n: u32) -> Vec<KernelView> {
        (1..=n)
            .map(|id| {
                let racy = id % 2 == 0;
                let code = if racy {
                    format!(
                        "int a[100];\nint main(void)\n{{\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 99 - {}; i++)\n    a[i] = a[i + 1];\n  return 0;\n}}\n",
                        id % 5
                    )
                } else {
                    format!(
                        "int a[100];\nint main(void)\n{{\n  int i;\n  #pragma omp parallel for\n  for (i = {}; i < 100; i++)\n    a[i] = a[i] * 2;\n  return 0;\n}}\n",
                        id % 5
                    )
                };
                KernelView::new(id, code, racy, vec![], (id % 9) as f64 / 9.0)
            })
            .collect()
    }

    #[test]
    fn training_is_deterministic() {
        let ks = views(40);
        let s = Surrogate::new(ModelKind::StarChatBeta, &ks);
        let cfg = TrainConfig::for_model(ModelKind::StarChatBeta);
        let ft1 = FineTuned::train(&s, &ks, &cfg);
        let ft2 = FineTuned::train(&s, &ks, &cfg);
        for k in &ks {
            assert!((ft1.prob(&s, k) - ft2.prob(&s, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn finetuning_beats_base_on_separable_data() {
        let ks = views(60);
        let s = Surrogate::new(ModelKind::StarChatBeta, &ks);
        let mut cfg = TrainConfig::for_model(ModelKind::StarChatBeta);
        cfg.trust = 1.0; // pure adapter for this sanity check
        cfg.epochs = 30;
        let ft = FineTuned::train(&s, &ks, &cfg);
        let correct = ks.iter().filter(|k| ft.predict(&s, k) == k.race).count();
        let base_correct = ks
            .iter()
            .filter(|k| s.predict(k, PromptStrategy::P1) == k.race)
            .count();
        assert!(correct > base_correct, "{correct} vs {base_correct}");
    }

    #[test]
    fn train_on_indices_equals_training_on_cloned_subset() {
        let ks = views(30);
        let s = Surrogate::new(ModelKind::Llama2_7b, &ks);
        let cfg = TrainConfig::for_model(ModelKind::Llama2_7b);
        let idx: Vec<usize> = (0..30).filter(|i| i % 3 != 0).collect();
        let subset: Vec<KernelView> = idx.iter().map(|&i| ks[i].clone()).collect();
        let a = FineTuned::train_on(&s, &ks, &idx, &cfg);
        let b = FineTuned::train(&s, &subset, &cfg);
        for k in &ks {
            assert_eq!(a.prob(&s, k), b.prob(&s, k), "{}", k.id);
        }
    }

    #[test]
    fn prob_uses_recorded_base_and_falls_back_for_unseen() {
        let ks = views(20);
        let s = Surrogate::new(ModelKind::StarChatBeta, &ks);
        let cfg = TrainConfig::for_model(ModelKind::StarChatBeta);
        let ft = FineTuned::train(&s, &ks[..10], &cfg);
        // Training-set kernels answer from the sorted base table…
        for k in &ks[..10] {
            let i = ft.base.binary_search_by_key(&k.id, |&(id, _)| id).expect("recorded");
            assert_eq!(ft.base[i].1, s.predict(k, PromptStrategy::P1));
        }
        // …and unseen kernels blend the (memoized) live prediction.
        for k in &ks[10..] {
            assert!(ft.base.binary_search_by_key(&k.id, |&(id, _)| id).is_err());
            let adapter = ft.head.prob(crate::ngram::feature_vector_of(k));
            let base = if s.predict(k, PromptStrategy::P1) { 0.58 } else { 0.42 };
            let want = (1.0 - ft.trust) * base + ft.trust * adapter;
            assert_eq!(ft.prob(&s, k), want);
        }
    }

    #[test]
    fn sparse_inference_matches_the_dense_sum_on_every_cv_head() {
        // The CV setup of Tables 4 and 6: the DRB-ML subset, both
        // fine-tuned models, five folds at the tables' fold seed.
        let vs = drb_ml::Dataset::generate().subset_views();
        let folds = crate::folds_for(&vs, 5, 20230915);
        let mut heads = 0;
        for m in [ModelKind::StarChatBeta, ModelKind::Llama2_7b] {
            let s = Surrogate::new(m, &vs);
            for fold in &folds {
                let ft = FineTuned::train_on(&s, &vs, &fold.train, &TrainConfig::for_model(m));
                for k in &vs {
                    let x = crate::ngram::feature_vector_of(k);
                    let (sparse, dense) = (ft.head().logit(x), ft.head().dense_forward(x).0);
                    assert_eq!(sparse.to_bits(), dense.to_bits(), "{m:?} kernel {}", k.id);
                }
                heads += 1;
            }
        }
        assert_eq!(heads, 10);
    }

    #[test]
    fn low_trust_stays_near_base() {
        let ks = views(30);
        let s = Surrogate::new(ModelKind::Llama2_7b, &ks);
        let mut cfg = TrainConfig::for_model(ModelKind::Llama2_7b);
        cfg.trust = 0.0;
        let ft = FineTuned::train(&s, &ks, &cfg);
        for k in &ks {
            assert_eq!(ft.predict(&s, k), s.predict(k, PromptStrategy::P1));
        }
    }
}
