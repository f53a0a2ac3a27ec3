//! `finetune` — from-scratch fine-tuning of the surrogate LLMs.
//!
//! Reproduces the paper's §3.4 QLoRA recipe at feature scale: a frozen,
//! 4-bit-quantized base head fitted to mimic the pre-trained model's
//! answers, plus a trained low-rank (LoRA) adapter with input dropout,
//! optimized by Adam on cross-entropy over the DRB-ML prompt–response
//! pairs, evaluated under the paper's stratified 5-fold CV (§3.5).
//!
//! Only the open-weight models (StarChat-β, Llama2-7b) are fine-tunable
//! (§4.3: "the GPT models do not support fine-tuning").

#![warn(missing_docs)]

pub mod adam;
pub mod cv;
pub mod model;
pub mod ngram;
pub mod train;

pub use adam::{Adam, AdamConfig};
pub use cv::{folds_for, mean, std_dev, stratified_folds, Fold};
pub use cv::stratified_folds_by;
pub use model::{fit_base_head, nonzero_indices, quantize_4bit, sigmoid, LoraHead, TrainScratch};
pub use ngram::{feature_vector, feature_vector_of, ngram_vector, FEATURE_DIM, NGRAM_DIM};
pub use train::{FineTuned, Rng, TrainConfig};

use llm::{KernelView, ModelKind, Surrogate, VarIdOutcome};

/// Fine-tuned variable identification: training mostly teaches output
/// formats and yes/no discipline, so the fine-tuned model keeps the base
/// pair-finding ability (recall unchanged — paper Table 6) but gates
/// hallucinated pairs when the trained detector is confident there is no
/// race (precision up slightly).
pub fn varid_outcome_finetuned(
    ft: &FineTuned,
    surrogate: &Surrogate,
    k: &KernelView,
) -> VarIdOutcome {
    let base = surrogate.varid_outcome(k);
    if base == VarIdOutcome::WrongPairs && ft.prob(surrogate, k) < 0.40 {
        VarIdOutcome::NoPairs
    } else {
        base
    }
}

/// Ensure only open models are fine-tuned (mirrors the paper's API gap).
pub fn check_finetunable(kind: ModelKind) -> Result<(), String> {
    if kind.open_weights() {
        Ok(())
    } else {
        Err(format!("{} is API-only and cannot be fine-tuned", kind.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_models_not_finetunable() {
        assert!(check_finetunable(ModelKind::Gpt4).is_err());
        assert!(check_finetunable(ModelKind::StarChatBeta).is_ok());
    }
}
