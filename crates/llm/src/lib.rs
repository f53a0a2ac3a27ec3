//! `llm` — a surrogate large-language-model stack.
//!
//! The paper queries GPT-3.5-turbo, GPT-4, Llama2-7b, and StarChat-β.
//! None of those exist in this environment, so this crate supplies a
//! *calibrated surrogate*: a code tokenizer ([`tokenizer`]), model
//! profiles ([`profile`]), a feature-based comprehension core
//! ([`features`]), a decision layer pinned to the paper's published
//! confusion matrices ([`calibration`], [`decide`]), and a response
//! generator that produces the free-text / JSON answers the evaluation
//! pipeline must parse ([`generate`]). Per-kernel intermediates (AST,
//! tokens, features, fine-tuning vectors) are computed once and shared
//! through [`artifact`]. Every other stage of the paper's
//! pipeline — prompts, datasets, parsing, metrics, fine-tuning — runs
//! against these surrogates unchanged. See DESIGN.md §2 and §5 for the
//! substitution argument.

#![warn(missing_docs)]

pub mod artifact;
pub mod calibration;
pub mod decide;
pub mod features;
pub mod generate;
pub mod modalities;
pub mod profile;
pub mod tokenizer;

pub use artifact::{ngram_vector, ngram_vector_of, AnalyzedKernel, PredictMemo, NGRAM_DIM};
pub use calibration::{detection_point, varid_point, OperatingPoint, VarIdPoint};
pub use decide::{DetectionDecider, KernelInfo, VarIdDecider, VarIdOutcome};
pub use features::{feature_verdict, CodeFeatures};
pub use generate::{ChatSession, KernelView, PairView, Surrogate};
pub use modalities::{render as render_modality, Modality};
pub use profile::{ModelKind, ModelProfile, PromptStrategy};
pub use tokenizer::{
    count_tokens, fits_prompt_budget, tokenize, within_tokens, Token, PROMPT_TOKEN_LIMIT,
};
