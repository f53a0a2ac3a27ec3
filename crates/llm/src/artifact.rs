//! Once-per-kernel analysis artifacts.
//!
//! Every stage of the pipeline used to re-derive the same intermediate
//! results from `trimmed_code` — the surrogate's answer paths parsed the
//! kernel again for each explanation, the fine-tuning loop re-tokenized
//! per fold and epoch, and the baseline re-parsed per sweep. An
//! [`AnalyzedKernel`] bundles all of it, computed exactly once per
//! kernel and shared through [`KernelView`](crate::KernelView)'s
//! `Arc`-held cache: the parsed AST, the token ids, the structural
//! [`CodeFeatures`], the dense feature vector, and the hashed n-gram
//! vector the fine-tuning crate consumes.
//!
//! Equivalence is by construction: [`AnalyzedKernel::analyze`] feeds the
//! same token stream and the same parse result into
//! [`CodeFeatures::from_parts`] that [`CodeFeatures::extract`] uses, so
//! cached features can never drift from a fresh extraction (the
//! calibrated operating points — and therefore every table — depend on
//! that invariant; see DESIGN.md §5).

use crate::features::CodeFeatures;
use crate::profile::{ModelKind, PromptStrategy};
use crate::tokenizer::token_ids;
use minic::TranslationUnit;
use std::sync::{Arc, OnceLock};

/// Width of the hashed n-gram vector.
pub const NGRAM_DIM: usize = 256;

fn mix(h: u64) -> u64 {
    let mut x = h;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a token-id stream into a normalized n-gram vector (signed
/// feature hashing over unigrams and bigrams keeps collisions unbiased).
pub fn ngram_vector_of(ids: &[u32]) -> Vec<f64> {
    let mut v = vec![0.0f64; NGRAM_DIM];
    let mut push = |h: u64| {
        let m = mix(h);
        let idx = (m % NGRAM_DIM as u64) as usize;
        let sign = if (m >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        v[idx] += sign;
    };
    for w in ids.windows(2) {
        push(w[0] as u64);
        push(((w[0] as u64) << 32) | w[1] as u64);
    }
    if let Some(&last) = ids.last() {
        push(last as u64);
    }
    // L2 normalize so gradient scales are independent of code length.
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// Hash a code snippet into a normalized n-gram vector.
pub fn ngram_vector(code: &str) -> Vec<f64> {
    ngram_vector_of(&token_ids(code))
}

/// Lock-free memo of calibrated surrogate yes/no answers for one kernel.
///
/// `Surrogate::predict` is deterministic given (model, strategy,
/// calibration corpus), so its answer belongs with the kernel's other
/// once-per-kernel derived state: every clone of a view — the per-fold
/// copies the CV runners hand to the trainer — shares one memo and
/// stops re-running surrogate inference. Each (model, strategy) pair
/// owns one slot; a slot also records the calibration fingerprint of
/// the surrogate that filled it, so a surrogate calibrated against a
/// *different* corpus can never read a stale answer (fingerprint
/// mismatch falls back to computing, every time, without poisoning the
/// slot).
#[derive(Debug)]
pub struct PredictMemo {
    slots: [OnceLock<(u64, bool)>; Self::SLOTS],
}

impl PredictMemo {
    /// One slot per (model kind, prompt strategy) pair.
    pub const SLOTS: usize = ModelKind::COUNT * PromptStrategy::COUNT;

    /// Dense slot index for a (model, strategy) pair.
    pub fn slot(model: ModelKind, strategy: PromptStrategy) -> usize {
        model.index() * PromptStrategy::COUNT + strategy.index()
    }

    /// The memoized answer, if a surrogate with this exact calibration
    /// fingerprint already filled the slot.
    pub fn get(&self, slot: usize, fingerprint: u64) -> Option<bool> {
        match self.slots[slot].get() {
            Some(&(fp, ans)) if fp == fingerprint => Some(ans),
            _ => None,
        }
    }

    /// Record an answer (first writer wins; later writers are no-ops).
    pub fn put(&self, slot: usize, fingerprint: u64, answer: bool) {
        let _ = self.slots[slot].set((fingerprint, answer));
    }
}

impl Default for PredictMemo {
    fn default() -> Self {
        PredictMemo { slots: std::array::from_fn(|_| OnceLock::new()) }
    }
}

/// Everything the pipeline ever derives from one kernel's trimmed code,
/// computed once.
#[derive(Debug)]
pub struct AnalyzedKernel {
    /// Parsed AST (`None` when the code does not parse; downstream
    /// consumers degrade exactly as they did when re-parsing). Shared,
    /// so a corpus kernel's views reuse the unit the corpus parsed.
    pub ast: Option<Arc<TranslationUnit>>,
    /// The token ids of the trimmed code, in order (its length is the
    /// 4k-filter token count). Texts are not kept: the one consumer that
    /// needs them re-scans the code.
    pub tokens: Vec<u32>,
    /// Structural comprehension features.
    pub features: CodeFeatures,
    /// `features.to_vector()`, cached.
    pub feature_vec: Vec<f64>,
    /// Hashed n-gram vector over `tokens`.
    pub ngram_vec: Vec<f64>,
    /// Fine-tuning input: `ngram_vec` ++ `feature_vec`.
    pub full_vec: Vec<f64>,
    /// `features.surface_difficulty()`, cached.
    pub surface_difficulty: f64,
    /// Memoized calibrated yes/no answers (filled lazily by
    /// [`Surrogate::predict_memo`](crate::Surrogate::predict_memo)).
    pub predict_memo: PredictMemo,
    /// Lazily-lowered bytecode program for the dynamic oracle, read
    /// through [`oracle_program`](Self::oracle_program). Empty until the
    /// first read, and forever when there is no AST.
    oracle_program: OnceLock<hbsan::Program>,
}

impl AnalyzedKernel {
    /// Analyze a kernel: one tokenization, one parse, one feature pass.
    pub fn analyze(trimmed_code: &str) -> AnalyzedKernel {
        AnalyzedKernel::from_parsed(trimmed_code, minic::parse(trimmed_code).ok())
    }

    /// Build the artifact around an already-parsed AST (pass `None` for
    /// unparseable code). Lets callers that need the parse *error* — the
    /// end-to-end pipeline — parse once themselves and still share the
    /// result.
    pub fn from_parsed(trimmed_code: &str, ast: Option<TranslationUnit>) -> AnalyzedKernel {
        AnalyzedKernel::from_shared(trimmed_code, ast.map(Arc::new))
    }

    /// [`from_parsed`](Self::from_parsed) around an AST shared with its
    /// owner (a corpus kernel's unit); the artifact parses nothing.
    pub fn from_shared(trimmed_code: &str, ast: Option<Arc<TranslationUnit>>) -> AnalyzedKernel {
        let tokens = token_ids(trimmed_code);
        let features = CodeFeatures::from_parts(tokens.len(), ast.as_deref());
        let feature_vec = features.to_vector();
        let ngram_vec = ngram_vector_of(&tokens);
        let mut full_vec = ngram_vec.clone();
        full_vec.extend_from_slice(&feature_vec);
        let surface_difficulty = features.surface_difficulty();
        AnalyzedKernel {
            ast,
            tokens,
            features,
            feature_vec,
            ngram_vec,
            full_vec,
            surface_difficulty,
            predict_memo: PredictMemo::default(),
            oracle_program: OnceLock::new(),
        }
    }

    /// The kernel's bytecode oracle program, lowered at most once per
    /// artifact and shared by every subsequent schedule sweep. `None`
    /// only when the code does not parse (every parsed kernel lowers).
    pub fn oracle_program(&self) -> Option<&hbsan::Program> {
        let unit = self.ast.as_deref()?;
        Some(self.oracle_program.get_or_init(|| hbsan::lower(unit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = "int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";

    #[test]
    fn analyze_matches_fresh_extraction() {
        let a = AnalyzedKernel::analyze(RACY);
        assert_eq!(a.features, CodeFeatures::extract(RACY));
        assert_eq!(a.feature_vec, a.features.to_vector());
        assert_eq!(a.surface_difficulty, a.features.surface_difficulty());
        assert_eq!(a.tokens.len(), crate::tokenizer::count_tokens(RACY));
        assert!(a.ast.is_some());
    }

    #[test]
    fn full_vec_is_ngrams_then_features() {
        let a = AnalyzedKernel::analyze(RACY);
        assert_eq!(a.full_vec.len(), NGRAM_DIM + CodeFeatures::DIM);
        assert_eq!(a.full_vec[..NGRAM_DIM], a.ngram_vec[..]);
        assert_eq!(a.full_vec[NGRAM_DIM..], a.feature_vec[..]);
    }

    #[test]
    fn unparseable_input_degrades_to_surface_features() {
        let a = AnalyzedKernel::analyze("this is not C at all {{{");
        assert!(a.ast.is_none());
        assert_eq!(a.features, CodeFeatures::extract("this is not C at all {{{"));
        assert_eq!(a.features.directives, 0);
        assert!(a.features.tokens > 0);
    }

    #[test]
    fn ngram_vector_matches_token_form() {
        assert_eq!(ngram_vector(RACY), ngram_vector_of(&token_ids(RACY)));
        let ids: Vec<u32> = crate::tokenizer::tokenize(RACY).iter().map(|t| t.id).collect();
        assert_eq!(AnalyzedKernel::analyze(RACY).tokens, ids);
    }

    #[test]
    fn oracle_program_is_cached_and_degrades() {
        let a = AnalyzedKernel::analyze(RACY);
        let first = a.oracle_program().expect("parallel-for lowers") as *const hbsan::Program;
        let again = a.oracle_program().unwrap() as *const hbsan::Program;
        assert_eq!(first, again, "second call must return the cached program");

        // No AST → no program (and no panic).
        assert!(AnalyzedKernel::analyze("not C at all {{{").oracle_program().is_none());

        // Every parsed kernel lowers, sections included.
        let sections = "int x;\nint main() {\n  #pragma omp parallel sections\n  {\n    #pragma omp section\n    { x = 1; }\n    #pragma omp section\n    { x = 2; }\n  }\n  return x;\n}\n";
        let s = AnalyzedKernel::analyze(sections);
        assert!(s.oracle_program().is_some());
    }

    #[test]
    fn predict_memo_is_fingerprint_scoped() {
        let memo = PredictMemo::default();
        let slot = PredictMemo::slot(ModelKind::Gpt4, PromptStrategy::P2);
        assert!(memo.get(slot, 1).is_none());
        memo.put(slot, 1, true);
        assert_eq!(memo.get(slot, 1), Some(true));
        // A surrogate with a different calibration fingerprint must not
        // read the slot, and must not be able to overwrite it either.
        assert!(memo.get(slot, 2).is_none());
        memo.put(slot, 2, false);
        assert_eq!(memo.get(slot, 1), Some(true));
        // Other slots are independent.
        let other = PredictMemo::slot(ModelKind::Gpt4, PromptStrategy::P3);
        assert_ne!(slot, other);
        assert!(memo.get(other, 1).is_none());
    }

    #[test]
    fn predict_memo_slots_are_dense_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in ModelKind::ALL {
            for p in [
                PromptStrategy::Bp1,
                PromptStrategy::Bp2,
                PromptStrategy::P1,
                PromptStrategy::P2,
                PromptStrategy::P3,
            ] {
                let s = PredictMemo::slot(m, p);
                assert!(s < PredictMemo::SLOTS);
                assert!(seen.insert(s), "slot {s} reused");
            }
        }
        assert_eq!(seen.len(), PredictMemo::SLOTS);
    }
}
