//! Response synthesis.
//!
//! The surrogate answers like the paper's LLMs: free natural-language
//! text for detection (varying per model style), JSON — or almost-JSON —
//! for variable identification. Downstream parsing (in `eval`) must cope
//! with format drift exactly as the authors describe in §4.5; low
//! `format_adherence` profiles produce prose and malformed JSON on
//! purpose.

use crate::artifact::{AnalyzedKernel, PredictMemo};
use crate::decide::{jitter, DetectionDecider, KernelInfo, VarIdDecider, VarIdOutcome};
use crate::profile::{ModelKind, ModelProfile, PromptStrategy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// Ground-truth pair view (supplied by the dataset layer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairView {
    /// Variable (lvalue) texts.
    pub names: (String, String),
    /// 1-based trimmed-code lines.
    pub lines: (u32, u32),
    /// Operations, `"write"` / `"read"`.
    pub ops: (String, String),
}

/// Everything the surrogate sees about one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelView {
    /// Stable id.
    pub id: u32,
    /// Comment-trimmed code (what the prompt embeds).
    pub trimmed_code: String,
    /// Ground-truth label (used only to synthesize *correct* answers for
    /// the kernels the calibrated decider marks correct).
    pub race: bool,
    /// Ground-truth pairs.
    pub pairs: Vec<PairView>,
    /// Combined difficulty in [0, 1].
    pub difficulty: f64,
    // Lazily-computed shared analysis artifact. Clones share the cell,
    // so per-fold copies of a view reuse one analysis. Not serialized:
    // it is derivable from `trimmed_code` and re-fills on first use.
    #[serde(skip)]
    artifact: Arc<OnceLock<AnalyzedKernel>>,
}

impl PartialEq for KernelView {
    // The artifact cache is identity-irrelevant: two views are the same
    // view iff their observable fields agree.
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.trimmed_code == other.trimmed_code
            && self.race == other.race
            && self.pairs == other.pairs
            && self.difficulty == other.difficulty
    }
}

impl KernelView {
    /// Build a view with an empty (lazily filled) artifact cache.
    pub fn new(
        id: u32,
        trimmed_code: impl Into<String>,
        race: bool,
        pairs: Vec<PairView>,
        difficulty: f64,
    ) -> KernelView {
        KernelView {
            id,
            trimmed_code: trimmed_code.into(),
            race,
            pairs,
            difficulty,
            artifact: Arc::new(OnceLock::new()),
        }
    }

    /// Build a view around an already-computed artifact (the dataset
    /// layer analyzes every kernel up front, in parallel).
    pub fn with_artifact(
        id: u32,
        trimmed_code: impl Into<String>,
        race: bool,
        pairs: Vec<PairView>,
        difficulty: f64,
        artifact: AnalyzedKernel,
    ) -> KernelView {
        let cell = OnceLock::new();
        let _ = cell.set(artifact);
        KernelView {
            id,
            trimmed_code: trimmed_code.into(),
            race,
            pairs,
            difficulty,
            artifact: Arc::new(cell),
        }
    }

    /// The kernel's analysis artifact, computed on first use and shared
    /// by every clone of this view.
    pub fn artifact(&self) -> &AnalyzedKernel {
        self.artifact.get_or_init(|| AnalyzedKernel::analyze(&self.trimmed_code))
    }

    fn info(&self) -> KernelInfo {
        KernelInfo { id: self.id, race: self.race, difficulty: self.difficulty }
    }
}

/// A calibrated surrogate for one model.
#[derive(Debug, Clone)]
pub struct Surrogate {
    /// The model's static profile.
    pub profile: ModelProfile,
    infos: Vec<KernelInfo>,
    detection: HashMap<PromptStrategy, DetectionDecider>,
    varid: VarIdDecider,
    fingerprint: u64,
}

impl Surrogate {
    /// Build a surrogate calibrated against a corpus.
    pub fn new(kind: ModelKind, corpus: &[KernelView]) -> Surrogate {
        let infos: Vec<KernelInfo> = corpus.iter().map(KernelView::info).collect();
        let mut detection = HashMap::new();
        for p in [
            PromptStrategy::Bp1,
            PromptStrategy::Bp2,
            PromptStrategy::P1,
            PromptStrategy::P2,
            PromptStrategy::P3,
        ] {
            detection.insert(p, DetectionDecider::calibrate(kind, p, &infos));
        }
        let varid = VarIdDecider::calibrate(kind, &infos);
        // Calibration fingerprint: answers are a pure function of
        // (model, calibration inputs), so hashing those inputs gives the
        // identity key the per-kernel predict memo is scoped by. Two
        // surrogates of the same kind over the same corpus share memo
        // entries; any corpus difference changes the fingerprint.
        let mut h = par::hash::FxHasher::default();
        h.write_u64(kind.index() as u64);
        for i in &infos {
            h.write_u32(i.id);
            h.write_u8(u8::from(i.race));
            h.write_u64(i.difficulty.to_bits());
        }
        let fingerprint = h.finish();
        Surrogate { profile: ModelProfile::of(kind), infos, detection, varid, fingerprint }
    }

    fn kind(&self) -> ModelKind {
        self.profile.kind
    }

    /// Raw yes/no prediction for a kernel under a prompt strategy.
    pub fn predict(&self, k: &KernelView, strategy: PromptStrategy) -> bool {
        self.detection[&strategy].predict(&k.info())
    }

    /// Memoized [`Surrogate::predict`]: the identical answer, cached in
    /// the kernel's shared analysis artifact so repeated sweeps (the CV
    /// trainer's base-head fitting, `FineTuned::prob`'s base path, the
    /// base table rows) pay for inference once per (kernel, model,
    /// strategy) instead of once per call. Falls back to computing —
    /// without caching — when the slot was filled by a surrogate with a
    /// different calibration fingerprint.
    pub fn predict_memo(&self, k: &KernelView, strategy: PromptStrategy) -> bool {
        let slot = PredictMemo::slot(self.kind(), strategy);
        let memo = &k.artifact().predict_memo;
        if let Some(ans) = memo.get(slot, self.fingerprint) {
            return ans;
        }
        let ans = self.predict(k, strategy);
        memo.put(slot, self.fingerprint, ans);
        ans
    }

    /// The model's variable-identification behaviour for a kernel.
    pub fn varid_outcome(&self, k: &KernelView) -> VarIdOutcome {
        self.varid.outcome(&k.info())
    }

    /// Number of calibrated kernels (sanity hooks for tests).
    pub fn corpus_size(&self) -> usize {
        self.infos.len()
    }

    /// Uncalibrated feature-based verdict for non-corpus code (see
    /// [`crate::features::feature_verdict`]); ignores the calibration
    /// tables entirely, so it works on arbitrary generated kernels.
    pub fn suspicion_verdict(&self, features: &crate::features::CodeFeatures) -> bool {
        crate::features::feature_verdict(features, self.profile.kind)
    }

    /// Free-text detection answer (one chat turn; for p3 this is the
    /// final turn after the dependence-analysis turn).
    pub fn answer_detection(&self, k: &KernelView, strategy: PromptStrategy) -> String {
        let says_race = self.predict(k, strategy);
        let j = jitter(self.kind(), 211, k.id);
        let style = (j * 4.0) as usize;
        let lead = if says_race {
            match style {
                0 => "Yes.",
                1 => "Yes, the provided code exhibits a data race.",
                2 => "yes — there is a potential data race in this code.",
                _ => "Yes. Analyzing the parallel region, conflicting accesses occur.",
            }
        } else {
            match style {
                0 => "No.",
                1 => "No, this code does not contain a data race.",
                2 => "no — the loop iterations are independent.",
                _ => "No. All shared accesses are properly synchronized.",
            }
        };
        let mut out = String::from(lead);
        if self.profile.verbosity > 0.65 && style != 0 {
            out.push(' ');
            out.push_str(&self.explanation(k, says_race, strategy));
        }
        out
    }

    /// Intermediate p3 turn: a dependence-analysis narrative.
    pub fn answer_dependence_analysis(&self, k: &KernelView) -> String {
        let f = &k.artifact().features;
        let mut out = String::from("Data dependence analysis: ");
        if f.carried_certain {
            out.push_str(
                "the loop exhibits a loop-carried dependence between iterations \
                 (an element written in one iteration is referenced in another).",
            );
        } else if f.carried_dependence {
            out.push_str("there may be a loop-carried dependence through the array subscripts.");
        } else if f.has_ws_loop {
            out.push_str("each iteration appears to access distinct elements.");
        } else {
            out.push_str("the parallel region replicates its statements across threads.");
        }
        out
    }

    fn explanation(&self, k: &KernelView, says_race: bool, strategy: PromptStrategy) -> String {
        let f = &k.artifact().features;
        if says_race {
            let cause = if f.has_offset_subscript {
                "Neighbouring array elements are read while other iterations write them"
            } else if f.scalar_write_in_loop {
                "A shared scalar is updated by every iteration without synchronization"
            } else if f.has_indirect_subscript {
                "The indirect subscripts may map different iterations to the same element"
            } else if f.has_nowait {
                "The nowait clause removes the barrier that would order the loops"
            } else {
                "Multiple threads access shared data without sufficient synchronization"
            };
            if strategy == PromptStrategy::P2 {
                format!("{cause}; the dependence analysis confirms a conflicting pair.")
            } else {
                format!("{cause}.")
            }
        } else {
            let cause = if f.has_reduction {
                "The reduction clause gives each thread a private accumulator"
            } else if f.has_critical || f.has_atomic {
                "The updates are protected by mutual exclusion"
            } else if f.has_privatization {
                "The temporaries are privatized"
            } else {
                "Each iteration works on its own elements"
            };
            format!("{cause}.")
        }
    }

    /// BP2 answer: detection verdict from the BP2 operating point, plus
    /// pair JSON when the verdict is yes (the multi-task prompt both
    /// detects and details — Table 2's "greedy prompt").
    pub fn answer_bp2(&self, k: &KernelView) -> String {
        if !self.predict(k, PromptStrategy::Bp2) {
            let j = jitter(self.kind(), 257, k.id);
            return if j < 0.5 {
                "no".to_string()
            } else {
                "No, this code does not contain a data race.".to_string()
            };
        }
        match self.varid_outcome(k) {
            VarIdOutcome::CorrectPairs => {
                let pairs = k.pairs.clone();
                self.render_pairs(k, &pairs)
            }
            _ => {
                let pairs = self.corrupt_pairs(k);
                self.render_pairs(k, &pairs)
            }
        }
    }

    /// Variable-identification answer (Listing-5-style request).
    pub fn answer_varid(&self, k: &KernelView) -> String {
        match self.varid_outcome(k) {
            VarIdOutcome::NoPairs => {
                let j = jitter(self.kind(), 223, k.id);
                if j < 0.5 {
                    "no".to_string()
                } else {
                    "No, I did not find any data race in this code.".to_string()
                }
            }
            VarIdOutcome::CorrectPairs => {
                let pairs: Vec<PairView> = k.pairs.clone();
                self.render_pairs(k, &pairs)
            }
            VarIdOutcome::WrongPairs => {
                let pairs = self.corrupt_pairs(k);
                self.render_pairs(k, &pairs)
            }
        }
    }

    /// Produce plausible-but-wrong pair info: off-by-k lines, swapped
    /// operations, or an unrelated variable — the exact failure modes the
    /// paper observes for GPT-4 (§4.3: "most of its inaccuracies pertain
    /// to line numbers and variable dependence relations").
    fn corrupt_pairs(&self, k: &KernelView) -> Vec<PairView> {
        let j = jitter(self.kind(), 227, k.id);
        if let Some(p) = k.pairs.first() {
            let mut p = p.clone();
            if j < 0.4 {
                // Wrong line numbers.
                let delta = 1 + (jitter(self.kind(), 229, k.id) * 3.0) as u32;
                p.lines.0 = p.lines.0.saturating_add(delta);
                p.lines.1 = p.lines.1.saturating_sub(1).max(1);
            } else if j < 0.7 {
                // Wrong dependence relation (swapped ops / order).
                std::mem::swap(&mut p.names.0, &mut p.names.1);
                std::mem::swap(&mut p.ops.0, &mut p.ops.1);
                p.ops.0 = "write".into();
                p.ops.1 = "write".into();
            } else {
                // Wrong variable.
                p.names.0 = self.some_identifier(k).unwrap_or_else(|| "i".into());
                p.lines.0 = 1 + (jitter(self.kind(), 233, k.id) * 8.0) as u32;
            }
            // Symmetric ground-truth pairs (same name, same line, both
            // writes) can survive a swap unchanged — force a real error.
            let still_matches = k.pairs.iter().any(|t| {
                t.names == p.names && t.lines == p.lines && t.ops == p.ops
            });
            if still_matches {
                p.lines.0 += 2;
            }
            vec![p]
        } else {
            // Hallucinated pair on race-free code.
            let var = self.some_identifier(k).unwrap_or_else(|| "x".into());
            let line = 2 + (j * 9.0) as u32;
            vec![PairView {
                names: (var.clone(), var),
                lines: (line, line + 1),
                ops: ("write".into(), "read".into()),
            }]
        }
    }

    fn some_identifier(&self, k: &KernelView) -> Option<String> {
        // Runs only for corrupted pair answers, so the token texts are
        // re-scanned here rather than kept on every artifact.
        let j = jitter(self.kind(), 239, k.id);
        let mut idents: Vec<&str> = Vec::new();
        crate::tokenizer::scan(&k.trimmed_code, |t| {
            if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && t.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                && ![
                    "int", "for", "if", "else", "return", "pragma", "omp", "parallel", "double",
                    "float", "long", "void", "main", "include", "printf",
                ]
                .contains(&t)
            {
                idents.push(t);
            }
        });
        if idents.is_empty() {
            return None;
        }
        Some(idents[(j * idents.len() as f64) as usize % idents.len()].to_string())
    }

    /// Render pairs as JSON (or degraded formats for sloppy models).
    fn render_pairs(&self, k: &KernelView, pairs: &[PairView]) -> String {
        let adherent = jitter(self.kind(), 241, k.id) < self.profile.format_adherence;
        let Some(p) = pairs.first() else {
            return "yes".to_string();
        };
        if adherent {
            format!(
                "yes\n{{\n  \"data_race\": 1,\n  \"variable_names\": [\"{}\", \"{}\"],\n  \"variable_locations\": [{}, {}],\n  \"operation_types\": [\"{}\", \"{}\"]\n}}",
                p.names.0, p.names.1, p.lines.0, p.lines.1, p.ops.0, p.ops.1
            )
        } else {
            let j = jitter(self.kind(), 251, k.id);
            if j < 0.5 {
                // Prose instead of JSON (regex-fallback territory).
                format!(
                    "Yes, the provided code exhibits data race issues. The data race is caused by the variable '{}' at line {} and the variable '{}' at line {}. The first access is a {} and the second is a {}.",
                    p.names.0, p.lines.0, p.names.1, p.lines.1, p.ops.0, p.ops.1
                )
            } else {
                // Malformed JSON: trailing comma + unquoted key.
                format!(
                    "yes\n{{\n  data_race: 1,\n  \"variable_names\": [\"{}\", \"{}\"],\n  \"variable_locations\": [{}, {}],\n  \"operation_types\": [\"{}\", \"{}\"],\n}}",
                    p.names.0, p.names.1, p.lines.0, p.lines.1, p.ops.0, p.ops.1
                )
            }
        }
    }
}

/// A minimal chat façade over the surrogate: feed it prompt text, get
/// response text. Used by the examples and the failure-injection tests;
/// the evaluation harness drives [`Surrogate`] directly.
#[derive(Debug)]
pub struct ChatSession<'a> {
    surrogate: &'a Surrogate,
    kernel: &'a KernelView,
    strategy: PromptStrategy,
    turn: usize,
}

impl<'a> ChatSession<'a> {
    /// Open a session for one kernel.
    pub fn new(
        surrogate: &'a Surrogate,
        kernel: &'a KernelView,
        strategy: PromptStrategy,
    ) -> Self {
        ChatSession { surrogate, kernel, strategy, turn: 0 }
    }

    /// Send one prompt; the reply depends on the strategy's turn plan.
    ///
    /// Prompts that exceed the model's context window are refused — the
    /// paper sidesteps this with the 4k-token dataset filter (§3.2), but
    /// the models themselves would clip.
    pub fn send(&mut self, prompt: &str) -> String {
        if !crate::tokenizer::within_tokens(prompt, self.surrogate.profile.context_window) {
            return format!(
                "I'm sorry, the provided input is too long for my context window of {} tokens.",
                self.surrogate.profile.context_window
            );
        }
        self.turn += 1;
        match (self.strategy, self.turn) {
            (PromptStrategy::P3, 1) => self.surrogate.answer_dependence_analysis(self.kernel),
            (PromptStrategy::Bp2, _) => self.surrogate.answer_bp2(self.kernel),
            _ => self.surrogate.answer_detection(self.kernel, self.strategy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<KernelView> {
        (1..=40u32)
            .map(|id| {
                KernelView::new(
                    id,
                    format!(
                        "int a[100];\nint main(void)\n{{\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 99; i++)\n    a[i] = a[i + {}];\n  return 0;\n}}\n",
                        id % 3 + 1
                    ),
                    id % 2 == 0,
                    if id % 2 == 0 {
                        vec![PairView {
                            names: ("a[i + 1]".into(), "a[i]".into()),
                            lines: (7, 7),
                            ops: ("read".into(), "write".into()),
                        }]
                    } else {
                        vec![]
                    },
                    (id % 7) as f64 / 7.0,
                )
            })
            .collect()
    }

    #[test]
    fn detection_answers_start_with_verdict() {
        let ks = corpus();
        let s = Surrogate::new(ModelKind::Gpt4, &ks);
        for k in &ks {
            let ans = s.answer_detection(k, PromptStrategy::P1).to_lowercase();
            assert!(ans.starts_with("yes") || ans.starts_with("no"), "{ans}");
        }
    }

    #[test]
    fn correct_varid_contains_ground_truth() {
        let ks = corpus();
        let s = Surrogate::new(ModelKind::Gpt4, &ks);
        let mut saw_correct = false;
        for k in ks.iter().filter(|k| k.race) {
            if s.varid_outcome(k) == VarIdOutcome::CorrectPairs {
                let ans = s.answer_varid(k);
                assert!(ans.contains("a[i + 1]") || ans.contains("a[i]"), "{ans}");
                saw_correct = true;
            }
        }
        assert!(saw_correct);
    }

    #[test]
    fn sloppy_models_sometimes_break_format() {
        let ks = corpus();
        let s = Surrogate::new(ModelKind::Llama2_7b, &ks);
        let mut non_json = 0;
        let mut answered = 0;
        for k in &ks {
            let ans = s.answer_varid(k);
            if ans.to_lowercase().starts_with("yes") {
                answered += 1;
                if !ans.contains("\"variable_names\"") {
                    non_json += 1;
                }
            }
        }
        assert!(answered > 0);
        assert!(non_json > 0, "Llama2 profile should break format sometimes");
    }

    #[test]
    fn p3_first_turn_is_analysis() {
        let ks = corpus();
        let s = Surrogate::new(ModelKind::Gpt35Turbo, &ks);
        let mut chat = ChatSession::new(&s, &ks[0], PromptStrategy::P3);
        let first = chat.send("analyze data dependence");
        assert!(first.to_lowercase().contains("dependence"));
        let second = chat.send("now answer yes or no");
        let l = second.to_lowercase();
        assert!(l.starts_with("yes") || l.starts_with("no"));
    }

    #[test]
    fn answers_deterministic() {
        let ks = corpus();
        let s1 = Surrogate::new(ModelKind::StarChatBeta, &ks);
        let s2 = Surrogate::new(ModelKind::StarChatBeta, &ks);
        for k in &ks {
            assert_eq!(s1.answer_varid(k), s2.answer_varid(k));
            assert_eq!(
                s1.answer_detection(k, PromptStrategy::P2),
                s2.answer_detection(k, PromptStrategy::P2)
            );
        }
    }

    #[test]
    fn predict_memo_matches_predict_everywhere() {
        let ks = corpus();
        let strategies = [
            PromptStrategy::Bp1,
            PromptStrategy::Bp2,
            PromptStrategy::P1,
            PromptStrategy::P2,
            PromptStrategy::P3,
        ];
        for m in ModelKind::ALL {
            let s = Surrogate::new(m, &ks);
            for k in &ks {
                for p in strategies {
                    let fresh = s.predict(k, p);
                    // First call fills the slot, second reads it; both
                    // must agree with the unmemoized path.
                    assert_eq!(s.predict_memo(k, p), fresh, "{m:?}/{p:?}/{}", k.id);
                    assert_eq!(s.predict_memo(k, p), fresh, "{m:?}/{p:?}/{}", k.id);
                }
            }
        }
    }

    #[test]
    fn predict_memo_is_safe_across_calibration_corpora() {
        // Two same-kind surrogates calibrated on different corpora share
        // the memo slot but must each still answer from their own
        // calibration: the fingerprint guard downgrades the loser to the
        // uncached path instead of serving it the winner's answer.
        let full = corpus();
        let half: Vec<KernelView> = full[..20].to_vec();
        let s_full = Surrogate::new(ModelKind::StarChatBeta, &full);
        let s_half = Surrogate::new(ModelKind::StarChatBeta, &half);
        for k in &full {
            for (s, label) in [(&s_full, "full"), (&s_half, "half")] {
                assert_eq!(
                    s.predict_memo(k, PromptStrategy::P2),
                    s.predict(k, PromptStrategy::P2),
                    "{label}/{}",
                    k.id
                );
            }
        }
    }
}

#[cfg(test)]
mod context_tests {
    use super::*;

    #[test]
    fn over_budget_prompts_are_refused() {
        let ks = vec![KernelView::new(1, "int main(void) { return 0; }", false, vec![], 0.5)];
        let s = Surrogate::new(ModelKind::Llama2_7b, &ks); // 4k window
        let mut chat = ChatSession::new(&s, &ks[0], PromptStrategy::P1);
        let huge = "int x; ".repeat(4000); // ≫ 4096 tokens
        let ans = chat.send(&huge);
        assert!(ans.contains("context window"), "{ans}");
        // A normal prompt still works.
        let ok = chat.send("short prompt");
        assert!(ok.to_lowercase().starts_with("yes") || ok.to_lowercase().starts_with("no"));
    }

    #[test]
    fn the_window_counts_tokens_not_bytes() {
        let ks = vec![KernelView::new(1, "int main(void) { return 0; }", false, vec![], 0.5)];
        let s = Surrogate::new(ModelKind::Llama2_7b, &ks); // 4k window
        let answer = s.answer_detection(&ks[0], PromptStrategy::P1);
        let mut chat = ChatSession::new(&s, &ks[0], PromptStrategy::P1);
        // 4-byte word pieces: 5 bytes per token, so 20,480 bytes that are
        // exactly 4,096 tokens still fit the window.
        let at_window = "abcd ".repeat(4096);
        assert!(at_window.len() > 4096);
        assert_eq!(crate::tokenizer::count_tokens(&at_window), 4096);
        assert_eq!(chat.send(&at_window), answer);
        // One token more is refused, with the exact refusal text.
        let over = "abcd ".repeat(4097);
        assert_eq!(
            chat.send(&over),
            "I'm sorry, the provided input is too long for my context window of 4096 tokens."
        );
        // One token per byte: 4,097 bytes are one token too many.
        let tight = ";".repeat(4097);
        assert_eq!(crate::tokenizer::count_tokens(&tight), 4097);
        assert!(chat.send(&tight).starts_with("I'm sorry"));
        assert_eq!(chat.send(&tight[1..]), answer);
    }
}
