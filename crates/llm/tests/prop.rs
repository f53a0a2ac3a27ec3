//! Property tests for the surrogate stack: tokenizer reconstruction and
//! agreement over arbitrary strings,
//! calibration quota exactness on random corpora, and decision
//! determinism.

use llm::decide::{DetectionDecider, KernelInfo, VarIdDecider, VarIdOutcome};
use llm::{detection_point, varid_point, ModelKind, PromptStrategy};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Gpt35Turbo),
        Just(ModelKind::Gpt4),
        Just(ModelKind::StarChatBeta),
        Just(ModelKind::Llama2_7b),
    ]
}

fn arb_prompt() -> impl Strategy<Value = PromptStrategy> {
    prop_oneof![
        Just(PromptStrategy::Bp1),
        Just(PromptStrategy::Bp2),
        Just(PromptStrategy::P1),
        Just(PromptStrategy::P2),
        Just(PromptStrategy::P3),
    ]
}

fn arb_corpus() -> impl Strategy<Value = Vec<KernelInfo>> {
    proptest::collection::vec((any::<bool>(), 0.0f64..1.0), 10..120).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (race, difficulty))| KernelInfo { id: i as u32 + 1, race, difficulty })
            .collect()
    })
}

/// The ASCII half of [`arb_text`]'s alphabet: C-ish text, every ASCII
/// whitespace byte, and the two-character operators' halves.
const C_ISH: &[u8] =
    b"int omp_get_thread_num parallel_region x1 ;(){}[]=+-*/%<>!&|#\"'\\.,:\t\n\r";

/// Strings of up to `max` characters: half C-ish ASCII, a quarter
/// two-byte UTF-8, a quarter any Unicode scalar value.
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 0..=max).prop_map(|cs| {
        cs.into_iter()
            .map(|(pick, c)| match pick % 4 {
                0 => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'),
                1 => char::from_u32(0x80 + c % 0x780).unwrap_or('é'),
                _ => C_ISH[c as usize % C_ISH.len()] as char,
            })
            .collect()
    })
}

/// Text built from the tokenizer's hard cases: C-ish ASCII, runs of
/// whitespace and newlines, two-character operators, words longer than
/// a 4-byte piece, and arbitrary Unicode scalar values; or text of
/// one-byte tokens only, where `count_tokens(s) == s.len()`.
fn arb_token_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        arb_text(8),
        proptest::collection::vec(
            prop_oneof![Just(' '), Just('\t'), Just('\r'), Just('\n'), Just('\x0c')],
            1..=12,
        )
        .prop_map(|ws| ws.into_iter().collect()),
        prop_oneof![
            Just("=="), Just("!="), Just("<="), Just(">="), Just("&&"), Just("||"),
            Just("+="), Just("-="), Just("*="), Just("/="), Just("%="), Just("++"),
            Just("--"), Just("<<"), Just(">>"), Just("->"),
        ]
        .prop_map(str::to_string),
        "[A-Za-z0-9_]{5,24}",
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string()),
    ];
    prop_oneof![
        proptest::collection::vec(piece, 0..40).prop_map(|ps| ps.concat()),
        "[;,#.:]{0,40}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_more_tokens_than_bytes_and_within_is_exact(
        s in arb_token_text(),
        around_len in any::<bool>(),
        delta in -3i64..=3,
    ) {
        let n = llm::count_tokens(&s);
        prop_assert!(n <= s.len(), "{} tokens in {} bytes", n, s.len());
        let anchor = if around_len { s.len() } else { n } as i64;
        let max = (anchor + delta).max(0) as usize;
        prop_assert_eq!(llm::within_tokens(&s, max), n <= max);
    }

    #[test]
    fn tokenizer_preserves_non_whitespace(s in arb_text(300)) {
        let toks = llm::tokenize(&s);
        let reconstructed: String = toks
            .iter()
            .map(|t| if t.text == "\\n" { String::new() } else { t.text.clone() })
            .collect();
        let orig: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
        prop_assert_eq!(reconstructed, orig);
    }

    #[test]
    fn counting_ids_and_artifact_agree_with_tokenize(s in arb_text(300)) {
        let toks = llm::tokenize(&s);
        let ids: Vec<u32> = toks.iter().map(|t| t.id).collect();
        prop_assert_eq!(llm::count_tokens(&s), toks.len());
        prop_assert_eq!(&llm::AnalyzedKernel::analyze(&s).tokens, &ids);
        // Every non-ASCII character is a token of its own.
        for c in s.chars().filter(|c| !c.is_ascii()) {
            let text = c.to_string();
            prop_assert!(toks.iter().any(|t| t.text == text));
        }
    }

    #[test]
    fn token_count_subadditive_under_concat(a in arb_text(100), b in arb_text(100)) {
        // Concatenation can merge at most the boundary tokens.
        let joined = format!("{a} {b}");
        prop_assert!(llm::count_tokens(&joined) <= llm::count_tokens(&a) + llm::count_tokens(&b) + 1);
    }

    #[test]
    fn detection_quota_is_exact(corpus in arb_corpus(), m in arb_model(), p in arb_prompt()) {
        let d = DetectionDecider::calibrate(m, p, &corpus);
        let op = detection_point(m, p);
        let yes: Vec<&KernelInfo> = corpus.iter().filter(|k| k.race).collect();
        let no: Vec<&KernelInfo> = corpus.iter().filter(|k| !k.race).collect();
        let tp = yes.iter().filter(|k| d.predict(k)).count();
        let tn = no.iter().filter(|k| !d.predict(k)).count();
        prop_assert_eq!(tp, (op.tpr * yes.len() as f64).round() as usize);
        prop_assert_eq!(tn, (op.tnr * no.len() as f64).round() as usize);
    }

    #[test]
    fn harder_kernels_fail_first(corpus in arb_corpus(), m in arb_model()) {
        // If a kernel is classified correctly, every strictly-easier
        // kernel of the same class with enough margin (jitter is bounded
        // by 0.3) is classified correctly too.
        let d = DetectionDecider::calibrate(m, PromptStrategy::P1, &corpus);
        for a in &corpus {
            for b in &corpus {
                if a.race == b.race && a.difficulty + 0.31 < b.difficulty && d.is_correct(b) {
                    prop_assert!(
                        d.is_correct(a),
                        "easier kernel {} wrong while harder {} right",
                        a.id, b.id
                    );
                }
            }
        }
    }

    #[test]
    fn varid_quota_is_exact(corpus in arb_corpus(), m in arb_model()) {
        let d = VarIdDecider::calibrate(m, &corpus);
        let op = varid_point(m);
        let yes: Vec<&KernelInfo> = corpus.iter().filter(|k| k.race).collect();
        let no: Vec<&KernelInfo> = corpus.iter().filter(|k| !k.race).collect();
        let correct = yes.iter().filter(|k| d.outcome(k) == VarIdOutcome::CorrectPairs).count();
        let restrained = no.iter().filter(|k| d.outcome(k) == VarIdOutcome::NoPairs).count();
        prop_assert_eq!(correct, (op.correct_pair_rate * yes.len() as f64).round() as usize);
        prop_assert_eq!(restrained, (op.restraint_rate * no.len() as f64).round() as usize);
    }

    #[test]
    fn race_suspicion_bounded(s in "[ -~\n]{0,200}", depth in 0.0f64..1.0) {
        let f = llm::CodeFeatures::extract(&s);
        let v = f.race_suspicion(depth);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((0.0..=1.0).contains(&f.surface_difficulty()));
    }
}
