//! Property tests: metric identities, parser totality, and parallel-map
//! equivalence.

use eval::{parse_pairs, parse_verdict, Confusion};
use par::par_map;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metrics_are_bounded(tp in 0u32..500, fp in 0u32..500, tn in 0u32..500, fn_ in 0u32..500) {
        let c = Confusion { tp, fp, tn, fn_ };
        for v in [c.recall(), c.precision(), c.f1(), c.accuracy()] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
        // F1 lies between min and max of P and R (harmonic mean property).
        let (r, p) = (c.recall(), c.precision());
        if r > 0.0 && p > 0.0 {
            prop_assert!(c.f1() <= r.max(p) + 1e-12);
            prop_assert!(c.f1() >= r.min(p) - 1e-12 || c.f1() >= 0.0);
        }
    }

    #[test]
    fn record_accumulates(truths in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..100)) {
        let mut c = Confusion::default();
        for &(t, p) in &truths {
            c.record(t, p);
        }
        prop_assert_eq!(c.total() as usize, truths.len());
        let tp = truths.iter().filter(|&&(t, p)| t && p).count();
        prop_assert_eq!(c.tp as usize, tp);
    }

    #[test]
    fn merge_is_addition(
        a in (0u32..100, 0u32..100, 0u32..100, 0u32..100),
        b in (0u32..100, 0u32..100, 0u32..100, 0u32..100),
    ) {
        let mut x = Confusion { tp: a.0, fp: a.1, tn: a.2, fn_: a.3 };
        let y = Confusion { tp: b.0, fp: b.1, tn: b.2, fn_: b.3 };
        x.merge(&y);
        prop_assert_eq!(x.total(), a.0 + a.1 + a.2 + a.3 + b.0 + b.1 + b.2 + b.3);
    }

    #[test]
    fn verdict_parser_total(s in "\\PC{0,400}") {
        let _ = parse_verdict(&s);
    }

    #[test]
    fn pair_parser_total(s in "\\PC{0,400}") {
        let _ = parse_pairs(&s);
    }

    #[test]
    fn pair_parser_total_on_jsonish(s in "[{}\\[\\]\",:a-z0-9_ \n]{0,300}") {
        let _ = parse_pairs(&s);
    }

    #[test]
    fn leading_yes_no_always_wins(rest in "[ -~]{0,100}") {
        prop_assert_eq!(parse_verdict(&format!("yes {rest}")), eval::Verdict::Yes);
        prop_assert_eq!(parse_verdict(&format!("No, {rest}")), eval::Verdict::No);
    }

    #[test]
    fn par_map_equals_serial(xs in proptest::collection::vec(0i64..1000, 0..200), w in 1usize..9) {
        let serial: Vec<i64> = xs.iter().map(|x| x * 3 + 1).collect();
        let parallel = par_map(&xs, w, |x| x * 3 + 1);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn cells_sum_to_corpus_size(truths in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
        // The four confusion cells always partition the corpus.
        let mut c = Confusion::default();
        for &(t, p) in &truths {
            c.record(t, p);
        }
        prop_assert_eq!((c.tp + c.fp + c.tn + c.fn_) as usize, truths.len());
    }

    #[test]
    fn label_permutation_symmetry(truths in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
        // Relabelling both sides (race <-> clean) swaps tp<->tn and
        // fp<->fn_, swapping precision with the negative-class
        // precision while leaving accuracy and total fixed.
        let (mut c, mut flipped) = (Confusion::default(), Confusion::default());
        for &(t, p) in &truths {
            c.record(t, p);
            flipped.record(!t, !p);
        }
        prop_assert_eq!(c.tp, flipped.tn);
        prop_assert_eq!(c.fp, flipped.fn_);
        prop_assert_eq!(c.total(), flipped.total());
        prop_assert!((c.accuracy() - flipped.accuracy()).abs() < 1e-12);
    }

    #[test]
    fn transpose_swaps_precision_and_recall(tp in 0u32..200, fp in 0u32..200, tn in 0u32..200, fn_ in 0u32..200) {
        // Swapping prediction and truth (transpose of the matrix)
        // exchanges fp and fn_, hence precision and recall; F1, being
        // their harmonic mean, is invariant.
        let c = Confusion { tp, fp, tn, fn_ };
        let t = Confusion { tp, fp: fn_, tn, fn_: fp };
        prop_assert!((c.precision() - t.recall()).abs() < 1e-12);
        prop_assert!((c.recall() - t.precision()).abs() < 1e-12);
        prop_assert!((c.f1() - t.f1()).abs() < 1e-12);
    }
}
