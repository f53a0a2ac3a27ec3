//! Fold-parallel cross-validation must be a pure throughput change:
//! Tables 4 and 6 serialized to JSON are byte-identical whether the
//! 2 models × 5 folds fine-tuning jobs run on one worker or eight, and
//! two runs at the same worker count agree to the last bit. The rows
//! themselves are pinned at full precision by `tests/golden/cv_tables.json`
//! (`it_golden_tables`).
//!
//! Worker counts are passed explicitly through
//! `cv_tables_with_workers` — not via `RACELLM_WORKERS` — so these
//! tests cannot race other tests on the environment.

use eval::tables::cv_tables_with_workers;

fn json(rows: &[eval::CvRow]) -> String {
    serde_json::to_string_pretty(rows).expect("rows serialize")
}

#[test]
fn parallel_cv_tables_byte_identical_at_1_and_8_workers() {
    let (t4_serial, t6_serial) = cv_tables_with_workers(1);
    let (t4_par, t6_par) = cv_tables_with_workers(8);
    assert_eq!(json(&t4_serial), json(&t4_par), "Table 4 differs across worker counts");
    assert_eq!(json(&t6_serial), json(&t6_par), "Table 6 differs across worker counts");
}

#[test]
fn two_parallel_runs_agree_to_the_last_bit() {
    let (t4_a, t6_a) = cv_tables_with_workers(8);
    let (t4_b, t6_b) = cv_tables_with_workers(8);
    assert_eq!(json(&t4_a), json(&t4_b));
    assert_eq!(json(&t6_a), json(&t6_b));
}

#[test]
fn cached_tables_match_explicit_worker_runs() {
    // `table4()`/`table6()` serve from the per-process cache built with
    // default workers; the cache must hold the same bytes as a direct
    // run at any worker count.
    let (t4, t6) = cv_tables_with_workers(3);
    assert_eq!(json(&eval::table4()), json(&t4));
    assert_eq!(json(&eval::table6()), json(&t6));
}
