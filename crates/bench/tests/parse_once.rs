//! Parse-count proof for the once-per-kernel artifact cache.
//!
//! Gated behind the `count-parses` feature (which enables an atomic
//! counter inside `minic::parse`):
//!
//! ```text
//! cargo test -p bench --features count-parses
//! ```
//!
//! With the feature off this file compiles to nothing, so the tier-1
//! test run is unaffected. The counter is process-wide and counts from
//! process start, so this binary holds this one test only.
#![cfg(feature = "count-parses")]

use eval::{format_cv_table, format_detection_table};

/// Tables 2–6, rendered.
fn regenerate() -> [String; 5] {
    [
        format_detection_table("Table 2", &eval::table2()),
        format_detection_table("Table 3", &eval::table3()),
        format_cv_table("Table 4", &eval::table4()),
        format_detection_table("Table 5", &eval::table5()),
        format_cv_table("Table 6", &eval::table6()),
    ]
}

/// A fresh process parses each corpus kernel exactly once: the corpus
/// parses all 201 while resolving pairs, the DRB-ML views build their
/// artifacts around those ASTs, and neither calibration nor any table
/// parses again. A second regeneration parses nothing.
#[test]
fn setup_and_tables_parse_each_corpus_kernel_exactly_once() {
    let once = drb_gen::CORPUS_SIZE as u64;
    assert_eq!(minic::parse_count(), 0, "nothing parses before set-up");

    assert_eq!(drb_gen::corpus().len(), drb_gen::CORPUS_SIZE);
    assert_eq!(minic::parse_count(), once, "the corpus parses each kernel once");
    assert_eq!(eval::corpus_views().len(), 198);
    assert_eq!(eval::corpus_surrogates().len(), 4);
    assert_eq!(minic::parse_count(), once, "views and calibration reuse the corpus's ASTs");

    let first = regenerate();
    assert_eq!(minic::parse_count(), once, "Tables 2-6 must not parse");
    let second = regenerate();
    assert_eq!(minic::parse_count(), once, "a second regeneration must not parse");
    assert_eq!(first, second, "cached rerun must reproduce identical tables");
}
