//! `eval` — metrics, output parsing, and the experiment runners that
//! regenerate every table in the paper's evaluation (§4).
//!
//! * [`metrics`] — confusion matrices and recall/precision/F1 (§3.6),
//! * [`parse`] — layered LLM-output parsing with regex-style fallbacks
//!   (§4.5),
//! * [`detection`] / [`varid`] — the S1 and S2/S3 experiment loops,
//! * [`tables`] — one runner per paper table (2, 3, 4, 5, 6).

#![warn(missing_docs)]

pub mod detection;
pub mod metrics;
pub mod parse;
pub mod stats;
pub mod tables;
pub mod varid;

pub use detection::{run_baseline, run_detection, run_detection_cells, surrogates, Exchange};
pub use metrics::Confusion;
pub use parse::{parse_pairs, parse_verdict, ParsedPair, Verdict};
pub use stats::{compare_classifiers, mcnemar_exact, PairedOutcomes};
pub use tables::{
    corpus_surrogates, corpus_views, cv_tables_with_workers, format_cv_table,
    format_detection_table, table2, table3, table4, table5, table6, CvRow, DetectionRow,
};
pub use varid::{
    match_level, pair_matches, run_varid, run_varid_cells, run_varid_levels, MatchLevel,
    VarIdExchange,
};
