//! `racecheck` — a static OpenMP data-race detector.
//!
//! This crate plays the role of the paper's "traditional tool" baseline
//! (Intel Inspector in Table 3): a mature, non-LLM analysis with high
//! but imperfect accuracy. The pipeline is
//!
//! 1. [`inline`] — conservative intra-unit call inlining,
//! 2. [`events`] — context-aware parallel-access event collection
//!    (barrier segments, sharing attributes, mutual exclusion, execution
//!    multiplicity),
//! 3. [`mod@detect`] — pairwise conflict classification using the `depend`
//!    crate's GCD/Banerjee dependence tests.
//!
//! ```
//! let report = racecheck::check_source(r#"
//! int a[1000];
//! int main() {
//!   int i;
//!   #pragma omp parallel for
//!   for (i = 0; i < 999; i++)
//!     a[i] = a[i + 1] + 1;
//!   return 0;
//! }
//! "#).unwrap();
//! assert!(report.has_race());
//! ```

#![warn(missing_docs)]

pub mod detect;
pub mod events;
pub mod inline;

pub use detect::{detect, Race, RaceReason, RaceReport};
pub use events::{collect, Collected, Event, ExecCtx, WsCtx};
pub use inline::inline_unit;

use minic::TranslationUnit;

/// Analyze a parsed unit: inline, collect events, detect races.
pub fn check(unit: &TranslationUnit) -> RaceReport {
    let inlined = inline_unit(unit);
    let collected = collect(&inlined);
    detect(&collected.events)
}

/// Parse and analyze a source string.
pub fn check_source(src: &str) -> minic::Result<RaceReport> {
    Ok(check(&minic::parse(src)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_interprocedural_race() {
        let report = check_source(
            r#"
int a[100];
void work(int i) { a[i] = a[i + 1]; }
int main() {
  #pragma omp parallel for
  for (int i = 0; i < 99; i++)
    work(i);
  return 0;
}
"#,
        )
        .unwrap();
        assert!(report.has_race());
    }

    #[test]
    fn aliasing_defeats_the_detector() {
        // `p` aliases `a`, so p[i+1] races with a[i] — but name-based
        // analysis cannot see it. This false negative is intentional: it
        // is one of the adversarial patterns that keeps the baseline's
        // recall below 1.0 (paper Table 3, Ins row: 11 FNs).
        let report = check_source(
            r#"
int a[100];
int main() {
  int* p;
  p = a;
  #pragma omp parallel for
  for (int i = 0; i < 99; i++)
    a[i] = p[i + 1];
  return 0;
}
"#,
        )
        .unwrap();
        assert!(!report.has_race());
    }

    #[test]
    fn parse_error_propagates() {
        assert!(check_source("int main() {").is_err());
    }
}
