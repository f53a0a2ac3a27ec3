//! Parse-count proof for `Pipeline::analyze`.
//!
//! Gated behind the `count-parses` feature (an atomic counter inside
//! `minic::parse`, process-wide, hence this file's own test binary):
//!
//! ```text
//! cargo test -p racellm --features count-parses --test analyze_parses
//! ```
#![cfg(feature = "count-parses")]

/// Building the pipeline and analyzing one snippet parses exactly that
/// snippet: the corpus (201 parses) is never built on this path.
#[test]
fn pipeline_analyze_parses_the_snippet_once() {
    let src = "int a[100];\nint main(void) {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 99; i++)\n    a[i] = a[i + 1];\n  return 0;\n}\n";
    minic::reset_parse_count();
    let pipeline = racellm::Pipeline::new();
    assert_eq!(minic::parse_count(), 0, "building the pipeline parses nothing");
    let report = pipeline.analyze(src).expect("parses");
    assert_eq!(minic::parse_count(), 1, "analyze parses the snippet once");
    assert!(report.static_verdict && report.dynamic_verdict);
    assert_eq!(report.llm_answers.len(), 4);
}
