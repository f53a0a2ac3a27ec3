//! Acceptance tests for the differential-testing subsystem: AST
//! round-trips over both corpora, smoke-gate determinism, and
//! shrunk-disagreement reproduction.

use proptest::prelude::*;
use xcheck::{reproduces, XConfig};

/// parse → print → re-parse is the identity modulo spans.
fn roundtrips(name: &str, code: &str) {
    let Ok(mut u1) = minic::parse(code) else {
        return; // corpus kernels outside the minic subset are skipped
    };
    let printed = minic::print_unit(&u1);
    let mut u2 = minic::parse(&printed)
        .unwrap_or_else(|e| panic!("{name}: printed output failed to reparse: {e}\n{printed}"));
    u1.strip_spans();
    u2.strip_spans();
    assert_eq!(u1, u2, "{name}: round-trip changed the AST");
}

#[test]
fn corpus_kernels_roundtrip() {
    let mut parsed = 0;
    for k in drb_gen::corpus() {
        if minic::parse(&k.trimmed_code).is_ok() {
            parsed += 1;
        }
        roundtrips(&k.name, &k.trimmed_code);
    }
    assert!(parsed > 100, "corpus coverage collapsed: only {parsed} kernels parse");
}

#[test]
fn generated_kernels_roundtrip() {
    for k in xcheck::generate(XConfig::default().seed, 64) {
        roundtrips(&k.name, &k.code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_kernels_roundtrip_any_seed(seed in 0u64..1_000_000) {
        for k in xcheck::generate(seed, 8) {
            roundtrips(&k.name, &k.code);
        }
    }
}

#[test]
fn smoke_gate_passes_and_is_deterministic() {
    // The same double-run the tier-1 gate performs, at reduced size so
    // the debug-profile test stays fast. Corpus invariance included.
    let cfg = XConfig { count: 16, shrink: false, ..Default::default() };
    let corpus: Vec<(&str, &str)> = drb_gen::corpus()
        .iter()
        .step_by(40)
        .map(|k| (k.name.as_str(), k.trimmed_code.as_str()))
        .collect();
    let a = xcheck::run(&cfg, &corpus);
    let b = xcheck::run(&cfg, &corpus);
    assert_eq!(a.matrix, b.matrix, "agreement matrix must be seed-deterministic");
    assert_eq!(a.disagreements.len(), b.disagreements.len());
    assert!(a.sem_violations.is_empty(), "{:#?}", a.sem_violations);
    assert_eq!(a.corpus_checked, corpus.len());
    assert!(a.sem_mutants > 0);
}

#[test]
fn shrunk_disagreements_reproduce() {
    // Indirect identity maps guarantee static/dynamic disagreements in
    // any decent-sized batch; shrunk kernels must keep the signature
    // and never grow.
    let cfg = XConfig { count: 48, shrink: true, max_shrink: 4, ..Default::default() };
    let r = xcheck::run(&cfg, &[]);
    assert!(!r.disagreements.is_empty(), "expected at least one disagreement in 48 kernels");
    let mut shrunk_seen = 0;
    for d in &r.disagreements {
        if let Some(s) = &d.shrunk {
            shrunk_seen += 1;
            assert!(reproduces(s, d.verdicts), "{}: shrunk kernel lost the signature", d.name);
            assert!(s.len() <= d.code.len() + 1, "{}: shrink grew the kernel", d.name);
        }
    }
    assert!(shrunk_seen > 0);
}
