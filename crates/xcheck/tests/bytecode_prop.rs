//! Property tests: the bytecode executor agrees with the AST
//! interpreter on every kernel the differential generator can produce —
//! base kernels across all five patterns × schedules × sizes, plus
//! every applicable label-flip mutant — under arbitrary schedule seeds.
//!
//! Two layers of agreement:
//!
//! * **raw runs** — every kernel lowers, and `run_program` must be
//!   observationally identical to `hbsan::run` (trace, printed output,
//!   exit code, schedule-sensitivity flag), and must fail with the
//!   interpreter's error exactly when the interpreter fails;
//! * **verdicts** — the compiled sweep must reach the interpreter
//!   sweep's verdict;
//! * **detection's runs** — `xcheck::detect` keeps one observation per
//!   run of its oracle sweep, and the repair loop certifies against
//!   them, so each must be what the interpreter observes on that
//!   [`DEFAULT_SEEDS`] seed, and the merged report must be the
//!   interpreter sweep's. Checked on every generated kernel and mutant
//!   and on every corpus kernel.

use hbsan::obs::{first_difference, seed_observation};
use hbsan::Config;
use proptest::prelude::*;
use xcheck::DEFAULT_SEEDS;

/// Raw-run and verdict agreement for one parsed unit under one seed.
fn assert_equiv(unit: &minic::TranslationUnit, sched_seed: u64) -> Result<(), TestCaseError> {
    let cfg = Config { seed: sched_seed, ..Config::default() };
    let prog = hbsan::lower(unit);

    match (hbsan::run_program(&prog, &cfg), hbsan::run(unit, &cfg)) {
        (Ok(f), Ok(s)) => {
            prop_assert_eq!(&f.trace, &s.trace, "trace diverges");
            prop_assert_eq!(&f.printed, &s.printed, "printed output diverges");
            prop_assert_eq!(f.exit, s.exit, "exit code diverges");
            prop_assert_eq!(
                f.schedule_sensitive,
                s.schedule_sensitive,
                "schedule-sensitivity flag diverges"
            );
        }
        (Err(f), Err(s)) => prop_assert_eq!(f, s, "errors diverge"),
        (f, s) => {
            return Err(TestCaseError::Fail(format!(
                "error mismatch: exec {f:?} vs interp {s:?}"
            )));
        }
    }

    let seeds = [sched_seed, sched_seed ^ 0x9E37];
    let compiled = hbsan::check_adversarial_compiled(unit, Some(&prog), &cfg, &seeds)
        .ok()
        .map(|s| s.report.has_race());
    let reference = hbsan::check_adversarial(unit, &cfg, &seeds).ok().map(|r| r.has_race());
    prop_assert_eq!(compiled, reference, "sweep verdict diverges");
    assert_detect_matches_reference(unit)
}

/// `detect`'s kept runs and merged report against the interpreter.
fn assert_detect_matches_reference(unit: &minic::TranslationUnit) -> Result<(), TestCaseError> {
    let artifact = llm::AnalyzedKernel::from_parsed(&minic::print_unit(unit), Some(unit.clone()));
    let ev = xcheck::detect(&artifact).expect("a parsed kernel is detected");
    let cfg = Config::default();
    let reference = hbsan::check_adversarial(unit, &cfg, &DEFAULT_SEEDS).ok();
    prop_assert_eq!(&ev.dynamic, &reference, "detect's merged report diverges");
    if ev.dynamic.is_none() {
        prop_assert!(ev.observations.is_empty(), "a failed sweep keeps no runs");
        return Ok(());
    }
    for (i, seed) in DEFAULT_SEEDS.into_iter().enumerate() {
        let expected = hbsan::observe(unit, &Config { seed, ..cfg.clone() })
            .map_err(|e| TestCaseError::Fail(format!("seed {seed}: interpreter fails: {e}")))?;
        let Some(kept) = seed_observation(&ev.observations, i) else {
            return Err(TestCaseError::Fail(format!("seed {seed}: detect kept no run")));
        };
        prop_assert_eq!(first_difference(kept, &expected, &[]), None, "seed {} diverges", seed);
        prop_assert_eq!(kept.schedule_sensitive, expected.schedule_sensitive);
    }
    Ok(())
}

#[test]
fn corpus_kernels_detect_like_the_reference() {
    let corpus = drb_gen::corpus();
    let failures: Vec<String> = par::par_map(corpus, par::default_workers(), |k| {
        let unit = minic::parse(&k.trimmed_code).expect("corpus kernels parse");
        assert_detect_matches_reference(&unit).err().map(|e| format!("{}: {e:?}", k.name))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn generated_kernels_execute_identically(
        gen_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let k = xcheck::generate(gen_seed, 1).pop().unwrap();
        let unit = minic::parse(&k.code).expect("generated kernels parse");
        assert_equiv(&unit, sched_seed)?;
    }

    #[test]
    fn label_flip_mutants_execute_identically(
        gen_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let k = xcheck::generate(gen_seed, 1).pop().unwrap();
        let unit = minic::parse(&k.code).expect("generated kernels parse");
        for (m, _expected) in xcheck::FlipMutation::applicable(&k) {
            let mutant = xcheck::apply_flip(&unit, m)
                .expect("applicable flips apply to unmutated kernels");
            assert_equiv(&mutant, sched_seed)?;
        }
    }
}
