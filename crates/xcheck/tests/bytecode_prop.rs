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
//!   sweep's verdict.

use hbsan::Config;
use proptest::prelude::*;

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
    Ok(())
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
