//! `hbsan` — a dynamic happens-before/lockset data-race checker.
//!
//! This crate plays the role of a ThreadSanitizer-class dynamic tool in
//! the reproduction (the paper's §2.2 contrasts static analysis with
//! dynamic happens-before detection). It has two halves:
//!
//! 1. execution of a `minic` kernel under a simulated OpenMP runtime
//!    (threads, worksharing schedules, critical/atomic/locks/barriers/
//!    single/master/sections/tasks) that records a linearized
//!    [`trace::Trace`]. The oracle [`lower`]s each kernel once to
//!    bytecode and replays it on the [`exec`] executor; the AST
//!    [`interp`]reter is the reference semantics the executor is tested
//!    against;
//! 2. [`mod@analyze`] — a FastTrack-style vector-clock replay that flags
//!    accesses unordered by happens-before.
//!
//! Every run is bounded: fuel caps its steps, [`MAX_CALL_DEPTH`] its
//! call nesting and [`MAX_HEAP_CELLS`] its heap, each raising an
//! [`RtError`] in both engines.
//!
//! Running multiple seeds varies worksharing assignment and
//! single-winner choices like re-running a real binary. [`sweep`] is
//! the one seed loop: it runs the seeds in order on the calling thread,
//! on either engine, and hands its caller each run's [`Observation`]
//! with that run's report, so one execution per seed serves race
//! detection and output comparison alike. It short-circuits when the
//! first run never consulted the scheduler RNG — static schedules are
//! seed-independent, so one run already covers every seed.
//! [`check_adversarial`] and [`check_adversarial_compiled`] fold it into
//! a merged report. Parallelism belongs to callers that fan out over
//! kernels or requests.
//!
//! ```
//! let report = hbsan::check_source(r#"
//! int a[100];
//! int main() {
//!   #pragma omp parallel for
//!   for (int i = 0; i < 99; i++)
//!     a[i] = a[i + 1] + 1;
//!   return 0;
//! }
//! "#, &hbsan::Config::default()).unwrap();
//! assert!(report.has_race());
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod exec;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod obs;
pub mod sched;
pub mod trace;
pub mod value;
pub mod vc;

pub use analyze::{analyze, analyze_events, analyze_reference, Analyzer, DynRace, DynReport};
pub use exec::{run_oracle, run_program};
pub use interp::{run, Config, RtError, RunOutput, MAX_CALL_DEPTH, MAX_HEAP_CELLS};
pub use ir::{OracleRun, Program, FORMAT_VERSION};
pub use lower::lower;
pub use obs::{observe, observe_oracle, Observation};
pub use trace::{Event, EventKind, Op, Site, SiteId, SyncId, SyncKey, Trace};
pub use vc::{Epoch, VectorClock};

#[cfg(feature = "count-clock-allocs")]
pub use vc::{clock_counts, reset_clock_counts};

#[cfg(feature = "count-ir-allocs")]
pub use exec::alloc_count as ir_alloc_count;

use minic::TranslationUnit;
use std::ops::ControlFlow;

/// Run one schedule and analyze the trace.
pub fn check(unit: &TranslationUnit, cfg: &Config) -> Result<DynReport, RtError> {
    let out = run(unit, cfg)?;
    Ok(analyze(&out.trace))
}

/// Parse, run one schedule, analyze.
pub fn check_source(src: &str, cfg: &Config) -> Result<DynReport, Box<dyn std::error::Error>> {
    let unit = minic::parse(src)?;
    Ok(check(&unit, cfg)?)
}

/// The seed loop every sweep shares, on either engine. Calls
/// `run_seed` once per seed, in seed order on the calling thread
/// ([`observe_oracle`] on the oracle), analyzes each run's trace and
/// hands `visit` the run's [`Observation`] and its report. Returns the
/// seed-order merge of the reports of the runs it made.
///
/// The loop stops after the first run when that run never consulted
/// the scheduler RNG (every other seed would replay its trace, so it
/// stands for all of them), at the first error, which it returns, and
/// after any run for which `visit` breaks.
pub fn sweep(
    seeds: &[u64],
    mut run_seed: impl FnMut(u64) -> Result<(Observation, Trace), RtError>,
    mut visit: impl FnMut(Observation, &DynReport) -> ControlFlow<()>,
) -> Result<DynReport, RtError> {
    let mut merged = DynReport::default();
    for (i, &seed) in seeds.iter().enumerate() {
        let (observation, trace) = run_seed(seed)?;
        let report = analyze(&trace);
        let replays = i == 0 && !observation.schedule_sensitive;
        let flow = visit(observation, &report);
        if i == 0 {
            merged = report;
        } else {
            merged.merge(report);
        }
        if replays || flow.is_break() {
            break;
        }
    }
    Ok(merged)
}

/// Union reports across several seeds (adversarial schedule exploration)
/// on the AST interpreter — the reference for
/// [`check_adversarial_compiled`]: [`sweep`] on the interpreter, keeping
/// only the merged report.
pub fn check_adversarial(
    unit: &TranslationUnit,
    base: &Config,
    seeds: &[u64],
) -> Result<DynReport, RtError> {
    let run_seed = |seed| obs::observe_traced(unit, &Config { seed, ..base.clone() });
    sweep(seeds, run_seed, |_, _| ControlFlow::Continue(()))
}

/// Result of a compiled adversarial sweep.
#[derive(Debug)]
pub struct CompiledSweep {
    /// Merged report across seeds (byte-identical to
    /// [`check_adversarial`]'s).
    pub report: DynReport,
}

/// The oracle's adversarial sweep: [`check_adversarial`] on the bytecode
/// executor. Pass the kernel's cached lowered [`Program`], or `None` to
/// lower `unit` here. The merged report — and any error — is identical
/// to the interpreter sweep's.
pub fn check_adversarial_compiled(
    unit: &TranslationUnit,
    prog: Option<&Program>,
    base: &Config,
    seeds: &[u64],
) -> Result<CompiledSweep, RtError> {
    let lowered;
    let prog = match prog {
        Some(p) => p,
        None => {
            lowered = lower(unit);
            &lowered
        }
    };
    let run_seed = |seed| observe_oracle(unit, prog, &Config { seed, ..base.clone() });
    let report = sweep(seeds, run_seed, |_, _| ControlFlow::Continue(()))?;
    Ok(CompiledSweep { report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn yes(src: &str) {
        let r = check_source(src, &Config::default()).unwrap();
        assert!(r.has_race(), "expected race:\n{src}");
    }

    fn no(src: &str) {
        let r = check_source(src, &Config::default()).unwrap();
        assert!(!r.has_race(), "unexpected race {:#?} in:\n{src}", r.races);
    }

    #[test]
    fn antidep_races() {
        yes("int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i]=a[i+1]+1;\n return 0; }");
    }

    #[test]
    fn elementwise_clean() {
        no("int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<100;i++) a[i]=a[i]*2;\n return 0; }");
    }

    #[test]
    fn missing_reduction_races() {
        yes("int main() { int sum; int a[64]; sum = 0;\n#pragma omp parallel for\nfor (int i=0;i<64;i++) sum += a[i];\n return 0; }");
    }

    #[test]
    fn reduction_clean_and_correct() {
        let src = "int main() { int sum; int a[64]; sum = 0; for (int k=0;k<64;k++) a[k]=1;\n#pragma omp parallel for reduction(+: sum)\nfor (int i=0;i<64;i++) sum += a[i];\n printf(\"%d\", sum); return sum; }";
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert_eq!(out.exit, Some(64), "reduction must compute the right value");
        assert!(!analyze(&out.trace).has_race());
    }

    #[test]
    fn critical_clean() {
        no("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp critical\n{ x = x + 1; }\n}\n return 0; }");
    }

    #[test]
    fn atomic_clean() {
        no("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp atomic\n x += 1;\n}\n return 0; }");
    }

    #[test]
    fn replicated_write_races() {
        yes("int x; int main() {\n#pragma omp parallel\n{ x = omp_get_thread_num(); }\n return 0; }");
    }

    #[test]
    fn barrier_orders() {
        no("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp master\n x = 1;\n#pragma omp barrier\n int y; y = x;\n}\n return 0; }");
    }

    #[test]
    fn master_without_barrier_races() {
        yes("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp master\n x = 1;\n int y; y = x;\n}\n return 0; }");
    }

    #[test]
    fn aliasing_race_detected_dynamically() {
        // The case the static detector misses (name-based): p aliases a.
        yes("int a[100]; int main() { int* p; p = a;\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i] = p[i+1];\n return 0; }");
    }

    #[test]
    fn lock_protected_clean() {
        no("int x; long lck; int main() { omp_init_lock(&lck);\n#pragma omp parallel\n{ omp_set_lock(&lck); x = x + 1; omp_unset_lock(&lck); }\n omp_destroy_lock(&lck); return 0; }");
    }

    #[test]
    fn sections_conflict_races() {
        yes("int x; int main() {\n#pragma omp parallel sections\n{\n#pragma omp section\n x = 1;\n#pragma omp section\n x = 2;\n}\n return 0; }");
    }

    #[test]
    fn sections_disjoint_clean() {
        no("int x; int y; int main() {\n#pragma omp parallel sections\n{\n#pragma omp section\n x = 1;\n#pragma omp section\n y = 2;\n}\n return 0; }");
    }

    #[test]
    fn tasks_conflict_races() {
        yes("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp single\n{\n#pragma omp task\n x = 1;\n#pragma omp task\n x = 2;\n}\n}\n return 0; }");
    }

    #[test]
    fn taskwait_orders_tasks_vs_parent() {
        no("int x; int main() {\n#pragma omp parallel\n{\n#pragma omp single\n{\n#pragma omp task\n x = 1;\n#pragma omp taskwait\n int y; y = x;\n}\n}\n return 0; }");
    }

    #[test]
    fn values_computed_correctly() {
        let src = r#"
int main() {
  int a[10];
  int i;
  for (i = 0; i < 10; i++) a[i] = i;
  int total = 0;
  for (i = 0; i < 10; i++) total += a[i];
  return total;
}
"#;
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert_eq!(out.exit, Some(45));
    }

    #[test]
    fn parallel_for_computes_correct_values() {
        let src = r#"
int a[64];
int main() {
  #pragma omp parallel for
  for (int i = 0; i < 64; i++)
    a[i] = i * 2;
  int total = 0;
  for (int i = 0; i < 64; i++) total += a[i];
  return total;
}
"#;
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert_eq!(out.exit, Some(63 * 64));
    }

    #[test]
    fn firstprivate_copies_value() {
        let src = r#"
int main() {
  int x;
  int out[4];
  x = 7;
  #pragma omp parallel firstprivate(x) num_threads(4)
  {
    out[omp_get_thread_num()] = x;
  }
  return out[3];
}
"#;
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert_eq!(out.exit, Some(7));
    }

    #[test]
    fn lastprivate_writes_back() {
        let src = r#"
int main() {
  int last;
  last = -1;
  #pragma omp parallel for lastprivate(last)
  for (int i = 0; i < 32; i++)
    last = i;
  return last;
}
"#;
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert_eq!(out.exit, Some(31));
    }

    #[test]
    fn fuel_guards_infinite_loops() {
        let src = "int main() { while (1) { int x; x = 1; } return 0; }";
        let unit = minic::parse(src).unwrap();
        let err = run(&unit, &Config { fuel: 10_000, ..Config::default() }).unwrap_err();
        assert_eq!(err, RtError::FuelExhausted);
    }

    #[test]
    fn out_of_bounds_reported() {
        let src = "int a[4]; int main() { a[10] = 1; return 0; }";
        let unit = minic::parse(src).unwrap();
        assert!(matches!(run(&unit, &Config::default()), Err(RtError::BadAddress(_))));
    }

    #[test]
    fn adversarial_union_is_superset() {
        let src = "int a[100]; int main() {\n#pragma omp parallel for schedule(dynamic)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let single = check(&unit, &Config::default()).unwrap();
        let multi = check_adversarial(&unit, &Config::default(), &[1, 2, 3]).unwrap();
        assert!(multi.races.len() >= single.races.len());
    }

    #[test]
    fn adversarial_sweeps_equal_seed_order_merge() {
        let src = "int a[100]; int main() {\n#pragma omp parallel for schedule(dynamic)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let cfg = Config::default();
        let seeds = [1u64, 7, 23, 42, 99];
        let mut reference = DynReport::default();
        for &seed in &seeds {
            reference.merge(check(&unit, &Config { seed, ..cfg.clone() }).unwrap());
        }
        assert_eq!(check_adversarial(&unit, &cfg, &seeds).unwrap(), reference);
        let compiled = check_adversarial_compiled(&unit, None, &cfg, &seeds).unwrap();
        assert_eq!(compiled.report, reference);
    }

    #[test]
    fn sweep_returns_the_first_error_in_seed_order() {
        let src = "int a[100]; int main() {\n#pragma omp parallel for schedule(dynamic)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let go = |_, _: &DynReport| ControlFlow::Continue(());
        let mut ran = Vec::new();
        let result = sweep(
            &[1, 7, 23, 42],
            |seed| {
                ran.push(seed);
                match seed {
                    23 => Err(RtError::DivByZero),
                    42 => Err(RtError::FuelExhausted),
                    _ => obs::observe_traced(&unit, &Config { seed, ..Config::default() }),
                }
            },
            go,
        );
        assert_eq!(result, Err(RtError::DivByZero));
        assert_eq!(ran, [1, 7, 23], "no seed after the first error runs");

        let mut ran = Vec::new();
        let result = sweep(
            &[5, 6],
            |seed| {
                ran.push(seed);
                Err(RtError::CallTooDeep)
            },
            go,
        );
        assert_eq!(result, Err(RtError::CallTooDeep));
        assert_eq!(ran, [5]);
    }

    #[test]
    fn sweep_stops_after_the_run_visit_breaks_on() {
        let src = "int a[100]; int main() {\n#pragma omp parallel for schedule(dynamic)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let prog = lower(&unit);
        let mut ran = Vec::new();
        let run_seed = |seed| {
            ran.push(seed);
            observe_oracle(&unit, &prog, &Config { seed, ..Config::default() })
        };
        let mut visited = Vec::new();
        let report = sweep(&[1, 7, 23], run_seed, |o, r| {
            visited.push(o);
            if r.has_race() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(ran, [1], "the racy first run ends the sweep");
        assert_eq!(visited, [observe(&unit, &Config { seed: 1, ..Config::default() }).unwrap()]);
        assert_eq!(report, check(&unit, &Config { seed: 1, ..Config::default() }).unwrap());
    }

    #[test]
    fn static_schedule_is_seed_insensitive() {
        // A statically-scheduled kernel never consults the RNG, so the
        // sweep may stop after one run — verify the flag and that the
        // short-circuited sweep still equals the full serial merge.
        let src = "int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert!(!out.schedule_sensitive);
        let seeds = [1u64, 7, 23];
        let swept = check_adversarial(&unit, &Config::default(), &seeds).unwrap();
        let mut reference = DynReport::default();
        for &seed in &seeds {
            reference.merge(check(&unit, &Config { seed, ..Config::default() }).unwrap());
        }
        assert_eq!(swept, reference);
    }

    #[test]
    fn dynamic_schedule_is_seed_sensitive() {
        let src = "int a[100]; int main() {\n#pragma omp parallel for schedule(dynamic)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
        let unit = minic::parse(src).unwrap();
        let out = run(&unit, &Config::default()).unwrap();
        assert!(out.schedule_sensitive);
    }

    #[test]
    fn nowait_overlap_races() {
        // The second loop reads across the chunk boundary (a[j+1]), so
        // thread t's phase-overlapped read hits thread t+1's write.
        yes("int a[65]; int main() {\n#pragma omp parallel\n{\n#pragma omp for nowait\nfor (int i=0;i<64;i++) a[i] = i;\n#pragma omp for\nfor (int j=0;j<63;j++) a[j] = a[j+1];\n}\n return 0; }");
    }

    #[test]
    fn nowait_identical_static_chunks_clean() {
        // With default static scheduling and identical bounds, per-element
        // ownership coincides across the two loops: the nowait is benign
        // under this schedule, and happens-before correctly stays silent.
        no("int a[64]; int main() {\n#pragma omp parallel\n{\n#pragma omp for nowait\nfor (int i=0;i<64;i++) a[i] = i;\n#pragma omp for\nfor (int j=0;j<64;j++) a[j] = a[j] + 1;\n}\n return 0; }");
    }

    #[test]
    fn ws_loops_with_barrier_clean() {
        no("int a[64]; int main() {\n#pragma omp parallel\n{\n#pragma omp for\nfor (int i=0;i<64;i++) a[i] = i;\n#pragma omp for\nfor (int j=0;j<64;j++) a[j] = a[j] + 1;\n}\n return 0; }");
    }
}
