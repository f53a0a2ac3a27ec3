//! Output observation: what a kernel *computes*, captured for
//! equivalence checking.
//!
//! Race detection answers "is this kernel broken"; the repair loop also
//! has to answer "does the patched kernel still compute the same
//! thing". An [`Observation`] is the kernel's observable behavior under
//! one schedule seed — every `printf` line, `main`'s exit value, and
//! the final contents of every file-scope variable — captured by either
//! execution engine:
//!
//! * the AST interpreter snapshots its global frame after the run
//!   ([`interp::run_with_globals`](crate::interp)), and
//! * the bytecode executor snapshots its global slots
//!   ([`exec::run_program_with_globals`](crate::exec)); the lowerer
//!   numbers one slot per file-scope declarator in declaration order,
//!   which is exactly the order [`global_names`] reports, and records
//!   each slot's name, so both engines produce identically-keyed
//!   observations without the executor walking the source per run.
//!
//! [`observe_oracle`] is the oracle's observation: it runs the bytecode
//! executor (like [`run_oracle`](crate::exec::run_oracle)) and hands
//! back the run's trace beside the observation, so one execution can
//! feed both the happens-before analysis and the output comparison —
//! which is how [`sweep`](crate::sweep) runs every seed.
//! [`observe`] is the interpreter's, the reference it is tested
//! against.
//!
//! Comparison ([`first_difference`]) is byte-identical: floats compare
//! by bit pattern, not by `==`, so `-0.0` vs `0.0` (and NaN payloads)
//! count as differences — a certificate claiming "same output" must not
//! quietly round. The one escape hatch is the `scratch` list: a patch
//! that privatizes a variable declares its shared cell dead scratch
//! storage, so its final value is excluded from the comparison (and the
//! certificate records that exclusion).

use crate::exec::run_program_with_globals;
use crate::interp::{run_with_globals, Config, RtResult};
use crate::ir::Program;
use crate::trace::Trace;
use crate::value::Value;
use minic::ast::{Item, TranslationUnit};

/// Observable behavior of one run under one schedule seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Values printed by `printf`, in order (one entry per call).
    pub printed: Vec<String>,
    /// `main`'s return value, if it returned one.
    pub exit: Option<i64>,
    /// Final value of every file-scope variable, in declaration order.
    /// Scalars are single-element vectors; arrays are flattened
    /// row-major, exactly as the heap stores them.
    pub globals: Vec<(String, Vec<Value>)>,
    /// Whether the scheduler consulted its RNG during this run (when
    /// false, every seed produces exactly this observation).
    pub schedule_sensitive: bool,
}

/// Names of every file-scope variable, in declaration order — the order
/// the lowerer numbers global slots in.
pub fn global_names(unit: &TranslationUnit) -> Vec<String> {
    let mut names = Vec::new();
    for item in &unit.items {
        if let Item::Global(d) = item {
            for v in &d.vars {
                names.push(v.name.clone());
            }
        }
    }
    names
}

fn pack(
    names: impl ExactSizeIterator<Item = String>,
    out: crate::interp::RunOutput,
    globals: Vec<Vec<Value>>,
) -> (Observation, Trace) {
    debug_assert_eq!(names.len(), globals.len(), "one snapshot per file-scope declarator");
    let obs = Observation {
        printed: out.printed,
        exit: out.exit,
        globals: names.zip(globals).collect(),
        schedule_sensitive: out.schedule_sensitive,
    };
    (obs, out.trace)
}

/// Observe one AST-interpreter run (the reference semantics).
pub fn observe(unit: &TranslationUnit, cfg: &Config) -> RtResult<Observation> {
    observe_traced(unit, cfg).map(|(obs, _)| obs)
}

/// [`observe`], with the run's trace.
pub(crate) fn observe_traced(
    unit: &TranslationUnit,
    cfg: &Config,
) -> RtResult<(Observation, Trace)> {
    run_with_globals(unit, cfg)
        .map(|(out, globals)| pack(global_names(unit).into_iter(), out, globals))
}

/// Observe one bytecode-executor run of a lowered program, with the
/// run's trace. The globals' names come from the program's slot table,
/// so a run does not walk the source again.
pub fn observe_oracle(prog: &Program, cfg: &Config) -> RtResult<(Observation, Trace)> {
    run_program_with_globals(prog, cfg).map(|(out, globals)| {
        let names = prog.global_names.iter().map(|&n| prog.names[n as usize].clone());
        pack(names, out, globals)
    })
}

/// Bit-precise value identity (floats by bit pattern, so NaNs and
/// signed zeros compare like any other payload).
fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Ptr(p) => (2, p as u64),
    }
}

fn values_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| value_bits(x) == value_bits(y))
}

/// The first observable difference between two runs, rendered for a
/// certificate's evidence field — or `None` when the runs are
/// byte-identical. `scratch` names globals excluded from the comparison
/// (variables the patch privatizes; their shared cells are dead).
/// `schedule_sensitive` is a property of the engine, not of the output,
/// and is never compared.
pub fn first_difference(a: &Observation, b: &Observation, scratch: &[String]) -> Option<String> {
    if a.exit != b.exit {
        return Some(format!("exit: {:?} vs {:?}", a.exit, b.exit));
    }
    if a.printed.len() != b.printed.len() {
        return Some(format!("printed {} lines vs {}", a.printed.len(), b.printed.len()));
    }
    for (i, (x, y)) in a.printed.iter().zip(&b.printed).enumerate() {
        if x != y {
            return Some(format!("printed[{i}]: {x:?} vs {y:?}"));
        }
    }
    if a.globals.len() != b.globals.len() {
        return Some(format!("{} globals vs {}", a.globals.len(), b.globals.len()));
    }
    for ((na, va), (nb, vb)) in a.globals.iter().zip(&b.globals) {
        if na != nb {
            return Some(format!("global order: {na:?} vs {nb:?}"));
        }
        if scratch.iter().any(|s| s == na) {
            continue;
        }
        if !values_eq(va, vb) {
            let i = va.iter().zip(vb).position(|(&x, &y)| value_bits(x) != value_bits(y));
            return Some(match i {
                Some(i) if va.len() > 1 => format!("{na}[{i}]: {:?} vs {:?}", va[i], vb[i]),
                Some(i) => format!("{na}: {:?} vs {:?}", va[i], vb[i]),
                None => format!("{na}: {} cells vs {}", va.len(), vb.len()),
            });
        }
    }
    None
}

/// Whether two observations are byte-identical modulo `scratch`.
pub fn equivalent(a: &Observation, b: &Observation, scratch: &[String]) -> bool {
    first_difference(a, b, scratch).is_none()
}

/// A sweep's observation of its `i`-th seed, given the observations of
/// the runs it made, in seed order: run `i`, or the first run when the
/// sweep stopped after it because it ignored the seed (every seed
/// replays it). `None` past the runs of a sweep that stopped early for
/// another reason.
pub fn seed_observation(runs: &[Observation], i: usize) -> Option<&Observation> {
    runs.get(i).or_else(|| runs.first().filter(|o| !o.schedule_sensitive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;

    fn cfg(seed: u64) -> Config {
        Config { threads: 4, seed, fuel: 4_000_000 }
    }

    const SUM: &str = "int a[8]; int sum; double avg;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 8; i++) a[i] = i * i;\n  for (int i = 0; i < 8; i++) sum += a[i];\n  avg = sum / 8.0;\n  printf(\"%d\\n\", sum);\n  return sum;\n}\n";

    #[test]
    fn names_follow_declaration_order() {
        let unit = minic::parse("int a, b; double c; int main() { return 0; }").unwrap();
        assert_eq!(global_names(&unit), ["a", "b", "c"]);
    }

    #[test]
    fn interpreter_and_executor_observe_identically() {
        let unit = minic::parse(SUM).unwrap();
        let prog = lower(&unit);
        for seed in [1u64, 7, 23] {
            let via_interp = observe(&unit, &cfg(seed)).unwrap();
            let (obs, trace) = observe_oracle(&prog, &cfg(seed)).unwrap();
            assert_eq!(via_interp, obs);
            assert_eq!(trace, crate::run(&unit, &cfg(seed)).unwrap().trace);
        }
    }

    #[test]
    fn observation_captures_globals_exit_and_prints() {
        let unit = minic::parse(SUM).unwrap();
        let o = observe(&unit, &cfg(1)).unwrap();
        let sum: i64 = (0..8).map(|i| i * i).sum();
        assert_eq!(o.exit, Some(sum));
        assert_eq!(o.printed.len(), 1);
        let by_name: std::collections::HashMap<_, _> =
            o.globals.iter().map(|(n, v)| (n.as_str(), v)).collect();
        assert_eq!(by_name["sum"], &vec![Value::Int(sum)]);
        assert_eq!(by_name["a"].len(), 8);
        assert_eq!(by_name["avg"], &vec![Value::Float(sum as f64 / 8.0)]);
    }

    #[test]
    fn difference_reports_are_precise() {
        let unit = minic::parse(SUM).unwrap();
        let a = observe(&unit, &cfg(1)).unwrap();
        let mut b = a.clone();
        assert_eq!(first_difference(&a, &b, &[]), None);

        b.globals[0].1[3] = Value::Int(-1);
        let diff = first_difference(&a, &b, &[]).unwrap();
        assert!(diff.contains("a[3]"), "got {diff}");
        assert!(equivalent(&a, &b, &["a".to_string()]), "scratch exclusion must apply");

        let mut c = a.clone();
        c.exit = Some(0);
        assert!(first_difference(&a, &c, &[]).unwrap().starts_with("exit"));

        let mut d = a.clone();
        d.printed[0].push('!');
        assert!(first_difference(&a, &d, &[]).unwrap().contains("printed[0]"));
    }

    #[test]
    fn float_comparison_is_bitwise() {
        let unit = minic::parse("double x; int main() { x = 0.0; return 0; }").unwrap();
        let a = observe(&unit, &cfg(1)).unwrap();
        let mut b = a.clone();
        b.globals[0].1[0] = Value::Float(-0.0);
        assert!(first_difference(&a, &b, &[]).is_some(), "-0.0 must differ from 0.0");
    }

    #[test]
    fn schedule_sensitivity_is_not_compared() {
        let unit = minic::parse(SUM).unwrap();
        let a = observe(&unit, &cfg(1)).unwrap();
        let mut b = a.clone();
        b.schedule_sensitive = !b.schedule_sensitive;
        assert_eq!(first_difference(&a, &b, &[]), None);
    }
}
