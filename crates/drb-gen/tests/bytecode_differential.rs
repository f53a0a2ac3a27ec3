//! The bytecode executor must be **observationally identical** to the
//! AST interpreter: for every kernel × schedule seed, `run_program` must
//! produce the same trace (event order, interned sites, raw heap
//! addresses), the same printed lines, exit code, and
//! schedule-sensitivity flag — and it must fail exactly where the
//! interpreter fails, with the same error. Every corpus kernel lowers
//! and is compared, and so is a fixture list of shapes that once kept
//! a kernel off the bytecode path or took a process down. On top of
//! the raw runs, the compiled adversarial sweep must merge to the same
//! `DynReport` (byte-for-byte, including the epoch interpreter and the
//! reference analyzer) as the interpreter sweep.

use drb_gen::corpus;
use hbsan::{analyze, analyze_reference, Config, RtError};

const SEEDS: [u64; 3] = [1, 7, 23];

/// Run `unit` on both engines under every seed; describe each
/// divergence.
fn divergences(name: &str, unit: &minic::TranslationUnit) -> Vec<String> {
    let prog = hbsan::lower(unit);
    let mut bad = Vec::new();
    for seed in SEEDS {
        let cfg = Config { seed, ..Config::default() };
        match (hbsan::run_program(&prog, &cfg), hbsan::run(unit, &cfg)) {
            (Ok(f), Ok(s)) => {
                if f.trace != s.trace {
                    bad.push(format!("{name} seed {seed}: trace diverges"));
                }
                if f.printed != s.printed {
                    bad.push(format!(
                        "{name} seed {seed}: printed {:?} != {:?}",
                        f.printed, s.printed
                    ));
                }
                if f.exit != s.exit {
                    bad.push(format!("{name} seed {seed}: exit {:?} != {:?}", f.exit, s.exit));
                }
                if f.schedule_sensitive != s.schedule_sensitive {
                    bad.push(format!("{name} seed {seed}: schedule_sensitive flag"));
                }
                let fr = analyze(&f.trace);
                if fr != analyze(&s.trace) {
                    bad.push(format!("{name} seed {seed}: DynReport diverges"));
                }
                if fr != analyze_reference(&f.trace) {
                    bad.push(format!("{name} seed {seed}: reference analyzer"));
                }
            }
            (Err(f), Err(s)) if f == s => {}
            (f, s) => bad.push(format!(
                "{name} seed {seed}: exec {:?} vs interp {:?}",
                f.map(|o| o.exit),
                s.map(|o| o.exit)
            )),
        }
    }
    bad
}

#[test]
fn bytecode_matches_interpreter_on_every_corpus_kernel() {
    let results: Vec<Option<Vec<String>>> = par::par_map(corpus(), par::default_workers(), |k| {
        let unit = minic::parse(&k.trimmed_code).ok()?;
        Some(divergences(&k.name, &unit))
    });
    let compared = results.iter().flatten().count();
    let mismatches: Vec<String> = results.into_iter().flatten().flatten().collect();
    assert!(
        mismatches.is_empty(),
        "{} bytecode divergences:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(compared, corpus().len(), "every corpus kernel parses, lowers and is compared");
    assert_eq!(compared, 201);
}

#[test]
fn compiled_sweep_matches_interpreter_sweep_on_every_corpus_kernel() {
    let diffs: Vec<String> = par::par_map(corpus(), par::default_workers(), |k| {
        let unit = minic::parse(&k.trimmed_code).ok()?;
        let prog = hbsan::lower(&unit);
        let cfg = Config::default();
        let compiled = hbsan::check_adversarial_compiled(&unit, Some(&prog), &cfg, &SEEDS);
        let reference = hbsan::check_adversarial(&unit, &cfg, &SEEDS);
        match (compiled, reference) {
            (Ok(c), Ok(r)) if c.report == r => None,
            (Err(ec), Err(er)) if ec == er => None,
            (c, r) => Some(format!("{}: compiled {c:?} vs interp {r:?}", k.name)),
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(diffs.is_empty(), "compiled sweep diverges:\n{}", diffs.join("\n"));
}

/// `f` recursing `depth` deep from inside `levels` nested `critical`
/// blocks.
fn nested_recursion(levels: usize, depth: usize) -> String {
    let open = "#pragma omp critical\n{\n".repeat(levels);
    let close = "}\n".repeat(levels);
    format!(
        "int x;\nint f(int n) {{\n  if (n == 0) return 0;\n{open}x = f(n - 1);\n{close}  return x;\n}}\nint main() {{ return f({depth}); }}\n"
    )
}

fn main_with(body: &str) -> String {
    format!("int x;\nint y;\nint a[64];\nint main() {{\n{body}\n  return x;\n}}\n")
}

/// Shapes that once kept a kernel off the bytecode path (lowering
/// rejected them) or took a process down, each with the outcome the
/// reference interpreter gives it: `Ok` or the error it raises.
fn fixtures() -> Vec<(&'static str, String, Result<(), RtError>)> {
    let ok = Ok(());
    let unsupported = |s: &str| Err(RtError::Unsupported(s.to_string()));
    let mut f = vec![
        (
            "single",
            main_with("  #pragma omp parallel\n  {\n    #pragma omp single\n    { x = x + 1; }\n    y = x;\n  }"),
            ok.clone(),
        ),
        (
            "single-nowait-private",
            main_with("  #pragma omp parallel\n  {\n    #pragma omp single nowait private(y) firstprivate(x)\n    { y = x; a[0] = y; }\n    #pragma omp single\n    a[1] = 2;\n  }"),
            ok.clone(),
        ),
        (
            "parallel-sections",
            main_with("  #pragma omp parallel sections\n  {\n    #pragma omp section\n    { x = x + 1; }\n    #pragma omp section\n    { x = x + 2; }\n    #pragma omp section\n    y = 1;\n  }"),
            ok.clone(),
        ),
        (
            "sections-in-region",
            main_with("  #pragma omp parallel\n  {\n    #pragma omp sections nowait\n    {\n      int t = 3;\n      #pragma omp section\n      x = t;\n      #pragma omp section\n      y = t;\n    }\n    #pragma omp sections\n    {\n      #pragma omp section\n      a[2] = x;\n    }\n  }"),
            ok.clone(),
        ),
        (
            "tasks",
            main_with("  #pragma omp parallel\n  {\n    #pragma omp single\n    {\n      #pragma omp task\n      x = 1;\n      #pragma omp task firstprivate(y)\n      { y = 2; x = y; }\n      #pragma omp taskwait\n      y = x;\n    }\n  }"),
            ok.clone(),
        ),
        (
            "taskgroup",
            main_with("  #pragma omp parallel num_threads(2)\n  {\n    #pragma omp master\n    {\n      #pragma omp taskgroup\n      {\n        #pragma omp task\n        { x = 1;\n          #pragma omp task\n          y = 2; }\n      }\n      a[0] = x + y;\n    }\n    #pragma omp task\n    a[1] = 1;\n  }"),
            ok.clone(),
        ),
        (
            "threadprivate",
            "int counter;\n#pragma omp threadprivate(counter)\nint main() {\n  #pragma omp parallel\n  {\n    counter = omp_get_thread_num();\n  }\n  return counter;\n}\n".to_string(),
            ok.clone(),
        ),
        (
            "threadprivate-statement",
            "int t; int u[4];\nvoid work() {\n  #pragma omp parallel\n  { t = 1; u[0] = t; }\n}\nint main() {\n  work();\n  #pragma omp threadprivate(u, t)\n  work();\n  return t;\n}\n".to_string(),
            ok.clone(),
        ),
        (
            "library-mode",
            "int total;\nvoid scale(int *v) {\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) v[i] = v[i] * 2;\n}\nvoid accumulate(int *v) {\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) total += v[i];\n}\nvoid scale(int *v, int k) {\n  v[0] = k;\n}\nvoid reset() { total = 0; }\n".to_string(),
            ok.clone(),
        ),
        (
            "deep-index-chain",
            "int g[2][2][2][2][2][2];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 2; i++) g[i][1][0][1][i][1] = g[1][i][1][0][1][i] + 1;\n  return g[1][1][0][1][1][1];\n}\n".to_string(),
            ok.clone(),
        ),
        (
            "deep-index-oob",
            "int g[2][2][2][2][2];\nint main() { g[1][1][1][1][2] = 1; return 0; }\n".to_string(),
            Err(RtError::BadAddress("g[32] out of bounds (32 elements) at 2:14".into())),
        ),
        (
            "unresolvable-name",
            main_with("  #pragma omp parallel\n  x = 1;\n  y = nowhere + 1;"),
            Err(RtError::Unknown("nowhere".into())),
        ),
        (
            "global-before-declaration",
            "int f() { return later; }\nint g() { int *p; p = &later2; return 0; }\nint x = f();\nint later;\nint later2;\nint main() { return x; }\n".to_string(),
            Err(RtError::Unknown("later".into())),
        ),
        (
            "global-address-before-declaration",
            "int g() { int *p; p = &later; return 0; }\nint x = g();\nint later;\nint main() { return x; }\n".to_string(),
            Err(RtError::Unknown("later".into())),
        ),
        ("non-lvalue", main_with("  (x + 1) = 2;"), unsupported("lvalue x + 1 at 5:4")),
        (
            "short-call-unbound",
            "int f(int p, int q) { return p + q; }\nint main() { return f(1); }\n".to_string(),
            Err(RtError::Unknown("q".into())),
        ),
        (
            "short-call-global",
            "int q = 40;\nint f(int p, int q) { return p + q; }\nint main() { return f(2) + f(1, 2, 3); }\n".to_string(),
            ok.clone(),
        ),
        ("arity-sqrt", main_with("  x = sqrt();"), unsupported("sqrt() takes 1 argument(s), got 0")),
        ("arity-pow", main_with("  x = pow(2.0);"), unsupported("pow() takes 2 argument(s), got 1")),
        ("arity-calloc", main_with("  x = calloc(8);"), unsupported("calloc() takes 2 argument(s), got 1")),
        ("arity-malloc", main_with("  x = malloc();"), unsupported("malloc() takes 1 argument(s), got 0")),
        ("arity-free", main_with("  free();"), unsupported("free() takes 1 argument(s), got 0")),
        (
            "arity-omp-set",
            main_with("  omp_set_num_threads();"),
            unsupported("omp_set_num_threads() takes 1 argument(s), got 0"),
        ),
        ("arity-exit", main_with("  exit();"), unsupported("exit() takes 1 argument(s), got 0")),
        ("arity-abs", main_with("  x = abs();"), unsupported("abs() takes 1 argument(s), got 0")),
        (
            "arity-lock",
            main_with("  #pragma omp parallel\n  omp_set_lock();"),
            unsupported("omp_set_lock() takes 1 argument(s), got 0"),
        ),
        (
            "call-depth",
            "int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }\nint main() { return f(1000000); }\n".to_string(),
            Err(RtError::CallTooDeep),
        ),
        (
            "call-depth-fits",
            format!(
                "int f(int n) {{ if (n == 0) return 0; return f(n - 1) + 1; }}\nint main() {{ return f({}); }}\n",
                hbsan::MAX_CALL_DEPTH - 1
            ),
            ok.clone(),
        ),
        ("heap-malloc", main_with("  int *p;\n  p = malloc(8000000000);\n  p[0] = 1;"), Err(RtError::HeapExhausted)),
        ("heap-array", "int a[2000000000];\nint main() { a[0] = 1; return 0; }\n".to_string(), Err(RtError::HeapExhausted)),
        (
            "heap-dims-overflow",
            "int main() { int a[4294967296][4294967296]; return 0; }\n".to_string(),
            Err(RtError::HeapExhausted),
        ),
        (
            "collapse-too-wide",
            "int main() {\n  #pragma omp parallel for collapse(2)\n  for (int i = 0; i < 3000; i++)\n    for (int j = 0; j < 3000; j++) { }\n  return 0;\n}\n".to_string(),
            Err(RtError::FuelExhausted),
        ),
    ];
    // Recursion through nested directives: each enclosing directive
    // counts toward the call depth, since both engines recurse on it.
    f.push(("call-depth-in-directives", nested_recursion(50, 63), Err(RtError::CallTooDeep)));
    // A 70k-argument call to an unknown extern, and to a user function
    // declaring as many parameters (once past the register file).
    let n = 70_000;
    let args = vec!["x"; n].join(",");
    f.push((
        "extern-70k-args",
        main_with(&format!("  #pragma omp parallel\n  ext({args});")),
        ok.clone(),
    ));
    let params: Vec<String> = (0..n).map(|i| format!("int p{i}")).collect();
    f.push((
        "user-70k-params",
        format!(
            "int x;\nint f({}) {{ return p0 + p{}; }}\nint main() {{ x = 3; return f({args}); }}\n",
            params.join(","),
            n - 1
        ),
        ok.clone(),
    ));
    // A declarator with more extents than one instruction's registers.
    f.push((
        "many-dims",
        format!(
            "int main() {{ int d[2]{}[3]; d[1][0] = 5; return d[1][0]; }}\n",
            "[1]".repeat(300)
        ),
        ok,
    ));
    f
}

#[test]
fn engines_agree_on_every_fixture() {
    let mut bad = Vec::new();
    for (name, code, expected) in fixtures() {
        let unit = minic::parse(&code).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        bad.extend(divergences(name, &unit));
        let outcome = hbsan::run(&unit, &Config::default()).map(|_| ());
        if outcome != expected {
            bad.push(format!("{name}: interpreter gives {outcome:?}, expected {expected:?}"));
        }
    }
    assert!(bad.is_empty(), "{} fixture divergences:\n{}", bad.len(), bad.join("\n"));
}

#[test]
fn library_mode_runs_functions_in_definition_order() {
    // `scale` is defined twice: it runs once, first (where it was first
    // defined), with the later definition's body.
    let code = "int order[3]; int n;\nvoid scale(int *v) { order[n] = 1; n++; }\nvoid accumulate(int *v) { order[n] = 2; n++; }\nvoid scale(int *v, int k) { order[n] = 3; n++; }\nvoid reset() { order[n] = 4; n++; }\n";
    let unit = minic::parse(code).unwrap();
    let obs = hbsan::observe(&unit, &Config::default()).unwrap();
    assert_eq!(obs.globals[0].1, [3, 2, 4].map(hbsan::value::Value::Int).to_vec());
    assert_eq!(obs.exit, None);
}
