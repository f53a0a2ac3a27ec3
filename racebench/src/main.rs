//! racebench — the racellm benchmark's measuring program.
//!
//! ```text
//! racebench run --workload <analyze_cold|fix_mixed|paper_tables> --seed N
//!               --seconds S --trace <0|1> --server <racellm-cli>
//! racebench tables-child <plain|traced>      (one fresh paper_tables sample)
//! ```
//!
//! `run` prints human-readable lines, one `provenance {…}` line, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. It exits non-zero when any output was wrong or a
//! steadiness guard failed. `racebench/run.py` builds the program and
//! this tool and is the command users run.

mod config;
mod host;
mod inputs;
mod layers;
mod loadgen;
mod service;
mod stats;
mod tables;
mod trace;

use serde_json::{json, Value};
use service::Kind;
use stats::{favourable, mean, median, over_inputs, percentile};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metric names and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order. A
/// layer a workload bypasses reads 0 there.
const PER_LAYER: [(&str, &str); 37] = [
    ("minic.trim_ms", "ms"),
    ("minic.parse_ms", "ms"),
    ("llm.artifact_ms", "ms"),
    ("llm.verdict_ms", "ms"),
    ("llm.calibrate_ms", "ms"),
    ("racecheck.check_ms", "ms"),
    ("hbsan.lower_ms", "ms"),
    ("hbsan.sweep_ms", "ms"),
    ("hbsan.exec_ms", "ms"),
    ("hbsan.hb_ms", "ms"),
    ("hbsan.lowered_ratio", "ratio"),
    ("hbsan.fallbacks", "count"),
    ("repair.fix_self_ms", "ms"),
    ("repair.candidates_per_flagged", "count"),
    ("repair.certify_yield", "ratio"),
    ("serve.assemble_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.drop_ms", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.handler_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected_429", "count"),
    ("serve.expired_504", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("drb-gen.corpus_ms", "ms"),
    ("drb-ml.views_ms", "ms"),
    ("eval.detection_ms", "ms"),
    ("eval.baseline_ms", "ms"),
    ("eval.varid_ms", "ms"),
    ("eval.format_ms", "ms"),
    ("finetune.cv_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.requests", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        server: get("--server")?.into(),
    })
}

/// The outcome of one run before printing.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    /// Guard or check failures (each makes the run incorrect).
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    provenance: Vec<(String, Value)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Run {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, v));
    }

    fn prov(&mut self, key: &str, v: Value) {
        self.provenance.push((key.to_string(), v));
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Record `trace.coverage`, naming the uncovered share when it is
    /// under the 0.9 the traced breakdown aims for.
    fn coverage(&mut self, c: f64) {
        self.set("trace.coverage", c);
        if c < 0.9 {
            self.notes.push(format!(
                "trace.coverage {c:.3}: {:.1} % of the untraced unit lies outside every stage span",
                (1.0 - c) * 100.0
            ));
        }
    }

    fn check_result(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.problems.push(e);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("tables-child") => std::process::exit(tables::child(
            argv.get(1).map(String::as_str) == Some("traced"),
        )),
        Some("run") => {}
        _ => {
            eprintln!(
                "usage: racebench run --workload W --seed N --seconds S --trace 0|1 --server BIN"
            );
            std::process::exit(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("racebench: {e}");
            std::process::exit(2);
        }
    };
    let cpu0 = host::ticks();
    let mut out = Run::default();
    out.prov("workload", json!(args.workload.as_str()));
    out.prov("seed", json!(args.seed as i64));
    out.prov("trace", json!(args.trace));
    out.prov(
        "nproc",
        json!(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0) as i64),
    );
    out.prov("default_workers", json!(par::default_workers() as i64));
    let result = match (args.workload.as_str(), args.trace) {
        ("analyze_cold", false) => {
            service_e2e(&args, Kind::AnalyzeCold, &config::ANALYZE_COLD, &mut out)
        }
        ("fix_mixed", false) => service_e2e(&args, Kind::FixMixed, &config::FIX_MIXED, &mut out),
        ("paper_tables", false) => tables_e2e(&args, &config::PAPER_TABLES, &mut out),
        ("analyze_cold", true) => {
            service_traced(&args, Kind::AnalyzeCold, &config::ANALYZE_COLD, &mut out)
        }
        ("fix_mixed", true) => service_traced(&args, Kind::FixMixed, &config::FIX_MIXED, &mut out),
        ("paper_tables", true) => tables_traced(&args, &config::PAPER_TABLES, &mut out),
        (w, _) => Err(format!("unknown workload {w:?}")),
    };
    if let Err(e) = result {
        eprintln!("racebench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    out.prov(
        "host_steal_pct",
        json!(host::steal_pct(cpu0, host::ticks())),
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1);
        out.check(v.is_finite(), format!("{name} is not finite"));
        out.notes.push(format!("{:<30} {:>14.6} {unit}", name, v));
        metrics.push((
            name.to_string(),
            json!({ "value": if v.is_finite() { v } else { 0.0 }, "unit": unit }),
        ));
    }
    for n in &out.notes {
        println!("{n}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "provenance {}",
        serde_json::to_string(&Value::Object(out.provenance.clone())).expect("serializes")
    );
    let result = json!({
        "correct": correct,
        "attempted": out.attempted.max(1) as i64,
        "failed": out.failed as i64,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn reported_json(r: &config::Reported) -> Value {
    json!({
        "pct": r.pct,
        "over": r.over.label(),
        "mode_boundaries_pct": r.boundaries.to_vec(),
    })
}

fn cfg_json(c: &config::ServiceCfg) -> Value {
    json!({
        "rate_rps": c.rate_rps,
        "passes": c.passes as i64,
        "burst_passes": c.burst_passes as i64,
        "min_rounds": c.min_rounds as i64,
        "setups_per_round": c.setups_per_round as i64,
        "p50": reported_json(&c.p50),
        "tail": reported_json(&c.tail),
    })
}

fn service_e2e(
    args: &Args,
    kind: Kind,
    cfg: &config::ServiceCfg,
    out: &mut Run,
) -> Result<(), String> {
    for r in [&cfg.p50, &cfg.tail] {
        out.check_result(config::check_boundaries(r));
    }
    let rep = service::run(&args.server, kind, args.seed, args.seconds, cfg)
        .map_err(|e| e.to_string())?;
    out.attempted = rep.attempted;
    out.failed = rep.failed;
    out.prov("config", cfg_json(cfg));
    out.prov("request_digest", json!(format!("{:016x}", rep.digest)));
    out.prov("rounds", json!(rep.p50_ms.len() as i64));
    out.prov("samples_per_phase", json!(rep.phase_requests as i64));
    out.prov("per_input_pct", json!(config::PER_INPUT_PCT));
    out.prov(
        "samples_per_input_median",
        json!([&rep.p50_by_input, &rep.tail_by_input]
            .iter()
            .map(|b| median(
                &b.iter()
                    .filter(|xs| !xs.is_empty())
                    .map(|xs| xs.len() as f64)
                    .collect::<Vec<_>>()
            ))
            .collect::<Vec<f64>>()),
    );
    out.prov("p50_ms_phases", json!(rep.p50_ms.clone()));
    out.prov("tail_ms_phases", json!(rep.tail_ms.clone()));
    out.prov("burst_rps", json!(rep.burst_rps.clone()));
    out.prov(
        "steal_pct_phase_burst",
        json!(rep
            .steal_pct
            .iter()
            .map(|&(a, b)| vec![a, b])
            .collect::<Vec<_>>()),
    );
    out.prov("setup_s_reps", json!(rep.setup_s.clone()));
    out.prov(
        "failed_by_status",
        Value::Object(
            rep.failed_statuses
                .iter()
                .map(|(s, n)| (s.to_string(), json!(*n as i64)))
                .collect(),
        ),
    );
    out.prov(
        "cache_hits_misses_evictions",
        json!([rep.hits as i64, rep.misses as i64, rep.evictions as i64]),
    );
    let own = |by_input: &[Vec<f64>], r: &config::Reported| {
        over_inputs(by_input, config::PER_INPUT_PCT, r.pct, 10).unwrap_or(f64::NAN)
    };
    let p50 = own(&rep.p50_by_input, &cfg.p50);
    let tail = own(&rep.tail_by_input, &cfg.tail);
    let cap = favourable(&rep.burst_rps, false);
    out.set("latency_p50_ms", p50);
    out.set("latency_tail_ms", tail);
    out.set("capacity_rps", cap);
    out.set(
        "success_ratio",
        1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    out.set("setup_s", favourable(&rep.setup_s, true));
    out.set("peak_rss_mb", median(&rep.peak_rss_mb));
    out.prov("peak_rss_mb_rounds", json!(rep.peak_rss_mb.clone()));
    let q = rep.quality;
    out.set("quality_ratio", q);

    out.notes.push(format!(
        "{} at {} req/s offered, {} phases of {} requests (each input's p{} over the first {}): p{} over {} {p50:.4} ms, p{} over {} {tail:.4} ms",
        args.workload,
        cfg.rate_rps,
        rep.p50_ms.len(),
        rep.phase_requests,
        config::PER_INPUT_PCT,
        cfg.min_rounds,
        cfg.p50.pct,
        cfg.p50.over.label(),
        cfg.tail.pct,
        cfg.tail.over.label(),
    ));
    out.notes.push(format!(
        "capacity_rps {cap:.1} 1/s (favourable quartile of {} saturation bursts); error_ratio {:.6} ({} of {})",
        rep.burst_rps.len(),
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    ));
    out.notes.push(match kind {
        Kind::AnalyzeCold => format!("verdict_f1 {q:.4} ratio"),
        Kind::FixMixed => format!("fixed_ratio {q:.4} ratio"),
    });
    out.check(
        p50.is_finite() && tail.is_finite(),
        "too few inputs for a reported latency percentile",
    );
    match kind {
        Kind::FixMixed => {
            out.check(
                service::designed_mix_holds(rep.hits, rep.misses),
                format!(
                    "fix_mixed hit ratio is not 0.80: {} hits, {} misses",
                    rep.hits, rep.misses
                ),
            );
        }
        Kind::AnalyzeCold => {
            out.check(
                rep.hits == 0,
                format!("analyze_cold saw {} cache hits", rep.hits),
            );
        }
    }
    Ok(())
}

fn tables_e2e(args: &Args, cfg: &config::TablesCfg, out: &mut Run) -> Result<(), String> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < cfg.min_samples || t0.elapsed().as_secs_f64() < args.seconds {
        samples.push(tables::sample(false).map_err(|e| e.to_string())?);
    }
    out.attempted = samples.len();
    out.failed = samples.iter().filter(|s| !s.golden_ok()).count();
    let regen_ms: Vec<f64> = samples.iter().map(|s| s.regen_s * 1e3).collect();
    let tail = percentile(&regen_ms, cfg.tail_pct, 10);
    out.check(
        tail.is_some(),
        format!(
            "{} samples are too few for a p{}",
            samples.len(),
            cfg.tail_pct
        ),
    );
    // Consecutive samples form rounds, as the service workloads' phases do.
    let rounds: Vec<&[tables::Sample]> = samples.chunks_exact(cfg.round).collect();
    let per_round =
        |f: &dyn Fn(&[tables::Sample]) -> f64| rounds.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let regen_rounds =
        per_round(&|r| median(&r.iter().map(|s| s.regen_s * 1e3).collect::<Vec<_>>()));
    let setup_rounds = per_round(&|r| median(&r.iter().map(|s| s.setup_s).collect::<Vec<_>>()));
    let rate_rounds = per_round(&|r| r.len() as f64 / r.iter().map(|s| s.wall_s).sum::<f64>());
    let p50 = favourable(&regen_rounds, true);
    out.set("latency_p50_ms", p50);
    out.set("latency_tail_ms", tail.unwrap_or(f64::NAN));
    out.set("capacity_rps", favourable(&rate_rounds, false));
    out.set(
        "success_ratio",
        1.0 - out.failed as f64 / samples.len() as f64,
    );
    out.set("setup_s", favourable(&setup_rounds, true));
    out.prov("regen_ms_rounds", json!(regen_rounds));
    out.prov("setup_s_rounds", json!(setup_rounds));
    out.set(
        "peak_rss_mb",
        median(&samples.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()),
    );
    let tables_ok = samples
        .iter()
        .map(|s| s.golden.iter().filter(|&&g| g).count())
        .sum::<usize>();
    out.set(
        "quality_ratio",
        tables_ok as f64 / (5 * samples.len()) as f64,
    );
    let cv: Vec<f64> = samples
        .iter()
        .map(|s| s.step_ms.get(2).copied().unwrap_or(0.0))
        .collect();
    out.check(
        cv.iter().all(|&c| c >= cfg.cv_floor_ms),
        format!(
            "a sample's Tables 4+6 step ran under {} ms: fine-tuning was not timed",
            cfg.cv_floor_ms
        ),
    );
    out.prov("samples", json!(samples.len() as i64));
    out.prov("cv_floor_ms", json!(cfg.cv_floor_ms));
    out.prov(
        "step_ms_median",
        json!((0..5)
            .map(|i| median(
                &samples
                    .iter()
                    .map(|s| s.step_ms.get(i).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>()
            ))
            .collect::<Vec<f64>>()),
    );
    out.notes.push(format!(
        "paper_tables: {} fresh processes, regen_s {:.6} s (favourable quartile of round medians), p{} {:.3} ms, error_ratio {:.4}",
        samples.len(),
        p50 / 1e3,
        cfg.tail_pct,
        tail.unwrap_or(f64::NAN),
        out.failed as f64 / samples.len() as f64
    ));
    Ok(())
}

/// Write spans under `.bench_results/` in the working directory.
fn write_spans(name: &str, jsonl: &str) {
    let dir = PathBuf::from(".bench_results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), jsonl);
    }
}

fn service_traced(
    args: &Args,
    kind: Kind,
    cfg: &config::ServiceCfg,
    out: &mut Run,
) -> Result<(), String> {
    let ks = inputs::kernels(args.seed);
    let exp = service::Expected::compute(&ks, kind == Kind::FixMixed);
    let t0 = Instant::now();

    // Service side: the end-to-end run's first two latency phases, on
    // one set-up, with `/metrics` deltas around them. Two phases give the
    // sender's lag p99 at least ten samples beyond it.
    let (mut live, _, warm) = service::set_up(
        &args.server,
        kind,
        &ks,
        &exp,
        &format!("{} setup 0", args.seed),
    )
    .map_err(|e| e.to_string())?;
    out.attempted += warm.outcomes.len();
    out.failed += warm.failed();
    let phases: Vec<inputs::Phase> = (0..2)
        .map(|r| service::latency_phase(kind, &ks, args.seed, &format!("latency {r}"), cfg))
        .collect();
    let mut ms = Vec::new();
    for ph in &phases {
        let m = live
            .measure(ph, &exp, Some(cfg.rate_rps))
            .map_err(|e| e.to_string())?;
        out.attempted += m.outcomes.len();
        out.failed += m.failed();
        ms.push(m);
    }
    drop(live);
    let ph = &phases[0];
    let d = |name: &str| {
        ms.iter()
            .map(|m| m.before.delta(&m.after, name))
            .sum::<f64>()
    };
    let handler_ms =
        d("racellm_request_seconds_sum") / d("racellm_request_seconds_count").max(1.0) * 1e3;
    let (hits, misses) = (
        d("racellm_cache_hits_total"),
        d("racellm_cache_misses_total"),
    );
    out.set("serve.handler_ms", handler_ms);
    out.set(
        "serve.batch_size_mean",
        d("racellm_batch_size_sum") / d("racellm_batch_size_count").max(1.0),
    );
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set("serve.rejected_429", d("racellm_queue_rejected_total"));
    out.set(
        "serve.expired_504",
        d("racellm_deadline_expired_total") + d("racellm_worker_expired_total"),
    );
    out.set("hbsan.fallbacks", d("racellm_oracle_fallbacks_total"));
    let lags: Vec<f64> = ms
        .iter()
        .flat_map(|m| m.outcomes.iter().map(|o| o.lag_s * 1e3))
        .collect();
    out.set(
        "loadgen.lag_p99_ms",
        percentile(&lags, 99.0, 10).unwrap_or(f64::NAN),
    );

    // In process: the phase's distinct cold inputs, alternating an
    // untraced pass (the unit as a whole) with a traced pass.
    let codes: Vec<String> = ks
        .iter()
        .enumerate()
        .map(|(k, kern)| inputs::unique(&kern.code, &format!("{} trace {k}", args.seed)))
        .collect();
    let want: Vec<&[u8]> = match kind {
        Kind::AnalyzeCold => exp.analyze.iter().map(Vec::as_slice).collect(),
        Kind::FixMixed => exp.fix.iter().map(Vec::as_slice).collect(),
    };
    let mut t = Tracer::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut coverage = Vec::new();
    let mut counts = layers::RepairCounts::default();
    let mut passes = 0usize;
    let budget = args.seconds * 0.6;
    while passes < 2 || (t0.elapsed().as_secs_f64() < budget && passes < 10) {
        let u0 = Instant::now();
        for c in &codes {
            std::hint::black_box(match kind {
                Kind::AnalyzeCold => serve::analyze::response_body(c),
                Kind::FixMixed => serve::fixer::fix_body(c),
            });
        }
        untraced_s.push(u0.elapsed().as_secs_f64());
        let mut tp = Tracer::default();
        let mut pass_counts = layers::RepairCounts::default();
        for (k, c) in codes.iter().enumerate() {
            tp.request(k as u64);
            let body = match kind {
                Kind::AnalyzeCold => layers::analyze(&mut tp, c),
                Kind::FixMixed => layers::fix(&mut tp, c, &mut pass_counts),
            };
            out.attempted += 1;
            if body.as_bytes() != want[k] {
                out.failed += 1;
                out.problems.push(format!(
                    "traced decomposition of kernel {k} differs from the unit's bytes"
                ));
            }
        }
        traced_s.push(tp.total("request"));
        // Stage time against the untraced unit of the pass just before,
        // not against the traced root, which would read 1 by construction.
        coverage.push(tp.covered_under("request") / untraced_s[passes]);
        counts = pass_counts;
        t = tp;
        passes += 1;
    }
    let n = codes.len() as f64;
    let unit_s = median(&untraced_s);
    let per_ms = |s: f64| s / n * 1e3;
    let by = t.self_by_name();
    let self_of = |name: &str| by.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("minic.trim_ms", "minic.trim"),
        ("minic.parse_ms", "minic.parse"),
        ("llm.artifact_ms", "llm.artifact"),
        ("llm.verdict_ms", "llm.verdict"),
        ("racecheck.check_ms", "racecheck.check"),
        ("hbsan.lower_ms", "hbsan.lower"),
        ("hbsan.sweep_ms", "hbsan.sweep"),
        ("serve.assemble_ms", "serve.assemble"),
        ("serve.serialize_ms", "serve.serialize"),
        ("serve.drop_ms", "serve.drop"),
    ] {
        out.set(metric, per_ms(self_of(span)));
    }
    if kind == Kind::FixMixed {
        let repeated = t.total("racecheck.check") + t.total("hbsan.sweep");
        out.set(
            "repair.fix_self_ms",
            per_ms(t.total("repair.fix") - repeated),
        );
        out.set(
            "repair.candidates_per_flagged",
            counts.candidates as f64 / counts.flagged.max(1) as f64,
        );
        out.set(
            "repair.certify_yield",
            counts.fixed as f64 / counts.candidates.max(1) as f64,
        );
    }
    out.coverage(median(&coverage));
    out.set(
        "trace.overhead_pct",
        (median(&traced_s) - unit_s) / unit_s * 100.0,
    );
    out.set("trace.requests", n);
    write_spans(
        &format!("spans-{}-{}.jsonl", args.workload, args.seed),
        &t.to_jsonl(),
    );

    // The sweep split into execution and happens-before analysis.
    let mut split = Tracer::default();
    let mut lowered = (0usize, 0usize);
    for c in &codes {
        if let Some(l) = layers::sweep_split(&mut split, c) {
            lowered.0 += usize::from(l);
            lowered.1 += 1;
        }
    }
    out.set("hbsan.exec_ms", per_ms(split.total("hbsan.exec")));
    out.set("hbsan.hb_ms", per_ms(split.total("hbsan.hb")));
    out.set(
        "hbsan.lowered_ratio",
        lowered.0 as f64 / lowered.1.max(1) as f64,
    );

    // HTTP parsing and cache lookups over the phase's own bytes and keys.
    let limits = serve::http::Limits::default();
    let p0 = Instant::now();
    for r in &ph.reqs {
        let mut conn = serve::http::Conn::new(std::io::Cursor::new(r.as_slice()));
        std::hint::black_box(
            serve::http::read_request(&mut conn, &limits).map_err(|e| format!("{e:?}"))?,
        );
    }
    out.set(
        "serve.http_parse_us",
        p0.elapsed().as_secs_f64() / ph.reqs.len() as f64 * 1e6,
    );
    let defaults = serve::ServeConfig::default();
    let cache = serve::cache::ShardedLru::new(defaults.cache_capacity, defaults.cache_shards);
    for k in ks.iter().take(inputs::corpus_len()) {
        cache.insert(&format!("analyze\0{}", k.code), std::sync::Arc::from("{}"));
    }
    let keys: Vec<String> = ph
        .kernel
        .iter()
        .zip(&ph.fix)
        .map(|(&k, &f)| {
            if f {
                format!("fix\0{}", codes[k])
            } else {
                format!("analyze\0{}", ks[k].code)
            }
        })
        .collect();
    let g0 = Instant::now();
    for key in &keys {
        std::hint::black_box(cache.get(key));
    }
    let get_us = g0.elapsed().as_secs_f64() / keys.len() as f64 * 1e6;
    out.set("serve.cache_get_us", get_us);

    // Queue wait: what the handler spent beyond the compute the same
    // inputs cost in process.
    let cold_share = match kind {
        Kind::AnalyzeCold => 1.0,
        Kind::FixMixed => ph.fix.iter().filter(|&&f| f).count() as f64 / ph.reqs.len() as f64,
    };
    let compute_ms = cold_share * unit_s / n * 1e3 + (1.0 - cold_share) * get_us / 1e3;
    out.set("serve.queue_wait_ms", handler_ms - compute_ms);
    out.prov("traced_passes", json!(passes as i64));
    out.prov("unit_ms_per_request", json!(unit_s / n * 1e3));
    out.prov("config", cfg_json(cfg));
    Ok(())
}

fn tables_traced(args: &Args, cfg: &config::TablesCfg, out: &mut Run) -> Result<(), String> {
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 3 || (t0.elapsed().as_secs_f64() < args.seconds && plain.len() < 20) {
        plain.push(tables::sample(false).map_err(|e| e.to_string())?);
        traced.push(tables::sample(true).map_err(|e| e.to_string())?);
    }
    out.attempted = plain.len() + traced.len();
    out.failed = plain
        .iter()
        .chain(&traced)
        .filter(|s| !s.golden_ok())
        .count();
    let unit_s = median(&plain.iter().map(|s| s.regen_s).collect::<Vec<_>>());
    let self_s = |s: &tables::Sample, span: &str| {
        s.report
            .get("self_s")
            .and_then(|v| v.get(span))
            .and_then(tables::as_f64)
            .unwrap_or(0.0)
    };
    let per_ms = |span: &str| {
        median(
            &traced
                .iter()
                .map(|s| self_s(s, span) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    for (metric, span) in [
        ("drb-gen.corpus_ms", "drb-gen.corpus"),
        ("drb-ml.views_ms", "drb-ml.views"),
        ("llm.calibrate_ms", "llm.calibrate"),
        ("eval.detection_ms", "eval.detection"),
        ("eval.baseline_ms", "eval.baseline"),
        ("eval.varid_ms", "eval.varid"),
        ("eval.format_ms", "eval.format"),
        ("finetune.cv_ms", "finetune.cv"),
    ] {
        out.set(metric, per_ms(span));
    }
    // Stage time against the untraced regeneration, not the traced
    // one's own root, which would read 1 by construction.
    let covered: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.report.get("covered_s").and_then(tables::as_f64))
        .collect();
    out.coverage(median(&covered) / unit_s);
    let traced_regen = median(&traced.iter().map(|s| s.regen_s).collect::<Vec<_>>());
    out.set(
        "trace.overhead_pct",
        (traced_regen - unit_s) / unit_s * 100.0,
    );
    out.set("trace.requests", traced.len() as f64);
    out.check(
        traced
            .iter()
            .all(|s| self_s(s, "finetune.cv") * 1e3 >= cfg.cv_floor_ms),
        "a traced regeneration shows no fine-tuning time",
    );
    out.check(
        plain
            .iter()
            .all(|s| s.step_ms.get(2).is_some_and(|&c| c >= cfg.cv_floor_ms)),
        "an untraced regeneration shows no fine-tuning time",
    );
    let mut spans = String::new();
    for s in &traced {
        spans.push_str(
            s.report
                .get("spans")
                .and_then(serde_json::Value::as_str)
                .unwrap_or(""),
        );
    }
    write_spans(&format!("spans-paper_tables-{}.jsonl", args.seed), &spans);
    out.prov("samples", json!(plain.len() as i64));
    out.prov("regen_ms_untraced", json!(unit_s * 1e3));
    out.prov(
        "mean_setup_s",
        json!(mean(&plain.iter().map(|s| s.setup_s).collect::<Vec<_>>())),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let v: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        v.get(section)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_emitted() {
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
