//! The `paper_tables` workload: Tables 2–6 regenerated in fresh
//! processes and compared byte for byte with `tests/golden/`.
//!
//! The table runners memoize in process-wide `OnceLock`s (fine-tuning
//! included), so a second regeneration in one process would time cache
//! reads. Every sample is therefore its own child process: set-up
//! (corpus, DRB-ML views, surrogate calibration), then one
//! regeneration, then exit.

use crate::trace::Tracer;
use eval::{format_cv_table, format_detection_table, CvRow, DetectionRow};
use llm::{ModelKind, PromptStrategy, Surrogate};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The line a child prints once set-up is complete.
pub const READY: &str = "racebench-tables-ready";

const GOLDEN: [&str; 5] = [
    "table2.md",
    "table3.md",
    "table4.md",
    "table5.md",
    "table6.md",
];

/// Whether each rendered table equals its golden file.
fn golden_matches(rendered: &[String; 5]) -> Vec<bool> {
    GOLDEN
        .iter()
        .zip(rendered)
        .map(|(name, text)| {
            std::fs::read_to_string(Path::new("tests/golden").join(name)).is_ok_and(|g| &g == text)
        })
        .collect()
}

fn surrogate(m: ModelKind) -> &'static Surrogate {
    &eval::corpus_surrogates()
        .iter()
        .find(|(k, _)| *k == m)
        .expect("every model is calibrated")
        .1
}

/// Child process body. Untraced: set up, then the five table runners in
/// order. Traced: the same work through the runners' own public calls,
/// each inside a span, in the order the runners make them. Prints
/// [`READY`] after set-up and one JSON line at the end.
pub fn child(traced: bool) -> i32 {
    let mut t = Tracer::default();
    t.request(0);
    t.span("setup", |t| {
        t.span("drb-gen.corpus", |_| drb_gen::corpus().len());
        t.span("drb-ml.views", |_| eval::corpus_views().len());
        t.span("llm.calibrate", |_| eval::corpus_surrogates().len());
    });
    println!("{READY}");
    let _ = io::stdout().flush();

    t.request(1);
    let r0 = Instant::now();
    let mut step_ms = [0.0f64; 5];
    let rendered: [String; 5] = if traced {
        t.span("regen", regen_traced)
    } else {
        let mut lap = Instant::now();
        let mut timed = |i: usize, s: String| {
            step_ms[i] = lap.elapsed().as_secs_f64() * 1e3;
            lap = Instant::now();
            s
        };
        [
            timed(0, format_detection_table("Table 2", &eval::table2())),
            timed(1, format_detection_table("Table 3", &eval::table3())),
            timed(2, format_cv_table("Table 4", &eval::table4())),
            timed(3, format_detection_table("Table 5", &eval::table5())),
            timed(4, format_cv_table("Table 6", &eval::table6())),
        ]
    };
    let regen_s = r0.elapsed().as_secs_f64();
    let golden = golden_matches(&rendered);
    let rss = crate::service::vm_hwm_mb("/proc/self/status").unwrap_or(0.0);

    let by_name: Vec<(String, serde_json::Value)> = t
        .self_by_name()
        .into_iter()
        .map(|(k, v)| (k.to_string(), serde_json::json!(v)))
        .collect();
    let out = serde_json::json!({
        "regen_s": regen_s,
        "step_ms": step_ms.to_vec(),
        "golden": golden,
        "peak_rss_mb": rss,
        "self_s": serde_json::Value::Object(by_name),
        "covered_s": t.covered_under("regen"),
        "spans": t.to_jsonl(),
    });
    println!(
        "{}",
        serde_json::to_string(&out).expect("child report serializes")
    );
    0
}

/// Tables 2–6 through the runners' public calls, in the runners' order
/// (2, 3, 4, 5, 6): the surrogates' prediction memos carry work from
/// one call to the next, so the order is part of what is measured.
fn regen_traced(t: &mut Tracer) -> [String; 5] {
    let vs = eval::corpus_views();
    let det = |t: &mut Tracer, m: ModelKind, p: PromptStrategy| DetectionRow {
        model: m.short().into(),
        prompt: p.label().into(),
        confusion: t.span("eval.detection", |_| {
            eval::run_detection(surrogate(m), p, vs).0
        }),
    };
    let t2: Vec<DetectionRow> = [PromptStrategy::Bp1, PromptStrategy::Bp2]
        .into_iter()
        .map(|p| det(t, ModelKind::Gpt35Turbo, p))
        .collect();
    let mut t3 = vec![DetectionRow {
        model: "Ins".into(),
        prompt: "N/A".into(),
        confusion: t.span("eval.baseline", |_| eval::run_baseline(vs)),
    }];
    for m in ModelKind::ALL {
        for p in [PromptStrategy::P1, PromptStrategy::P2, PromptStrategy::P3] {
            t3.push(det(t, m, p));
        }
    }
    let (t4, t6): (Vec<CvRow>, Vec<CvRow>) = t.span("finetune.cv", |_| {
        eval::cv_tables_with_workers(par::default_workers())
    });
    let t5: Vec<DetectionRow> = ModelKind::ALL
        .iter()
        .map(|&m| DetectionRow {
            model: m.short().into(),
            prompt: "varid".into(),
            confusion: t.span("eval.varid", |_| eval::run_varid(surrogate(m), vs).0),
        })
        .collect();
    t.span("eval.format", |_| {
        [
            format_detection_table("Table 2", &t2),
            format_detection_table("Table 3", &t3),
            format_cv_table("Table 4", &t4),
            format_detection_table("Table 5", &t5),
            format_cv_table("Table 6", &t6),
        ]
    })
}

/// One fresh-process sample as the parent saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Spawn to the child's ready line, seconds.
    pub setup_s: f64,
    /// The child's own regeneration time, seconds.
    pub regen_s: f64,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Per-table step time (ms); Tables 4 + 6 fine-tuning lands in step 2.
    pub step_ms: Vec<f64>,
    /// Golden match per table.
    pub golden: Vec<bool>,
    /// Child peak RSS, MiB.
    pub peak_rss_mb: f64,
    /// The child's JSON report.
    pub report: serde_json::Value,
}

/// Spawn one child of this executable and collect its sample.
pub fn sample(traced: bool) -> io::Result<Sample> {
    let exe = std::env::current_exe()?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["tables-child", if traced { "traced" } else { "plain" }])
        .env_remove("RACELLM_WORKERS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let ready = lines.next().transpose()?;
    let setup_s = t0.elapsed().as_secs_f64();
    let report = lines.next().transpose()?;
    let status = child.wait()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (Some(ready), Some(report), true) = (ready, report, status.success()) else {
        return Err(io::Error::other(format!("tables child failed ({status})")));
    };
    if ready != READY {
        return Err(io::Error::other(format!("tables child said {ready:?}")));
    }
    let v: serde_json::Value = serde_json::from_str(&report)
        .map_err(|e| io::Error::other(format!("tables child report: {e:?}")))?;
    let nums = |key: &str| -> Vec<f64> {
        v.get(key)
            .and_then(serde_json::Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(as_f64)
            .collect()
    };
    Ok(Sample {
        setup_s,
        regen_s: v.get("regen_s").and_then(as_f64).unwrap_or(f64::NAN),
        wall_s,
        step_ms: nums("step_ms"),
        golden: v
            .get("golden")
            .and_then(serde_json::Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|g| matches!(g, serde_json::Value::Bool(true)))
            .collect(),
        peak_rss_mb: v.get("peak_rss_mb").and_then(as_f64).unwrap_or(0.0),
        report: v,
    })
}

/// A JSON number as `f64`.
pub fn as_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::Int(i) => Some(*i as f64),
        serde_json::Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Sample {
    /// All five tables equal their goldens.
    pub fn golden_ok(&self) -> bool {
        self.golden.len() == GOLDEN.len() && self.golden.iter().all(|&g| g)
    }
}
