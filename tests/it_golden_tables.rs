//! Golden snapshots: the rendered Tables 2–6 are pinned byte-for-byte
//! under `tests/golden/`, and Tables 4 and 6 also at full float
//! precision (`cv_tables.json`). Any drift — a cell, a metric digit,
//! even column padding — fails with a line diff.
//!
//! To bless a new snapshot after an intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_golden_tables
//! ```

use racellm::eval;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare `rendered` against `tests/golden/<name>`, or rewrite the
/// snapshot when `RACELLM_BLESS=1`.
fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p racellm --test it_golden_tables` to create it",
            path.display()
        )
    });
    if golden != rendered {
        panic!(
            "{name} drifted from its golden snapshot:\n{}\nIf the change is intentional, re-bless with RACELLM_BLESS=1.",
            diff(&golden, rendered)
        );
    }
}

/// Minimal line diff: every differing line as `-golden` / `+current`.
fn diff(golden: &str, current: &str) -> String {
    let g: Vec<&str> = golden.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    let mut out = String::new();
    for i in 0..g.len().max(c.len()) {
        match (g.get(i), c.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => {
                if let Some(a) = a {
                    out.push_str(&format!("  line {:3}: -{a}\n", i + 1));
                }
                if let Some(b) = b {
                    out.push_str(&format!("  line {:3}: +{b}\n", i + 1));
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("  (only trailing whitespace differs)\n");
    }
    out
}

#[test]
fn table2_matches_golden() {
    check("table2.md", &eval::format_detection_table("Table 2", &eval::table2()));
}

#[test]
fn table3_matches_golden() {
    check("table3.md", &eval::format_detection_table("Table 3", &eval::table3()));
}

#[test]
fn table4_matches_golden() {
    check("table4.md", &eval::format_cv_table("Table 4", &eval::table4()));
}

#[test]
fn table5_matches_golden() {
    check("table5.md", &eval::format_detection_table("Table 5", &eval::table5()));
}

#[test]
fn table6_matches_golden() {
    check("table6.md", &eval::format_cv_table("Table 6", &eval::table6()));
}

/// Tables 4 and 6 at full precision: the exact `CvRow` floats, not the
/// 3-decimal `.md` rendering above. The snapshot was blessed from the
/// original serial trainer (two Adam optimizers, per-fold cloned
/// training sets), so it pins the fold-parallel fused trainer to that
/// arithmetic's results bit for bit.
#[test]
fn cv_tables_match_golden() {
    let rows = (eval::table4(), eval::table6());
    check("cv_tables.json", &serde_json::to_string_pretty(&rows).unwrap());
}

/// FNV-1a over the little-endian bit patterns of `xs`.
fn fnv1a_bits(xs: &[f64]) -> u64 {
    xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trained adapters behind Tables 4 and 6, one entry per CV job
/// (model × fold): a digest of every adapter parameter's bit pattern,
/// `A` then `B`. `cv_tables.json` pins only aggregate rows, where a
/// 1-ulp drift in a parameter rarely flips a prediction; this pins the
/// trainer's arithmetic itself.
#[test]
fn cv_adapters_match_golden() {
    use racellm::finetune::{folds_for, FineTuned, TrainConfig};
    use racellm::llm::ModelKind;
    // The CV setup of `eval::table4`/`table6`: fold seed, models, k = 5.
    const CV_SEED: u64 = 20230915;
    let vs = eval::corpus_views();
    let folds = folds_for(vs, 5, CV_SEED);
    let mut entries = Vec::new();
    for m in [ModelKind::StarChatBeta, ModelKind::Llama2_7b] {
        let s = &eval::corpus_surrogates().iter().find(|(k, _)| *k == m).unwrap().1;
        for (f, fold) in folds.iter().enumerate() {
            let ft = FineTuned::train_on(s, vs, &fold.train, &TrainConfig::for_model(m));
            let head = ft.head();
            let params: Vec<f64> = head.a().iter().chain(head.b()).copied().collect();
            entries.push(serde_json::json!({
                "model": m.short(),
                "fold": f,
                "train_size": ft.train_size(),
                "fnv1a": format!("{:016x}", fnv1a_bits(&params)),
            }));
        }
    }
    check("cv_adapters.json", &serde_json::to_string_pretty(&entries).unwrap());
}
