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
