//! Corpus-wide repair sweep: acceptance floor + golden snapshot.
//!
//! The rendered repair-rate table is pinned byte-for-byte under
//! `tests/golden/repair_table.md`. To bless after an intentional
//! change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_repair
//! ```

use racellm::repair;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repair_table.md")
}

/// Compare against the snapshot, or rewrite it when `RACELLM_BLESS=1`.
fn check(rendered: &str) {
    let path = golden_path();
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p racellm --test it_repair` to create it",
            path.display()
        )
    });
    if golden != rendered {
        let mut diff = String::new();
        for (i, (g, c)) in golden.lines().zip(rendered.lines()).enumerate() {
            if g != c {
                diff.push_str(&format!("  line {:3}: -{g}\n  line {:3}: +{c}\n", i + 1, i + 1));
            }
        }
        panic!(
            "repair table drifted from its golden snapshot:\n{diff}\nIf the change is intentional, re-bless with RACELLM_BLESS=1."
        );
    }
}

/// One sweep serves three claims: every emitted certificate is
/// complete, the certified-repair rate clears the 60% acceptance
/// floor, and the rendered table matches the golden snapshot.
#[test]
fn repair_sweep_meets_floor_and_matches_golden() {
    let summary = racellm::sweep_corpus(par::default_workers());
    for row in &summary.rows {
        assert!(
            row.outcome != "fixed" || row.patch_lines > 0,
            "{}: fixed with an empty patch",
            row.name
        );
    }
    assert!(
        summary.repair_rate() >= 60.0,
        "certified repair rate {:.1}% is below the 60% acceptance floor",
        summary.repair_rate()
    );
    check(&repair::render_table(&summary));
}
