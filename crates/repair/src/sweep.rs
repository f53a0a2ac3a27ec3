//! Repair-sweep rows, the repair-rate table and the tier-1 smoke gate.
//!
//! The corpus owner (`racellm::sweep_corpus`) runs the detect → fix →
//! verify loop over every corpus kernel and collects one [`SweepRow`]
//! each; [`render_table`] prints the per-category repair-rate table
//! deterministically so it can be golden-snapshotted. [`smoke`] is the
//! cheap always-on gate wired into `racellm-cli fix --smoke`: fixture
//! repairs, determinism, a from-scratch certificate replay, and a
//! corpus sample its caller passes in.

use crate::fix;
use par::{default_workers, par_map};
use std::fmt::Write as _;

/// One corpus kernel's repair result, flattened for tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// 1-based corpus id.
    pub id: u32,
    /// Kernel name (`SRB001-antidep1-orig-yes.c`).
    pub name: String,
    /// Pattern category (stable string form).
    pub category: &'static str,
    /// Ground-truth label: does the kernel race?
    pub racy: bool,
    /// Outcome tag: `clean` / `fixed` / `unfixed` / `unparseable`.
    pub outcome: &'static str,
    /// `+`-joined edit labels of the certified patch, `-` when none.
    pub edits: String,
    /// Patch size (added + removed lines), 0 when unfixed.
    pub patch_lines: usize,
    /// Candidates that reached certification.
    pub candidates_tried: usize,
}

/// All rows of one corpus sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// One row per corpus kernel, in corpus (id) order.
    pub rows: Vec<SweepRow>,
}

impl SweepSummary {
    /// Racy-labeled kernel count.
    pub fn racy(&self) -> usize {
        self.rows.iter().filter(|r| r.racy).count()
    }

    /// Racy-labeled kernels that got a certified patch.
    pub fn fixed_racy(&self) -> usize {
        self.rows.iter().filter(|r| r.racy && r.outcome == "fixed").count()
    }

    /// Certified-repair rate over racy-labeled kernels, in percent.
    pub fn repair_rate(&self) -> f64 {
        let racy = self.racy();
        if racy == 0 {
            return 0.0;
        }
        100.0 * self.fixed_racy() as f64 / racy as f64
    }
}

/// Render the per-category repair-rate table (deterministic text —
/// golden-snapshot friendly).
pub fn render_table(summary: &SweepSummary) -> String {
    // Aggregate racy-labeled kernels per category.
    let mut cats: Vec<(&'static str, usize, usize)> = Vec::new();
    for r in summary.rows.iter().filter(|r| r.racy) {
        match cats.iter_mut().find(|(c, _, _)| *c == r.category) {
            Some((_, racy, fixed)) => {
                *racy += 1;
                *fixed += usize::from(r.outcome == "fixed");
            }
            None => cats.push((r.category, 1, usize::from(r.outcome == "fixed"))),
        }
    }
    cats.sort_by(|a, b| a.0.cmp(b.0));

    let mut out = String::from("certified repair rate over racy-labeled kernels\n");
    let _ = writeln!(out, "{:<18} {:>5} {:>6} {:>7}", "category", "racy", "fixed", "rate");
    for (cat, racy, fixed) in &cats {
        let rate = 100.0 * *fixed as f64 / *racy as f64;
        let _ = writeln!(out, "{cat:<18} {racy:>5} {fixed:>6} {rate:>6.1}%");
    }
    let _ = writeln!(
        out,
        "{:<18} {:>5} {:>6} {:>6.1}%",
        "total",
        summary.racy(),
        summary.fixed_racy(),
        summary.repair_rate()
    );

    // Whole-corpus outcome counts (includes race-free kernels).
    let count = |tag: &str| summary.rows.iter().filter(|r| r.outcome == tag).count();
    let _ = writeln!(
        out,
        "\n{} kernels: {} clean, {} fixed, {} unfixed, {} unparseable",
        summary.rows.len(),
        count("clean"),
        count("fixed"),
        count("unfixed"),
        count("unparseable")
    );
    let fixed_rows: Vec<&SweepRow> = summary.rows.iter().filter(|r| r.outcome == "fixed").collect();
    if !fixed_rows.is_empty() {
        let lines: usize = fixed_rows.iter().map(|r| r.patch_lines).sum();
        let _ = writeln!(
            out,
            "mean certified patch size: {:.1} diff lines",
            lines as f64 / fixed_rows.len() as f64
        );
    }
    out
}

const SMOKE_FIXTURE: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";

/// Tier-1 smoke gate for the repair loop: fixture repair, determinism,
/// a from-scratch certificate replay, and the `(name, code)` corpus
/// sample. Fast (a dozen kernels), deterministic, `Err` on any violated
/// claim.
pub fn smoke(corpus: &[(&str, &str)]) -> Result<String, String> {
    // 1. The fixture racy reduction must fix with a reduction clause.
    let report = fix(SMOKE_FIXTURE);
    let f = report.fix().ok_or_else(|| {
        format!("fixture kernel not fixed: outcome {}", report.outcome.tag())
    })?;
    if !f.patched_code.contains("reduction") {
        return Err(format!("fixture patch is not a reduction:\n{}", f.patch));
    }
    if !f.certificate.certified() {
        return Err("fixture certificate does not cover all seeds".into());
    }

    // 2. Determinism: the loop must reproduce itself byte-for-byte.
    if fix(SMOKE_FIXTURE) != report {
        return Err("repair is not deterministic on the fixture".into());
    }

    // 3. Replay the certificate from scratch on the emitted patch text.
    let orig = minic::parse(SMOKE_FIXTURE).map_err(|e| e.to_string())?;
    let patched = minic::parse(&f.patched_code).map_err(|e| e.to_string())?;
    if !racecheck::check(&patched).races.is_empty() {
        return Err("certificate replay: racecheck found races in the patch".into());
    }
    let seeds = xcheck::DEFAULT_SEEDS;
    let sweep = hbsan::check_adversarial(&patched, &hbsan::Config::default(), &seeds)
        .map_err(|e| format!("certificate replay: sweep failed: {e}"))?;
    if sweep.has_race() {
        return Err("certificate replay: hbsan found races in the patch".into());
    }
    for seed in seeds {
        let c = hbsan::Config { seed, ..hbsan::Config::default() };
        let a = hbsan::observe(&orig, &c).map_err(|e| e.to_string())?;
        let b = hbsan::observe(&patched, &c).map_err(|e| e.to_string())?;
        if !hbsan::obs::equivalent(&a, &b, &f.certificate.scratch) {
            return Err(format!("certificate replay: output diverged under seed {seed}"));
        }
    }

    // 4. Corpus sample: every certified patch's certificate must cover
    //    every seed, and the sample must contain fixes.
    let sample = par_map(corpus, default_workers(), |&(name, code)| (name, fix(code)));
    let mut fixed = 0usize;
    for (name, r) in &sample {
        if let Some(f) = r.fix() {
            fixed += 1;
            if !f.certificate.certified() {
                return Err(format!("{name}: emitted a fix with an incomplete certificate"));
            }
        }
    }
    if fixed == 0 {
        return Err("corpus sample produced no certified fixes".into());
    }

    Ok(format!(
        "repair smoke ok: fixture certified ({} candidate(s), {}-line patch), corpus sample {}/{} fixed\n",
        report.candidates_tried,
        f.patch_lines,
        fixed,
        sample.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cat: &'static str, racy: bool, outcome: &'static str) -> SweepRow {
        SweepRow {
            id: 1,
            name: "k".into(),
            category: cat,
            racy,
            outcome,
            edits: "-".into(),
            patch_lines: if outcome == "fixed" { 2 } else { 0 },
            candidates_tried: 1,
        }
    }

    #[test]
    fn table_aggregates_per_category() {
        let s = SweepSummary {
            rows: vec![
                row("reduction", true, "fixed"),
                row("reduction", true, "unfixed"),
                row("antidep", true, "fixed"),
                row("sync", false, "clean"),
            ],
        };
        let t = render_table(&s);
        assert!(t.contains("antidep                1      1  100.0%"), "{t}");
        assert!(t.contains("reduction              2      1   50.0%"), "{t}");
        assert!(t.contains("total                  3      2   66.7%"), "{t}");
        assert!(t.contains("4 kernels: 1 clean, 2 fixed, 1 unfixed, 0 unparseable"), "{t}");
        assert_eq!((s.racy(), s.fixed_racy()), (3, 2));
    }

    #[test]
    fn smoke_gate_passes() {
        let corpus: Vec<(&str, &str)> = drb_gen::corpus()
            .iter()
            .step_by(16)
            .map(|k| (k.name.as_str(), k.trimmed_code.as_str()))
            .collect();
        let summary = smoke(&corpus).expect("smoke must pass");
        assert!(summary.contains("repair smoke ok"), "{summary}");
    }
}
