//! Markdown triage report for a differential sweep.

use crate::XReport;
use std::fmt::Write as _;

/// Render the triage report `racellm-cli xcheck report` prints.
pub fn render_report(r: &XReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# xcheck differential sweep (seed {:#x})", r.seed);
    let _ = writeln!(out);
    let _ = writeln!(out, "- generated kernels: {}", r.generated);
    let _ = writeln!(out, "- label-flip mutants: {}", r.flips);
    let _ = writeln!(
        out,
        "- semantics-preserving mutants: {} ({} corpus kernels sampled)",
        r.sem_mutants, r.corpus_checked
    );
    let _ = writeln!(out, "- dynamic-oracle errors: {}", r.dyn_errors);
    let _ = writeln!(out, "- invariance violations: {}", r.sem_violations.len());
    let _ = writeln!(out, "- label misses (unanimous but wrong): {}", r.label_misses);
    let _ = writeln!(out, "- detector disagreements: {}", r.disagreements.len());
    let _ = writeln!(out);
    let _ = writeln!(out, "## Agreement matrix");
    let _ = writeln!(out);
    out.push_str(&r.matrix.render());

    if !r.sem_violations.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Invariance violations (BUGS)");
        let _ = writeln!(out);
        for v in &r.sem_violations {
            let _ = writeln!(
                out,
                "- `{}` under `{}`: {} -> {}",
                v.name,
                v.mutation.tag(),
                v.base.summary(),
                v.mutant.summary()
            );
        }
    }

    if !r.disagreements.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Disagreements");
        for d in &r.disagreements {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "### `{}` — expected {}, got {}",
                d.name,
                if d.expected { "race" } else { "clean" },
                d.verdicts.summary()
            );
            if let Some(s) = &d.shrunk {
                let _ = writeln!(out);
                let _ = writeln!(out, "Minimal reproducer ({} bytes, from {}):", s.len(), d.code.len());
                let _ = writeln!(out);
                let _ = writeln!(out, "```c\n{}```", ensure_trailing_newline(s));
            }
        }
    }
    out
}

fn ensure_trailing_newline(s: &str) -> String {
    if s.ends_with('\n') {
        s.to_string()
    } else {
        format!("{s}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XConfig;

    #[test]
    fn report_renders_all_sections() {
        let cfg = XConfig { seed: 3, count: 12, shrink: true, max_shrink: 2 };
        let r = crate::run(&cfg, &[]);
        let text = render_report(&r);
        assert!(text.contains("# xcheck differential sweep"));
        assert!(text.contains("## Agreement matrix"));
        assert!(text.contains("expected"));
        if !r.disagreements.is_empty() {
            assert!(text.contains("## Disagreements"));
        }
    }
}
