//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, parent and request id around one
//! call into a crate's public API. Spans stay in memory until the run
//! ends; self time is a span's duration minus what its children cover
//! (children of one span run one after another, so their durations add).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `minic.parse`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or regeneration) the span belongs to.
    pub request: u64,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Start attributing spans to `request`.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let i = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(i);
        let out = f(self);
        self.stack.pop();
        self.spans[i].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Per span: duration minus the summed durations of its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start - c).max(0.0))
            .collect()
    }

    /// Summed self time per span name, seconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Summed self time of the spans directly or transitively under
    /// spans named `root`, excluding the roots themselves.
    pub fn covered_under(&self, root: &str) -> f64 {
        let selfs = self.self_times();
        let mut under = vec![false; self.spans.len()];
        let mut sum = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                under[i] = under[p] || self.spans[p].name == root;
            }
            if under[i] {
                sum += selfs[i];
            }
        }
        sum
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = serde_json::json!({
                "name": s.name,
                "start_s": s.start,
                "end_s": s.end,
                "parent": s.parent.map(|p| p as i64),
                "request": s.request as i64,
            });
            out.push_str(&serde_json::to_string(&line).expect("span serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| {
                t.span("c", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let by = t.self_by_name();
        assert!(by["c"] >= 0.002 && by["b"] < by["c"]);
        let covered = t.covered_under("root");
        assert!((covered - (t.total("a") + t.total("b"))).abs() < 1e-9);
        assert!(covered <= t.total("root"));
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
