//! Prometheus-text metrics: counters, gauges, and histograms over
//! lock-free atomics.
//!
//! The hot path (one request) touches a handful of relaxed atomic adds;
//! rendering walks the fixed metric tree and prints the standard
//! exposition format (`# TYPE … counter|gauge|histogram`, cumulative
//! `le` buckets, `_sum`/`_count`). Cardinality is bounded by
//! construction: routes and statuses are closed enums, histogram bucket
//! bounds are compile-time slices.

use crate::cache::CacheStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram. Buckets are cumulative at render time (the
/// per-bucket atomics store non-cumulative counts so `observe` is one
/// add).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Build over ascending bucket upper bounds (an implicit `+Inf`
    /// bucket is appended).
    pub fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one observation (same unit as the bounds).
    pub fn observe(&self, v: f64) {
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add((v * 1e6).max(0.0) as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, b) in self.bounds.iter().enumerate() {
            cum += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cum}");
        }
        cum += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// Routes with per-status request counters.
pub const ROUTES: [&str; 5] = ["analyze", "fix", "healthz", "metrics", "other"];
/// Statuses the service can emit.
pub const STATUSES: [u16; 12] = [200, 400, 404, 405, 408, 413, 414, 429, 431, 500, 503, 504];

/// Index of the catch-all `other` route (pre-routing errors land here).
pub const OTHER_ROUTE: usize = ROUTES.len() - 1;

/// Route index for a request target.
pub fn route_index(target: &str) -> usize {
    match target {
        "/v1/analyze" => 0,
        "/v1/fix" => 1,
        "/healthz" => 2,
        "/metrics" => 3,
        _ => OTHER_ROUTE,
    }
}

/// Request-latency bucket bounds (seconds).
pub static LATENCY_BOUNDS: [f64; 12] =
    [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// The service's full metric tree.
#[derive(Debug)]
pub struct Metrics {
    requests: Vec<Counter>, // ROUTES × STATUSES, row-major
    /// Accepted TCP connections.
    pub connections_total: Counter,
    /// Connections turned away at the cap (503 before routing).
    pub connections_rejected_total: Counter,
    /// Live connection handler threads.
    pub connections_active: Gauge,
    /// Requests that failed HTTP parsing (4xx before routing).
    pub http_parse_errors_total: Counter,
    /// Jobs rejected because the queue was full (429).
    pub queue_rejected_total: Counter,
    /// Analyze requests that hit their deadline (504).
    pub deadline_expired_total: Counter,
    /// Jobs a worker skipped because they were already expired.
    pub worker_expired_total: Counter,
    /// `POST /v1/fix` requests handled (any status, cache hits
    /// included).
    pub fix_requests_total: Counter,
    /// Certified patches produced by the worker pool (fresh
    /// computations only — a cache hit replays the body without
    /// re-certifying).
    pub fix_certified_total: Counter,
    /// Jobs whose computation panicked (each answered with a 500).
    pub job_panics_total: Counter,
    /// Queue depth after the most recent push/pop.
    pub queue_depth: Gauge,
    /// Time from admission to a worker's pop, once per popped job,
    /// expired jobs included (seconds).
    pub queue_wait_seconds: Histogram,
    /// End-to-end latency of analyze requests (seconds).
    pub request_seconds: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero tree.
    pub fn new() -> Metrics {
        Metrics {
            requests: (0..ROUTES.len() * STATUSES.len()).map(|_| Counter::default()).collect(),
            connections_total: Counter::default(),
            connections_rejected_total: Counter::default(),
            connections_active: Gauge::default(),
            http_parse_errors_total: Counter::default(),
            queue_rejected_total: Counter::default(),
            deadline_expired_total: Counter::default(),
            worker_expired_total: Counter::default(),
            fix_requests_total: Counter::default(),
            fix_certified_total: Counter::default(),
            job_panics_total: Counter::default(),
            queue_depth: Gauge::default(),
            queue_wait_seconds: Histogram::new(&LATENCY_BOUNDS),
            request_seconds: Histogram::new(&LATENCY_BOUNDS),
        }
    }

    /// Count one response on a route.
    pub fn record(&self, route: usize, status: u16) {
        let s = STATUSES.iter().position(|&x| x == status).unwrap_or_else(|| {
            debug_assert!(false, "unregistered status {status}");
            STATUSES.len() - 1
        });
        self.requests[route * STATUSES.len() + s].inc();
    }

    /// Read one route × status cell.
    pub fn requests_get(&self, route: usize, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|&x| x == status)
            .map(|s| self.requests[route * STATUSES.len() + s].get())
            .unwrap_or(0)
    }

    /// Total responses across all routes and statuses.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// Render the Prometheus exposition text, folding in cache state.
    pub fn render(&self, cache: &CacheStats) -> String {
        let mut out = String::with_capacity(4096);
        let w = &mut out;
        let _ = writeln!(w, "# TYPE racellm_http_requests_total counter");
        for (ri, route) in ROUTES.iter().enumerate() {
            for (si, status) in STATUSES.iter().enumerate() {
                let v = self.requests[ri * STATUSES.len() + si].get();
                if v > 0 {
                    let _ = writeln!(
                        w,
                        "racellm_http_requests_total{{route=\"{route}\",status=\"{status}\"}} {v}"
                    );
                }
            }
        }
        for (name, c) in [
            ("racellm_connections_total", &self.connections_total),
            ("racellm_connections_rejected_total", &self.connections_rejected_total),
            ("racellm_http_parse_errors_total", &self.http_parse_errors_total),
            ("racellm_queue_rejected_total", &self.queue_rejected_total),
            ("racellm_deadline_expired_total", &self.deadline_expired_total),
            ("racellm_worker_expired_total", &self.worker_expired_total),
            ("racellm_fix_requests_total", &self.fix_requests_total),
            ("racellm_fix_certified_total", &self.fix_certified_total),
            ("racellm_job_panics_total", &self.job_panics_total),
        ] {
            let _ = writeln!(w, "# TYPE {name} counter\n{name} {}", c.get());
        }
        for (name, v) in [
            ("racellm_connections_active", self.connections_active.get()),
            ("racellm_queue_depth", self.queue_depth.get()),
            ("racellm_cache_entries", cache.entries as i64),
        ] {
            let _ = writeln!(w, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, v) in [
            ("racellm_cache_hits_total", cache.hits),
            ("racellm_cache_misses_total", cache.misses),
            ("racellm_cache_insertions_total", cache.insertions),
            ("racellm_cache_evictions_total", cache.evictions),
        ] {
            let _ = writeln!(w, "# TYPE {name} counter\n{name} {v}");
        }
        self.request_seconds.render("racellm_request_seconds", w);
        self.queue_wait_seconds.render("racellm_queue_wait_seconds", w);
        out
    }
}

/// Read one plain (unlabelled) sample back out of exposition text —
/// benchmark drivers and tests use this to diff scrapes.
pub fn scrape_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_cache() -> CacheStats {
        CacheStats { hits: 0, misses: 0, insertions: 0, evictions: 0, entries: 0 }
    }

    #[test]
    fn counters_and_cells() {
        let m = Metrics::new();
        m.record(route_index("/v1/analyze"), 200);
        m.record(route_index("/v1/analyze"), 200);
        m.record(route_index("/nope"), 404);
        m.record(route_index("/v1/fix"), 200);
        assert_eq!(m.requests_get(0, 200), 2);
        assert_eq!(m.requests_get(1, 200), 1);
        assert_eq!(m.requests_get(OTHER_ROUTE, 404), 1);
        assert_eq!(m.requests_total(), 4);
        let text = m.render(&no_cache());
        assert!(text.contains("racellm_http_requests_total{route=\"analyze\",status=\"200\"} 2"));
        assert!(text.contains("racellm_http_requests_total{route=\"fix\",status=\"200\"} 1"));
        assert!(text.contains("racellm_http_requests_total{route=\"other\",status=\"404\"} 1"));
        assert!(text.contains("racellm_fix_requests_total 0"));
        assert!(text.contains("racellm_fix_certified_total 0"));
        assert!(text.contains("racellm_job_panics_total 0"));
    }

    #[test]
    fn histogram_is_cumulative() {
        let h = Histogram::new(&LATENCY_BOUNDS);
        h.observe(0.001);
        h.observe(0.003);
        h.observe(100.0);
        let mut out = String::new();
        h.render("x", &mut out);
        assert!(out.contains("x_bucket{le=\"0.001\"} 1"));
        assert!(out.contains("x_bucket{le=\"0.005\"} 2"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_count 3"));
    }

    #[test]
    fn scrape_round_trips() {
        let m = Metrics::new();
        m.deadline_expired_total.inc();
        let text = m.render(&no_cache());
        assert_eq!(scrape_value(&text, "racellm_deadline_expired_total"), Some(1.0));
        assert_eq!(scrape_value(&text, "racellm_cache_hits_total"), Some(0.0));
        assert_eq!(scrape_value(&text, "racellm_not_a_metric"), None);
    }

    #[test]
    fn queue_wait_histogram_renders_and_scrapes() {
        let m = Metrics::new();
        m.queue_wait_seconds.observe(0.0002);
        m.queue_wait_seconds.observe(0.004);
        let text = m.render(&no_cache());
        assert!(text.contains("# TYPE racellm_queue_wait_seconds histogram"));
        assert!(text.contains("racellm_queue_wait_seconds_bucket{le=\"0.0005\"} 1"));
        assert!(text.contains("racellm_queue_wait_seconds_bucket{le=\"+Inf\"} 2"));
        assert_eq!(scrape_value(&text, "racellm_queue_wait_seconds_count"), Some(2.0));
        assert_eq!(scrape_value(&text, "racellm_queue_wait_seconds_sum"), Some(0.0042));
        assert!(!text.contains("racellm_batch"));
    }
}
