//! Closed-loop, socket-level load generator for the detection service.
//!
//! `racellm-cli loadgen` drives a running server (or spins one up
//! in-process — the sockets are real either way) with N keep-alive
//! client threads, each looping pick-kernel → POST → await-response.
//! The kernel mix is the full DRB corpus, offset per client so the
//! warmup pass populates the cache and the measured window exercises
//! the steady warm-cache state the acceptance criteria target. Latency
//! is recorded per request in the measured window only; the report
//! (written to `BENCH_serve.json`) carries throughput, p50/p90/p99,
//! per-status counts, and the cache hit rate over the window scraped
//! from `/metrics`.

use crate::analyze::AnalyzeRequest;
use crate::http::client::Client;
use crate::metrics::scrape_value;
use serde::Serialize;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load profile knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target server.
    pub addr: SocketAddr,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Warmup (unmeasured) window.
    pub warmup: Duration,
    /// Measured window.
    pub duration: Duration,
    /// Where to write the JSON report (`None` = don't write).
    pub out: Option<std::path::PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8077".parse().expect("static addr parses"),
            clients: 32,
            warmup: Duration::from_secs(1),
            duration: Duration::from_secs(3),
            out: Some(std::path::PathBuf::from("BENCH_serve.json")),
        }
    }
}

/// Latency summary (milliseconds).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyMs {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
}

/// Per-status counts over the measured window.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StatusCounts {
    /// HTTP 200.
    pub ok_200: u64,
    /// HTTP 429 (queue full).
    pub rejected_429: u64,
    /// HTTP 504 (deadline).
    pub expired_504: u64,
    /// Any 5xx.
    pub server_5xx: u64,
    /// Everything else.
    pub other: u64,
}

/// The `BENCH_serve.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Bench identifier.
    pub bench: String,
    /// Client connections.
    pub clients: usize,
    /// Distinct kernels in the request mix.
    pub kernels: usize,
    /// Warmup seconds (unmeasured).
    pub warmup_secs: f64,
    /// Measured seconds.
    pub duration_secs: f64,
    /// Completed requests in the measured window.
    pub requests: u64,
    /// Requests per second over the measured window.
    pub throughput_rps: f64,
    /// Latency percentiles.
    pub latency_ms: LatencyMs,
    /// Status breakdown.
    pub status: StatusCounts,
    /// Cache hit rate over the measured window (from `/metrics` deltas).
    pub cache_hit_rate: f64,
}

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_STOP: u8 = 2;

struct ClientStats {
    latencies_us: Vec<u64>,
    status: StatusCounts,
}

fn render_request(code: &str) -> Vec<u8> {
    let body = serde_json::to_string(&AnalyzeRequest { code: code.to_string() })
        .expect("request serializes");
    format!(
        "POST /v1/analyze HTTP/1.1\r\nhost: racellm\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

fn client_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    offset: usize,
    phase: &AtomicU8,
) -> io::Result<ClientStats> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    let mut stats =
        ClientStats { latencies_us: Vec::with_capacity(1 << 16), status: StatusCounts::default() };
    let mut i = offset;
    loop {
        let p = phase.load(Ordering::Relaxed);
        if p == PHASE_STOP {
            break;
        }
        let req = &requests[i % requests.len()];
        i += 1;
        let t0 = Instant::now();
        client.send_raw(req)?;
        let (status, _body) = client.read_response()?;
        if p == PHASE_MEASURE {
            stats.latencies_us.push(t0.elapsed().as_micros() as u64);
            match status {
                200 => stats.status.ok_200 += 1,
                429 => stats.status.rejected_429 += 1,
                504 => stats.status.expired_504 += 1,
                500..=599 => stats.status.server_5xx += 1,
                _ => stats.status.other += 1,
            }
        }
    }
    Ok(stats)
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    // Nearest-rank: the smallest value with at least p% of the sample
    // at or below it.
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)] as f64 / 1000.0
}

fn scrape(addr: SocketAddr) -> io::Result<String> {
    let mut c = Client::connect(addr, Duration::from_secs(5))?;
    let (status, body) = c.request("GET", "/metrics", &[], b"")?;
    if status != 200 {
        return Err(io::Error::other(format!("metrics scrape returned {status}")));
    }
    String::from_utf8(body).map_err(|_| io::Error::other("metrics not UTF-8"))
}

/// Run the closed loop and build the report (writes `cfg.out` if set).
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let corpus = drb_gen::corpus();
    let requests: Arc<Vec<Vec<u8>>> =
        Arc::new(corpus.iter().map(|k| render_request(&k.trimmed_code)).collect());
    let kernels = requests.len();
    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));

    let handles: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let requests = Arc::clone(&requests);
            let phase = Arc::clone(&phase);
            let addr = cfg.addr;
            // Spread client cursors over the corpus so the warmup pass
            // touches every kernel quickly.
            let offset = c * kernels / cfg.clients.max(1);
            std::thread::spawn(move || client_loop(addr, &requests, offset, &phase))
        })
        .collect();

    std::thread::sleep(cfg.warmup);
    let pre = scrape(cfg.addr)?;
    phase.store(PHASE_MEASURE, Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(cfg.duration);
    phase.store(PHASE_STOP, Ordering::Relaxed);
    let measured = t0.elapsed();
    let post = scrape(cfg.addr)?;

    let mut latencies: Vec<u64> = Vec::new();
    let mut status = StatusCounts::default();
    for h in handles {
        let s = h
            .join()
            .map_err(|_| io::Error::other("client thread panicked"))?
            .map_err(|e| io::Error::other(format!("client I/O failed: {e}")))?;
        latencies.extend(s.latencies_us);
        status.ok_200 += s.status.ok_200;
        status.rejected_429 += s.status.rejected_429;
        status.expired_504 += s.status.expired_504;
        status.server_5xx += s.status.server_5xx;
        status.other += s.status.other;
    }
    latencies.sort_unstable();

    let delta = |name: &str| -> f64 {
        scrape_value(&post, name).unwrap_or(0.0) - scrape_value(&pre, name).unwrap_or(0.0)
    };
    let hits = delta("racellm_cache_hits_total");
    let misses = delta("racellm_cache_misses_total");
    let cache_hit_rate = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };

    let requests_done = latencies.len() as u64;
    let report = LoadReport {
        bench: "serve_closed_loop".to_string(),
        clients: cfg.clients,
        kernels,
        warmup_secs: cfg.warmup.as_secs_f64(),
        duration_secs: measured.as_secs_f64(),
        requests: requests_done,
        throughput_rps: requests_done as f64 / measured.as_secs_f64(),
        latency_ms: LatencyMs {
            p50: percentile(&latencies, 50.0),
            p90: percentile(&latencies, 90.0),
            p99: percentile(&latencies, 99.0),
            max: latencies.last().map(|&us| us as f64 / 1000.0).unwrap_or(0.0),
        },
        status,
        cache_hit_rate,
    };

    if let Some(path) = &cfg.out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, json + "\n")?;
    }
    Ok(report)
}

/// One-line human summary of a report.
pub fn summarize(r: &LoadReport) -> String {
    format!(
        "{} clients × {:.1}s: {} requests, {:.0} req/s, p50 {:.2}ms p99 {:.2}ms, cache hit rate {:.1}%, 5xx {}",
        r.clients,
        r.duration_secs,
        r.requests,
        r.throughput_rps,
        r.latency_ms.p50,
        r.latency_ms.p99,
        r.cache_hit_rate * 100.0,
        r.status.server_5xx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile(&us, 50.0), 50.0);
        assert_eq!(percentile(&us, 99.0), 99.0);
        assert_eq!(percentile(&us, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn request_rendering_is_valid_http() {
        let raw = render_request("int main() { return 0; }");
        let mut conn = crate::http::Conn::new(std::io::Cursor::new(raw));
        let req = crate::http::read_request(&mut conn, &crate::http::Limits::default()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/analyze");
        let wire: AnalyzeRequest =
            serde_json::from_str(std::str::from_utf8(&req.body).unwrap()).unwrap();
        assert_eq!(wire.code, "int main() { return 0; }");
    }
}
