//! `racellm-serve` — a cached, backpressured HTTP detection service
//! over the workspace's three race detectors.
//!
//! Every detector in the repo was previously reachable only through
//! one-shot CLI table runs; this crate gives the pipeline the shape of
//! a real inference stack (DESIGN.md §10):
//!
//! ```text
//!          ┌────────────┐   miss   ┌───────────────┐ one job ┌───────────┐
//! conns ──▶│ HTTP/1.1   │─────────▶│ bounded queue │────────▶│ worker    │
//!          │ keep-alive │◀── hit ──│ (429 + Retry- │◀─reply──│ pool ×W   │
//!          │ handlers   │  ┌─────┐ │  After: full) │         │ (inline)  │
//!          └────────────┘  │ LRU │ └───────────────┘         └───────────┘
//!                          └─────┘      sharded cache, byte-identical
//! ```
//!
//! * [`http`] — a hand-rolled, hard-limited HTTP/1.1 parser and writer
//!   over `std::net` (the build has no crates.io access, so no hyper);
//! * [`queue`] — the bounded admission-controlled job queue;
//! * [`cache`] — a sharded, FxHash-keyed LRU of serialized responses;
//! * [`metrics`] — Prometheus-text counters, gauges, and histograms;
//! * [`analyze`] — the deterministic kernel → JSON-verdict engine
//!   (reuses [`llm::AnalyzedKernel`] and xcheck's verdict adapters);
//! * [`fixer`] — the deterministic kernel → certified-patch engine
//!   behind `POST /v1/fix` (the `repair` crate's detect → fix → verify
//!   loop, certificates shipped verbatim);
//! * [`server`] — acceptor, connection handlers, worker pool, graceful
//!   drain;
//! * [`smoke`] — the tier-1 `racellm-cli serve --smoke` gate.

#![warn(missing_docs)]

mod affinity;
pub mod analyze;
pub mod cache;
pub mod fixer;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod smoke;

/// Server tuning knobs. `Default` is sized for a local deployment; the
/// smoke gate and tests shrink most of these.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the queue; each runs one job at a time.
    pub workers: usize,
    /// Queue capacity; pushes beyond it are rejected with HTTP 429.
    pub queue_capacity: usize,
    /// Total cached responses across all shards.
    pub cache_capacity: usize,
    /// Cache shard count (power of two recommended).
    pub cache_shards: usize,
    /// Default (and maximum) per-request deadline; clients may lower it
    /// with the `X-Racellm-Deadline-Ms` header. Expiry is HTTP 504.
    pub deadline_ms: u64,
    /// Socket read-poll granularity: how often idle keep-alive
    /// connections re-check the drain flag, and how long a mid-request
    /// stall may last before 408.
    pub poll_ms: u64,
    /// Concurrent connection cap; excess connections get HTTP 503.
    pub max_connections: usize,
    /// Largest accepted request body (413 beyond).
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8077".to_string(),
            workers: par::default_workers(),
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            deadline_ms: 2000,
            poll_ms: 200,
            max_connections: 256,
            max_body_bytes: 1 << 20,
        }
    }
}
