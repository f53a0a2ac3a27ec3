//! Acceptor, connection handlers, micro-batching worker pool, and
//! graceful drain — the service's process shape.
//!
//! Threading model (DESIGN.md §10): one non-blocking acceptor polls the
//! listener and spawns a handler thread per connection (capped —
//! excess connections get an immediate 503). Handlers parse requests,
//! serve cache hits inline, and enqueue misses as [`Job`]s on the
//! bounded queue, then wait on a rendezvous channel with the request's
//! deadline (504 on expiry, 429 + `Retry-After` when the queue refuses
//! admission). A small pool of batch workers pops coalesced batches and
//! fans each over [`par::par_map`], inserting every result into the
//! cache before replying.
//!
//! Shutdown is a drain, not an abort: the acceptor stops, handlers
//! finish their in-flight request and close on the next poll tick,
//! the queue closes and the workers run it dry, and only then does
//! [`ServerHandle::shutdown`] return.

use crate::cache::ShardedLru;
use crate::metrics::{route_index, Metrics, OTHER_ROUTE};
use crate::queue::{Bounded, PushError};
use crate::{analyze, fixer, http, ServeConfig};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a queued job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Analyze,
    Fix,
}

impl JobKind {
    /// Namespaced cache key: `/v1/analyze` and `/v1/fix` responses for
    /// the same kernel are distinct entries in the shared LRU (`\0`
    /// cannot appear in a route prefix, so namespaces cannot collide).
    fn cache_key(self, code: &str) -> String {
        match self {
            JobKind::Analyze => format!("analyze\0{code}"),
            JobKind::Fix => format!("fix\0{code}"),
        }
    }
}

/// One queued request (analysis or repair).
struct Job {
    kind: JobKind,
    code: String,
    deadline: Instant,
    reply: SyncSender<Reply>,
}

enum Reply {
    Body(Arc<str>),
    Expired,
}

/// Counts live connection handlers so drain can wait for them.
#[derive(Default)]
struct WaitGroup {
    n: Mutex<usize>,
    cv: Condvar,
}

impl WaitGroup {
    fn add(&self) {
        *self.n.lock().expect("waitgroup poisoned") += 1;
    }

    fn done(&self) {
        let mut n = self.n.lock().expect("waitgroup poisoned");
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    fn count(&self) -> usize {
        *self.n.lock().expect("waitgroup poisoned")
    }

    fn wait_zero(&self) {
        let mut n = self.n.lock().expect("waitgroup poisoned");
        while *n > 0 {
            n = self.cv.wait_timeout(n, Duration::from_millis(50)).expect("waitgroup poisoned").0;
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    metrics: Metrics,
    cache: ShardedLru,
    queue: Bounded<Job>,
    draining: AtomicBool,
    conns: WaitGroup,
}

/// What the drain saw on the way out.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Jobs the worker pool analyzed over the server's lifetime.
    pub jobs_processed: usize,
    /// Jobs still queued after the workers exited (always 0 on a clean
    /// drain).
    pub jobs_leftover: usize,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<usize>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metric tree.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The response cache.
    pub fn cache(&self) -> &ShardedLru {
        &self.shared.cache
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// The Prometheus exposition text, exactly as `GET /metrics` serves it.
    pub fn render_metrics(&self) -> String {
        self.shared.metrics.render(&self.shared.cache.stats())
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// run the queue dry, join every thread.
    pub fn shutdown(self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        self.shared.conns.wait_zero();
        self.shared.queue.close();
        let jobs_processed = self.workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
        DrainReport { jobs_processed, jobs_leftover: self.shared.queue.len() }
    }
}

/// Bind and start the full service.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        metrics: Metrics::new(),
        cache: ShardedLru::new(cfg.cache_capacity, cfg.cache_shards),
        queue: Bounded::new(cfg.queue_capacity),
        draining: AtomicBool::new(false),
        conns: WaitGroup::default(),
        cfg,
    });

    let workers = (0..shared.cfg.batch_workers.max(1))
        .map(|_| {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&s))
        })
        .collect();

    let acceptor = {
        let s = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &s))
    };

    Ok(ServerHandle { addr, shared, acceptor, workers })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.inc();
                if shared.conns.count() >= shared.cfg.max_connections {
                    shared.metrics.connections_rejected_total.inc();
                    shared.metrics.record(OTHER_ROUTE, 503);
                    let mut stream = stream;
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        "application/json",
                        &[("retry-after", "1".to_string())],
                        http::error_body("connection limit reached").as_bytes(),
                        false,
                    );
                    continue;
                }
                shared.conns.add();
                shared.metrics.connections_active.add(1);
                let s = Arc::clone(shared);
                std::thread::spawn(move || {
                    conn_loop(&s, stream);
                    s.metrics.connections_active.add(-1);
                    s.conns.done();
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.cfg.poll_ms.max(1))));
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut conn = http::Conn::new(stream);
    let limits =
        http::Limits { max_body: shared.cfg.max_body_bytes, ..http::Limits::default() };

    loop {
        match http::read_request(&mut conn, &limits) {
            Ok(req) => {
                let keep = handle_request(shared, &mut writer, &req);
                if !keep || shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(http::RecvError::Idle) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(http::RecvError::Closed) => break,
            Err(e) => {
                shared.metrics.http_parse_errors_total.inc();
                if let Some((status, msg)) = e.status() {
                    shared.metrics.record(OTHER_ROUTE, status);
                    let _ = http::write_response(
                        &mut writer,
                        status,
                        "application/json",
                        &[],
                        http::error_body(msg).as_bytes(),
                        false,
                    );
                }
                break;
            }
        }
    }
    let _ = writer.flush();
}

/// Handle one request; returns whether to keep the connection open.
fn handle_request(shared: &Arc<Shared>, w: &mut TcpStream, req: &http::Request) -> bool {
    let draining = shared.draining.load(Ordering::SeqCst);
    let keep = req.keep_alive && !draining;
    let route = route_index(&req.target);
    let mut respond = |status: u16, ct: &str, extra: &[(&str, String)], body: &[u8]| -> bool {
        shared.metrics.record(route, status);
        http::write_response(w, status, ct, extra, body, keep).is_ok() && keep
    };

    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            let body = serde_json::to_string(&serde_json::json!({
                "ok": true,
                "draining": draining,
            }))
            .expect("healthz body serializes");
            respond(200, "application/json", &[], body.as_bytes())
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render(&shared.cache.stats());
            respond(200, "text/plain; version=0.0.4", &[], text.as_bytes())
        }
        ("POST", "/v1/analyze") => handle_submit(shared, w, req, keep, JobKind::Analyze),
        ("POST", "/v1/fix") => handle_submit(shared, w, req, keep, JobKind::Fix),
        (_, "/healthz") | (_, "/metrics") | (_, "/v1/analyze") | (_, "/v1/fix") => respond(
            405,
            "application/json",
            &[(
                "allow",
                if req.target.starts_with("/v1/") { "POST" } else { "GET" }.to_string(),
            )],
            http::error_body("method not allowed").as_bytes(),
        ),
        _ => respond(404, "application/json", &[], http::error_body("no such route").as_bytes()),
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
    w: &mut TcpStream,
    req: &http::Request,
    keep: bool,
    kind: JobKind,
) -> bool {
    let t0 = Instant::now();
    let route = route_index(&req.target);
    if kind == JobKind::Fix {
        shared.metrics.fix_requests_total.inc();
    }
    let mut respond = |status: u16, extra: &[(&str, String)], body: &[u8]| -> bool {
        shared.metrics.record(route, status);
        shared.metrics.request_seconds.observe(t0.elapsed().as_secs_f64());
        http::write_response(w, status, "application/json", extra, body, keep).is_ok() && keep
    };

    let wire: analyze::AnalyzeRequest = match std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
    {
        Some(wire) => wire,
        None => {
            return respond(
                400,
                &[],
                http::error_body("body must be JSON: {\"code\": \"...\"}").as_bytes(),
            )
        }
    };

    // Cache hit: serve inline, no queue round-trip.
    if let Some(body) = shared.cache.get(&kind.cache_key(&wire.code)) {
        return respond(200, &[], body.as_bytes());
    }

    let deadline_ms = req
        .header("x-racellm-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(shared.cfg.deadline_ms)
        .min(shared.cfg.deadline_ms);
    let deadline = t0 + Duration::from_millis(deadline_ms);

    let (tx, rx) = mpsc::sync_channel(1);
    match shared.queue.try_push(Job { kind, code: wire.code, deadline, reply: tx }) {
        Err(PushError::Full(_)) => {
            shared.metrics.queue_rejected_total.inc();
            return respond(
                429,
                &[("retry-after", "1".to_string())],
                http::error_body("analysis queue full").as_bytes(),
            );
        }
        Err(PushError::Closed(_)) => {
            return respond(503, &[], http::error_body("server draining").as_bytes());
        }
        Ok(depth) => shared.metrics.queue_depth.set(depth as i64),
    }

    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(Reply::Body(body)) => respond(200, &[], body.as_bytes()),
        Ok(Reply::Expired) | Err(RecvTimeoutError::Timeout) => {
            shared.metrics.deadline_expired_total.inc();
            respond(504, &[], http::error_body("deadline exceeded").as_bytes())
        }
        Err(RecvTimeoutError::Disconnected) => {
            respond(500, &[], http::error_body("worker pool gone").as_bytes())
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) -> usize {
    let cfg = &shared.cfg;
    let linger = Duration::from_micros(cfg.batch_linger_micros);
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    let mut processed = 0usize;

    while let Some(batch) = shared.queue.pop_batch(cfg.batch_max, linger, poll) {
        shared.metrics.queue_depth.set(shared.queue.len() as i64);
        shared.metrics.batches_total.inc();
        shared.metrics.batch_size.observe(batch.len() as f64);

        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|j| j.deadline > now);
        for job in expired {
            shared.metrics.worker_expired_total.inc();
            let _ = job.reply.try_send(Reply::Expired);
        }
        if live.is_empty() {
            continue;
        }

        let work: Vec<(JobKind, &str)> = live.iter().map(|j| (j.kind, j.code.as_str())).collect();
        let fan = cfg.batch_parallelism.clamp(1, work.len());
        let bodies = par::par_map(&work, fan, |(kind, c)| match kind {
            JobKind::Analyze => (analyze::response_body(c), false),
            JobKind::Fix => fixer::fix_body_traced(c),
        });

        for (job, (body, certified)) in live.iter().zip(bodies) {
            if certified {
                shared.metrics.fix_certified_total.inc();
            }
            let body: Arc<str> = Arc::from(body);
            shared.cache.insert(&job.kind.cache_key(&job.code), Arc::clone(&body));
            processed += 1;
            let _ = job.reply.try_send(Reply::Body(body));
        }
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client::Client;

    fn test_cfg() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            poll_ms: 20,
            batch_linger_micros: 0,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn routes_and_drain() {
        let h = start(test_cfg()).expect("bind");
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let (status, body) = c.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("\"ok\":true"));

        let (status, _) = c.request("GET", "/nope", &[], b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = c.request("DELETE", "/v1/analyze", &[], b"").unwrap();
        assert_eq!(status, 405);
        let (status, _) = c.request("POST", "/v1/analyze", &[], b"not json").unwrap();
        assert_eq!(status, 400);

        let body = serde_json::to_string(&crate::analyze::AnalyzeRequest {
            code: "int main() { return 0; }".to_string(),
        })
        .unwrap();
        let (status, got) = c.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(got).unwrap(),
            crate::analyze::response_body("int main() { return 0; }")
        );

        let report = h.shutdown();
        assert_eq!(report.jobs_leftover, 0);
        assert_eq!(report.jobs_processed, 1);
    }

    #[test]
    fn deadline_zero_expires() {
        let h = start(test_cfg()).expect("bind");
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let body = serde_json::to_string(&crate::analyze::AnalyzeRequest {
            code: "int x; int main() { x = 1; return x; }".to_string(),
        })
        .unwrap();
        let (status, _) = c
            .request(
                "POST",
                "/v1/analyze",
                &[("x-racellm-deadline-ms", "0".to_string())],
                body.as_bytes(),
            )
            .unwrap();
        assert_eq!(status, 504);
        assert_eq!(h.metrics().deadline_expired_total.get(), 1);
        h.shutdown();
    }
}
