//! Acceptor, connection handlers, worker pool, and graceful drain —
//! the service's process shape.
//!
//! Threading model (DESIGN.md §10): one acceptor blocks on the listener
//! and spawns a handler thread per connection (capped — excess
//! connections get an immediate 503). Handlers parse requests, serve
//! cache hits inline, and enqueue misses as [`Job`]s on the bounded
//! queue (429 + `Retry-After` when the queue refuses admission). While
//! a connection's oldest response waits on its job, the handler reads
//! ahead the requests that have fully arrived (HTTP/1.1 pipelining, up
//! to `PIPELINE_DEPTH` owed responses), so one connection's misses
//! can run on every worker; responses still go out in request order,
//! each awaited on its rendezvous channel until the request's deadline
//! (504 on expiry). A fixed pool of long-lived workers pops one job at
//! a time, runs it to completion on its own thread, inserts the result
//! into the cache, and replies at once. With one worker per usable CPU
//! (the default), each worker is pinned to its own CPU. A job that
//! panics is contained to that job: its request gets a 500 that is not
//! cached, `racellm_job_panics_total` counts it, and the worker goes on.
//!
//! Shutdown is a drain, not an abort: the acceptor is woken by one
//! loopback connection and stops, handlers answer what they have read
//! and close on the next poll tick, the queue closes and the workers
//! run it dry, and only then does [`ServerHandle::shutdown`] return.

use crate::cache::ShardedLru;
use crate::metrics::{route_index, Metrics, OTHER_ROUTE};
use crate::queue::{Bounded, PushError};
use crate::{affinity, analyze, fixer, http, ServeConfig};
use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
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
    queued: Instant,
    deadline: Instant,
    reply: SyncSender<Reply>,
}

enum Reply {
    Body(Arc<str>),
    /// The job's computation panicked.
    Panicked,
    Expired,
}

/// A job's computation: the response body, and whether it certified a
/// patch.
type Compute = fn(JobKind, &str) -> (String, bool);

/// The service's computation: the `/v1/analyze` or `/v1/fix` body.
fn compute(kind: JobKind, code: &str) -> (String, bool) {
    match kind {
        JobKind::Analyze => (analyze::response_body(code), false),
        JobKind::Fix => fixer::fix_body_traced(code),
    }
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
    /// Jobs the worker pool ran over the server's lifetime (those that
    /// panicked included).
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
        // The acceptor blocks in `accept`; one connection wakes it to
        // see the drain flag. An unspecified bind address is reached
        // over loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = self.acceptor.join();
        self.shared.conns.wait_zero();
        self.shared.queue.close();
        let jobs_processed = self.workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
        DrainReport { jobs_processed, jobs_leftover: self.shared.queue.len() }
    }
}

/// Bind and start the full service.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    start_with(cfg, compute)
}

/// [`start`], with the workers running `compute` for each job.
fn start_with(cfg: ServeConfig, compute: Compute) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        metrics: Metrics::new(),
        cache: ShardedLru::new(cfg.cache_capacity, cfg.cache_shards),
        queue: Bounded::new(cfg.queue_capacity),
        draining: AtomicBool::new(false),
        conns: WaitGroup::default(),
        cfg,
    });

    // One worker per usable CPU: each is pinned to its own (see
    // `affinity`); any other pool size is left to the scheduler.
    let cpus = affinity::allowed();
    let pinned = cpus.len() > 1 && cpus.len() == shared.cfg.workers;
    let workers = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let s = Arc::clone(&shared);
            let cpu = pinned.then(|| cpus[i]);
            std::thread::spawn(move || {
                if let Some(cpu) = cpu {
                    affinity::pin(cpu);
                }
                worker_loop(&s, compute)
            })
        })
        .collect();

    let acceptor = {
        let s = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &s))
    };

    Ok(ServerHandle { addr, shared, acceptor, workers })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
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
            // Back off on accept failures (e.g. out of descriptors)
            // rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Responses one connection may owe before its handler stops reading
/// ahead. Misses read ahead sit on the shared queue, so every worker
/// can take one connection's backlog.
const PIPELINE_DEPTH: usize = 16;

const JSON: &str = "application/json";

/// A response owed to the client. A connection writes its responses in
/// request order.
struct Owed {
    route: usize,
    /// When a submitted request was parsed (`racellm_request_seconds`).
    t0: Option<Instant>,
    keep: bool,
    body: OwedBody,
}

enum OwedBody {
    /// Known when the request was read: a hit, an error, a GET.
    Now {
        status: u16,
        content_type: &'static str,
        extra: Vec<(&'static str, String)>,
        body: Arc<str>,
    },
    /// A queued job's reply, due by the request's deadline.
    Queued { rx: Receiver<Reply>, deadline: Instant },
}

impl Owed {
    fn now(
        route: usize,
        t0: Option<Instant>,
        keep: bool,
        status: u16,
        body: impl Into<Arc<str>>,
    ) -> Owed {
        Owed::with(route, t0, keep, status, JSON, Vec::new(), body)
    }

    fn with(
        route: usize,
        t0: Option<Instant>,
        keep: bool,
        status: u16,
        content_type: &'static str,
        extra: Vec<(&'static str, String)>,
        body: impl Into<Arc<str>>,
    ) -> Owed {
        let body = OwedBody::Now { status, content_type, extra, body: body.into() };
        Owed { route, t0, keep, body }
    }

    fn is_now(&self) -> bool {
        matches!(self.body, OwedBody::Now { .. })
    }
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.cfg.poll_ms.max(1))));
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut conn = http::Conn::new(stream);
    let limits =
        http::Limits { max_body: shared.cfg.max_body_bytes, ..http::Limits::default() };

    // Requests that have fully arrived are read ahead while earlier ones
    // are queued, so a client that pipelines keeps every worker busy;
    // their responses still go out in request order.
    let mut owed: VecDeque<Owed> = VecDeque::new();
    let mut reading = true;
    loop {
        while owed.front().is_some_and(Owed::is_now) {
            let o = owed.pop_front().expect("front checked");
            if !settle(shared, &mut writer, o) {
                return;
            }
        }
        let next = if !reading {
            None
        } else if owed.is_empty() {
            match http::read_request(&mut conn, &limits) {
                Err(http::RecvError::Idle) => {
                    if shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
                r => Some(r),
            }
        } else if owed.len() < PIPELINE_DEPTH {
            ready_request(&mut conn, &limits)
        } else {
            None
        };
        match next {
            None => match owed.pop_front() {
                Some(o) => {
                    if !settle(shared, &mut writer, o) {
                        return;
                    }
                }
                None => break,
            },
            Some(Ok(req)) => {
                let o = handle_request(shared, &req);
                reading = o.keep && !shared.draining.load(Ordering::SeqCst);
                owed.push_back(o);
            }
            Some(Err(http::RecvError::Closed)) => reading = false,
            Some(Err(e)) => {
                shared.metrics.http_parse_errors_total.inc();
                if let Some((status, msg)) = e.status() {
                    let body = http::error_body(msg);
                    owed.push_back(Owed::now(OTHER_ROUTE, None, false, status, body));
                }
                reading = false;
            }
        }
    }
    let _ = writer.flush();
}

/// The next request if it has fully arrived, without waiting for bytes.
fn ready_request(
    conn: &mut http::Conn<TcpStream>,
    limits: &http::Limits,
) -> Option<Result<http::Request, http::RecvError>> {
    if let Some(r) = conn.buffered_request(limits) {
        return Some(r);
    }
    conn.get_mut().set_nonblocking(true).ok()?;
    let filled = conn.fill_ready();
    let _ = conn.get_mut().set_nonblocking(false);
    if filled {
        conn.buffered_request(limits)
    } else {
        None
    }
}

/// Write one owed response, first waiting for its job's reply if it has
/// one; returns whether to keep the connection open.
fn settle(shared: &Shared, w: &mut TcpStream, o: Owed) -> bool {
    let (status, content_type, extra, body) = match o.body {
        OwedBody::Now { status, content_type, extra, body } => (status, content_type, extra, body),
        OwedBody::Queued { rx, deadline } => {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Reply::Body(body)) => (200, JSON, Vec::new(), body),
                Ok(Reply::Panicked) => {
                    let body = http::error_body("internal error: job panicked");
                    (500, JSON, Vec::new(), body.into())
                }
                Ok(Reply::Expired) | Err(RecvTimeoutError::Timeout) => {
                    shared.metrics.deadline_expired_total.inc();
                    (504, JSON, Vec::new(), http::error_body("deadline exceeded").into())
                }
                Err(RecvTimeoutError::Disconnected) => {
                    (500, JSON, Vec::new(), http::error_body("worker pool gone").into())
                }
            }
        }
    };
    shared.metrics.record(o.route, status);
    if let Some(t0) = o.t0 {
        shared.metrics.request_seconds.observe(t0.elapsed().as_secs_f64());
    }
    http::write_response(w, status, content_type, &extra, body.as_bytes(), o.keep).is_ok() && o.keep
}

/// Handle one request: the response it is owed.
fn handle_request(shared: &Arc<Shared>, req: &http::Request) -> Owed {
    let draining = shared.draining.load(Ordering::SeqCst);
    let keep = req.keep_alive && !draining;
    let route = route_index(&req.target);

    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            let body = serde_json::to_string(&serde_json::json!({
                "ok": true,
                "draining": draining,
            }))
            .expect("healthz body serializes");
            Owed::now(route, None, keep, 200, body)
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render(&shared.cache.stats());
            Owed::with(route, None, keep, 200, "text/plain; version=0.0.4", Vec::new(), text)
        }
        ("POST", "/v1/analyze") => handle_submit(shared, req, keep, JobKind::Analyze),
        ("POST", "/v1/fix") => handle_submit(shared, req, keep, JobKind::Fix),
        (_, "/healthz") | (_, "/metrics") | (_, "/v1/analyze") | (_, "/v1/fix") => {
            let allow = if req.target.starts_with("/v1/") { "POST" } else { "GET" };
            let body = http::error_body("method not allowed");
            Owed::with(route, None, keep, 405, JSON, vec![("allow", allow.to_string())], body)
        }
        _ => Owed::now(route, None, keep, 404, http::error_body("no such route")),
    }
}

fn handle_submit(shared: &Arc<Shared>, req: &http::Request, keep: bool, kind: JobKind) -> Owed {
    let t0 = Instant::now();
    let route = route_index(&req.target);
    if kind == JobKind::Fix {
        shared.metrics.fix_requests_total.inc();
    }
    let now = |status: u16, body: Arc<str>| Owed::now(route, Some(t0), keep, status, body);

    let wire: analyze::AnalyzeRequest = match std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
    {
        Some(wire) => wire,
        None => return now(400, http::error_body("body must be JSON: {\"code\": \"...\"}").into()),
    };

    // Cache hit: serve inline, no queue round-trip.
    if let Some(body) = shared.cache.get(&kind.cache_key(&wire.code)) {
        return now(200, body);
    }

    let deadline_ms = req
        .header("x-racellm-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(shared.cfg.deadline_ms)
        .min(shared.cfg.deadline_ms);
    let deadline = t0 + Duration::from_millis(deadline_ms);

    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job { kind, code: wire.code, queued: Instant::now(), deadline, reply: tx };
    match shared.queue.try_push(job) {
        Err(PushError::Full(_)) => {
            shared.metrics.queue_rejected_total.inc();
            let body = http::error_body("analysis queue full");
            let extra = vec![("retry-after", "1".to_string())];
            Owed::with(route, Some(t0), keep, 429, JSON, extra, body)
        }
        Err(PushError::Closed(_)) => now(503, http::error_body("server draining").into()),
        Ok(depth) => {
            shared.metrics.queue_depth.set(depth as i64);
            Owed { route, t0: Some(t0), keep, body: OwedBody::Queued { rx, deadline } }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, compute: Compute) -> usize {
    let poll = Duration::from_millis(shared.cfg.poll_ms.max(1));
    let mut processed = 0usize;

    while let Some(job) = shared.queue.pop(poll) {
        shared.metrics.queue_depth.set(shared.queue.len() as i64);
        shared.metrics.queue_wait_seconds.observe(job.queued.elapsed().as_secs_f64());
        if job.deadline <= Instant::now() {
            shared.metrics.worker_expired_total.inc();
            let _ = job.reply.try_send(Reply::Expired);
            continue;
        }

        processed += 1;
        let Some((body, certified)) =
            isolate(&shared.metrics, || compute(job.kind, &job.code))
        else {
            let _ = job.reply.try_send(Reply::Panicked);
            continue;
        };
        if certified {
            shared.metrics.fix_certified_total.inc();
        }
        let body: Arc<str> = Arc::from(body);
        shared.cache.insert(&job.kind.cache_key(&job.code), Arc::clone(&body));
        let _ = job.reply.try_send(Reply::Body(body));
    }
    processed
}

/// Run one job's computation with a panic contained to the job: the
/// calling worker survives, `racellm_job_panics_total` counts the panic,
/// and the job gets `None` (its request a 500, which is never cached).
fn isolate<T>(metrics: &Metrics, job: impl FnOnce() -> T) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(job)) {
        Ok(out) => Some(out),
        Err(_) => {
            metrics.job_panics_total.inc();
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client::Client;

    fn test_cfg() -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".to_string(), poll_ms: 20, ..ServeConfig::default() }
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

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let h = start(test_cfg()).expect("bind");
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let post = |target: &str, body: &str| {
            format!("POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
        };
        let kernels = [
            "int x; int main() { x = 1; return x; }",
            "int a[8]; int main() {\n#pragma omp parallel for\nfor (int i = 0; i < 7; i++) a[i] = a[i + 1];\nreturn 0; }",
        ];
        let json = |code: &str| {
            serde_json::to_string(&crate::analyze::AnalyzeRequest { code: code.to_string() })
                .unwrap()
        };
        let raw = [
            post("/v1/analyze", &json(kernels[0])),
            post("/v1/fix", &json(kernels[1])),
            "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
            post("/v1/analyze", &json(kernels[1])),
            post("/v1/analyze", "not json"),
        ]
        .concat();
        c.send_raw(raw.as_bytes()).unwrap();

        let mut next = || {
            let (status, body) = c.read_response().unwrap();
            (status, String::from_utf8(body).unwrap())
        };
        assert_eq!(next(), (200, crate::analyze::response_body(kernels[0])));
        assert_eq!(next(), (200, crate::fixer::fix_body(kernels[1])));
        let (status, health) = next();
        assert!(status == 200 && health.contains("\"ok\":true"), "{health}");
        assert_eq!(next(), (200, crate::analyze::response_body(kernels[1])));
        assert_eq!(next().0, 400);

        let report = h.shutdown();
        assert_eq!(report.jobs_leftover, 0);
        assert_eq!(report.jobs_processed, 3);
    }

    #[test]
    fn a_panicking_job_gets_a_500_and_the_worker_serves_on() {
        // One worker, so the job after the panics runs on the same thread.
        let cfg = ServeConfig { workers: 1, ..test_cfg() };
        let h = start_with(cfg, |kind, code| {
            assert!(!code.contains("boom"), "injected job panic");
            compute(kind, code)
        })
        .expect("bind");
        let mut c = Client::connect(h.addr(), Duration::from_secs(5)).unwrap();
        let mut post = |code: &str| {
            let body = serde_json::to_string(&crate::analyze::AnalyzeRequest {
                code: code.to_string(),
            })
            .unwrap();
            let (status, got) = c.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
            (status, String::from_utf8(got).unwrap())
        };
        let failed = (500, http::error_body("internal error: job panicked"));
        // The 500 is not cached: the same request panics again.
        assert_eq!(post("int boom; int main() { return 0; }"), failed);
        assert_eq!(post("int boom; int main() { return 0; }"), failed);
        assert_eq!(h.metrics().job_panics_total.get(), 2);
        assert_eq!(h.cache().stats().insertions, 0);
        let text = h.render_metrics();
        assert_eq!(crate::metrics::scrape_value(&text, "racellm_job_panics_total"), Some(2.0));
        assert!(text.contains("racellm_http_requests_total{route=\"analyze\",status=\"500\"} 2"));

        let ok = "int x; int main() { x = 1; return x; }";
        assert_eq!(post(ok), (200, crate::analyze::response_body(ok)));
        let report = h.shutdown();
        assert_eq!(report.jobs_processed, 3);
    }

    #[test]
    fn shutdown_without_clients_is_prompt() {
        // An unspecified bind address: the wake-up goes over loopback.
        let cfg = ServeConfig { addr: "0.0.0.0:0".to_string(), ..test_cfg() };
        let t0 = Instant::now();
        let report = start(cfg).expect("bind").shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "drain took {:?}", t0.elapsed());
        assert_eq!(report.jobs_leftover, 0);
        assert_eq!(report.jobs_processed, 0);
    }
}
