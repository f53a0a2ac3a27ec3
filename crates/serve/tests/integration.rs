//! End-to-end test over real sockets: a server on an ephemeral port,
//! concurrent keep-alive clients, and three guarantees — every response
//! is byte-identical to direct `analyze::response_body` invocation,
//! identical kernels collapse to one cache entry, and graceful drain
//! leaves no queued jobs behind.

use serve::http::client::Client;
use serve::{server, ServeConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 128,
        cache_shards: 4,
        deadline_ms: 10_000,
        poll_ms: 25,
        ..ServeConfig::default()
    }
}

fn post_analyze(addr: SocketAddr, code: &str) -> (u16, Vec<u8>) {
    let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap()
}

fn bool_field(v: &serde_json::Value, path: &[&str]) -> Option<bool> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    match cur {
        serde_json::Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    let handle = server::start(test_config()).unwrap();
    let addr = handle.addr();

    // A small mixed slice of the corpus: racy and clean kernels.
    let corpus = drb_gen::corpus();
    let kernels: Vec<(String, String)> = corpus
        .iter()
        .take(6)
        .map(|k| (k.trimmed_code.clone(), serve::analyze::response_body(&k.trimmed_code)))
        .collect();

    // 8 concurrent clients × 2 passes over the slice, keep-alive.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let kernels = kernels.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
                for pass in 0..2 {
                    for i in 0..kernels.len() {
                        // Stagger the order per thread so cache fills race.
                        let (code, expected) = &kernels[(i + t + pass) % kernels.len()];
                        let body =
                            serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
                        let (status, got) =
                            client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
                        assert_eq!(status, 200);
                        assert_eq!(
                            std::str::from_utf8(&got).unwrap(),
                            expected.as_str(),
                            "served bytes diverge from direct invocation"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // 8 clients × 2 passes × 6 kernels hit the same 6 cache keys.
    assert_eq!(handle.cache().len(), kernels.len(), "identical kernels must share one entry");
    let stats = handle.cache().stats();
    assert_eq!(
        stats.hits + stats.misses,
        (8 * 2 * kernels.len()) as u64,
        "every request consults the cache"
    );
    // At most one miss per kernel per in-flight duplicate burst; the
    // steady state is overwhelmingly hits.
    assert!(stats.hits >= (8 * kernels.len()) as u64, "warm passes must hit: {stats:?}");

    let report = handle.shutdown();
    assert_eq!(report.jobs_leftover, 0, "drain must run the queue dry");
}

#[test]
fn verdicts_match_direct_detector_invocation() {
    let handle = server::start(test_config()).unwrap();
    let addr = handle.addr();

    let corpus = drb_gen::corpus();
    let racy = corpus.iter().find(|k| k.race).unwrap();
    let clean = corpus.iter().find(|k| !k.race).unwrap();

    for k in [racy, clean] {
        let (status, body) = post_analyze(addr, &k.trimmed_code);
        assert_eq!(status, 200);
        let resp: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        let direct = xcheck::verdicts_of_code(&k.trimmed_code).expect("corpus kernels parse");
        assert_eq!(
            bool_field(&resp, &["verdicts", "static"]),
            Some(direct.stat),
            "static verdict drift on {}",
            k.name
        );
        assert_eq!(
            bool_field(&resp, &["verdicts", "dynamic"]),
            direct.dynv,
            "dynamic drift on {}",
            k.name
        );
        assert_eq!(
            bool_field(&resp, &["verdicts", "llm"]),
            Some(direct.llm),
            "llm drift on {}",
            k.name
        );
    }
    handle.shutdown();
}

#[test]
fn health_metrics_and_errors_over_real_sockets() {
    let handle = server::start(test_config()).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let (status, body) = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&body).unwrap().contains("\"ok\":true"));

    // Unknown route and wrong method on a live route.
    let (status, _) = client.request("GET", "/nope", &[], b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/analyze", &[], b"").unwrap();
    assert_eq!(status, 405);

    // Bad JSON is a 400, not a worker crash.
    let (status, _) = client.request("POST", "/v1/analyze", &[], b"{nope").unwrap();
    assert_eq!(status, 400);

    // All of the above flowed on ONE keep-alive connection; metrics saw them.
    let (status, metrics) = client.request("GET", "/metrics", &[], b"").unwrap();
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&metrics).unwrap();
    assert!(text.contains("racellm_http_requests_total{route=\"healthz\",status=\"200\"} 1"));
    assert!(text.contains("racellm_http_requests_total{route=\"other\",status=\"404\"} 1"));
    assert!(text.contains("racellm_http_requests_total{route=\"analyze\",status=\"405\"} 1"));
    assert!(text.contains("racellm_http_requests_total{route=\"analyze\",status=\"400\"} 1"));
    assert_eq!(serve::metrics::scrape_value(text, "racellm_connections_active"), Some(1.0));

    handle.shutdown();
}

#[test]
fn per_request_deadline_and_drain_under_load() {
    let handle = server::start(test_config()).unwrap();
    let addr = handle.addr();

    // A kernel not yet cached + zero deadline: the conn thread gives up
    // before any worker can finish.
    let corpus = drb_gen::corpus();
    let code = &corpus[42].trimmed_code;
    let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
    let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let (status, _) = client
        .request(
            "POST",
            "/v1/analyze",
            &[("x-racellm-deadline-ms", "0".to_string())],
            body.as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 504);

    // The same kernel without the header succeeds afterwards — the
    // expired job didn't wedge the queue or poison the cache.
    let (status, got) = post_analyze(addr, code);
    assert_eq!(status, 200);
    assert_eq!(std::str::from_utf8(&got).unwrap(), serve::analyze::response_body(code));

    let report = handle.shutdown();
    assert_eq!(report.jobs_leftover, 0);
}

#[test]
fn fix_route_serves_certified_patches_with_byte_identical_hits() {
    let handle = server::start(test_config()).unwrap();
    let addr = handle.addr();

    let racy = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";
    let expected = serve::fixer::fix_body(racy);
    let body = serde_json::to_string(&serde_json::json!({ "code": racy })).unwrap();

    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let (status, cold) = client.request("POST", "/v1/fix", &[], body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(std::str::from_utf8(&cold).unwrap(), expected, "served fix diverges from direct invocation");
    let (status, warm) = client.request("POST", "/v1/fix", &[], body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "cache hit must be byte-identical");

    // The same kernel analyzed and fixed must occupy distinct cache
    // entries (namespaced keys), and the patch must replay green.
    let (status, _) = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(handle.cache().len(), 2, "analyze and fix responses are separate entries");

    let resp: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&cold).unwrap()).unwrap();
    let patched = resp
        .get("fix")
        .and_then(|f| f.get("patched_code"))
        .and_then(serde_json::Value::as_str)
        .expect("patched code on the wire");
    let unit = minic::parse(patched).expect("patched kernel parses");
    assert!(racecheck::check(&unit).races.is_empty(), "wire patch must replay racecheck-clean");

    // Counters: two fix requests, one fresh certification (the warm
    // repeat was a cache hit), wrong-method guard on the new route.
    let (status, _) = client.request("GET", "/v1/fix", &[], b"").unwrap();
    assert_eq!(status, 405);
    let m = handle.metrics();
    assert_eq!(m.fix_requests_total.get(), 2);
    assert_eq!(m.fix_certified_total.get(), 1);
    let text = handle.render_metrics();
    assert!(text.contains("racellm_http_requests_total{route=\"fix\",status=\"200\"} 2"));
    assert!(text.contains("racellm_http_requests_total{route=\"fix\",status=\"405\"} 1"));
    assert!(text.contains("racellm_fix_requests_total 2"));
    assert!(text.contains("racellm_fix_certified_total 1"));

    let report = handle.shutdown();
    assert_eq!(report.jobs_leftover, 0);
}
