//! `racellm-cli serve --smoke` — the tier-1 serving gate.
//!
//! Boots the full service on an ephemeral port, drives a small request
//! mix over real sockets — health check, a cold and a warm analyze of
//! the same racy kernel (asserting byte-identical bodies and a cache
//! hit), one malformed request (400), one forced deadline expiry (504)
//! — verifies every expected metrics delta, then sends one kernel
//! nested far past the parser's budget and checks the service still
//! answers, and drains cleanly. Any violated invariant returns `Err`
//! with the failing check named.

use crate::analyze::{AnalyzeRequest, AnalyzeResponse};
use crate::fixer::FixResponse;
use crate::http::client::Client;
use crate::metrics::OTHER_ROUTE;
use crate::server::{start, ServerHandle};
use crate::ServeConfig;
use std::fmt::Write as _;
use std::time::Duration;

const RACY: &str = "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n";
const FRESH: &str = "int y[32];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 32; i++) {\n    y[i] = i;\n  }\n  return 0;\n}\n";
const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("smoke check failed: {what}"))
    }
}

fn post_json(
    client: &mut Client,
    target: &str,
    code: &str,
    headers: &[(&str, String)],
) -> Result<(u16, String), String> {
    let body = serde_json::to_string(&AnalyzeRequest { code: code.to_string() })
        .expect("request serializes");
    let (status, bytes) = client
        .request("POST", target, headers, body.as_bytes())
        .map_err(|e| format!("{target} request failed: {e}"))?;
    Ok((status, String::from_utf8_lossy(&bytes).into_owned()))
}

fn post_analyze(
    client: &mut Client,
    code: &str,
    headers: &[(&str, String)],
) -> Result<(u16, String), String> {
    post_json(client, "/v1/analyze", code, headers)
}

fn run_mix(h: &ServerHandle, out: &mut String) -> Result<(), String> {
    let timeout = Duration::from_secs(10);
    let mut client =
        Client::connect(h.addr(), timeout).map_err(|e| format!("connect failed: {e}"))?;

    // 1. Health.
    let (status, body) =
        client.request("GET", "/healthz", &[], b"").map_err(|e| format!("healthz: {e}"))?;
    ensure(status == 200, "healthz returns 200")?;
    ensure(String::from_utf8_lossy(&body).contains("\"ok\":true"), "healthz body")?;

    // 2. Cold analyze of a racy kernel.
    let (status, cold) = post_analyze(&mut client, RACY, &[])?;
    ensure(status == 200, "cold analyze returns 200")?;
    let parsed: AnalyzeResponse =
        serde_json::from_str(&cold).map_err(|e| format!("response not valid JSON: {e}"))?;
    ensure(parsed.verdicts.static_verdict == Some(true), "racy kernel: static verdict")?;
    ensure(parsed.verdicts.consensus == Some(true), "racy kernel: unanimous consensus")?;
    ensure(parsed.var_pairs.is_some(), "racy kernel: var_pairs present")?;

    // 3. Warm repeat: byte-identical, served from cache.
    let (status, warm) = post_analyze(&mut client, RACY, &[])?;
    ensure(status == 200, "warm analyze returns 200")?;
    ensure(warm == cold, "warm response byte-identical to cold")?;
    let stats = h.cache().stats();
    ensure(stats.hits == 1, "exactly one cache hit after the repeat")?;
    ensure(h.cache().len() == 1, "identical kernels share one cache entry")?;

    // 4. Deadline expiry: zero budget on an uncached kernel.
    let (status, _) =
        post_analyze(&mut client, FRESH, &[("x-racellm-deadline-ms", "0".to_string())])?;
    ensure(status == 504, "zero-deadline analyze returns 504")?;

    // 5. Certified repair: cold fix of a racy reduction, then a warm
    //    repeat that must be a byte-identical cache hit.
    let (status, cold_fix) = post_json(&mut client, "/v1/fix", RACY_SUM, &[])?;
    ensure(status == 200, "cold fix returns 200")?;
    let parsed: FixResponse =
        serde_json::from_str(&cold_fix).map_err(|e| format!("fix response not JSON: {e}"))?;
    ensure(parsed.outcome == "fixed", "racy sum kernel gets fixed")?;
    let wire_fix = parsed.fix.ok_or("fix block missing from fixed response")?;
    ensure(wire_fix.patch.contains("reduction(+: sum)"), "patch adds the reduction clause")?;
    ensure(wire_fix.certificate.racecheck_clean, "certificate claims racecheck clean")?;
    let (status, warm_fix) = post_json(&mut client, "/v1/fix", RACY_SUM, &[])?;
    ensure(status == 200, "warm fix returns 200")?;
    ensure(warm_fix == cold_fix, "warm fix byte-identical to cold")?;

    // 6. Malformed request on a fresh connection (the server closes it).
    let mut bad =
        Client::connect(h.addr(), timeout).map_err(|e| format!("connect failed: {e}"))?;
    bad.send_raw(b"THIS IS NOT HTTP\r\n\r\n").map_err(|e| format!("send garbage: {e}"))?;
    let (status, _) = bad.read_response().map_err(|e| format!("garbage response: {e}"))?;
    ensure(status == 400, "malformed request line returns 400")?;

    // 7. Metrics deltas, scraped over HTTP like a real Prometheus.
    let (status, text) =
        client.request("GET", "/metrics", &[], b"").map_err(|e| format!("metrics: {e}"))?;
    ensure(status == 200, "metrics returns 200")?;
    let text = String::from_utf8_lossy(&text).into_owned();
    let m = h.metrics();
    ensure(m.requests_get(0, 200) == 2, "two analyze 200s recorded")?;
    ensure(m.requests_get(0, 504) == 1, "one analyze 504 recorded")?;
    ensure(m.requests_get(1, 200) == 2, "two fix 200s recorded")?;
    ensure(m.fix_requests_total.get() == 2, "fix request counter moved twice")?;
    ensure(m.fix_certified_total.get() == 1, "exactly one fresh certification (hit replays)")?;
    ensure(m.deadline_expired_total.get() == 1, "deadline counter moved")?;
    ensure(m.http_parse_errors_total.get() == 1, "parse-error counter moved")?;
    ensure(m.requests_get(OTHER_ROUTE, 400) == 1, "one 400 recorded")?;
    ensure(m.queue_wait_seconds.count() >= 1, "worker pool popped a queued job")?;
    ensure(
        text.contains("racellm_http_requests_total{route=\"analyze\",status=\"200\"} 2"),
        "exposition text carries the analyze counter",
    )?;
    ensure(
        text.contains("racellm_http_requests_total{route=\"fix\",status=\"200\"} 2"),
        "exposition text carries the fix counter",
    )?;
    ensure(
        text.contains("racellm_fix_certified_total 1"),
        "exposition text carries the certification counter",
    )?;
    ensure(
        text.contains("racellm_cache_hits_total 2"),
        "exposition text carries both cache hits",
    )?;

    // 8. A kernel nested far past the parser's budget is an unparseable
    //    kernel, not a dead worker: 200, and health still answers.
    let deep = format!("int main() {{ return {}1{}; }}", "(".repeat(2000), ")".repeat(2000));
    let (status, body) = post_analyze(&mut client, &deep, &[])?;
    ensure(status == 200, "deeply nested analyze returns 200")?;
    ensure(body.contains("\"parse_ok\":false"), "deeply nested kernel is unparseable")?;
    let (status, _) =
        client.request("GET", "/healthz", &[], b"").map_err(|e| format!("healthz: {e}"))?;
    ensure(status == 200, "healthz answers after the deep request")?;

    // 9. A builtin called with too few arguments is a runtime error of
    //    the kernel, not a dead worker: 200, and the pool still serves.
    let (status, body) = post_analyze(&mut client, "int main() { return sqrt(); }", &[])?;
    ensure(status == 200, "arity-error analyze returns 200")?;
    ensure(body.contains("\"dynamic\":null"), "arity error leaves no dynamic verdict")?;
    let (status, _) =
        client.request("GET", "/healthz", &[], b"").map_err(|e| format!("healthz: {e}"))?;
    ensure(status == 200, "healthz answers after the arity error")?;
    let (status, _) = post_analyze(&mut client, "int x; int main() { x = 1; return x; }", &[])?;
    ensure(status == 200, "analyze still served after the arity error")?;

    let _ = writeln!(
        out,
        "serve smoke ok: healthz + 2 analyze + 2 fix (cached repeats byte-identical) + 504 deadline + 400 malformed + 1 too-deep + 1 arity error on {}",
        h.addr()
    );
    Ok(())
}

/// Run the gate. Returns the human summary on success.
pub fn run() -> Result<String, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        deadline_ms: 5000,
        poll_ms: 25,
        ..ServeConfig::default()
    };
    let h = start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    let mut out = String::new();

    let mix = run_mix(&h, &mut out);
    let report = h.shutdown();
    mix?;

    if report.jobs_leftover != 0 {
        return Err(format!("drain left {} jobs queued", report.jobs_leftover));
    }
    // The racy kernel was analyzed once; the zero-deadline kernel is
    // also processed (and cached) by the pool even though its client
    // had already timed out.
    if report.jobs_processed < 1 {
        return Err("worker pool processed no jobs".to_string());
    }
    let _ = writeln!(
        out,
        "serve smoke ok: clean drain ({} jobs processed, 0 leftover)",
        report.jobs_processed
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_gate_passes() {
        let summary = super::run().expect("smoke gate");
        assert!(summary.contains("clean drain"));
    }
}
