//! Kernels that fail at run time — a builtin called with too few
//! arguments, runaway recursion, a huge allocation — are answered like
//! any other kernel (200, no dynamic verdict) and leave every worker
//! serving; so is a call too wide for the bytecode's register file.
//! Each one once panicked a worker, overflowed its stack, exhausted the
//! host's memory or fell back to a second engine.

use serve::http::client::Client;
use serve::{server, ServeConfig};
use std::time::Duration;

const CLEAN: &str = "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    a[i] = i * 2;\n  }\n  return 0;\n}\n";

/// Racy `parallel sections` kernel: both sections update `x`.
const SECTIONS_RACY: &str = "int x;\nint y;\n\nint main() {\n  x = 0;\n  y = 0;\n  #pragma omp parallel sections\n  {\n    #pragma omp section\n    {\n      x = x + 1;\n    }\n    #pragma omp section\n    {\n      x = x + 2;\n    }\n  }\n  return 0;\n}\n";

/// A main-less kernel with three functions (library mode).
const LIBRARY: &str = "int total;\nvoid scale(int *v) {\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) v[i] = v[i] * 2;\n}\nvoid accumulate(int *v) {\n  #pragma omp parallel for\n  for (int i = 0; i < 16; i++) total += v[i];\n}\nvoid reset() { total = 0; }\n";

fn post(client: &mut Client, route: &str, code: &str) -> (u16, String) {
    let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
    let (status, body) = client.request("POST", route, &[], body.as_bytes()).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn faults() -> Vec<String> {
    let kernels: Vec<String> = [
        "int main() { return sqrt(); }",
        "int main() { double d; d = pow(2.0); return 0; }",
        "int main() { int *p; p = calloc(8); return 0; }",
        "int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }\nint main() { return f(1000000); }",
        &format!(
            "int x;\nint f(int n) {{ if (n == 0) return 0;\n{}x = f(n - 1);\n{} return x; }}\nint main() {{ return f(63); }}",
            "#pragma omp critical\n{\n".repeat(50),
            "}\n".repeat(50)
        ),
        "int main() { int *p; p = malloc(8000000000); p[0] = 1; return 0; }",
        "int a[2000000000];\nint main() { a[0] = 1; return 0; }",
    ]
    .map(String::from)
    .to_vec();
    kernels
}

#[test]
fn runtime_faults_leave_every_worker_serving() {
    let handle = server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        poll_ms: 20,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).unwrap();
    for code in faults() {
        let (status, body) = post(&mut client, "/v1/analyze", &code);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"dynamic\":null"), "a failed run has no dynamic verdict: {body}");
    }
    let wide = format!("int main() {{ ext({}); return 0; }}", vec!["1"; 70_000].join(","));
    let (status, body) = post(&mut client, "/v1/analyze", &wide);
    assert_eq!(status, 200);
    assert!(body.contains("\"dynamic\":false"), "{body}");
    let (status, _) = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(post(&mut client, "/v1/analyze", CLEAN).0, 200);
    assert_eq!(post(&mut client, "/v1/fix", CLEAN).0, 200);
    handle.shutdown();
}

#[test]
fn sections_kernel_gets_a_dynamic_verdict() {
    let r = serve::analyze::analyze_code(SECTIONS_RACY);
    assert_eq!(r.verdicts.dynamic, Some(true));
    assert!(!r.dynamic_races.is_empty());
}

#[test]
fn library_mode_responses_are_deterministic() {
    let first = serve::analyze::response_body(LIBRARY);
    assert!(first.contains("\"parse_ok\":true"), "{first}");
    for _ in 0..15 {
        assert_eq!(serve::analyze::response_body(LIBRARY), first);
    }
}
