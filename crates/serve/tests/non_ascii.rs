//! Kernels with non-ASCII text. The surrogate's tokenizer once sliced
//! inside a multi-byte character and panicked, which killed the worker
//! thread serving the request; two such requests left the service with
//! no workers. Each non-ASCII character is now one token.

use proptest::prelude::*;
use serve::http::client::Client;
use serve::{server, ServeConfig};
use std::time::Duration;

const NAIVE: &str = "int main() { printf(\"naïve\\n\"); return 0; }";
const ARROWS: &str =
    "int x;\nint main() {\n  // écrit → x\n  x = 1;\n  return x; /* 🦀 */\n}\n";
const CLEAN: &str = "int x;\nint main() {\n  x = 1;\n  return x;\n}\n";

fn post(client: &mut Client, route: &str, code: &str) -> (u16, String) {
    let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
    let (status, body) = client.request("POST", route, &[], body.as_bytes()).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn non_ascii_kernels_leave_every_worker_serving() {
    let handle = server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        poll_ms: 20,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).unwrap();
    for code in [NAIVE, ARROWS, CLEAN] {
        let (status, body) = post(&mut client, "/v1/analyze", code);
        assert_eq!(status, 200, "{code:?}: {body}");
        assert_eq!(body, serve::analyze::response_body(code));
    }
    let (status, health) = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(health).unwrap().contains("\"ok\":true"));
    let report = handle.shutdown();
    assert_eq!(report.jobs_processed, 3);
    assert_eq!(report.jobs_leftover, 0);
}

#[test]
fn non_ascii_kernels_are_analyzed_and_fixed() {
    for code in [NAIVE, ARROWS] {
        let body = serve::analyze::response_body(code);
        assert!(body.contains("\"parse_ok\":true"), "{body}");
        assert!(serve::fixer::fix_body(code).contains("\"parse_ok\":true"));
    }
}

/// The ASCII half of [`arb_text`]'s alphabet.
const C_ISH: &[u8] = b"int main(){x=1;}[]#pragma omp parallel for\n\"'\\/*+-<>=&|";

/// Text drawn half from C-ish ASCII, a quarter from two-byte UTF-8 and a
/// quarter from any Unicode scalar value.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 0..120).prop_map(|cs| {
        cs.into_iter()
            .map(|(pick, c)| match pick % 4 {
                0 => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'),
                1 => char::from_u32(0x80 + c % 0x780).unwrap_or('é'),
                _ => C_ISH[c as usize % C_ISH.len()] as char,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_text_panics_the_analyze_body(code in arb_text()) {
        let body = serve::analyze::response_body(&code);
        prop_assert!(body.contains("\"parse_ok\""));
    }
}
