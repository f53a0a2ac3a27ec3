//! Fuzzing the running service with generated kernels. Each case draws
//! a generator seed, takes `xcheck::generate` kernels and their
//! label-flipping and semantics-preserving mutants, and sends every one
//! to a live server on `/v1/analyze` and `/v1/fix`. Every answer must be
//! a 200 whose bytes equal direct `response_body`/`fix_body` invocation,
//! no job may panic, and `/healthz` must still answer 200 afterwards.

use proptest::prelude::*;
use serve::http::client::Client;
use serve::server::{self, ServerHandle};
use serve::ServeConfig;
use std::sync::OnceLock;
use std::time::Duration;
use xcheck::{FlipMutation, SemMutation};

/// One server for every case (a case is one closure call, not a test).
fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            poll_ms: 20,
            ..ServeConfig::default()
        })
        .expect("server starts")
    })
}

/// The generated kernels of `seed` followed by every mutant of each.
fn inputs(seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for k in xcheck::generate(seed, 2) {
        let unit = minic::parse(&k.code).expect("generated kernels parse");
        let flips = FlipMutation::applicable(&k)
            .into_iter()
            .filter_map(|(m, _)| xcheck::apply_flip(&unit, m));
        let sems = SemMutation::ALL.into_iter().filter_map(|m| xcheck::apply_sem(&unit, m));
        let mutants: Vec<String> = flips.chain(sems).map(|u| minic::print_unit(&u)).collect();
        out.push(k.code);
        out.extend(mutants);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_kernels_and_mutants_are_served_like_direct_calls(seed in any::<u64>()) {
        let handle = server();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).unwrap();
        for code in inputs(seed) {
            let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
            for (route, direct) in [
                ("/v1/analyze", serve::analyze::response_body(&code)),
                ("/v1/fix", serve::fixer::fix_body(&code)),
            ] {
                let (status, got) = client.request("POST", route, &[], body.as_bytes()).unwrap();
                let got = String::from_utf8(got).unwrap();
                prop_assert_eq!(status, 200, "{} on seed {}: {}\n{}", route, seed, got, code);
                prop_assert_eq!(got, direct, "{} served other bytes on seed {}:\n{}", route, seed, code);
            }
            let (status, _) = client.request("GET", "/healthz", &[], b"").unwrap();
            prop_assert_eq!(status, 200, "healthz after seed {}:\n{}", seed, code);
            prop_assert_eq!(handle.metrics().job_panics_total.get(), 0, "a job panicked on:\n{}", code);
        }
    }
}
