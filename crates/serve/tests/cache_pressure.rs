//! Cache correctness under capacity pressure: hit/miss/eviction
//! counters move exactly as the access pattern dictates, and no amount
//! of churn — including a live server with a cache smaller than its
//! working set — ever yields a stale or cross-kernel response.

use serve::cache::ShardedLru;
use serve::http::client::Client;
use serve::{server, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn counters_track_the_access_pattern() {
    // Single shard: capacity accounting is exact (with N shards the
    // per-shard capacity is capacity/N and eviction counts depend on
    // how keys hash across shards).
    let cache = ShardedLru::new(8, 1);
    for i in 0..8 {
        let key = format!("kernel-{i}");
        assert!(cache.get(&key).is_none());
        cache.insert(&key, Arc::from(format!("body-{i}").as_str()));
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (0, 8, 8, 0));

    for i in 0..8 {
        let got = cache.get(&format!("kernel-{i}")).expect("resident");
        assert_eq!(&*got, format!("body-{i}").as_str());
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (8, 8));

    // Overflow: 8 more keys evict the 8 old ones in LRU order.
    for i in 8..16 {
        let key = format!("kernel-{i}");
        cache.insert(&key, Arc::from(format!("body-{i}").as_str()));
    }
    let s = cache.stats();
    assert_eq!(s.insertions, 16);
    assert_eq!(s.evictions, 8, "capacity 8 + 16 inserts = 8 evictions");
    assert_eq!(cache.len(), 8);
}

#[test]
fn eviction_churn_never_crosses_keys() {
    // Capacity far below the key space, hammered from 8 threads: every
    // successful get must return that exact key's value.
    let cache = Arc::new(ShardedLru::new(16, 4));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for round in 0..400 {
                    let i = (t * 131 + round * 17) % 96;
                    let key = format!("k{i}");
                    match cache.get(&key) {
                        Some(v) => assert_eq!(&*v, format!("v{i}").as_str(), "cross-key value"),
                        None => {
                            cache.insert(&key, Arc::from(format!("v{i}").as_str()))
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let s = cache.stats();
    assert!(s.evictions > 0, "pressure must actually evict: {s:?}");
    assert!(cache.len() <= 16);
}

#[test]
fn server_under_cache_pressure_stays_byte_identical() {
    // Working set (12 kernels) larger than the cache (4 slots): every
    // response must still match direct invocation even though entries
    // are constantly evicted and recomputed.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 4,
        cache_shards: 2,
        workers: 2,
        deadline_ms: 10_000,
        poll_ms: 25,
        ..ServeConfig::default()
    };
    let handle = server::start(cfg).unwrap();
    let addr = handle.addr();

    let corpus = drb_gen::corpus();
    let kernels: Vec<(String, String)> = corpus
        .iter()
        .take(12)
        .map(|k| (k.trimmed_code.clone(), serve::analyze::response_body(&k.trimmed_code)))
        .collect();

    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    for pass in 0..3 {
        for (i, (code, expected)) in kernels.iter().enumerate() {
            let body = serde_json::to_string(&serde_json::json!({ "code": code })).unwrap();
            let (status, got) =
                client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
            assert_eq!(status, 200, "pass {pass} kernel {i}");
            assert_eq!(
                std::str::from_utf8(&got).unwrap(),
                expected.as_str(),
                "stale/cross-kernel bytes under eviction (pass {pass}, kernel {i})"
            );
        }
    }

    let stats = handle.cache().stats();
    assert!(stats.evictions > 0, "cache pressure must evict: {stats:?}");
    assert!(handle.cache().len() <= 4);
    let report = handle.shutdown();
    assert_eq!(report.jobs_leftover, 0);
}
