//! Served-bytes golden: a digest of the exact `POST /v1/analyze` and
//! `POST /v1/fix` response bodies for every corpus kernel plus a fixed
//! sample of generated kernels. The service caches and ships these
//! bytes verbatim, so any refactor of the detector stack or the repair
//! loop that moves a single byte fails here with the kernel's name.
//!
//! Each line is `name  analyze=<len>:<fnv64>  fix=<len>:<fnv64>`.
//!
//! To bless a new snapshot after an intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_served_bodies
//! ```

use racellm::{drb_gen, serve, xcheck};
use std::path::PathBuf;

/// Seed and size of the generated sample pinned beside the corpus.
const GEN_SEED: u64 = 0x5E2E;
const GEN_COUNT: usize = 48;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(body: &str) -> String {
    format!("{}:{:016x}", body.len(), fnv64(body.as_bytes()))
}

fn render() -> String {
    let mut inputs: Vec<(String, String)> = drb_gen::corpus()
        .iter()
        .map(|k| (k.name.clone(), k.code.clone()))
        .collect();
    inputs.extend(
        xcheck::generate(GEN_SEED, GEN_COUNT)
            .into_iter()
            .map(|k| (k.name, k.code)),
    );
    let lines = par::par_map(&inputs, par::default_workers(), |(name, code)| {
        format!(
            "{name}  analyze={}  fix={}\n",
            digest(&serve::analyze::response_body(code)),
            digest(&serve::fixer::fix_body(code))
        )
    });
    lines.concat()
}

#[test]
fn served_bodies_match_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/served_bodies.txt");
    let rendered = render();
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p racellm --test it_served_bodies` to create it",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(g, r)| g != r)
        .map(|(g, r)| format!("  -{g}\n  +{r}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == rendered.lines().count(),
        "served bodies drifted from tests/golden/served_bodies.txt ({} lines differ):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
