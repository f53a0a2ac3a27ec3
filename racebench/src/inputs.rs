//! Seeded workload inputs: which kernels, in which order, with which
//! unique suffixes, and the bytes each request must be answered with.
//!
//! Everything here is a pure function of the workload seed, so two
//! commits fed the same seed send byte-identical requests; the digest
//! in the provenance record shows it.

use crate::loadgen::post;
use par::rng::{mix, Rng};

/// Share of each pass drawn from `xcheck::generate` rather than the
/// corpus: 67 generated beside the 201 corpus kernels is a quarter.
pub const XCHECK_PER_PASS: usize = 67;

/// One distinct kernel a workload sends.
pub struct Kernel {
    /// Source as a client sends it (corpus kernels keep their
    /// DRB-style header comment).
    pub code: String,
    /// Ground-truth race label (corpus `race`, xcheck `expected`).
    pub race: bool,
}

/// The distinct kernels of a seed: the 201 corpus kernels first, then
/// the seed's generated kernels.
pub fn kernels(seed: u64) -> Vec<Kernel> {
    let mut out: Vec<Kernel> = drb_gen::corpus()
        .iter()
        .map(|k| Kernel {
            code: k.code.clone(),
            race: k.race,
        })
        .collect();
    out.extend(
        xcheck::generate(mix(seed, 0x5eed_c0de), XCHECK_PER_PASS)
            .into_iter()
            .map(|g| Kernel {
                code: g.code,
                race: g.expected,
            }),
    );
    out
}

/// Number of corpus kernels at the front of [`kernels`].
pub fn corpus_len() -> usize {
    drb_gen::corpus().len()
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// The kernel with a unique trailing comment. `minic::trim_comments`
/// drops it, so the server does the bare kernel's work and answers
/// with the bare kernel's bytes, but the cache key is new.
pub fn unique(code: &str, tag: &str) -> String {
    let sep = if code.ends_with('\n') { "" } else { "\n" };
    format!("{code}{sep}// racebench {tag}\n")
}

/// One phase of requests with, for each, the index of the kernel whose
/// bare-kernel body must come back, the route it went to and the
/// connection it travels on.
#[derive(Default)]
pub struct Phase {
    /// Raw HTTP request bytes, in send order.
    pub reqs: Vec<Vec<u8>>,
    /// Kernel index answered by each request.
    pub kernel: Vec<usize>,
    /// Whether each request went to `/v1/fix` (else `/v1/analyze`).
    pub fix: Vec<bool>,
    /// Connection (0 or 1) each request is sent on.
    pub lane: Vec<usize>,
}

impl Phase {
    fn push(&mut self, req: Vec<u8>, kernel: usize, fix: bool, lane: usize) {
        self.reqs.push(req);
        self.kernel.push(kernel);
        self.fix.push(fix);
        self.lane.push(lane);
    }
}

/// Cold `/v1/analyze`: `passes` seeded passes over every kernel, each
/// request with its own cache key, alternating between the connections.
pub fn analyze_cold(ks: &[Kernel], seed: u64, tag: &str, passes: usize) -> Phase {
    let mut ph = Phase::default();
    for p in 0..passes {
        for k in permutation(ks.len(), mix(seed, hash_tag(tag) ^ p as u64)) {
            let req = post(
                "/v1/analyze",
                &unique(&ks[k].code, &format!("{seed} {tag} {p} {k}")),
            );
            let lane = ph.reqs.len() % 2;
            ph.push(req, k, false, lane);
        }
    }
    ph
}

/// How a mixed phase spreads its requests over the two connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// Hits on connection 0, cold fixes on connection 1. The server
    /// answers a connection's requests in order, so this keeps every
    /// hit from waiting behind a fix (latency phases).
    Split,
    /// Alternate, so both connections stay full (saturation bursts).
    Alternate,
}

/// The mixed phase: `passes` cold `/v1/fix` passes over every kernel,
/// plus four times as many `/v1/analyze` repeats of primed corpus
/// kernels drawn uniformly, shuffled together. Exactly a fifth of the
/// requests are misses.
pub fn fix_mixed(ks: &[Kernel], seed: u64, tag: &str, passes: usize, lanes: Lanes) -> Phase {
    let s = mix(seed, hash_tag(tag));
    let fixes: Vec<usize> = (0..passes)
        .flat_map(|p| permutation(ks.len(), mix(s, 2 + p as u64)))
        .collect();
    let mut rng = Rng::new(mix(s, 1));
    let hits: Vec<usize> = (0..4 * fixes.len())
        .map(|_| rng.below(corpus_len()))
        .collect();
    let mut slots: Vec<bool> = (0..5 * fixes.len()).map(|i| i < fixes.len()).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    let (mut f, mut h) = (fixes.into_iter(), hits.into_iter());
    let mut ph = Phase::default();
    for is_fix in slots {
        let i = ph.reqs.len();
        let lane = match lanes {
            Lanes::Split => usize::from(is_fix),
            Lanes::Alternate => i % 2,
        };
        if is_fix {
            let k = f.next().expect("one slot per fix");
            let req = post(
                "/v1/fix",
                &unique(&ks[k].code, &format!("{seed} {tag} {i} {k}")),
            );
            ph.push(req, k, true, lane);
        } else {
            let k = h.next().expect("four slots per fix");
            ph.push(post("/v1/analyze", &ks[k].code), k, false, lane);
        }
    }
    ph
}

/// The warm-up every service set-up sends: each corpus kernel once to
/// `/v1/analyze`. For `fix_mixed` these are the bare kernels the hits
/// repeat (the priming); for `analyze_cold` they carry a set-up tag so
/// the measured phases stay cold.
pub fn warmup(ks: &[Kernel], prime: bool, tag: &str) -> Phase {
    let mut ph = Phase::default();
    for (k, kernel) in ks.iter().enumerate().take(corpus_len()) {
        let code = if prime {
            kernel.code.clone()
        } else {
            unique(&kernel.code, tag)
        };
        ph.push(post("/v1/analyze", &code), k, false, k % 2);
    }
    ph
}

fn hash_tag(tag: &str) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, tag.as_bytes())
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_phase_is_exactly_one_fifth_misses() {
        let ks = kernels(3);
        let ph = fix_mixed(&ks, 3, "t", 2, Lanes::Split);
        assert_eq!(ph.reqs.len(), 10 * ks.len());
        assert_eq!(ph.fix.iter().filter(|&&f| f).count(), 2 * ks.len());
        assert!(ph
            .lane
            .iter()
            .zip(&ph.fix)
            .all(|(&l, &f)| l == usize::from(f)));
        let alt = fix_mixed(&ks, 3, "t", 2, Lanes::Alternate);
        assert_eq!((alt.reqs, alt.fix), (ph.reqs.clone(), ph.fix.clone()));
        assert!(ph
            .kernel
            .iter()
            .zip(&ph.fix)
            .all(|(&k, &f)| f || k < corpus_len()));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (kernels(9), kernels(9));
        assert_eq!(
            analyze_cold(&a, 9, "x", 1).reqs,
            analyze_cold(&b, 9, "x", 1).reqs
        );
        assert_ne!(
            analyze_cold(&a, 9, "x", 1).reqs,
            analyze_cold(&kernels(10), 10, "x", 1).reqs
        );
    }

    #[test]
    fn unique_suffix_is_stripped_by_trimming() {
        for k in kernels(1).iter().step_by(7) {
            assert_eq!(
                minic::trim_comments(&unique(&k.code, "1 t 0 0")).code,
                minic::trim_comments(&k.code).code
            );
        }
    }
}
