//! The two service workloads, driven against the real `racellm-cli
//! serve` binary over HTTP.
//!
//! A run is a sequence of rounds until the time budget is spent. Each
//! round sets up fresh servers (spawn → `listening on` → two
//! connections → warm-up) and keeps the last, sends one fixed-length
//! latency phase at the workload's fixed rate and one saturation burst
//! to it, and kills it. Latencies are gathered per distinct input over
//! the first `min_rounds` phases and reduced per input first (see
//! `config::PER_INPUT_PCT`); the other figures are per round, and the
//! run reports their favourable quartile (see `stats::favourable`), so
//! neither a slow stretch of the host nor one unlucky server instance
//! sets the result. Every response is compared byte for byte with the
//! in-process `serve::analyze::response_body` /
//! `serve::fixer::fix_body` of the bare kernel.

use crate::config::{Reported, ServiceCfg};
use crate::inputs::{self, Kernel, Lanes, Phase};
use crate::loadgen::{Conns, Outcome};
use crate::stats::percentile;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The two service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop cold `POST /v1/analyze`.
    AnalyzeCold,
    /// 80 % primed `/v1/analyze` hits beside 20 % cold `/v1/fix`.
    FixMixed,
}

/// A running `racellm-cli serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open: the server prints more than its first line, and a
    /// closed pipe would kill it.
    _stdout: BufReader<ChildStdout>,
    /// The address from its `listening on` line.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn the server on an ephemeral port and wait for its
    /// `listening on` line (no connect-polling: the acceptor's idle
    /// sleep would add up to 5 ms of jitter to every set-up).
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env_remove("RACELLM_WORKERS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on http://")
            .nth(1)
            .and_then(|a| a.trim().parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not report an address: {line:?}"
                )))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The bytes every request must be answered with, computed in process.
pub struct Expected {
    /// `response_body` of each bare kernel.
    pub analyze: Vec<Vec<u8>>,
    /// `fix_body` of each bare kernel (empty unless the workload fixes).
    pub fix: Vec<Vec<u8>>,
}

impl Expected {
    /// Compute the expected bodies for `ks`.
    pub fn compute(ks: &[Kernel], with_fix: bool) -> Expected {
        let codes: Vec<&str> = ks.iter().map(|k| k.code.as_str()).collect();
        let analyze = codes
            .iter()
            .map(|c| serve::analyze::response_body(c).into_bytes())
            .collect();
        let fix = if with_fix {
            codes
                .iter()
                .map(|c| serve::fixer::fix_body(c).into_bytes())
                .collect()
        } else {
            Vec::new()
        };
        Expected { analyze, fix }
    }

    /// Expected body per request of a phase.
    pub fn of<'a>(&'a self, ph: &Phase) -> Vec<&'a [u8]> {
        ph.kernel
            .iter()
            .zip(&ph.fix)
            .map(|(&k, &f)| {
                if f {
                    self.fix[k].as_slice()
                } else {
                    self.analyze[k].as_slice()
                }
            })
            .collect()
    }
}

/// A `/metrics` scrape.
pub struct Scrape(String);

impl Scrape {
    /// Scrape over connection 0 (between phases only).
    pub fn take(conns: &mut Conns) -> io::Result<Scrape> {
        let (status, body) = conns.get("/metrics")?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        Ok(Scrape(String::from_utf8_lossy(&body).into_owned()))
    }

    /// One unlabelled sample (0 when absent).
    pub fn v(&self, name: &str) -> f64 {
        serve::metrics::scrape_value(&self.0, name).unwrap_or(0.0)
    }

    /// `after − self` for one sample.
    pub fn delta(&self, after: &Scrape, name: &str) -> f64 {
        after.v(name) - self.v(name)
    }
}

/// One phase's outcomes plus the `/metrics` scrapes around it.
pub struct Measured {
    /// Per-request outcomes in send order.
    pub outcomes: Vec<Outcome>,
    /// Scrape before the phase.
    pub before: Scrape,
    /// Scrape after the phase.
    pub after: Scrape,
}

impl Measured {
    /// Percentile `r` of the phase's latencies over `r.over`, in
    /// milliseconds; infinite when fewer than ten samples lie beyond it.
    pub fn latency_ms(&self, ph: &Phase, r: &Reported) -> f64 {
        let lat: Vec<f64> = self
            .outcomes
            .iter()
            .zip(&ph.fix)
            .filter(|&(_, &fix)| r.over.holds(fix))
            .map(|(o, _)| o.latency_s * 1e3)
            .collect();
        percentile(&lat, r.pct, 10).unwrap_or(f64::INFINITY)
    }

    /// Add the phase's latencies over `r.over`, in milliseconds, to the
    /// samples of the input each request answered.
    pub fn add_by_input(&self, ph: &Phase, r: &Reported, by_input: &mut [Vec<f64>]) {
        for ((o, &fix), &k) in self.outcomes.iter().zip(&ph.fix).zip(&ph.kernel) {
            if r.over.holds(fix) {
                by_input[k].push(o.latency_s * 1e3);
            }
        }
    }

    /// Requests that did not end in a 200 with the expected bytes.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }
}

/// A live service: the server plus its two connections.
pub struct Live {
    /// The server child (kept alive while the connections are used).
    pub server: Server,
    /// The load connections.
    pub conns: Conns,
}

impl Live {
    /// Send a phase at `rate` (`None`: all at once), scraping `/metrics`
    /// around it.
    pub fn measure(
        &mut self,
        ph: &Phase,
        exp: &Expected,
        rate: Option<f64>,
    ) -> io::Result<Measured> {
        let reqs: Vec<&[u8]> = ph.reqs.iter().map(Vec::as_slice).collect();
        let before = Scrape::take(&mut self.conns)?;
        let outcomes = self.conns.run(&reqs, &exp.of(ph), &ph.lane, rate);
        let after = Scrape::take(&mut self.conns)?;
        Ok(Measured {
            outcomes,
            before,
            after,
        })
    }
}

/// Spawn, connect, and warm up one server; returns it with the set-up
/// time in seconds and the warm-up outcomes.
pub fn set_up(
    bin: &Path,
    kind: Kind,
    ks: &[Kernel],
    exp: &Expected,
    tag: &str,
) -> io::Result<(Live, f64, Measured)> {
    let t0 = Instant::now();
    let server = Server::spawn(bin)?;
    let conns = Conns::open(server.addr)?;
    let mut live = Live { server, conns };
    let warm = inputs::warmup(ks, kind == Kind::FixMixed, tag);
    let m = live.measure(&warm, exp, None)?;
    Ok((live, t0.elapsed().as_secs_f64(), m))
}

/// A latency phase of `kind`.
pub fn latency_phase(kind: Kind, ks: &[Kernel], seed: u64, tag: &str, cfg: &ServiceCfg) -> Phase {
    match kind {
        Kind::AnalyzeCold => inputs::analyze_cold(ks, seed, tag, cfg.passes),
        Kind::FixMixed => inputs::fix_mixed(ks, seed, tag, cfg.passes, Lanes::Split),
    }
}

/// A saturation burst of `kind`: both connections carry the mixed
/// stream, so both stay full.
pub fn burst_phase(kind: Kind, ks: &[Kernel], seed: u64, tag: &str, cfg: &ServiceCfg) -> Phase {
    match kind {
        Kind::AnalyzeCold => inputs::analyze_cold(ks, seed, tag, cfg.burst_passes),
        Kind::FixMixed => inputs::fix_mixed(ks, seed, tag, cfg.burst_passes, Lanes::Alternate),
    }
}

/// Everything one end-to-end service run measured.
pub struct Report {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Per distinct input, its latencies (ms) over the `p50` population
    /// of the first `min_rounds` latency phases.
    pub p50_by_input: Vec<Vec<f64>>,
    /// The same over the `tail` population.
    pub tail_by_input: Vec<Vec<f64>>,
    /// Per latency phase at the fixed rate, over its requests: the p50
    /// (ms). Diagnostic only: it carries the host's noise of the phase.
    pub p50_ms: Vec<f64>,
    /// Per latency phase: the tail percentile over its requests (ms),
    /// infinite when too few samples. Diagnostic only.
    pub tail_ms: Vec<f64>,
    /// Requests per latency phase.
    pub phase_requests: usize,
    /// Per saturation burst: requests completed per second.
    pub burst_rps: Vec<f64>,
    /// Per round: host steal time during the latency phase and the
    /// burst, percent.
    pub steal_pct: Vec<(f64, f64)>,
    /// Requests sent (set-ups, phases, bursts).
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Failed requests by HTTP status (0: no response).
    pub failed_statuses: std::collections::BTreeMap<u16, usize>,
    /// Per round: the server's peak RSS at the end of the round, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Cache hits over the latency phases.
    pub hits: u64,
    /// Cache misses over the latency phases.
    pub misses: u64,
    /// Cache evictions over the latency phases.
    pub evictions: u64,
    /// FNV-1a digest of every request generated.
    pub digest: u64,
    /// The workload's quality figure (see [`quality`]).
    pub quality: f64,
}

/// The `fix_mixed` guard: exactly four cache hits per miss over the
/// latency phases. An evicted primed key turns a hit into a miss, so an
/// eviction that matters breaks the equality; evicted cold fix entries
/// are never asked for again and do not.
pub fn designed_mix_holds(hits: u64, misses: u64) -> bool {
    misses > 0 && hits == 4 * misses
}

/// Completed requests per second of a burst sent all at once: the
/// service's throughput with both connections kept full, which is the
/// offered rate above which its backlog grows.
pub fn burst_throughput(outcomes: &[Outcome]) -> f64 {
    let drain = outcomes.iter().map(|o| o.latency_s).fold(0.0, f64::max);
    outcomes.len() as f64 / drain
}

/// Run `kind` end to end: rounds of set-up, a latency phase at the
/// fixed rate and a saturation burst, each on a fresh server, until
/// `seconds` have passed (at least `min_rounds`).
pub fn run(
    bin: &Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    cfg: &ServiceCfg,
) -> io::Result<Report> {
    let ks = inputs::kernels(seed);
    let exp = Expected::compute(&ks, kind == Kind::FixMixed);
    let mut rep = Report {
        setup_s: Vec::new(),
        p50_by_input: vec![Vec::new(); ks.len()],
        tail_by_input: vec![Vec::new(); ks.len()],
        p50_ms: Vec::new(),
        tail_ms: Vec::new(),
        phase_requests: 0,
        burst_rps: Vec::new(),
        steal_pct: Vec::new(),
        attempted: 0,
        failed: 0,
        failed_statuses: Default::default(),
        peak_rss_mb: Vec::new(),
        hits: 0,
        misses: 0,
        evictions: 0,
        digest: 0xcbf2_9ce4_8422_2325,
        quality: quality(kind, &ks, &exp),
    };
    let count = |rep: &mut Report, m: &Measured, ph: &Phase| {
        rep.attempted += m.outcomes.len();
        rep.failed += m.failed();
        for o in m.outcomes.iter().filter(|o| !o.ok) {
            *rep.failed_statuses.entry(o.status).or_default() += 1;
        }
        for r in &ph.reqs {
            rep.digest = inputs::fnv1a(rep.digest, r);
        }
    };

    let t0 = Instant::now();
    let mut round = 0;
    while round < cfg.min_rounds || t0.elapsed().as_secs_f64() < seconds {
        let mut live = None;
        for i in 0..cfg.setups_per_round {
            let tag = format!("{seed} setup {round} {i}");
            drop(live.take()); // the previous set-up's server is killed first
            let (l, secs, warm) = set_up(bin, kind, &ks, &exp, &tag)?;
            count(
                &mut rep,
                &warm,
                &inputs::warmup(&ks, kind == Kind::FixMixed, &tag),
            );
            rep.setup_s.push(secs);
            live = Some(l);
        }
        let mut live = live.expect("at least one set-up per round");

        let ph = latency_phase(kind, &ks, seed, &format!("latency {round}"), cfg);
        let h0 = crate::host::ticks();
        let m = live.measure(&ph, &exp, Some(cfg.rate_rps))?;
        let h1 = crate::host::ticks();
        count(&mut rep, &m, &ph);
        rep.phase_requests = ph.reqs.len();
        rep.p50_ms.push(m.latency_ms(&ph, &cfg.p50));
        rep.tail_ms.push(m.latency_ms(&ph, &cfg.tail));
        if round < cfg.min_rounds {
            m.add_by_input(&ph, &cfg.p50, &mut rep.p50_by_input);
            m.add_by_input(&ph, &cfg.tail, &mut rep.tail_by_input);
        }
        rep.hits += m.before.delta(&m.after, "racellm_cache_hits_total") as u64;
        rep.misses += m.before.delta(&m.after, "racellm_cache_misses_total") as u64;
        rep.evictions += m.before.delta(&m.after, "racellm_cache_evictions_total") as u64;

        let ph = burst_phase(kind, &ks, seed, &format!("burst {round}"), cfg);
        let b0 = crate::host::ticks();
        let m = live.measure(&ph, &exp, None)?;
        rep.steal_pct.push((
            crate::host::steal_pct(h0, h1),
            crate::host::steal_pct(b0, crate::host::ticks()),
        ));
        count(&mut rep, &m, &ph);
        rep.burst_rps.push(burst_throughput(&m.outcomes));
        rep.peak_rss_mb
            .push(live.server.peak_rss_mb().unwrap_or(0.0));
        round += 1;
    } // the round's server is killed here
    Ok(rep)
}

/// The workload's quality figure over its distinct inputs: verdict F1
/// of the served static ∨ dynamic verdict (`analyze_cold`), or the share
/// of racy-labelled kernels `/v1/fix` answers `"fixed"` (`fix_mixed`).
pub fn quality(kind: Kind, ks: &[Kernel], exp: &Expected) -> f64 {
    match kind {
        Kind::AnalyzeCold => crate::stats::f1(ks.iter().zip(&exp.analyze).map(|(k, body)| {
            let v: serde_json::Value =
                serde_json::from_str(std::str::from_utf8(body).expect("utf-8 body"))
                    .expect("analyze body is JSON");
            let verdicts = v.get("verdicts").expect("verdicts block");
            let yes = |key: &str| matches!(verdicts.get(key), Some(serde_json::Value::Bool(true)));
            (yes("static") || yes("dynamic"), k.race)
        })),
        Kind::FixMixed => {
            let racy: Vec<&Vec<u8>> = ks
                .iter()
                .zip(&exp.fix)
                .filter(|(k, _)| k.race)
                .map(|(_, b)| b)
                .collect();
            let fixed = racy
                .iter()
                .filter(|b| {
                    let v: serde_json::Value =
                        serde_json::from_str(std::str::from_utf8(b).expect("utf-8 body"))
                            .expect("fix body is JSON");
                    v.get("outcome").and_then(serde_json::Value::as_str) == Some("fixed")
                })
                .count();
            fixed as f64 / racy.len().max(1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designed_mix_is_exactly_four_hits_per_miss() {
        assert!(designed_mix_holds(4000, 1000));
        assert!(!designed_mix_holds(3999, 1001));
        assert!(!designed_mix_holds(0, 0));
    }

    #[test]
    fn burst_throughput_is_requests_over_drain_time() {
        let o = |latency_s: f64| Outcome {
            latency_s,
            lag_s: 0.0,
            status: 200,
            ok: true,
        };
        assert_eq!(burst_throughput(&[o(0.5), o(1.0), o(2.0), o(1.5)]), 2.0);
    }
}
