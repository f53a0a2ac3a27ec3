//! The benchmark's fixed constants.
//!
//! Rates, phase shapes and limits are constants of the benchmark, never
//! derived from a run, so two commits are measured at the same offered
//! load. Every run echoes them in its provenance record. The guard here
//! rejects a reported percentile that sits near a designed mode
//! boundary of the requests it is taken over.

/// Closest a reported percentile may sit to a designed mode boundary,
/// in percentile points.
pub const MIN_BOUNDARY_DISTANCE: f64 = 10.0;

/// The boundary the three oversized corpus kernels make in a pass of
/// 201 corpus and 67 generated kernels: they cost 5–11 ms to analyze
/// and 13–27 ms to repair, against 0.2–3 ms for every other kernel, and
/// are the top 3 of 268, so the mode changes at about p98.9.
pub const OVERSIZED_BOUNDARY_PCT: f64 = 100.0 * (1.0 - 3.0 / 268.0);

/// An input's own latency in a run: this nearest-rank percentile of its
/// latencies over the run's first `min_rounds` latency phases. That is
/// the best of a cold fix's 5 attempts, the third best of a cold
/// analysis's 24 and about the fourth best of a hit's 20–30. Host steal
/// and queueing behind a heavy request only ever add to a latency and
/// strike attempts at random, so an input's lower order statistic is
/// what the program costs, while its median is the host's luck.
pub const PER_INPUT_PCT: f64 = 12.5;

/// Which requests of a phase a percentile is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Every request (`analyze_cold`).
    All,
    /// The cache hits (`fix_mixed`'s `/v1/analyze` repeats).
    Hits,
    /// The cold `/v1/fix` requests.
    Fixes,
}

impl Population {
    /// Whether a request (sent to `/v1/fix` or not) belongs here.
    pub fn holds(self, fix: bool) -> bool {
        match self {
            Population::All => true,
            Population::Hits => !fix,
            Population::Fixes => fix,
        }
    }

    /// Name for the human-readable lines and the provenance record.
    pub fn label(self) -> &'static str {
        match self {
            Population::All => "all requests",
            Population::Hits => "hits",
            Population::Fixes => "cold fixes",
        }
    }
}

/// One reported latency percentile, taken over the distinct inputs of a
/// population (see [`PER_INPUT_PCT`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// The percentile, 0–100.
    pub pct: f64,
    /// The requests it is taken over.
    pub over: Population,
    /// Designed mode boundaries of that population, as percentiles.
    pub boundaries: &'static [f64],
}

/// Constants of one service workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCfg {
    /// Fixed offered rate of the latency phase (requests per second).
    pub rate_rps: f64,
    /// Passes over the workload's kernels per latency phase.
    pub passes: usize,
    /// Passes over the workload's kernels per saturation burst.
    pub burst_passes: usize,
    /// Fewest rounds (set-ups, latency phase, burst) per run; the
    /// latency percentiles are taken over this many phases, whatever the
    /// run's length, so a faster program does not get more attempts.
    pub min_rounds: usize,
    /// Set-ups per round; the round's phase and burst use the last.
    pub setups_per_round: usize,
    /// What `latency_p50_ms` reports.
    pub p50: Reported,
    /// What `latency_tail_ms` reports.
    pub tail: Reported,
}

/// Constants of the `paper_tables` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TablesCfg {
    /// Fewest fresh-process regenerations per run.
    pub min_samples: usize,
    /// A regeneration's Tables 4 + 6 step must take at least this long
    /// (ms), or fine-tuning was served from a cache instead of run.
    pub cv_floor_ms: f64,
    /// Tail percentile of the regeneration time (a run holds too few
    /// fresh-process samples for a p99 with ten beyond it).
    pub tail_pct: f64,
    /// Consecutive samples per round.
    pub round: usize,
}

/// `analyze_cold`: a fifth or less of its burst capacity, so a slower
/// host does not push the queue toward saturation. Both percentiles are
/// taken over every input; the tail stays 24 points below the oversized
/// kernels. Eight rounds fill a 30 s run on a 2-vCPU host, so the
/// inputs' latencies come from phases spread over the whole run.
pub const ANALYZE_COLD: ServiceCfg = ServiceCfg {
    rate_rps: 300.0,
    passes: 3,
    burst_passes: 3,
    min_rounds: 8,
    setups_per_round: 3,
    p50: Reported {
        pct: 50.0,
        over: Population::All,
        boundaries: &[OVERSIZED_BOUNDARY_PCT],
    },
    tail: Reported {
        pct: 75.0,
        over: Population::All,
        boundaries: &[OVERSIZED_BOUNDARY_PCT],
    },
};

/// `fix_mixed`: hits and cold fixes travel on separate connections in
/// the latency phases, so the p50 is taken over hits no fix blocks and
/// the tail over the fixes alone. No percentile is taken over the mixed
/// stream, whose 80 % hit/miss boundary is therefore not a boundary of
/// any reported population. The fixes share one connection, so a heavy
/// fix delays the ones behind it; 60 fixes/s keeps that queueing, and
/// the way host steal inflates it, small.
pub const FIX_MIXED: ServiceCfg = ServiceCfg {
    rate_rps: 300.0,
    passes: 1,
    burst_passes: 4,
    min_rounds: 5,
    setups_per_round: 3,
    p50: Reported {
        pct: 50.0,
        over: Population::Hits,
        boundaries: &[],
    },
    tail: Reported {
        pct: 75.0,
        over: Population::Fixes,
        boundaries: &[OVERSIZED_BOUNDARY_PCT],
    },
};

/// `paper_tables`.
pub const PAPER_TABLES: TablesCfg = TablesCfg {
    min_samples: 100,
    cv_floor_ms: 20.0,
    tail_pct: 90.0,
    round: 20,
};

/// Reject a reported percentile within [`MIN_BOUNDARY_DISTANCE`] points
/// of a mode boundary of its population: there it flips between modes
/// from run to run.
pub fn check_boundaries(r: &Reported) -> Result<(), String> {
    for b in r.boundaries {
        if (b - r.pct).abs() < MIN_BOUNDARY_DISTANCE {
            return Err(format!(
                "p{} over {} lies within {MIN_BOUNDARY_DISTANCE} points of the mode boundary at {b:.1}",
                r.pct,
                r.over.label()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentiles_stay_off_mode_boundaries() {
        for c in [ANALYZE_COLD, FIX_MIXED] {
            check_boundaries(&c.p50).unwrap();
            check_boundaries(&c.tail).unwrap();
        }
        let p99 = Reported {
            pct: 99.0,
            ..ANALYZE_COLD.tail
        };
        assert!(check_boundaries(&p99).is_err());
        let mixed_p75 = Reported {
            pct: 75.0,
            over: Population::All,
            boundaries: &[80.0],
        };
        assert!(check_boundaries(&mixed_p75).is_err());
    }

    #[test]
    fn oversized_boundary_matches_the_pass() {
        let pass = drb_gen::corpus().len() + crate::inputs::XCHECK_PER_PASS;
        assert_eq!(pass, 268);
        assert!((OVERSIZED_BOUNDARY_PCT - 98.88).abs() < 0.01);
    }
}
