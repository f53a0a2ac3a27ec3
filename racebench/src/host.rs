//! Host CPU accounting from `/proc/stat`, used to tell how much of a
//! measurement the hypervisor took away (steal time).

/// Cumulative CPU ticks summed over all CPUs.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    /// Ticks the vCPUs wanted: everything but idle and iowait.
    wanted: u64,
    steal: u64,
}

/// Read the current ticks (`None` where `/proc/stat` is unavailable).
pub fn ticks() -> Option<Ticks> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let wanted = f.get(..8)?.iter().sum::<u64>() - f[3] - f[4];
    Some(Ticks {
        wanted,
        steal: f[7],
    })
}

/// Percent of the CPU time this machine wanted between `a` and `b` that
/// the hypervisor gave to someone else instead.
pub fn steal_pct(a: Option<Ticks>, b: Option<Ticks>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if b.wanted > a.wanted => {
            100.0 * (b.steal - a.steal) as f64 / (b.wanted - a.wanted) as f64
        }
        _ => 0.0,
    }
}
