//! Worker-to-CPU pinning.
//!
//! Long-lived workers are placed by the scheduler at wake-up only, and
//! on small VMs it can leave two busy workers queued on one CPU while
//! the other idles for a whole burst of traffic. When the pool has
//! exactly one worker per CPU the process may use, pinning worker `i`
//! to the `i`-th of those CPUs rules that out without confining the
//! pool to a subset of them.

/// The CPUs the calling thread may run on, ascending (empty when the
/// platform does not say).
pub fn allowed() -> Vec<usize> {
    imp::allowed()
}

/// Restrict the calling thread to `cpu`; whether the kernel accepted.
pub fn pin(cpu: usize) -> bool {
    imp::pin(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    pub fn pin(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        if cpu >= set.len() * 64 {
            return false;
        }
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of the size passed; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_runs_only_on_its_cpu() {
        let cpus = allowed();
        if cfg!(not(target_os = "linux")) {
            assert!(cpus.is_empty() && !pin(0));
            return;
        }
        let last = *cpus.last().expect("Linux reports the allowed CPUs");
        let seen = std::thread::spawn(move || (pin(last), allowed())).join().unwrap();
        assert_eq!(seen, (true, vec![last]));
        // Pinning a spawned thread leaves the caller's set alone.
        assert_eq!(allowed(), cpus);
    }
}
