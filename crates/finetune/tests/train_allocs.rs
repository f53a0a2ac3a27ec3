//! Proves the fused training loop's core claim with a counting global
//! allocator: after warmup, a training step — loading the example with
//! its dropout draws, the sparse forward pass, the fused gradient and
//! Adam update, even the epoch-boundary shuffle — performs **zero**
//! heap allocations.
//!
//! Run with `cargo test -p finetune --features count-train-allocs`.
//! Counting is gated on a thread-local flag so allocations from other
//! test threads never pollute the counter; tests still serialize on a
//! mutex because the counter itself is process-global.

#![cfg(feature = "count-train-allocs")]

use finetune::{nonzero_indices, Adam, AdamConfig, LoraHead, Rng, TrainScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the allocator can be called during thread teardown
    // after the TLS slot is gone.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn tracked<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    (r, ALLOCS.load(Ordering::Relaxed))
}

#[test]
fn allocator_instrumentation_works() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let ((), n) = tracked(|| {
        let v: Vec<u64> = (0..64).collect();
        assert_eq!(v.len(), 64);
    });
    assert!(n > 0, "a fresh Vec must be counted");
}

#[test]
fn fused_training_steps_are_allocation_free_after_warmup() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // Realistic adapter shape: full feature width, paper-config rank.
    let dim = finetune::FEATURE_DIM;
    let rank = 8;
    let mut setup_rng = Rng::new(3);
    let w: Vec<f64> = (0..dim).map(|_| setup_rng.uniform() - 0.5).collect();
    // Sparse like real feature vectors: about a third of them nonzero.
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|_| {
            (0..dim)
                .map(|_| if setup_rng.uniform() < 0.3 { setup_rng.uniform() - 0.5 } else { 0.0 })
                .collect()
        })
        .collect();
    let nonzeros: Vec<Vec<u32>> = xs.iter().map(|x| nonzero_indices(x)).collect();

    let mut head = LoraHead::new(w, 0.1, rank, 16.0, 7);
    let mut opt = Adam::new(head.adapter_params(), AdamConfig { lr: 0.004, ..Default::default() });
    let mut scratch = TrainScratch::new(rank, dim);
    let mut rng = Rng::new(2024 ^ 0xF17E);
    let mut order: Vec<usize> = (0..xs.len()).collect();

    // Warmup epoch: first touches of every buffer.
    rng.shuffle(&mut order);
    for &i in &order {
        scratch.load(&xs[i], &nonzeros[i], 0.1, &mut rng);
        head.adam_step_scratch(f64::from(i % 2 == 0), &mut opt, &mut scratch);
    }

    // Steady state: several full epochs, shuffles included, zero allocs.
    let ((), n) = tracked(|| {
        for _ in 0..5 {
            rng.shuffle(&mut order);
            for &i in &order {
                scratch.load(&xs[i], &nonzeros[i], 0.1, &mut rng);
                head.adam_step_scratch(f64::from(i % 2 == 0), &mut opt, &mut scratch);
            }
        }
    });
    assert_eq!(n, 0, "inner training loop allocated {n} times after warmup");
}
