//! Asserts the bytecode executor's hot-loop claim with instrumented
//! allocation sites: once a program is set up (slots allocated, sites
//! interned, iteration assignments cached), processing more loop
//! iterations performs **zero** additional heap allocations — the
//! per-event path writes through preallocated registers, slots, and the
//! trace's flat event vector.
//!
//! Run with `cargo test -p hbsan --features count-ir-allocs`.
//! The counter is process-global, so the whole proof lives in one test
//! function (the default harness runs separate tests on threads).

#![cfg(feature = "count-ir-allocs")]

use hbsan::{ir_alloc_count, Config};

/// Lower and run a parallel-for kernel with `n` iterations; return the
/// executor's allocation count and the trace's event count.
fn run_with_trip_count(n: usize) -> (u64, usize) {
    let code = format!(
        "int a[8192];\nint main() {{\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < {n}; i++) {{\n    a[i] = a[i] + i;\n  }}\n  return 0;\n}}\n"
    );
    let unit = minic::parse(&code).unwrap();
    let prog = hbsan::lower(&unit);
    ir_alloc_count::reset();
    let out = hbsan::run_program(&prog, &Config::default()).expect("kernel executes");
    (ir_alloc_count::count(), out.trace.len())
}

#[test]
fn executor_allocations_do_not_scale_with_iterations() {
    let (allocs_small, events_small) = run_with_trip_count(500);
    let (allocs_large, events_large) = run_with_trip_count(8000);

    // 16× the iterations really did produce more events…
    assert!(events_small > 0);
    assert!(
        events_large >= events_small * 8,
        "expected event growth: {events_small} -> {events_large}"
    );
    // …but not one extra allocation: setup cost (slot allocs, site
    // interning, per-thread iteration assignments) is identical for
    // both trip counts, and the per-event path allocates nothing.
    assert_eq!(
        allocs_small, allocs_large,
        "executor allocations must be independent of trip count \
         ({events_small} events: {allocs_small} allocs, {events_large} events: {allocs_large} allocs)"
    );
    // Sanity bound: setup for one parallel-for over one array stays in
    // the dozens (per-thread induction cells + cached assignments), far
    // below one-per-event.
    assert!(
        allocs_large < 100,
        "setup allocations exploded: {allocs_large} for {events_large} events"
    );
}
