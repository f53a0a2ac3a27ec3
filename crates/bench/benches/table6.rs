//! Table 6 regeneration benchmark: 5-fold CV variable identification
//! with and without fine-tuning.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table6(c: &mut Criterion) {
    let _ = drb_ml::Dataset::generate();
    let mut g = c.benchmark_group("table6");
    g.sample_size(10);
    // `eval::table6()` now serves from a per-process cache shared with
    // Table 4; regeneration goes through the CV runner directly.
    g.bench_function("regenerate_full", |b| {
        b.iter(|| {
            let (_, rows) = eval::cv_tables_with_workers(par::default_workers());
            assert_eq!(rows.len(), 4);
            black_box(rows)
        })
    });
    g.finish();

    println!("{}", eval::format_cv_table("Table 6", &eval::table6()));
}

criterion_group!(benches, bench_table6);
criterion_main!(benches);
