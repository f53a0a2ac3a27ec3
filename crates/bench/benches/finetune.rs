//! Fine-tuning throughput benchmarks: single-fold adapter training and
//! the full Table 4 + Table 6 cross-validation sweep (serial and
//! fold-parallel). `tables --bench-json finetune` records the sweep
//! timings into `BENCH_finetune.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_finetune(c: &mut Criterion) {
    // Build the shared corpus views + calibrated surrogates outside the
    // timed region (every configuration below reuses them).
    let views = eval::corpus_views();
    let _ = eval::corpus_surrogates();

    let mut g = c.benchmark_group("finetune");
    g.sample_size(10);

    let kind = llm::ModelKind::StarChatBeta;
    let s = &eval::corpus_surrogates().iter().find(|(k, _)| *k == kind).expect("calibrated").1;
    let folds = finetune::folds_for(views, 5, 20230915);
    let cfg = finetune::TrainConfig::for_model(kind);

    g.bench_function("train_one_fold_fast", |b| {
        b.iter(|| black_box(finetune::FineTuned::train_on(s, views, &folds[0].train, &cfg)))
    });
    g.bench_function("cv_tables_serial", |b| {
        b.iter(|| black_box(eval::cv_tables_with_workers(1)))
    });
    g.bench_function("cv_tables_parallel", |b| {
        b.iter(|| black_box(eval::cv_tables_with_workers(par::default_workers())))
    });
    g.finish();

    println!("{}", eval::format_cv_table("Table 4", &eval::table4()));
    println!("{}", eval::format_cv_table("Table 6", &eval::table6()));
}

criterion_group!(benches, bench_finetune);
criterion_main!(benches);
