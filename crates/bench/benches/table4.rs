//! Table 4 regeneration benchmark: stratified 5-fold CV with LoRA
//! fine-tuning for StarChat-β and Llama2-7b (10 adapter trainings per
//! regeneration).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table4(c: &mut Criterion) {
    let _ = drb_ml::Dataset::generate();
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("one_fold_training", |b| {
        let views = drb_ml::Dataset::generate().subset_views();
        let s = llm::Surrogate::new(llm::ModelKind::StarChatBeta, &views);
        let folds = finetune::folds_for(&views, 5, 1);
        let cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
        let train: Vec<llm::KernelView> =
            folds[0].train.iter().map(|&i| views[i].clone()).collect();
        b.iter(|| black_box(finetune::FineTuned::train(&s, &train, &cfg)))
    });
    // `eval::table4()` now serves from a per-process cache, so the
    // regeneration bench drives the underlying CV runner directly
    // (which also rebuilds Table 6 — the two tables share adapters).
    g.bench_function("regenerate_full", |b| {
        b.iter(|| {
            let (rows, _) = eval::cv_tables_with_workers(par::default_workers());
            assert_eq!(rows.len(), 4);
            black_box(rows)
        })
    });
    g.bench_function("cached_read", |b| {
        b.iter(|| {
            let rows = eval::table4();
            assert_eq!(rows.len(), 4);
            black_box(rows)
        })
    });
    g.finish();

    println!("{}", eval::format_cv_table("Table 4", &eval::table4()));
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
