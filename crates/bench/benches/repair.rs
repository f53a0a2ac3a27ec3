//! Repair-loop microbenches: the two costs `racellm-cli fix` and
//! `POST /v1/fix` pay — a full detect → candidate → certify → minimize
//! run on a racy kernel, and the detection-only path on a clean kernel
//! (no candidates enumerated).

use criterion::{criterion_group, criterion_main, Criterion};
use racellm::repair::fix;
use std::hint::black_box;

const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";
const CLEAN: &str = "int a[64];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) a[i] = i * 2;\n  return 0;\n}\n";

fn repair_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("repair");
    g.sample_size(20);
    g.bench_function("fix_racy_sum_cold", |b| {
        b.iter(|| black_box(fix(black_box(RACY_SUM))))
    });
    g.bench_function("fix_clean_kernel", |b| {
        b.iter(|| black_box(fix(black_box(CLEAN))))
    });
    g.finish();
}

fn repair_corpus_slice(c: &mut Criterion) {
    // A strided slice of racy corpus kernels — the shape of a sweep row
    // without the full 201-kernel runtime.
    let kernels: Vec<&str> = racellm::drb_gen::corpus()
        .iter()
        .filter(|k| k.race)
        .step_by(20)
        .map(|k| k.trimmed_code.as_str())
        .collect();
    let mut g = c.benchmark_group("repair_corpus");
    g.sample_size(10);
    g.bench_function("fix_racy_slice", |b| {
        b.iter(|| {
            kernels.iter().filter(|k| fix(k).fix().is_some()).count()
        })
    });
    g.finish();
}

criterion_group!(benches, repair_loop, repair_corpus_slice);
criterion_main!(benches);
