//! Substrate micro-benchmarks: the cost of each pipeline stage — parse,
//! trim, dependence analysis, static detection, dynamic simulation,
//! tokenization, feature extraction — over representative kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SMALL: &str = r#"
int a[1000];
int main(void)
{
  int i;
  for (int k = 0; k < 1000; k++)
    a[k] = k;
  #pragma omp parallel for
  for (i = 0; i < 999; i++)
    a[i] = a[i + 1] + 1;
  return 0;
}
"#;

fn kernels() -> Vec<(&'static str, String)> {
    let corpus = drb_gen::corpus();
    vec![
        ("antidep", SMALL.to_string()),
        ("median_kernel", corpus[100].trimmed_code.clone()),
        ("oversized", corpus.iter().find(|k| k.name.contains("oversized-unrolledinit-yes")).unwrap().trimmed_code.clone()),
    ]
}

fn bench_frontend(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend");
    for (name, src) in kernels() {
        g.bench_with_input(BenchmarkId::new("lex", name), &src, |b, src| {
            b.iter(|| black_box(minic::lexer::Lexer::tokenize(src).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("parse", name), &src, |b, src| {
            b.iter(|| black_box(minic::parse(src).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("trim", name), &src, |b, src| {
            b.iter(|| black_box(minic::trim_comments(src)))
        });
        g.bench_with_input(BenchmarkId::new("llm_tokenize", name), &src, |b, src| {
            b.iter(|| black_box(llm::count_tokens(src)))
        });
    }
    g.finish();
}

fn bench_analyses(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyses");
    for (name, src) in kernels() {
        let unit = minic::parse(&src).unwrap();
        g.bench_with_input(BenchmarkId::new("racecheck", name), &unit, |b, u| {
            b.iter(|| black_box(racecheck::check(u)))
        });
        g.bench_with_input(BenchmarkId::new("features", name), &src, |b, s| {
            b.iter(|| black_box(llm::CodeFeatures::extract(s)))
        });
    }
    // Dynamic simulation only on the small kernel (the oversized one is
    // dominated by its init loop).
    let unit = minic::parse(SMALL).unwrap();
    g.bench_function("hbsan_run_analyze", |b| {
        b.iter(|| black_box(hbsan::check(&unit, &hbsan::Config::default()).unwrap()))
    });
    g.finish();
}

fn bench_corpus_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("corpus_scale");
    g.sample_size(10);
    g.bench_function("static_sweep_201", |b| {
        let corpus = drb_gen::corpus();
        b.iter(|| {
            let mut races = 0;
            for k in corpus {
                if racecheck::check_source(&k.trimmed_code).unwrap().has_race() {
                    races += 1;
                }
            }
            black_box(races)
        })
    });
    g.bench_function("parallel_static_sweep_201", |b| {
        let srcs: Vec<String> = drb_gen::corpus().iter().map(|k| k.trimmed_code.clone()).collect();
        b.iter(|| {
            let verdicts = par::par_map(&srcs, par::default_workers(), |s| {
                racecheck::check_source(s).unwrap().has_race()
            });
            black_box(verdicts.iter().filter(|v| **v).count())
        })
    });
    g.finish();
}

fn bench_artifact_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("artifact_cache");
    g.sample_size(10);
    let views = drb_ml::Dataset::generate().subset_views();

    // Cold: re-derive features from source per sweep (the pre-cache
    // behaviour of every answer path and the fine-tuning loop).
    g.bench_function("feature_sweep_cold_198", |b| {
        b.iter(|| {
            let ds = par::par_map(&views, par::default_workers(), |k| {
                llm::CodeFeatures::extract(&k.trimmed_code).surface_difficulty()
            });
            black_box(ds)
        })
    });
    // Cached: read the shared artifact.
    g.bench_function("feature_sweep_cached_198", |b| {
        b.iter(|| {
            let ds =
                par::par_map(&views, par::default_workers(), |k| k.artifact().surface_difficulty);
            black_box(ds)
        })
    });

    // Same pair for the static-detector baseline row.
    g.bench_function("baseline_cold_parse_198", |b| {
        b.iter(|| {
            let preds = par::par_map(&views, par::default_workers(), |k| {
                racecheck::check_source(&k.trimmed_code).map(|r| r.has_race()).unwrap_or(false)
            });
            black_box(preds)
        })
    });
    g.bench_function("baseline_cached_ast_198", |b| {
        b.iter(|| black_box(eval::run_baseline(&views)))
    });

    // And for the fine-tuning feature vectors (per fold × epoch cost).
    g.bench_function("finetune_vectors_cold_198", |b| {
        b.iter(|| {
            let xs: Vec<Vec<f64>> =
                views.iter().map(|k| finetune::feature_vector(&k.trimmed_code)).collect();
            black_box(xs)
        })
    });
    g.bench_function("finetune_vectors_cached_198", |b| {
        b.iter(|| {
            let xs: Vec<Vec<f64>> =
                views.iter().map(|k| finetune::feature_vector_of(k).to_vec()).collect();
            black_box(xs)
        })
    });
    g.finish();
}

fn bench_dynamic_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamic_oracle");
    g.sample_size(10);

    // Per-kernel analysis cost: the reference analyzer walks boxed
    // `Event`s with a full vector clock per access (the pre-interning
    // representation and algorithm), the epoch path walks the flat
    // interned trace with FastTrack shadow cells.
    for (name, src) in kernels() {
        let unit = minic::parse(&src).unwrap();
        let out = hbsan::run(&unit, &hbsan::Config::default()).unwrap();
        g.bench_with_input(BenchmarkId::new("analyze_reference", name), &out.trace, |b, t| {
            b.iter(|| black_box(hbsan::analyze_reference(t)))
        });
        g.bench_with_input(BenchmarkId::new("analyze_epoch", name), &out.trace, |b, t| {
            b.iter(|| black_box(hbsan::analyze(t)))
        });
    }

    g.finish();
}

criterion_group!(
    benches,
    bench_frontend,
    bench_analyses,
    bench_corpus_scale,
    bench_artifact_cache,
    bench_dynamic_oracle
);
criterion_main!(benches);
