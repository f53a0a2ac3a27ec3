//! Ablation benches for the design choices DESIGN.md calls out:
//! prompt verbosity (the "greedy prompt" effect), fine-tuning
//! hyperparameters (trust / rank / epochs), corpus difficulty vs
//! detector accuracy, and scheduler-seed sensitivity of the dynamic
//! checker.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ablate_prompts(c: &mut Criterion) {
    let views = drb_ml::Dataset::generate().subset_views();
    let mut g = c.benchmark_group("ablate_prompts");
    g.sample_size(10);
    for strategy in [
        llm::PromptStrategy::Bp1,
        llm::PromptStrategy::Bp2,
        llm::PromptStrategy::P2,
        llm::PromptStrategy::P3,
    ] {
        g.bench_function(strategy.label(), |b| {
            let s = llm::Surrogate::new(llm::ModelKind::Gpt35Turbo, &views);
            b.iter(|| black_box(eval::run_detection(&s, strategy, &views).0))
        });
    }
    g.finish();

    // Artifact: F1 per strategy (the Table-2 "greedy prompt" effect).
    let s = llm::Surrogate::new(llm::ModelKind::Gpt35Turbo, &views);
    for strategy in [
        llm::PromptStrategy::Bp1,
        llm::PromptStrategy::Bp2,
        llm::PromptStrategy::P2,
        llm::PromptStrategy::P3,
    ] {
        let c = eval::run_detection(&s, strategy, &views).0;
        println!("prompt {} → {}", strategy.label(), c);
    }
}

fn ablate_finetune(c: &mut Criterion) {
    let views = drb_ml::Dataset::generate().subset_views();
    let s = llm::Surrogate::new(llm::ModelKind::StarChatBeta, &views);
    let folds = finetune::folds_for(&views, 5, 1);
    let train: Vec<llm::KernelView> = folds[0].train.iter().map(|&i| views[i].clone()).collect();
    let test: Vec<llm::KernelView> = folds[0].test.iter().map(|&i| views[i].clone()).collect();

    let mut g = c.benchmark_group("ablate_finetune");
    g.sample_size(10);
    for rank in [2usize, 8, 32] {
        g.bench_function(format!("rank{rank}"), |b| {
            let mut cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
            cfg.rank = rank;
            b.iter(|| black_box(finetune::FineTuned::train(&s, &train, &cfg)))
        });
    }
    g.finish();

    // Artifact: fold-0 F1 sweep over trust (the dominant knob).
    for trust in [0.0, 0.2, 0.38, 0.6, 1.0] {
        let mut cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
        cfg.trust = trust;
        let ft = finetune::FineTuned::train(&s, &train, &cfg);
        let mut conf = eval::Confusion::default();
        for k in &test {
            conf.record(k.race, ft.predict(&s, k));
        }
        println!("trust {trust:.2} → {conf}");
    }
}

fn ablate_schedules(c: &mut Criterion) {
    // Dynamic-checker sensitivity to the number of explored schedules.
    // `schedule(dynamic, 4)` keeps the kernel seed-sensitive, so the
    // sweep cannot short-circuit; `check_adversarial` runs every seed.
    let racy = "int a[100]; int main(void) {\n#pragma omp parallel for schedule(dynamic, 4)\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }";
    let unit = minic::parse(racy).unwrap();
    let mut g = c.benchmark_group("ablate_schedules");
    for n in [1usize, 3, 8] {
        let seeds: Vec<u64> = (1..=n as u64).collect();
        g.bench_function(format!("seeds{n}"), |b| {
            b.iter(|| {
                black_box(
                    hbsan::check_adversarial(&unit, &hbsan::Config::default(), &seeds).unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn ablate_augmentation(c: &mut Criterion) {
    // Does label-preserving augmentation help fine-tuning? Train fold 0
    // with and without mutants of the training kernels (§5 future work).
    let views = drb_ml::Dataset::generate().subset_views();
    let s = llm::Surrogate::new(llm::ModelKind::StarChatBeta, &views);
    let folds = finetune::folds_for(&views, 5, 1);
    let corpus = drb_gen::corpus();
    let train: Vec<llm::KernelView> = folds[0].train.iter().map(|&i| views[i].clone()).collect();
    let test: Vec<llm::KernelView> = folds[0].test.iter().map(|&i| views[i].clone()).collect();

    // Augmented training set: original + rename/reformat mutants.
    let mut augmented = train.clone();
    for v in &train {
        let Some(k) = corpus.iter().find(|k| k.id == v.id) else { continue };
        for (j, m) in drb_gen::augment(k, 7).into_iter().enumerate() {
            augmented.push(llm::KernelView::new(
                10_000 + v.id * 4 + j as u32,
                m.trimmed_code,
                m.race,
                vec![],
                v.difficulty,
            ));
        }
    }

    let mut g = c.benchmark_group("ablate_augmentation");
    g.sample_size(10);
    g.bench_function("train_plain", |b| {
        let cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
        b.iter(|| black_box(finetune::FineTuned::train(&s, &train, &cfg)))
    });
    g.bench_function("train_augmented", |b| {
        let cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
        b.iter(|| black_box(finetune::FineTuned::train(&s, &augmented, &cfg)))
    });
    g.finish();

    // Artifact: fold-0 accuracy with and without augmentation.
    let cfg = finetune::TrainConfig::for_model(llm::ModelKind::StarChatBeta);
    for (label, data) in [("plain", &train), ("augmented", &augmented)] {
        let ft = finetune::FineTuned::train(&s, data, &cfg);
        let mut conf = eval::Confusion::default();
        for k in &test {
            conf.record(k.race, ft.predict(&s, k));
        }
        println!("augmentation {label} ({} examples) → {conf}", data.len());
    }
}

fn ablate_modalities(c: &mut Criterion) {
    // Rendering cost of each input modality over the whole subset.
    let views = drb_ml::Dataset::generate().subset_views();
    let mut g = c.benchmark_group("ablate_modalities");
    g.sample_size(10);
    for m in llm::Modality::ALL {
        g.bench_function(m.as_str(), |b| {
            b.iter(|| {
                let total: usize = views
                    .iter()
                    .map(|v| llm::render_modality(&v.trimmed_code, m).len())
                    .sum();
                black_box(total)
            })
        });
    }
    g.finish();

    // Artifact: how much larger each modality is than the source.
    let src: usize = views.iter().map(|v| v.trimmed_code.len()).sum();
    for m in llm::Modality::ALL {
        let total: usize =
            views.iter().map(|v| llm::render_modality(&v.trimmed_code, m).len()).sum();
        println!("modality {:8} total {total} bytes ({:.2}x source)", m.as_str(), total as f64 / src as f64);
    }
}

criterion_group!(
    benches,
    ablate_prompts,
    ablate_finetune,
    ablate_schedules,
    ablate_augmentation,
    ablate_modalities
);
criterion_main!(benches);
