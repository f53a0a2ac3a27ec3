//! The epoch fast path must be **observationally identical** to the
//! reference full-vector-clock analyzer on the entire corpus: same
//! `DynReport` (races, sites, order) for every kernel × schedule seed,
//! and the adversarial sweep must equal the seed-order merge of
//! single-seed checks.

use drb_gen::{corpus, Kernel, ToolBehavior};
use hbsan::{analyze, analyze_reference, Config};

const SEEDS: [u64; 3] = [1, 7, 23];

#[test]
fn epoch_path_matches_reference_on_every_corpus_kernel() {
    let mut compared = 0usize;
    let mismatches: Vec<String> = par::par_map(corpus(), par::default_workers(), |k| {
        let Ok(unit) = minic::parse(&k.trimmed_code) else {
            return Vec::new();
        };
        let mut bad = Vec::new();
        for seed in SEEDS {
            let cfg = Config { seed, ..Config::default() };
            let Ok(out) = hbsan::run(&unit, &cfg) else {
                // Unmodeled kernels may fail at runtime; equivalence is
                // about analyses of traces that exist.
                continue;
            };
            let epoch = analyze(&out.trace);
            let reference = analyze_reference(&out.trace);
            if epoch != reference {
                bad.push(format!(
                    "{} seed {seed}: epoch {:?} != reference {:?}",
                    k.name,
                    epoch.pair_signatures(),
                    reference.pair_signatures()
                ));
            }
            if epoch.pair_signatures() != reference.pair_signatures() {
                bad.push(format!("{} seed {seed}: pair signatures diverge", k.name));
            }
        }
        bad
    })
    .into_iter()
    .inspect(|_| compared += 1)
    .flatten()
    .collect();
    assert!(compared > 150, "only {compared} kernels compared");
    assert!(
        mismatches.is_empty(),
        "{} oracle divergences:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn adversarial_sweep_matches_seed_order_merge_across_corpus() {
    let kernels: Vec<&Kernel> = corpus()
        .iter()
        .filter(|k| k.behavior != ToolBehavior::DynUnmodeled)
        .collect();
    let diffs: Vec<String> = par::par_map(&kernels, par::default_workers(), |k| {
        let unit = minic::parse(&k.trimmed_code).ok()?;
        let swept = hbsan::check_adversarial(&unit, &Config::default(), &SEEDS);
        let merged = SEEDS.iter().try_fold(hbsan::DynReport::default(), |mut acc, &seed| {
            acc.merge(hbsan::check(&unit, &Config { seed, ..Config::default() })?);
            Ok(acc)
        });
        (swept != merged).then(|| format!("{}: sweep {swept:?} vs merge {merged:?}", k.name))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(diffs.is_empty(), "sweep diverges from the per-seed merge:\n{}", diffs.join("\n"));
}
