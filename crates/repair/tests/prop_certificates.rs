//! Property test: a repair certificate is not an artifact of the three
//! certification seeds. Certified patches re-verified under 16 *fresh*
//! schedule seeds (drawn by proptest, never seen during certification)
//! must stay race-free under the adversarial sweep and byte-identical
//! to the original kernel's output — modulo the globals the patch
//! declares scratch.

use proptest::prelude::*;
use repair::fix;
use std::sync::OnceLock;

struct FixedCase {
    name: String,
    original: minic::TranslationUnit,
    patched: minic::TranslationUnit,
    scratch: Vec<String>,
}

/// Racy corpus kernels (strided sample) fixed once, shared by every
/// proptest case — `fix` is deterministic, so caching loses nothing.
fn pool() -> &'static [FixedCase] {
    static POOL: OnceLock<Vec<FixedCase>> = OnceLock::new();
    POOL.get_or_init(|| {
        drb_gen::corpus()
            .iter()
            .filter(|k| k.race)
            .step_by(11)
            .filter_map(|k| {
                let r = fix(&k.trimmed_code);
                let f = r.fix()?;
                Some(FixedCase {
                    name: k.name.clone(),
                    original: minic::parse(&k.trimmed_code).ok()?,
                    patched: minic::parse(&f.patched_code).ok()?,
                    scratch: f.certificate.scratch.clone(),
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn certified_patches_survive_fresh_seeds(case_seed in any::<u64>(), salt in any::<u64>()) {
        let pool = pool();
        prop_assume!(!pool.is_empty());
        let case = &pool[(case_seed % pool.len() as u64) as usize];
        let seeds: Vec<u64> = (0..16)
            .map(|i| salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
            .collect();

        // Race-free under every fresh seed's adversarial schedule.
        let sweep = hbsan::check_adversarial_compiled(
            &case.patched,
            None,
            &hbsan::Config::default(),
            &seeds,
        )
        .map_err(|e| TestCaseError::Fail(format!("{}: sweep failed: {e}", case.name)))?;
        prop_assert!(
            !sweep.report.has_race(),
            "{}: patch races under fresh seeds {:?}",
            case.name,
            sweep.report.races
        );

        // Output-equivalent to the original under every fresh seed.
        for &seed in &seeds {
            let cfg = hbsan::Config { seed, ..hbsan::Config::default() };
            let a = hbsan::observe(&case.original, &cfg)
                .map_err(|e| TestCaseError::Fail(format!("{}: original: {e}", case.name)))?;
            let b = hbsan::observe(&case.patched, &cfg)
                .map_err(|e| TestCaseError::Fail(format!("{}: patched: {e}", case.name)))?;
            prop_assert!(
                hbsan::obs::equivalent(&a, &b, &case.scratch),
                "{}: output diverged under fresh seed {}: {:?}",
                case.name,
                seed,
                hbsan::obs::first_difference(&a, &b, &case.scratch)
            );
        }
    }
}
