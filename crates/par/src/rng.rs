//! The workspace's one SplitMix64.
//!
//! Four crates (`hbsan::sched`, `finetune::train`, `llm::decide`,
//! `drb_gen::augment`) carried byte-for-byte copies of the same
//! generator; they now re-export or call into this module. Every helper
//! here is stream-compatible with the code it replaced — the
//! `streams_match_the_historical_duplicates` test pins that down against
//! inline reference copies of the originals, because corpus generation,
//! schedule exploration, fold shuffling, and decider jitter are all
//! seeded off these exact sequences.

/// SplitMix64's golden-ratio increment.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// First finalizer multiplier (also used as a salt mixer by callers).
pub const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;

/// Second finalizer multiplier.
pub const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64's output finalizer: a bijective avalanche over `u64`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// Stateless two-input mixer (the `drb_gen::augment` decision function).
pub fn mix(seed: u64, salt: u64) -> u64 {
    mix64(seed.wrapping_mul(GOLDEN).wrapping_add(salt.wrapping_mul(MIX1)))
}

/// Map a raw 64-bit value to a uniform `f64` in `[0, 1)` using the top
/// 53 bits (the mantissa-exact construction).
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Splittable 64-bit mix (SplitMix64) — deterministic and dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(GOLDEN))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// The uniform that the `(k+1)`-th call to [`Rng::uniform`] from
    /// here would return, without advancing: SplitMix64's state after
    /// `n` draws is `state + n·GOLDEN`, so any draw ahead costs one mix.
    pub fn uniform_ahead(&self, k: u64) -> f64 {
        unit_f64(mix64(self.0.wrapping_add(k.wrapping_add(1).wrapping_mul(GOLDEN))))
    }

    /// Advance the generator as `n` calls to [`Rng::next_u64`] would.
    pub fn skip(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n.wrapping_mul(GOLDEN));
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference copy of the generator previously duplicated in
    /// `hbsan::sched` and `finetune::train` (identical bodies).
    struct OldRng(u64);

    impl OldRng {
        fn new(seed: u64) -> Self {
            OldRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Reference copy of `drb_gen::augment::mix`.
    fn old_mix(seed: u64, salt: u64) -> u64 {
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Reference copy of `llm::decide::jitter`'s arithmetic.
    fn old_jitter(model: u64, salt: u64, id: u32) -> f64 {
        let mut x = (model + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(id as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn streams_match_the_historical_duplicates() {
        for seed in [0u64, 1, 7, 23, 0xDEAD_BEEF, u64::MAX] {
            let mut new = Rng::new(seed);
            let mut old = OldRng::new(seed);
            for _ in 0..64 {
                assert_eq!(new.next_u64(), old.next_u64(), "seed {seed}");
            }
        }
        for seed in [0u64, 3, 99, 1 << 40] {
            for salt in [0u64, 11, 13, 17, 19] {
                assert_eq!(mix(seed, salt), old_mix(seed, salt));
            }
        }
        for model in 0u64..4 {
            for salt in [11u64, 13, 17, 19] {
                for id in [0u32, 1, 100, 200] {
                    let x = (model + 1)
                        .wrapping_mul(GOLDEN)
                        .wrapping_add(salt.wrapping_mul(MIX1))
                        .wrapping_add(id as u64);
                    assert_eq!(unit_f64(mix64(x)), old_jitter(model, salt, id));
                }
            }
        }
    }

    #[test]
    fn uniform_in_range_and_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            let x = a.uniform();
            assert!((0.0..1.0).contains(&x));
            assert_eq!(x, b.uniform());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(5);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_ahead_is_a_later_uniform() {
        for seed in [0u64, 1, 2024 ^ 0xF17E, u64::MAX] {
            let rng = Rng::new(seed);
            let mut draws = rng.clone();
            for k in 0..300 {
                assert_eq!(rng.uniform_ahead(k), draws.uniform(), "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn skip_equals_repeated_next_u64() {
        // Starting states just below `u64::MAX` make the skip wrap.
        let starts = [Rng::new(7), Rng(u64::MAX), Rng(u64::MAX - GOLDEN / 2), Rng(0)];
        for start in starts {
            for n in [0u64, 1, 2, 3, 279, 1000] {
                let mut skipped = start.clone();
                skipped.skip(n);
                let mut stepped = start.clone();
                for _ in 0..n {
                    stepped.next_u64();
                }
                assert_eq!(skipped.0, stepped.0, "start {:#x}, n {n}", start.0);
                assert_eq!(skipped.next_u64(), stepped.next_u64());
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn skip_ahead_matches_the_stream(seed in proptest::prelude::any::<u64>(), k in 0u64..600, n in 0u64..600) {
            let mut rng = Rng::new(seed);
            let ahead = rng.uniform_ahead(k);
            let mut stepped = rng.clone();
            for _ in 0..k {
                stepped.next_u64();
            }
            proptest::prop_assert_eq!(ahead.to_bits(), stepped.uniform().to_bits());
            let mut stepped = rng.clone();
            for _ in 0..n {
                stepped.next_u64();
            }
            rng.skip(n);
            proptest::prop_assert_eq!(rng.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn below_bounds() {
        let mut rng = Rng::new(9);
        for n in [1usize, 2, 7, 1000] {
            for _ in 0..20 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
