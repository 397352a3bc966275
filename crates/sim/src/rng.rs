//! A small deterministic RNG for simulator-internal choices.
//!
//! The simulator must be bit-reproducible per seed. Components that need
//! randomness (victim selection, workload nondeterminism) each own a
//! [`SimRng`] seeded from the run seed plus a component-specific salt, so
//! adding a consumer never perturbs another's stream.
//!
//! The generator is xorshift64\* — tiny, fast, and ample quality for
//! workload shuffling, random directory victims and the Figure 2 Monte
//! Carlo (`scd-core`'s `analysis`), which only needs uniform draws. It is
//! the only pseudo-random generator in the engine (`tests/gates.rs`
//! holds that).

/// Deterministic xorshift64* generator. `Hash` hashes the state, so a
/// model-checking digest tells apart two futures of a random policy.
#[derive(Clone, Debug, Hash)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from `seed` (0 is remapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Creates a generator from `seed` scrambled by splitmix64, so that
    /// low-entropy seeds (0, small integers) start from a full-width state.
    pub fn seeded(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::new(z ^ (z >> 31))
    }

    /// Derives an independent stream for a sub-component.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(
            self.next_u64()
                .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407)),
        )
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// If `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling to avoid modulo bias (matters for workload
        // fairness when bound is large).
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(1234);
        let mut b = SimRng::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = SimRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(99);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.index(10)] += 1;
        }
        for &c in &counts {
            let expect = n as f64 / 10.0;
            assert!(
                (c as f64 - expect).abs() < expect * 0.1,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn unit_in_range_and_chance_sane() {
        let mut r = SimRng::new(5);
        let mut hits = 0;
        for _ in 0..100_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            if r.chance(0.25) {
                hits += 1;
            }
        }
        assert!((hits as f64 - 25_000.0).abs() < 1_500.0, "hits={hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn forked_streams_are_independent_of_later_forks() {
        let mut root1 = SimRng::new(42);
        let mut a1 = root1.fork(1);
        let mut root2 = SimRng::new(42);
        let mut a2 = root2.fork(1);
        let _b2 = root2.fork(2); // extra fork must not disturb a2's stream
        for _ in 0..16 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
    }
}
