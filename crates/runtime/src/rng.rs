//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the simulator (backup placement, workload keys,
//! crash victims, …) draws from a [`SimRng`] seeded from the experiment
//! configuration, so a run is reproducible bit-for-bit from its seed. The
//! generator is xoshiro256++ with a SplitMix64 seeding stage — the same
//! construction the reference implementations recommend — implemented locally
//! so determinism does not depend on an external crate's version.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use rmc_runtime::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose entire state derives from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's rejection method
    /// (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: recompute threshold once.
            let threshold = bound.wrapping_neg() % bound;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi, got {lo}..{hi}");
        lo + self.gen_below(hi - lo)
    }

    /// A Bernoulli draw with probability `p` of returning `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.next_f64() < p
    }

    /// An exponentially distributed float with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        // Inverse-CDF sampling; 1 - U avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Samples `k` distinct indices out of `0..n` (reservoir-free partial
    /// Fisher–Yates). Returns fewer than `k` when `n < k`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let take = k.min(n);
        for i in 0..take {
            let j = i + self.gen_below((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(take);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_below_stays_in_bounds_and_covers() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let mean = 10.0;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.3,
            "exp mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SimRng::seed_from_u64(7);
        let picked = rng.sample_indices(50, 10);
        assert_eq!(picked.len(), 10);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
        assert!(picked.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_short_pool() {
        let mut rng = SimRng::seed_from_u64(8);
        let picked = rng.sample_indices(3, 10);
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SimRng::seed_from_u64(10);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits} hits for p=0.25");
    }
}
