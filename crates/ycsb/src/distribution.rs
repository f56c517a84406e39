//! Request distributions over a key space.
//!
//! The paper drives RAMCloud with YCSB using a **uniform** request
//! distribution (Section III-C); zipfian is provided because it is YCSB's
//! default skew and the `local_b` benchmark workload draws it.

use rmc_runtime::SimRng;
use serde::{Deserialize, Serialize};

/// Which request distribution to use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Every record equally likely (the paper's setting).
    Uniform,
    /// YCSB's scrambled zipfian with the given theta (0.99 by default in
    /// YCSB).
    Zipfian {
        /// Skew parameter in `(0, 1)`.
        theta: f64,
    },
}

impl Distribution {
    /// YCSB's default zipfian skew.
    pub fn zipfian_default() -> Self {
        Distribution::Zipfian { theta: 0.99 }
    }
}

/// Stateful sampler for key indices in `[0, record_count)`.
#[derive(Debug, Clone)]
pub struct KeyChooser {
    dist: Distribution,
    record_count: u64,
    zipf: Option<ZipfState>,
}

#[derive(Debug, Clone)]
struct ZipfState {
    zeta_n: f64,
    /// `1 + 0.5^θ`: a draw with `u · ζ(n)` below it (and not below 1) is
    /// rank 1.
    rank1_bound: f64,
    alpha: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct summation; record counts here are ≤ tens of millions and this
    // runs once per generator.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl KeyChooser {
    /// Creates a sampler over `record_count` keys.
    ///
    /// # Panics
    ///
    /// Panics if `record_count` is zero, or if a zipfian theta is outside
    /// `(0, 1)`.
    pub fn new(dist: Distribution, record_count: u64) -> Self {
        assert!(record_count > 0, "record count must be positive");
        let zipf = match dist {
            Distribution::Zipfian { theta } => {
                assert!(
                    theta > 0.0 && theta < 1.0,
                    "zipfian theta must be in (0,1), got {theta}"
                );
                Some(ZipfState::new(record_count, theta))
            }
            Distribution::Uniform => None,
        };
        KeyChooser {
            dist,
            record_count,
            zipf,
        }
    }

    /// The configured distribution.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    /// Samples a key index in `[0, record_count)`.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        match self.dist {
            Distribution::Uniform => rng.gen_below(self.record_count),
            Distribution::Zipfian { .. } => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf state")
                    .sample(rng, self.record_count);
                // Scramble so popular keys spread over the key space (YCSB's
                // ScrambledZipfian), preserving the popularity *distribution*
                // while decorrelating it from insertion order.
                fnv64(rank) % self.record_count
            }
        }
    }
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        let zeta_n = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        ZipfState {
            zeta_n,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            alpha,
            eta,
        }
    }

    /// Gray et al.'s constant-time zipfian sampler; returns a rank in
    /// `[0, n)` where rank 0 is the most popular.
    fn sample(&self, rng: &mut SimRng, n: u64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(n - 1)
    }
}

fn fnv64(x: u64) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(12345)
    }

    #[test]
    fn uniform_covers_space_evenly() {
        let mut kc = KeyChooser::new(Distribution::Uniform, 10);
        let mut counts = [0u32; 10];
        let mut r = rng();
        for _ in 0..100_000 {
            counts[kc.next(&mut r) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform bucket count {c}");
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        let n = 1000u64;
        let mut kc = KeyChooser::new(Distribution::zipfian_default(), n);
        let mut counts = vec![0u32; n as usize];
        let mut r = rng();
        let samples = 200_000;
        for _ in 0..samples {
            counts[kc.next(&mut r) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10 % of keys should carry well over half the traffic.
        let top: u64 = sorted[..100].iter().map(|&c| c as u64).sum();
        assert!(
            top as f64 > samples as f64 * 0.55,
            "zipfian not skewed enough: top-10% carries {top}"
        );
        // But scrambling should decorrelate popularity from index order:
        // key 0 must not automatically be the hottest.
        let hottest = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        let _ = hottest; // any index is legal; just ensure sampling in range
        assert!(counts.iter().all(|&c| c as u64 <= samples));
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut kc = KeyChooser::new(Distribution::Zipfian { theta: 0.5 }, 17);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(kc.next(&mut r) < 17);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = KeyChooser::new(Distribution::zipfian_default(), 500);
        let mut b = a.clone();
        let mut ra = SimRng::seed_from_u64(7);
        let mut rb = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next(&mut ra), b.next(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "record count must be positive")]
    fn zero_records_rejected() {
        let _ = KeyChooser::new(Distribution::Uniform, 0);
    }
}
