//! YCSB workload definitions.
//!
//! The paper uses the three stock YCSB workloads:
//!
//! - **A** — update-heavy: 50 % reads, 50 % updates,
//! - **B** — read-heavy: 95 % reads, 5 % updates,
//! - **C** — read-only: 100 % reads,
//!
//! all with 1 KB records and a uniform request distribution.

use rmc_runtime::SimRng;
use serde::{Deserialize, Serialize};

use crate::distribution::Distribution;

/// One client operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read one record.
    Read,
    /// Overwrite one record.
    Update,
}

/// Operation mix of a workload (proportions sum to 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mix {
    /// Fraction of reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
}

impl Mix {
    fn validated(self) -> Self {
        let sum = self.read + self.update;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "workload mix must sum to 1, got {sum}"
        );
        self
    }

    /// Samples an operation kind from exactly one `next_f64` draw, which
    /// keeps every stock request stream as `tests/streams.rs` pins it.
    pub fn sample(&self, rng: &mut SimRng) -> OpKind {
        if rng.next_f64() < self.read {
            OpKind::Read
        } else {
            OpKind::Update
        }
    }

    /// Fraction of operations that mutate state.
    pub fn write_fraction(&self) -> f64 {
        self.update
    }
}

/// A named standard workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StandardWorkload {
    /// Update-heavy: 50 % reads / 50 % updates.
    A,
    /// Read-heavy: 95 % reads / 5 % updates.
    B,
    /// Read-only.
    C,
}

impl std::fmt::Display for StandardWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            StandardWorkload::A => "A",
            StandardWorkload::B => "B",
            StandardWorkload::C => "C",
        };
        write!(f, "{name}")
    }
}

/// Full workload specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name ("A", "B", "C", or custom).
    pub name: String,
    /// Operation mix.
    pub mix: Mix,
    /// Request distribution over keys.
    pub distribution: Distribution,
    /// Number of pre-loaded records.
    pub record_count: u64,
    /// Value size in bytes (1 KB throughout the paper).
    pub value_bytes: usize,
    /// Operations each client issues.
    pub ops_per_client: u64,
}

impl WorkloadSpec {
    /// Builds a standard workload with the paper's Section-V parameters
    /// (100 K records × 1 KB, 100 K requests per client, uniform).
    pub fn standard(w: StandardWorkload) -> Self {
        let (mix, distribution) = match w {
            StandardWorkload::A => (
                Mix {
                    read: 0.5,
                    update: 0.5,
                },
                Distribution::Uniform,
            ),
            StandardWorkload::B => (
                Mix {
                    read: 0.95,
                    update: 0.05,
                },
                Distribution::Uniform,
            ),
            StandardWorkload::C => (
                Mix {
                    read: 1.0,
                    update: 0.0,
                },
                Distribution::Uniform,
            ),
        };
        WorkloadSpec {
            name: w.to_string(),
            mix: mix.validated(),
            distribution,
            record_count: 100_000,
            value_bytes: 1024,
            ops_per_client: 100_000,
        }
    }

    /// The paper's Section-IV peak-performance configuration: 5 M records,
    /// 10 M read-only requests per client.
    pub fn peak_read_only() -> Self {
        WorkloadSpec {
            name: "C-peak".to_owned(),
            record_count: 5_000_000,
            ops_per_client: 10_000_000,
            ..WorkloadSpec::standard(StandardWorkload::C)
        }
    }

    /// Returns a copy with a different per-client operation count (used for
    /// scaled-down runs).
    pub fn with_ops_per_client(mut self, ops: u64) -> Self {
        self.ops_per_client = ops;
        self
    }

    /// Returns a copy with a different record count.
    pub fn with_record_count(mut self, records: u64) -> Self {
        self.record_count = records;
        self
    }

    /// The canonical YCSB-style key for a record index.
    pub fn key_for(&self, index: u64) -> Vec<u8> {
        format!("user{index:016}").into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mixes_match_paper() {
        let a = WorkloadSpec::standard(StandardWorkload::A);
        assert_eq!(a.mix.read, 0.5);
        assert_eq!(a.mix.update, 0.5);
        let b = WorkloadSpec::standard(StandardWorkload::B);
        assert_eq!(b.mix.read, 0.95);
        assert_eq!(b.mix.update, 0.05);
        let c = WorkloadSpec::standard(StandardWorkload::C);
        assert_eq!(c.mix.read, 1.0);
        assert_eq!(c.mix.write_fraction(), 0.0);
        for w in [a, b, c] {
            assert_eq!(w.record_count, 100_000);
            assert_eq!(w.value_bytes, 1024);
            assert_eq!(w.distribution, Distribution::Uniform);
        }
    }

    #[test]
    fn peak_config_matches_section_iv() {
        let p = WorkloadSpec::peak_read_only();
        assert_eq!(p.record_count, 5_000_000);
        assert_eq!(p.ops_per_client, 10_000_000);
        assert_eq!(p.mix.read, 1.0);
    }

    #[test]
    fn mix_sampling_respects_proportions() {
        let mix = WorkloadSpec::standard(StandardWorkload::B).mix;
        let mut rng = SimRng::seed_from_u64(1);
        let n = 100_000;
        let updates = (0..n)
            .filter(|_| mix.sample(&mut rng) == OpKind::Update)
            .count();
        let frac = updates as f64 / n as f64;
        assert!((0.04..0.06).contains(&frac), "B update fraction {frac}");
    }

    #[test]
    fn read_only_never_samples_writes() {
        let mix = WorkloadSpec::standard(StandardWorkload::C).mix;
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert_eq!(mix.sample(&mut rng), OpKind::Read);
        }
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn invalid_mix_rejected() {
        let _ = Mix {
            read: 0.5,
            update: 0.0,
        }
        .validated();
    }

    #[test]
    fn keys_are_fixed_width_and_unique() {
        let w = WorkloadSpec::standard(StandardWorkload::C);
        let k1 = w.key_for(1);
        let k2 = w.key_for(2);
        assert_eq!(k1.len(), k2.len());
        assert_ne!(k1, k2);
    }
}
