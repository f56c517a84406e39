//! [`DiskFaults`]: seeded disk fault injection at the `BackupStorage`
//! boundary — the physical-I/O twin of the message-level [`FaultState`].
//!
//! Where [`FaultState`](crate::FaultState) judges every `send`, a
//! [`DiskFaults`] judges every file write and fsync a backup's
//! `FileStorage` performs (a write is one frame under `fsync=per_write`,
//! one drained segment's frames otherwise), drawing each fate from a
//! [`SimRng`] derived from the plan seed and the node index. The four fates mirror how real disks
//! betray a storage system:
//!
//! - **short write** — the frame is cut mid-byte and the write errors: the
//!   torn-write crash signature, delivered while alive. The backup
//!   withholds its ack; recovery truncates the torn tail.
//! - **fsync EIO** — the sync fails; under `fsync=per_write` the append
//!   fails with it and is not acked.
//! - **bit flip** — one bit of the frame is flipped before it is written:
//!   silent corruption the backup cannot see (the CRC was computed first),
//!   detected only by recovery's checksum walk and then quarantined.
//! - **stall** — stuck-slow I/O: the append blocks for a bounded time.
//!
//! Everything is deterministic given `(plan, node)`, so a run that
//! surfaces a durability bug replays bit-for-bit.

use std::time::Duration;

use rmc_diskstore::{AppendFault, AppendOutcome, FaultInjector};
use rmc_runtime::SimRng;

use crate::FaultPlan;

/// Counts of injected disk faults (mirrors [`FaultStats`](crate::FaultStats)
/// for the message layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    /// Writes judged in total.
    pub appends: u64,
    /// Short writes injected.
    pub short_writes: u64,
    /// Fsync EIOs injected.
    pub fsync_eios: u64,
    /// Bit flips injected.
    pub bit_flips: u64,
    /// Stalls injected.
    pub stalls: u64,
}

/// The seeded [`FaultInjector`] interpreting a [`FaultPlan`]'s disk knobs.
#[derive(Debug)]
pub struct DiskFaults {
    rng: SimRng,
    short_write_prob: f64,
    fsync_eio_prob: f64,
    bit_flip_prob: f64,
    stall_prob: f64,
    max_stall: Duration,
    /// What has been injected so far.
    pub stats: DiskFaultStats,
}

impl DiskFaults {
    /// Builds the injector for server `node` from `plan`'s disk knobs, or
    /// `None` when the plan injects no disk faults (so clean runs skip the
    /// per-append RNG draws entirely). Each node derives its own RNG
    /// stream, so fault placement is independent across backups but fully
    /// determined by `(plan.seed, node)`.
    pub fn from_plan(plan: &FaultPlan, node: usize) -> Option<DiskFaults> {
        if !plan.disk_faults_enabled() {
            return None;
        }
        let seed = plan.seed ^ 0xD15C_FA17 ^ (node as u64).wrapping_mul(0x9E37_79B9_97F4_A7C5);
        Some(DiskFaults {
            rng: SimRng::seed_from_u64(seed),
            short_write_prob: plan.disk_short_write_prob,
            fsync_eio_prob: plan.disk_fsync_eio_prob,
            bit_flip_prob: plan.disk_bit_flip_prob,
            stall_prob: plan.disk_stall_prob,
            max_stall: Duration::from_nanos(plan.disk_max_stall.as_nanos()),
            stats: DiskFaultStats::default(),
        })
    }
}

impl FaultInjector for DiskFaults {
    fn on_append(&mut self, _master: usize, _segment: u64, frame: &mut Vec<u8>) -> AppendFault {
        self.stats.appends += 1;
        if !frame.is_empty() && self.rng.gen_bool(self.bit_flip_prob) {
            let byte = self.rng.gen_below(frame.len() as u64) as usize;
            let bit = self.rng.gen_below(8) as u32;
            frame[byte] ^= 1 << bit;
            self.stats.bit_flips += 1;
        }
        let stall = if self.rng.gen_bool(self.stall_prob) && !self.max_stall.is_zero() {
            self.stats.stalls += 1;
            Some(Duration::from_nanos(
                self.rng
                    .gen_range(1, self.max_stall.as_nanos().max(2) as u64),
            ))
        } else {
            None
        };
        let outcome = if self.rng.gen_bool(self.short_write_prob) {
            self.stats.short_writes += 1;
            AppendOutcome::Short {
                keep: self.rng.gen_below(frame.len().max(1) as u64) as usize,
            }
        } else {
            AppendOutcome::Commit
        };
        AppendFault { stall, outcome }
    }

    fn on_fsync(&mut self) -> bool {
        if self.rng.gen_bool(self.fsync_eio_prob) {
            self.stats.fsync_eios += 1;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::quiet();
        plan.seed = seed;
        plan.disk_short_write_prob = 0.2;
        plan.disk_fsync_eio_prob = 0.2;
        plan.disk_bit_flip_prob = 0.2;
        plan.disk_stall_prob = 0.2;
        plan.disk_max_stall = rmc_runtime::SimDuration::from_micros(50);
        plan
    }

    #[test]
    fn quiet_plan_yields_no_injector() {
        assert!(DiskFaults::from_plan(&FaultPlan::quiet(), 0).is_none());
    }

    #[test]
    fn fates_are_deterministic_per_node() {
        let plan = noisy_plan(7);
        let run = |node: usize| {
            let mut inj = DiskFaults::from_plan(&plan, node).unwrap();
            let mut frames = Vec::new();
            for i in 0..200u64 {
                let mut frame = vec![i as u8; 64];
                let fault = inj.on_append(0, i, &mut frame);
                let _ = inj.on_fsync();
                frames.push((frame, fault));
            }
            (frames, inj.stats)
        };
        let (frames_a, stats_a) = run(1);
        let (frames_b, stats_b) = run(1);
        assert_eq!(frames_a, frames_b);
        assert_eq!(stats_a, stats_b);
        // A different node draws a different stream.
        let (frames_c, _) = run(2);
        assert_ne!(frames_a, frames_c);
        // All fates actually occur at these probabilities.
        assert!(stats_a.short_writes > 0);
        assert!(stats_a.fsync_eios > 0);
        assert!(stats_a.bit_flips > 0);
        assert!(stats_a.stalls > 0);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let plan = {
            let mut p = FaultPlan::quiet();
            p.disk_bit_flip_prob = 1.0;
            p
        };
        let mut inj = DiskFaults::from_plan(&plan, 0).unwrap();
        let orig = vec![0xAAu8; 32];
        let mut frame = orig.clone();
        inj.on_append(0, 0, &mut frame);
        let flipped: u32 = orig
            .iter()
            .zip(&frame)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }
}
