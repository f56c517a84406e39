//! [`FaultState`]: the interpreter that turns a [`FaultPlan`](crate::FaultPlan)
//! plus a message stream into concrete per-message fault decisions.
//!
//! Every decision is drawn from the plan's seeded RNG in message order, so
//! under a deterministic engine (same message stream) the decisions — and
//! the [`FaultEvent`] trace recording them — replay bit-for-bit.

use rmc_runtime::{MetricsRegistry, NodeId, SimDuration, SimRng, SimTime};

use crate::plan::FaultPlan;

/// Coarse message classification the fault layer understands. The wrapper
/// is generic over the protocol's message type; a classifier function maps
/// each message into one of these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Replication traffic to a backup — additionally subject to
    /// `backup_write_fail_prob`.
    BackupWrite,
    /// Everything else.
    Other,
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// An active partition cut the link.
    Partition,
    /// The per-message drop probability fired.
    Random,
    /// The backup-write fault probability fired.
    BackupWriteFault,
}

/// One recorded fault decision. The trace of these is the run's fault
/// fingerprint: two runs of the same plan under the deterministic engine
/// must produce identical traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Message silently lost.
    Dropped {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why.
        reason: DropReason,
    },
    /// Message held back before delivery.
    Delayed {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Extra delivery delay.
        by: SimDuration,
    },
    /// Message delivered twice; the copy carries its own delay.
    Duplicated {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Delay of the duplicate copy.
        copy_delay: SimDuration,
    },
}

/// Running totals over the fault decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages judged in total.
    pub judged: u64,
    /// Drops from partitions.
    pub partition_drops: u64,
    /// Random drops.
    pub random_drops: u64,
    /// Backup-write fault drops.
    pub backup_write_drops: u64,
    /// Delayed deliveries.
    pub delayed: u64,
    /// Duplicated deliveries.
    pub duplicated: u64,
}

impl FaultStats {
    /// Adds these totals to `reg` as `faults.<name>` counters.
    pub fn export(&self, reg: &MetricsRegistry) {
        for (name, value) in [
            ("judged", self.judged),
            ("partition_drops", self.partition_drops),
            ("random_drops", self.random_drops),
            ("backup_write_drops", self.backup_write_drops),
            ("delayed", self.delayed),
            ("duplicated", self.duplicated),
        ] {
            reg.counter(&format!("faults.{name}")).add(value);
        }
    }
}

/// Interprets a [`FaultPlan`] against a message stream.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    /// Recorded decisions (only faults; clean deliveries are not traced).
    pub trace: Vec<FaultEvent>,
    /// Totals.
    pub stats: FaultStats,
    /// Set false to stop growing `trace` (long threaded runs).
    pub trace_enabled: bool,
}

impl FaultState {
    /// Builds the interpreter; the RNG is derived from the plan's seed.
    pub fn new(plan: FaultPlan) -> FaultState {
        let rng = SimRng::seed_from_u64(plan.seed ^ 0xFA_17_5E_ED);
        FaultState {
            plan,
            rng,
            trace: Vec::new(),
            stats: FaultStats::default(),
            trace_enabled: true,
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Is the link `from → to` currently cut by a partition?
    pub fn partitioned(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        self.plan.partitions.iter().any(|p| p.cuts(now, from, to))
    }

    fn record(&mut self, ev: FaultEvent) {
        if self.trace_enabled {
            self.trace.push(ev);
        }
    }

    /// Judges one message: returns the delivery delays for each copy to
    /// deliver — empty means the message is dropped, `[ZERO]` is a clean
    /// immediate delivery, and two entries mean a duplicate.
    ///
    /// Draws are consumed strictly in message order, so a replay that
    /// presents the same message stream consumes the identical draw
    /// sequence and reaches the identical decisions.
    pub fn judge(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
    ) -> Vec<SimDuration> {
        self.stats.judged += 1;
        // Partitions are pure schedule — no randomness consumed.
        if self.partitioned(now, from, to) {
            self.stats.partition_drops += 1;
            self.record(FaultEvent::Dropped {
                at: now,
                from,
                to,
                reason: DropReason::Partition,
            });
            return Vec::new();
        }
        // After quiesce the network is perfect; consume no randomness so
        // the convergence phase is identical across plans with different
        // probabilities.
        if !self.plan.message_faults_active(now) {
            return vec![SimDuration::ZERO];
        }
        let backup_fault =
            class == MsgClass::BackupWrite && self.rng.gen_bool(self.plan.backup_write_fail_prob);
        let dropped = self.rng.gen_bool(self.plan.drop_prob);
        if backup_fault || dropped {
            let reason = if backup_fault {
                self.stats.backup_write_drops += 1;
                DropReason::BackupWriteFault
            } else {
                self.stats.random_drops += 1;
                DropReason::Random
            };
            self.record(FaultEvent::Dropped {
                at: now,
                from,
                to,
                reason,
            });
            return Vec::new();
        }
        let delay = if self.rng.gen_bool(self.plan.delay_prob) {
            let d =
                SimDuration::from_nanos(self.rng.gen_below(self.plan.max_delay.as_nanos().max(1)));
            self.stats.delayed += 1;
            self.record(FaultEvent::Delayed {
                at: now,
                from,
                to,
                by: d,
            });
            d
        } else {
            SimDuration::ZERO
        };
        let mut out = vec![delay];
        if self.rng.gen_bool(self.plan.dup_prob) {
            let copy_delay =
                SimDuration::from_nanos(self.rng.gen_below(self.plan.max_delay.as_nanos().max(1)));
            self.stats.duplicated += 1;
            self.record(FaultEvent::Duplicated {
                at: now,
                from,
                to,
                copy_delay,
            });
            out.push(copy_delay);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partition;

    fn noisy_plan(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::quiet();
        p.seed = seed;
        p.drop_prob = 0.2;
        p.dup_prob = 0.2;
        p.delay_prob = 0.4;
        p.max_delay = SimDuration::from_millis(5);
        p.quiesce_at = SimTime::from_secs(1);
        p
    }

    #[test]
    fn same_plan_same_stream_same_decisions() {
        let mut a = FaultState::new(noisy_plan(7));
        let mut b = FaultState::new(noisy_plan(7));
        for i in 0..500u64 {
            let now = SimTime::from_micros(i * 37);
            let (f, t) = (NodeId((i % 5) as usize), NodeId(((i + 1) % 5) as usize));
            assert_eq!(
                a.judge(now, f, t, MsgClass::Other),
                b.judge(now, f, t, MsgClass::Other)
            );
        }
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.random_drops > 0, "probabilities actually fire");
        assert!(a.stats.duplicated > 0);
    }

    #[test]
    fn quiesce_makes_the_network_perfect() {
        let mut s = FaultState::new(noisy_plan(3));
        let after = SimTime::from_secs(2);
        for i in 0..200u64 {
            let fates = s.judge(after, NodeId(0), NodeId(1), MsgClass::Other);
            assert_eq!(fates, vec![SimDuration::ZERO], "msg {i} clean post-quiesce");
        }
    }

    #[test]
    fn partitions_drop_without_consuming_randomness() {
        let mut plan = noisy_plan(9);
        plan.partitions.push(Partition {
            start: SimTime::ZERO,
            heal: SimTime::from_millis(100),
            group: vec![NodeId(1)],
            symmetric: true,
        });
        let mut with = FaultState::new(plan.clone());
        // Messages across the cut are dropped…
        assert!(with
            .judge(
                SimTime::from_millis(1),
                NodeId(1),
                NodeId(2),
                MsgClass::Other
            )
            .is_empty());
        assert!(with
            .judge(
                SimTime::from_millis(1),
                NodeId(2),
                NodeId(1),
                MsgClass::Other
            )
            .is_empty());
        // …and the RNG stream for other links is unaffected by how many
        // partition drops happened.
        let mut without = FaultState::new(plan);
        let now = SimTime::from_millis(1);
        assert_eq!(
            with.judge(now, NodeId(3), NodeId(4), MsgClass::Other),
            without.judge(now, NodeId(3), NodeId(4), MsgClass::Other)
        );
    }

    #[test]
    fn backup_write_faults_hit_only_backup_writes() {
        let mut p = FaultPlan::quiet();
        p.backup_write_fail_prob = 1.0;
        p.quiesce_at = SimTime::from_secs(1);
        let mut s = FaultState::new(p);
        assert!(s
            .judge(SimTime::ZERO, NodeId(0), NodeId(1), MsgClass::BackupWrite)
            .is_empty());
        assert_eq!(
            s.judge(SimTime::ZERO, NodeId(0), NodeId(1), MsgClass::Other),
            vec![SimDuration::ZERO]
        );
        assert_eq!(s.stats.backup_write_drops, 1);
    }
}
