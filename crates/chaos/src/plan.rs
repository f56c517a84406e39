//! [`FaultPlan`]: a complete, seeded description of every fault a run will
//! suffer.
//!
//! A plan is *data*, not behavior: probabilities for per-link message
//! faults, a schedule of partitions and crash/restarts, and a quiesce
//! instant after which no fault fires. Interpreting the plan against a
//! message stream is [`crate::FaultState`]'s job. Because the plan plus the
//! engine's event order fully determine every fault decision, the same plan
//! replayed under the deterministic engine yields a bit-identical run — and
//! a failing plan can be shrunk ([`crate::minimize`]) and re-run verbatim.

use rmc_runtime::{NodeId, SimDuration, SimRng, SimTime};

/// A network partition: `group` is cut off from the rest of the cluster
/// between `start` (inclusive) and `heal` (exclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// When the partition forms.
    pub start: SimTime,
    /// When it heals; no effect at or after this instant.
    pub heal: SimTime,
    /// The isolated node group.
    pub group: Vec<NodeId>,
    /// Symmetric partitions drop traffic in both directions; asymmetric
    /// ones drop only messages *from* the group (the group still hears the
    /// outside world — the nastier failure mode, since heartbeats die while
    /// commands keep arriving).
    pub symmetric: bool,
}

impl Partition {
    /// Is this partition in force at `now`?
    pub fn active(&self, now: SimTime) -> bool {
        self.start <= now && now < self.heal
    }

    /// Does this partition cut the link `from → to` at `now`?
    pub fn cuts(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        if !self.active(now) {
            return false;
        }
        let from_in = self.group.contains(&from);
        let to_in = self.group.contains(&to);
        if self.symmetric {
            from_in != to_in
        } else {
            from_in && !to_in
        }
    }
}

/// A scheduled server crash, optionally followed by a restart of a fresh
/// incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// When the server dies.
    pub at: SimTime,
    /// Which server (cluster server index, not [`NodeId`]).
    pub server: usize,
    /// Delay until a new incarnation boots, or `None` for a permanent
    /// crash.
    pub restart_after: Option<SimDuration>,
}

/// The full fault schedule for one run.
///
/// All random decisions (per-message drop/dup/delay draws) come from a
/// [`SimRng`] seeded with `seed`, so a plan value plus a deterministic
/// engine replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message random draw.
    pub seed: u64,
    /// Per-message probability of silent loss.
    pub drop_prob: f64,
    /// Per-message probability of a duplicate delivery (the duplicate gets
    /// its own random delay, so duplicates also reorder).
    pub dup_prob: f64,
    /// Per-message probability of added delay.
    pub delay_prob: f64,
    /// Upper bound on added delay (delays are uniform in `0..max_delay`);
    /// delayed messages overtake later undelayed ones, which is how the
    /// plan expresses reordering.
    pub max_delay: SimDuration,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash/restarts.
    pub crashes: Vec<Crash>,
    /// Extra per-message loss probability applied only to backup-write
    /// traffic (replication RPCs), modeling flaky backup I/O.
    pub backup_write_fail_prob: f64,
    /// Per-append probability that a backup's file write lands short
    /// (torn-frame crash signature) and errors. The append is not acked.
    pub disk_short_write_prob: f64,
    /// Per-fsync probability of an EIO; under `fsync=per_write` the append
    /// fails and is not acked.
    pub disk_fsync_eio_prob: f64,
    /// Per-append probability that one bit of the frame is flipped on its
    /// way to the platter — silent corruption, detected only by the CRC on
    /// recovery and then quarantined.
    pub disk_bit_flip_prob: f64,
    /// Per-append probability of a stuck-slow I/O stall.
    pub disk_stall_prob: f64,
    /// Upper bound on an injected stall (uniform in `0..disk_max_stall`).
    pub disk_max_stall: SimDuration,
    /// All message-level faults cease at this instant (partitions and
    /// crashes are bounded by their own schedule; generated plans keep them
    /// before `quiesce_at` too, so convergence is checkable afterward).
    pub quiesce_at: SimTime,
}

impl FaultPlan {
    /// A plan that injects nothing — the identity wrapper.
    pub fn quiet() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: SimDuration::ZERO,
            partitions: Vec::new(),
            crashes: Vec::new(),
            backup_write_fail_prob: 0.0,
            disk_short_write_prob: 0.0,
            disk_fsync_eio_prob: 0.0,
            disk_bit_flip_prob: 0.0,
            disk_stall_prob: 0.0,
            disk_max_stall: SimDuration::ZERO,
            quiesce_at: SimTime::ZERO,
        }
    }

    /// Are any disk-level fault probabilities set?
    pub(crate) fn disk_faults_enabled(&self) -> bool {
        self.disk_short_write_prob > 0.0
            || self.disk_fsync_eio_prob > 0.0
            || self.disk_bit_flip_prob > 0.0
            || self.disk_stall_prob > 0.0
    }

    /// Do any message-level faults remain possible at `now`?
    pub fn message_faults_active(&self, now: SimTime) -> bool {
        now < self.quiesce_at
            && (self.drop_prob > 0.0
                || self.dup_prob > 0.0
                || self.delay_prob > 0.0
                || self.backup_write_fail_prob > 0.0
                || self.partitions.iter().any(|p| now < p.heal))
    }

    /// The last instant at which any scheduled fault (partition heal,
    /// crash, restart) takes effect.
    pub fn last_scheduled_event(&self) -> SimTime {
        let mut last = SimTime::ZERO;
        for p in &self.partitions {
            last = last.max(p.heal);
        }
        for c in &self.crashes {
            let t = match c.restart_after {
                Some(d) => c.at.saturating_add(d),
                None => c.at,
            };
            last = last.max(t);
        }
        last
    }
}

/// Cluster geometry and knobs for [`FaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct PlanShape {
    /// `NodeId`s of the servers, indexed by server index — partition
    /// targets. The coordinator and clients are never partitioned or
    /// crashed by generated plans (crashing the single coordinator is a
    /// different protocol than the paper's, and client faults are modeled
    /// by message loss).
    pub server_nodes: Vec<NodeId>,
    /// Replication factor; generated plans keep at least
    /// `replication + 1` servers up so every write retains a quorum path.
    pub replication: usize,
    /// Maximum number of incidents (crashes or partitions) to schedule.
    pub max_incidents: usize,
    /// Allow crash/restart incidents.
    pub allow_crashes: bool,
    /// Allow partition incidents.
    pub allow_partitions: bool,
    /// Upper bounds for the per-message fault probabilities.
    pub max_drop_prob: f64,
    /// Upper bound for the duplicate probability.
    pub max_dup_prob: f64,
    /// Upper bound for the delay probability.
    pub max_delay_prob: f64,
    /// Upper bound for the backup-write fault probability.
    pub max_backup_fail_prob: f64,
    /// Upper bound for each disk fault probability (short write, fsync
    /// EIO, bit flip, stall). Zero keeps generated plans disk-clean, which
    /// is the default: disk faults only matter to file-backed harnesses.
    pub max_disk_fault_prob: f64,
    /// Gap between consecutive incidents — must comfortably exceed
    /// detection + recovery + restart so generated plans never have two
    /// servers down at once (which replication factor 2 cannot mask).
    pub incident_gap: SimDuration,
}

impl PlanShape {
    /// Defaults sized for the protocol's simulated timings (10 ms
    /// heartbeats, 50 ms failure timeout).
    pub fn new(server_nodes: Vec<NodeId>, replication: usize) -> PlanShape {
        PlanShape {
            server_nodes,
            replication,
            max_incidents: 3,
            allow_crashes: true,
            allow_partitions: true,
            max_drop_prob: 0.04,
            max_dup_prob: 0.10,
            max_delay_prob: 0.25,
            max_backup_fail_prob: 0.04,
            max_disk_fault_prob: 0.0,
            incident_gap: SimDuration::from_millis(400),
        }
    }
}

impl FaultPlan {
    /// Generates a random — but fully seed-determined — plan within
    /// `shape`'s failure budget: incidents strike one server at a time,
    /// spaced `incident_gap` apart, and everything quiesces before the
    /// checker's convergence window.
    pub fn generate(seed: u64, shape: &PlanShape) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let mut plan = FaultPlan::quiet();
        plan.seed = seed;

        plan.drop_prob = rng.next_f64() * shape.max_drop_prob;
        plan.dup_prob = rng.next_f64() * shape.max_dup_prob;
        plan.delay_prob = rng.next_f64() * shape.max_delay_prob;
        plan.max_delay = SimDuration::from_micros(rng.gen_range(500, 20_000));
        plan.backup_write_fail_prob = rng.next_f64() * shape.max_backup_fail_prob;
        if shape.max_disk_fault_prob > 0.0 {
            // Drawn only when enabled so shapes that don't opt in keep the
            // exact RNG stream (and thus plans) they always generated.
            plan.disk_short_write_prob = rng.next_f64() * shape.max_disk_fault_prob;
            plan.disk_fsync_eio_prob = rng.next_f64() * shape.max_disk_fault_prob;
            plan.disk_bit_flip_prob = rng.next_f64() * shape.max_disk_fault_prob;
            plan.disk_stall_prob = rng.next_f64() * shape.max_disk_fault_prob;
            plan.disk_max_stall = SimDuration::from_micros(rng.gen_range(100, 5_000));
        }

        let incidents = if shape.allow_crashes || shape.allow_partitions {
            rng.gen_below(shape.max_incidents as u64 + 1) as usize
        } else {
            0
        };
        let n = shape.server_nodes.len();
        let gap = shape.incident_gap.as_nanos();
        // First incident only after clients have some acked work to lose.
        let mut at = SimTime::from_nanos(rng.gen_range(gap / 8, gap / 2));
        let mut crashed_for_good = vec![false; n];
        for _ in 0..incidents {
            // Victims: any server not permanently dead; one at a time, and
            // never below replication+1 alive.
            let candidates: Vec<usize> = (0..n).filter(|&s| !crashed_for_good[s]).collect();
            let alive = candidates.len();
            if alive <= shape.replication + 1 {
                break;
            }
            let victim = candidates[rng.gen_below(candidates.len() as u64) as usize];
            let pick_crash = match (shape.allow_crashes, shape.allow_partitions) {
                (true, true) => rng.gen_bool(0.6),
                (true, false) => true,
                (false, true) => false,
                (false, false) => break,
            };
            if pick_crash {
                let restart = rng.gen_bool(0.6).then(|| {
                    // Restart well after detection fires, well before the
                    // next incident.
                    SimDuration::from_nanos(rng.gen_range(gap / 4, gap / 2))
                });
                if restart.is_none() {
                    crashed_for_good[victim] = true;
                }
                plan.crashes.push(Crash {
                    at,
                    server: victim,
                    restart_after: restart,
                });
            } else {
                let heal = at.saturating_add(SimDuration::from_nanos(rng.gen_range(
                    gap / 8, // may heal before the failure detector fires…
                    gap / 2, // …or long after the victim was declared dead
                )));
                plan.partitions.push(Partition {
                    start: at,
                    heal,
                    group: vec![shape.server_nodes[victim]],
                    symmetric: rng.gen_bool(0.5),
                });
            }
            at = at.saturating_add(SimDuration::from_nanos(rng.gen_range(gap, gap + gap / 2)));
        }
        // Quiesce after the last scheduled incident has fully played out.
        plan.quiesce_at = plan
            .last_scheduled_event()
            .max(at)
            .saturating_add(SimDuration::from_nanos(gap / 2));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape::new((1..=4).map(NodeId).collect(), 2)
    }

    #[test]
    fn generation_is_seed_deterministic() {
        for seed in 0..50 {
            assert_eq!(
                FaultPlan::generate(seed, &shape()),
                FaultPlan::generate(seed, &shape())
            );
        }
    }

    #[test]
    fn generated_plans_respect_the_failure_budget() {
        let shape = shape();
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &shape);
            assert!(plan.drop_prob <= shape.max_drop_prob);
            assert!(plan.dup_prob <= shape.max_dup_prob);
            // Faults all end before quiesce.
            assert!(plan.last_scheduled_event() <= plan.quiesce_at);
            // Permanent crashes never drop the cluster below R+1 servers.
            let permanent = plan
                .crashes
                .iter()
                .filter(|c| c.restart_after.is_none())
                .count();
            assert!(shape.server_nodes.len() - permanent > shape.replication);
            // One incident at a time: sorted by time, spaced by ≥ gap.
            let mut times: Vec<SimTime> = plan
                .crashes
                .iter()
                .map(|c| c.at)
                .chain(plan.partitions.iter().map(|p| p.start))
                .collect();
            times.sort();
            for w in times.windows(2) {
                assert!(w[1].saturating_since(w[0]) >= shape.incident_gap);
            }
        }
    }

    #[test]
    fn partition_cut_semantics() {
        let p = Partition {
            start: SimTime::from_millis(10),
            heal: SimTime::from_millis(20),
            group: vec![NodeId(2)],
            symmetric: false,
        };
        let t = SimTime::from_millis(15);
        // Asymmetric: only group → outside is cut.
        assert!(p.cuts(t, NodeId(2), NodeId(3)));
        assert!(!p.cuts(t, NodeId(3), NodeId(2)));
        // Inside the group nothing is cut; outside the window nothing is.
        assert!(!p.cuts(t, NodeId(2), NodeId(2)));
        assert!(!p.cuts(SimTime::from_millis(20), NodeId(2), NodeId(3)));
        let sym = Partition {
            symmetric: true,
            ..p.clone()
        };
        assert!(sym.cuts(t, NodeId(3), NodeId(2)));
        assert!(sym.cuts(t, NodeId(2), NodeId(3)));
    }

    #[test]
    fn quiet_plan_has_no_faults() {
        let plan = FaultPlan::quiet();
        assert!(!plan.message_faults_active(SimTime::ZERO));
        assert_eq!(plan.last_scheduled_event(), SimTime::ZERO);
    }
}
