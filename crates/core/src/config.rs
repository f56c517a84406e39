//! Cluster/experiment configuration.

use rmc_disk::DiskProfile;
use rmc_ycsb::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Restricts which part of the key space a client samples (Fig 10 pins one
/// client to the crash victim's data and one to everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientAffinity {
    /// Sample the whole key space (default).
    Any,
    /// Only keys whose *initial* owner is this server.
    On(usize),
    /// Only keys whose *initial* owner is not this server.
    NotOn(usize),
}

/// Everything needed to run one simulated experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Storage servers (each runs a master and a backup service, collocated
    /// as in the paper's deployment).
    pub servers: usize,
    /// Client machines, one closed-loop YCSB client each.
    pub clients: usize,
    /// Replication factor; 0 disables replication entirely (Sections IV/V).
    pub replication: u32,
    /// The workload driving the run.
    pub workload: WorkloadSpec,
    /// RNG seed; runs are bit-for-bit reproducible per seed.
    pub seed: u64,
    /// Disk profile of each node.
    pub disk: DiskProfile,
    /// Per-client request rate cap (Fig 13); `None` = unthrottled.
    pub throttle_rate: Option<f64>,
    /// Master log segment size (nominal bytes); RAMCloud hard-codes 8 MB.
    pub segment_bytes: usize,
    /// Optional per-client data affinity. Used by the Fig 10 experiment
    /// (one client requests exactly the crashed server's data, one requests
    /// the rest). A `None` list samples uniformly for everyone.
    pub client_affinity: Option<Vec<ClientAffinity>>,
}

impl ClusterConfig {
    /// Tablet granularity: the key space is split into this many hash
    /// buckets for placement and recovery partitioning.
    pub const HASH_BUCKETS: usize = 1024;

    /// A config with the paper's fixed platform parameters; callers set
    /// cluster size, workload, replication.
    pub fn new(servers: usize, clients: usize, workload: WorkloadSpec) -> Self {
        ClusterConfig {
            servers,
            clients,
            replication: 0,
            workload,
            seed: 42,
            disk: DiskProfile::grid5000_hdd(),
            throttle_rate: None,
            segment_bytes: 8 << 20,
            client_affinity: None,
        }
    }

    /// Sets the replication factor.
    pub fn with_replication(mut self, r: u32) -> Self {
        self.replication = r;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps each client at `rate` requests per second (Fig 13).
    pub fn with_throttle(mut self, rate: f64) -> Self {
        self.throttle_rate = Some(rate);
        self
    }

    /// Value size actually materialized in the store, bytes.
    ///
    /// The paper's large experiments hold ~10 GB per node, which a
    /// single-process reproduction cannot afford to materialize. Every
    /// timing, network, disk and power model uses the workload's nominal
    /// `value_bytes`; the real data plane stores a digest of at most
    /// 16 bytes.
    pub fn stored_value_bytes(&self) -> usize {
        16.min(self.workload.value_bytes.max(1))
    }

    /// Nominal size of one serialized log entry for this workload.
    pub fn nominal_entry_bytes(&self) -> usize {
        rmc_logstore::HEADER_BYTES + self.key_bytes() + self.workload.value_bytes
    }

    /// Key length produced by the workload's key formatter.
    pub fn key_bytes(&self) -> usize {
        self.workload.key_for(0).len()
    }

    /// The *stored* segment size: scaled by the ratio of stored to nominal
    /// entry size, so a segment seals after the same number of entries as
    /// a nominal one.
    pub fn stored_segment_bytes(&self) -> usize {
        let stored = rmc_logstore::HEADER_BYTES + self.key_bytes() + self.stored_value_bytes();
        let scale = stored as f64 / self.nominal_entry_bytes() as f64;
        ((self.segment_bytes as f64) * scale).ceil() as usize
    }

    /// Master memory budget (nominal bytes): the paper's 10 GB per server.
    /// Not a setting: the paper sized every workload to stay far below it
    /// (§III-C), and the model charges cleaning to memory-write power, never
    /// to the write path, so a tighter budget cannot move a throughput number.
    pub const MEMORY_BYTES: u64 = 10 << 30;

    /// Stored-size memory budget in segments.
    pub fn max_segments(&self) -> usize {
        (Self::MEMORY_BYTES / self.segment_bytes as u64).max(2) as usize
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (zero servers/clients, replication
    /// factor exceeding available backups, ...). Configurations come from
    /// experiment code, not external input, so violations are bugs.
    pub fn validate(&self) {
        assert!(self.servers > 0, "need at least one server");
        assert!(self.clients > 0, "need at least one client");
        assert!(
            (self.replication as usize) < self.servers || self.replication == 0,
            "replication factor {} needs more than {} servers (a master cannot back itself up)",
            self.replication,
            self.servers
        );
        assert!(
            Self::HASH_BUCKETS >= self.servers,
            "need ≥1 bucket per server"
        );
        assert!(self.segment_bytes > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmc_ycsb::{StandardWorkload, WorkloadSpec};

    fn cfg() -> ClusterConfig {
        ClusterConfig::new(10, 30, WorkloadSpec::standard(StandardWorkload::A))
    }

    #[test]
    fn defaults_match_paper_platform() {
        let c = cfg();
        assert_eq!(c.segment_bytes, 8 << 20);
        assert_eq!(c.max_segments(), 1280, "10 GB of 8 MB segments");
        assert_eq!(c.replication, 0);
        c.validate();
    }

    #[test]
    fn payload_scaling_shrinks_segments_proportionally() {
        let c = cfg();
        let scale = c.stored_segment_bytes() as f64 / c.segment_bytes as f64;
        assert!(scale < 0.1, "compact scale should be small, got {scale}");
        let nominal_entries = c.segment_bytes / c.nominal_entry_bytes();
        let stored_entry = rmc_logstore::HEADER_BYTES + c.key_bytes() + c.stored_value_bytes();
        let stored_entries = c.stored_segment_bytes() / stored_entry;
        let ratio = stored_entries as f64 / nominal_entries as f64;
        assert!(
            (0.9..1.2).contains(&ratio),
            "entries per segment should match: nominal {nominal_entries} stored {stored_entries}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot back itself up")]
    fn replication_needs_other_servers() {
        let c = ClusterConfig::new(2, 1, WorkloadSpec::standard(StandardWorkload::A))
            .with_replication(2);
        c.validate();
    }

    /// The budget is a constant, so no reachable config hands a server a
    /// log too small for the cleaner's free-slot targets.
    #[test]
    fn every_segment_size_leaves_the_cleaner_room() {
        for mb in [1usize, 2, 4, 8, 16, 32, 256] {
            let mut c = cfg();
            c.segment_bytes = mb << 20;
            // Panics on a cleaner config it cannot build.
            let _ = crate::protocol::Server::new(0, crate::cost::protocol_config(&c));
        }
    }

    #[test]
    fn builders_chain() {
        let c = cfg().with_replication(3).with_seed(7).with_throttle(200.0);
        assert_eq!(c.replication, 3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.throttle_rate, Some(200.0));
    }
}
