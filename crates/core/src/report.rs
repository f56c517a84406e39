//! Results of one simulated experiment run.

use rmc_energy::EnergyReport;
use rmc_ycsb::ClientStats;
use serde::Serialize;

/// Crash-recovery measurements (Figs 9-12).
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// The killed server.
    pub crashed_server: usize,
    /// When the kill happened.
    pub killed_at_secs: f64,
    /// When the coordinator detected it.
    pub detected_at_secs: f64,
    /// When the last partition finished replaying.
    pub finished_at_secs: f64,
    /// Recovery duration (detection → completion), seconds.
    pub duration_secs: f64,
    /// Entries replayed.
    pub replayed_entries: u64,
    /// Nominal bytes replayed (the paper's "size of data to recover").
    pub replayed_gb: f64,
}

/// Everything a driver needs to print a paper table/figure row.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Wall-clock (simulated) duration from start to last activity, seconds.
    pub duration_secs: f64,
    /// Operations completed across all clients.
    pub completed_ops: u64,
    /// Aggregate throughput, ops/s.
    pub throughput_ops: f64,
    /// Mean operation latency, µs.
    pub mean_latency_us: f64,
    /// Aggregated client statistics.
    #[serde(skip)]
    pub client_stats: ClientStats,
    /// Per-client latency timelines (Fig 10), `(seconds, mean µs)` points.
    pub per_client_latency_timelines: Vec<Vec<(f64, f64)>>,
    /// Energy results (PDU emulation over the server nodes).
    pub energy: EnergyReport,
    /// Per-server average CPU fraction over the run, `[0, 1]`.
    pub per_node_cpu: Vec<f64>,
    /// Per-second cluster-mean CPU fraction timeline (Fig 9a).
    pub cpu_timeline: Vec<(f64, f64)>,
    /// Per-second cluster-mean power timeline (Fig 9b).
    pub power_timeline: Vec<(f64, f64)>,
    /// Aggregated per-second disk activity across nodes (Fig 12):
    /// `(seconds, read MB/s, write MB/s)`.
    pub disk_timeline: Vec<(f64, f64, f64)>,
    /// Recovery results, when a crash was injected.
    pub recovery: Option<RecoveryReport>,
    /// Ops whose latency exceeded the RPC timeout.
    pub timeout_ops: u64,
    /// True when timeouts were pervasive enough that the real system would
    /// have aborted the run (the missing 10-server bars of Fig 6a).
    pub crashed: bool,
    /// Requests served per joule (the paper's efficiency metric).
    pub ops_per_joule: f64,
}

impl RunReport {
    /// Average per-node power in watts.
    pub fn avg_node_watts(&self) -> f64 {
        self.energy.cluster_avg_watts
    }

    /// Total energy in kilojoules.
    pub fn total_energy_kj(&self) -> f64 {
        self.energy.total_energy_joules / 1e3
    }

    /// Min/max of per-node average CPU, as percentages (Table I).
    pub fn cpu_min_max_pct(&self) -> (f64, f64) {
        let min = self
            .per_node_cpu
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .per_node_cpu
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if self.per_node_cpu.is_empty() {
            (0.0, 0.0)
        } else {
            (min * 100.0, max * 100.0)
        }
    }
}
