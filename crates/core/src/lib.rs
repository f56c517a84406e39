//! # rmc-core — a RAMCloud-like storage system on a simulated cluster
//!
//! The primary crate of the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (Taleb et al.,
//! ICDCS 2017). It holds the system the paper measured, written once:
//!
//! - [`protocol`]: the coordinator (tablet map, wills, failure detection,
//!   crash recovery), the servers (masters with real log-structured storage
//!   from `rmc-logstore`, backups staging real segment replicas, recovery
//!   masters) and the client half (routing, RIFL exactly-once retries), as
//!   message handlers over `rmc_runtime::Runtime`, plus the bucket hash
//!   every router shares ([`protocol::bucket_for`]);
//! - [`proto_sim`]: the deterministic engine that runs them on the
//!   `rmc_sim` event queue (the threaded and TCP engines live in
//!   `rmc-standalone`);
//! - [`config`] and [`report`]: a figure run's inputs ([`ClusterConfig`])
//!   and outputs ([`RunReport`]);
//! - [`cost`]: the machine model the paper's figures run the protocol under —
//!   a polling dispatch thread (pinning one of four cores), worker threads
//!   that spin before sleeping, a serialized log head with contention
//!   inflation, workers that wait for replication acks, an Infiniband NIC,
//!   an HDD per backup, closed-loop YCSB clients (`rmc-ycsb`) and per-node
//!   power accounting (`rmc-energy`); the server's cores and threads are
//!   [`node`] and the constants [`calib`].
//!
//! ## Example: measure a small cluster
//!
//! ```
//! use rmc_core::{cost, ClusterConfig};
//! use rmc_sim::SimDuration;
//! use rmc_ycsb::{StandardWorkload, WorkloadSpec};
//!
//! let workload = WorkloadSpec::standard(StandardWorkload::C)
//!     .with_record_count(1_000)
//!     .with_ops_per_client(2_000);
//! let cfg = ClusterConfig::new(/*servers=*/2, /*clients=*/2, workload);
//! let report = cost::run(&cfg, None, SimDuration::ZERO, false).report;
//! assert_eq!(report.completed_ops, 4_000);
//! assert!(report.throughput_ops > 0.0);
//! assert!(report.energy.total_energy_joules > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod config;
pub mod cost;
pub mod node;
pub mod proto_sim;
pub mod protocol;
pub mod report;

/// [`protocol::bucket_for`] under the path `benchmark/`'s code-path
/// harness imports it by.
pub mod coordinator {
    pub use crate::protocol::bucket_for;
}

pub use config::{ClientAffinity, ClusterConfig};
pub use node::ServerNode;
pub use report::{RecoveryReport, RunReport};
