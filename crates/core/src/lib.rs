//! # rmc-core — a RAMCloud-like storage system on a simulated cluster
//!
//! The primary crate of the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (Taleb et al.,
//! ICDCS 2017). It assembles the substrates into the system the paper
//! measured:
//!
//! - **masters** with real log-structured storage (`rmc-logstore`),
//! - **backups** staging real segment replicas in DRAM and spilling them to
//!   simulated disks (`rmc-disk`),
//! - a **coordinator** with tablet map, wills, failure detection, and crash
//!   recovery,
//! - **primary-backup replication** in which a write is answered only
//!   after every backup acknowledged it,
//! - a **node model** that reproduces the paper's threading behaviour:
//!   a dispatch thread that polls (pinning one of four cores), worker
//!   threads that spin before sleeping, a serialized log head with
//!   contention inflation, and workers that block while waiting for
//!   replication acks,
//! - **closed-loop YCSB clients** (`rmc-ycsb`) and **per-node power
//!   accounting** (`rmc-energy`).
//!
//! ## Example: measure a small cluster
//!
//! ```
//! use rmc_core::{Cluster, ClusterConfig};
//! use rmc_ycsb::{StandardWorkload, WorkloadSpec};
//!
//! let workload = WorkloadSpec::standard(StandardWorkload::C)
//!     .with_record_count(1_000)
//!     .with_ops_per_client(2_000);
//! let cfg = ClusterConfig::new(/*servers=*/2, /*clients=*/2, workload);
//! let report = Cluster::new(cfg).run();
//! assert_eq!(report.completed_ops, 4_000);
//! assert!(report.throughput_ops > 0.0);
//! assert!(report.energy.total_energy_joules > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod cluster;
pub mod config;
pub mod coordinator;
pub mod ids;
pub mod node;
pub mod proto_sim;
pub mod protocol;
pub mod report;

pub use cluster::{Cluster, BENCH_TABLE};
pub use config::{ClientAffinity, ClusterConfig};
pub use coordinator::{Coordinator, RecoveryState};
pub use ids::{ClientId, OpId};
pub use node::{BackupService, ByteBins, SegMeta, ServerNode};
pub use report::{RecoveryReport, RunReport};
