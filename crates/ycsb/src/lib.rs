//! # rmc-ycsb — YCSB-style workload generation
//!
//! Reimplements the slice of the Yahoo! Cloud Serving Benchmark the paper
//! uses to drive RAMCloud: the standard workload mixes
//! ([A/B/C](crate::StandardWorkload)), key-request
//! [distributions](crate::Distribution) (uniform as in the paper, zipfian
//! as an extension), deterministic per-client
//! [request streams](crate::RequestGenerator), client-side
//! [throttling](crate::Throttle) (Fig 13), and measurement containers
//! ([`ClientStats`], [`LatencySummary`]).
//!
//! It generates requests and summarises latencies; it drives no store.
//! The wall-clock loops that issue these requests live with what they
//! measure: `benchmark/` for the cluster and the standalone server, and
//! `obs_overhead` in `rmc-bench` for the instrumentation budget.
//!
//! ## Example
//!
//! ```
//! use rmc_ycsb::{RequestGenerator, StandardWorkload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::standard(StandardWorkload::A).with_ops_per_client(10);
//! let mut client = RequestGenerator::new(spec, /*seed=*/1);
//! let mut ops = 0;
//! while let Some(req) = client.next_request() {
//!     let _key = client.key_for(req.key_index);
//!     ops += 1;
//! }
//! assert_eq!(ops, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod distribution;
mod stats;
mod workload;

pub use client::{Request, RequestGenerator, Throttle};
pub use distribution::{Distribution, KeyChooser};
pub use stats::{percentile, ClientStats, LatencySummary};
pub use workload::{Mix, OpKind, StandardWorkload, WorkloadSpec};
