//! # rmc-standalone — a real multi-threaded single-node store
//!
//! The other deployments in this workspace run the log-structured engine
//! inside a deterministic simulator. This crate runs it for real: a
//! [`StandaloneServer`] is a [`ShardedStore`] (per-shard `parking_lot` locks
//! around `rmc_logstore::Store`) with a cleaner thread per shard, served on
//! the threads that call its [`Client`] handles — an embeddable in-memory KV
//! store with the same data-plane semantics the paper's system has —
//! append-only log, versions, tombstones, cleaning.
//!
//! It also hosts the **wall-clock cluster harness** for `rmc-core`'s
//! shared replication/recovery protocol — one harness, two fabrics (see
//! [`cluster`]). [`Cluster`] runs coordinator, masters, and backups as
//! real threads with real primary-backup replication and full will-based
//! crash recovery, generic over the [`Fabric`] that carries their
//! messages: crossbeam channels ([`MiniCluster`]/[`MiniClient`], the
//! wall-clock twin of the simulated engine in `rmc_core::proto_sim`) or
//! loopback TCP through `rmc-wire` ([`NetCluster`]/[`NetClient`]). Both
//! deliver the same `rmc_runtime::Event`s into one [`node_loop`], which is
//! also what the `rmcd` binary runs on its main thread to be one cluster
//! member per OS process.
//!
//! ## Example
//!
//! ```
//! use rmc_standalone::{ServerConfig, StandaloneServer};
//! use rmc_logstore::TableId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = StandaloneServer::start(ServerConfig::default());
//! let client = server.client();
//! client.write(TableId(1), b"user:1", b"alice")?;
//! let obj = client.read(TableId(1), b"user:1")?.expect("present");
//! assert_eq!(&obj.value[..], b"alice");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cleaner;
pub mod cluster;
pub mod procs;
mod repl;
mod server;
mod shard;

pub use cluster::{
    node_loop, ChannelFabric, Cluster, ClusterReport, Fabric, MiniClient, MiniCluster, NetClient,
    NetCluster, StorageFactory,
};
pub use procs::{reserve_addrs, rmcd_sibling_path, FleetConfig, RmcdFleet};
pub use repl::{parse_command, ParseCommandError, ReplCommand, HELP};
pub use server::{Client, ClientError, ServerConfig, StandaloneServer, STAGE_SAMPLE};
pub use shard::ShardedStore;
