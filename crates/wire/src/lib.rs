//! # rmc-wire — the cluster protocol over real TCP sockets
//!
//! Everything below this crate runs the replication/recovery protocol of
//! the RAMCloud characterization study on an engine the node never sees:
//! the deterministic simulator (`rmc-sim`), real threads over channels
//! (`rmc-standalone`'s `MiniCluster`), and — with this crate — real OS
//! processes over TCP. The same handler code, the same `Runtime`
//! surface, a third transport.
//!
//! Layers, bottom up:
//!
//! - [`frame`]: the length-prefixed binary envelope (`"RMCW"` magic,
//!   version, kind, u32 LE length) and the incremental [`FrameReader`]
//!   that reassembles frames from arbitrarily torn byte streams.
//! - [`codec`]: a hand-rolled, dependency-free encoding of
//!   `rmc_core::protocol::Msg` — one-byte enum tags in declaration order,
//!   u64 LE integers, length-prefixed byte strings — with proptests
//!   pinning the round-trip and torn-frame properties.
//! - [`pool`]: one lazily dialed, automatically re-dialed connection per
//!   peer, with exponential backoff on dead peers and bidirectional
//!   adoption (replies multiplex back over the socket requests arrived
//!   on). Health surfaces as `wire.*` counters in the shared
//!   [`MetricsRegistry`](rmc_runtime::MetricsRegistry).
//! - [`fabric`]: the [`WireFabric`] NIC (listener, readers decoding
//!   straight into the node's inbox of `rmc_runtime::Event`s, delay line,
//!   span stamping at send/deliver). `rmc-standalone`'s cluster harness
//!   plugs it in as one of its two fabrics.
//!
//! Delivery semantics match the other engines: `send` may silently drop
//! (connection died, peer backing off, peer has no route) and the
//! protocol's own acks/retries/RIFL dedup provide exactly-once on top.
//! Request/response multiplexing needs no wire-level correlation ids —
//! the protocol's RIFL `(client, seq)` pairs already key every exchange.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod fabric;
pub mod frame;
pub mod pool;

pub use codec::{decode_msg, encode_msg, CodecError};
pub use fabric::{FabricConfig, WireFabric};
pub use frame::{encode_frame, Frame, FrameError, FrameKind, FrameReader};
pub use pool::{AddressBook, ConnectionPool, WireMetrics};
