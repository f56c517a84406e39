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
//! - [`fabric`]: the [`WireFabric`] NIC. One lazily dialed, automatically
//!   re-dialed connection per peer, with exponential backoff on dead peers
//!   and bidirectional adoption (replies multiplex back over the socket
//!   requests arrived on), all driven by **one readiness loop on the
//!   thread that owns the node's [`WireInbox`]**: it writes what was
//!   posted, `poll(2)`s the listener and every connection, reads,
//!   reassembles, decodes, stamps spans and hands out
//!   `rmc_runtime::Event`s. No thread per connection, none per listener;
//!   the only thread a fabric ever owns is the delay line's, once a chaos
//!   plan has delayed something. Health surfaces as `wire.*` counters in
//!   the shared [`MetricsRegistry`](rmc_runtime::MetricsRegistry).
//!   `rmc-standalone`'s cluster harness plugs it in as one of its two
//!   fabrics.
//!
//! Delivery semantics match the other engines: `send` may silently drop
//! (connection died, peer backing off, peer has no route) and the
//! protocol's own acks/retries/RIFL dedup provide exactly-once on top.
//! Request/response multiplexing needs no wire-level correlation ids —
//! the protocol's RIFL `(client, seq)` pairs already key every exchange.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod fabric;
pub mod frame;

pub use codec::{decode_msg, encode_msg, CodecError};
pub use fabric::{AddressBook, FabricConfig, WireFabric, WireInbox, WireMetrics};
pub use frame::{encode_frame, Frame, FrameError, FrameKind, FrameReader};
