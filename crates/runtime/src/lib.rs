//! # rmc-runtime — the engine-agnostic runtime layer
//!
//! Substrate for the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (ICDCS 2017). This
//! workspace runs the same replication/recovery protocol on three engines —
//! the deterministic discrete-event simulator in `rmc-sim`, threads in one
//! process, and `rmcd` processes over TCP (both in `rmc-standalone`) — and
//! this crate holds everything they share:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond timestamps and intervals.
//!   "Sim" is historical; on the wall-clock engines they carry nanoseconds
//!   since a [`WallClock`]'s origin, and in the simulator the event queue
//!   says what "now" is.
//! - [`Runtime`] + [`NodeId`]: the full surface a protocol node may touch —
//!   clock, message transport, and a timer. Protocol handlers generic over
//!   `R: Runtime` run unchanged under every engine.
//! - [`Event`] + [`DelayLine`]: what every *wall-clock* engine shares below
//!   its transport — the one inbox item a node's event loop drains, and the
//!   one place a message held by `Runtime::send_after` is parked.
//! - [`SimRng`]: deterministic seedable randomness.
//! - Measurement primitives: [`Summary`], [`Histogram`], [`TimeSeries`],
//!   [`RateMeter`] and [`BinnedUsage`].
//!
//! `rmc-sim` re-exports the time/rng/metric types, so simulator-facing code
//! may import them from either crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod delay;
mod event;
mod metrics;
mod registry;
mod rng;
mod runtime;
mod time;

pub use clock::WallClock;
pub use delay::DelayLine;
pub use event::Event;
pub use metrics::{BinnedUsage, Histogram, RateMeter, Summary, TimeSeries};
pub use registry::{CounterHandle, HistogramHandle, MetricKind, MetricsFamily, MetricsRegistry};
pub use rng::SimRng;
pub use runtime::{NodeId, Runtime};
pub use time::{SimDuration, SimTime};
