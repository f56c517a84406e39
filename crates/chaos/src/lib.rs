//! # rmc-chaos — deterministic fault injection at the `Runtime` boundary
//!
//! Part of the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (ICDCS 2017). The
//! replication/recovery protocol in `rmc-core` talks to the world only
//! through the four-op [`Runtime`](rmc_runtime::Runtime) trait; this crate
//! interposes on that boundary to subject the protocol to the message-level
//! failures that actually break such systems — drops, duplicates, delays,
//! reorders, partitions, crash-restarts, and flaky backup writes — while
//! keeping every fault decision **seeded and deterministic** so a failing
//! run replays bit-for-bit.
//!
//! The pieces:
//!
//! - [`FaultPlan`] — pure data: fault probabilities plus a schedule of
//!   [`Partition`]s and [`Crash`]es, all derived from one seed
//!   ([`FaultPlan::generate`]) within a failure budget the protocol is
//!   expected to mask ([`PlanShape`]).
//! - [`FaultState`] — the interpreter: [`FaultState::judge`] decides each
//!   message's fate (deliver / drop / delay / duplicate) from the plan's
//!   seeded RNG and records a [`FaultEvent`] trace.
//! - [`FaultRuntime`] — wraps any `Runtime` so every `send` passes through
//!   the judge; delay and reorder ride the engine's
//!   [`send_after`](rmc_runtime::Runtime::send_after).
//! - [`OpRecord`] / [`check_histories`] — the committed-write invariant
//!   checker: no acked-write loss, version monotonicity, exactly-once
//!   apply, read consistency.
//! - [`minimize`] — greedy domain-level shrinking of a failing plan (the
//!   vendored proptest shim does not shrink).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod disk;
mod fault;
mod history;
mod minimize;
mod plan;
mod runtime;

pub use disk::{DiskFaultStats, DiskFaults};
pub use fault::{DropReason, FaultEvent, FaultState, FaultStats, MsgClass};
pub use history::{check_histories, OpKind, OpRecord, Violation};
pub use minimize::minimize;
pub use plan::{Crash, FaultPlan, Partition, PlanShape};
pub use runtime::FaultRuntime;
