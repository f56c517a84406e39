//! # rmc-energy — power modelling and energy accounting
//!
//! Stand-in for the PDU instrumentation of the reproduced paper. On
//! Grid'5000, 40 Nancy nodes carried per-machine power distribution units
//! polled over SNMP once per second; the paper derives every energy result
//! from those 1 Hz samples. This crate provides:
//!
//! - [`PowerProfile`] — a node-level power model `P(cpu, disk, mem, nic)`
//!   fitted to the paper's reported operating points,
//! - [`PduSampler`] — a 1 Hz sampler with configurable first-order meter
//!   inertia (real PDUs report a lagging average, which matters for the
//!   paper's short Section-V runs),
//! - [`EnergyReport`] — per-node average power, total energy, and the
//!   paper's efficiency metric (requests served per joule).
//!
//! Energy is node-level, as the PDUs measured it: nothing here splits a
//! node's joules across operation classes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod profile;
mod sampler;

pub use profile::{NodeActivity, PowerProfile};
pub use sampler::{EnergyReport, PduSampler};
