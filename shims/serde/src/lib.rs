//! Offline shim for the [`serde`](https://docs.rs/serde) crate.
//!
//! The workspace uses serde only for `#[derive(Serialize, Deserialize)]` on
//! data types (no serializer is ever invoked — JSON/CSV output is written by
//! hand). This shim provides marker traits satisfied by every type and
//! re-exports no-op derive macros, so all existing derive annotations
//! compile unchanged while the build stays fully offline.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; satisfied by every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; satisfied by every type.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
