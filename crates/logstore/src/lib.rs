//! # rmc-logstore — RAMCloud-style log-structured memory
//!
//! The storage engine at the heart of the reproduction of *"Characterizing
//! Performance and Energy-Efficiency of the RAMCloud Storage System"*
//! (ICDCS 2017). A master keeps **all** data in an append-only log of 8 MB
//! [`Segment`]s indexed by a [`HashTable`]; overwrites append new versions,
//! deletes append tombstones, and a cost-benefit [cleaner]
//! reclaims dead space. This is a *real* data plane — actual bytes, actual
//! checksums, actual index — which the simulated cluster (`rmc-core`) and
//! the threaded single-node store (`rmc-standalone`) both build on.
//!
//! [cleaner]: crate::cleaner
//!
//! ## Quick start
//!
//! ```
//! use rmc_logstore::{LogConfig, Store, TableId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut store = Store::new(LogConfig::default());
//! let out = store.write(TableId(1), b"user:42", b"{\"name\":\"kim\"}")?;
//! assert_eq!(out.version, rmc_logstore::Version::FIRST);
//! let obj = store.read(TableId(1), b"user:42").expect("just wrote it");
//! assert_eq!(&obj.value[..], b"{\"name\":\"kim\"}");
//! store.delete(TableId(1), b"user:42")?;
//! assert!(store.read(TableId(1), b"user:42").is_none());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cleaner;
mod crc;
mod entry;
pub mod epoch;
mod hashtable;
mod log;
mod segbuf;
mod segment;
mod store;
mod types;
mod view;

pub use cleaner::{
    CleanKind, CleanOutcome, CleanPlan, CleanerConfig, CleanerConfigError, PreparedClean,
};
pub use crc::{crc32c, Crc32c};
pub use entry::{
    CompletionId, LogEntry, ObjectRecord, ParseEntryError, TombstoneRecord, HEADER_BYTES,
    MAX_KEY_BYTES, MAX_VALUE_BYTES,
};
pub use epoch::{EpochGuard, EpochTracker};
pub use hashtable::{Candidates, HashTable, ProbeStats};
pub use log::{AppendOutcome, Log, LogConfig, LogFullError};
pub use segment::{Segment, SegmentFullError, SegmentIter, DEFAULT_SEGMENT_BYTES};
pub use store::{Store, StoreError, StoreStats, WriteOutcome};
pub use types::{key_hash, KeyHash, LogPosition, SegmentId, TableId, Version};
pub use view::{ObjectView, ReadContended, ReadCounters, ReadHandle, ValueView};
