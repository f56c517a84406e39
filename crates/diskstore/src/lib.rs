//! # rmc-diskstore — durable file-backed backup segment storage
//!
//! Part of the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (ICDCS 2017). The
//! paper's recovery story (Fig 12, Finding 6) hinges on backups spilling
//! segment replicas to disk so that crash recovery can replay real bytes.
//! This crate is that durability layer: the [`BackupStorage`] boundary the
//! protocol's backup role stages replicas behind, with two engines —
//!
//! - [`MemStorage`]: the in-memory staging the cluster always had; keeps
//!   the deterministic simulation byte-identical and allocation-cheap.
//! - [`FileStorage`]: real files, one append-only log per master rolled at
//!   8 MiB, each a sequence of CRC32C-checksummed [frames](frame) that name
//!   their own `(master, segment)`. An fsync policy axis ([`FsyncPolicy`]:
//!   `per_write` / `batched{bytes,interval}` / `off`) trades durability
//!   against write latency exactly the way RAMCloud's buffered logging
//!   does — under `batched` and `off` a master's open segment is acked
//!   from memory and written in one call when it seals — and [`FileStorage::open`] recovers staged segments after a crash
//!   by loading the longest valid frame prefix of every file — a torn tail
//!   is clean truncation, a mid-file checksum mismatch quarantines the
//!   file's remainder rather than panicking. A file whose write failed is
//!   never appended to again, so torn bytes are always a tail. The files
//!   are the replica: the store keeps only where each frame lies (and the
//!   frames not written yet), and a served read checks every frame again
//!   as it reads it back.
//!
//! The storage boundary is also the disk fault-injection surface: a
//! [`FaultInjector`] interposes on every write and fsync (short writes,
//! EIO, bit flips, stuck-slow I/O), with every detected consequence counted
//! in the `disk.*` metric family ([`DiskMetrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod file;
pub mod frame;
mod storage;

pub use file::{bump_epoch, FileStorage, RecoveryStats};
pub use storage::{
    AppendFault, AppendOutcome, BackupStorage, DiskMetrics, FaultInjector, FsyncPolicy, MemStorage,
    StorageError,
};
