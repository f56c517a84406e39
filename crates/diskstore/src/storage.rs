//! The [`BackupStorage`] boundary: what the protocol's backup role stages
//! replicas behind, plus the fsync policy axis, the disk-fault hook, and
//! the `disk.*` metric family shared by every storage engine.

use std::collections::BTreeMap;
use std::time::Duration;

use rmc_runtime::{CounterHandle, MetricsFamily};

/// An error from the storage engine. The contract at the protocol layer:
/// an append that returns `Err` was **not** made durable, so the backup
/// must withhold its `ReplicateAck` — the master's retry machinery redrives
/// the write, and durability is never overstated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying I/O failed (write error, fsync EIO, ...).
    Io(String),
    /// Stored bytes failed validation (checksum mismatch, bad framing).
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(why) => write!(f, "storage i/o error: {why}"),
            StorageError::Corrupt(why) => write!(f, "storage corruption: {why}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// When staged bytes reach the file, and when they are forced to the
/// platter. Under `Batched` and `Off` a file engine acks an append from
/// its master's pending frames, written when the segment seals (see
/// `FileStorage`'s "What is buffered").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write and `fsync` every append before the ack: an acked write is on
    /// disk, full stop. The paper's durability-first configuration.
    PerWrite,
    /// Appends wait in memory until their segment seals, then reach the
    /// OS page cache in one write; one `fsync` covers the whole dirty
    /// queue once `bytes` have been staged or `interval` has passed since
    /// the last sync — io-queue-depth batching, the RAMCloud-style
    /// buffered-logging compromise. An ack survives a crash of the backup
    /// process once its segment is written, and until then lives on the
    /// other replicas.
    Batched {
        /// Dirty-byte threshold that triggers a sync.
        bytes: usize,
        /// Maximum age of unsynced bytes.
        interval: Duration,
    },
    /// Never fsync unless asked; appends wait in memory until their
    /// segment seals, and the OS flushes what was written when it likes.
    /// An ack survives a crash of the backup process once its segment is
    /// written, and until then lives on the other replicas. Fastest,
    /// weakest.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI surface: `per_write`, `off`, `batched` (defaults:
    /// 256 KiB / 50 ms), or `batched:BYTES,MILLIS`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "per_write" => Ok(FsyncPolicy::PerWrite),
            "off" => Ok(FsyncPolicy::Off),
            "batched" => Ok(FsyncPolicy::Batched {
                bytes: 256 << 10,
                interval: Duration::from_millis(50),
            }),
            other => {
                let spec = other
                    .strip_prefix("batched:")
                    .ok_or_else(|| format!("unknown fsync policy {other:?}"))?;
                let (bytes, millis) = spec
                    .split_once(',')
                    .ok_or_else(|| format!("batched spec {spec:?}: want BYTES,MILLIS"))?;
                let bytes: usize = bytes
                    .trim()
                    .parse()
                    .map_err(|e| format!("batched bytes: {e}"))?;
                let millis: u64 = millis
                    .trim()
                    .parse()
                    .map_err(|e| format!("batched millis: {e}"))?;
                Ok(FsyncPolicy::Batched {
                    bytes,
                    interval: Duration::from_millis(millis),
                })
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::PerWrite => write!(f, "per_write"),
            FsyncPolicy::Batched { bytes, interval } => {
                write!(f, "batched:{},{}", bytes, interval.as_millis())
            }
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// The `disk.*` metric family every storage engine (and the sim's
/// [`DiskModel`](../../disk) twin) reports into — one health shape across
/// engines, per the stats plane's convention.
#[derive(Debug, Clone)]
pub struct DiskMetrics {
    /// Bytes written (frame bytes, including headers).
    pub write_bytes: CounterHandle,
    /// `write` calls made to log files: one per frame under `per_write`,
    /// one per drain of pending frames otherwise.
    pub write_calls: CounterHandle,
    /// Bytes read back (the scan at open, and every served read).
    pub read_bytes: CounterHandle,
    /// Completed fsync calls.
    pub fsyncs: CounterHandle,
    /// Frames a failed or short write lost (injected or real): the frame
    /// a `per_write` append was writing, and every pending frame a failed
    /// drain did not land whole.
    pub write_errors: CounterHandle,
    /// Fsyncs that failed (EIO).
    pub fsync_errors: CounterHandle,
    /// Frames rejected by checksum, at open or when read back to be served.
    pub crc_mismatch: CounterHandle,
    /// Frames a served read could not read back at all (a file gone or
    /// shorter than the frame); left out of the answer, like a bad CRC.
    pub read_errors: CounterHandle,
    /// Files whose suspect remainder was copied to `quarantine/`.
    pub quarantined: CounterHandle,
    /// Torn frame tails truncated away on recovery.
    pub torn_tails: CounterHandle,
    /// Injected stuck-slow I/O stalls served.
    pub stalls: CounterHandle,
    /// Gauge: files with bytes accumulated toward a batched fsync.
    pub queue_depth: CounterHandle,
}

impl DiskMetrics {
    /// Resolves the family's handles under `fam`'s prefix (conventionally
    /// `disk.` or `disk.{node}.`).
    pub fn new(fam: &MetricsFamily) -> DiskMetrics {
        DiskMetrics {
            write_bytes: fam.counter("write_bytes"),
            write_calls: fam.counter("write_calls"),
            read_bytes: fam.counter("read_bytes"),
            fsyncs: fam.counter("fsyncs"),
            write_errors: fam.counter("write_errors"),
            fsync_errors: fam.counter("fsync_errors"),
            crc_mismatch: fam.counter("crc_mismatch"),
            read_errors: fam.counter("read_errors"),
            quarantined: fam.counter("quarantined"),
            torn_tails: fam.counter("torn_tails"),
            stalls: fam.counter("stalls"),
            queue_depth: fam.gauge("queue_depth"),
        }
    }

    /// Handles not registered anywhere — counts are kept but invisible.
    /// For storage used outside a metrics-bearing harness (unit tests).
    pub fn detached() -> DiskMetrics {
        let reg = rmc_runtime::MetricsRegistry::new();
        DiskMetrics::new(&reg.family_at("disk."))
    }
}

/// What happens to the bytes of one injected-faulty append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The (possibly mutated) frame is written in full.
    Commit,
    /// Only the first `keep` bytes reach the file, then the write errors —
    /// the torn-write crash signature, delivered while alive.
    Short {
        /// Bytes that reach the file before the failure.
        keep: usize,
    },
    /// Nothing reaches the file; the write errors outright (EIO).
    Error,
}

/// One write's injected fate: an optional stall (stuck-slow I/O) plus the
/// outcome for the bytes. The injector may additionally mutate the encoded
/// frames in place (bit-flip corruption) before they are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendFault {
    /// Sleep this long before touching the file.
    pub stall: Option<Duration>,
    /// What happens to the bytes.
    pub outcome: AppendOutcome,
}

impl AppendFault {
    /// No fault: commit immediately.
    pub fn clean() -> AppendFault {
        AppendFault {
            stall: None,
            outcome: AppendOutcome::Commit,
        }
    }
}

/// Interposes on [`FileStorage`](crate::FileStorage)'s physical I/O — the
/// disk-fault twin of the message-level `FaultRuntime`. Implemented by
/// `rmc-chaos` with seeded, deterministic draws.
pub trait FaultInjector: std::fmt::Debug + Send {
    /// Judges one write of `segment`'s frames to `master`'s log. `frame`
    /// is the encoded bytes about to be written — one frame under
    /// `per_write`, a drain's run of whole frames otherwise; the injector
    /// may flip bits in place.
    fn on_append(&mut self, master: usize, segment: u64, frame: &mut Vec<u8>) -> AppendFault;

    /// Judges one fsync; `false` is an injected EIO.
    fn on_fsync(&mut self) -> bool;
}

/// Where a backup stages replica bytes. The protocol's backup role talks
/// only to this trait; whether the bytes live in a `BTreeMap` or in
/// checksummed files is an engine choice. Appending is the one way bytes
/// get in: an image of a whole segment is an append like any other.
pub trait BackupStorage: std::fmt::Debug + Send {
    /// Appends replica bytes for `(master, segment)`. `Err` means the
    /// bytes were **not** made durable and the caller must not ack.
    fn append(&mut self, master: usize, segment: u64, bytes: &[u8]) -> Result<(), StorageError>;

    /// The staged segments of `master`: `(segment, concatenated bytes)`.
    fn segments_of(&self, master: usize) -> Vec<(u64, Vec<u8>)>;

    /// `master`'s highest staged segment and its length: the one a live
    /// master is still filling.
    fn last_slot(&self, master: usize) -> Option<(u64, u64)>;

    /// Number of `(master, segment)` slots staged.
    fn segment_count(&self) -> usize;

    /// Total staged payload bytes.
    fn staged_bytes(&self) -> u64;

    /// Forces everything staged so far to be durable (fsync of every
    /// dirty file). A no-op for memory engines.
    fn flush(&mut self) -> Result<(), StorageError>;
}

/// The in-memory engine: exactly the staging the protocol used before the
/// durability layer existed. Used by the deterministic simulation and any
/// harness that does not opt into files.
#[derive(Debug, Default)]
pub struct MemStorage {
    staged: BTreeMap<(usize, u64), Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }
}

impl BackupStorage for MemStorage {
    fn append(&mut self, master: usize, segment: u64, bytes: &[u8]) -> Result<(), StorageError> {
        self.staged
            .entry((master, segment))
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn segments_of(&self, master: usize) -> Vec<(u64, Vec<u8>)> {
        self.staged
            .iter()
            .filter(|((m, _), _)| *m == master)
            .map(|((_, seg), bytes)| (*seg, bytes.clone()))
            .collect()
    }

    fn last_slot(&self, master: usize) -> Option<(u64, u64)> {
        let mut slots = self.staged.range((master, 0)..=(master, u64::MAX));
        slots.next_back().map(|(&(_, s), b)| (s, b.len() as u64))
    }

    fn segment_count(&self) -> usize {
        self.staged.len()
    }

    fn staged_bytes(&self) -> u64 {
        self.staged.values().map(|b| b.len() as u64).sum()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_appends_and_lists() {
        let mut s = MemStorage::new();
        s.append(0, 1, b"aa").unwrap();
        s.append(0, 1, b"bb").unwrap();
        s.append(2, 1, b"cc").unwrap();
        assert_eq!(s.segments_of(0), vec![(1, b"aabb".to_vec())]);
        assert_eq!(s.segments_of(2), vec![(1, b"cc".to_vec())]);
        assert_eq!(s.segment_count(), 2);
        assert_eq!(s.staged_bytes(), 6);
        s.append(0, 3, b"d").unwrap();
        assert_eq!((s.last_slot(0), s.last_slot(1)), (Some((3, 1)), None));
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("per_write"), Ok(FsyncPolicy::PerWrite));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("batched:1024,20"),
            Ok(FsyncPolicy::Batched {
                bytes: 1024,
                interval: Duration::from_millis(20)
            })
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        // Round-trips through Display.
        for s in ["per_write", "off", "batched:1024,20"] {
            let p = FsyncPolicy::parse(s).unwrap();
            assert_eq!(FsyncPolicy::parse(&p.to_string()).unwrap(), p);
        }
    }
}
