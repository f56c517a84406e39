//! [`FileStorage`]: the file-backed engine. One file per
//! `(master, segment)` replica, each a sequence of checksummed
//! [frames](crate::frame); appends go straight to the file under the
//! configured [`FsyncPolicy`], and [`FileStorage::open`] rebuilds the
//! staged map from whatever survived a crash.
//!
//! ## Crash recovery rules
//!
//! Walking a segment file frame by frame, the first undecodable position
//! ends the trusted prefix:
//!
//! - **Torn tail** (file ends mid-frame): the signature of dying between
//!   `write` and completion. The tail is truncated away; since the
//!   interrupted append was never acked, nothing durable is lost.
//! - **Corruption** (complete frame, bad magic / impossible length / CRC
//!   mismatch): the disk lied. The whole file is copied into
//!   `quarantine/` for forensics, then truncated to the trusted prefix.
//!   Nothing past the first corrupt frame is believed — a corrupted length
//!   field makes every later frame boundary untrustworthy.
//!
//! Either way recovery loads the longest valid prefix and **never
//! panics**; the consequences are counted in the `disk.*` family
//! ([`DiskMetrics`]).
//!
//! Served reads (`segments_of`, the recovery `FetchSegments` path) come
//! from an in-memory mirror of the staged payloads, maintained on append
//! and rebuilt once at open — the RAMCloud discipline of serving recovery
//! from buffered copies while the disk takes writes.
//!
//! ## Descriptors
//!
//! A master appends to one segment at a time, so the store keeps one open
//! descriptor per master: appending to another segment of that master (the
//! next one, or an older one a late retry still addresses) closes the file
//! appended to before and opens the other with `O_APPEND`. Closing is not
//! syncing. A file the policy has not synced yet stays in the dirty set,
//! and the sync that is due — `Batched`'s threshold, an explicit
//! [`flush`](BackupStorage::flush) — reopens it: `fsync` works on the
//! file, whichever descriptor wrote it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::frame::{decode_frame, encode_frame, FrameError};
use crate::storage::{
    AppendOutcome, BackupStorage, DiskMetrics, FaultInjector, FsyncPolicy, StorageError,
};

/// File name for the replica of `(master, segment)`.
fn seg_name(master: usize, segment: u64) -> String {
    format!("m{master}_s{segment}.seg")
}

/// Inverse of [`seg_name`]; `None` for foreign files.
fn parse_seg_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix('m')?.strip_suffix(".seg")?;
    let (master, segment) = rest.split_once("_s")?;
    Some((master.parse().ok()?, segment.parse().ok()?))
}

/// Reads the node's incarnation epoch from `dir/epoch`, bumps it, persists
/// the new value durably, and returns it. A missing file is the first boot
/// (epoch 0); every later boot returns a strictly larger epoch, which is
/// what lets the coordinator's restart detection recognize a returning
/// server and recover its previous incarnation.
pub fn bump_epoch(dir: &Path) -> Result<u64, StorageError> {
    fs::create_dir_all(dir).map_err(|e| StorageError::Io(format!("create {dir:?}: {e}")))?;
    let path = dir.join("epoch");
    let epoch = match fs::read_to_string(&path) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|e| StorageError::Corrupt(format!("epoch file {path:?}: {e}")))?
            .wrapping_add(1),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(StorageError::Io(format!("read {path:?}: {e}"))),
    };
    let mut f = File::create(&path).map_err(|e| StorageError::Io(format!("{path:?}: {e}")))?;
    f.write_all(epoch.to_string().as_bytes())
        .and_then(|_| f.sync_all())
        .map_err(|e| StorageError::Io(format!("persist {path:?}: {e}")))?;
    Ok(epoch)
}

/// What [`FileStorage::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segment slots recovered.
    pub segments: usize,
    /// Payload bytes recovered.
    pub bytes: u64,
    /// Torn tails truncated.
    pub torn_tails: u64,
    /// Files quarantined for corruption.
    pub quarantined: u64,
}

/// The file-backed [`BackupStorage`] engine.
pub struct FileStorage {
    dir: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    injector: Option<Box<dyn FaultInjector>>,
    /// In-memory mirror of each slot's staged payload bytes.
    cache: BTreeMap<(usize, u64), Vec<u8>>,
    /// The one open append handle per master: master → (segment, file).
    open: BTreeMap<usize, (u64, File)>,
    /// Slots with bytes written since their last fsync.
    dirty: BTreeSet<(usize, u64)>,
    dirty_bytes: usize,
    last_sync: Instant,
    metrics: DiskMetrics,
    /// What the constructor recovered.
    pub recovery: RecoveryStats,
}

impl std::fmt::Debug for FileStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStorage")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("epoch", &self.epoch)
            .field("segments", &self.cache.len())
            .field("dirty", &self.dirty.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl FileStorage {
    /// Opens (creating if needed) the store under `dir`, recovering every
    /// staged segment per the torn-tail/quarantine rules. `epoch` is
    /// stamped into every frame this incarnation writes.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        epoch: u64,
        metrics: DiskMetrics,
    ) -> Result<FileStorage, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StorageError::Io(format!("create {dir:?}: {e}")))?;
        let mut store = FileStorage {
            dir: dir.clone(),
            policy,
            epoch,
            injector: None,
            cache: BTreeMap::new(),
            open: BTreeMap::new(),
            dirty: BTreeSet::new(),
            dirty_bytes: 0,
            last_sync: Instant::now(),
            metrics,
            recovery: RecoveryStats::default(),
        };
        let entries =
            fs::read_dir(&dir).map_err(|e| StorageError::Io(format!("scan {dir:?}: {e}")))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::Io(format!("scan {dir:?}: {e}")))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((master, segment)) = parse_seg_name(name) else {
                continue;
            };
            store.recover_file(&entry.path(), master, segment)?;
        }
        store.recovery.segments = store.cache.len();
        store.recovery.bytes = store.cache.values().map(|b| b.len() as u64).sum();
        Ok(store)
    }

    /// Installs a disk fault injector (chaos harnesses).
    pub fn with_injector(mut self, injector: Box<dyn FaultInjector>) -> FileStorage {
        self.injector = Some(injector);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This incarnation's epoch (stamped into frames).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Loads the longest valid frame prefix of one segment file, applying
    /// the torn-tail truncation and corruption-quarantine rules.
    fn recover_file(
        &mut self,
        path: &Path,
        master: usize,
        segment: u64,
    ) -> Result<(), StorageError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StorageError::Io(format!("read {path:?}: {e}")))?;
        self.metrics.read_bytes.add(bytes.len() as u64);
        let mut payload = Vec::new();
        let mut off = 0;
        let mut verdict: Option<FrameError> = None;
        while off < bytes.len() {
            match decode_frame(&bytes[off..]) {
                Ok((_, frame_payload, total)) => {
                    payload.extend_from_slice(frame_payload);
                    off += total;
                }
                Err(e) => {
                    verdict = Some(e);
                    break;
                }
            }
        }
        match verdict {
            None => {}
            Some(FrameError::TornTail) => {
                self.metrics.torn_tails.incr();
                self.recovery.torn_tails += 1;
                truncate_to(path, off as u64)?;
            }
            Some(FrameError::Corrupt(_)) => {
                self.metrics.crc_mismatch.incr();
                self.metrics.quarantined.incr();
                self.recovery.quarantined += 1;
                self.quarantine(path, off)?;
                truncate_to(path, off as u64)?;
            }
        }
        if !payload.is_empty() {
            self.cache.insert((master, segment), payload);
        }
        Ok(())
    }

    /// Copies a corrupt file into `quarantine/` (named after the offset of
    /// the first bad frame) for forensics.
    fn quarantine(&self, path: &Path, offset: usize) -> Result<(), StorageError> {
        let qdir = self.dir.join("quarantine");
        fs::create_dir_all(&qdir).map_err(|e| StorageError::Io(format!("{qdir:?}: {e}")))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unknown".into());
        let dest = qdir.join(format!("{name}.{offset}.bad"));
        fs::copy(path, &dest)
            .map_err(|e| StorageError::Io(format!("quarantine {path:?} -> {dest:?}: {e}")))?;
        Ok(())
    }

    fn path_of(&self, (master, segment): (usize, u64)) -> PathBuf {
        self.dir.join(seg_name(master, segment))
    }

    /// The append handle of `(master, segment)`, which becomes `master`'s
    /// one open file.
    fn file_for(&mut self, master: usize, segment: u64) -> Result<&mut File, StorageError> {
        if self.open.get(&master).map(|(open, _)| *open) != Some(segment) {
            let path = self.path_of((master, segment));
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| StorageError::Io(format!("open {path:?}: {e}")))?;
            // Replacing the entry closes the file `master` appended to
            // before.
            self.open.insert(master, (segment, f));
        }
        Ok(&mut self.open.get_mut(&master).expect("just opened").1)
    }

    /// Runs the policy after `written` new bytes landed on `key`'s file.
    fn after_write(&mut self, key: (usize, u64), written: usize) -> Result<(), StorageError> {
        match self.policy {
            FsyncPolicy::PerWrite => {
                self.injected_fsync()?;
                self.sync_one(key)?;
            }
            FsyncPolicy::Batched { bytes, interval } => {
                self.dirty.insert(key);
                self.dirty_bytes += written;
                self.metrics.queue_depth.set(self.dirty.len() as u64);
                if self.dirty_bytes >= bytes || self.last_sync.elapsed() >= interval {
                    self.flush()?;
                }
            }
            // Synced only if somebody calls `flush`.
            FsyncPolicy::Off => {
                self.dirty.insert(key);
            }
        }
        Ok(())
    }

    /// Lets the injector fail the fsync about to run.
    fn injected_fsync(&mut self) -> Result<(), StorageError> {
        if let Some(injector) = self.injector.as_mut() {
            if !injector.on_fsync() {
                self.metrics.fsync_errors.incr();
                return Err(StorageError::Io("injected fsync EIO".into()));
            }
        }
        Ok(())
    }

    fn sync_one(&self, key: (usize, u64)) -> Result<(), StorageError> {
        match self.open.get(&key.0) {
            Some((segment, f)) if *segment == key.1 => f.sync_all(),
            // Closed since it was written.
            _ => OpenOptions::new()
                .append(true)
                .open(self.path_of(key))
                .and_then(|f| f.sync_all()),
        }
        .map_err(|e| StorageError::Io(format!("fsync {key:?}: {e}")))?;
        self.metrics.fsyncs.incr();
        Ok(())
    }
}

impl BackupStorage for FileStorage {
    fn append(&mut self, master: usize, segment: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let mut frame = encode_frame(master, segment, self.epoch, bytes);
        let fault = match self.injector.as_mut() {
            Some(injector) => injector.on_append(master, segment, &mut frame),
            None => crate::AppendFault::clean(),
        };
        if let Some(stall) = fault.stall {
            // Stuck-slow I/O: the append blocks the backup's event loop,
            // exactly like a device hiccup under a synchronous write path.
            self.metrics.stalls.incr();
            std::thread::sleep(stall);
        }
        let key = (master, segment);
        match fault.outcome {
            AppendOutcome::Commit => {
                let len = frame.len();
                self.file_for(master, segment)?
                    .write_all(&frame)
                    .map_err(|e| {
                        self.metrics.write_errors.incr();
                        StorageError::Io(format!("append {key:?}: {e}"))
                    })?;
                self.metrics.write_bytes.add(len as u64);
                self.after_write(key, len)?;
                // Only an append that survived its policy joins the served
                // mirror; a failed one is redriven by the master's retry.
                self.cache.entry(key).or_default().extend_from_slice(bytes);
                Ok(())
            }
            AppendOutcome::Short { keep } => {
                let keep = keep.min(frame.len());
                let _ = self.file_for(master, segment)?.write_all(&frame[..keep]);
                self.metrics.write_bytes.add(keep as u64);
                self.metrics.write_errors.incr();
                // The torn frame sits at the file's tail; recovery will
                // truncate it. No ack, so no durability was promised.
                Err(StorageError::Io(format!(
                    "injected short write ({keep}/{} bytes) on {key:?}",
                    frame.len()
                )))
            }
            AppendOutcome::Error => {
                self.metrics.write_errors.incr();
                Err(StorageError::Io(format!("injected write EIO on {key:?}")))
            }
        }
    }

    fn supersede(&mut self, master: usize, segment: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let key = (master, segment);
        let current = self.cache.get(&key).map_or(0, |b| b.len());
        if bytes.len() <= current {
            return Ok(());
        }
        // Rewrite the file as a single frame holding the whole image. An
        // open append handle on it is dropped first; a crash mid-rewrite
        // leaves a torn tail, which recovery truncates — and reseeds are
        // fire-and-forget re-replication, so the master will send the
        // image again.
        if self
            .open
            .get(&master)
            .is_some_and(|(open, _)| *open == segment)
        {
            self.open.remove(&master);
        }
        let path = self.path_of(key);
        let frame = encode_frame(master, segment, self.epoch, bytes);
        let mut f = File::create(&path).map_err(|e| StorageError::Io(format!("{path:?}: {e}")))?;
        f.write_all(&frame).map_err(|e| {
            self.metrics.write_errors.incr();
            StorageError::Io(format!("supersede {key:?}: {e}"))
        })?;
        self.metrics.write_bytes.add(frame.len() as u64);
        drop(f);
        self.after_write(key, frame.len())?;
        self.cache.insert(key, bytes.to_vec());
        Ok(())
    }

    fn segments_of(&self, master: usize) -> Vec<(u64, Vec<u8>)> {
        self.cache
            .iter()
            .filter(|((m, _), _)| *m == master)
            .map(|((_, seg), bytes)| (*seg, bytes.clone()))
            .collect()
    }

    fn segment_count(&self) -> usize {
        self.cache.len()
    }

    fn staged_bytes(&self) -> u64 {
        self.cache.values().map(|b| b.len() as u64).sum()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.injected_fsync()?;
        for &key in &self.dirty {
            self.sync_one(key)?;
        }
        self.dirty.clear();
        self.dirty_bytes = 0;
        self.last_sync = Instant::now();
        self.metrics.queue_depth.set(0);
        Ok(())
    }
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        // Graceful exits flush whatever the policy left unsynced; a real
        // crash never runs this, which is the whole point of the policies.
        // `Off` promised no sync, and nobody is asking for one here.
        if self.policy != FsyncPolicy::Off {
            let _ = self.flush();
        }
    }
}

fn truncate_to(path: &Path, len: u64) -> Result<(), StorageError> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StorageError::Io(format!("open {path:?} for truncate: {e}")))?;
    f.set_len(len)
        .map_err(|e| StorageError::Io(format!("truncate {path:?} to {len}: {e}")))?;
    f.sync_all()
        .map_err(|e| StorageError::Io(format!("fsync truncated {path:?}: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppendFault;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rmc-diskstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path, policy: FsyncPolicy) -> FileStorage {
        FileStorage::open(dir, policy, 0, DiskMetrics::detached()).unwrap()
    }

    #[test]
    fn append_reopen_recovers_everything() {
        let dir = tmpdir("roundtrip");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite);
            s.append(0, 1, b"first").unwrap();
            s.append(0, 1, b"second").unwrap();
            s.append(2, 7, b"other master").unwrap();
        }
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(1, b"firstsecond".to_vec())]);
        assert_eq!(s.segments_of(2), vec![(7, b"other master".to_vec())]);
        assert_eq!(s.recovery.segments, 2);
        assert_eq!(s.recovery.torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let dir = tmpdir("torn");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite);
            s.append(1, 3, b"kept payload").unwrap();
        }
        // Simulate a crash mid-append: a second frame cut short.
        let path = dir.join(seg_name(1, 3));
        let torn = encode_frame(1, 3, 0, b"lost payload");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn[..torn.len() - 5]).unwrap();
        drop(f);
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(1), vec![(3, b"kept payload".to_vec())]);
        assert_eq!(s.recovery.torn_tails, 1);
        assert_eq!(s.recovery.quarantined, 0);
        // The file itself was truncated back to the valid prefix.
        let s2 = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s2.recovery.torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_quarantined_not_panicked() {
        let dir = tmpdir("corrupt");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite);
            s.append(0, 0, b"good frame").unwrap();
            s.append(0, 0, b"will be flipped").unwrap();
        }
        let path = dir.join(seg_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        let first = encode_frame(0, 0, 0, b"good frame").len();
        // Flip a payload bit inside the *second* frame.
        let idx = first + FRAME_HEADER_FOR_TEST + 3;
        bytes[idx] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(0, b"good frame".to_vec())]);
        assert_eq!(s.recovery.quarantined, 1);
        let quarantined: Vec<_> = fs::read_dir(dir.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].starts_with("m0_s0.seg."), "{quarantined:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    const FRAME_HEADER_FOR_TEST: usize = crate::frame::FRAME_HEADER_BYTES;

    #[test]
    fn supersede_rewrites_only_when_longer() {
        let dir = tmpdir("supersede");
        let mut s = open(&dir, FsyncPolicy::PerWrite);
        s.append(0, 5, b"0123456789").unwrap();
        s.supersede(0, 5, b"short").unwrap();
        assert_eq!(s.segments_of(0), vec![(5, b"0123456789".to_vec())]);
        s.supersede(0, 5, b"0123456789AB").unwrap();
        assert_eq!(s.segments_of(0), vec![(5, b"0123456789AB".to_vec())]);
        // Appends continue after a supersede, and everything reopens.
        s.append(0, 5, b"+tail").unwrap();
        drop(s);
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(5, b"0123456789AB+tail".to_vec())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_policy_defers_then_flushes() {
        let dir = tmpdir("batched");
        let mut s = open(
            &dir,
            FsyncPolicy::Batched {
                bytes: 1 << 20,
                interval: std::time::Duration::from_secs(3600),
            },
        );
        s.append(0, 1, b"buffered").unwrap();
        s.flush().unwrap();
        drop(s);
        let s = open(&dir, FsyncPolicy::Off);
        assert_eq!(s.segments_of(0), vec![(1, b"buffered".to_vec())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_byte_threshold_triggers_sync() {
        let dir = tmpdir("batched-thresh");
        let mut s = open(
            &dir,
            FsyncPolicy::Batched {
                bytes: 64,
                interval: std::time::Duration::from_secs(3600),
            },
        );
        s.append(0, 1, &[7u8; 100]).unwrap();
        // Threshold exceeded: the dirty queue drained inside append.
        assert_eq!(s.dirty.len(), 0);
        assert_eq!(s.dirty_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Descriptors of this process that point into `dir`.
    fn descriptors_under(dir: &Path) -> usize {
        fs::read_dir("/proc/self/fd")
            .expect("procfs")
            .filter_map(|fd| fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    #[test]
    fn one_descriptor_per_master_however_many_segments() {
        let dir = tmpdir("descriptors");
        let payload = |master: usize, segment: u64, n: u8| vec![n; 10 + master + segment as usize];
        {
            let mut s = open(&dir, FsyncPolicy::Off);
            for segment in 0..100 {
                for master in [0, 1] {
                    s.append(master, segment, &payload(master, segment, 1))
                        .unwrap();
                    s.append(master, segment, &payload(master, segment, 2))
                        .unwrap();
                    assert!(s.open.len() <= 2);
                    assert!(descriptors_under(&dir) <= 2);
                }
            }
            // A late retry for a segment its master left long ago.
            s.append(0, 3, &payload(0, 3, 9)).unwrap();
            assert_eq!(descriptors_under(&dir), 2, "one per master, and counted");
            assert_eq!(s.segment_count(), 200);
        }
        let s = open(&dir, FsyncPolicy::Off);
        assert_eq!(s.recovery.segments, 200);
        assert_eq!((s.recovery.torn_tails, s.recovery.quarantined), (0, 0));
        for master in [0, 1] {
            let recovered = s.segments_of(master);
            assert_eq!(recovered.len(), 100);
            for (segment, bytes) in recovered {
                let mut want = payload(master, segment, 1);
                want.extend(payload(master, segment, 2));
                if (master, segment) == (0, 3) {
                    // Reopened with `O_APPEND`: after the earlier frames.
                    want.extend(payload(0, 3, 9));
                }
                assert_eq!(bytes, want, "master {master} segment {segment}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn counted(dir: &Path, policy: FsyncPolicy) -> (FileStorage, rmc_runtime::MetricsRegistry) {
        let registry = rmc_runtime::MetricsRegistry::new();
        let metrics = DiskMetrics::new(&registry.family_at("disk."));
        let s = FileStorage::open(dir, policy, 0, metrics).unwrap();
        (s, registry)
    }

    #[test]
    fn a_batched_flush_reaches_segments_closed_since_they_were_written() {
        let dir = tmpdir("batched-closed");
        let policy = FsyncPolicy::Batched {
            bytes: 1 << 20,
            interval: std::time::Duration::from_secs(3600),
        };
        let (mut s, registry) = counted(&dir, policy);
        s.append(0, 1, b"left behind").unwrap();
        s.append(0, 2, b"current").unwrap();
        // Moving on closed segment 1's file; closing is not syncing.
        assert_eq!(registry.get("disk.fsyncs"), 0);
        assert_eq!(s.dirty.len(), 2);
        s.flush().unwrap();
        assert_eq!(registry.get("disk.fsyncs"), 2);
        assert!(s.dirty.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_syncs_on_request_only() {
        let dir = tmpdir("off");
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        s.append(0, 1, b"one").unwrap();
        s.append(0, 2, b"two").unwrap();
        s.flush().unwrap();
        assert_eq!(
            registry.get("disk.fsyncs"),
            2,
            "an explicit flush is a request"
        );
        s.append(0, 2, b"three").unwrap();
        drop(s);
        assert_eq!(registry.get("disk.fsyncs"), 2, "dropping the store is not");
        let _ = fs::remove_dir_all(&dir);
    }

    /// An injector scripted by a queue of fates.
    #[derive(Debug, Default)]
    struct Scripted {
        appends: std::collections::VecDeque<AppendFault>,
        flip_next: bool,
        fsync_eio: bool,
    }

    impl FaultInjector for Scripted {
        fn on_append(&mut self, _m: usize, _s: u64, frame: &mut Vec<u8>) -> AppendFault {
            if self.flip_next {
                self.flip_next = false;
                let mid = frame.len() / 2;
                frame[mid] ^= 0x10;
            }
            self.appends.pop_front().unwrap_or_else(AppendFault::clean)
        }
        fn on_fsync(&mut self) -> bool {
            !self.fsync_eio
        }
    }

    #[test]
    fn short_write_fails_the_append_and_recovery_truncates() {
        let dir = tmpdir("short");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite).with_injector(Box::new(Scripted {
                appends: [
                    AppendFault::clean(),
                    AppendFault {
                        stall: None,
                        outcome: AppendOutcome::Short { keep: 10 },
                    },
                ]
                .into(),
                ..Default::default()
            }));
            s.append(0, 1, b"acked bytes").unwrap();
            assert!(s.append(0, 1, b"torn bytes").is_err());
            // The failed append never joined the served mirror.
            assert_eq!(s.segments_of(0), vec![(1, b"acked bytes".to_vec())]);
        }
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(1, b"acked bytes".to_vec())]);
        assert_eq!(s.recovery.torn_tails, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_detected_on_reopen() {
        let dir = tmpdir("flip");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite).with_injector(Box::new(Scripted {
                flip_next: true,
                ..Default::default()
            }));
            // The flip corrupts the frame on its way to the platter; the
            // backup doesn't know (CRC was computed before the flip).
            s.append(0, 1, b"silently corrupted").unwrap();
        }
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), Vec::new());
        assert_eq!(s.recovery.quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_eio_fails_per_write_appends() {
        let dir = tmpdir("eio");
        let mut s = open(&dir, FsyncPolicy::PerWrite).with_injector(Box::new(Scripted {
            fsync_eio: true,
            ..Default::default()
        }));
        assert!(matches!(
            s.append(0, 1, b"never durable"),
            Err(StorageError::Io(_))
        ));
        // Not acked, not served.
        assert_eq!(s.segments_of(0), Vec::new());
        // Silence the Drop-flush error path.
        s.injector = None;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_bumps_across_boots() {
        let dir = tmpdir("epoch");
        assert_eq!(bump_epoch(&dir).unwrap(), 0);
        assert_eq!(bump_epoch(&dir).unwrap(), 1);
        assert_eq!(bump_epoch(&dir).unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seg_names_roundtrip() {
        assert_eq!(parse_seg_name(&seg_name(4, 99)), Some((4, 99)));
        assert_eq!(parse_seg_name("epoch"), None);
        assert_eq!(parse_seg_name("m1_s.seg"), None);
        assert_eq!(parse_seg_name("mx_s2.seg"), None);
    }
}
