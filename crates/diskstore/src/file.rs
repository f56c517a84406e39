//! [`FileStorage`]: the file-backed engine. One append-only log per
//! master, a sequence of checksummed [frames](crate::frame) in the order
//! they were staged; appends reach the file under the configured
//! [`FsyncPolicy`] — one `write` per frame under `per_write`, one per
//! sealed segment otherwise (below, "What is buffered") — and
//! [`FileStorage::open`] rebuilds the index of staged frames from whatever
//! survived a crash.
//!
//! ## Layout
//!
//! `DIR/m{master}_{n}.log`, `n` = 0, 1, 2, …: master `master`'s log, in the
//! order its files were written. A frame names its `(master, segment)` in
//! its checksummed header, so one file holds the frames of every segment
//! the master replicated while it was open — the one being filled, and an
//! older one a late retry still addresses, alike. A file is *retired* —
//! closed for good, its successor `n + 1` created by the next write — when
//! the next frame would take it past [`LOG_ROLL_BYTES`] (a frame is never
//! split: one larger than the bound has a file to itself), when a write to
//! it fails (below), and when the store is dropped: an incarnation creates
//! its own files and never appends to one it found.
//!
//! Every frame is an append to its segment: a master's image of a whole
//! segment arrives as one more append. A data dir written by a build before
//! that, holding `"RMCI"` image frames, reads each as corruption (below).
//!
//! ## A file is appended to only while every write to it succeeded
//!
//! The first failed or short write retires the file. The torn bytes are
//! therefore always some file's *tail*, the one kind of damage recovery
//! cuts without believing anything, and the master's retry lands whole in
//! file `n + 1`. (Were the retry appended behind the torn frame, its bytes
//! would complete the torn frame's declared length, fail its checksum, and
//! be thrown away as corruption with everything after them.) A write that
//! carried several frames keeps, in the index, those wholly before the cut
//! — exactly what recovery will find — and drops and counts the rest
//! (`disk.write_errors`).
//!
//! ## Crash recovery rules
//!
//! [`FileStorage::open`] walks each master's files in `n` order, frame by
//! frame, and indexes payloads by the header's segment. The first
//! undecodable position ends that file's trusted prefix:
//!
//! - **Torn tail** (file ends mid-frame): the signature of dying between
//!   `write` and completion. The tail is truncated away; since the
//!   interrupted write was never acked, nothing durable is lost.
//! - **Corruption** (complete frame, bad magic / impossible length / CRC
//!   mismatch / a header naming another master): the disk lied. The whole
//!   file is copied into `quarantine/` for forensics, then truncated to the
//!   trusted prefix. Nothing past the first corrupt frame of a file is
//!   believed — a corrupted length field makes every later frame boundary
//!   untrustworthy. The damage ends with the file: the next one starts at a
//!   frame boundary by construction, so one lying frame costs at most the
//!   rest of one file — [`LOG_ROLL_BYTES`], RAMCloud's own unit of replica
//!   loss — and that bound is also the size of a quarantine copy.
//!
//! Either way recovery loads the longest valid prefix of every file and
//! **never panics**; the consequences are counted in the `disk.*` family
//! ([`DiskMetrics`]). A directory that still holds `m*_s*.seg` files (the
//! layout before this one: a file per segment) is refused, not read and
//! not ignored.
//!
//! ## The file is the replica
//!
//! The store keeps no copy of what it wrote in memory (only the frames
//! still pending, below). What it keeps is an index:
//! for each `(master, segment)` slot, its length and where each of its
//! frames lies — `(file n, offset, payload length)`, an offset the frame
//! holds once it is written. An append adds its frame to its slot.
//! [`FileStorage::open`] builds the index from the frames it accepts,
//! under the rules above.
//!
//! Served reads (`segments_of`, the recovery `FetchSegments` path) read
//! each frame back from its file, or take it from the pending frames if it
//! is not written yet, and check it again either way: a frame whose
//! checksum fails, or that cannot be read at all, is left out of the
//! answer and counted (`disk.crc_mismatch`, `disk.read_errors`). A slot's
//! frames each hold whole log entries, so what is left is still a run of
//! whole entries, and the other replicas of the segment hold the rest —
//! DXRAM's discipline of serving recovery from the backup's log on the
//! device.
//!
//! ## What is buffered
//!
//! Each master's log holds the frames bound for its open file that are not
//! in it yet — its *pending* frames, all of one segment, each encoded in
//! place at the end of the buffer, the way a RAMCloud backup keeps the open
//! segment's replica in memory. Under `off` and `batched` an append is
//! indexed and acked from there. The pending frames are written in one
//! `write` call (a *drain*) when the next frame names another segment (the
//! master sealed the one pending), when the next frame would roll the
//! file, when the file is retired, and on [`flush`](BackupStorage::flush),
//! a `batched` sync and a graceful drop. The bound on the buffer is
//! therefore the segment (64 KiB in the protocol), with the roll behind
//! it. Under `per_write` every append is drained, and synced, before it is
//! acked: nothing stays pending.
//!
//! The durability contract follows. `per_write`: an acked frame is in the
//! file and synced. `off` and `batched`: an acked frame survives a crash of
//! the backup *process* once it is drained, and until then only on the
//! segment's other replicas — RAMCloud's own contract for its buffered
//! backups. The [`FaultInjector`] judges each `write` the store makes,
//! which under `per_write` is one frame.
//!
//! ## What is synced, and when
//!
//! The store holds one descriptor per master and one dirty flag with it:
//! the file owes a sync, for bytes written to it or pending. `per_write`
//! syncs the file before every ack; `batched` and an explicit
//! [`flush`](BackupStorage::flush) drain and then sync every file that owes
//! one; a file retired with a sync owed gets it as it is retired, so
//! nothing ever has to be reopened to be synced. Under `off` nothing is
//! owed: `flush` reaches the open files, and a retired one was left to the
//! page cache when it was closed. Unless the policy is `off`, creating a
//! file also syncs the directory, before the first write that depends on
//! the new name.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::frame::{decode_frame, encode_frame_into, FrameError, FRAME_HEADER_BYTES};
use crate::storage::{
    AppendFault, AppendOutcome, BackupStorage, DiskMetrics, FaultInjector, FsyncPolicy,
    StorageError,
};

/// A log file is retired before the frame that would take it past this.
/// RAMCloud's segment size: the unit a backup there loses to one bad
/// replica, and here the most one corrupt frame can cost.
const LOG_ROLL_BYTES: u64 = 8 << 20;

/// File name of the `n`th file of `master`'s log.
fn log_name(master: usize, n: u64) -> String {
    format!("m{master}_{n}.log")
}

/// Inverse of [`log_name`]; `None` for foreign files.
fn parse_log_name(name: &str) -> Option<(usize, u64)> {
    let (master, n) = name
        .strip_prefix('m')?
        .strip_suffix(".log")?
        .split_once('_')?;
    let parsed = (master.parse().ok()?, n.parse().ok()?);
    // Only the spelling `log_name` writes: no `+7`, no leading zeros.
    (log_name(parsed.0, parsed.1) == name).then_some(parsed)
}

/// Makes a name just created in `dir` durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::Io(format!("fsync directory {dir:?}: {e}")))
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
    // On the first boot the name itself is new.
    sync_dir(dir)?;
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

/// Where one accepted frame lies: file `n` of its master's log, the
/// frame's offset in it, and its payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    file: u64,
    offset: u64,
    len: u32,
}

impl Extent {
    /// The offset just past the frame.
    fn end(&self) -> u64 {
        self.offset + (FRAME_HEADER_BYTES as u64) + u64::from(self.len)
    }
}

/// One `(master, segment)` slot: its length, and its frames in order.
#[derive(Debug, Default)]
struct Slot {
    len: u64,
    extents: Vec<Extent>,
}

impl Slot {
    /// Appends one frame to the slot.
    fn push(&mut self, extent: Extent) {
        self.len += u64::from(extent.len);
        self.extents.push(extent);
    }
}

/// The file a log appends to.
#[derive(Debug)]
struct Tail {
    file: File,
    /// Its index `n` in the master's log.
    n: u64,
    /// Its length: the bytes written to it.
    len: u64,
}

/// One master's log: the file being appended to, the frames not yet in
/// it, and where the next file goes.
#[derive(Debug, Default)]
struct MasterLog {
    /// Index of the next file to create: past every one on disk.
    next: u64,
    /// The file appended to; `None` before this incarnation's first write
    /// and after a retirement.
    tail: Option<Tail>,
    /// Whole frames bound for `tail` at offset `tail.len`, encoded in
    /// place and not yet written: all of them name `segment`. Empty
    /// whenever `tail` is `None`.
    pending: Vec<u8>,
    /// The segment the frames in `pending` name.
    segment: u64,
    /// `tail` owes a sync: it holds bytes, written or pending, that no
    /// fsync has covered.
    dirty: bool,
}

impl MasterLog {
    /// Syncs the tail if it is dirty. What is pending must be drained
    /// first.
    fn sync(&mut self, master: usize, metrics: &DiskMetrics) -> Result<(), StorageError> {
        if let (true, Some(tail)) = (self.dirty, &self.tail) {
            tail.file
                .sync_all()
                .map_err(|e| StorageError::Io(format!("fsync log of master {master}: {e}")))?;
            metrics.fsyncs.incr();
            self.dirty = false;
        }
        Ok(())
    }

    /// The pending frames, with the file they are bound for and the offset
    /// the first of them will land at.
    fn pending(&self) -> Option<(u64, u64, &[u8])> {
        let tail = self.tail.as_ref()?;
        Some((tail.n, tail.len, &self.pending))
    }
}

/// The file-backed [`BackupStorage`] engine.
pub struct FileStorage {
    dir: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    injector: Option<Box<dyn FaultInjector>>,
    /// Each staged `(master, segment)` slot: no payload bytes, only where
    /// its frames lie in the files or in their log's pending frames.
    slots: BTreeMap<(usize, u64), Slot>,
    logs: BTreeMap<usize, MasterLog>,
    /// Bytes staged since the last flush (what `batched` counts).
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
            .field("segments", &self.slots.len())
            .field("dirty", &self.dirty_logs())
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
            slots: BTreeMap::new(),
            logs: BTreeMap::new(),
            dirty_bytes: 0,
            last_sync: Instant::now(),
            metrics,
            recovery: RecoveryStats::default(),
        };
        let mut files: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut legacy: Option<String> = None;
        let entries =
            fs::read_dir(&dir).map_err(|e| StorageError::Io(format!("scan {dir:?}: {e}")))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::Io(format!("scan {dir:?}: {e}")))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((master, n)) = parse_log_name(name) {
                files.entry(master).or_default().push(n);
            } else if name.ends_with(".seg") && legacy.as_deref().is_none_or(|l| name < l) {
                legacy = Some(name.to_owned());
            }
        }
        if let Some(name) = legacy {
            return Err(StorageError::Corrupt(format!(
                "{dir:?} holds {name}: a file per segment is the layout before \
                 one log per master, which this build does not read"
            )));
        }
        for (master, mut ns) in files {
            ns.sort_unstable();
            store.recover_master(master, &ns)?;
        }
        store.recovery.segments = store.slots.len();
        store.recovery.bytes = store.staged_bytes();
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

    /// Indexes `master`'s files, oldest first.
    fn recover_master(&mut self, master: usize, files: &[u64]) -> Result<(), StorageError> {
        for &n in files {
            self.recover_file(master, n)?;
        }
        // Past every file found (a name at `u64::MAX` leaves no index to
        // create: appends for that master then fail, they never overwrite).
        let log = MasterLog {
            next: files.last().map_or(0, |n| n.saturating_add(1)),
            ..MasterLog::default()
        };
        self.logs.insert(master, log);
        Ok(())
    }

    /// Loads the longest valid frame prefix of one log file, applying the
    /// torn-tail truncation and corruption-quarantine rules.
    fn recover_file(&mut self, master: usize, n: u64) -> Result<(), StorageError> {
        let path = self.dir.join(log_name(master, n));
        // `fs::read` sizes its buffer from the file's length.
        let bytes = fs::read(&path).map_err(|e| StorageError::Io(format!("read {path:?}: {e}")))?;
        self.metrics.read_bytes.add(bytes.len() as u64);
        let mut off = 0;
        let verdict = loop {
            if off == bytes.len() {
                break None;
            }
            match decode_frame(&bytes[off..]) {
                Ok((header, _, _)) if header.master != master as u64 => {
                    break Some(FrameError::Corrupt(format!(
                        "a frame of master {} in a log of master {master}",
                        header.master
                    )));
                }
                Ok((header, _, total)) => {
                    let extent = Extent {
                        file: n,
                        offset: off as u64,
                        len: header.len,
                    };
                    self.slots
                        .entry((master, header.segment))
                        .or_default()
                        .push(extent);
                    off += total;
                }
                Err(e) => break Some(e),
            }
        };
        match verdict {
            None => {}
            Some(FrameError::TornTail) => {
                self.metrics.torn_tails.incr();
                self.recovery.torn_tails += 1;
                truncate_to(&path, off as u64)?;
            }
            Some(FrameError::Corrupt(_)) => {
                self.metrics.crc_mismatch.incr();
                self.metrics.quarantined.incr();
                self.recovery.quarantined += 1;
                self.quarantine(&path, off)?;
                truncate_to(&path, off as u64)?;
            }
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

    /// Logs that owe a sync.
    fn dirty_logs(&self) -> usize {
        self.logs.values().filter(|log| log.dirty).count()
    }

    /// `master`'s log, ready to take a frame of `frame_len` bytes of
    /// `segment` behind its pending ones: frames pending for another
    /// segment (one the master sealed) are drained first, the tail is
    /// retired if the frame would take it past [`LOG_ROLL_BYTES`], and a
    /// file is created if there is none.
    fn log_for(
        &mut self,
        master: usize,
        segment: u64,
        frame_len: u64,
    ) -> Result<&mut MasterLog, StorageError> {
        let sealed = self
            .logs
            .get(&master)
            .is_some_and(|log| !log.pending.is_empty() && log.segment != segment);
        if sealed {
            self.drain(master)?;
        }
        let full = self
            .logs
            .get(&master)
            .and_then(MasterLog::pending)
            .is_some_and(|(_, written, pending)| {
                let held = written + pending.len() as u64;
                held > 0 && held + frame_len > LOG_ROLL_BYTES
            });
        if full {
            self.drain(master)?;
            self.sync_owed(master)?;
            self.retire(master);
        }
        let log = self.logs.entry(master).or_default();
        if log.tail.is_none() {
            let n = log.next;
            let path = self.dir.join(log_name(master, n));
            // Taken even if what follows fails: a retry starts clean.
            log.next = n.saturating_add(1);
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|e| StorageError::Io(format!("create {path:?}: {e}")))?;
            if self.policy != FsyncPolicy::Off {
                sync_dir(&self.dir)?;
            }
            log.tail = Some(Tail { file, n, len: 0 });
        }
        Ok(log)
    }

    /// Closes `master`'s tail for good; the next write creates file
    /// `n + 1`. Nothing may be pending.
    fn retire(&mut self, master: usize) {
        if let Some(log) = self.logs.get_mut(&master) {
            log.tail = None;
            log.dirty = false;
        }
    }

    /// Syncs `master`'s tail if the policy owes it a sync — what a file
    /// gets before it is retired, since nothing reaches it afterwards.
    fn sync_owed(&mut self, master: usize) -> Result<(), StorageError> {
        let owed =
            self.policy != FsyncPolicy::Off && self.logs.get(&master).is_some_and(|log| log.dirty);
        if owed {
            self.sync_log(master)?;
        }
        Ok(())
    }

    /// One fsync of `master`'s tail, judged by the injector.
    fn sync_log(&mut self, master: usize) -> Result<(), StorageError> {
        self.injected_fsync()?;
        match self.logs.get_mut(&master) {
            Some(log) => log.sync(master, &self.metrics),
            None => Ok(()),
        }
    }

    /// Encodes one frame onto `master`'s pending frames and indexes it.
    /// Under `off` or `batched` it waits there for the drain that seals its
    /// segment; under `per_write` it is drained and synced before it is
    /// indexed, so a failed one is never indexed and the master's retry
    /// redrives it.
    fn stage(&mut self, master: usize, segment: u64, payload: &[u8]) -> Result<(), StorageError> {
        let epoch = self.epoch;
        let frame_len = FRAME_HEADER_BYTES + payload.len();
        let log = self.log_for(master, segment, frame_len as u64)?;
        let (file, written, pending) = log.pending().expect("`log_for` leaves a tail");
        let extent = Extent {
            file,
            offset: written + pending.len() as u64,
            len: payload.len() as u32,
        };
        encode_frame_into(&mut log.pending, master, segment, epoch, payload);
        log.segment = segment;
        log.dirty = true;
        if self.policy == FsyncPolicy::PerWrite {
            if let Err(e) = self.drain(master) {
                // The frame being staged is lost with the rest.
                self.metrics.write_errors.incr();
                return Err(e);
            }
            self.sync_log(master)?;
        }
        self.slots
            .entry((master, segment))
            .or_default()
            .push(extent);
        self.after_stage(frame_len)
    }

    /// Writes `master`'s pending frames to its file in one call, judged by
    /// the injector. A write that fails or is cut short retires the file:
    /// the frames wholly before the cut stay indexed, and the rest are
    /// removed from the index and counted in `disk.write_errors`.
    fn drain(&mut self, master: usize) -> Result<(), StorageError> {
        let Some(log) = self.logs.get_mut(&master) else {
            return Ok(());
        };
        if log.pending.is_empty() {
            return Ok(());
        }
        let segment = log.segment;
        let fault = match self.injector.as_mut() {
            Some(injector) => injector.on_append(master, segment, &mut log.pending),
            None => AppendFault::clean(),
        };
        if let Some(stall) = fault.stall {
            // Stuck-slow I/O: the write blocks the backup's event loop,
            // exactly like a device hiccup under a synchronous write path.
            self.metrics.stalls.incr();
            std::thread::sleep(stall);
        }
        let len = log.pending.len();
        let (keep, injected) = match fault.outcome {
            AppendOutcome::Commit => (len, None),
            AppendOutcome::Short { keep } => (keep.min(len), Some("injected short write")),
            AppendOutcome::Error => (0, Some("injected write EIO")),
        };
        let tail = log.tail.as_mut().expect("pending frames have a file");
        self.metrics.write_calls.incr();
        let (landed, failure) = match (tail.file.write_all(&log.pending[..keep]), injected) {
            (Ok(()), None) => {
                tail.len += len as u64;
                log.pending.clear();
                self.metrics.write_bytes.add(len as u64);
                return Ok(());
            }
            // How much reached the file is unknown: none of it is believed.
            (Err(e), _) => (0, e.to_string()),
            (Ok(()), Some(what)) => {
                self.metrics.write_bytes.add(keep as u64);
                (keep, format!("{what} ({keep}/{len} bytes)"))
            }
        };
        let (file, cut) = (tail.n, tail.len + landed as u64);
        log.pending.clear();
        let lost = self.unindex_past(master, segment, file, cut);
        self.metrics.write_errors.add(lost);
        // Whatever reached the file is its tail, and stays it: recovery
        // cuts a torn tail without believing it, and the next write lands
        // whole in file `n + 1`. The frames before the cut are owed what
        // the policy owes them.
        let _ = self.sync_owed(master);
        self.retire(master);
        Err(StorageError::Io(format!(
            "write to the log of master {master} (segment {segment}): {failure}"
        )))
    }

    /// Removes the frames of `(master, segment)` in file `file` that end
    /// past `cut`: what a drain cut short there lost. They are the slot's
    /// last frames, since a drain holds one segment's frames. Returns how
    /// many there were.
    fn unindex_past(&mut self, master: usize, segment: u64, file: u64, cut: u64) -> u64 {
        let Some(slot) = self.slots.get_mut(&(master, segment)) else {
            return 0;
        };
        let mut lost = 0;
        while let Some(extent) = slot
            .extents
            .pop_if(|extent| extent.file == file && extent.end() > cut)
        {
            slot.len -= u64::from(extent.len);
            lost += 1;
        }
        if slot.extents.is_empty() {
            self.slots.remove(&(master, segment));
        }
        lost
    }

    /// Drains every log; the first failure, if any.
    fn drain_all(&mut self) -> Result<(), StorageError> {
        let masters: Vec<usize> = self.logs.keys().copied().collect();
        masters
            .into_iter()
            .map(|master| self.drain(master))
            .fold(Ok(()), Result::and)
    }

    /// Runs the policy after a frame of `staged` bytes was staged.
    fn after_stage(&mut self, staged: usize) -> Result<(), StorageError> {
        if let FsyncPolicy::Batched { bytes, interval } = self.policy {
            self.dirty_bytes += staged;
            self.metrics.queue_depth.set(self.dirty_logs() as u64);
            if self.dirty_bytes >= bytes || self.last_sync.elapsed() >= interval {
                self.flush()?;
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
}

impl BackupStorage for FileStorage {
    fn append(&mut self, master: usize, segment: u64, bytes: &[u8]) -> Result<(), StorageError> {
        self.stage(master, segment, bytes)
    }

    fn segments_of(&self, master: usize) -> Vec<(u64, Vec<u8>)> {
        let pending = self.logs.get(&master).and_then(MasterLog::pending);
        // A frame at or past what its file was given is still pending.
        let buffered = |extent: &Extent| {
            pending
                .is_some_and(|(file, written, _)| extent.file == file && extent.offset >= written)
        };
        // Each file is opened once, on its first frame; one that will not
        // open fails every frame in it.
        let mut files: BTreeMap<u64, Option<File>> = BTreeMap::new();
        let mut run = Vec::new();
        let slots = self.slots.range((master, 0)..=(master, u64::MAX));
        slots
            .map(|(&(_, segment), slot)| {
                let mut bytes = Vec::with_capacity(slot.len as usize);
                // A master fills one segment at a time, so a slot's frames
                // mostly lie back to back: each such run is one read, or
                // one slice of the pending frames.
                let runs = slot.extents.chunk_by(|a, b| {
                    b.file == a.file && b.offset == a.end() && buffered(a) == buffered(b)
                });
                for frames in runs {
                    let (first, last) = (frames[0], frames[frames.len() - 1]);
                    let span: &[u8] = match pending.filter(|_| buffered(&first)) {
                        Some((_, written, pending)) => pending
                            .get((first.offset - written) as usize..(last.end() - written) as usize)
                            .unwrap_or_default(),
                        None => {
                            let file = files.entry(first.file).or_insert_with(|| {
                                File::open(self.dir.join(log_name(master, first.file))).ok()
                            });
                            run.resize((last.end() - first.offset) as usize, 0);
                            let got = file
                                .as_ref()
                                .map_or(0, |f| read_upto(f, &mut run, first.offset));
                            self.metrics.read_bytes.add(got as u64);
                            &run[..got]
                        }
                    };
                    for extent in frames {
                        let at = (extent.offset - first.offset) as usize;
                        let end = (extent.end() - first.offset) as usize;
                        let Some(frame) = span.get(at..end) else {
                            self.metrics.read_errors.incr();
                            continue;
                        };
                        // Checked again on the way out, wherever it came
                        // from: a frame changed since it was encoded is
                        // left out.
                        match decode_frame(frame) {
                            Ok((header, payload, _))
                                if (header.master, header.segment, header.len)
                                    == (master as u64, segment, extent.len) =>
                            {
                                bytes.extend_from_slice(payload)
                            }
                            _ => self.metrics.crc_mismatch.incr(),
                        }
                    }
                }
                (segment, bytes)
            })
            .collect()
    }

    fn last_slot(&self, master: usize) -> Option<(u64, u64)> {
        let mut slots = self.slots.range((master, 0)..=(master, u64::MAX));
        slots.next_back().map(|(&(_, s), slot)| (s, slot.len))
    }

    fn segment_count(&self) -> usize {
        self.slots.len()
    }

    fn staged_bytes(&self) -> u64 {
        self.slots.values().map(|s| s.len).sum()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let drained = self.drain_all();
        self.injected_fsync()?;
        for (&master, log) in &mut self.logs {
            log.sync(master, &self.metrics)?;
        }
        self.dirty_bytes = 0;
        self.last_sync = Instant::now();
        self.metrics.queue_depth.set(0);
        drained
    }
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        // Graceful exits write what is pending and sync what the policy
        // left unsynced; a real crash never runs this, which is the whole
        // point of the policies. `Off` promised no sync, and nobody is
        // asking for one here.
        let _ = match self.policy {
            FsyncPolicy::Off => self.drain_all(),
            _ => self.flush(),
        };
    }
}

/// Reads `file` from `offset` into `buf` until `buf` is full, the file
/// ends or a read fails; returns how many bytes arrived.
fn read_upto(file: &File, buf: &mut [u8], offset: u64) -> usize {
    let mut got = 0;
    while got < buf.len() {
        match file.read_at(&mut buf[got..], offset + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    got
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
    use crate::frame::encode_frame;

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

    /// The log files under `dir`, sorted, with their lengths.
    fn log_files(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, e.metadata().unwrap().len())
            })
            .collect();
        files.sort();
        files
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
        assert_eq!((s.last_slot(2), s.last_slot(1)), (Some((7, 12)), None));
        assert_eq!(s.recovery.segments, 2);
        assert_eq!(s.recovery.torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_incarnation_never_appends_to_a_file_it_found() {
        let dir = tmpdir("incarnations");
        for boot in 0..3 {
            let mut s = open(&dir, FsyncPolicy::Off);
            assert_eq!(s.staged_bytes(), boot, "one byte a boot so far");
            s.append(4, 9, &[7]).unwrap();
        }
        let names: Vec<_> = log_files(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["m4_0.log", "m4_1.log", "m4_2.log"]);
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
        let path = dir.join(log_name(1, 0));
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
        let path = dir.join(log_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        let first = encode_frame(0, 0, 0, b"good frame").len();
        // Flip a payload bit inside the *second* frame.
        let idx = first + FRAME_HEADER_BYTES + 3;
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
        assert!(quarantined[0].starts_with("m0_0.log."), "{quarantined:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_of_another_master_is_corruption() {
        let dir = tmpdir("foreign-master");
        let mut log = encode_frame(0, 1, 0, b"mine");
        // Whole, checksummed, and in the wrong master's log.
        log.extend(encode_frame(1, 1, 0, b"spliced"));
        log.extend(encode_frame(0, 1, 0, b"behind it"));
        fs::write(dir.join(log_name(0, 0)), &log).unwrap();
        let (s, registry) = counted(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(1, b"mine".to_vec())]);
        assert_eq!(s.segments_of(1), Vec::new(), "believed for neither master");
        assert_eq!((s.recovery.torn_tails, s.recovery.quarantined), (0, 1));
        assert_eq!(registry.get("disk.crc_mismatch"), 1);
        let first = encode_frame(0, 1, 0, b"mine").len() as u64;
        assert_eq!(log_files(&dir), [("m0_0.log".to_owned(), first)]);
        let copy = dir.join("quarantine").join(format!("m0_0.log.{first}.bad"));
        assert_eq!(fs::read(copy).unwrap(), log);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_data_dir_of_segment_files_is_refused() {
        let dir = tmpdir("legacy");
        fs::write(dir.join("m0_0.log"), encode_frame(0, 1, 0, b"new")).unwrap();
        fs::write(dir.join("m1_s7.seg"), encode_frame(1, 7, 0, b"old")).unwrap();
        fs::write(dir.join("m0_s3.seg"), encode_frame(0, 3, 0, b"old")).unwrap();
        let refused = FileStorage::open(&dir, FsyncPolicy::Off, 0, DiskMetrics::detached());
        match refused {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("m0_s3.seg"), "{why}"),
            other => panic!("opened a legacy dir: {other:?}"),
        }
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
        assert_eq!(s.dirty_logs(), 0);
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
                    assert!(descriptors_under(&dir) <= 2);
                }
            }
            // A late retry for a segment its master left long ago.
            s.append(0, 3, &payload(0, 3, 9)).unwrap();
            assert_eq!(descriptors_under(&dir), 2, "one per master, and counted");
            assert_eq!(s.segment_count(), 200);
            assert_eq!(log_files(&dir).len(), 2, "and one file per master");
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
                    // 197 segments later in the log: after the earlier
                    // frames of its own segment.
                    want.extend(payload(0, 3, 9));
                }
                assert_eq!(bytes, want, "master {master} segment {segment}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_log_rolls_at_the_bound_and_never_splits_a_frame() {
        let dir = tmpdir("roll");
        let frame = (FRAME_HEADER_BYTES + 1_000_000) as u64;
        let payload = vec![0xA5u8; 1_000_000];
        let large = vec![0x5Au8; LOG_ROLL_BYTES as usize + 1];
        {
            let mut s = open(&dir, FsyncPolicy::Off);
            // Eight fit under 8 MiB; the ninth would cross it.
            for _ in 0..9 {
                s.append(0, 1, &payload).unwrap();
            }
            s.flush().unwrap();
            assert_eq!(
                log_files(&dir),
                [("m0_0.log".into(), 8 * frame), ("m0_1.log".into(), frame)]
            );
            // Larger than any file may grow (a segment's image, say): one
            // frame, a file to itself.
            s.append(0, 2, &large).unwrap();
            s.append(0, 1, b"next").unwrap();
            assert_eq!(descriptors_under(&dir), 1);
        }
        let lens: Vec<u64> = log_files(&dir).into_iter().map(|(_, len)| len).collect();
        let tail = (FRAME_HEADER_BYTES + 4) as u64;
        assert_eq!(
            lens,
            [
                8 * frame,
                frame,
                FRAME_HEADER_BYTES as u64 + large.len() as u64,
                tail
            ]
        );
        let s = open(&dir, FsyncPolicy::Off);
        assert_eq!((s.recovery.torn_tails, s.recovery.quarantined), (0, 0));
        let recovered = s.segments_of(0);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].1.len(), 9 * payload.len() + 4);
        assert!(recovered[1].1 == large);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_path_a_load_phase_leaves_three_files() {
        // What one backup stages for one master while `path_a` loads: 20 000
        // records of 1 087 B in 64 KiB segments. A file per segment was 334.
        let dir = tmpdir("load-phase");
        let record = [0x11u8; 1087];
        let per_segment = (64 << 10) / record.len();
        {
            let mut s = open(&dir, FsyncPolicy::Off);
            for i in 0..20_000 {
                s.append(0, (i / per_segment) as u64, &record).unwrap();
            }
            assert_eq!(s.segment_count(), 334);
        }
        let per_file = LOG_ROLL_BYTES / (FRAME_HEADER_BYTES + record.len()) as u64;
        let frames: Vec<u64> = log_files(&dir)
            .into_iter()
            .map(|(_, len)| len / (FRAME_HEADER_BYTES + record.len()) as u64)
            .collect();
        assert_eq!(frames, [per_file, per_file, 20_000 - 2 * per_file]);
        let s = open(&dir, FsyncPolicy::Off);
        assert_eq!(s.recovery.segments, 334);
        assert_eq!(s.recovery.bytes, 20_000 * record.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    fn counted(dir: &Path, policy: FsyncPolicy) -> (FileStorage, rmc_runtime::MetricsRegistry) {
        let registry = rmc_runtime::MetricsRegistry::new();
        let metrics = DiskMetrics::new(&registry.family_at("disk."));
        let s = FileStorage::open(dir, policy, 0, metrics).unwrap();
        (s, registry)
    }

    const HOURLY: FsyncPolicy = FsyncPolicy::Batched {
        bytes: 1 << 20,
        interval: std::time::Duration::from_secs(3600),
    };

    #[test]
    fn a_batched_flush_syncs_every_dirty_log_once() {
        let dir = tmpdir("batched-logs");
        let (mut s, registry) = counted(&dir, HOURLY);
        s.append(0, 1, b"left behind").unwrap();
        s.append(0, 2, b"current").unwrap();
        s.append(1, 1, b"another master").unwrap();
        // Moving on to segment 2 left nothing behind: same file.
        assert_eq!(registry.get("disk.fsyncs"), 0);
        assert_eq!(s.dirty_logs(), 2);
        s.flush().unwrap();
        assert_eq!(registry.get("disk.fsyncs"), 2);
        assert_eq!(s.dirty_logs(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_syncs_on_request_only() {
        let dir = tmpdir("off");
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        s.append(0, 1, b"one").unwrap();
        s.append(1, 2, b"two").unwrap();
        s.flush().unwrap();
        assert_eq!(
            registry.get("disk.fsyncs"),
            2,
            "an explicit flush is a request"
        );
        s.append(1, 2, b"three").unwrap();
        drop(s);
        assert_eq!(registry.get("disk.fsyncs"), 2, "dropping the store is not");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retired_file_is_synced_as_it_is_retired_if_the_policy_owes_it() {
        for (policy, owed) in [(HOURLY, 1), (FsyncPolicy::Off, 0)] {
            let dir = tmpdir("retire-sync");
            let (s, registry) = counted(&dir, policy);
            let mut s = s.with_injector(Box::new(Scripted {
                appends: [AppendFault::clean(), SHORT].into(),
                ..Default::default()
            }));
            s.append(0, 1, b"acked, not yet synced").unwrap();
            // Sealing segment 1 writes it; the drain of segment 2 is cut.
            s.append(0, 2, b"torn").unwrap();
            assert!(s.append(0, 3, b"sealing 2").is_err());
            // Nothing will reach the retired file again: it was synced on
            // the way out (unless nothing was promised), and is not dirty.
            assert_eq!(registry.get("disk.fsyncs"), owed);
            assert_eq!((s.dirty_logs(), descriptors_under(&dir)), (0, 0));
            s.flush().unwrap();
            assert_eq!(registry.get("disk.fsyncs"), owed);
            s.injector = None;
            let _ = fs::remove_dir_all(&dir);
        }
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

    const SHORT: AppendFault = AppendFault {
        stall: None,
        outcome: AppendOutcome::Short { keep: 10 },
    };
    const EIO: AppendFault = AppendFault {
        stall: None,
        outcome: AppendOutcome::Error,
    };

    #[test]
    fn short_write_fails_the_append_and_recovery_truncates() {
        let dir = tmpdir("short");
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite).with_injector(Box::new(Scripted {
                appends: [AppendFault::clean(), SHORT].into(),
                ..Default::default()
            }));
            s.append(0, 1, b"acked bytes").unwrap();
            assert!(s.append(0, 1, b"torn bytes").is_err());
            // The failed append was never indexed, so it is not served.
            assert_eq!(s.segments_of(0), vec![(1, b"acked bytes".to_vec())]);
        }
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(s.segments_of(0), vec![(1, b"acked bytes".to_vec())]);
        assert_eq!(s.recovery.torn_tails, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A write acked after one that failed must be there at the next open,
    /// whatever the failed one left in the file.
    fn retry_survives_reopen(tag: &str, failed: AppendFault, torn_tails: u64) {
        let dir = tmpdir(tag);
        {
            let mut s = open(&dir, FsyncPolicy::PerWrite).with_injector(Box::new(Scripted {
                appends: [AppendFault::clean(), failed].into(),
                ..Default::default()
            }));
            s.append(0, 1, b"acked bytes").unwrap();
            assert!(s.append(0, 1, b"retried bytes").is_err());
            s.append(0, 1, b"retried bytes").unwrap();
            // The failed write retired its file; the retry opened the next.
            assert_eq!(log_files(&dir).len(), 2);
        }
        let s = open(&dir, FsyncPolicy::PerWrite);
        assert_eq!(
            s.segments_of(0),
            vec![(1, b"acked bytesretried bytes".to_vec())]
        );
        assert_eq!(s.recovery.torn_tails, torn_tails);
        assert_eq!(s.recovery.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retry_after_a_short_write_survives_reopen() {
        retry_survives_reopen("retry-short", SHORT, 1);
    }

    #[test]
    fn a_retry_after_a_write_error_survives_reopen() {
        retry_survives_reopen("retry-eio", EIO, 0);
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
    fn a_served_read_checks_every_frame_again() {
        let dir = tmpdir("read-back");
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        for payload in [&b"first"[..], b"middle", b"last"] {
            s.append(0, 1, payload).unwrap();
        }
        s.flush().unwrap();
        // Behind the store's back: one payload byte of the middle frame.
        let path = dir.join(log_name(0, 0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[encode_frame(0, 1, 0, b"first").len() + FRAME_HEADER_BYTES + 2] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.segments_of(0), vec![(1, b"firstlast".to_vec())]);
        assert_eq!(registry.get("disk.crc_mismatch"), 1);
        assert_eq!(registry.get("disk.read_errors"), 0);
        // The index still says what was acked: the damage is in the file.
        assert_eq!(s.staged_bytes(), 15);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_served_read_of_a_deleted_file_drops_its_frames() {
        let dir = tmpdir("read-gone");
        {
            let mut s = open(&dir, FsyncPolicy::Off);
            s.append(0, 1, b"in the first file").unwrap();
            s.append(0, 2, b"only in the first file").unwrap();
        }
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        s.append(0, 1, b", then the second").unwrap();
        fs::remove_file(dir.join(log_name(0, 0))).unwrap();
        assert_eq!(
            s.segments_of(0),
            vec![(1, b", then the second".to_vec()), (2, Vec::new())]
        );
        assert_eq!(registry.get("disk.read_errors"), 2);
        assert_eq!(registry.get("disk.crc_mismatch"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_served_read_of_a_cut_file_serves_the_frames_before_the_cut() {
        let dir = tmpdir("read-cut");
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        for payload in [&b"whole"[..], b"cut short", b"gone"] {
            s.append(0, 1, payload).unwrap();
        }
        s.flush().unwrap();
        // Behind the store's back: the file ends inside the second frame.
        let cut = encode_frame(0, 1, 0, b"whole").len() + FRAME_HEADER_BYTES + 3;
        let f = OpenOptions::new()
            .write(true)
            .open(dir.join(log_name(0, 0)))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        assert_eq!(s.segments_of(0), vec![(1, b"whole".to_vec())]);
        assert_eq!(registry.get("disk.read_errors"), 2);
        assert_eq!(registry.get("disk.crc_mismatch"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The length of the frame `payload` is staged in.
    fn frame_len(payload: &[u8]) -> usize {
        FRAME_HEADER_BYTES + payload.len()
    }

    #[test]
    fn off_writes_a_segment_in_one_call_and_per_write_writes_every_frame() {
        let record = [0x3Cu8; 100];
        let sealed = 60 * frame_len(&record) as u64;
        for (policy, calls, fsyncs, written) in [
            (FsyncPolicy::Off, 1, 0, sealed),
            (FsyncPolicy::PerWrite, 61, 61, sealed + 52),
        ] {
            let dir = tmpdir("write-calls");
            let (mut s, registry) = counted(&dir, policy.clone());
            for _ in 0..60 {
                s.append(0, 0, &record).unwrap();
            }
            s.append(0, 1, b"the next segment").unwrap();
            let counts = ["write_calls", "fsyncs", "write_bytes"]
                .map(|c| registry.get(&format!("disk.{c}")));
            assert_eq!(counts, [calls, fsyncs, written], "{policy}");
            assert_eq!(s.staged_bytes(), 60 * 100 + 16, "{policy}");
            drop(s);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_served_read_serves_pending_frames_and_checks_them_too() {
        let dir = tmpdir("read-pending");
        let (mut s, registry) = counted(&dir, FsyncPolicy::Off);
        s.append(0, 1, b"written").unwrap();
        s.append(0, 2, b"flushed, ").unwrap();
        s.flush().unwrap();
        s.append(0, 2, b"pending, ").unwrap();
        s.append(0, 2, b"then flipped").unwrap();
        assert_eq!(registry.get("disk.write_calls"), 2);
        // Segment 2 is one run: its first frame in the file, the rest not.
        assert_eq!(
            s.segments_of(0),
            vec![
                (1, b"written".to_vec()),
                (2, b"flushed, pending, then flipped".to_vec())
            ]
        );
        // Behind the store's back: one payload byte of the last pending frame.
        let at = frame_len(b"pending, ") + FRAME_HEADER_BYTES + 2;
        s.logs.get_mut(&0).unwrap().pending[at] ^= 0x04;
        assert_eq!(
            s.segments_of(0),
            vec![
                (1, b"written".to_vec()),
                (2, b"flushed, pending, ".to_vec())
            ]
        );
        assert_eq!(registry.get("disk.crc_mismatch"), 1);
        assert_eq!(registry.get("disk.read_errors"), 0);
        assert_eq!(registry.get("disk.write_calls"), 2, "served, not written");
        // The index still says what was acked: the damage is in the buffer.
        assert_eq!(s.staged_bytes(), 7 + 9 + 9 + 12);
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drain_cut_short_keeps_the_frames_wholly_before_the_cut() {
        let dir = tmpdir("drain-cut");
        let payloads: [&[u8]; 4] = [b"kept", b"kept too", b"cut short", b"never written"];
        // Two whole frames and five bytes of the third reach the file.
        let keep = frame_len(payloads[0]) + frame_len(payloads[1]) + 5;
        {
            let (s, registry) = counted(&dir, FsyncPolicy::Off);
            let mut s = s.with_injector(Box::new(Scripted {
                appends: [AppendFault {
                    stall: None,
                    outcome: AppendOutcome::Short { keep },
                }]
                .into(),
                ..Default::default()
            }));
            for payload in payloads {
                s.append(0, 1, payload).unwrap();
            }
            // Sealing segment 1 drains it, and the drain is cut.
            assert!(s.append(0, 2, b"next").is_err());
            assert_eq!(s.segments_of(0), vec![(1, b"keptkept too".to_vec())]);
            assert_eq!(registry.get("disk.write_errors"), 2);
            assert_eq!(s.staged_bytes(), 12);
            // The cut retired file 0; the retry lands in file 1.
            s.append(0, 2, b"next").unwrap();
            assert_eq!(s.logs[&0].tail.as_ref().map(|tail| tail.n), Some(1));
            assert_eq!(registry.get("disk.write_calls"), 1);
        }
        assert_eq!(
            log_files(&dir),
            [
                ("m0_0.log".to_owned(), keep as u64),
                ("m0_1.log".to_owned(), frame_len(b"next") as u64)
            ]
        );
        let s = open(&dir, FsyncPolicy::Off);
        assert_eq!(
            s.segments_of(0),
            vec![(1, b"keptkept too".to_vec()), (2, b"next".to_vec())]
        );
        assert_eq!((s.recovery.torn_tails, s.recovery.quarantined), (1, 0));
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
    fn log_names_roundtrip() {
        assert_eq!(parse_log_name(&log_name(4, 99)), Some((4, 99)));
        assert_eq!(parse_log_name("epoch"), None);
        assert_eq!(parse_log_name("m1_.log"), None);
        assert_eq!(parse_log_name("mx_2.log"), None);
        assert_eq!(parse_log_name("m1_s2.seg"), None);
        // Names `log_name` would never write alias ones it would.
        assert_eq!(parse_log_name("m1_+2.log"), None);
        assert_eq!(parse_log_name("m01_2.log"), None);
    }
}
