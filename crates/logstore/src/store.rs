//! The object store: a [`Log`] plus a [`HashTable`] index.
//!
//! This is the storage engine of a RAMCloud master. All data lives in the
//! log; the hash table maps each live key to its current log position.
//! Overwrites append a new version, deletes append a tombstone, and the
//! cleaner (see [`crate::cleaner`]) reclaims dead space.

use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::Arc;

use crate::cleaner::{CleanKind, TARGET_FREE_SLOTS};
use crate::entry::{
    object_len, tombstone_len, BodyView, CompletionId, EntryView, LogEntry, ObjectRecord, Record,
    TombstoneRecord, HEADER_BYTES, MAX_KEY_BYTES, MAX_VALUE_BYTES,
};
use crate::epoch::EpochTracker;
use crate::hashtable::HashTable;
use crate::log::{Log, LogConfig, LogFullError};
use crate::types::{key_hash, KeyHash, LogPosition, SegmentId, TableId, Version};
use crate::view::{ObjectView, ReadCounters, ReadHandle, ValueView};

/// Errors returned by store mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The log is full and cleaning could not reclaim enough space.
    OutOfMemory,
    /// The key exceeds [`MAX_KEY_BYTES`].
    KeyTooLarge,
    /// The value exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge,
    /// A scan was requested but the store has no ordered index
    /// (`LogConfig::ordered_index` was false).
    ScansDisabled,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfMemory => write!(f, "out of log memory"),
            StoreError::KeyTooLarge => write!(f, "key exceeds {MAX_KEY_BYTES} bytes"),
            StoreError::ValueTooLarge => write!(f, "value exceeds {MAX_VALUE_BYTES} bytes"),
            StoreError::ScansDisabled => {
                write!(f, "scans need LogConfig::ordered_index = true")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LogFullError> for StoreError {
    /// The log was full, and cleaning found no room.
    fn from(_: LogFullError) -> Self {
        StoreError::OutOfMemory
    }
}

/// Result of a successful write or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Version assigned to the new object (or carried by the tombstone).
    pub version: Version,
    /// Where the record landed in the log.
    pub position: LogPosition,
    /// Segment sealed by this append, if the head rolled.
    pub sealed: Option<SegmentId>,
    /// Serialized length of the record at `position` that this call stands
    /// for (see [`Store::appended_bytes`]): the one it appended, or, for a
    /// suppressed RIFL duplicate, the original write's record, wherever the
    /// cleaner has moved it since.
    pub len: usize,
}

/// Running counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful object writes (inserts + overwrites).
    pub writes: u64,
    /// Overwrites among the writes.
    pub overwrites: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Reads served entirely on the lock-free path.
    pub read_lockfree: u64,
    /// Reads that hit contention and fell back to the locked path.
    pub read_fallback_locked: u64,
    /// Zero-copy value views alive at snapshot time (a gauge).
    pub value_views_live: u64,
    /// Limbo segments whose epoch is already safe but whose bytes are still
    /// pinned by outstanding value views (a gauge).
    pub limbo_held_by_views: u64,
    /// Cleaner passes executed.
    pub cleanings: u64,
    /// Live bytes relocated by the cleaner.
    pub bytes_relocated: u64,
    /// Segments freed by the cleaner.
    pub segments_freed: u64,
    /// Tombstones dropped by the cleaner.
    pub tombstones_dropped: u64,
    /// Victims processed by the in-memory compaction level.
    pub segments_compacted: u64,
    /// Bytes of survivor segments installed by the concurrent cleaner.
    pub survivor_bytes: u64,
    /// Hash-table operations (insert/update/remove) since creation.
    pub index_probes: u64,
    /// Extra probe steps those operations took beyond their home slot.
    pub index_probe_steps: u64,
    /// Hash-table rehashes (growth or in-place tombstone purges).
    pub index_resizes: u64,
}

impl AddAssign for StoreStats {
    fn add_assign(&mut self, other: StoreStats) {
        // Exhaustive destructuring (no `..`): adding a counter to StoreStats
        // without aggregating it here is a compile error, so new counters
        // can never silently vanish from merged totals.
        let StoreStats {
            writes,
            overwrites,
            deletes,
            read_hits,
            read_misses,
            read_lockfree,
            read_fallback_locked,
            value_views_live,
            limbo_held_by_views,
            cleanings,
            bytes_relocated,
            segments_freed,
            tombstones_dropped,
            segments_compacted,
            survivor_bytes,
            index_probes,
            index_probe_steps,
            index_resizes,
        } = other;
        self.writes += writes;
        self.overwrites += overwrites;
        self.deletes += deletes;
        self.read_hits += read_hits;
        self.read_misses += read_misses;
        self.read_lockfree += read_lockfree;
        self.read_fallback_locked += read_fallback_locked;
        self.value_views_live += value_views_live;
        self.limbo_held_by_views += limbo_held_by_views;
        self.cleanings += cleanings;
        self.bytes_relocated += bytes_relocated;
        self.segments_freed += segments_freed;
        self.tombstones_dropped += tombstones_dropped;
        self.segments_compacted += segments_compacted;
        self.survivor_bytes += survivor_bytes;
        self.index_probes += index_probes;
        self.index_probe_steps += index_probe_steps;
        self.index_resizes += index_resizes;
    }
}

impl StoreStats {
    /// Merges `other` into `self` (alias of `+=` for call sites that prefer
    /// a named method).
    pub fn merge(&mut self, other: &StoreStats) {
        *self += *other;
    }
}

/// Internal mutable counters. Mutation-path counters are plain `u64`s
/// guarded by `&mut self`; read-path counters live in the shared
/// [`ReadCounters`] so the locked and lock-free paths tally into one place.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) writes: u64,
    pub(crate) overwrites: u64,
    pub(crate) deletes: u64,
    pub(crate) cleanings: u64,
    pub(crate) bytes_relocated: u64,
    pub(crate) segments_freed: u64,
    pub(crate) tombstones_dropped: u64,
    pub(crate) segments_compacted: u64,
    pub(crate) survivor_bytes: u64,
}

impl Counters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            writes: self.writes,
            overwrites: self.overwrites,
            deletes: self.deletes,
            cleanings: self.cleanings,
            bytes_relocated: self.bytes_relocated,
            segments_freed: self.segments_freed,
            tombstones_dropped: self.tombstones_dropped,
            segments_compacted: self.segments_compacted,
            survivor_bytes: self.survivor_bytes,
            // Read-path and index fields are filled in by `Store::stats`
            // from the shared read counters / the hash table.
            ..StoreStats::default()
        }
    }
}

/// A log-structured key-value store (one master's storage engine).
///
/// # Examples
///
/// ```
/// use rmc_logstore::{Store, LogConfig, TableId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = Store::new(LogConfig::default());
/// store.write(TableId(1), b"user1", b"alice")?;
/// let obj = store.read(TableId(1), b"user1").expect("present");
/// assert_eq!(&obj.value[..], b"alice");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Store {
    pub(crate) log: Log,
    pub(crate) index: HashTable,
    pub(crate) stats: Counters,
    /// Ordered key directory for range scans; present only when
    /// `LogConfig::ordered_index` is set.
    pub(crate) ordered: Option<BTreeMap<(u64, Vec<u8>), ()>>,
    /// Per-client last completed write (RIFL-style duplicate suppression):
    /// client id → (seq, version assigned). Rebuilt from the log on replay.
    pub(crate) completions: BTreeMap<u64, (u64, Version)>,
    /// Version floor for deleted keys, by key hash: a key re-created after a
    /// delete must continue its version chain, not restart at
    /// [`Version::FIRST`] — otherwise a tombstone from the first life would
    /// kill the second life when recovery replays segments out of order.
    /// Entries are dropped again once the key is re-written above the floor;
    /// hash collisions only ever raise a version, never lower one, so they
    /// are harmless.
    pub(crate) dead_versions: BTreeMap<u64, Version>,
    /// Reclamation epochs protecting lock-free readers from the concurrent
    /// cleaner (see [`crate::epoch`]). Behind an `Arc` so observers (tests,
    /// metrics threads) can pin or inspect epochs without borrowing the
    /// whole store.
    pub(crate) epoch: std::sync::Arc<EpochTracker>,
    /// Read-path counters, shared with every [`ReadHandle`] cloned from
    /// this store so both read paths tally into one place.
    pub(crate) read_counters: Arc<ReadCounters>,
    /// `Log::total_appended_bytes` at the end of the last cleaning pass;
    /// the balancer's write-rate signal.
    pub(crate) last_clean_appended: u64,
}

impl Store {
    /// Creates a store.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_segments` is not above
    /// [`TARGET_FREE_SLOTS`](crate::cleaner::TARGET_FREE_SLOTS): the head
    /// always occupies a slot, so the cleaner could never reach its target
    /// and would spin forever.
    pub fn new(config: LogConfig) -> Self {
        assert!(
            config.max_segments > TARGET_FREE_SLOTS,
            "a log of {} segments is too small: the cleaner's target is {TARGET_FREE_SLOTS} free",
            config.max_segments
        );
        let ordered = config.ordered_index.then(BTreeMap::new);
        let log = Log::new(config);
        let read_counters = Arc::new(ReadCounters::new(log.segment_map()));
        Store {
            log,
            index: HashTable::new(),
            stats: Counters::default(),
            ordered,
            completions: BTreeMap::new(),
            dead_versions: BTreeMap::new(),
            epoch: std::sync::Arc::new(EpochTracker::new()),
            read_counters,
            last_clean_appended: 0,
        }
    }

    /// The underlying log (read-only).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats.snapshot();
        let p = self.index.probe_stats();
        s.index_probes = p.probes;
        s.index_probe_steps = p.probe_steps;
        s.index_resizes = p.resizes;
        s.read_hits = self.read_counters.hits();
        s.read_misses = self.read_counters.misses();
        s.read_lockfree = self.read_counters.lockfree();
        s.read_fallback_locked = self.read_counters.fallback_locked();
        s.value_views_live = self.read_counters.value_views_live();
        s.limbo_held_by_views = self.log.limbo_held_by_views(self.epoch.safe_epoch()) as u64;
        s
    }

    /// A lock-free reader bound to this store's index, segment map, epochs,
    /// and counters. Cloneable into any thread; see [`ReadHandle`].
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::new(
            self.index.shared(),
            self.log.segment_map(),
            Arc::clone(&self.epoch),
            Arc::clone(&self.read_counters),
        )
    }

    /// The shared read-path counters (also reachable via
    /// [`ReadHandle::counters`]).
    pub fn read_counters(&self) -> &Arc<ReadCounters> {
        &self.read_counters
    }

    /// How far segment reclamation lags behind the cleaner: 0 when no
    /// retired segment waits in limbo, else the distance from the oldest
    /// limbo retirement epoch to the current epoch. A persistently large
    /// lag means a reader is pinned (or nobody is advancing epochs).
    pub fn reclamation_lag(&self) -> u64 {
        self.log
            .oldest_limbo_epoch()
            .map(|e| self.epoch.current().saturating_sub(e))
            .unwrap_or(0)
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// The indexed position holding the object stored under `(table, key)`,
    /// with a checksum-verified view of it. `hash` is `key_hash(table, key)`.
    fn locate(
        &self,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
    ) -> Option<(LogPosition, EntryView<'_>)> {
        self.index.candidates(hash).find_map(|pos| {
            let view = self.log.view(pos)?;
            view.is_object(table, key).then_some((pos, view))
        })
    }

    /// Finds the current position, record size, and version of a key.
    fn find(
        &self,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
    ) -> Option<(LogPosition, usize, Version)> {
        self.locate(hash, table, key)
            .map(|(pos, view)| (pos, view.len, view.version))
    }

    /// Index + log lookup shared by [`Store::read`] and [`Store::peek`].
    ///
    /// Every caller must hold an epoch pin: the concurrent cleaner may
    /// retire a victim segment while this walk chases a position into it,
    /// and only the pin keeps the victim's memory from being recycled
    /// mid-parse.
    fn lookup(&self, table: TableId, key: &[u8]) -> Option<ObjectRecord> {
        debug_assert!(
            self.epoch.pinned_readers() > 0,
            "lookup without an epoch pin races segment reclamation"
        );
        let (_, view) = self.locate(key_hash(table, key), table, key)?;
        match view.to_owned() {
            LogEntry::Object(o) => Some(o),
            LogEntry::Tombstone(_) => None,
        }
    }

    /// Reads the current value of a key.
    ///
    /// Takes `&self`: the hit/miss counters are atomics, so concurrent
    /// readers can share the store under a read lock. The epoch pin (two
    /// uncontended atomic ops, no lock) keeps the concurrent cleaner from
    /// recycling a victim segment's memory while this lookup may still be
    /// chasing a position into it.
    pub fn read(&self, table: TableId, key: &[u8]) -> Option<ObjectRecord> {
        let _pin = self.epoch.pin();
        let got = self.lookup(table, key);
        self.read_counters.record_locked(got.is_some());
        got
    }

    /// Reads a key into an [`ObjectView`] through the locked path (the
    /// contended-read fallback of the lock-free [`ReadHandle`], and the
    /// protocol server's read path). Unlike the lock-free probe it verifies
    /// the entry's checksum; like it, the view points into the segment (no
    /// copy) and keeps those bytes alive for as long as it is held.
    pub fn read_view(&self, table: TableId, key: &[u8]) -> Option<ObjectView> {
        let _pin = self.epoch.pin();
        let got = self
            .locate(key_hash(table, key), table, key)
            .and_then(|(pos, view)| {
                let BodyView::Object { value, .. } = view.body else {
                    return None;
                };
                let buf = self.log.segment(pos.segment)?.shared_buf();
                let start = pos.offset as usize + HEADER_BYTES + view.key.len();
                Some(ObjectView {
                    table,
                    version: view.version,
                    value: ValueView::segment(Arc::clone(buf), start, start + value.len()),
                })
            });
        self.read_counters.record_locked(got.is_some());
        got
    }

    /// Reads without touching statistics (for internal/verification use).
    pub fn peek(&self, table: TableId, key: &[u8]) -> Option<ObjectRecord> {
        // Pinning here is not optional: peek runs under a shared borrow
        // while the concurrent cleaner may be retiring segments, exactly
        // like `read` (this was missed originally, and an unpinned lookup
        // can chase a position into memory being reclaimed).
        let _pin = self.epoch.pin();
        self.lookup(table, key)
    }

    /// Makes room for an append of `len` bytes when the log has none: the
    /// one place the write path cleans. Harvests what earlier passes left in
    /// limbo, then runs combined passes — the same three phases a background
    /// cleaner drives, here back to back under the writer's borrow — until
    /// the free-slot target is met or no victim qualifies.
    ///
    /// Mutations call this *before* they look their key up: a pass moves
    /// live entries, so a position resolved before it would be stale after.
    fn make_room(&mut self, len: usize) {
        if self.log.has_room(len) {
            return;
        }
        loop {
            // Victims a pinned reader kept in limbo still charge the budget.
            self.reclaim_waiting();
            if self.log.free_segment_slots() >= TARGET_FREE_SLOTS {
                break;
            }
            let Some(plan) = self.prepare_clean(CleanKind::Combined) else {
                break;
            };
            if self.apply_clean(plan.build()).is_none() {
                break;
            }
        }
    }

    /// Points the index at the object just appended at `new`, replacing
    /// (and un-counting in its segment) the `existing` record the caller
    /// looked up, if there was one.
    fn index_object(
        &mut self,
        hash: KeyHash,
        existing: Option<(LogPosition, usize, Version)>,
        new: LogPosition,
    ) {
        match existing {
            Some((old_pos, old_size, _)) => {
                let swung = self.index.update(hash, old_pos, new);
                debug_assert!(swung, "the entry just looked up is indexed");
                self.log.adjust_live(old_pos.segment, -(old_size as isize));
            }
            None => self.index.insert(hash, new),
        }
    }

    /// Writes (inserts or overwrites) a key.
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyTooLarge`] / [`StoreError::ValueTooLarge`] on size
    /// violations, [`StoreError::OutOfMemory`] when the log is full even
    /// after cleaning.
    pub fn write(
        &mut self,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> Result<WriteOutcome, StoreError> {
        self.write_with(table, key, value, None)
    }

    /// Writes a key carrying a RIFL completion record for exactly-once
    /// retry semantics. If the same `(client, seq)` was already applied,
    /// nothing is written: the outcome names the original record — its
    /// version, position and length (idempotent hit).
    ///
    /// # Errors
    ///
    /// As [`Store::write`].
    pub fn write_with(
        &mut self,
        table: TableId,
        key: &[u8],
        value: &[u8],
        completion: Option<CompletionId>,
    ) -> Result<WriteOutcome, StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLarge);
        }
        if value.len() > MAX_VALUE_BYTES {
            return Err(StoreError::ValueTooLarge);
        }
        let hash = key_hash(table, key);
        if let Some(c) = completion {
            if let Some(&(seq, version)) = self.completions.get(&c.client) {
                if seq == c.seq {
                    // Duplicate of the client's last completed write.
                    let (position, len) = self
                        .completion_record(hash, table, key, c, version)
                        .expect("the log holds every client's latest completion");
                    return Ok(WriteOutcome {
                        version,
                        position,
                        sealed: None,
                        len,
                    });
                }
            }
        }
        self.make_room(object_len(key.len(), value.len(), completion.is_some()));
        let existing = self.find(hash, table, key);
        let floor = self.dead_versions.get(&hash.0).copied();
        let version = match (existing.map(|(_, _, v)| v), floor) {
            (Some(v), Some(f)) => v.max(f).next(),
            (Some(v), None) => v.next(),
            (None, Some(f)) => f.next(),
            (None, None) => Version::FIRST,
        };
        let out = self.append(Record {
            table,
            key,
            version,
            body: BodyView::Object { value, completion },
        })?;
        self.index_object(hash, existing, out.position);
        if existing.is_some() {
            self.stats.overwrites += 1;
        }
        if let Some(ordered) = self.ordered.as_mut() {
            ordered.insert((table.0, key.to_vec()), ());
        }
        if let Some(c) = completion {
            self.completions.insert(c.client, (c.seq, version));
        }
        // The new object outversions any tombstone floor; drop the entry.
        self.dead_versions.remove(&hash.0);
        self.stats.writes += 1;
        Ok(out)
    }

    /// Appends `record` to the log; the outcome every mutation reports.
    fn append(&mut self, record: Record<'_>) -> Result<WriteOutcome, LogFullError> {
        let out = self.log.append_record(record)?;
        Ok(WriteOutcome {
            version: record.version,
            position: out.position,
            sealed: out.sealed,
            len: record.len(),
        })
    }

    /// Where the record carrying completion `c` at `version` sits, and its
    /// length. Usually that is the key's live record; once another write has
    /// overwritten or deleted it, the cleaner still keeps it (see
    /// [`Store::prepare_clean`]), and the log is searched newest segment
    /// first.
    fn completion_record(
        &self,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
        c: CompletionId,
        version: Version,
    ) -> Option<(LogPosition, usize)> {
        if let Some((pos, view)) = self.locate(hash, table, key) {
            if view.version == version
                && matches!(view.body, BodyView::Object { completion: Some(got), .. } if got == c)
            {
                return Some((pos, view.len));
            }
        }
        let carries = |o: &ObjectRecord| o.version == version && o.completion == Some(c);
        for segment in self.log.segment_ids().into_iter().rev() {
            for (offset, e) in self.log.segment(segment)?.iter() {
                if matches!(&e, LogEntry::Object(o) if carries(o)) {
                    return Some((LogPosition { segment, offset }, e.serialized_len()));
                }
            }
        }
        None
    }

    /// The serialized record a write or delete stands for, borrowed from the
    /// log: the bytes a master replicates, so an update is serialized (and
    /// checksummed) once. `None` when its segment has since been cleaned.
    pub fn appended_bytes(&self, outcome: &WriteOutcome) -> Option<&[u8]> {
        let start = outcome.position.offset as usize;
        self.log
            .segment(outcome.position.segment)?
            .as_bytes()
            .get(start..start + outcome.len)
    }

    /// Deletes a key by appending a tombstone. Returns where the tombstone
    /// landed, carrying the deleted version, or `Ok(None)` when the key did
    /// not exist.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfMemory`] when the tombstone cannot be appended.
    pub fn delete(
        &mut self,
        table: TableId,
        key: &[u8],
    ) -> Result<Option<WriteOutcome>, StoreError> {
        let hash = key_hash(table, key);
        self.make_room(tombstone_len(key.len()));
        let Some((old_pos, old_size, old_version)) = self.find(hash, table, key) else {
            return Ok(None);
        };
        let out = self.append(Record {
            table,
            key,
            version: old_version,
            body: BodyView::Tombstone {
                dead_segment: old_pos.segment,
            },
        })?;
        let removed = self.index.remove(hash, old_pos);
        debug_assert!(removed, "the entry just looked up is indexed");
        self.log.adjust_live(old_pos.segment, -(old_size as isize));
        if let Some(ordered) = self.ordered.as_mut() {
            ordered.remove(&(table.0, key.to_vec()));
        }
        // Floor any future re-creation of this key at the deleted version so
        // the key's version chain stays monotone across delete/recreate.
        let floor = self.dead_versions.entry(hash.0).or_insert(old_version);
        *floor = (*floor).max(old_version);
        self.stats.deletes += 1;
        Ok(Some(out))
    }

    /// Replays an object record during crash recovery: applies it only if it
    /// is newer than what the store already holds, and says whether it did.
    /// Its completion counts either way, as replay order must not matter: a
    /// record too old to apply that carries its client's newest completion
    /// is appended dead, so the log holds every completion a retry is
    /// answered from — with a tombstone beside it when a replayed tombstone
    /// is what killed it.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfMemory`] when the log cannot hold the record.
    pub fn replay_object(&mut self, rec: &ObjectRecord) -> Result<bool, StoreError> {
        let hash = key_hash(rec.table, &rec.key);
        // A tombstone replayed earlier (possibly from a different segment)
        // may already have killed this version; replay order must not matter.
        let floor = self
            .dead_versions
            .get(&hash.0)
            .copied()
            .filter(|&f| rec.version <= f);
        let newer_completion = rec.completion.filter(|c| {
            self.completions
                .get(&c.client)
                .is_none_or(|&(seq, _)| c.seq > seq)
        });
        let beside = floor.map_or(0, |_| tombstone_len(rec.key.len()));
        self.make_room(
            object_len(rec.key.len(), rec.value.len(), rec.completion.is_some()) + beside,
        );
        let existing = self.find(hash, rec.table, &rec.key);
        let stale = existing.is_some_and(|(_, _, v)| v >= rec.version) || floor.is_some();
        if stale && newer_completion.is_none() {
            return Ok(false);
        }
        let out = self.append(Record {
            table: rec.table,
            key: &rec.key,
            version: rec.version,
            body: BodyView::Object {
                value: &rec.value,
                completion: rec.completion,
            },
        })?;
        if let Some(c) = newer_completion {
            self.completions.insert(c.client, (c.seq, rec.version));
        }
        if stale {
            // Appended for its completion only: dead on arrival. When a
            // replayed tombstone is what killed it, the tombstone goes in
            // beside it, so no image of this log holds the record alone.
            self.log
                .adjust_live(out.position.segment, -(out.len as isize));
            if let Some(version) = floor {
                self.append(Record {
                    table: rec.table,
                    key: &rec.key,
                    version,
                    body: BodyView::Tombstone {
                        dead_segment: out.position.segment,
                    },
                })?;
            }
            return Ok(false);
        }
        self.index_object(hash, existing, out.position);
        if let Some(ordered) = self.ordered.as_mut() {
            ordered.insert((rec.table.0, rec.key.to_vec()), ());
        }
        // The replayed object outversions any recorded floor.
        self.dead_versions.remove(&hash.0);
        Ok(true)
    }

    /// Replays a tombstone during crash recovery: deletes the key if the
    /// stored version is not newer than the tombstone.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfMemory`] when the tombstone cannot be appended.
    pub fn replay_tombstone(&mut self, t: &TombstoneRecord) -> Result<bool, StoreError> {
        let hash = key_hash(t.table, &t.key);
        let applied = match self.find(hash, t.table, &t.key) {
            Some((_, _, v)) if v <= t.version => {
                self.delete(t.table, &t.key)?;
                true
            }
            _ => false,
        };
        // Even when nothing was deleted (the object may simply not have been
        // replayed yet), record the floor so a later replay of the killed
        // version is rejected — replay order across segments must not matter.
        let floor = self.dead_versions.entry(hash.0).or_insert(t.version);
        *floor = (*floor).max(t.version);
        Ok(applied)
    }

    /// Iterates over all live objects (order unspecified). Intended for
    /// verification and for building recovery partitions.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjectRecord> + '_ {
        self.index
            .iter()
            .filter_map(move |(_, pos)| match self.log.read(pos) {
                Some(LogEntry::Object(o)) => Some(o),
                _ => None,
            })
    }

    /// Scans up to `limit` live objects of `table` with keys ≥ `start_key`,
    /// in key order (YCSB workload E's access pattern).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ScansDisabled`] unless the store was built
    /// with `LogConfig::ordered_index = true`.
    pub fn scan(
        &self,
        table: TableId,
        start_key: &[u8],
        limit: usize,
    ) -> Result<Vec<ObjectRecord>, StoreError> {
        let Some(ordered) = self.ordered.as_ref() else {
            return Err(StoreError::ScansDisabled);
        };
        // One pin for the whole scan: every per-key lookup below chases log
        // positions that the concurrent cleaner must not reclaim under us
        // (scan had the same unpinned hole `peek` did).
        let _pin = self.epoch.pin();
        let mut out = Vec::with_capacity(limit.min(64));
        for ((t, key), _) in ordered.range((table.0, start_key.to_vec())..) {
            if *t != table.0 || out.len() >= limit {
                break;
            }
            if let Some(obj) = self.lookup(table, key) {
                out.push(obj);
            }
        }
        Ok(out)
    }

    /// Seals the head segment if it holds anything, so that nothing appends
    /// to it again; cleans first, as a write does, when the budget has no
    /// slot for the new head.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfMemory`] when cleaning finds no slot to roll into.
    pub fn seal_head(&mut self) -> Result<(), StoreError> {
        if self
            .log
            .segment(self.log.head())
            .is_some_and(|s| !s.is_empty())
        {
            self.make_room(self.log.config().segment_bytes);
            self.log.roll()?;
        }
        Ok(())
    }

    /// The last completed `(seq, version)` for `client`, if any (the
    /// duplicate-suppression record).
    pub fn last_completion(&self, client: u64) -> Option<(u64, Version)> {
        self.completions.get(&client).copied()
    }

    /// Total live bytes across all segments.
    pub fn live_bytes(&self) -> usize {
        self.log
            .segment_ids()
            .iter()
            .map(|&id| self.log.live_bytes(id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tiny_store() -> Store {
        Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 64,
            ordered_index: false,
        })
    }

    const T: TableId = TableId(1);

    #[test]
    fn write_read_roundtrip() {
        let mut s = tiny_store();
        let out = s.write(T, b"k1", b"v1").unwrap();
        assert_eq!(out.version, Version::FIRST);
        let got = s.read(T, b"k1").unwrap();
        assert_eq!(&got.value[..], b"v1");
        assert_eq!(got.version, Version::FIRST);
    }

    #[test]
    fn missing_key_is_none() {
        let s = tiny_store();
        assert!(s.read(T, b"nope").is_none());
        assert_eq!(s.stats().read_misses, 1);
    }

    #[test]
    fn overwrite_bumps_version_and_returns_new_value() {
        let mut s = tiny_store();
        s.write(T, b"k", b"a").unwrap();
        let out = s.write(T, b"k", b"b").unwrap();
        assert_eq!(out.version, Version(2));
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"b");
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.stats().overwrites, 1);
    }

    #[test]
    fn tables_namespace_keys() {
        let mut s = tiny_store();
        s.write(TableId(1), b"k", b"one").unwrap();
        s.write(TableId(2), b"k", b"two").unwrap();
        assert_eq!(&s.read(TableId(1), b"k").unwrap().value[..], b"one");
        assert_eq!(&s.read(TableId(2), b"k").unwrap().value[..], b"two");
    }

    #[test]
    fn delete_removes_and_reports_version() {
        let mut s = tiny_store();
        s.write(T, b"k", b"v").unwrap();
        s.write(T, b"k", b"v2").unwrap();
        let deleted = s.delete(T, b"k").unwrap().expect("present");
        assert_eq!(deleted.version, Version(2));
        // The outcome names the tombstone the log holds.
        let (entry, _) = LogEntry::parse(s.appended_bytes(&deleted).unwrap()).unwrap();
        let LogEntry::Tombstone(t) = entry else {
            panic!("{entry:?}")
        };
        assert_eq!((t.version, t.dead_segment), (Version(2), SegmentId(0)));
        assert!(s.read(T, b"k").is_none());
        assert_eq!(s.object_count(), 0);
    }

    #[test]
    fn delete_missing_is_none() {
        let mut s = tiny_store();
        assert_eq!(s.delete(T, b"ghost").unwrap(), None);
    }

    #[test]
    fn write_after_delete_continues_the_version_chain() {
        // RAMCloud continues versions monotonically per key across deletes:
        // a re-created key must outversion its own tombstone, or recovery
        // replaying segments out of order could kill the second life with a
        // tombstone from the first.
        let mut s = tiny_store();
        s.write(T, b"k", b"v").unwrap();
        s.write(T, b"k", b"vv").unwrap();
        s.delete(T, b"k").unwrap();
        let out = s.write(T, b"k", b"v2").unwrap();
        assert_eq!(out.version, Version(3));
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"v2");
        // The floor entry is dropped once outversioned.
        assert!(s.dead_versions.is_empty());
        // Deleting again raises the floor to the new version.
        s.delete(T, b"k").unwrap();
        let again = s.write(T, b"k", b"v3").unwrap();
        assert_eq!(again.version, Version(4));
    }

    #[test]
    fn replay_is_order_independent_across_delete_recreate() {
        // Life 1: put k@v1, tombstone@v1. Life 2: put k@v2 (the re-created
        // key, now version-chained above the tombstone). Recovery may replay
        // the segments in any order; the key must survive in every order.
        let obj_v1 = ObjectRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"life1"),
            version: Version(1),
            completion: None,
        };
        let tomb_v1 = TombstoneRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            version: Version(1),
            dead_segment: SegmentId(0),
        };
        let obj_v2 = ObjectRecord {
            value: Bytes::from_static(b"life2"),
            version: Version(2),
            ..obj_v1.clone()
        };

        // Order A: second life first, then the first life's records.
        let mut s = tiny_store();
        assert!(s.replay_object(&obj_v2).unwrap());
        assert!(!s.replay_object(&obj_v1).unwrap());
        assert!(!s.replay_tombstone(&tomb_v1).unwrap());
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"life2");

        // Order B: tombstone before either object.
        let mut s = tiny_store();
        assert!(!s.replay_tombstone(&tomb_v1).unwrap());
        assert!(!s.replay_object(&obj_v1).unwrap(), "v1 is floored");
        assert!(s.replay_object(&obj_v2).unwrap());
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"life2");

        // Order C: in-order replay still converges identically.
        let mut s = tiny_store();
        assert!(s.replay_object(&obj_v1).unwrap());
        assert!(s.replay_tombstone(&tomb_v1).unwrap());
        assert!(s.replay_object(&obj_v2).unwrap());
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"life2");
        assert_eq!(s.read(T, b"k").unwrap().version, Version(2));
    }

    #[test]
    fn oversized_inputs_rejected() {
        let mut s = tiny_store();
        let big_key = vec![0u8; MAX_KEY_BYTES + 1];
        assert_eq!(s.write(T, &big_key, b"v"), Err(StoreError::KeyTooLarge));
        let big_val = vec![0u8; MAX_VALUE_BYTES + 1];
        assert_eq!(s.write(T, b"k", &big_val), Err(StoreError::ValueTooLarge));
    }

    #[test]
    fn out_of_memory_without_cleaner() {
        // The smallest log a store accepts, filled with distinct live keys:
        // no record is dead, so the cleaner can free nothing.
        let mut s = Store::new(LogConfig {
            segment_bytes: 256,
            max_segments: TARGET_FREE_SLOTS + 1,
            ordered_index: false,
        });
        let val = vec![1u8; 100];
        let mut result = Ok(());
        for i in 0..100 {
            if let Err(e) = s.write(T, format!("key{i}").as_bytes(), &val) {
                result = Err(e);
                break;
            }
        }
        assert_eq!(result, Err(StoreError::OutOfMemory));
        assert_eq!(s.stats().cleanings, 0, "no pass can free anything");
    }

    #[test]
    fn live_objects_enumerates_current_state() {
        let mut s = tiny_store();
        for i in 0..10 {
            s.write(T, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        s.delete(T, b"k3").unwrap();
        s.write(T, b"k5", b"v2").unwrap();
        let mut keys: Vec<String> = s
            .live_objects()
            .map(|o| String::from_utf8(o.key.to_vec()).unwrap())
            .collect();
        keys.sort();
        assert_eq!(keys.len(), 9);
        assert!(!keys.contains(&"k3".to_owned()));
    }

    #[test]
    fn overwrite_keeps_exactly_one_live_copy() {
        let mut s = tiny_store();
        let out1 = s.write(T, b"k", b"aaaa").unwrap();
        let one_copy = s.live_bytes();
        for _ in 0..20 {
            s.write(T, b"k", b"bbbb").unwrap();
        }
        // Same-size values: total live bytes must not grow with overwrites,
        // no matter which segments old and new copies land in.
        assert_eq!(s.live_bytes(), one_copy);
        // And the original segment's live count never underflows.
        let _ = s.log().live_bytes(out1.position.segment);
    }

    #[test]
    fn replay_object_respects_versions() {
        let mut s = tiny_store();
        let rec_v2 = ObjectRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"new"),
            version: Version(2),
            completion: None,
        };
        assert!(s.replay_object(&rec_v2).unwrap());
        // Older replay must not clobber.
        let rec_v1 = ObjectRecord {
            version: Version(1),
            value: Bytes::from_static(b"old"),
            ..rec_v2.clone()
        };
        assert!(!s.replay_object(&rec_v1).unwrap());
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"new");
        assert_eq!(s.read(T, b"k").unwrap().version, Version(2));
    }

    #[test]
    fn replay_into_a_full_log_replaces_the_record_the_cleaner_moved() {
        // A recovery master under memory pressure: an 8 × 512 B log holds
        // 12 cold keys, each replayed at ever newer versions between
        // overwrites of one hot key. Every closed segment is a mix of dead
        // hot versions and live cold records, so when a replay finds the
        // log full, the pass that makes room relocates the very record the
        // replay supersedes. The replay must swing that record's index
        // entry, not add a second one for the key beside it.
        let mut s = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 8,
            ordered_index: false,
        });
        let key = |i: u64| Bytes::from(format!("cold{i:02}"));
        for i in 0..12 {
            s.write(T, &key(i), &[0u8; 60]).unwrap();
        }
        let mut replays_that_cleaned = 0;
        for fill in 0..60u64 {
            s.write(T, b"hot", &[1u8; 60]).unwrap();
            s.write(T, b"hot", &[2u8; 60]).unwrap();
            let cleanings = s.stats().cleanings;
            let rec = ObjectRecord {
                table: T,
                key: key(fill % 12),
                value: Bytes::from(vec![fill as u8; 60]),
                version: Version(fill / 12 + 2),
                completion: None,
            };
            assert!(s.replay_object(&rec).unwrap(), "fill {fill}");
            assert_eq!(s.read(T, &rec.key), Some(rec), "fill {fill}");
            assert_eq!(s.object_count(), 13, "fill {fill}");
            replays_that_cleaned += usize::from(s.stats().cleanings > cleanings);
        }
        assert!(replays_that_cleaned > 0, "no replay found the log full");
    }

    #[test]
    fn replay_tombstone_kills_only_older_or_equal() {
        let mut s = tiny_store();
        let rec = ObjectRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            version: Version(5),
            completion: None,
        };
        s.replay_object(&rec).unwrap();
        let t_old = TombstoneRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            version: Version(4),
            dead_segment: SegmentId(0),
        };
        assert!(!s.replay_tombstone(&t_old).unwrap());
        assert!(s.read(T, b"k").is_some());
        let t_new = TombstoneRecord {
            version: Version(5),
            ..t_old
        };
        assert!(s.replay_tombstone(&t_new).unwrap());
        assert!(s.read(T, b"k").is_none());
    }

    #[test]
    fn write_with_records_and_suppresses_duplicates() {
        let mut s = tiny_store();
        let c = CompletionId { client: 4, seq: 9 };
        let first = s.write_with(T, b"k", b"v1", Some(c)).unwrap();
        assert_eq!(first.version, Version(1));
        assert_eq!(s.last_completion(4), Some((9, Version(1))));
        // Retrying the same (client, seq) must not re-apply.
        let dup = s.write_with(T, b"k", b"v-retry", Some(c)).unwrap();
        assert_eq!(dup.version, Version(1));
        assert_eq!((dup.position, dup.len), (first.position, first.len));
        assert_eq!(&s.read(T, b"k").unwrap().value[..], b"v1");
        assert_eq!(s.read(T, b"k").unwrap().version, Version(1));
        // A later seq applies normally.
        let next = s
            .write_with(T, b"k", b"v2", Some(CompletionId { client: 4, seq: 10 }))
            .unwrap();
        assert_eq!(next.version, Version(2));
        assert_eq!(s.last_completion(4), Some((10, Version(2))));
    }

    #[test]
    fn replay_rebuilds_completion_records() {
        let mut a = tiny_store();
        let c = CompletionId { client: 7, seq: 3 };
        a.write_with(T, b"k", b"v", Some(c)).unwrap();
        // Ship the object (with its completion) to a fresh store, as
        // recovery replay does.
        let rec = a.peek(T, b"k").unwrap();
        assert_eq!(rec.completion, Some(c));
        let mut b = tiny_store();
        assert!(b.replay_object(&rec).unwrap());
        assert_eq!(b.last_completion(7), Some((3, Version(1))));
        // The retry against the recovered store is suppressed too.
        let dup = b.write_with(T, b"k", b"retry", Some(c)).unwrap();
        assert_eq!(dup.version, Version(1));
        assert_eq!(&b.read(T, b"k").unwrap().value[..], b"v");
    }

    #[test]
    fn replay_keeps_a_completion_whose_object_arrives_after_a_newer_version() {
        let obj = |value: &[u8], version, client| ObjectRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            value: Bytes::copy_from_slice(value),
            version: Version(version),
            completion: Some(CompletionId { client, seq: 5 }),
        };
        let (c_v1, d_v2) = (obj(b"from c", 1, 1), obj(b"from d", 2, 2));
        let mut s = tiny_store();
        assert!(s.replay_object(&d_v2).unwrap());
        assert!(!s.replay_object(&c_v1).unwrap(), "v1 is older than v2");
        assert_eq!(s.last_completion(1), Some((5, Version(1))));
        // C's retry is answered with its own version, not applied again.
        let appended = s.log().total_appended_bytes();
        let c = CompletionId { client: 1, seq: 5 };
        let dup = s.write_with(T, b"k", b"from c", Some(c)).unwrap();
        assert_eq!(s.log().total_appended_bytes(), appended);
        assert_eq!(dup.version, Version(1));
        // The outcome names C's record, which the log keeps (dead) for it.
        let (entry, _) = LogEntry::parse(s.appended_bytes(&dup).unwrap()).unwrap();
        assert_eq!(entry, LogEntry::Object(c_v1));
        let live = s.read(T, b"k").unwrap();
        assert_eq!(
            (&live.value[..], live.version),
            (&b"from d"[..], Version(2))
        );
    }

    #[test]
    fn replay_keeps_the_tombstone_that_killed_a_record_kept_for_its_completion() {
        let c = CompletionId { client: 1, seq: 5 };
        let rec = ObjectRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"from c"),
            version: Version(1),
            completion: Some(c),
        };
        let tombstone = TombstoneRecord {
            table: T,
            key: Bytes::from_static(b"k"),
            version: Version(1),
            dead_segment: SegmentId(0),
        };
        let mut s = tiny_store();
        assert!(
            !s.replay_tombstone(&tombstone).unwrap(),
            "nothing to delete yet"
        );
        assert!(!s.replay_object(&rec).unwrap(), "the tombstone killed v1");
        assert_eq!(s.last_completion(1), Some((5, Version(1))));
        assert!(s.read(T, b"k").is_none());
        // The log holds the record for its completion, and the tombstone
        // with it: a store replayed from the log's images keeps k deleted.
        let mut fresh = tiny_store();
        for id in s.log().segment_ids() {
            for (_, entry) in s.log().segment(id).unwrap().iter() {
                match entry {
                    LogEntry::Object(o) => fresh.replay_object(&o).map(drop),
                    LogEntry::Tombstone(t) => fresh.replay_tombstone(&t).map(drop),
                }
                .unwrap();
            }
        }
        assert!(fresh.read(T, b"k").is_none(), "k stays deleted");
        assert_eq!(fresh.last_completion(1), Some((5, Version(1))));
    }

    #[test]
    fn sealing_the_head_rolls_only_a_head_that_holds_something() {
        let mut s = tiny_store();
        s.seal_head().unwrap();
        assert_eq!(s.log().head(), SegmentId(0), "an empty head stays");
        s.write(T, b"k", b"v").unwrap();
        s.seal_head().unwrap();
        assert_ne!(s.log().head(), SegmentId(0));
        assert!(s.log().segment(SegmentId(0)).unwrap().is_closed());
        // Writes go on in the new head.
        let out = s.write(T, b"k", b"v2").unwrap();
        assert_eq!(out.position.segment, s.log().head());
    }

    #[test]
    fn stats_add_assign_merges_every_counter() {
        // One of each countable event…
        let mut a = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 64,
            ordered_index: false,
        });
        a.write(T, b"k", b"v").unwrap();
        a.write(T, b"k", b"v2").unwrap(); // overwrite
        a.read(T, b"k"); // hit
        a.read(T, b"nope"); // miss
        a.delete(T, b"k").unwrap();
        let s = a.stats();
        assert_eq!(
            (
                s.writes,
                s.overwrites,
                s.deletes,
                s.read_hits,
                s.read_misses
            ),
            (2, 1, 1, 1, 1)
        );
        // …merged twice must double every field.
        let mut total = StoreStats::default();
        total += s;
        total += s;
        assert_eq!(
            total,
            StoreStats {
                writes: 4,
                overwrites: 2,
                deletes: 2,
                read_hits: 2,
                read_misses: 2,
                read_lockfree: 2 * s.read_lockfree,
                read_fallback_locked: 2 * s.read_fallback_locked,
                value_views_live: 2 * s.value_views_live,
                limbo_held_by_views: 2 * s.limbo_held_by_views,
                cleanings: 2 * s.cleanings,
                bytes_relocated: 2 * s.bytes_relocated,
                segments_freed: 2 * s.segments_freed,
                tombstones_dropped: 2 * s.tombstones_dropped,
                segments_compacted: 2 * s.segments_compacted,
                survivor_bytes: 2 * s.survivor_bytes,
                index_probes: 2 * s.index_probes,
                index_probe_steps: 2 * s.index_probe_steps,
                index_resizes: 2 * s.index_resizes,
            }
        );
        // The named-method alias agrees with `+=`.
        let mut via_merge = StoreStats::default();
        via_merge.merge(&s);
        via_merge.merge(&s);
        assert_eq!(via_merge, total);
    }

    #[test]
    fn concurrent_shared_reads_count_exactly() {
        // `read(&self)` must be callable from many threads at once and lose
        // no counter increments.
        let mut s = tiny_store();
        s.write(T, b"k", b"v").unwrap();
        let s = std::sync::Arc::new(s);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        if (i + t) % 2 == 0 {
                            assert!(s.read(T, b"k").is_some());
                        } else {
                            assert!(s.read(T, b"miss").is_none());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().read_hits, 2000);
        assert_eq!(s.stats().read_misses, 2000);
    }

    #[test]
    fn read_and_peek_agree_but_only_read_counts() {
        let mut s = tiny_store();
        s.write(T, b"k", b"v").unwrap();
        assert_eq!(s.peek(T, b"k"), s.read(T, b"k"));
        assert_eq!(s.peek(T, b"gone"), s.read(T, b"gone"));
        let st = s.stats();
        assert_eq!((st.read_hits, st.read_misses), (1, 1));
    }

    #[test]
    fn scan_requires_ordered_index() {
        let s = tiny_store();
        assert_eq!(s.scan(T, b"", 10).unwrap_err(), StoreError::ScansDisabled);
    }

    #[test]
    fn scan_returns_key_ordered_live_objects() {
        let mut s = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 64,
            ordered_index: true,
        });
        for i in [5u32, 1, 9, 3, 7] {
            s.write(T, format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        s.delete(T, b"k3").unwrap();
        let got = s.scan(T, b"k2", 10).unwrap();
        let keys: Vec<String> = got
            .iter()
            .map(|o| String::from_utf8(o.key.to_vec()).unwrap())
            .collect();
        assert_eq!(keys, vec!["k5", "k7", "k9"]);
        // Limit respected; start inclusive.
        let got = s.scan(T, b"k1", 2).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0].key[..], b"k1");
    }

    #[test]
    fn scan_is_table_scoped() {
        let mut s = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 64,
            ordered_index: true,
        });
        s.write(TableId(1), b"a", b"1").unwrap();
        s.write(TableId(2), b"b", b"2").unwrap();
        let got = s.scan(TableId(1), b"", 10).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].key[..], b"a");
    }

    #[test]
    fn scan_survives_cleaning() {
        let mut s = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 16,
            ordered_index: true,
        });
        for i in 0..20 {
            s.write(T, format!("stable{i:02}").as_bytes(), b"keep")
                .unwrap();
        }
        for round in 0..300 {
            s.write(T, b"zzchurn", format!("{round}").as_bytes())
                .unwrap();
        }
        assert!(s.stats().cleanings > 0);
        let got = s.scan(T, b"stable", 100).unwrap();
        assert_eq!(got.len(), 21, "20 stable + churn key"); // zzchurn sorts after
        let scan_stable = s.scan(T, b"stable", 20).unwrap();
        assert!(scan_stable.iter().all(|o| &o.value[..] == b"keep"));
    }

    #[test]
    fn many_keys_survive_head_rolls() {
        let mut s = Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 256,
            ordered_index: false,
        });
        for i in 0..500 {
            s.write(
                T,
                format!("key-{i:04}").as_bytes(),
                format!("val-{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in 0..500 {
            let got = s.read(T, format!("key-{i:04}").as_bytes()).unwrap();
            assert_eq!(&got.value[..], format!("val-{i}").as_bytes());
        }
        assert!(s.log().allocated_segments() > 10, "log must have rolled");
    }
}
