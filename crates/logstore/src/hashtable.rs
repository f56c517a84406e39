//! The in-memory index: key hash → log position.
//!
//! RAMCloud indexes its log with a custom hash table rather than keeping
//! objects in a conventional heap; this is what makes the log the *only*
//! copy of the data. The table maps the 64-bit hash of `(table, key)` to the
//! [`LogPosition`] of the current object. It is deliberately a *multi*-map:
//! two distinct keys can collide on the full 64-bit hash, in which case both
//! mappings coexist and the store disambiguates by reading the log and
//! comparing keys.
//!
//! Implementation: open addressing with linear probing and tombstone slots,
//! stored in **atomic** slot words behind a seqlock so lock-free readers can
//! probe while the single writer mutates. Mutation stays a `&mut self` API
//! (the store's exclusive path); concurrent readers go through the shared
//! [`IndexShared`] handle, which validates a sequence counter around each
//! probe and retries (or reports contention) instead of ever observing a
//! torn slot. Array growth publishes a freshly built slot array through an
//! `AtomicPtr`; replaced arrays are parked until the index drops, so a
//! reader that raced the swap still probes valid (if stale) memory and its
//! seqlock validation sends it around again.
//!
//! Resizing triggers at 70 % load (occupied + deleted) and always rehashes
//! only occupied slots, purging `Deleted` tombstones; when tombstones are
//! the majority of the load the table rehashes at the same size instead of
//! doubling, so delete-heavy churn cannot balloon the table. The table keeps
//! probe-length and resize counters (surfaced through `StoreStats`) so index
//! degradation is observable.

use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::types::{KeyHash, LogPosition, SegmentId};

/// Counters describing index probe work and resizes; see
/// [`HashTable::probe_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Mutating probe operations performed (insert/update/remove).
    pub probes: u64,
    /// Extra slots walked past the home slot across those operations; the
    /// ratio `probe_steps / probes` is the mean probe length.
    pub probe_steps: u64,
    /// Rehashes performed (both doubling and same-size tombstone purges).
    pub resizes: u64,
}

const TAG_EMPTY: u64 = 0;
const TAG_DELETED: u64 = 1;
const TAG_OCCUPIED: u64 = 2;

/// One slot, split across three atomic words so readers never fault: the
/// seqlock catches torn combinations.
///
/// `meta` packs `tag | offset << 32`; `hash` and `segment` are full words.
#[derive(Debug)]
struct AtomicSlot {
    meta: AtomicU64,
    hash: AtomicU64,
    segment: AtomicU64,
}

impl AtomicSlot {
    fn tag(&self) -> u64 {
        self.meta.load(Ordering::Relaxed) & 0x3
    }

    /// Writer-side decode (no concurrent mutator exists for `&self` on the
    /// writer path, so relaxed loads see the writer's own stores).
    fn load(&self) -> (u64, KeyHash, LogPosition) {
        let meta = self.meta.load(Ordering::Relaxed);
        (
            meta & 0x3,
            KeyHash(self.hash.load(Ordering::Relaxed)),
            LogPosition {
                segment: SegmentId(self.segment.load(Ordering::Relaxed)),
                offset: (meta >> 32) as u32,
            },
        )
    }

    fn store_occupied(&self, hash: KeyHash, pos: LogPosition) {
        self.hash.store(hash.0, Ordering::Release);
        self.segment.store(pos.segment.0, Ordering::Release);
        self.meta.store(
            TAG_OCCUPIED | ((pos.offset as u64) << 32),
            Ordering::Release,
        );
    }

    fn store_deleted(&self) {
        self.meta.store(TAG_DELETED, Ordering::Release);
    }
}

/// A fixed-size power-of-two array of atomic slots.
#[derive(Debug)]
struct SlotArray {
    slots: Box<[AtomicSlot]>,
}

impl SlotArray {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        SlotArray {
            slots: (0..capacity)
                .map(|_| AtomicSlot {
                    meta: AtomicU64::new(TAG_EMPTY),
                    hash: AtomicU64::new(0),
                    segment: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }
}

/// Most hash-colliding candidates a lock-free probe will return before
/// reporting contention (full 64-bit collisions are already rare; more than
/// this many is indistinguishable from a torn probe).
pub(crate) const MAX_READ_CANDIDATES: usize = 8;

/// Candidate positions captured by one validated lock-free probe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateBuf {
    pub len: usize,
    pub items: [LogPosition; MAX_READ_CANDIDATES],
}

impl CandidateBuf {
    pub(crate) fn new() -> Self {
        CandidateBuf {
            len: 0,
            items: [LogPosition {
                segment: SegmentId(0),
                offset: 0,
            }; MAX_READ_CANDIDATES],
        }
    }

    pub(crate) fn as_slice(&self) -> &[LogPosition] {
        &self.items[..self.len]
    }
}

/// The reader-shared core of the index: the published slot array and the
/// seqlock that guards it. [`HashTable`] (the writer facade) and every
/// [`ReadHandle`](crate::ReadHandle) hold an `Arc` to the same instance.
pub(crate) struct IndexShared {
    current: AtomicPtr<SlotArray>,
    /// Seqlock: odd while the writer is inside a mutation window.
    seq: AtomicU64,
    /// Superseded arrays, parked until the index drops so racing readers
    /// always probe valid memory. Total parked memory is geometrically
    /// bounded by the current array's size. The `Box` is load-bearing:
    /// readers hold raw pointers obtained from `current`, so a parked
    /// array's address must survive the `Vec` growing.
    #[allow(clippy::vec_box)]
    retired: Mutex<Vec<Box<SlotArray>>>,
}

impl std::fmt::Debug for IndexShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexShared")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl IndexShared {
    fn new(capacity: usize) -> Self {
        IndexShared {
            current: AtomicPtr::new(Box::into_raw(Box::new(SlotArray::new(capacity)))),
            seq: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Writer-side view of the current array.
    fn array(&self) -> &SlotArray {
        // SAFETY: the pointer is always a live Box published by the writer;
        // replaced arrays are parked, never freed, while `self` lives.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn write_begin(&self) {
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    fn write_end(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// One seqlock-validated probe for `hash`. Returns `true` with the
    /// candidates (possibly zero = a definitive miss) if the snapshot
    /// validated; `false` if the writer interfered or the candidate buffer
    /// overflowed — the caller retries or falls back to the locked path.
    pub(crate) fn try_candidates(&self, hash: KeyHash, out: &mut CandidateBuf) -> bool {
        out.len = 0;
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return false;
        }
        // SAFETY: as in `array` — replaced arrays stay allocated.
        let arr = unsafe { &*self.current.load(Ordering::Acquire) };
        let mask = arr.mask();
        let mut i = hash.0 as usize & mask;
        let mut steps = 0usize;
        loop {
            if steps > arr.slots.len() {
                break; // pathological full-table walk; nothing stored
            }
            let slot = &arr.slots[i];
            let meta = slot.meta.load(Ordering::Acquire);
            match meta & 0x3 {
                TAG_EMPTY => break,
                TAG_OCCUPIED if slot.hash.load(Ordering::Acquire) == hash.0 => {
                    if out.len == MAX_READ_CANDIDATES {
                        return false;
                    }
                    out.items[out.len] = LogPosition {
                        segment: SegmentId(slot.segment.load(Ordering::Acquire)),
                        offset: (meta >> 32) as u32,
                    };
                    out.len += 1;
                }
                _ => {}
            }
            i = (i + 1) & mask;
            steps += 1;
        }
        // The probe's loads must complete before the validation load.
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == s1
    }
}

impl Drop for IndexShared {
    fn drop(&mut self) {
        // SAFETY: sole owner now; the pointer came from Box::into_raw.
        drop(unsafe { Box::from_raw(self.current.load(Ordering::Acquire)) });
        // Parked arrays drop with the Mutex.
    }
}

/// Open-addressing multi-map from [`KeyHash`] to [`LogPosition`].
///
/// Mutation requires `&mut self` (the store's exclusive write/clean path);
/// lock-free readers probe concurrently through the shared core handed out
/// by [`Store::read_handle`](crate::Store::read_handle).
///
/// # Examples
///
/// ```
/// use rmc_logstore::{HashTable, KeyHash, LogPosition, SegmentId};
///
/// let mut ht = HashTable::new();
/// let pos = LogPosition { segment: SegmentId(0), offset: 0 };
/// ht.insert(KeyHash(42), pos);
/// assert_eq!(ht.candidates(KeyHash(42)).collect::<Vec<_>>(), vec![pos]);
/// ```
#[derive(Debug)]
pub struct HashTable {
    shared: Arc<IndexShared>,
    /// Occupied slots.
    len: usize,
    /// Occupied + deleted slots (drives resizing).
    used: usize,
    stats: ProbeStats,
}

const INITIAL_CAPACITY: usize = 64;
const MAX_LOAD_PERCENT: usize = 70;

impl Default for HashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HashTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        HashTable {
            shared: Arc::new(IndexShared::new(INITIAL_CAPACITY)),
            len: 0,
            used: 0,
            stats: ProbeStats::default(),
        }
    }

    /// Creates a table pre-sized for roughly `n` mappings.
    pub fn with_capacity(n: usize) -> Self {
        let target = (n * 100 / MAX_LOAD_PERCENT + 1)
            .next_power_of_two()
            .max(INITIAL_CAPACITY);
        HashTable {
            shared: Arc::new(IndexShared::new(target)),
            len: 0,
            used: 0,
            stats: ProbeStats::default(),
        }
    }

    /// The reader-shared core, for building lock-free read handles.
    pub(crate) fn shared(&self) -> Arc<IndexShared> {
        Arc::clone(&self.shared)
    }

    /// Probe-work and resize counters accumulated so far.
    pub fn probe_stats(&self) -> ProbeStats {
        self.stats
    }

    /// Number of stored mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no mappings are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-array capacity.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.shared.array().slots.len()
    }

    fn maybe_grow(&mut self) {
        let capacity = self.shared.array().slots.len();
        if self.used * 100 >= capacity * MAX_LOAD_PERCENT {
            // Rehashing only occupied slots purges every tombstone. When
            // live entries alone are under half the load threshold the load
            // is tombstone-dominated: rehash at the same size instead of
            // doubling, so delete churn reclaims probe length without
            // ballooning memory.
            let new_cap = if self.len * 100 * 2 < capacity * MAX_LOAD_PERCENT {
                capacity
            } else {
                capacity * 2
            };
            let fresh = Box::new(SlotArray::new(new_cap));
            self.len = 0;
            self.used = 0;
            self.stats.resizes += 1;
            {
                let old = self.shared.array();
                for slot in old.slots.iter() {
                    if slot.tag() == TAG_OCCUPIED {
                        let (_, h, p) = slot.load();
                        // Uncounted: rehash walks are bookkeeping, not
                        // client probe work. The fresh array is private
                        // until published, so plain placement is fine.
                        let steps = Self::place_in(&fresh, h, p);
                        let _ = steps;
                        self.len += 1;
                        self.used += 1;
                    }
                }
            }
            // Publish inside a seqlock window: a reader that loaded the old
            // array mid-probe fails validation and retries on the new one.
            let fresh_ptr = Box::into_raw(fresh);
            self.shared.write_begin();
            let old_ptr = self.shared.current.swap(fresh_ptr, Ordering::AcqRel);
            self.shared.write_end();
            // SAFETY: `old_ptr` came from Box::into_raw and is no longer
            // published; parking it keeps it valid for racing readers.
            self.shared
                .retired
                .lock()
                .expect("index retire lock")
                .push(unsafe { Box::from_raw(old_ptr) });
        }
    }

    /// Finds a free slot for `hash` in `arr` and fills it; returns the probe
    /// steps taken past the home slot. Does not touch `len`/`used`.
    fn place_in(arr: &SlotArray, hash: KeyHash, pos: LogPosition) -> u64 {
        let mask = arr.mask();
        let mut i = hash.0 as usize & mask;
        let mut steps = 0u64;
        loop {
            let slot = &arr.slots[i];
            match slot.tag() {
                TAG_OCCUPIED => {
                    i = (i + 1) & mask;
                    steps += 1;
                }
                _ => {
                    slot.store_occupied(hash, pos);
                    return steps;
                }
            }
        }
    }

    /// Adds a mapping. The caller is responsible for not inserting two
    /// mappings for the *same* key (use [`HashTable::update`] on overwrite);
    /// duplicate hashes from distinct colliding keys are fine.
    pub fn insert(&mut self, hash: KeyHash, pos: LogPosition) {
        self.maybe_grow();
        let arr = self.shared.array();
        // Find the target slot first so the seqlock window covers only the
        // store itself.
        let mask = arr.mask();
        let mut i = hash.0 as usize & mask;
        let mut steps = 0u64;
        let reused = loop {
            match arr.slots[i].tag() {
                TAG_OCCUPIED => {
                    i = (i + 1) & mask;
                    steps += 1;
                }
                tag => break tag == TAG_DELETED,
            }
        };
        self.shared.write_begin();
        arr.slots[i].store_occupied(hash, pos);
        self.shared.write_end();
        self.len += 1;
        if !reused {
            self.used += 1;
        }
        self.stats.probes += 1;
        self.stats.probe_steps += steps;
    }

    /// All positions stored under `hash`, in probe order. Usually zero or
    /// one; more only under 64-bit hash collisions.
    pub fn candidates(&self, hash: KeyHash) -> Candidates<'_> {
        let arr = self.shared.array();
        Candidates {
            arr,
            hash,
            i: hash.0 as usize & arr.mask(),
            steps: 0,
        }
    }

    /// Replaces the mapping `hash → old` with `hash → new`. Returns `false`
    /// if no such mapping existed.
    pub fn update(&mut self, hash: KeyHash, old: LogPosition, new: LogPosition) -> bool {
        let arr = self.shared.array();
        let mask = arr.mask();
        let mut i = hash.0 as usize & mask;
        let mut steps = 0;
        self.stats.probes += 1;
        loop {
            let slot = &arr.slots[i];
            match slot.load() {
                (TAG_EMPTY, ..) => return false,
                (TAG_OCCUPIED, h, p) if h == hash && p == old => {
                    self.shared.write_begin();
                    slot.store_occupied(hash, new);
                    self.shared.write_end();
                    return true;
                }
                _ => {
                    i = (i + 1) & mask;
                    steps += 1;
                    self.stats.probe_steps += 1;
                    if steps > arr.slots.len() {
                        return false;
                    }
                }
            }
        }
    }

    /// Removes the mapping `hash → pos`. Returns `false` if absent.
    pub fn remove(&mut self, hash: KeyHash, pos: LogPosition) -> bool {
        let arr = self.shared.array();
        let mask = arr.mask();
        let mut i = hash.0 as usize & mask;
        let mut steps = 0;
        self.stats.probes += 1;
        loop {
            let slot = &arr.slots[i];
            match slot.load() {
                (TAG_EMPTY, ..) => return false,
                (TAG_OCCUPIED, h, p) if h == hash && p == pos => {
                    self.shared.write_begin();
                    slot.store_deleted();
                    self.shared.write_end();
                    self.len -= 1;
                    return true;
                }
                _ => {
                    i = (i + 1) & mask;
                    steps += 1;
                    self.stats.probe_steps += 1;
                    if steps > arr.slots.len() {
                        return false;
                    }
                }
            }
        }
    }

    /// Iterates over every stored `(hash, position)` mapping.
    pub fn iter(&self) -> impl Iterator<Item = (KeyHash, LogPosition)> + '_ {
        self.shared
            .array()
            .slots
            .iter()
            .filter_map(|s| match s.load() {
                (TAG_OCCUPIED, h, p) => Some((h, p)),
                _ => None,
            })
    }
}

/// Iterator over candidate positions for one hash; see
/// [`HashTable::candidates`].
#[derive(Debug)]
pub struct Candidates<'a> {
    arr: &'a SlotArray,
    hash: KeyHash,
    i: usize,
    steps: usize,
}

impl Iterator for Candidates<'_> {
    type Item = LogPosition;

    fn next(&mut self) -> Option<LogPosition> {
        let mask = self.arr.mask();
        while self.steps <= self.arr.slots.len() {
            let slot = &self.arr.slots[self.i];
            self.i = (self.i + 1) & mask;
            self.steps += 1;
            match slot.load() {
                (TAG_EMPTY, ..) => return None,
                (TAG_OCCUPIED, h, p) if h == self.hash => return Some(p),
                _ => continue,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SegmentId;

    fn pos(seg: u64, off: u32) -> LogPosition {
        LogPosition {
            segment: SegmentId(seg),
            offset: off,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut ht = HashTable::new();
        ht.insert(KeyHash(1), pos(0, 0));
        ht.insert(KeyHash(2), pos(0, 50));
        assert_eq!(
            ht.candidates(KeyHash(1)).collect::<Vec<_>>(),
            vec![pos(0, 0)]
        );
        assert_eq!(
            ht.candidates(KeyHash(2)).collect::<Vec<_>>(),
            vec![pos(0, 50)]
        );
        assert_eq!(ht.candidates(KeyHash(3)).count(), 0);
        assert_eq!(ht.len(), 2);
    }

    #[test]
    fn colliding_hashes_coexist() {
        let mut ht = HashTable::new();
        ht.insert(KeyHash(9), pos(0, 0));
        ht.insert(KeyHash(9), pos(1, 0));
        let mut got: Vec<_> = ht.candidates(KeyHash(9)).collect();
        got.sort_by_key(|p| p.segment);
        assert_eq!(got, vec![pos(0, 0), pos(1, 0)]);
    }

    #[test]
    fn update_moves_position() {
        let mut ht = HashTable::new();
        ht.insert(KeyHash(5), pos(0, 0));
        assert!(ht.update(KeyHash(5), pos(0, 0), pos(3, 77)));
        assert_eq!(
            ht.candidates(KeyHash(5)).collect::<Vec<_>>(),
            vec![pos(3, 77)]
        );
        assert!(!ht.update(KeyHash(5), pos(0, 0), pos(4, 0)));
        assert_eq!(ht.len(), 1);
    }

    #[test]
    fn remove_deletes_exactly_one_mapping() {
        let mut ht = HashTable::new();
        ht.insert(KeyHash(9), pos(0, 0));
        ht.insert(KeyHash(9), pos(1, 0));
        assert!(ht.remove(KeyHash(9), pos(0, 0)));
        assert_eq!(
            ht.candidates(KeyHash(9)).collect::<Vec<_>>(),
            vec![pos(1, 0)]
        );
        assert!(!ht.remove(KeyHash(9), pos(0, 0)));
        assert_eq!(ht.len(), 1);
    }

    #[test]
    fn probing_continues_past_deleted_slots() {
        let mut ht = HashTable::new();
        // Force a probe chain with colliding low bits.
        let base = 0x40u64; // multiple of table size 64
        let hashes = [KeyHash(base), KeyHash(base * 2), KeyHash(base * 3)];
        for (i, &h) in hashes.iter().enumerate() {
            ht.insert(h, pos(i as u64, 0));
        }
        // Remove the middle of the chain; the last must stay findable.
        assert!(ht.remove(hashes[1], pos(1, 0)));
        assert_eq!(
            ht.candidates(hashes[2]).collect::<Vec<_>>(),
            vec![pos(2, 0)]
        );
    }

    #[test]
    fn grows_under_load() {
        let mut ht = HashTable::new();
        for i in 0..10_000u64 {
            ht.insert(KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15)), pos(i, 0));
        }
        assert_eq!(ht.len(), 10_000);
        for i in 0..10_000u64 {
            let h = KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(ht.candidates(h).collect::<Vec<_>>(), vec![pos(i, 0)]);
        }
    }

    #[test]
    fn deleted_slot_reuse_does_not_grow_used() {
        let mut ht = HashTable::new();
        for round in 0..1000u64 {
            ht.insert(KeyHash(round % 3), pos(round, 0));
            ht.remove(KeyHash(round % 3), pos(round, 0));
        }
        assert!(ht.is_empty());
        // Reusing deleted slots keeps the table from ballooning.
        assert!(ht.capacity() <= 4096, "table grew to {}", ht.capacity());
    }

    #[test]
    fn tombstone_dominated_load_rehashes_in_place() {
        let mut ht = HashTable::new();
        // Drive `used` to the load threshold with distinct hashes so every
        // remove leaves a tombstone in a *different* slot (no reuse), while
        // keeping only a handful of live entries.
        let mut i = 0u64;
        let start_cap = ht.capacity();
        // `maybe_grow` fires when used·100 ≥ capacity·MAX_LOAD_PERCENT and
        // runs *before* the insert places its entry, so fill until `used`
        // itself reaches the threshold; the next insert then rehashes.
        while ht.used * 100 < start_cap * MAX_LOAD_PERCENT {
            let h = KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15));
            ht.insert(h, pos(i, 0));
            if i >= 4 {
                ht.remove(h, pos(i, 0));
            }
            i += 1;
        }
        assert_eq!(ht.capacity(), start_cap, "not yet resized");
        // The next insert crosses the threshold. Live entries are a small
        // minority, so the rehash purges tombstones at the same size
        // instead of doubling.
        ht.insert(KeyHash(0xDEAD), pos(99, 0));
        assert_eq!(ht.capacity(), start_cap, "tombstone purge, not a double");
        assert_eq!(ht.used, ht.len, "every tombstone dropped by the rehash");
        assert_eq!(ht.probe_stats().resizes, 1);
        // All live entries survive the purge.
        for j in 0..4u64 {
            let h = KeyHash(j.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(ht.candidates(h).collect::<Vec<_>>(), vec![pos(j, 0)]);
        }
    }

    #[test]
    fn doubling_rehash_drops_tombstones_too() {
        let mut ht = HashTable::new();
        // Mostly-live load: the resize must double, and `used` must equal
        // `len` afterwards (tombstones purged).
        for i in 0..60u64 {
            ht.insert(KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15)), pos(i, 0));
        }
        ht.remove(KeyHash(0), pos(0, 0)); // may or may not exist; seed one tombstone
        let before = ht.capacity();
        for i in 60..200u64 {
            ht.insert(KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15)), pos(i, 0));
        }
        assert!(ht.capacity() > before);
        assert_eq!(ht.used, ht.len);
        assert!(ht.probe_stats().resizes >= 1);
    }

    #[test]
    fn probe_counters_accumulate() {
        let mut ht = HashTable::new();
        // Colliding low bits force probe steps.
        let base = 0x40u64;
        for i in 0..4 {
            ht.insert(KeyHash(base * (i + 1)), pos(i, 0));
        }
        let s = ht.probe_stats();
        assert_eq!(s.probes, 4);
        assert!(s.probe_steps >= 1 + 2 + 3, "chain of colliding hashes");
        ht.update(KeyHash(base * 4), pos(3, 0), pos(9, 9));
        ht.remove(KeyHash(base * 3), pos(2, 0));
        let s2 = ht.probe_stats();
        assert_eq!(s2.probes, 6);
        assert!(s2.probe_steps > s.probe_steps);
    }

    #[test]
    fn iter_visits_all() {
        let mut ht = HashTable::new();
        for i in 0..100u64 {
            ht.insert(KeyHash(i), pos(i, 0));
        }
        let mut seen: Vec<u64> = ht.iter().map(|(h, _)| h.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let ht = HashTable::with_capacity(1000);
        assert!(ht.capacity() >= 1000 * 100 / MAX_LOAD_PERCENT);
    }

    #[test]
    fn lock_free_probe_agrees_with_writer_view() {
        let mut ht = HashTable::new();
        for i in 0..500u64 {
            ht.insert(KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15)), pos(i, 0));
        }
        let shared = ht.shared();
        let mut buf = CandidateBuf::new();
        for i in 0..500u64 {
            let h = KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15));
            assert!(
                shared.try_candidates(h, &mut buf),
                "no writer: must validate"
            );
            assert_eq!(buf.as_slice(), &[pos(i, 0)][..]);
        }
        assert!(shared.try_candidates(KeyHash(0xABCD_EF01), &mut buf));
        assert_eq!(buf.len, 0, "definitive miss validates too");
    }

    #[test]
    fn lock_free_probe_survives_concurrent_resize_churn() {
        let mut ht = HashTable::with_capacity(64);
        // A stable prefix of keys that never changes...
        for i in 0..64u64 {
            ht.insert(KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15)), pos(i, 0));
        }
        let shared = ht.shared();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut validated = 0u64;
                    let mut buf = CandidateBuf::new();
                    while !stop.load(Ordering::Acquire) {
                        for i in 0..64u64 {
                            let h = KeyHash(i.wrapping_mul(0x9E3779B97F4A7C15));
                            if shared.try_candidates(h, &mut buf) {
                                // A validated probe must never miss a key
                                // that is permanently present, and the
                                // position must be exactly right.
                                assert_eq!(
                                    buf.as_slice(),
                                    &[pos(i, 0)][..],
                                    "validated probe returned wrong snapshot"
                                );
                                validated += 1;
                            }
                        }
                    }
                    validated
                })
            })
            .collect();
        // ...while the writer churns thousands of other keys through the
        // table, forcing inserts, removes, and several array resizes.
        for round in 0..40u64 {
            for i in 64..1064u64 {
                let h = KeyHash((round * 10_000 + i).wrapping_mul(0x9E3779B97F4A7C15));
                ht.insert(h, pos(i, 1));
                ht.remove(h, pos(i, 1));
            }
        }
        stop.store(true, Ordering::Release);
        let validated: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(validated > 0, "readers must have validated probes");
        assert!(ht.probe_stats().resizes > 0, "churn must have resized");
    }
}
