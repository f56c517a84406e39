//! The segmented append-only log.
//!
//! A [`Log`] owns a bounded pool of [`Segment`]s. Appends go to the *head*
//! segment; when an entry does not fit, the head is sealed (closed) and a
//! fresh segment becomes the head. Sealing matters to the wider system: a
//! sealed segment is the unit backups flush to disk. The log also tracks
//! per-segment live-byte counts on behalf of the store — the input to the
//! cleaner's cost-benefit policy.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::entry::{EntryView, LogEntry, Record};
use crate::segbuf::{SegmentArena, SegmentMap};
use crate::segment::{Segment, DEFAULT_SEGMENT_BYTES};
use crate::types::{LogPosition, SegmentId};

/// Seglets per segment: the granularity at which survivor segments are
/// charged against the memory budget. RAMCloud's in-memory compaction exists
/// precisely because memory can be reclaimed in units smaller than a whole
/// segment; 64 seglets per segment mirrors its 128 KB seglets under 8 MB
/// segments.
const SEGLETS_PER_SEGMENT: usize = 64;

/// Sizing of a master's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Bytes per segment (8 MB in RAMCloud and throughout the paper).
    pub segment_bytes: usize,
    /// Maximum number of simultaneously allocated segments;
    /// `segment_bytes × max_segments` is the master's memory budget
    /// (10 GB in the paper's configuration).
    pub max_segments: usize,
    /// Maintain an ordered secondary key index so [`crate::Store::scan`]
    /// works (YCSB workload E). Costs extra memory per key; the paper's
    /// workloads don't scan, so this defaults to off.
    pub ordered_index: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            max_segments: 1280, // 10 GB at 8 MB/segment
            ordered_index: false,
        }
    }
}

/// Error: the log has no room for the entry and no free segment slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFullError;

impl std::fmt::Display for LogFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log is out of memory (all segments allocated)")
    }
}

impl std::error::Error for LogFullError {}

/// Result of a successful append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Where the entry landed.
    pub position: LogPosition,
    /// Set when this append rolled the log over to a new head: the previous
    /// head is now sealed and (in the full system) eligible for backup
    /// flushing.
    pub sealed: Option<SegmentId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SegmentStats {
    live_bytes: usize,
    /// Sequence number at creation; proxy for age in the cost-benefit
    /// cleaner policy.
    created_seq: u64,
    /// Bytes this segment charges against the memory budget. Full
    /// `segment_bytes` for ordinary segments; seglet-rounded actual length
    /// for compacted survivors (the source of compaction's memory gain).
    charged_bytes: usize,
}

/// A retired segment awaiting epoch-safe reclamation. It still charges the
/// budget (its memory genuinely cannot be recycled yet) and still holds its
/// bytes, but it is no longer reachable through [`Log::read`].
#[derive(Debug)]
struct LimboSegment {
    /// Epoch at retirement; reclaimable once the safe epoch reaches it
    /// *and* no zero-copy value views still reference the buffer.
    epoch: u64,
    /// Held so the victim's bytes stay allocated while a racing reader may
    /// still be parsing them or a [`crate::ValueView`] still points into
    /// them; dropping this struct *is* the reclamation.
    segment: Segment,
    charged_bytes: usize,
}

/// A bounded pool of append-only segments with live-byte accounting.
#[derive(Debug)]
pub struct Log {
    config: LogConfig,
    segments: BTreeMap<SegmentId, Segment>,
    stats: BTreeMap<SegmentId, SegmentStats>,
    /// Retired-but-not-yet-reclaimed segments, oldest epoch first.
    limbo: Vec<LimboSegment>,
    /// Lock-free id → buffer map for the zero-copy read path. Segments are
    /// published here the moment they are allocated and unpublished at
    /// retirement; epoch-pinned readers resolve candidate positions through
    /// it without touching `segments`.
    segment_map: Arc<SegmentMap>,
    /// Where every segment's memory comes from and goes back to.
    arena: Arc<SegmentArena>,
    head: SegmentId,
    /// Atomic so the cleaner can reserve survivor ids through `&self`
    /// (during its lock-free build phase ids must already be minted).
    next_id: AtomicU64,
    append_seq: u64,
    total_appended_bytes: u64,
    /// Sum of `charged_bytes` over allocated and limbo segments.
    charged_total: usize,
    /// Where [`Log::append_record`] lays a record out, reused.
    layout: Vec<u8>,
}

impl Log {
    /// Creates a log with one open head segment.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_segments` is zero.
    pub fn new(config: LogConfig) -> Self {
        assert!(config.max_segments > 0, "log needs at least one segment");
        let head = SegmentId(0);
        let segment_map = Arc::new(SegmentMap::new());
        let arena = SegmentArena::new(config.segment_bytes, config.max_segments);
        let mut segments = BTreeMap::new();
        let head_seg = Segment::new(head, &arena);
        segment_map.publish(head, head_seg.shared_buf());
        segments.insert(head, head_seg);
        let mut stats = BTreeMap::new();
        stats.insert(
            head,
            SegmentStats {
                charged_bytes: config.segment_bytes,
                ..SegmentStats::default()
            },
        );
        let charged_total = config.segment_bytes;
        Log {
            config,
            segments,
            stats,
            limbo: Vec::new(),
            segment_map,
            arena,
            head,
            next_id: AtomicU64::new(1),
            append_seq: 0,
            total_appended_bytes: 0,
            charged_total,
            layout: Vec::new(),
        }
    }

    /// The log's configuration.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// The current head segment id.
    pub fn head(&self) -> SegmentId {
        self.head
    }

    /// Number of allocated segments.
    pub fn allocated_segments(&self) -> usize {
        self.segments.len()
    }

    /// The memory budget in bytes: `segment_bytes × max_segments`.
    pub fn budget_bytes(&self) -> usize {
        self.config.segment_bytes * self.config.max_segments
    }

    /// Bytes currently charged against the budget (allocated segments at
    /// their charge granularity, plus retired segments awaiting epoch-safe
    /// reclamation).
    pub fn charged_bytes(&self) -> usize {
        self.charged_total
    }

    /// Seglet size: the charge granularity for compacted survivor segments.
    pub fn seglet_bytes(&self) -> usize {
        (self.config.segment_bytes / SEGLETS_PER_SEGMENT).max(1)
    }

    /// Whole-segment slots still available before the memory budget is
    /// exhausted. Compacted survivors charge only their seglet-rounded
    /// length, so freeing bytes via compaction grows this too.
    pub fn free_segment_slots(&self) -> usize {
        self.budget_bytes().saturating_sub(self.charged_total) / self.config.segment_bytes
    }

    /// Total bytes ever appended (including entries later cleaned).
    pub fn total_appended_bytes(&self) -> u64 {
        self.total_appended_bytes
    }

    /// Whether an entry of `len` serialized bytes can be appended as things
    /// stand: the budget has a whole segment left to roll into, or the head
    /// has the room.
    pub fn has_room(&self, len: usize) -> bool {
        self.charged_total + self.config.segment_bytes <= self.budget_bytes()
            || self.segments[&self.head].free() >= len
    }

    /// Appends an entry, rolling the head if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`LogFullError`] when the head is full and no segment slot is
    /// free ([`Log::has_room`] is false); the store cleans before it gets
    /// here.
    pub fn append(&mut self, entry: &LogEntry) -> Result<AppendOutcome, LogFullError> {
        self.append_record(entry.record())
    }

    /// [`Log::append`] from borrowed fields: the record is laid out once,
    /// into a buffer the log reuses, and copied into the head from there.
    pub(crate) fn append_record(
        &mut self,
        record: Record<'_>,
    ) -> Result<AppendOutcome, LogFullError> {
        let mut bytes = std::mem::take(&mut self.layout);
        bytes.clear();
        record.write_into(&mut bytes);
        let out = self.append_raw(&bytes);
        self.layout = bytes;
        out
    }

    /// Appends one serialized entry, rolling the head if necessary.
    fn append_raw(&mut self, bytes: &[u8]) -> Result<AppendOutcome, LogFullError> {
        debug_assert!(
            bytes.len() <= self.config.segment_bytes,
            "entry larger than a segment"
        );
        let mut sealed = None;
        let head = self.segments.get_mut(&self.head).expect("head exists");
        let offset = match head.append_raw(bytes) {
            Ok(off) => off,
            Err(_) => {
                sealed = Some(self.roll()?);
                let head = self.segments.get_mut(&self.head).expect("head exists");
                head.append_raw(bytes)
                    .expect("entry must fit in an empty segment")
            }
        };
        let seg = self.head;
        let size = bytes.len();
        self.stats.get_mut(&seg).expect("head stats").live_bytes += size;
        self.total_appended_bytes += size as u64;
        Ok(AppendOutcome {
            position: LogPosition {
                segment: seg,
                offset,
            },
            sealed,
        })
    }

    /// Seals the head and opens an empty segment as the new one; returns the
    /// sealed id. Fails when the budget has no whole segment left.
    pub(crate) fn roll(&mut self) -> Result<SegmentId, LogFullError> {
        if self.charged_total + self.config.segment_bytes > self.budget_bytes() {
            return Err(LogFullError);
        }
        let sealed = self.head;
        self.segments.get_mut(&sealed).expect("head exists").close();
        let new_id = self.reserve_segment_id();
        self.append_seq += 1;
        let seg = Segment::new(new_id, &self.arena);
        self.segment_map.publish(new_id, seg.shared_buf());
        self.segments.insert(new_id, seg);
        self.stats.insert(
            new_id,
            SegmentStats {
                live_bytes: 0,
                created_seq: self.append_seq,
                charged_bytes: self.config.segment_bytes,
            },
        );
        self.charged_total += self.config.segment_bytes;
        self.head = new_id;
        Ok(sealed)
    }

    /// Reads the entry at `pos`, or `None` if the segment was cleaned or the
    /// offset is invalid.
    pub fn read(&self, pos: LogPosition) -> Option<LogEntry> {
        self.view(pos).map(|view| view.to_owned())
    }

    /// Borrows the entry at `pos` in place, checksum verified: what
    /// [`Log::read`] copies out of. The store's own lookups need a key
    /// compare, a version and a size, not copies.
    pub(crate) fn view(&self, pos: LogPosition) -> Option<EntryView<'_>> {
        self.segments.get(&pos.segment)?.view_at(pos.offset).ok()
    }

    /// Whether `id` is still allocated.
    pub fn contains_segment(&self, id: SegmentId) -> bool {
        self.segments.contains_key(&id)
    }

    /// Borrows an allocated segment.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.segments.get(&id)
    }

    /// Ids of all allocated segments, ascending.
    pub fn segment_ids(&self) -> Vec<SegmentId> {
        self.segments.keys().copied().collect()
    }

    /// Live bytes currently credited to `id` (0 for unknown segments).
    pub fn live_bytes(&self, id: SegmentId) -> usize {
        self.stats.get(&id).map(|s| s.live_bytes).unwrap_or(0)
    }

    /// Bytes `id` currently charges against the budget: full
    /// `segment_bytes` for ordinary segments, the seglet-rounded length for
    /// compacted survivors. `None` for unknown segments.
    pub fn segment_charged_bytes(&self, id: SegmentId) -> Option<usize> {
        self.stats.get(&id).map(|s| s.charged_bytes)
    }

    /// Adjusts the live-byte count of `id` by `delta`. The store calls this
    /// when an overwrite or delete makes an old entry obsolete.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the count would go negative.
    pub fn adjust_live(&mut self, id: SegmentId, delta: isize) {
        if let Some(s) = self.stats.get_mut(&id) {
            if delta >= 0 {
                s.live_bytes += delta as usize;
            } else {
                let dec = (-delta) as usize;
                debug_assert!(s.live_bytes >= dec, "live bytes underflow on {id}");
                s.live_bytes = s.live_bytes.saturating_sub(dec);
            }
        }
    }

    /// Utilization of `id`: live bytes / appended bytes. `None` for unknown
    /// segments; `1.0` for an empty (all-live, nothing appended) segment.
    pub fn segment_utilization(&self, id: SegmentId) -> Option<f64> {
        let seg = self.segments.get(&id)?;
        let stats = self.stats.get(&id)?;
        if seg.is_empty() {
            return Some(1.0);
        }
        Some(stats.live_bytes as f64 / seg.len() as f64)
    }

    /// Age proxy of `id`: how many head-rolls ago it was created. `None` for
    /// unknown segments.
    pub fn segment_age(&self, id: SegmentId) -> Option<u64> {
        self.stats.get(&id).map(|s| self.append_seq - s.created_seq)
    }

    /// Retires a cleaned victim into the limbo list, stamped with `epoch`.
    /// The segment becomes unreachable through [`Log::read`] but keeps its
    /// memory (and its budget charge) until [`Log::reclaim_retired`] deems
    /// the epoch safe.
    ///
    /// # Panics
    ///
    /// Panics if asked to retire the head.
    pub fn retire_segment(&mut self, id: SegmentId, epoch: u64) {
        assert_ne!(id, self.head, "cannot free the head segment");
        let Some(segment) = self.segments.remove(&id) else {
            return;
        };
        // Unreachable for *new* lock-free lookups from here on; readers that
        // already resolved the buffer keep it alive through its refcount.
        drop(self.segment_map.unpublish(id));
        let charged_bytes = self
            .stats
            .remove(&id)
            .map(|s| s.charged_bytes)
            .unwrap_or(self.config.segment_bytes);
        self.limbo.push(LimboSegment {
            epoch,
            segment,
            charged_bytes,
        });
    }

    /// Reclaims every limbo segment retired at or before `safe_epoch` whose
    /// buffer is no longer referenced by any zero-copy value view, returning
    /// the budget bytes to the free pool. Returns how many segments were
    /// reclaimed.
    ///
    /// Both conditions are required: the epoch proves no *in-flight* reader
    /// can still be probing the buffer, the refcount proves no *completed*
    /// read still holds a [`crate::ValueView`] into it.
    pub fn reclaim_retired(&mut self, safe_epoch: u64) -> usize {
        let before = self.limbo.len();
        let mut reclaimed_bytes = 0usize;
        self.limbo.retain(|l| {
            if l.epoch <= safe_epoch && Arc::strong_count(l.segment.shared_buf()) == 1 {
                reclaimed_bytes += l.charged_bytes;
                false
            } else {
                true
            }
        });
        self.charged_total -= reclaimed_bytes;
        before - self.limbo.len()
    }

    /// Segments currently in limbo (retired, awaiting a safe epoch).
    pub fn limbo_segments(&self) -> usize {
        self.limbo.len()
    }

    /// Limbo segments whose retirement epoch has already passed but whose
    /// bytes are still pinned by outstanding zero-copy value views — the
    /// `limbo_held_by_views` statistic.
    pub fn limbo_held_by_views(&self, safe_epoch: u64) -> usize {
        self.limbo
            .iter()
            .filter(|l| l.epoch <= safe_epoch && Arc::strong_count(l.segment.shared_buf()) > 1)
            .count()
    }

    /// The arena the log's segments take their memory from: the cleaner
    /// builds its survivors on it.
    pub(crate) fn arena(&self) -> &Arc<SegmentArena> {
        &self.arena
    }

    /// The lock-free id → buffer map shared with read handles.
    pub(crate) fn segment_map(&self) -> Arc<SegmentMap> {
        Arc::clone(&self.segment_map)
    }

    /// The oldest retirement epoch still in limbo, if any — the input to the
    /// reclamation-lag metric.
    pub fn oldest_limbo_epoch(&self) -> Option<u64> {
        self.limbo.iter().map(|l| l.epoch).min()
    }

    /// Reserves a fresh segment id through `&self` (ids are never reused).
    /// The concurrent cleaner mints survivor ids during its locked prepare
    /// phase and fills the segments without any lock held.
    pub fn reserve_segment_id(&self) -> SegmentId {
        SegmentId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Installs a closed survivor segment built by the cleaner. The survivor
    /// charges only its seglet-rounded length against the budget — the
    /// mechanism by which in-memory compaction frees bytes without freeing a
    /// whole segment slot.
    ///
    /// # Panics
    ///
    /// Panics if the survivor is not closed, is empty, or reuses a live id.
    pub fn install_survivor(&mut self, segment: Segment, live_bytes: usize) {
        assert!(segment.is_closed(), "survivors are installed closed");
        assert!(!segment.is_empty(), "empty survivors must not be installed");
        let id = segment.id();
        assert!(
            !self.segments.contains_key(&id),
            "survivor id {id} already allocated"
        );
        let seglet = self.seglet_bytes();
        let charged_bytes = segment
            .len()
            .div_ceil(seglet)
            .saturating_mul(seglet)
            .min(self.config.segment_bytes);
        self.stats.insert(
            id,
            SegmentStats {
                live_bytes,
                created_seq: self.append_seq,
                charged_bytes,
            },
        );
        self.segment_map.publish(id, segment.shared_buf());
        self.segments.insert(id, segment);
        self.charged_total += charged_bytes;
    }

    /// Closed (non-head) segment ids — the cleaner's candidate pool.
    pub fn closed_segment_ids(&self) -> Vec<SegmentId> {
        self.segments
            .keys()
            .copied()
            .filter(|&id| id != self.head)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectRecord;
    use crate::types::{TableId, Version};
    use bytes::Bytes;

    fn obj(key: &str, val_len: usize) -> LogEntry {
        LogEntry::Object(ObjectRecord {
            table: TableId(1),
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::from(vec![1u8; val_len]),
            version: Version::FIRST,
            completion: None,
        })
    }

    fn small_log(max_segments: usize) -> Log {
        Log::new(LogConfig {
            segment_bytes: 256,
            max_segments,
            ordered_index: false,
        })
    }

    #[test]
    fn append_and_read_back() {
        let mut log = small_log(4);
        let e = obj("hello", 32);
        let out = log.append(&e).unwrap();
        assert_eq!(log.read(out.position), Some(e));
        assert!(out.sealed.is_none());
    }

    #[test]
    fn head_rolls_and_seals() {
        let mut log = small_log(4);
        let e = obj("key", 100); // ~130 bytes serialized, 1 per 256-byte segment... 2 fit? header 27+3+100=130; 256/130 -> 1 fits, second rolls
        let first = log.append(&e).unwrap();
        let second = log.append(&e).unwrap();
        assert_eq!(second.sealed, Some(first.position.segment));
        assert_ne!(first.position.segment, second.position.segment);
        // Both remain readable.
        assert!(log.read(first.position).is_some());
        assert!(log.read(second.position).is_some());
    }

    #[test]
    fn log_full_when_budget_exhausted() {
        let mut log = small_log(2);
        let e = obj("key", 100);
        log.append(&e).unwrap();
        log.append(&e).unwrap(); // rolls to segment 2/2
        assert!(!log.has_room(e.serialized_len()));
        let err = log.append(&e).unwrap_err();
        assert_eq!(err, LogFullError);
        assert_eq!(log.free_segment_slots(), 0);
        assert!(log.has_room(log.segment(log.head()).unwrap().free()));
    }

    #[test]
    fn live_byte_accounting() {
        let mut log = small_log(4);
        let e = obj("key", 50);
        let size = e.serialized_len();
        let out = log.append(&e).unwrap();
        assert_eq!(log.live_bytes(out.position.segment), size);
        log.adjust_live(out.position.segment, -(size as isize));
        assert_eq!(log.live_bytes(out.position.segment), 0);
    }

    #[test]
    fn utilization_tracks_live_fraction() {
        let mut log = small_log(4);
        let e = obj("key", 50);
        let a = log.append(&e).unwrap();
        let _b = log.append(&e).unwrap();
        let seg = a.position.segment;
        assert_eq!(log.segment_utilization(seg), Some(1.0));
        log.adjust_live(seg, -(e.serialized_len() as isize));
        let u = log.segment_utilization(seg).unwrap();
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn free_segment_reclaims_slot() {
        let mut log = small_log(2);
        let e = obj("key", 100);
        let first = log.append(&e).unwrap();
        log.append(&e).unwrap();
        assert!(log.append(&e).is_err());
        // Freeing routes through limbo: unreachable at once, but the slot
        // comes back only after the epoch-safe reclaim.
        log.retire_segment(first.position.segment, 3);
        assert_eq!(log.read(first.position), None);
        assert!(log.append(&e).is_err(), "charge held until reclaim");
        assert_eq!(log.reclaim_retired(3), 1);
        assert!(log.append(&e).is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot free the head")]
    fn freeing_head_panics() {
        let mut log = small_log(2);
        log.append(&obj("k", 10)).unwrap();
        log.retire_segment(log.head(), 0);
    }

    #[test]
    fn closed_segments_exclude_head() {
        let mut log = small_log(8);
        let e = obj("key", 100);
        for _ in 0..5 {
            log.append(&e).unwrap();
        }
        let closed = log.closed_segment_ids();
        assert!(!closed.contains(&log.head()));
        assert_eq!(closed.len(), log.allocated_segments() - 1);
    }

    #[test]
    fn age_increases_with_rolls() {
        let mut log = small_log(8);
        let e = obj("key", 100);
        let first = log.append(&e).unwrap();
        for _ in 0..4 {
            log.append(&e).unwrap();
        }
        let age_old = log.segment_age(first.position.segment).unwrap();
        let age_head = log.segment_age(log.head()).unwrap();
        assert!(age_old > age_head);
    }

    #[test]
    fn retired_segments_keep_their_charge_until_reclaimed() {
        let mut log = small_log(3);
        let e = obj("key", 100);
        let first = log.append(&e).unwrap();
        log.append(&e).unwrap();
        let victim = first.position.segment;
        log.retire_segment(victim, 5);
        // Unreachable immediately…
        assert_eq!(log.read(first.position), None);
        assert_eq!(log.limbo_segments(), 1);
        assert_eq!(log.oldest_limbo_epoch(), Some(5));
        // …but the budget is still charged: only 1 of 3 slots free.
        assert_eq!(log.free_segment_slots(), 1);
        // A too-early reclaim frees nothing.
        assert_eq!(log.reclaim_retired(4), 0);
        assert_eq!(log.free_segment_slots(), 1);
        // The safe epoch releases the slot.
        assert_eq!(log.reclaim_retired(5), 1);
        assert_eq!(log.free_segment_slots(), 2);
        assert_eq!(log.limbo_segments(), 0);
        assert_eq!(log.oldest_limbo_epoch(), None);
    }

    #[test]
    fn survivors_charge_seglet_rounded_bytes() {
        let mut log = small_log(4);
        // 256-byte segments -> 4-byte seglets.
        assert_eq!(log.seglet_bytes(), 4);
        let id = log.reserve_segment_id();
        let mut seg = Segment::new(id, log.arena());
        let e = obj("k", 10);
        let mut raw = Vec::new();
        e.serialize_into(&mut raw);
        seg.append_raw(&raw).unwrap();
        seg.close();
        let len = seg.len();
        let before = log.charged_bytes();
        log.install_survivor(seg, len);
        let charged = log.charged_bytes() - before;
        assert!(charged >= len, "charge covers the survivor's bytes");
        assert!(charged < 256, "compacted survivor charges less than a slot");
        assert_eq!(charged % log.seglet_bytes(), 0, "seglet-rounded");
        // The survivor is readable like any segment.
        assert!(log
            .read(LogPosition {
                segment: id,
                offset: 0
            })
            .is_some());
    }

    #[test]
    fn compaction_frees_budget_without_freeing_a_slot() {
        // Replace a full-charge segment with a small survivor: allocated
        // count stays, free slots grow once the victim is reclaimed.
        let mut log = small_log(3);
        let e = obj("key", 100);
        let first = log.append(&e).unwrap();
        log.append(&e).unwrap();
        let victim = first.position.segment;
        assert_eq!(log.free_segment_slots(), 1);
        let sid = log.reserve_segment_id();
        let mut surv = Segment::new(sid, log.arena());
        let mut raw = Vec::new();
        e.serialize_into(&mut raw);
        surv.append_raw(&raw).unwrap();
        surv.close();
        let len = surv.len();
        log.install_survivor(surv, len);
        log.retire_segment(victim, 0);
        assert_eq!(log.reclaim_retired(0), 1);
        // Two "segments" allocated (head + survivor) of a 3-slot budget, but
        // the survivor's partial charge leaves more than one slot free.
        assert_eq!(log.allocated_segments(), 2);
        assert!(log.free_segment_slots() >= 1);
        assert!(log.charged_bytes() < 2 * log.budget_bytes() / 3);
    }

    #[test]
    fn reserve_segment_id_is_monotone_and_shared_with_append() {
        let log = small_log(4);
        let a = log.reserve_segment_id();
        let b = log.reserve_segment_id();
        assert!(b.0 > a.0);
        let mut log = log;
        let e = obj("key", 100);
        log.append(&e).unwrap();
        let out = log.append(&e).unwrap(); // rolls
        assert!(out.position.segment.0 > b.0, "roll uses the shared counter");
    }

    #[test]
    fn ids_never_reused() {
        let mut log = small_log(2);
        let e = obj("key", 100);
        let a = log.append(&e).unwrap();
        log.append(&e).unwrap();
        log.retire_segment(a.position.segment, 0);
        assert_eq!(log.reclaim_retired(0), 1);
        let c = log.append(&e).unwrap();
        assert!(c.position.segment.0 > 1, "freed id must not be recycled");
    }

    #[test]
    fn reclaim_waits_for_outstanding_buffer_references() {
        let mut log = small_log(3);
        let e = obj("key", 100);
        let first = log.append(&e).unwrap();
        log.append(&e).unwrap();
        let victim = first.position.segment;
        // Simulate an outstanding zero-copy view: clone the buffer Arc the
        // way a `ValueView` does (through the lock-free map).
        let view = log.segment_map().get(victim).expect("published");
        log.retire_segment(victim, 1);
        assert!(
            log.segment_map().get(victim).is_none(),
            "retire unpublishes the buffer from the lock-free map"
        );
        // Epoch is safe, but the view still pins the bytes.
        assert_eq!(log.reclaim_retired(5), 0);
        assert_eq!(log.limbo_held_by_views(5), 1);
        assert_eq!(log.limbo_segments(), 1);
        drop(view);
        assert_eq!(log.reclaim_retired(5), 1);
        assert_eq!(log.limbo_held_by_views(5), 0);
    }
}
