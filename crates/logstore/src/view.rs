//! The lock-free, zero-copy read path: epoch-pinned probes returning
//! refcounted views into live segment memory.
//!
//! A [`ReadHandle`] bundles everything one read needs without the store
//! lock: the index's seqlock-protected slot array, the lock-free
//! segment-id → buffer map, the epoch tracker, and the read counters. The
//! handle is `Clone + Send + Sync`; each standalone shard keeps one that
//! every client thread reads through, so a read never touches the shard
//! `RwLock`.
//!
//! A successful read returns an [`ObjectView`] whose [`ValueView`] indexes
//! straight into the segment's committed bytes — no copy. The view clones
//! the segment buffer's `Arc`, so the bytes stay allocated (and, being a
//! committed log prefix, immutable) even if the cleaner retires the segment
//! while the view is alive; the limbo list refuses to reclaim a buffer whose
//! strong count shows outstanding views. See `DESIGN.md` §4e for the full
//! memory-safety argument.
//!
//! A read writes no cache line another reader writes, apart from the epoch
//! pin and the buffer `Arc` — both carry correctness. Its tallies go to the
//! calling thread's own lane of [`ReadCounters`], and the live-view gauge is
//! not tallied at all: it is read off the buffers' reference counts.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::entry::{BodyView, EntryView, HEADER_BYTES};
use crate::epoch::EpochTracker;
use crate::hashtable::{CandidateBuf, IndexShared};
use crate::segbuf::{SegmentBuf, SegmentMap};
use crate::types::{key_hash, KeyHash, TableId, Version};

/// Error: the lock-free probe kept colliding with the writer (or the index
/// churned under it) for the entire retry budget. The caller should fall
/// back to the locked read path — correctness never depends on the
/// lock-free path succeeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadContended;

impl std::fmt::Display for ReadContended {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lock-free read contended; retry under the lock")
    }
}

impl std::error::Error for ReadContended {}

/// Lanes per [`ReadCounters`]: more than the threads that read one store at
/// once here, so two concurrent readers seldom share one.
const LANES: usize = 16;

/// One thread's tallies, alone on its cache line. A read counts one event:
/// the totals [`ReadCounters`] reports are sums of these.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Lane {
    lockfree_hits: AtomicU64,
    lockfree_misses: AtomicU64,
    locked_hits: AtomicU64,
    locked_misses: AtomicU64,
    fallback_locked: AtomicU64,
}

/// The calling thread's lane index: handed out once per thread, in order.
fn lane_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % LANES;
    }
    LANE.with(|lane| *lane)
}

/// Shared read-path counters: hit/miss totals, how many reads completed
/// lock-free vs. fell back to the lock, and the live value-view gauge.
///
/// One instance per [`Store`](crate::Store), shared by the store's locked
/// read path and every [`ReadHandle`] cloned from it, so the totals are a
/// single source of truth regardless of which path served a read. Each
/// thread counts on its own lane, so the totals are exact without readers
/// contending for a line.
pub struct ReadCounters {
    lanes: [Lane; LANES],
    /// The store's buffers, whose reference counts are the view gauge.
    segments: Arc<SegmentMap>,
}

impl ReadCounters {
    pub(crate) fn new(segments: Arc<SegmentMap>) -> Self {
        ReadCounters {
            lanes: Default::default(),
            segments,
        }
    }

    fn lane(&self) -> &Lane {
        &self.lanes[lane_index()]
    }

    fn sum(&self, field: impl Fn(&Lane) -> &AtomicU64) -> u64 {
        self.lanes
            .iter()
            .map(|lane| field(lane).load(Ordering::Relaxed))
            .sum()
    }

    /// Reads that found the key (either path).
    pub fn hits(&self) -> u64 {
        self.sum(|l| &l.lockfree_hits) + self.sum(|l| &l.locked_hits)
    }

    /// Reads that missed (either path).
    pub fn misses(&self) -> u64 {
        self.sum(|l| &l.lockfree_misses) + self.sum(|l| &l.locked_misses)
    }

    /// Reads completed on the lock-free path.
    pub fn lockfree(&self) -> u64 {
        self.sum(|l| &l.lockfree_hits) + self.sum(|l| &l.lockfree_misses)
    }

    /// Reads that hit [`ReadContended`] and were served under the lock.
    pub fn fallback_locked(&self) -> u64 {
        self.sum(|l| &l.fallback_locked)
    }

    /// Zero-copy value views currently alive (a gauge, not a counter):
    /// references to the store's segment buffers beyond the log's own.
    /// Exact whenever no read or cleaning pass is in flight; one that is
    /// holds a buffer reference of its own for its duration.
    pub fn value_views_live(&self) -> u64 {
        self.segments.outside_refs()
    }

    /// Records one contended read served by the locked fallback. Called by
    /// the layer that owns the lock (e.g. the sharded store), since the
    /// handle itself never takes it.
    pub fn record_fallback_locked(&self) {
        self.lane().fallback_locked.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read served without the store lock.
    fn record_lockfree(&self, hit: bool) {
        let lane = self.lane();
        let counter = if hit {
            &lane.lockfree_hits
        } else {
            &lane.lockfree_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read served under the store lock.
    pub(crate) fn record_locked(&self, hit: bool) {
        let lane = self.lane();
        let counter = if hit {
            &lane.locked_hits
        } else {
            &lane.locked_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ReadCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCounters")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("lockfree", &self.lockfree())
            .field("fallback_locked", &self.fallback_locked())
            .finish()
    }
}

/// A cheaply clonable handle on one object's value bytes: a window into
/// the segment that holds them, never a copy.
///
/// Dereferences to `&[u8]`. The view's `Arc` keeps the segment buffer
/// allocated past retirement — holding one for a long time delays
/// reclamation of that segment, which the `limbo_held_by_views` statistic
/// makes visible. The same `Arc` is what the `value_views_live` gauge
/// counts, so a view costs no bookkeeping of its own.
#[derive(Clone)]
pub struct ValueView {
    buf: Arc<SegmentBuf>,
    start: usize,
    end: usize,
}

impl ValueView {
    /// A window `[start, end)` into `buf`'s committed prefix.
    pub(crate) fn segment(buf: Arc<SegmentBuf>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= buf.len());
        ValueView { buf, start, end }
    }

    /// The value bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.committed()[self.start..self.end]
    }

    /// Copies the bytes out (the boundary between zero-copy internals and
    /// owning callers).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for ValueView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ValueView {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for ValueView {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueView {}

impl std::fmt::Debug for ValueView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueView")
            .field("len", &self.as_slice().len())
            .finish()
    }
}

/// The result of a read: the object's metadata plus a [`ValueView`] on its
/// value. The key is omitted — the caller supplied it.
#[derive(Debug, Clone)]
pub struct ObjectView {
    /// Table the object belongs to.
    pub table: TableId,
    /// The object's version.
    pub version: Version,
    /// The value bytes.
    pub value: ValueView,
}

/// Attempts before a lock-free read gives up and reports [`ReadContended`].
/// Each retry means the writer mutated the index mid-probe (or a candidate
/// pointed into a just-retired segment); sustained interference across this
/// many attempts is pathological, so punt to the lock instead of spinning.
const MAX_ATTEMPTS: usize = 16;

/// A lock-free reader for one store, safe to clone into any thread.
///
/// Obtained from [`Store::read_handle`](crate::Store::read_handle).
/// [`ReadHandle::try_read`] never blocks and never takes the store lock; it
/// can fail with [`ReadContended`] under pathological writer interference,
/// in which case the caller serves the read under the lock.
#[derive(Debug, Clone)]
pub struct ReadHandle {
    index: Arc<IndexShared>,
    segments: Arc<SegmentMap>,
    epoch: Arc<EpochTracker>,
    counters: Arc<ReadCounters>,
}

impl ReadHandle {
    pub(crate) fn new(
        index: Arc<IndexShared>,
        segments: Arc<SegmentMap>,
        epoch: Arc<EpochTracker>,
        counters: Arc<ReadCounters>,
    ) -> Self {
        ReadHandle {
            index,
            segments,
            epoch,
            counters,
        }
    }

    /// The read counters shared with the owning store.
    pub fn counters(&self) -> &Arc<ReadCounters> {
        &self.counters
    }

    /// Reads `key` without taking any lock, returning a zero-copy view.
    ///
    /// The read pins the current epoch for its duration; the returned view
    /// then keeps its segment's bytes alive on its own (refcount), so the
    /// view may be held arbitrarily long after this call returns.
    ///
    /// # Errors
    ///
    /// [`ReadContended`] after `MAX_ATTEMPTS` failed probe validations —
    /// the caller should fall back to the locked path (and record it via
    /// [`ReadCounters::record_fallback_locked`]).
    pub fn try_read(
        &self,
        table: TableId,
        key: &[u8],
    ) -> Result<Option<ObjectView>, ReadContended> {
        self.try_read_hashed(key_hash(table, key), table, key)
    }

    /// [`ReadHandle::try_read`] for a caller that already computed
    /// `hash = key_hash(table, key)` (to pick a shard, say), so the key is
    /// hashed once per read.
    ///
    /// # Errors
    ///
    /// As [`ReadHandle::try_read`].
    pub fn try_read_hashed(
        &self,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
    ) -> Result<Option<ObjectView>, ReadContended> {
        debug_assert_eq!(hash, key_hash(table, key));
        let _pin = self.epoch.pin();
        let mut candidates = CandidateBuf::new();
        let mut attempts = 0;
        'retry: loop {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                return Err(ReadContended);
            }
            if !self.index.try_candidates(hash, &mut candidates) {
                std::hint::spin_loop();
                continue 'retry;
            }
            for &pos in candidates.as_slice() {
                let Some(seg) = self.segments.get(pos.segment) else {
                    // The snapshot was valid, but the segment has since been
                    // retired: the index must have swung this key to a new
                    // position (the cleaner relocates live entries before
                    // retiring a victim). Re-probe; never report a miss off
                    // a stale candidate.
                    continue 'retry;
                };
                let committed = seg.committed();
                let start = pos.offset as usize;
                if start >= committed.len() {
                    // Offset beyond the committed prefix: a stale candidate
                    // from a slot the writer is reusing. Re-probe.
                    continue 'retry;
                }
                // No per-read CRC here: entries were checksummed at append,
                // committed bytes are immutable, and the unverified parse
                // bounds-checks every length it trusts.
                let Ok(entry) = EntryView::parse_unverified(&committed[start..]) else {
                    // Unparsable bytes behind a validated candidate: the
                    // slot went stale between the probe and the parse.
                    continue 'retry;
                };
                let BodyView::Object { value, .. } = entry.body else {
                    // A tombstone: stale in the same way. Re-probe.
                    continue 'retry;
                };
                if entry.table == table && entry.key == key {
                    let version = entry.version;
                    let value_start = start + HEADER_BYTES + entry.key.len();
                    let value_end = value_start + value.len();
                    self.counters.record_lockfree(true);
                    return Ok(Some(ObjectView {
                        table,
                        version,
                        value: ValueView::segment(seg, value_start, value_end),
                    }));
                }
                // A different key colliding on the 64-bit hash: keep
                // scanning the remaining candidates.
            }
            self.counters.record_lockfree(false);
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::store::Store;

    const T: TableId = TableId(1);

    fn store() -> Store {
        Store::new(LogConfig {
            segment_bytes: 512,
            max_segments: 64,
            ordered_index: false,
        })
    }

    #[test]
    fn lock_free_read_returns_zero_copy_view() {
        let mut s = store();
        s.write(T, b"k", b"value-bytes").unwrap();
        let h = s.read_handle();
        let view = h.try_read(T, b"k").unwrap().expect("present");
        assert_eq!(&view.value[..], b"value-bytes");
        assert_eq!(view.version, Version::FIRST);
        // The view's bytes are literally the segment's bytes.
        let seg = s.log().segment(crate::types::SegmentId(0)).unwrap();
        let seg_range = seg.as_bytes().as_ptr_range();
        assert!(seg_range.contains(&view.value.as_slice().as_ptr()));
        assert!(h.try_read(T, b"missing").unwrap().is_none());
    }

    #[test]
    fn view_gauge_tracks_clones_and_drops() {
        let mut s = store();
        s.write(T, b"k", b"v").unwrap();
        let h = s.read_handle();
        assert_eq!(h.counters().value_views_live(), 0);
        let a = h.try_read(T, b"k").unwrap().unwrap();
        assert_eq!(h.counters().value_views_live(), 1);
        let b = a.clone();
        assert_eq!(h.counters().value_views_live(), 2);
        drop(a);
        drop(b);
        assert_eq!(h.counters().value_views_live(), 0);
    }

    #[test]
    fn counters_are_shared_between_paths() {
        let mut s = store();
        s.write(T, b"k", b"v").unwrap();
        let h = s.read_handle();
        let _ = s.read(T, b"k"); // locked-path hit
        let _ = h.try_read(T, b"k").unwrap(); // lock-free hit
        let _ = h.try_read(T, b"gone").unwrap(); // lock-free miss
        let st = s.stats();
        assert_eq!((st.read_hits, st.read_misses), (2, 1));
        assert_eq!(st.read_lockfree, 2);
        assert_eq!(st.read_fallback_locked, 0);
        h.counters().record_fallback_locked();
        assert_eq!(s.stats().read_fallback_locked, 1);
    }

    #[test]
    fn view_outlives_overwrite_and_inline_clean() {
        // A held view must keep returning the exact bytes it resolved, even
        // after the key is overwritten many times and cleaning retires the
        // original segment.
        let mut s = store();
        s.write(T, b"stable", b"original").unwrap();
        let h = s.read_handle();
        let view = h.try_read(T, b"stable").unwrap().unwrap();
        assert_eq!(&view.value[..], b"original");
        for i in 0..2000u32 {
            s.write(T, b"stable", format!("overwrite-{i}").as_bytes())
                .unwrap();
            s.write(T, format!("churn-{}", i % 40).as_bytes(), &[0u8; 64])
                .unwrap();
        }
        assert!(s.stats().cleanings > 0, "churn must have cleaned");
        // The old bytes are unreachable through the index…
        assert_eq!(
            &h.try_read(T, b"stable").unwrap().unwrap().value[..],
            b"overwrite-1999"
        );
        // …but the held view still pins the original, unmutated.
        assert_eq!(&view.value[..], b"original");
        assert_eq!(view.version, Version::FIRST);
    }

    #[test]
    fn reads_agree_with_locked_path_under_mutation() {
        let mut s = store();
        let h = s.read_handle();
        for i in 0..200u32 {
            let key = format!("k{}", i % 16);
            s.write(T, key.as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            if i % 7 == 0 {
                s.delete(T, key.as_bytes()).unwrap();
            }
            for j in 0..16u32 {
                let key = format!("k{j}");
                let locked = s.peek(T, key.as_bytes());
                let lockfree = h.try_read(T, key.as_bytes()).unwrap();
                match (locked, lockfree) {
                    (Some(rec), Some(view)) => {
                        assert_eq!(rec.version, view.version);
                        assert_eq!(&rec.value[..], &view.value[..]);
                    }
                    (None, None) => {}
                    (a, b) => panic!("paths disagree on {key}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
