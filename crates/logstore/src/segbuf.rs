//! Pinned, refcounted segment memory for the lock-free read path.
//!
//! [`SegmentBuf`] is a fixed-capacity byte buffer whose allocation never
//! moves: appends go through a raw pointer past the committed length, and
//! the committed length is published with a `Release` store so concurrent
//! readers that `Acquire`-load it see every byte below it fully written.
//! Segments hold their bytes in an `Arc<SegmentBuf>`, which is what makes
//! zero-copy [`ValueView`](crate::ValueView)s possible: a view clones the
//! `Arc` and indexes into the committed prefix, keeping the memory alive
//! (and immutable — committed bytes are never rewritten) for as long as the
//! view lives, even after the cleaner retires and "frees" the segment.
//!
//! [`SegmentMap`] is the lock-free registry readers use to resolve a
//! [`SegmentId`] to its buffer without taking the store lock: a chunked
//! lock-free vector of `AtomicPtr`s (segment ids are minted monotonically
//! and never reused, so the id is a stable dense index). Writers publish a
//! segment when it enters the log and unpublish it when it is retired into
//! the epoch limbo list; readers resolve ids only while holding an epoch
//! pin, which is what makes the `Arc::increment_strong_count` upgrade safe
//! (the limbo list cannot drop the final `Arc` until the reader's epoch has
//! passed — see `DESIGN.md` §4e).

use std::alloc::{alloc, dealloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::types::SegmentId;

/// A fixed-capacity append-only byte buffer with an atomically published
/// committed length.
///
/// Invariants (enforced by the owning [`Segment`](crate::Segment)):
/// - exactly one writer appends at a time (`append` is reached only through
///   `&mut Segment`);
/// - bytes below the committed length are never written again;
/// - the allocation never moves or shrinks.
pub(crate) struct SegmentBuf {
    ptr: NonNull<u8>,
    capacity: usize,
    /// Committed length: `Release`-stored by the writer after the bytes are
    /// in place, `Acquire`-loaded by readers.
    len: AtomicUsize,
}

// SAFETY: the raw pointer is owned (allocated in `new`, freed in `drop`);
// all shared access is confined to the committed prefix, which is immutable
// and published with Release/Acquire on `len`.
unsafe impl Send for SegmentBuf {}
unsafe impl Sync for SegmentBuf {}

impl std::fmt::Debug for SegmentBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentBuf")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl SegmentBuf {
    /// Allocates an empty buffer of exactly `capacity` bytes (uninitialized;
    /// readers can only ever see bytes the writer has committed).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let layout = Layout::array::<u8>(capacity).expect("segment capacity fits a layout");
        // SAFETY: layout has non-zero size (capacity >= 1).
        let raw = unsafe { alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        SegmentBuf {
            ptr,
            capacity,
            len: AtomicUsize::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Committed length (safe to read `committed()[..len()]`).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The committed prefix. Every byte in the returned slice was fully
    /// written before the length was published and will never change.
    pub(crate) fn committed(&self) -> &[u8] {
        let len = self.len.load(Ordering::Acquire);
        // SAFETY: bytes below the committed length are initialized and
        // immutable; the allocation outlives `&self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), len) }
    }

    /// Appends `bytes`, returning the offset they start at.
    ///
    /// # Safety contract (checked)
    ///
    /// The caller must be the sole writer; `Segment` guarantees this by
    /// only calling through `&mut self`. Panics if the bytes do not fit —
    /// callers check `free()` first.
    pub(crate) fn append(&self, bytes: &[u8]) -> usize {
        let len = self.len.load(Ordering::Relaxed);
        assert!(
            len + bytes.len() <= self.capacity,
            "segment buffer overflow: {} + {} > {}",
            len,
            bytes.len(),
            self.capacity
        );
        // SAFETY: region [len, len + bytes.len()) is in bounds, not yet
        // committed, and no other writer exists.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.as_ptr().add(len), bytes.len());
        }
        self.len.store(len + bytes.len(), Ordering::Release);
        len
    }
}

impl Drop for SegmentBuf {
    fn drop(&mut self) {
        let layout = Layout::array::<u8>(self.capacity).expect("layout checked at alloc");
        // SAFETY: allocated with the identical layout in `new`.
        unsafe { dealloc(self.ptr.as_ptr(), layout) };
    }
}

/// Number of chunks in the [`SegmentMap`]; chunk `c` holds `2^c` entries,
/// so 48 chunks cover every segment id a run could mint.
const MAP_CHUNKS: usize = 48;

/// Index of `id` as (chunk, offset within chunk).
fn map_index(id: u64) -> (usize, usize) {
    let idx = id + 1; // 1-based so chunk = floor(log2)
    let chunk = (u64::BITS - 1 - idx.leading_zeros()) as usize;
    (chunk, (idx - (1u64 << chunk)) as usize)
}

/// Lock-free `SegmentId → Arc<SegmentBuf>` registry for epoch-pinned readers.
///
/// Writers (the store, under its exclusive path) `publish` a segment's
/// buffer when the segment enters the log and `unpublish` it when the
/// segment is retired; the returned `Arc` then lives in the limbo list
/// until both the epoch has passed and all reader views have dropped.
pub(crate) struct SegmentMap {
    chunks: [AtomicPtr<AtomicPtr<SegmentBuf>>; MAP_CHUNKS],
    /// Every published buffer, live or retired, by the id it was published
    /// under: what [`SegmentMap::outside_refs`] counts references to.
    /// `publish` appends (once per segment, never per read) and drops the
    /// entries of buffers since freed.
    known: Mutex<Vec<(SegmentId, Weak<SegmentBuf>)>>,
}

impl std::fmt::Debug for SegmentMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SegmentMap")
    }
}

impl Default for SegmentMap {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentMap {
    pub(crate) fn new() -> Self {
        SegmentMap {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            known: Mutex::new(Vec::new()),
        }
    }

    /// Loads the chunk for `id`, allocating it if the writer has not yet
    /// (readers never allocate: an unallocated chunk means the id was never
    /// published, i.e. a miss).
    fn chunk(&self, chunk: usize, allocate: bool) -> Option<&[AtomicPtr<SegmentBuf>]> {
        let slot = &self.chunks[chunk];
        let mut ptr = slot.load(Ordering::Acquire);
        if ptr.is_null() {
            if !allocate {
                return None;
            }
            let size = 1usize << chunk;
            let fresh: Box<[AtomicPtr<SegmentBuf>]> = (0..size)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            let raw = Box::into_raw(fresh) as *mut AtomicPtr<SegmentBuf>;
            match slot.compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => ptr = raw,
                Err(existing) => {
                    // Lost a (writer/writer) race; free ours, use theirs.
                    // SAFETY: `raw` came from Box::into_raw above and was
                    // never published.
                    drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, size)) });
                    ptr = existing;
                }
            }
        }
        let size = 1usize << chunk;
        // SAFETY: published chunk pointers are valid for the lifetime of the
        // map (chunks are never freed until Drop).
        Some(unsafe { std::slice::from_raw_parts(ptr, size) })
    }

    /// Publishes `buf` under `id`. Writer-side only.
    pub(crate) fn publish(&self, id: SegmentId, buf: &Arc<SegmentBuf>) {
        let (c, off) = map_index(id.0);
        let chunk = self.chunk(c, true).expect("allocated");
        let raw = Arc::into_raw(Arc::clone(buf)) as *mut SegmentBuf;
        let prev = chunk[off].swap(raw, Ordering::AcqRel);
        assert!(prev.is_null(), "segment {id} published twice");
        let mut known = self.known.lock().expect("known-buffer list poisoned");
        known.retain(|(_, b)| b.strong_count() > 0);
        known.push((id, Arc::downgrade(buf)));
    }

    /// References to published buffers held outside the log — one per live
    /// zero-copy view, plus one per read or cleaning pass in flight. The log
    /// itself holds one per buffer (its `Segment`, live or in limbo) and
    /// this map one more while the buffer is published.
    pub(crate) fn outside_refs(&self) -> u64 {
        let known = self.known.lock().expect("known-buffer list poisoned");
        known
            .iter()
            .map(|(id, buf)| {
                let owners = 1 + usize::from(self.is_published(*id));
                buf.strong_count().saturating_sub(owners) as u64
            })
            .sum()
    }

    fn is_published(&self, id: SegmentId) -> bool {
        let (c, off) = map_index(id.0);
        self.chunk(c, false)
            .is_some_and(|chunk| !chunk[off].load(Ordering::Acquire).is_null())
    }

    /// Removes `id` from the map, returning the registry's `Arc` so the
    /// caller (the limbo list) keeps the buffer alive. Writer-side only.
    pub(crate) fn unpublish(&self, id: SegmentId) -> Option<Arc<SegmentBuf>> {
        let (c, off) = map_index(id.0);
        let chunk = self.chunk(c, false)?;
        let raw = chunk[off].swap(std::ptr::null_mut(), Ordering::AcqRel);
        if raw.is_null() {
            return None;
        }
        // SAFETY: `raw` came from `Arc::into_raw` in `publish`.
        Some(unsafe { Arc::from_raw(raw) })
    }

    /// Resolves `id` to an owned handle on its buffer.
    ///
    /// # Safety contract
    ///
    /// Must be called while the caller holds an epoch pin: the pin
    /// guarantees that a concurrently retired segment's final `Arc` (held in
    /// the limbo list) cannot be dropped before the pin is released, so the
    /// strong-count increment below can never race the final drop.
    pub(crate) fn get(&self, id: SegmentId) -> Option<Arc<SegmentBuf>> {
        let (c, off) = map_index(id.0);
        let chunk = self.chunk(c, false)?;
        let raw = chunk[off].load(Ordering::Acquire);
        if raw.is_null() {
            return None;
        }
        // SAFETY: `raw` came from `Arc::into_raw`; the epoch pin (caller
        // contract) keeps the Arc alive across the increment.
        unsafe {
            Arc::increment_strong_count(raw);
            Some(Arc::from_raw(raw))
        }
    }
}

impl Drop for SegmentMap {
    fn drop(&mut self) {
        for (c, slot) in self.chunks.iter().enumerate() {
            let ptr = slot.load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            let size = 1usize << c;
            // SAFETY: published in `chunk` via Box::into_raw; sole owner now.
            let chunk = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, size)) };
            for entry in chunk.iter() {
                let raw = entry.load(Ordering::Acquire);
                if !raw.is_null() {
                    // SAFETY: from Arc::into_raw in `publish`.
                    drop(unsafe { Arc::from_raw(raw) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_publishes_committed_prefix() {
        let buf = SegmentBuf::new(64);
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.committed(), &[] as &[u8]);
        let off = buf.append(b"hello");
        assert_eq!(off, 0);
        assert_eq!(buf.append(b" world"), 5);
        assert_eq!(buf.committed(), b"hello world");
        assert_eq!(buf.capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn append_past_capacity_panics() {
        let buf = SegmentBuf::new(4);
        buf.append(b"hello");
    }

    #[test]
    fn map_roundtrip_and_unpublish() {
        let map = SegmentMap::new();
        let a = Arc::new(SegmentBuf::new(8));
        a.append(b"x");
        map.publish(SegmentId(0), &a);
        map.publish(SegmentId(7), &a);
        let got = map.get(SegmentId(0)).expect("published");
        assert_eq!(got.committed(), b"x");
        assert!(map.get(SegmentId(3)).is_none());
        let back = map.unpublish(SegmentId(0)).expect("was present");
        assert!(Arc::ptr_eq(&back, &a));
        assert!(map.get(SegmentId(0)).is_none());
        assert!(map.unpublish(SegmentId(0)).is_none());
        drop(map); // drops the id-7 registration
        assert_eq!(Arc::strong_count(&a), 3); // a, got, back
        drop((got, back));
        assert_eq!(Arc::strong_count(&a), 1);
    }

    #[test]
    fn map_index_is_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            let (c, off) = map_index(id);
            assert!(off < (1usize << c));
            assert!(seen.insert((c, off)));
        }
    }

    #[test]
    fn concurrent_readers_see_only_committed_bytes() {
        let buf = Arc::new(SegmentBuf::new(1 << 16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let buf = Arc::clone(&buf);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let committed = buf.committed();
                        // Every committed byte must be from a finished
                        // append: the writer writes monotone run markers.
                        for chunk in committed.chunks(16) {
                            let first = chunk[0];
                            assert!(chunk.iter().all(|&b| b == first), "torn append visible");
                        }
                    }
                })
            })
            .collect();
        for i in 0..(1 << 12) {
            buf.append(&[(i % 251) as u8; 16]);
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
    }
}
