//! Pinned, refcounted segment memory for the lock-free read path.
//!
//! [`SegmentBuf`] is a fixed-capacity byte buffer whose memory never
//! moves: appends go through a raw pointer past the committed length, and
//! the committed length is published with a `Release` store so concurrent
//! readers that `Acquire`-load it see every byte below it fully written.
//! Segments hold their bytes in an `Arc<SegmentBuf>`, which is what makes
//! zero-copy [`ValueView`](crate::ValueView)s possible: a view clones the
//! `Arc` and indexes into the committed prefix, keeping the memory alive
//! (and immutable — committed bytes are never rewritten) for as long as the
//! view lives, even after the cleaner retires and "frees" the segment.
//!
//! A buffer's memory is a slot of its log's [`SegmentArena`]: the arena
//! allocates 2 MiB-aligned chunks on demand, asks the kernel to back them
//! with transparent huge pages, and carves them into `segment_bytes` slots.
//! A dropped buffer returns its slot to the arena's free list, so a log
//! that turns over reuses pages it has already faulted in instead of
//! handing them back to the allocator (see `DESIGN.md` §4e).
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

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::types::SegmentId;

/// The huge-page size arena chunks are aligned and rounded up to (the PMD
/// size on x86-64, and on aarch64 with 4 KiB base pages).
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// The most an arena grows by at once. The default budget (10 GB) cannot
/// be reserved up front; a smaller budget fits in one chunk.
const MAX_CHUNK_BYTES: usize = 32 << 20;

/// One log's segment memory: `segment_bytes` slots carved from huge-page
/// chunks, recycled through a free list.
///
/// Every segment of the log — the head, each roll, the cleaner's
/// survivors — takes a slot with [`SegmentArena::take`]; its
/// [`SegmentBuf`] returns the slot when it drops, which is the instant the
/// epoch and the last view let go of it. The chunks are freed when the
/// arena's last `Arc` goes: the log holds one, and so does every buffer.
pub(crate) struct SegmentArena {
    slot_bytes: usize,
    /// Size (`min(32 MiB, budget)`, at least one slot, a whole number of
    /// huge pages) and 2 MiB alignment of every chunk.
    chunk: Layout,
    slots: Mutex<Slots>,
}

/// Addresses rather than pointers, so the arena is `Send` and `Sync`
/// without an `unsafe impl`: [`SegmentArena::grow`] exposes each chunk's
/// provenance, and the addresses become pointers again with it.
#[derive(Default)]
struct Slots {
    /// Base address of every chunk, all freed when the arena drops.
    chunks: Vec<usize>,
    /// Free slots. The last one returned is handed out first: its pages
    /// are the likeliest to be resident and in cache.
    free: Vec<usize>,
}

impl std::fmt::Debug for SegmentArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.lock();
        f.debug_struct("SegmentArena")
            .field("slot_bytes", &self.slot_bytes)
            .field("chunk_bytes", &self.chunk.size())
            .field("chunks", &slots.chunks.len())
            .field("free", &slots.free.len())
            .finish()
    }
}

impl SegmentArena {
    /// An empty arena for a log of `max_slots` segments of `slot_bytes`;
    /// it allocates nothing until the first [`SegmentArena::take`].
    pub(crate) fn new(slot_bytes: usize, max_slots: usize) -> Arc<Self> {
        let slot_bytes = slot_bytes.max(1);
        let chunk_bytes = slot_bytes
            .saturating_mul(max_slots)
            .min(MAX_CHUNK_BYTES)
            .max(slot_bytes)
            .next_multiple_of(HUGE_PAGE_BYTES);
        Arc::new(SegmentArena {
            slot_bytes,
            chunk: Layout::from_size_align(chunk_bytes, HUGE_PAGE_BYTES)
                .expect("segment arena chunk fits a layout"),
            slots: Mutex::new(Slots::default()),
        })
    }

    /// Bytes per slot: the capacity of every buffer this arena hands out.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// An empty buffer on a free slot, growing the arena by one chunk when
    /// no slot is free. The slot's bytes are whatever it held last; readers
    /// only ever see bytes the new writer has committed.
    pub(crate) fn take(self: &Arc<Self>) -> SegmentBuf {
        let addr = {
            let mut slots = self.lock();
            if slots.free.is_empty() {
                self.grow(&mut slots);
            }
            slots.free.pop().expect("a chunk holds at least one slot")
        };
        SegmentBuf {
            ptr: NonNull::new(std::ptr::with_exposed_provenance_mut(addr))
                .expect("arena slots are never null"),
            capacity: self.slot_bytes,
            len: AtomicUsize::new(0),
            arena: Arc::clone(self),
        }
    }

    /// Allocates one chunk and puts its slots on the free list.
    fn grow(&self, slots: &mut Slots) {
        // SAFETY: the layout's size is non-zero (at least one huge page).
        let base = unsafe { alloc(self.chunk) };
        if base.is_null() {
            handle_alloc_error(self.chunk);
        }
        advise_huge_pages(base, self.chunk.size());
        let base = base.expose_provenance();
        slots.chunks.push(base);
        let per_chunk = self.chunk.size() / self.slot_bytes;
        slots
            .free
            .extend((0..per_chunk).rev().map(|i| base + i * self.slot_bytes));
    }

    /// Puts a dropped buffer's slot back on the free list.
    fn give_back(&self, slot: NonNull<u8>) {
        self.lock().free.push(slot.as_ptr().addr());
    }

    /// The slot lists. Each update of them is one `push` or `pop`, so a
    /// panic elsewhere while they were held leaves them consistent and
    /// poisoning is ignored: a buffer dropped while unwinding still
    /// returns its slot.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for SegmentArena {
    fn drop(&mut self) {
        let slots = self.slots.get_mut().unwrap_or_else(PoisonError::into_inner);
        for &base in &slots.chunks {
            // SAFETY: allocated in `grow` with the identical layout. Every
            // buffer carved from it has dropped (each holds an `Arc` on
            // this arena), so nothing points into it any more.
            unsafe { dealloc(std::ptr::with_exposed_provenance_mut(base), self.chunk) };
        }
    }
}

/// Asks the kernel to back `[base, base + len)` with transparent huge
/// pages, so the first touch of a fresh segment faults 2 MiB at a time
/// instead of 4 KiB. Advice only: a refusal (THP set to `never`, a kernel
/// built without it) leaves ordinary pages and is ignored.
#[cfg(target_os = "linux")]
fn advise_huge_pages(base: *mut u8, len: usize) {
    // From <asm-generic/mman-common.h>.
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        // int madvise(void *addr, size_t length, int advice);
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    // SAFETY: `[base, base + len)` is one live, 2 MiB-aligned allocation of
    // this arena; MADV_HUGEPAGE changes how the kernel backs the range,
    // never its contents or its mapping. libc is already linked by std.
    let _ = unsafe { madvise(base.cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_base: *mut u8, _len: usize) {}

/// A fixed-capacity append-only byte buffer with an atomically published
/// committed length, on one slot of a [`SegmentArena`].
///
/// Invariants (enforced by the owning [`Segment`](crate::Segment)):
/// - exactly one writer appends at a time (`append` is reached only through
///   `&mut Segment`);
/// - bytes below the committed length are never written again;
/// - the slot never moves or shrinks, and no other buffer gets it until
///   this one drops.
pub(crate) struct SegmentBuf {
    ptr: NonNull<u8>,
    capacity: usize,
    /// Committed length: `Release`-stored by the writer after the bytes are
    /// in place, `Acquire`-loaded by readers.
    len: AtomicUsize,
    /// Where the slot goes back to; keeps its chunk allocated meanwhile.
    arena: Arc<SegmentArena>,
}

// SAFETY: the slot behind the raw pointer is owned (taken from the arena
// in `take`, returned in `drop`); all shared access is confined to the
// committed prefix, which is immutable and published with Release/Acquire
// on `len`. `capacity` is immutable and `arena` is `Send + Sync` itself.
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
        // immutable; the slot is not handed out again before `self` drops.
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
        self.arena.give_back(self.ptr);
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
        let buf = SegmentArena::new(64, 1).take();
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
        let buf = SegmentArena::new(4, 1).take();
        buf.append(b"hello");
    }

    #[test]
    fn map_roundtrip_and_unpublish() {
        let map = SegmentMap::new();
        let a = Arc::new(SegmentArena::new(8, 1).take());
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
        let buf = Arc::new(SegmentArena::new(1 << 16, 1).take());
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

    fn chunks(arena: &SegmentArena) -> usize {
        arena.lock().chunks.len()
    }

    #[test]
    fn dropped_buffers_recycle_their_slots() {
        let arena = SegmentArena::new(1 << 20, 4);
        assert_eq!(arena.chunk.size(), 4 << 20);
        assert_eq!(arena.chunk.align(), HUGE_PAGE_BYTES);
        let a = arena.take();
        let slot = a.ptr;
        assert_eq!(slot.as_ptr().addr() % HUGE_PAGE_BYTES, 0);
        drop(a);
        let b = arena.take();
        assert_eq!(b.ptr, slot, "the last slot returned is the first reused");
        let held: Vec<_> = (0..7).map(|_| arena.take()).collect();
        assert_eq!(chunks(&arena), 2, "eight buffers of a four-slot chunk");
        drop((b, held));
        assert_eq!(arena.lock().free.len(), 8);
    }

    #[test]
    fn chunks_are_sized_from_the_budget() {
        let bytes = |slot, slots| SegmentArena::new(slot, slots).chunk.size();
        assert_eq!(bytes(256, 4), HUGE_PAGE_BYTES, "at least one huge page");
        assert_eq!(bytes(1 << 20, 24), 24 << 20, "a budget under 32 MiB");
        assert_eq!(bytes(8 << 20, 1280), MAX_CHUNK_BYTES, "the 10 GB default");
        assert_eq!(bytes(48 << 20, 2), 48 << 20, "never less than a slot");
        assert_eq!(bytes(3 << 20, 1), 4 << 20, "whole huge pages");
    }

    /// A view outlives its segment's retirement: its bytes stay as they
    /// were and its slot is not handed out, while the log turns over its
    /// budget several times in recycled slots.
    #[test]
    fn a_held_view_pins_its_slot_while_the_log_recycles() {
        use crate::{LogConfig, Store, TableId};

        const TABLE: TableId = TableId(1);
        const SEGMENT: usize = 64 << 10;
        let mut store = Store::new(LogConfig {
            segment_bytes: SEGMENT,
            max_segments: 32, // 2 MiB: the budget is one chunk
            ordered_index: false,
        });
        let pinned = store.write(TABLE, b"pinned", &[0xab; 1000]).unwrap();
        let view = store
            .read_handle()
            .try_read(TABLE, b"pinned")
            .unwrap()
            .expect("just written")
            .value;
        let seg = pinned.position.segment;
        let slot = store.log().segment(seg).unwrap().as_bytes().as_ptr();
        store.write(TABLE, b"pinned", &[0xcd; 1000]).unwrap();

        let budget = store.log().budget_bytes() as u64;
        let mut value = [0u8; 1000];
        let mut i = 0u64;
        while store.log().total_appended_bytes() < 3 * budget || store.log().contains_segment(seg) {
            value.fill(i as u8);
            let key = format!("k{}", i % 200);
            store.write(TABLE, key.as_bytes(), &value).unwrap();
            assert!(
                view.iter().all(|&b| b == 0xab),
                "write {i} changed a held view"
            );
            for id in store.log().segment_ids() {
                if id != seg {
                    let other = store.log().segment(id).unwrap().as_bytes().as_ptr();
                    assert_ne!(other, slot, "write {i}: segment {id} took a pinned slot");
                }
            }
            i += 1;
            assert!(i < 100_000, "the pinned segment was never cleaned");
        }
        store.reclaim_now();
        assert_eq!(
            store.stats().limbo_held_by_views,
            1,
            "only the view holds it"
        );
        assert!(
            chunks(store.log().arena()) <= 2,
            "{:?}",
            store.log().arena()
        );

        drop(view);
        store.reclaim_now();
        assert_eq!(store.log().limbo_segments(), 0);
        assert!(store.log().arena().lock().free.contains(&slot.addr()));
    }

    /// The VMA holding a segment is eligible for transparent huge pages,
    /// unless the host has THP switched off. Reads files only.
    #[cfg(target_os = "linux")]
    #[test]
    fn arena_memory_is_huge_page_eligible() {
        match std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled") {
            Err(e) => {
                eprintln!("skipped: no transparent huge page control ({e})");
                return;
            }
            Ok(mode) if mode.contains("[never]") => {
                eprintln!(
                    "skipped: transparent huge pages are set to never ({})",
                    mode.trim()
                );
                return;
            }
            Ok(_) => {}
        }
        let buf = SegmentArena::new(1 << 20, 8).take();
        buf.append(b"resident");
        let addr = buf.ptr.as_ptr().addr();
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps readable");
        let mut inside = false;
        let mut eligible = None;
        for line in smaps.lines() {
            let range = line.split_once(' ').and_then(|(r, _)| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if let Some(flag) = line.strip_prefix("THPeligible:").filter(|_| inside) {
                eligible = Some(flag.trim().to_string());
            }
        }
        assert_eq!(eligible.as_deref(), Some("1"), "the VMA at {addr:#x}");
    }
}
