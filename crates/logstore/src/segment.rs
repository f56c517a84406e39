//! Fixed-size append-only segments.
//!
//! A master's log is a chain of segments (8 MB in RAMCloud; configurable
//! here so tests can use tiny ones). A segment only ever grows at the tail;
//! once closed it is immutable until the cleaner frees it. Segments are also
//! the unit of replication: backups receive and store whole segments.
//!
//! Segment bytes live in a pinned, refcounted [`SegmentBuf`]: a
//! fixed-capacity slot of the log's [`SegmentArena`] that never moves, with
//! the committed length published atomically. That is what lets the
//! lock-free read path hand out zero-copy [`ValueView`](crate::ValueView)s
//! into live segments — a view clones the buffer's `Arc` and the bytes stay
//! valid (and immutable) even after the cleaner retires the segment, until
//! the view drops.

use crate::entry::{EntryView, LogEntry, ParseEntryError};
use crate::segbuf::{SegmentArena, SegmentBuf};
use crate::types::SegmentId;
use std::sync::Arc;

/// The segment size hard-coded in RAMCloud and used throughout the paper.
pub const DEFAULT_SEGMENT_BYTES: usize = 8 << 20;

/// An append-only byte region holding serialized [`LogEntry`] records.
#[derive(Debug)]
pub struct Segment {
    id: SegmentId,
    buf: Arc<SegmentBuf>,
    closed: bool,
}

impl Clone for Segment {
    /// Clones share the underlying buffer (cheap: one refcount bump). Only
    /// closed segments are ever cloned — the cleaner snapshots its victims —
    /// so sharing is indistinguishable from a deep copy.
    fn clone(&self) -> Self {
        debug_assert!(self.closed, "cloning an open segment shares its tail");
        Segment {
            id: self.id,
            buf: Arc::clone(&self.buf),
            closed: self.closed,
        }
    }
}

/// Error returned when an entry's bytes do not fit in what a segment has free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFullError {
    /// Bytes still free in the segment.
    pub free: usize,
    /// Bytes the entry needed.
    pub needed: usize,
}

impl std::fmt::Display for SegmentFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment full: {} bytes free, {} needed",
            self.free, self.needed
        )
    }
}

impl std::error::Error for SegmentFullError {}

impl Segment {
    /// Creates an empty open segment on a free slot of `arena`.
    ///
    /// # Panics
    ///
    /// Panics if the arena's slots cannot hold even a minimal entry header.
    pub(crate) fn new(id: SegmentId, arena: &Arc<SegmentArena>) -> Self {
        assert!(
            arena.slot_bytes() >= crate::entry::HEADER_BYTES,
            "segment capacity {} smaller than an entry header",
            arena.slot_bytes()
        );
        Segment {
            id,
            buf: Arc::new(arena.take()),
            closed: false,
        }
    }

    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes still free.
    pub fn free(&self) -> usize {
        self.buf.capacity() - self.buf.len()
    }

    /// True once [`Segment::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Marks the segment immutable (it became a non-head segment).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The shared buffer, for publication in the reader-side segment map
    /// and for limbo refcount checks.
    pub(crate) fn shared_buf(&self) -> &Arc<SegmentBuf> {
        &self.buf
    }

    /// Appends serialized entry bytes (a straight memcpy), returning the
    /// byte offset. The log lays a new record out once and appends it here;
    /// the cleaner relocates entries into survivor segments the same way,
    /// without re-serializing. `bytes` must be exactly one valid serialized
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentFullError`] when the bytes do not fit.
    ///
    /// # Panics
    ///
    /// Panics if the segment is closed — appending to a closed segment is a
    /// logic error in the caller, never a runtime condition.
    pub(crate) fn append_raw(&mut self, bytes: &[u8]) -> Result<u32, SegmentFullError> {
        assert!(!self.closed, "append to closed segment {}", self.id);
        if bytes.len() > self.free() {
            return Err(SegmentFullError {
                free: self.free(),
                needed: bytes.len(),
            });
        }
        Ok(self.buf.append(bytes) as u32)
    }

    /// Reads the entry at `offset`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseEntryError`] if `offset` does not point at a valid
    /// entry (truncated, corrupt, or out of range).
    pub fn read_at(&self, offset: u32) -> Result<LogEntry, ParseEntryError> {
        self.view_at(offset).map(|view| view.to_owned())
    }

    /// Borrows the entry at `offset` in place, checksum verified: what
    /// [`Segment::read_at`] copies out of.
    pub(crate) fn view_at(&self, offset: u32) -> Result<EntryView<'_>, ParseEntryError> {
        let committed = self.buf.committed();
        let start = offset as usize;
        if start >= committed.len() {
            return Err(ParseEntryError::Truncated);
        }
        EntryView::parse(&committed[start..])
    }

    /// Iterates over `(offset, entry)` pairs from the beginning.
    pub fn iter(&self) -> SegmentIter<'_> {
        SegmentIter {
            segment: self,
            offset: 0,
        }
    }

    /// The raw serialized bytes (what a backup stores / recovery replays).
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.committed()
    }
}

/// Iterator over the entries of a [`Segment`].
#[derive(Debug)]
pub struct SegmentIter<'a> {
    segment: &'a Segment,
    offset: usize,
}

impl Iterator for SegmentIter<'_> {
    type Item = (u32, LogEntry);

    fn next(&mut self) -> Option<Self::Item> {
        let committed = self.segment.buf.committed();
        if self.offset >= committed.len() {
            return None;
        }
        match LogEntry::parse(&committed[self.offset..]) {
            Ok((entry, len)) => {
                let off = self.offset as u32;
                self.offset += len;
                Some((off, entry))
            }
            // A segment is only ever written through `append`, so a parse
            // failure means memory corruption; surface it loudly in debug
            // builds and end iteration in release.
            Err(e) => {
                debug_assert!(false, "corrupt segment {}: {e}", self.segment.id);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectRecord;
    use crate::types::{TableId, Version};
    use bytes::Bytes;

    /// Lays `entry` out and appends it.
    fn append(seg: &mut Segment, entry: &LogEntry) -> Result<u32, SegmentFullError> {
        let mut bytes = Vec::new();
        entry.serialize_into(&mut bytes);
        seg.append_raw(&bytes)
    }

    fn obj(key: &str, val_len: usize, version: u64) -> LogEntry {
        LogEntry::Object(ObjectRecord {
            table: TableId(1),
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::from(vec![7u8; val_len]),
            version: Version(version),
            completion: None,
        })
    }

    #[test]
    fn append_then_read() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(4096, 1));
        let e = obj("alpha", 64, 1);
        let off = append(&mut seg, &e).unwrap();
        assert_eq!(seg.read_at(off).unwrap(), e);
    }

    #[test]
    fn multiple_entries_iterate_in_order() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(4096, 1));
        let entries: Vec<LogEntry> = (0..5).map(|i| obj(&format!("k{i}"), 10, i + 1)).collect();
        for e in &entries {
            append(&mut seg, e).unwrap();
        }
        let walked: Vec<LogEntry> = seg.iter().map(|(_, e)| e).collect();
        assert_eq!(walked, entries);
    }

    #[test]
    fn offsets_from_iteration_readable() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(4096, 1));
        for i in 0..4 {
            append(&mut seg, &obj(&format!("key{i}"), 20, 1)).unwrap();
        }
        for (off, e) in seg.iter() {
            assert_eq!(seg.read_at(off).unwrap(), e);
        }
    }

    #[test]
    fn full_segment_rejects_append() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(128, 1));
        append(&mut seg, &obj("a", 50, 1)).unwrap();
        let err = append(&mut seg, &obj("b", 50, 1)).unwrap_err();
        assert!(err.needed > err.free);
    }

    #[test]
    #[should_panic(expected = "append to closed segment")]
    fn closed_segment_append_panics() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(4096, 1));
        seg.close();
        let _ = append(&mut seg, &obj("a", 1, 1));
    }

    #[test]
    fn read_past_end_is_error() {
        let seg = Segment::new(SegmentId(0), &SegmentArena::new(128, 1));
        assert!(seg.read_at(64).is_err());
    }

    #[test]
    fn free_accounting() {
        let mut seg = Segment::new(SegmentId(0), &SegmentArena::new(1000, 1));
        let e = obj("k", 100, 1);
        let sz = e.serialized_len();
        append(&mut seg, &e).unwrap();
        assert_eq!(seg.free(), 1000 - sz);
        assert_eq!(seg.len(), sz);
    }

    #[test]
    fn clone_of_closed_segment_shares_bytes() {
        let mut seg = Segment::new(SegmentId(1), &SegmentArena::new(4096, 1));
        append(&mut seg, &obj("k", 32, 1)).unwrap();
        seg.close();
        let snap = seg.clone();
        assert_eq!(snap.as_bytes(), seg.as_bytes());
        assert_eq!(snap.as_bytes().as_ptr(), seg.as_bytes().as_ptr());
    }
}
