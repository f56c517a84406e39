//! On-log entry format: objects and tombstones, with checksums.
//!
//! Every record in a segment is serialized as
//!
//! ```text
//! +------+----------+---------+-----------+---------+----------+-----+-------+
//! | type | table id | key len | value len | version | checksum | key | value |
//! | 1 B  |   8 B    |  2 B    |   4 B     |  8 B    |   4 B    | ... |  ...  |
//! +------+----------+---------+-----------+---------+----------+-----+-------+
//! ```
//!
//! For tombstones the "value" is the 8-byte id of the segment that held the
//! deleted object — the cleaner uses it to decide when the tombstone itself
//! may be dropped (once that segment has been cleaned, no stale copy of the
//! object can ever be replayed).

use bytes::Bytes;

use crate::crc::Crc32c;
use crate::types::{SegmentId, TableId, Version};

/// Identifies one logical client operation for exactly-once semantics
/// (RIFL-style): retries of the same `(client, seq)` must not re-apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompletionId {
    /// The issuing client.
    pub client: u64,
    /// The client's operation sequence number.
    pub seq: u64,
}

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 1 + 8 + 2 + 4 + 8 + 4;
/// Offset of the checksum, the header's last field.
const CHECKSUM_AT: usize = HEADER_BYTES - 4;
/// Bytes a RIFL completion record adds after an object's value.
const COMPLETION_BYTES: usize = 16;

const TYPE_OBJECT: u8 = 0;
const TYPE_TOMBSTONE: u8 = 1;
/// Object carrying a RIFL completion record (16 extra trailing bytes).
const TYPE_OBJECT_RIFL: u8 = 2;

/// Largest supported key, in bytes.
pub const MAX_KEY_BYTES: usize = u16::MAX as usize;
/// Largest supported value, in bytes (1 MB, RAMCloud's object limit).
pub const MAX_VALUE_BYTES: usize = 1 << 20;

/// A deserialized log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// A live key-value object.
    Object(ObjectRecord),
    /// A deletion marker.
    Tombstone(TombstoneRecord),
}

/// A key-value object as stored in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Owning table.
    pub table: TableId,
    /// The key bytes.
    pub key: Bytes,
    /// The value bytes.
    pub value: Bytes,
    /// Version assigned at write time.
    pub version: Version,
    /// The client operation that produced this write, when exactly-once
    /// tracking is in use. Persisted with the entry so crash recovery can
    /// rebuild the duplicate-suppression table.
    pub completion: Option<CompletionId>,
}

/// A deletion marker as stored in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TombstoneRecord {
    /// Owning table.
    pub table: TableId,
    /// The deleted key.
    pub key: Bytes,
    /// Version of the object this tombstone kills.
    pub version: Version,
    /// Segment that held the killed object when the delete ran.
    pub dead_segment: SegmentId,
}

/// Errors produced when parsing a log entry from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEntryError {
    /// The buffer is shorter than the declared entry.
    Truncated,
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the entry.
        stored: u32,
        /// Checksum recomputed from the bytes.
        computed: u32,
    },
    /// The type byte is neither object nor tombstone.
    UnknownType(u8),
    /// A tombstone's value field has the wrong length.
    MalformedTombstone,
    /// A RIFL object's declared value is shorter than the completion
    /// record it must end with.
    MalformedObject,
}

impl std::fmt::Display for ParseEntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseEntryError::Truncated => write!(f, "log entry truncated"),
            ParseEntryError::ChecksumMismatch { stored, computed } => write!(
                f,
                "log entry checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            ParseEntryError::UnknownType(t) => write!(f, "unknown log entry type {t}"),
            ParseEntryError::MalformedTombstone => write!(f, "malformed tombstone payload"),
            ParseEntryError::MalformedObject => write!(
                f,
                "malformed object payload: value shorter than its completion record"
            ),
        }
    }
}

impl std::error::Error for ParseEntryError {}

/// Checksum of one serialized entry: everything but the checksum field.
fn entry_checksum(record: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(&record[..CHECKSUM_AT]);
    crc.update(&record[HEADER_BYTES..]);
    crc.finish()
}

/// Serialized size of an object record from its field sizes (`rifl`: it
/// carries a completion record) — known before the record is built.
pub(crate) fn object_len(key: usize, value: usize, rifl: bool) -> usize {
    HEADER_BYTES + key + value + if rifl { COMPLETION_BYTES } else { 0 }
}

/// Serialized size of a tombstone for a `key`-byte key.
pub(crate) fn tombstone_len(key: usize) -> usize {
    HEADER_BYTES + key + 8
}

/// One record's fields, borrowed from wherever they already are: what the
/// log lays out. The store writes from its caller's slices, and
/// [`LogEntry::serialize_into`] from the entry's own, through the one
/// writer, [`Record::write_into`]. The body is the one an [`EntryView`]
/// reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record<'a> {
    pub table: TableId,
    pub key: &'a [u8],
    pub version: Version,
    pub body: BodyView<'a>,
}

impl Record<'_> {
    /// Serialized size in bytes.
    pub(crate) fn len(&self) -> usize {
        match self.body {
            BodyView::Object { value, completion } => {
                object_len(self.key.len(), value.len(), completion.is_some())
            }
            BodyView::Tombstone { .. } => tombstone_len(self.key.len()),
        }
    }

    /// Lays the record out at the end of `out`: one pass to write it in
    /// place, one checksum pass over it.
    ///
    /// # Panics
    ///
    /// Panics if the key or value exceeds [`MAX_KEY_BYTES`] /
    /// [`MAX_VALUE_BYTES`].
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        assert!(self.key.len() <= MAX_KEY_BYTES, "key too large");
        let ty = match self.body {
            BodyView::Object { value, completion } => {
                assert!(value.len() <= MAX_VALUE_BYTES, "value too large");
                match completion {
                    Some(_) => TYPE_OBJECT_RIFL,
                    None => TYPE_OBJECT,
                }
            }
            BodyView::Tombstone { .. } => TYPE_TOMBSTONE,
        };
        let total = self.len();
        let value_len = total - HEADER_BYTES - self.key.len();
        out.reserve(total);
        let start = out.len();
        out.push(ty);
        out.extend_from_slice(&self.table.0.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&(value_len as u32).to_le_bytes());
        out.extend_from_slice(&self.version.0.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(self.key);
        match self.body {
            BodyView::Object { value, completion } => {
                out.extend_from_slice(value);
                // The completion id rides after the value bytes; the
                // declared value length includes it (the type byte tells
                // the parser to split it off again).
                if let Some(c) = completion {
                    out.extend_from_slice(&c.client.to_le_bytes());
                    out.extend_from_slice(&c.seq.to_le_bytes());
                }
            }
            BodyView::Tombstone { dead_segment } => {
                out.extend_from_slice(&dead_segment.0.to_le_bytes())
            }
        }
        let crc = entry_checksum(&out[start..]);
        out[start + CHECKSUM_AT..start + HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    }
}

impl LogEntry {
    /// The owning table.
    pub fn table(&self) -> TableId {
        match self {
            LogEntry::Object(o) => o.table,
            LogEntry::Tombstone(t) => t.table,
        }
    }

    /// The key bytes.
    pub fn key(&self) -> &Bytes {
        match self {
            LogEntry::Object(o) => &o.key,
            LogEntry::Tombstone(t) => &t.key,
        }
    }

    /// The record version.
    pub fn version(&self) -> Version {
        match self {
            LogEntry::Object(o) => o.version,
            LogEntry::Tombstone(t) => t.version,
        }
    }

    /// The entry's fields, borrowed, as the log lays them out.
    pub(crate) fn record(&self) -> Record<'_> {
        let body = match self {
            LogEntry::Object(o) => BodyView::Object {
                value: &o.value,
                completion: o.completion,
            },
            LogEntry::Tombstone(t) => BodyView::Tombstone {
                dead_segment: t.dead_segment,
            },
        };
        Record {
            table: self.table(),
            key: self.key(),
            version: self.version(),
            body,
        }
    }

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        self.record().len()
    }

    /// Serializes the entry, appending to `out`: one pass to lay the record
    /// out in place, one checksum pass over it.
    ///
    /// # Panics
    ///
    /// Panics if the key or value exceeds [`MAX_KEY_BYTES`] /
    /// [`MAX_VALUE_BYTES`]; the store validates sizes before reaching this
    /// point.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        self.record().write_into(out);
    }

    /// Parses the entry starting at the beginning of `buf`. Returns the
    /// entry and its total serialized length.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntryError`] when the buffer is truncated, corrupted,
    /// or structurally invalid.
    pub fn parse(buf: &[u8]) -> Result<(LogEntry, usize), ParseEntryError> {
        let view = EntryView::parse(buf)?;
        Ok((view.to_owned(), view.len))
    }
}

/// A borrowed look at one serialized entry: header fields decoded, key and
/// value still in place in the parsed buffer. What the store's own lookups
/// use — they need a key compare, a version and a size, not copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryView<'a> {
    /// Owning table.
    pub table: TableId,
    /// The key bytes, in place.
    pub key: &'a [u8],
    /// The record version.
    pub version: Version,
    /// What kind of record this is, and its payload.
    pub body: BodyView<'a>,
    /// Total serialized length.
    pub len: usize,
}

/// The type-specific part of an [`EntryView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyView<'a> {
    /// A live object.
    Object {
        /// The user value, in place (completion record excluded). It starts
        /// `HEADER_BYTES + key.len()` into the entry.
        value: &'a [u8],
        /// The RIFL completion record, if the object carries one.
        completion: Option<CompletionId>,
    },
    /// A deletion marker.
    Tombstone {
        /// Segment that held the killed object when the delete ran.
        dead_segment: SegmentId,
    },
}

impl<'a> EntryView<'a> {
    /// Views the entry at the start of `buf`, verifying its checksum.
    pub(crate) fn parse(buf: &'a [u8]) -> Result<Self, ParseEntryError> {
        Self::decode(buf, true)
    }

    /// Views the entry at the start of `buf` with no checksum pass, for the
    /// lock-free read path. Safe to use on committed segment bytes because
    /// entries are checksummed at append time and the committed prefix of a
    /// segment is immutable; every length is still bounds-checked against
    /// `buf`, so a stale offset can at worst produce a structured error,
    /// never an out-of-bounds access.
    pub(crate) fn parse_unverified(buf: &'a [u8]) -> Result<Self, ParseEntryError> {
        Self::decode(buf, false)
    }

    fn decode(buf: &'a [u8], verify: bool) -> Result<Self, ParseEntryError> {
        if buf.len() < HEADER_BYTES {
            return Err(ParseEntryError::Truncated);
        }
        let ty = buf[0];
        let table = TableId(u64::from_le_bytes(buf[1..9].try_into().unwrap()));
        let key_len = u16::from_le_bytes(buf[9..11].try_into().unwrap()) as usize;
        let value_len = u32::from_le_bytes(buf[11..15].try_into().unwrap()) as usize;
        let version = Version(u64::from_le_bytes(buf[15..23].try_into().unwrap()));
        let len = HEADER_BYTES + key_len + value_len;
        if buf.len() < len {
            return Err(ParseEntryError::Truncated);
        }
        if verify {
            let stored = u32::from_le_bytes(buf[CHECKSUM_AT..HEADER_BYTES].try_into().unwrap());
            let computed = entry_checksum(&buf[..len]);
            if computed != stored {
                return Err(ParseEntryError::ChecksumMismatch { stored, computed });
            }
        }
        let (key, value) = buf[HEADER_BYTES..len].split_at(key_len);
        let body = match ty {
            TYPE_OBJECT => BodyView::Object {
                value,
                completion: None,
            },
            TYPE_OBJECT_RIFL => {
                let Some(split) = value.len().checked_sub(COMPLETION_BYTES) else {
                    return Err(ParseEntryError::MalformedObject);
                };
                let (value, trailer) = value.split_at(split);
                BodyView::Object {
                    value,
                    completion: Some(CompletionId {
                        client: u64::from_le_bytes(trailer[..8].try_into().unwrap()),
                        seq: u64::from_le_bytes(trailer[8..].try_into().unwrap()),
                    }),
                }
            }
            TYPE_TOMBSTONE => {
                let Ok(dead_segment) = value.try_into() else {
                    return Err(ParseEntryError::MalformedTombstone);
                };
                BodyView::Tombstone {
                    dead_segment: SegmentId(u64::from_le_bytes(dead_segment)),
                }
            }
            other => return Err(ParseEntryError::UnknownType(other)),
        };
        Ok(EntryView {
            table,
            key,
            version,
            body,
            len,
        })
    }

    /// True when this is the object stored under `(table, key)`.
    pub(crate) fn is_object(&self, table: TableId, key: &[u8]) -> bool {
        matches!(self.body, BodyView::Object { .. }) && self.table == table && self.key == key
    }

    /// Copies the entry out of the buffer.
    pub(crate) fn to_owned(self) -> LogEntry {
        let (table, version) = (self.table, self.version);
        let key = Bytes::copy_from_slice(self.key);
        match self.body {
            BodyView::Object { value, completion } => LogEntry::Object(ObjectRecord {
                table,
                key,
                value: Bytes::copy_from_slice(value),
                version,
                completion,
            }),
            BodyView::Tombstone { dead_segment } => LogEntry::Tombstone(TombstoneRecord {
                table,
                key,
                version,
                dead_segment,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> LogEntry {
        LogEntry::Object(ObjectRecord {
            table: TableId(7),
            key: Bytes::from_static(b"user4312"),
            value: Bytes::from(vec![0xAB; 100]),
            version: Version(3),
            completion: None,
        })
    }

    fn sample_tombstone() -> LogEntry {
        LogEntry::Tombstone(TombstoneRecord {
            table: TableId(7),
            key: Bytes::from_static(b"user4312"),
            version: Version(4),
            dead_segment: SegmentId(12),
        })
    }

    #[test]
    fn object_roundtrip() {
        let entry = sample_object();
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        assert_eq!(buf.len(), entry.serialized_len());
        let (parsed, len) = LogEntry::parse(&buf).unwrap();
        assert_eq!(parsed, entry);
        assert_eq!(len, buf.len());
    }

    #[test]
    fn tombstone_roundtrip() {
        let entry = sample_tombstone();
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        let (parsed, _) = LogEntry::parse(&buf).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn parse_consumes_exact_length_with_trailing_data() {
        let mut buf = Vec::new();
        sample_object().serialize_into(&mut buf);
        let object_len = buf.len();
        sample_tombstone().serialize_into(&mut buf);
        let (first, len) = LogEntry::parse(&buf).unwrap();
        assert_eq!(first, sample_object());
        assert_eq!(len, object_len);
        let (second, _) = LogEntry::parse(&buf[len..]).unwrap();
        assert_eq!(second, sample_tombstone());
    }

    #[test]
    fn corruption_detected() {
        let mut buf = Vec::new();
        sample_object().serialize_into(&mut buf);
        // Flip a byte in the value.
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        match LogEntry::parse(&buf) {
            Err(ParseEntryError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        sample_object().serialize_into(&mut buf);
        buf.truncate(buf.len() - 1);
        assert_eq!(LogEntry::parse(&buf), Err(ParseEntryError::Truncated));
        assert_eq!(LogEntry::parse(&buf[..5]), Err(ParseEntryError::Truncated));
    }

    /// Recomputes the checksum of a hand-edited entry.
    fn reseal(buf: &mut [u8]) {
        let crc = entry_checksum(buf);
        buf[CHECKSUM_AT..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn unknown_type_detected() {
        let mut buf = Vec::new();
        sample_object().serialize_into(&mut buf);
        buf[0] = 99;
        // Checksum now mismatches too; force it valid again by recomputing.
        reseal(&mut buf);
        assert_eq!(LogEntry::parse(&buf), Err(ParseEntryError::UnknownType(99)));
    }

    #[test]
    fn rifl_object_shorter_than_its_completion_record_is_a_malformed_object() {
        // A plain object whose 10-byte value is relabelled as a RIFL object:
        // structurally complete and correctly checksummed, but the declared
        // value cannot hold the 16-byte completion record.
        let entry = LogEntry::Object(ObjectRecord {
            table: TableId(7),
            key: Bytes::from_static(b"k"),
            value: Bytes::from(vec![1u8; 10]),
            version: Version(1),
            completion: None,
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        buf[0] = TYPE_OBJECT_RIFL;
        reseal(&mut buf);
        assert_eq!(LogEntry::parse(&buf), Err(ParseEntryError::MalformedObject));
        assert_eq!(
            EntryView::parse_unverified(&buf),
            Err(ParseEntryError::MalformedObject)
        );
        assert!(ParseEntryError::MalformedObject
            .to_string()
            .contains("object"));
    }

    #[test]
    fn empty_key_and_value_supported() {
        let entry = LogEntry::Object(ObjectRecord {
            table: TableId(0),
            key: Bytes::new(),
            value: Bytes::new(),
            version: Version::FIRST,
            completion: None,
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        assert_eq!(buf.len(), HEADER_BYTES);
        let (parsed, _) = LogEntry::parse(&buf).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn view_borrows_key_and_value_in_place() {
        let mut buf = Vec::new();
        sample_object().serialize_into(&mut buf);
        let view = EntryView::parse(&buf).unwrap();
        assert_eq!(view.table, TableId(7));
        assert_eq!(view.key, b"user4312");
        assert_eq!(view.version, Version(3));
        assert_eq!(view.len, buf.len());
        assert!(view.is_object(TableId(7), b"user4312"));
        assert!(!view.is_object(TableId(8), b"user4312"));
        let BodyView::Object { value, completion } = view.body else {
            panic!("{view:?}")
        };
        assert_eq!(completion, None);
        assert_eq!(value, &buf[HEADER_BYTES + view.key.len()..]);
        assert!(buf.as_ptr_range().contains(&value.as_ptr()));
        assert_eq!(EntryView::parse_unverified(&buf), Ok(view));
    }

    #[test]
    fn view_strips_rifl_trailer() {
        let entry = LogEntry::Object(ObjectRecord {
            table: TableId(2),
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"payload"),
            version: Version(9),
            completion: Some(CompletionId { client: 4, seq: 11 }),
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        let view = EntryView::parse_unverified(&buf).unwrap();
        assert_eq!(
            view.body,
            BodyView::Object {
                value: b"payload",
                completion: Some(CompletionId { client: 4, seq: 11 }),
            }
        );
        assert_eq!(HEADER_BYTES + 1 + b"payload".len() + 16, view.len);
    }

    #[test]
    fn unverified_view_sees_tombstones_and_bounds_checks() {
        let mut buf = Vec::new();
        sample_tombstone().serialize_into(&mut buf);
        let view = EntryView::parse_unverified(&buf).unwrap();
        assert!(!view.is_object(TableId(7), b"user4312"));
        assert_eq!(
            view.body,
            BodyView::Tombstone {
                dead_segment: SegmentId(12)
            }
        );
        let mut obj = Vec::new();
        sample_object().serialize_into(&mut obj);
        assert_eq!(
            EntryView::parse_unverified(&obj[..obj.len() - 1]),
            Err(ParseEntryError::Truncated)
        );
        assert_eq!(
            EntryView::parse_unverified(&obj[..5]),
            Err(ParseEntryError::Truncated)
        );
        // Only the verified view notices a flipped value byte.
        let last = obj.len() - 1;
        obj[last] ^= 1;
        assert!(EntryView::parse_unverified(&obj).is_ok());
        assert!(matches!(
            EntryView::parse(&obj),
            Err(ParseEntryError::ChecksumMismatch { .. })
        ));
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The log format is frozen: these are the bytes the commit before the
    /// table-driven checksum (8ee9d25) serialized, so segments replicated or
    /// staged on disk by an older build still parse, and re-serialize to the
    /// same bytes.
    #[test]
    fn entries_written_before_the_table_kernel_parse_and_reencode_identically() {
        let object = unhex(concat!(
            "02070000000000000008003800000003000000000000003bbf9e9f",
            "7573657234333132",
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627",
            "04000000000000000b00000000000000",
        ));
        let tombstone = unhex(concat!(
            "0107000000000000000800080000000400000000000000332e4218",
            "7573657234333132",
            "0c00000000000000",
        ));
        let want_object = LogEntry::Object(ObjectRecord {
            table: TableId(7),
            key: Bytes::from_static(b"user4312"),
            value: Bytes::from((0u8..40).collect::<Vec<u8>>()),
            version: Version(3),
            completion: Some(CompletionId { client: 4, seq: 11 }),
        });
        for (golden, want) in [(object, want_object), (tombstone, sample_tombstone())] {
            assert_eq!(LogEntry::parse(&golden), Ok((want.clone(), golden.len())));
            let mut again = Vec::new();
            want.serialize_into(&mut again);
            assert_eq!(again, golden);
        }
    }
}
