//! The `rmc-wire` frame: a length-prefixed binary envelope with a
//! versioned header, carrying one payload per frame over a byte stream.
//!
//! ```text
//!  0       4        5      6            10
//! +--------+--------+------+-------------+----------------+
//! | "RMCW" | version| kind | len (u32 LE)| payload (len B)|
//! +--------+--------+------+-------------+----------------+
//! ```
//!
//! The header is checked before the payload is trusted: a wrong magic or
//! version is a clean [`FrameError`] (the stream is desynchronized or
//! speaks a different protocol — the connection must be dropped), while an
//! *incomplete* frame is simply "need more bytes". [`FrameReader`] holds
//! partial input across reads, so torn TCP segments reassemble into
//! exactly the frames that were sent — the torn-frame property the codec
//! proptests pin down.

use std::fmt;

/// Frame magic: the four bytes every header starts with.
pub const MAGIC: [u8; 4] = *b"RMCW";

/// Wire protocol version stamped into (and required of) every header.
pub const VERSION: u8 = 1;

/// Header size in bytes: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 10;

/// Hard ceiling on a frame payload. Larger lengths are rejected before
/// any allocation: a corrupt or hostile length prefix must not OOM the
/// receiver.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// What a frame carries. `Hello` opens every dialed connection (it names
/// the dialing node so the acceptor can pool the connection for replies);
/// `Msg` wraps one encoded protocol message; the trace pair implements the
/// remote span dump without touching the protocol's `Msg` enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection opener: payload is the dialing node's id (u64 LE).
    Hello = 0,
    /// One `rmc_core::protocol::Msg`, encoded by [`crate::codec`].
    Msg = 1,
    /// Ask the receiving process for its span dump (empty payload).
    TraceRequest = 2,
    /// The dump text answering a [`FrameKind::TraceRequest`] (UTF-8): the
    /// node's `SpanRecorder::render`, one line per recorded event, well
    /// under [`MAX_PAYLOAD`] at the recorder's default capacity.
    TraceReply = 3,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Msg),
            2 => Some(FrameKind::TraceRequest),
            3 => Some(FrameKind::TraceReply),
            _ => None,
        }
    }
}

/// One reassembled frame, read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes, borrowed from the reader's buffer: valid until
    /// the reader is next fed, so a frame is decoded where it was read.
    pub payload: &'a [u8],
}

/// A malformed header. All variants are unrecoverable for the connection:
/// once framing is lost there is no way to find the next boundary, so the
/// reader reports the error and the caller drops the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte differs from [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no known [`FrameKind`].
    BadKind(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame: header + payload, ready for a single write.
///
/// # Errors
///
/// [`FrameError::Oversize`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversize(payload.len()));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental frame reassembly over a byte stream: feed whatever the
/// socket produced, pop complete frames. Bytes may arrive in any split —
/// mid-header, mid-payload, several frames at once — and reassemble
/// identically.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes fed so far; `buf[head..]` is not yet consumed as frames.
    buf: Vec<u8>,
    head: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly read bytes to the pending buffer. Frames popped
    /// since the last feed are dropped from its front here, in one move,
    /// not one move per frame — the only place the buffer is compacted, so
    /// a popped frame's payload stays where it is until then.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// A [`FrameError`] as soon as the buffered header is provably
    /// malformed — each header field is validated the moment it is
    /// complete, so a bad magic is detected after four bytes, not after a
    /// bogus length prefix has been waited on.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, FrameError> {
        let buf = &self.buf[self.head..];
        if buf.len() >= 4 {
            let magic: [u8; 4] = buf[..4].try_into().expect("4 bytes");
            if magic != MAGIC {
                return Err(FrameError::BadMagic(magic));
            }
        }
        if buf.len() >= 5 && buf[4] != VERSION {
            return Err(FrameError::BadVersion(buf[4]));
        }
        let kind = if buf.len() >= 6 {
            Some(FrameKind::from_u8(buf[5]).ok_or(FrameError::BadKind(buf[5]))?)
        } else {
            None
        };
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = buf[6..HEADER_LEN].try_into().expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversize(len));
        }
        if buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.head + HEADER_LEN;
        self.head = start + len;
        Ok(Some(Frame {
            kind: kind.expect("header complete"),
            payload: &self.buf[start..self.head],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let bytes = encode_frame(FrameKind::Msg, b"hello wire").unwrap();
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let f = r.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Msg);
        assert_eq!(f.payload, b"hello wire");
        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let mut stream = Vec::new();
        stream.extend(encode_frame(FrameKind::Hello, &7u64.to_le_bytes()).unwrap());
        stream.extend(encode_frame(FrameKind::Msg, &[0xAB; 300]).unwrap());
        stream.extend(encode_frame(FrameKind::TraceRequest, b"").unwrap());
        let mut r = FrameReader::new();
        let mut frames = Vec::new();
        for b in stream {
            r.feed(&[b]);
            while let Some(f) = r.next_frame().unwrap() {
                frames.push((f.kind, f.payload.to_vec()));
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].0, FrameKind::Hello);
        assert_eq!(frames[1].1.len(), 300);
        assert_eq!(frames[2].0, FrameKind::TraceRequest);
    }

    /// One read can hold dozens of frames (the readiness loop reads up to
    /// 64 KiB at a time): they pop in order, `pending` counts down frame by
    /// frame, and bytes fed between pops land behind what is still pending.
    #[test]
    fn many_frames_in_one_feed_pop_in_order() {
        let payload = |i: usize| vec![i as u8; 1 + (i * 37) % 1500];
        let frames: Vec<Vec<u8>> = (0..60)
            .map(|i| encode_frame(FrameKind::Msg, &payload(i)).unwrap())
            .collect();
        let (last, head) = frames.split_last().unwrap();
        let (last_a, last_b) = last.split_at(HEADER_LEN + 3);
        let mut r = FrameReader::new();
        r.feed(&[head.concat().as_slice(), last_a].concat());
        let mut pending = r.pending();
        for (i, bytes) in head.iter().enumerate() {
            let f = r.next_frame().unwrap().expect("a whole frame is buffered");
            assert_eq!(f.payload, payload(i), "frame {i}");
            pending -= bytes.len();
            assert_eq!(r.pending(), pending);
            if i == 30 {
                // Mid-drain feed: compaction must keep frames 31.. intact.
                r.feed(&last_b[..2]);
                pending += 2;
            }
        }
        assert_eq!(r.next_frame().unwrap(), None, "the last frame is torn");
        r.feed(&last_b[2..]);
        assert_eq!(r.next_frame().unwrap().unwrap().payload, payload(59));
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn truncated_input_is_need_more_not_error() {
        let bytes = encode_frame(FrameKind::Msg, &[1, 2, 3, 4]).unwrap();
        for cut in 0..bytes.len() {
            let mut r = FrameReader::new();
            r.feed(&bytes[..cut]);
            assert_eq!(r.next_frame().unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn bad_headers_fail_cleanly() {
        let mut r = FrameReader::new();
        r.feed(b"JUNKxxxxxx");
        assert_eq!(r.next_frame(), Err(FrameError::BadMagic(*b"JUNK")));

        let mut bytes = encode_frame(FrameKind::Msg, b"x").unwrap();
        bytes[4] = 9;
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert_eq!(r.next_frame(), Err(FrameError::BadVersion(9)));

        let mut bytes = encode_frame(FrameKind::Msg, b"x").unwrap();
        bytes[5] = 200;
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert_eq!(r.next_frame(), Err(FrameError::BadKind(200)));

        let mut bytes = encode_frame(FrameKind::Msg, b"x").unwrap();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert_eq!(r.next_frame(), Err(FrameError::Oversize(u32::MAX as usize)));
    }

    #[test]
    fn oversize_payload_rejected_at_encode() {
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert_eq!(
            encode_frame(FrameKind::Msg, &big),
            Err(FrameError::Oversize(MAX_PAYLOAD + 1))
        );
    }
}
