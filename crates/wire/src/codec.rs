//! Hand-rolled binary codec for [`rmc_core::protocol::Msg`]: the stable
//! wire encoding every frame of kind [`crate::frame::FrameKind::Msg`]
//! carries.
//!
//! Layout rules (all integers little-endian):
//!
//! - every enum is a one-byte variant tag in declaration order,
//! - integers are `u64`,
//! - byte strings are a `u32` length prefix followed by the bytes,
//! - sequences are a `u32` element count followed by the elements,
//! - booleans are one byte, `0` or `1` (anything else is a decode error).
//!
//! A message travels inside an *envelope* that prepends the sending node's
//! id — the receiving node loop needs `(from, msg)` exactly as the
//! in-process engines deliver it. Decoding is total: any byte string
//! either decodes to the value that produced it (the round-trip proptests)
//! or fails with a clean [`CodecError`] — never a panic, never a
//! misparse that silently yields a different message.

use std::fmt;
use std::sync::Arc;

use rmc_core::protocol::{ClientOp, Msg, Reply};
use rmc_runtime::NodeId;

/// A malformed payload. Unlike a [`crate::frame::FrameError`] this is
/// *recoverable* for the connection: the frame boundary is intact, so the
/// receiver counts the error and skips the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value did.
    UnexpectedEof,
    /// An enum tag named no known variant.
    BadTag(&'static str, u8),
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "payload truncated mid-value"),
            CodecError::BadTag(what, t) => write!(f, "unknown {what} tag {t}"),
            CodecError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_usizes(out: &mut Vec<u8>, xs: &[usize]) {
    put_count(out, xs.len());
    for &x in xs {
        put_u64(out, x as u64);
    }
}

fn put_op(out: &mut Vec<u8>, op: &ClientOp) {
    match op {
        ClientOp::Put { key, value } => {
            out.push(0);
            put_bytes(out, key);
            put_bytes(out, value);
        }
        ClientOp::Get { key } => {
            out.push(1);
            put_bytes(out, key);
        }
        ClientOp::Del { key } => {
            out.push(2);
            put_bytes(out, key);
        }
    }
}

fn put_reply(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Done { version } => {
            out.push(0);
            put_u64(out, *version);
        }
        Reply::Value(v) => {
            out.push(1);
            match v {
                None => out.push(0),
                Some(bytes) => {
                    out.push(1);
                    put_bytes(out, bytes);
                }
            }
        }
        Reply::WrongOwner => out.push(2),
    }
}

/// The bytes [`encode_msg`] writes for `msg`, so its buffer is sized once.
fn encoded_len(msg: &Msg) -> usize {
    const U64: usize = 8;
    const COUNT: usize = 4;
    let bytes = |b: &[u8]| COUNT + b.len();
    let usizes = |xs: &[usize]| COUNT + U64 * xs.len();
    let body = match msg {
        Msg::Request { op, .. } => {
            U64 + 1
                + match op {
                    ClientOp::Put { key, value } => bytes(key) + bytes(value),
                    ClientOp::Get { key } | ClientOp::Del { key } => bytes(key),
                }
        }
        Msg::Response { reply, .. } => {
            U64 + 1
                + match reply {
                    Reply::Done { .. } => U64,
                    Reply::Value(v) => 1 + v.as_deref().map_or(0, bytes),
                    Reply::WrongOwner => 0,
                }
        }
        Msg::Replicate { bytes: b, .. } => U64 + bytes(b) + 2 * U64,
        Msg::ReplicateAck { .. } | Msg::Heartbeat { .. } | Msg::TakeOverDone { .. } => 2 * U64,
        Msg::MapRequest | Msg::StatsRequest => 0,
        Msg::TakeOver {
            buckets, survivors, ..
        } => U64 + usizes(buckets) + usizes(survivors) + U64,
        Msg::FetchSegments { .. } => U64,
        Msg::SegmentData { segments, .. } => {
            U64 + COUNT + segments.iter().map(|(_, b)| U64 + bytes(b)).sum::<usize>()
        }
        Msg::MapUpdate { owners, alive, .. } => U64 + usizes(owners) + COUNT + alive.len(),
        Msg::StatsReply { stats } => {
            COUNT
                + stats
                    .iter()
                    .map(|(name, _)| bytes(name.as_bytes()) + U64)
                    .sum::<usize>()
        }
    };
    // The sender's id, then the variant tag.
    U64 + 1 + body
}

/// Encodes `(from, msg)` as a `Msg`-frame payload.
pub fn encode_msg(from: NodeId, msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(msg));
    put_u64(&mut out, from.0 as u64);
    match msg {
        Msg::Request { seq, op } => {
            out.push(0);
            put_u64(&mut out, *seq);
            put_op(&mut out, op);
        }
        Msg::Response { seq, reply } => {
            out.push(1);
            put_u64(&mut out, *seq);
            put_reply(&mut out, reply);
        }
        Msg::Replicate {
            segment,
            bytes,
            token,
        } => {
            out.push(2);
            put_u64(&mut out, *segment);
            put_bytes(&mut out, bytes);
            put_u64(&mut out, token.0);
            put_u64(&mut out, token.1);
        }
        Msg::ReplicateAck { token } => {
            out.push(3);
            put_u64(&mut out, token.0);
            put_u64(&mut out, token.1);
        }
        Msg::Heartbeat { epoch, map_version } => {
            out.push(4);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *map_version);
        }
        Msg::MapRequest => out.push(5),
        Msg::TakeOver {
            crashed,
            buckets,
            survivors,
            round,
        } => {
            out.push(6);
            put_u64(&mut out, *crashed as u64);
            put_usizes(&mut out, buckets);
            put_usizes(&mut out, survivors);
            put_u64(&mut out, *round);
        }
        Msg::FetchSegments { crashed } => {
            out.push(7);
            put_u64(&mut out, *crashed as u64);
        }
        Msg::SegmentData { crashed, segments } => {
            out.push(8);
            put_u64(&mut out, *crashed as u64);
            put_count(&mut out, segments.len());
            for (seg, bytes) in segments {
                put_u64(&mut out, *seg);
                put_bytes(&mut out, bytes);
            }
        }
        Msg::TakeOverDone { crashed, round } => {
            out.push(9);
            put_u64(&mut out, *crashed as u64);
            put_u64(&mut out, *round);
        }
        Msg::MapUpdate {
            version,
            owners,
            alive,
        } => {
            out.push(10);
            put_u64(&mut out, *version);
            put_usizes(&mut out, owners);
            put_count(&mut out, alive.len());
            for &a in alive {
                out.push(u8::from(a));
            }
        }
        Msg::StatsRequest => out.push(11),
        Msg::StatsReply { stats } => {
            out.push(12);
            put_count(&mut out, stats.len());
            for (name, value) in stats {
                put_bytes(&mut out, name.as_bytes());
                put_u64(&mut out, *value);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    b: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.b.len() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn count(&mut self) -> Result<usize, CodecError> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().expect("4")) as usize;
        // A count can never legitimately exceed the remaining payload
        // (every element is at least one byte); rejecting here keeps a
        // corrupt prefix from provoking a huge allocation.
        if n > self.b.len() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    /// A byte string copied once, straight into the buffer its
    /// receivers share.
    fn shared(&mut self) -> Result<Arc<[u8]>, CodecError> {
        let n = self.count()?;
        Ok(Arc::from(self.take(n)?))
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    fn boolean(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadBool(b)),
        }
    }

    fn usizes(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()? as usize);
        }
        Ok(out)
    }

    fn op(&mut self) -> Result<ClientOp, CodecError> {
        match self.u8()? {
            0 => Ok(ClientOp::Put {
                key: self.bytes()?,
                value: self.bytes()?,
            }),
            1 => Ok(ClientOp::Get { key: self.bytes()? }),
            2 => Ok(ClientOp::Del { key: self.bytes()? }),
            t => Err(CodecError::BadTag("client op", t)),
        }
    }

    fn reply(&mut self) -> Result<Reply, CodecError> {
        match self.u8()? {
            0 => Ok(Reply::Done {
                version: self.u64()?,
            }),
            1 => Ok(Reply::Value(match self.u8()? {
                0 => None,
                1 => Some(self.bytes()?),
                t => Err(CodecError::BadTag("option", t))?,
            })),
            2 => Ok(Reply::WrongOwner),
            t => Err(CodecError::BadTag("reply", t)),
        }
    }
}

/// Decodes a `Msg`-frame payload back to `(from, msg)`.
///
/// # Errors
///
/// A [`CodecError`] describing the first malformation found; trailing
/// bytes after a complete message are rejected too.
pub fn decode_msg(payload: &[u8]) -> Result<(NodeId, Msg), CodecError> {
    let mut c = Cursor { b: payload };
    let from = NodeId(c.u64()? as usize);
    let msg = match c.u8()? {
        0 => Msg::Request {
            seq: c.u64()?,
            op: c.op()?,
        },
        1 => Msg::Response {
            seq: c.u64()?,
            reply: c.reply()?,
        },
        2 => Msg::Replicate {
            segment: c.u64()?,
            bytes: c.shared()?,
            token: (c.u64()?, c.u64()?),
        },
        3 => Msg::ReplicateAck {
            token: (c.u64()?, c.u64()?),
        },
        4 => Msg::Heartbeat {
            epoch: c.u64()?,
            map_version: c.u64()?,
        },
        5 => Msg::MapRequest,
        6 => Msg::TakeOver {
            crashed: c.u64()? as usize,
            buckets: c.usizes()?,
            survivors: c.usizes()?,
            round: c.u64()?,
        },
        7 => Msg::FetchSegments {
            crashed: c.u64()? as usize,
        },
        8 => {
            let crashed = c.u64()? as usize;
            let n = c.count()?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push((c.u64()?, c.bytes()?));
            }
            Msg::SegmentData { crashed, segments }
        }
        9 => Msg::TakeOverDone {
            crashed: c.u64()? as usize,
            round: c.u64()?,
        },
        10 => {
            let version = c.u64()?;
            let owners = c.usizes()?;
            let n = c.count()?;
            let mut alive = Vec::with_capacity(n);
            for _ in 0..n {
                alive.push(c.boolean()?);
            }
            Msg::MapUpdate {
                version,
                owners,
                alive,
            }
        }
        11 => Msg::StatsRequest,
        12 => {
            let n = c.count()?;
            let mut stats = Vec::with_capacity(n);
            for _ in 0..n {
                stats.push((c.string()?, c.u64()?));
            }
            Msg::StatsReply { stats }
        }
        t => return Err(CodecError::BadTag("msg", t)),
    };
    if !c.b.is_empty() {
        return Err(CodecError::TrailingBytes(c.b.len()));
    }
    Ok((from, msg))
}

/// Encodes a [`crate::frame::FrameKind::Hello`] payload: the dialer's id.
pub fn encode_hello(from: NodeId) -> Vec<u8> {
    (from.0 as u64).to_le_bytes().to_vec()
}

/// Decodes a `Hello` payload.
///
/// # Errors
///
/// [`CodecError`] when the payload is not exactly one u64.
pub fn decode_hello(payload: &[u8]) -> Result<NodeId, CodecError> {
    let mut c = Cursor { b: payload };
    let id = NodeId(c.u64()? as usize);
    if !c.b.is_empty() {
        return Err(CodecError::TrailingBytes(c.b.len()));
    }
    Ok(id)
}

/// Encodes a `TraceRequest` payload: the asking node's id (so the reply
/// can be routed without relying on `Hello` ordering).
pub fn encode_trace_request(from: NodeId) -> Vec<u8> {
    encode_hello(from)
}

/// Decodes a `TraceRequest` payload.
///
/// # Errors
///
/// [`CodecError`] when the payload is not exactly one u64.
pub fn decode_trace_request(payload: &[u8]) -> Result<NodeId, CodecError> {
    decode_hello(payload)
}

/// Encodes a `TraceReply` payload: the answering node's id + UTF-8 dump.
pub fn encode_trace_reply(from: NodeId, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + text.len());
    put_u64(&mut out, from.0 as u64);
    out.extend_from_slice(text.as_bytes());
    out
}

/// Decodes a `TraceReply` payload.
///
/// # Errors
///
/// [`CodecError`] on a truncated id or invalid UTF-8 text.
pub fn decode_trace_reply(payload: &[u8]) -> Result<(NodeId, String), CodecError> {
    let mut c = Cursor { b: payload };
    let from = NodeId(c.u64()? as usize);
    let text = std::str::from_utf8(c.b).map_err(|_| CodecError::BadUtf8)?;
    Ok((from, text.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FrameKind, FrameReader};
    use proptest::prelude::*;

    fn key() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..24)
    }

    fn op() -> impl Strategy<Value = ClientOp> {
        prop_oneof![
            (key(), key()).prop_map(|(key, value)| ClientOp::Put { key, value }),
            key().prop_map(|key| ClientOp::Get { key }),
            key().prop_map(|key| ClientOp::Del { key }),
        ]
    }

    fn reply() -> impl Strategy<Value = Reply> {
        prop_oneof![
            any::<u64>().prop_map(|version| Reply::Done { version }),
            proptest::option::of(key()).prop_map(Reply::Value),
            Just(Reply::WrongOwner),
        ]
    }

    fn usizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..1024, 0..12)
    }

    fn stat_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| char::from(b'a' + b % 26))
                .collect()
        })
    }

    fn msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            (any::<u64>(), op()).prop_map(|(seq, op)| Msg::Request { seq, op }),
            (any::<u64>(), reply()).prop_map(|(seq, reply)| Msg::Response { seq, reply }),
            (any::<u64>(), key(), any::<u64>(), any::<u64>()).prop_map(|(segment, bytes, a, b)| {
                Msg::Replicate {
                    segment,
                    bytes: bytes.into(),
                    token: (a, b),
                }
            }),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Msg::ReplicateAck { token: (a, b) }),
            (any::<u64>(), any::<u64>())
                .prop_map(|(epoch, map_version)| Msg::Heartbeat { epoch, map_version }),
            Just(Msg::MapRequest),
            (0usize..16, usizes(), usizes(), any::<u64>()).prop_map(
                |(crashed, buckets, survivors, round)| Msg::TakeOver {
                    crashed,
                    buckets,
                    survivors,
                    round,
                }
            ),
            (0usize..16).prop_map(|crashed| Msg::FetchSegments { crashed }),
            (
                0usize..16,
                proptest::collection::vec((any::<u64>(), key()), 0..6)
            )
                .prop_map(|(crashed, segments)| Msg::SegmentData { crashed, segments }),
            (0usize..16, any::<u64>())
                .prop_map(|(crashed, round)| Msg::TakeOverDone { crashed, round }),
            (
                any::<u64>(),
                usizes(),
                proptest::collection::vec(any::<bool>(), 0..12)
            )
                .prop_map(|(version, owners, alive)| Msg::MapUpdate {
                    version,
                    owners,
                    alive,
                }),
            Just(Msg::StatsRequest),
            proptest::collection::vec((stat_name(), any::<u64>()), 0..6)
                .prop_map(|stats| Msg::StatsReply { stats }),
        ]
    }

    proptest! {
        #[test]
        fn msg_roundtrips(from in 0usize..64, m in msg()) {
            let bytes = encode_msg(NodeId(from), &m);
            prop_assert_eq!(bytes.len(), encoded_len(&m), "sized once, exactly");
            let (f, decoded) = decode_msg(&bytes).expect("own encoding decodes");
            prop_assert_eq!(f, NodeId(from));
            prop_assert_eq!(decoded, m);
        }

        /// The torn-frame property: a stream of frames fed to the reader
        /// in arbitrary byte-level splits reassembles into exactly the
        /// messages that were sent — no tearing, no merging, no panic.
        #[test]
        fn torn_stream_reassembles_identically(
            msgs in proptest::collection::vec(msg(), 1..5),
            cuts in proptest::collection::vec(1usize..64, 0..40),
        ) {
            let mut stream = Vec::new();
            for m in &msgs {
                let payload = encode_msg(NodeId(3), m);
                stream.extend(encode_frame(FrameKind::Msg, &payload).unwrap());
            }
            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            let mut pos = 0;
            let mut cuts = cuts.into_iter();
            while pos < stream.len() {
                let step = cuts.next().unwrap_or(stream.len()).min(stream.len() - pos);
                reader.feed(&stream[pos..pos + step]);
                pos += step;
                while let Some(frame) = reader.next_frame().expect("well-formed stream") {
                    decoded.push(decode_msg(frame.payload).expect("intact payload").1);
                }
            }
            prop_assert_eq!(decoded, msgs);
        }

        /// Truncating the stream anywhere decodes a prefix of the sent
        /// messages and then cleanly reports "need more" — never a panic,
        /// never a mis-framed message.
        #[test]
        fn truncation_decodes_a_clean_prefix(
            msgs in proptest::collection::vec(msg(), 1..4),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut stream = Vec::new();
            for m in &msgs {
                let payload = encode_msg(NodeId(1), m);
                stream.extend(encode_frame(FrameKind::Msg, &payload).unwrap());
            }
            let cut = ((stream.len() as f64) * cut_frac) as usize;
            let mut reader = FrameReader::new();
            reader.feed(&stream[..cut]);
            let mut decoded = Vec::new();
            while let Some(frame) = reader.next_frame().expect("prefix of a valid stream") {
                decoded.push(decode_msg(frame.payload).expect("intact payload").1);
            }
            prop_assert!(decoded.len() <= msgs.len());
            prop_assert_eq!(&decoded[..], &msgs[..decoded.len()]);
        }

        /// Decoding arbitrary bytes never panics: it either produces some
        /// message or a clean error.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_msg(&bytes);
            let _ = decode_hello(&bytes);
        }
    }

    #[test]
    fn corrupt_payload_is_a_clean_error() {
        let mut bytes = encode_msg(
            NodeId(2),
            &Msg::Request {
                seq: 9,
                op: ClientOp::Get { key: b"k".to_vec() },
            },
        );
        let tag_at = 8; // after the from-envelope u64
        bytes[tag_at] = 99;
        assert_eq!(decode_msg(&bytes), Err(CodecError::BadTag("msg", 99)));
        let short = &bytes[..bytes.len() - 1];
        assert!(decode_msg(short).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_msg(NodeId(0), &Msg::MapRequest);
        bytes.push(0);
        assert_eq!(decode_msg(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn hello_roundtrips() {
        let bytes = encode_hello(NodeId(41));
        assert_eq!(decode_hello(&bytes), Ok(NodeId(41)));
    }
}
