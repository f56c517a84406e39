//! The on-disk frame: one checksummed record per replica write.
//!
//! Every write a backup stages is wrapped in a fixed 36-byte header plus
//! the payload bytes, little-endian throughout:
//!
//! ```text
//! +-------+--------+---------+-------+-----+-----+---------+
//! | magic | master | segment | epoch | len | crc | payload |
//! |  4 B  |  8 B   |   8 B   |  8 B  | 4 B | 4 B |  len B  |
//! +-------+--------+---------+-------+-----+-----+---------+
//! ```
//!
//! The magic is `"RMCS"`: every frame holds bytes appended to its segment.
//! A frame names its `(master, segment)` itself, so a file may hold the
//! frames of many segments in the order they were written. (Builds before
//! images became appends also wrote `"RMCI"` image frames; this one reads
//! such a frame as corruption.)
//!
//! The CRC (CRC-32C, the same `crc32c` the log entries use) covers the
//! header minus the crc field itself, then the payload — so a bit flip
//! anywhere in a frame is detected, and a frame cut short by a crash fails
//! the length check before the checksum is even consulted. Decoding
//! distinguishes the two: [`FrameError::TornTail`] means the buffer simply
//! ends mid-frame (the normal signature of a crash between `write` and
//! completion — recover by truncating), while [`FrameError::Corrupt`] means
//! a structurally complete frame carries impossible fields or a bad
//! checksum (the disk lied — quarantine, never trust what follows).

use rmc_logstore::Crc32c;

/// `"RMCS"` as the first four bytes of a frame (little-endian u32).
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"RMCS");

/// Fixed header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 4 + 8 + 8 + 8 + 4 + 4;
/// Offset of the crc, the header's last field.
const CRC_AT: usize = FRAME_HEADER_BYTES - 4;

/// Sanity bound on a single frame's payload (far above any real segment;
/// a declared length past this is corruption, not a huge write).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 28;

/// Decoded header fields of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Master whose segment this replica belongs to (server index).
    pub master: u64,
    /// Segment id within that master's log.
    pub segment: u64,
    /// The backup incarnation epoch that staged the frame.
    pub epoch: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Stored CRC-32C.
    pub crc: u32,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does: a torn write. The bytes up
    /// to here are a clean prefix; truncate and move on.
    TornTail,
    /// The frame is structurally complete but wrong — bad magic, an
    /// impossible length, or a checksum mismatch. Nothing after this
    /// offset can be trusted.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TornTail => write!(f, "torn frame tail"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Checksum of one whole frame: everything but the crc field.
fn frame_crc(frame: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(&frame[..CRC_AT]);
    crc.update(&frame[FRAME_HEADER_BYTES..]);
    crc.finish()
}

/// Encodes one frame: header + payload, checksummed.
pub fn encode_frame(master: usize, segment: u64, epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, master, segment, epoch, payload);
    out
}

/// Encodes one frame onto the end of `out`, after what it holds: how a
/// store lays a frame in place behind the frames it has not yet written.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    master: usize,
    segment: u64,
    epoch: u64,
    payload: &[u8],
) {
    assert!(payload.len() <= MAX_FRAME_PAYLOAD, "payload too large");
    let start = out.len();
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(master as u64).to_le_bytes());
    out.extend_from_slice(&segment.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(payload);
    let frame = &mut out[start..];
    let crc = frame_crc(frame);
    frame[CRC_AT..FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the frame at the start of `buf`. Returns the header, the
/// payload slice, and the frame's total length.
///
/// # Errors
///
/// [`FrameError::TornTail`] when `buf` ends mid-frame;
/// [`FrameError::Corrupt`] on bad magic, an impossible length, or a
/// checksum mismatch.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameHeader, &[u8], usize), FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::TornTail);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(FrameError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    let master = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let segment = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let epoch = u64::from_le_bytes(buf[20..28].try_into().unwrap());
    let len = u32::from_le_bytes(buf[28..32].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[32..36].try_into().unwrap());
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Corrupt(format!("impossible length {len}")));
    }
    let total = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Err(FrameError::TornTail);
    }
    let computed = frame_crc(&buf[..total]);
    if computed != crc {
        return Err(FrameError::Corrupt(format!(
            "checksum mismatch: stored {crc:#010x}, computed {computed:#010x}"
        )));
    }
    let header = FrameHeader {
        master,
        segment,
        epoch,
        len,
        crc,
    };
    Ok((header, &buf[FRAME_HEADER_BYTES..total], total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode_frame(3, 17, 2, b"replica bytes");
        let (h, payload, total) = decode_frame(&frame).unwrap();
        assert_eq!((h.master, h.segment, h.epoch, h.len), (3, 17, 2, 13),);
        assert_eq!(payload, b"replica bytes");
        assert_eq!(total, frame.len());
    }

    #[test]
    fn an_image_frame_of_an_older_build_is_corrupt() {
        // What builds before images became appends wrote for a segment
        // image: the same header under the magic "RMCI", checksummed.
        let mut image = encode_frame(3, 17, 2, b"replica bytes");
        image[..4].copy_from_slice(b"RMCI");
        let crc = frame_crc(&image);
        image[CRC_AT..FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&image), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = encode_frame(0, 0, 0, b"");
        let (h, payload, total) = decode_frame(&frame).unwrap();
        assert_eq!(h.len, 0);
        assert!(payload.is_empty());
        assert_eq!(total, FRAME_HEADER_BYTES);
    }

    #[test]
    fn truncation_is_a_torn_tail_at_every_length() {
        let frame = encode_frame(1, 2, 3, &[0xAB; 64]);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]).unwrap_err(),
                FrameError::TornTail,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let frame = encode_frame(1, 2, 3, &[0x5A; 32]);
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x01;
            match decode_frame(&bad) {
                Err(_) => {}
                // A flip in the length field may declare a longer frame
                // than the buffer holds — that surfaces as TornTail, which
                // is also a detection. A flip that *shrinks* the declared
                // length moves payload bytes out of the checksummed range
                // and must still fail the CRC.
                Ok(_) => panic!("bit flip at byte {byte} went undetected"),
            }
        }
    }

    /// The disk format is frozen: this is the frame the commit before the
    /// table-driven checksum (8ee9d25) wrote for a tombstone entry, so a
    /// data dir staged by an older build opens under this one.
    #[test]
    fn a_frame_written_before_the_table_kernel_decodes_and_reencodes_identically() {
        let golden: Vec<u8> = [
            "524d4353", // magic
            "0300000000000000",
            "1100000000000000",
            "0200000000000000",
            "2b000000",
            "aae565aa", // crc
            "0107000000000000000800080000000400000000000000332e4218",
            "7573657234333132",
            "0c00000000000000",
        ]
        .concat()
        .as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect();
        let (h, payload, total) = decode_frame(&golden).unwrap();
        assert_eq!(
            (h.master, h.segment, h.epoch, h.len, h.crc),
            (3, 17, 2, 43, 0xAA65_E5AA)
        );
        assert_eq!(total, golden.len());
        assert_eq!(encode_frame(3, 17, 2, payload), golden);
    }

    #[test]
    fn frames_encoded_onto_one_buffer_lie_back_to_back_behind_what_it_held() {
        let mut buf = b"held".to_vec();
        encode_frame_into(&mut buf, 1, 2, 3, b"first");
        encode_frame_into(&mut buf, 1, 2, 3, b"second");
        let want = [
            &b"held"[..],
            &encode_frame(1, 2, 3, b"first"),
            &encode_frame(1, 2, 3, b"second"),
        ]
        .concat();
        assert_eq!(buf, want);
    }

    #[test]
    fn trailing_bytes_left_for_the_next_frame() {
        let mut buf = encode_frame(1, 2, 3, b"first");
        let second = encode_frame(1, 2, 3, b"second");
        buf.extend_from_slice(&second);
        let (_, payload, total) = decode_frame(&buf).unwrap();
        assert_eq!(payload, b"first");
        let (_, payload2, _) = decode_frame(&buf[total..]).unwrap();
        assert_eq!(payload2, b"second");
    }
}
