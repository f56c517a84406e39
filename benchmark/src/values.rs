//! Self-checking values and the audit model.
//!
//! Every value the benchmark writes starts with a 16-byte `(writer,
//! counter)` tag; the rest is a pattern derived from the tag and the key,
//! so any read can verify, without knowing what was written, that the
//! bytes are one whole value written to *that* key. After a workload the
//! audit reads every key back and requires the tag of the highest-version
//! acknowledged write.

use std::collections::HashMap;

/// Bytes of the `(writer, counter)` tag at the head of every value.
pub const TAG_BYTES: usize = 16;

/// Who wrote a value, and which of its writes it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// Writer id (a client index; loaders use their client's index too).
    pub writer: u64,
    /// The writer's private write counter.
    pub counter: u64,
}

fn pattern_seed(tag: Tag, key_index: u64) -> u64 {
    // splitmix64 finaliser over the three inputs: a one-bit change in any
    // of them flips about half the pattern.
    let mut x = tag.writer.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tag.counter.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ key_index.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

fn pattern_word(seed: u64, i: usize) -> [u8; 8] {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .to_le_bytes()
}

/// Fills `buf` (at least [`TAG_BYTES`] long) with the value `tag` writes to
/// record `key_index`.
pub fn fill_value(buf: &mut [u8], tag: Tag, key_index: u64) {
    assert!(buf.len() >= TAG_BYTES, "value too short for its tag");
    buf[..8].copy_from_slice(&tag.writer.to_le_bytes());
    buf[8..TAG_BYTES].copy_from_slice(&tag.counter.to_le_bytes());
    let seed = pattern_seed(tag, key_index);
    for (i, chunk) in buf[TAG_BYTES..].chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&pattern_word(seed, i)[..chunk.len()]);
    }
}

/// Verifies that `bytes` is a whole value of length `len` written to
/// record `key_index`; returns its tag.
pub fn check_value(bytes: &[u8], key_index: u64, len: usize) -> Option<Tag> {
    if bytes.len() != len || len < TAG_BYTES {
        return None;
    }
    let tag = Tag {
        writer: u64::from_le_bytes(bytes[..8].try_into().ok()?),
        counter: u64::from_le_bytes(bytes[8..TAG_BYTES].try_into().ok()?),
    };
    let seed = pattern_seed(tag, key_index);
    bytes[TAG_BYTES..]
        .chunks(8)
        .enumerate()
        .all(|(i, chunk)| chunk == &pattern_word(seed, i)[..chunk.len()])
        .then_some(tag)
}

/// What each key must hold: the tag of its highest-version acknowledged
/// write. Each writer keeps its own model; [`Model::merge`] folds them.
#[derive(Debug, Clone, Default)]
pub struct Model {
    latest: HashMap<u64, (u64, Tag)>,
}

impl Model {
    /// Records that the write tagged `tag` to `key_index` was acknowledged
    /// at `version`.
    pub fn acked(&mut self, key_index: u64, version: u64, tag: Tag) {
        match self.latest.get_mut(&key_index) {
            Some(entry) if entry.0 >= version => {}
            Some(entry) => *entry = (version, tag),
            None => {
                self.latest.insert(key_index, (version, tag));
            }
        }
    }

    /// Folds another writer's model into this one.
    pub fn merge(&mut self, other: Model) {
        for (key_index, (version, tag)) in other.latest {
            self.acked(key_index, version, tag);
        }
    }

    /// The tag `key_index` must hold, if any write to it was acknowledged.
    pub fn expected(&self, key_index: u64) -> Option<Tag> {
        self.latest.get(&key_index).map(|&(_, tag)| tag)
    }
}

/// Judges one read-back: `Ok` when `bytes` is a whole value for
/// `key_index` carrying the tag the model expects.
pub fn audit_read(model: &Model, key_index: u64, bytes: Option<&[u8]>, len: usize) -> bool {
    match (
        bytes.and_then(|b| check_value(b, key_index, len)),
        model.expected(key_index),
    ) {
        (Some(got), Some(want)) => got == want,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 1024;

    fn value(tag: Tag, key: u64) -> Vec<u8> {
        let mut v = vec![0u8; LEN];
        fill_value(&mut v, tag, key);
        v
    }

    #[test]
    fn values_check_against_their_own_key_only() {
        let tag = Tag {
            writer: 3,
            counter: 99,
        };
        let v = value(tag, 7);
        assert_eq!(check_value(&v, 7, LEN), Some(tag));
        assert_eq!(check_value(&v, 8, LEN), None, "wrong key");
        assert_eq!(check_value(&v[..LEN - 1], 7, LEN), None, "short");
        for flip in [0, 9, TAG_BYTES, LEN - 1] {
            let mut bad = v.clone();
            bad[flip] ^= 1;
            assert_eq!(check_value(&bad, 7, LEN), None, "flipped byte {flip}");
        }
        // Odd lengths exercise the partial last word.
        let mut odd = vec![0u8; 21];
        fill_value(&mut odd, tag, 1);
        assert_eq!(check_value(&odd, 1, 21), Some(tag));
    }

    #[test]
    fn audit_wants_the_highest_version_across_writers() {
        let t = |writer, counter| Tag { writer, counter };
        let mut a = Model::default();
        let mut b = Model::default();
        a.acked(5, 10, t(0, 1));
        b.acked(5, 12, t(1, 1));
        a.acked(5, 11, t(0, 2));
        a.acked(6, 3, t(0, 3));
        // A late-recorded older version must not displace a newer one.
        b.acked(5, 9, t(1, 0));
        a.merge(b);
        assert_eq!(a.expected(6), Some(t(0, 3)));
        assert_eq!(a.expected(5), Some(t(1, 1)));
        assert!(audit_read(&a, 5, Some(&value(t(1, 1), 5)), LEN));
        assert!(!audit_read(&a, 5, Some(&value(t(0, 2), 5)), LEN), "stale");
        assert!(!audit_read(&a, 5, None, LEN), "lost");
        assert!(!audit_read(&a, 7, Some(&value(t(0, 0), 7)), LEN), "phantom");
    }
}
