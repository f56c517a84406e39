//! CRC-32C (Castagnoli), streaming.
//!
//! One kernel for every checksum in the repo: the log-entry format
//! (`entry.rs`) and the backup's disk frame (`rmc-diskstore`). On an x86_64
//! CPU with SSE4.2 it is the `crc32` instruction, eight input bytes per
//! step; everywhere else it is slicing-by-8 — eight 256-entry tables built
//! at compile time, eight input bytes folded per step. Both fold into the
//! same raw state, so no stored byte depends on which one ran, and the
//! tests hold each to the bitwise definition.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]`: the CRC state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// A CRC-32C computation in progress: feed the covered bytes in order with
/// [`Crc32c::update`] — in as many pieces as is convenient, e.g. around a
/// checksum field the checksum does not cover — then [`Crc32c::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// The state before any byte.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = match update_hardware(self.state, bytes) {
            Some(state) => state,
            None => update_table(self.state, bytes),
        };
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// The slicing-by-8 kernel: folds `bytes` into the raw state `crc`.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The hardware kernel's fold of `bytes` into `crc`, or `None` when this CPU
/// has none.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn update_hardware(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` only requires SSE4.2, and the detection
        // above has just confirmed this CPU has it.
        return Some(unsafe { update_sse42(crc, bytes) });
    }
    None
}

/// The SSE4.2 kernel: the same fold as [`update_table`], by the `crc32`
/// instruction (which computes CRC-32C, not the zlib CRC-32).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(crc);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks of 8"));
        crc = _mm_crc32_u64(crc, word);
    }
    // The instruction zero-extends its 32-bit result into the 64-bit lane.
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// CRC-32C of `bytes` in one call.
///
/// Who pays for it, per 1 KB record: the master produces an entry's
/// checksum once, when `Log::append_record` lays it out, and the same bytes
/// are what it replicates; each backup produces one disk-frame checksum
/// per append (`rmc_diskstore::frame::encode_frame_into`). Verifiers are
/// every locked lookup (`LogEntry::parse` / `Segment::view_at`: one pass
/// per `Get`, and one per write — `Store::write_with` finds the old
/// version once and swings the index from that position), recovery
/// replay, and `decode_frame` when a backup reopens its files and again
/// when it reads a frame back to serve it. The lock-free read path does
/// not verify. An update therefore runs the kernel four times over its
/// kilobyte at R = 2 and a `Get` once, which is why the kernel is not
/// bit-at-a-time: that loop took 6.9 µs a pass against the table's 0.8, ran
/// six times, and was 38 of an update's 62 µs (EXPERIMENTS.md "Checksum
/// cost"). On a 2-vCPU x86_64 VM the `crc32` instruction takes ≈ 70 ns a
/// 1 030-byte pass against the table's ≈ 730 (EXPERIMENTS.md "Hardware
/// checksum").
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A kernel as a fold of bytes into the raw state.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The bit-at-a-time definition every kernel is checked against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Every kernel this CPU can run, by name: the table kernel, the
    /// hardware one when detected, and the dispatching `update`. On an
    /// SSE4.2 machine `update` never reaches the table, so it is named here.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![
            ("table", update_table),
            ("update", |state, bytes| {
                let mut crc = Crc32c { state };
                crc.update(bytes);
                crc.state
            }),
        ];
        if update_hardware(!0, &[]).is_some() {
            all.push(("hardware", |state, bytes| {
                update_hardware(state, bytes).expect("detected above")
            }));
        }
        all
    }

    fn one_shot(kernel: Kernel, bytes: &[u8]) -> u32 {
        !kernel(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // The CRC-32C check value, then RFC 3720 B.4.
        let vectors: [(&[u8], u32); 6] = [
            (b"123456789", 0xE306_9283),
            (b"", 0),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (name, kernel) in kernels() {
            for (bytes, want) in vectors {
                assert_eq!(one_shot(kernel, bytes), want, "{name}, len {}", bytes.len());
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn every_short_length_equals_the_reference() {
        // Random lengths up to 4096 rarely land under one 8-byte step.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for (name, kernel) in kernels() {
            for start in 0..8 {
                for end in start..=data.len() {
                    let bytes = &data[start..end];
                    assert_eq!(
                        one_shot(kernel, bytes),
                        reference(bytes),
                        "{name} {start}..{end}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Each kernel equals the bitwise definition at every start
        /// alignment, and a stream cut anywhere equals the one-shot.
        #[test]
        fn kernel_equals_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let want = reference(&data);
            for (name, kernel) in kernels() {
                for align in 0..8 {
                    let mut shifted = vec![0u8; align];
                    shifted.extend_from_slice(&data);
                    let input = &shifted[align..];
                    prop_assert_eq!(one_shot(kernel, input), want, "{} align {}, len {}", name, align, input.len());

                    let mut at: Vec<usize> = cuts
                        .iter()
                        .map(|c| (c * (input.len() + 1) as f64) as usize)
                        .collect();
                    at.sort_unstable();
                    let mut state = !0;
                    let mut from = 0;
                    for cut in at {
                        state = kernel(state, &input[from..cut]);
                        from = cut;
                    }
                    state = kernel(state, &input[from..]);
                    prop_assert_eq!(!state, want, "{} align {}, split", name, align);
                }
            }
        }
    }
}
