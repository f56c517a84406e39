//! CRC-32C (Castagnoli), table-driven and streaming.
//!
//! One kernel for every checksum in the repo: the log-entry format
//! (`entry.rs`) and the backup's disk frame (`rmc-diskstore`). Slicing-by-8
//! — eight 256-entry tables built at compile time, eight input bytes folded
//! per step — in safe code, with no CPU-feature fork.

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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32C of `bytes` in one call.
///
/// Who pays for it, per 1 KB record: the master produces an entry's
/// checksum once, when `Segment::append` serializes it, and the same bytes
/// are what it replicates; each backup produces one disk-frame checksum
/// per append (`rmc_diskstore::frame::encode_frame`). Verifiers are every
/// locked lookup (`LogEntry::parse` / `Segment::view_at`: one pass per
/// `Get`, two per overwrite — finding the old version, then confirming
/// which copy died), `Segment::from_bytes`, recovery replay, and
/// `decode_frame` when a backup reopens its files. The lock-free read path
/// does not verify. An update therefore runs the kernel five times over
/// its kilobyte at R = 2 and a `Get` once, which is why the kernel is
/// table-driven: the bit-at-a-time loop it replaced took 6.9 µs a pass
/// against 0.8, ran six times, and was 38 of an update's 62 µs
/// (EXPERIMENTS.md "Checksum cost").
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition the tables are checked against.
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

    #[test]
    fn known_vectors() {
        // The CRC-32C check value, then RFC 3720 B.4.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn every_short_length_equals_the_reference() {
        // Random lengths up to 4096 rarely land under one 8-byte step.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for start in 0..8 {
            for end in start..=data.len() {
                assert_eq!(crc32c(&data[start..end]), reference(&data[start..end]));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The table kernel equals the bitwise definition at every start
        /// alignment, and a stream cut anywhere equals the one-shot.
        #[test]
        fn kernel_equals_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let want = reference(&data);
            for align in 0..8 {
                let mut shifted = vec![0u8; align];
                shifted.extend_from_slice(&data);
                let input = &shifted[align..];
                prop_assert_eq!(crc32c(input), want, "align {}, len {}", align, input.len());

                let mut at: Vec<usize> = cuts
                    .iter()
                    .map(|c| (c * (input.len() + 1) as f64) as usize)
                    .collect();
                at.sort_unstable();
                let mut stream = Crc32c::new();
                let mut from = 0;
                for cut in at {
                    stream.update(&input[from..cut]);
                    from = cut;
                }
                stream.update(&input[from..]);
                prop_assert_eq!(stream.finish(), want, "align {}, split", align);
            }
        }
    }
}
