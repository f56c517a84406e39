//! Pins the request streams the benchmark and the paper's figures draw: the
//! first 4 096 `(kind, key_index)` pairs of `RequestGenerator` at seed 42
//! hash to fixed constants for A, B, C and zipfian B. A change to `Mix`,
//! `OpKind` or `KeyChooser` that moves one operation fails here.

use rmc_ycsb::{Distribution, RequestGenerator, StandardWorkload, WorkloadSpec};

/// FNV-1a over each request's kind byte and little-endian key index.
fn stream_hash(spec: WorkloadSpec) -> u64 {
    let mut gen = RequestGenerator::new(spec, 42);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..4096 {
        let req = gen.next_request().expect("quota covers 4 096 requests");
        for b in std::iter::once(req.kind as u8).chain(req.key_index.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn request_streams_are_pinned() {
    let mut b_zipfian = WorkloadSpec::standard(StandardWorkload::B);
    b_zipfian.distribution = Distribution::zipfian_default();
    let got = [
        stream_hash(WorkloadSpec::standard(StandardWorkload::A)),
        stream_hash(WorkloadSpec::standard(StandardWorkload::B)),
        stream_hash(WorkloadSpec::standard(StandardWorkload::C)),
        stream_hash(b_zipfian),
    ];
    let want = [
        0x71c7_1178_108b_7dff,
        0x20e2_6b52_bec2_8a83,
        0xe2d6_3d76_5b43_915f,
        0xf7f3_37b8_e09a_1d1c,
    ];
    assert_eq!(got, want, "a stock request stream moved");
}
