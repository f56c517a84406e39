//! Property tests for the network model.

use proptest::prelude::*;
use rmc_net::{NetProfile, Network};
use rmc_runtime::{SimDuration, SimTime};

proptest! {
    /// Every transfer arrives no earlier than send time plus the unloaded
    /// delay (overhead, serialization at each end, propagation), and messages on the same (src, dst) pair preserve send order.
    /// (Messages from one sender to *different* receivers may legitimately
    /// reorder: a congested receiver queue delays only its own traffic.)
    #[test]
    fn arrivals_respect_floor_and_order(
        msgs in proptest::collection::vec((0u64..100_000, 0usize..4, 1u64..1_000_000), 1..80)
    ) {
        let p = NetProfile::infiniband_20g();
        let mut net = Network::new(5, p.clone());
        let mut clock = 0u64;
        let mut last_arrival_per_pair = [SimTime::ZERO; 4];
        for (gap, dst, bytes) in msgs {
            clock += gap;
            let now = SimTime::from_micros(clock);
            let src = 4usize; // fixed sender exercises tx-queue ordering
            let arrival = net.transfer(now, src, dst, bytes);
            let ser = SimDuration::from_secs_f64(bytes as f64 / p.bytes_per_sec);
            let floor = p.per_message_overhead + ser * 2 + p.base_latency;
            prop_assert!(
                arrival >= now + floor,
                "arrival {arrival} under unloaded floor {floor}"
            );
            prop_assert!(
                arrival >= last_arrival_per_pair[dst],
                "messages on one (src,dst) pair must not overtake each other"
            );
            last_arrival_per_pair[dst] = arrival;
        }
    }

    /// Byte accounting is conserved: sum of tx equals sum of rx across the
    /// cluster (loopback excluded by construction).
    #[test]
    fn bytes_conserved(
        msgs in proptest::collection::vec((0usize..4, 1usize..5, 1u64..500_000), 1..60)
    ) {
        let mut net = Network::new(5, NetProfile::infiniband_20g());
        for (src, dst_off, bytes) in msgs {
            let dst = (src + dst_off) % 5;
            net.transfer(SimTime::ZERO, src, dst, bytes);
        }
        let (mut tx_total, mut rx_total) = (0u64, 0u64);
        for n in 0..5 {
            let (tx, rx) = net.byte_counts(n);
            tx_total += tx;
            rx_total += rx;
        }
        prop_assert_eq!(tx_total, rx_total);
    }
}
