//! # rmc-net — simulated cluster network
//!
//! Models the interconnect of the reproduced testbed. The paper ran RAMCloud
//! exclusively over Infiniband-20G (the network dimension is studied in a
//! companion paper), so this model keeps the network simple and fast: each
//! node has a full-duplex NIC with a transmit and a receive serialization
//! queue, and every transfer pays
//!
//! ```text
//! tx queueing + per-message overhead + size/bandwidth   (at the sender NIC)
//! + propagation latency                                  (the fabric)
//! + rx queueing + size/bandwidth                         (at the receiver NIC)
//! ```
//!
//! Per-node traffic is binned per second for the power model's NIC term.
//!
//! ## Example
//!
//! ```
//! use rmc_net::{Network, NetProfile};
//! use rmc_runtime::SimTime;
//!
//! let mut net = Network::new(3, NetProfile::infiniband_20g());
//! let arrival = net.transfer(SimTime::ZERO, 0, 1, 1024);
//! assert!(arrival > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rmc_runtime::{BinnedUsage, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Performance envelope of a network interface / fabric combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetProfile {
    /// Human-readable profile name.
    pub name: String,
    /// One-way propagation latency through the fabric (switch + cables).
    pub base_latency: SimDuration,
    /// NIC serialization bandwidth, bytes per second, each direction.
    pub bytes_per_sec: f64,
    /// Fixed per-message CPU-free NIC overhead (doorbells, DMA setup).
    pub per_message_overhead: SimDuration,
}

impl NetProfile {
    /// The paper's Infiniband-20G fabric: a few microseconds end to end for
    /// small messages, ~2 GB/s per direction.
    pub fn infiniband_20g() -> Self {
        NetProfile {
            name: "infiniband-20g".to_owned(),
            base_latency: SimDuration::from_nanos(1_800),
            bytes_per_sec: 2.0e9,
            per_message_overhead: SimDuration::from_nanos(300),
        }
    }

    /// The nodes' unused Gigabit Ethernet card; provided for what-if
    /// comparisons (the companion paper studies the network dimension).
    pub fn gigabit_ethernet() -> Self {
        NetProfile {
            name: "gigabit-ethernet".to_owned(),
            base_latency: SimDuration::from_micros(28),
            bytes_per_sec: 117.0e6,
            per_message_overhead: SimDuration::from_micros(3),
        }
    }

    fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

#[derive(Debug, Clone)]
struct Nic {
    tx_free_at: SimTime,
    rx_free_at: SimTime,
    traffic: BinnedUsage,
    tx_bytes: u64,
    rx_bytes: u64,
}

impl Nic {
    fn new() -> Self {
        Nic {
            tx_free_at: SimTime::ZERO,
            rx_free_at: SimTime::ZERO,
            traffic: BinnedUsage::new(SimDuration::from_secs(1)),
            tx_bytes: 0,
            rx_bytes: 0,
        }
    }
}

/// The cluster fabric: one full-duplex NIC per node.
#[derive(Debug)]
pub struct Network {
    profile: NetProfile,
    nics: Vec<Nic>,
}

impl Network {
    /// Creates a network connecting `nodes` machines.
    pub fn new(nodes: usize, profile: NetProfile) -> Self {
        Network {
            profile,
            nics: (0..nodes).map(|_| Nic::new()).collect(),
        }
    }

    /// The fabric profile.
    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// Sends `bytes` from `src` to `dst` starting no earlier than `now`;
    /// returns the arrival instant at `dst`.
    ///
    /// A message to self skips the fabric but still pays the per-message
    /// overhead (loopback through the transport layer).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let ser = self.profile.serialization(bytes);
        if src == dst {
            return now + self.profile.per_message_overhead;
        }
        // Transmit side.
        let tx_start = now.max(self.nics[src].tx_free_at);
        let tx_done = tx_start + self.profile.per_message_overhead + ser;
        {
            let nic = &mut self.nics[src];
            nic.tx_free_at = tx_done;
            nic.tx_bytes += bytes;
            nic.traffic.add_span(
                tx_start,
                tx_done.max(tx_start + SimDuration::from_nanos(1)),
                1.0,
            );
        }
        // Fabric propagation.
        let at_receiver = tx_done + self.profile.base_latency;
        // Receive side serialization.
        let rx_start = at_receiver.max(self.nics[dst].rx_free_at);
        let rx_done = rx_start + ser;
        {
            let nic = &mut self.nics[dst];
            nic.rx_free_at = rx_done;
            nic.rx_bytes += bytes;
            nic.traffic.add_span(
                rx_start,
                rx_done.max(rx_start + SimDuration::from_nanos(1)),
                1.0,
            );
        }
        rx_done
    }

    /// Convenience: the unloaded one-way delay for a message of `bytes`.
    pub fn unloaded_delay(&self, bytes: u64) -> SimDuration {
        self.profile.per_message_overhead
            + self.profile.serialization(bytes) * 2
            + self.profile.base_latency
    }

    /// Bytes moved by `node` `(transmitted, received)`.
    pub fn byte_counts(&self, node: usize) -> (u64, u64) {
        let nic = &self.nics[node];
        (nic.tx_bytes, nic.rx_bytes)
    }

    /// Aggregate NIC traffic of `node` during one-second bin `i`, in GB/s —
    /// the power model's NIC term. Approximates rate from busy time ×
    /// bandwidth.
    pub fn traffic_gbps(&self, node: usize, bin: usize) -> f64 {
        let busy = self.nics[node].traffic.bin_value(bin);
        busy.min(2.0) * self.profile.bytes_per_sec / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_msg() -> u64 {
        128
    }

    #[test]
    fn unloaded_small_message_is_microseconds() {
        let net = Network::new(2, NetProfile::infiniband_20g());
        let d = net.unloaded_delay(small_msg());
        assert!(d >= SimDuration::from_micros(2));
        assert!(d <= SimDuration::from_micros(4), "got {d}");
    }

    #[test]
    fn transfer_matches_unloaded_delay_when_idle() {
        let mut net = Network::new(2, NetProfile::infiniband_20g());
        let expect = net.unloaded_delay(small_msg());
        let arrival = net.transfer(SimTime::ZERO, 0, 1, small_msg());
        assert_eq!(arrival - SimTime::ZERO, expect);
    }

    #[test]
    fn tx_queue_serializes_back_to_back_sends() {
        let mut net = Network::new(3, NetProfile::infiniband_20g());
        let big = 1 << 20; // 1 MiB: ~0.5 ms serialization
        let a1 = net.transfer(SimTime::ZERO, 0, 1, big);
        let a2 = net.transfer(SimTime::ZERO, 0, 2, big);
        assert!(a2 > a1, "second send must queue behind the first");
        let gap = a2 - a1;
        assert!(gap >= SimDuration::from_micros(400), "gap {gap} too small");
    }

    #[test]
    fn different_senders_do_not_interfere() {
        let mut net = Network::new(4, NetProfile::infiniband_20g());
        let a1 = net.transfer(SimTime::ZERO, 0, 2, small_msg());
        let a2 = net.transfer(SimTime::ZERO, 1, 3, small_msg());
        assert_eq!(a1 - SimTime::ZERO, a2 - SimTime::ZERO);
    }

    #[test]
    fn rx_queue_congests_fan_in() {
        // Many senders to one receiver: arrivals spread out by rx
        // serialization (incast).
        let mut net = Network::new(5, NetProfile::infiniband_20g());
        let big = 1 << 20;
        let arrivals: Vec<SimTime> = (0..4)
            .map(|src| net.transfer(SimTime::ZERO, src, 4, big))
            .collect();
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0], "fan-in must serialize at the receiver");
        }
    }

    #[test]
    fn loopback_is_cheap() {
        let mut net = Network::new(1, NetProfile::infiniband_20g());
        let arrival = net.transfer(SimTime::ZERO, 0, 0, 1 << 20);
        assert!(arrival - SimTime::ZERO <= SimDuration::from_micros(1));
    }

    #[test]
    fn ethernet_slower_than_infiniband() {
        let ib = Network::new(2, NetProfile::infiniband_20g());
        let eth = Network::new(2, NetProfile::gigabit_ethernet());
        assert!(eth.unloaded_delay(1024) > ib.unloaded_delay(1024) * 5);
    }

    #[test]
    fn byte_counters() {
        let mut net = Network::new(2, NetProfile::infiniband_20g());
        net.transfer(SimTime::ZERO, 0, 1, 1000);
        net.transfer(SimTime::ZERO, 1, 0, 500);
        assert_eq!(net.byte_counts(0), (1000, 500));
        assert_eq!(net.byte_counts(1), (500, 1000));
    }

    #[test]
    fn traffic_binning_visible() {
        let mut net = Network::new(2, NetProfile::infiniband_20g());
        // 1 GB at 2 GB/s = 0.5 s busy in the first second.
        net.transfer(SimTime::ZERO, 0, 1, 1_000_000_000);
        assert!(net.traffic_gbps(0, 0) > 0.5);
        assert_eq!(net.traffic_gbps(0, 5), 0.0);
    }
}
