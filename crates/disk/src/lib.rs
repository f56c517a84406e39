//! # rmc-disk — simulated storage devices
//!
//! Models the per-node disk of the reproduced testbed (Grid'5000 Nancy nodes:
//! one 298 GB HDD) as a single-server FIFO queue with sequential bandwidth,
//! a positioning (seek) penalty whenever the access direction flips between
//! reads and writes, and per-second I/O tracing.
//!
//! The disk matters in exactly the places the paper says it does:
//! backups spill closed 8 MB segments to disk asynchronously, and crash
//! recovery *reads* lost segments from backup disks while simultaneously
//! *re-replicating* them (writes) — the interleave shows up as the read/write
//! overlap of Fig 12 and is a driver of Finding 6 (recovery slows down as the
//! replication factor grows).
//!
//! ## Example
//!
//! ```
//! use rmc_disk::{DiskModel, DiskProfile, IoKind};
//! use rmc_runtime::SimTime;
//!
//! let mut disk = DiskModel::new(DiskProfile::grid5000_hdd());
//! let done = disk.submit(SimTime::ZERO, IoKind::Write, 8 << 20);
//! assert!(done > SimTime::ZERO);
//! // A second request queues behind the first.
//! let done2 = disk.submit(SimTime::ZERO, IoKind::Write, 8 << 20);
//! assert!(done2 > done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;

use rmc_runtime::{BinnedUsage, CounterHandle, MetricsFamily, RateMeter, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Direction of a disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data moves from the platter into memory.
    Read,
    /// Data moves from memory onto the platter.
    Write,
}

/// Performance envelope of a storage device.
///
/// Constructed via the named profiles ([`DiskProfile::grid5000_hdd`],
/// [`DiskProfile::commodity_ssd`]) or struct-literal-style via
/// [`DiskProfile::custom`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Sequential read bandwidth in bytes per second.
    pub read_bytes_per_sec: f64,
    /// Sequential write bandwidth in bytes per second.
    pub write_bytes_per_sec: f64,
    /// Positioning penalty charged when the transfer direction flips
    /// (read→write or write→read), modelling head movement between the
    /// recovery-read zone and the log-write zone.
    pub switch_penalty: SimDuration,
    /// Fixed per-request overhead (command issue, rotational settle).
    pub per_request_overhead: SimDuration,
}

impl DiskProfile {
    /// The ~300 GB 7.2k-rpm HDD of the paper's Nancy nodes.
    ///
    /// Bandwidths are the usual envelope for that disk generation
    /// (~120 MB/s reads, ~110 MB/s writes). The per-request overhead is an
    /// average seek plus rotational latency — RAMCloud backups keep segment
    /// replicas in many files, so in practice every request repositions the
    /// head. This is what pulls effective small-write throughput down to a
    /// few tens of MB/s and puts crash recovery in the paper's regime
    /// (~10 s to recover 1.085 GB at replication factor 1, growing roughly
    /// linearly with the factor).
    pub fn grid5000_hdd() -> Self {
        DiskProfile {
            name: "grid5000-hdd".to_owned(),
            read_bytes_per_sec: 120.0 * 1e6,
            write_bytes_per_sec: 110.0 * 1e6,
            switch_penalty: SimDuration::from_millis(4),
            per_request_overhead: SimDuration::from_millis(9),
        }
    }

    /// A commodity SATA SSD, used by the §IX discussion ("with machines
    /// equipped with SSDs smaller segment sizes can be chosen").
    pub fn commodity_ssd() -> Self {
        DiskProfile {
            name: "commodity-ssd".to_owned(),
            read_bytes_per_sec: 500.0 * 1e6,
            write_bytes_per_sec: 450.0 * 1e6,
            switch_penalty: SimDuration::from_micros(20),
            per_request_overhead: SimDuration::from_micros(50),
        }
    }

    /// Builds an arbitrary profile.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not positive and finite.
    pub fn custom(
        name: &str,
        read_bytes_per_sec: f64,
        write_bytes_per_sec: f64,
        switch_penalty: SimDuration,
        per_request_overhead: SimDuration,
    ) -> Self {
        assert!(
            read_bytes_per_sec.is_finite() && read_bytes_per_sec > 0.0,
            "read bandwidth must be positive"
        );
        assert!(
            write_bytes_per_sec.is_finite() && write_bytes_per_sec > 0.0,
            "write bandwidth must be positive"
        );
        DiskProfile {
            name: name.to_owned(),
            read_bytes_per_sec,
            write_bytes_per_sec,
            switch_penalty,
            per_request_overhead,
        }
    }

    fn transfer_time(&self, kind: IoKind, bytes: u64) -> SimDuration {
        let bw = match kind {
            IoKind::Read => self.read_bytes_per_sec,
            IoKind::Write => self.write_bytes_per_sec,
        };
        SimDuration::from_secs_f64(bytes as f64 / bw)
    }
}

/// Live `disk.*` handles a [`DiskModel`] feeds on every submit — the same
/// metric family (and names) the file-backed backup engine's
/// `rmc_diskstore::DiskMetrics` exports, so dashboards and the stats plane
/// read one schema regardless of which engine produced the I/O.
#[derive(Debug, Clone)]
struct ModelMetrics {
    reads: CounterHandle,
    writes: CounterHandle,
    read_bytes: CounterHandle,
    write_bytes: CounterHandle,
    /// Requests still queued or in service at the last submit.
    queue_depth: CounterHandle,
}

impl ModelMetrics {
    fn new(fam: &MetricsFamily) -> Self {
        // The simulated device never corrupts data, but the family must
        // carry the same members as the file engine's — create the CRC
        // counter at zero so snapshots stay schema-identical.
        let _ = fam.counter("crc_mismatch");
        ModelMetrics {
            reads: fam.counter("reads"),
            writes: fam.counter("writes"),
            read_bytes: fam.counter("read_bytes"),
            write_bytes: fam.counter("write_bytes"),
            queue_depth: fam.gauge("queue_depth"),
        }
    }
}

/// A single simulated disk: FIFO service, direction-switch penalties, busy
/// tracking for the power model, and per-second read/write tracing for
/// Fig 12.
#[derive(Debug)]
pub struct DiskModel {
    profile: DiskProfile,
    busy_until: SimTime,
    last_kind: Option<IoKind>,
    busy: BinnedUsage,
    read_trace: RateMeter,
    write_trace: RateMeter,
    read_bytes: u64,
    write_bytes: u64,
    metrics: Option<ModelMetrics>,
    /// Completion times of outstanding requests (for the queue-depth gauge);
    /// only maintained while metrics are attached.
    inflight: VecDeque<SimTime>,
}

impl DiskModel {
    /// Creates an idle disk with the given profile.
    pub fn new(profile: DiskProfile) -> Self {
        DiskModel {
            profile,
            busy_until: SimTime::ZERO,
            last_kind: None,
            busy: BinnedUsage::new(SimDuration::from_secs(1)),
            read_trace: RateMeter::new(SimDuration::from_secs(1)),
            write_trace: RateMeter::new(SimDuration::from_secs(1)),
            read_bytes: 0,
            write_bytes: 0,
            metrics: None,
            inflight: VecDeque::new(),
        }
    }

    /// Attaches this disk to a `disk.*` metric family (typically
    /// `registry.family("disk", node)`). From then on every [`submit`]
    /// updates the shared read/write byte and request counters and a
    /// queue-depth gauge — the same family the file-backed backup engine
    /// feeds, so both engines are observed through one schema.
    ///
    /// [`submit`]: DiskModel::submit
    pub fn attach_metrics(&mut self, fam: &MetricsFamily) {
        self.metrics = Some(ModelMetrics::new(fam));
    }

    /// The device profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Enqueues a transfer arriving at `now` and returns its completion time.
    ///
    /// The request waits behind everything already queued (FIFO, single
    /// spindle), pays the per-request overhead, pays the switch penalty when
    /// the direction flips, then transfers at sequential bandwidth.
    pub fn submit(&mut self, now: SimTime, kind: IoKind, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let mut service =
            self.profile.per_request_overhead + self.profile.transfer_time(kind, bytes);
        if self.last_kind.is_some() && self.last_kind != Some(kind) {
            service += self.profile.switch_penalty;
        }
        let done = start + service;
        self.busy.add_span(start, done, 1.0);
        self.busy_until = done;
        self.last_kind = Some(kind);
        match kind {
            IoKind::Read => {
                self.read_bytes += bytes;
                // Attribute the bytes to the completion-side window, matching
                // how an iostat-style monitor would observe them.
                self.read_trace.add(done, bytes as f64);
            }
            IoKind::Write => {
                self.write_bytes += bytes;
                self.write_trace.add(done, bytes as f64);
            }
        }
        if let Some(m) = &self.metrics {
            match kind {
                IoKind::Read => {
                    m.reads.incr();
                    m.read_bytes.add(bytes);
                }
                IoKind::Write => {
                    m.writes.incr();
                    m.write_bytes.add(bytes);
                }
            }
            // Queue depth as an iostat-style monitor would see it at `now`:
            // requests submitted but not yet complete, this one included.
            while self.inflight.front().is_some_and(|&t| t <= now) {
                self.inflight.pop_front();
            }
            self.inflight.push_back(done);
            m.queue_depth.set(self.inflight.len() as u64);
        }
        done
    }

    /// Busy fraction (0..=1) during one-second bin `i`; feeds the power
    /// model's disk-activity term.
    pub fn busy_fraction(&self, bin: usize) -> f64 {
        self.busy.bin_value(bin).min(1.0)
    }

    /// Total transferred bytes `(read, written)`.
    pub fn byte_counts(&self) -> (u64, u64) {
        (self.read_bytes, self.write_bytes)
    }

    /// Consumes the disk and returns per-second `(time_s, read_Bps,
    /// write_Bps)` rows up to `end` — the Fig 12 series for this device.
    pub fn into_trace(self, end: SimTime) -> Vec<(f64, f64, f64)> {
        let reads = self.read_trace.finish(end);
        let writes = self.write_trace.finish(end);
        reads
            .into_iter()
            .zip(writes)
            .map(|((t, r), (_, w))| (t, r, w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_profile() -> DiskProfile {
        // 100 MB/s both ways, no overheads: easy arithmetic.
        DiskProfile::custom(
            "test",
            100.0 * 1e6,
            100.0 * 1e6,
            SimDuration::ZERO,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let mut disk = DiskModel::new(simple_profile());
        let done = disk.submit(SimTime::ZERO, IoKind::Write, 100_000_000);
        assert_eq!(done, SimTime::from_secs(1));
    }

    #[test]
    fn fifo_queueing_serializes() {
        let mut disk = DiskModel::new(simple_profile());
        let d1 = disk.submit(SimTime::ZERO, IoKind::Write, 50_000_000);
        let d2 = disk.submit(SimTime::ZERO, IoKind::Write, 50_000_000);
        assert_eq!(d1, SimTime::from_millis(500));
        assert_eq!(d2, SimTime::from_secs(1));
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut disk = DiskModel::new(simple_profile());
        disk.submit(SimTime::ZERO, IoKind::Write, 100_000_000);
        let done = disk.submit(SimTime::from_secs(10), IoKind::Write, 100_000_000);
        assert_eq!(done, SimTime::from_secs(11));
    }

    #[test]
    fn direction_switch_pays_penalty() {
        let mut profile = simple_profile();
        profile.switch_penalty = SimDuration::from_millis(10);
        let mut disk = DiskModel::new(profile);
        let d1 = disk.submit(SimTime::ZERO, IoKind::Write, 100_000_000);
        assert_eq!(d1, SimTime::from_secs(1));
        // Same direction: no penalty.
        let d2 = disk.submit(SimTime::ZERO, IoKind::Write, 100_000_000);
        assert_eq!(d2, SimTime::from_secs(2));
        // Flip to read: +10 ms.
        let d3 = disk.submit(SimTime::ZERO, IoKind::Read, 100_000_000);
        assert_eq!(d3, SimTime::from_secs(3) + SimDuration::from_millis(10));
    }

    #[test]
    fn first_request_pays_no_switch_penalty() {
        let mut profile = simple_profile();
        profile.switch_penalty = SimDuration::from_millis(10);
        let mut disk = DiskModel::new(profile);
        let done = disk.submit(SimTime::ZERO, IoKind::Read, 100_000_000);
        assert_eq!(done, SimTime::from_secs(1));
    }

    #[test]
    fn interleaved_io_slower_than_batched() {
        // The Fig 12 / Finding 6 mechanism: alternating read/write is slower
        // than reads-then-writes for the same volume.
        let run = |interleaved: bool| {
            let mut disk = DiskModel::new(DiskProfile::grid5000_hdd());
            let n = 64;
            let mut last = SimTime::ZERO;
            if interleaved {
                for _ in 0..n {
                    disk.submit(SimTime::ZERO, IoKind::Read, 8 << 20);
                    last = disk.submit(SimTime::ZERO, IoKind::Write, 8 << 20);
                }
            } else {
                for _ in 0..n {
                    disk.submit(SimTime::ZERO, IoKind::Read, 8 << 20);
                }
                for _ in 0..n {
                    last = disk.submit(SimTime::ZERO, IoKind::Write, 8 << 20);
                }
            }
            last
        };
        let batched = run(false);
        let interleaved = run(true);
        assert!(
            interleaved > batched + SimDuration::from_millis(200),
            "interleaved={interleaved} batched={batched}"
        );
    }

    #[test]
    fn busy_fraction_tracks_activity() {
        let mut disk = DiskModel::new(simple_profile());
        // 0.5 s of work starting at t=0.
        disk.submit(SimTime::ZERO, IoKind::Write, 50_000_000);
        assert!((disk.busy_fraction(0) - 0.5).abs() < 1e-9);
        assert_eq!(disk.busy_fraction(1), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut disk = DiskModel::new(simple_profile());
        disk.submit(SimTime::ZERO, IoKind::Read, 100);
        disk.submit(SimTime::ZERO, IoKind::Write, 200);
        disk.submit(SimTime::ZERO, IoKind::Write, 300);
        assert_eq!(disk.byte_counts(), (100, 500));
    }

    #[test]
    fn trace_reports_read_and_write_rates() {
        let mut disk = DiskModel::new(simple_profile());
        disk.submit(SimTime::ZERO, IoKind::Read, 50_000_000); // completes at 0.5s -> bin 0
        disk.submit(SimTime::ZERO, IoKind::Write, 100_000_000); // completes at 1.5s -> bin 1
        let trace = disk.into_trace(SimTime::from_secs(3));
        assert_eq!(trace[0].1, 50_000_000.0);
        assert_eq!(trace[0].2, 0.0);
        assert_eq!(trace[1].1, 0.0);
        assert_eq!(trace[1].2, 100_000_000.0);
    }

    #[test]
    fn ssd_faster_than_hdd() {
        let mut hdd = DiskModel::new(DiskProfile::grid5000_hdd());
        let mut ssd = DiskModel::new(DiskProfile::commodity_ssd());
        let h = hdd.submit(SimTime::ZERO, IoKind::Read, 64 << 20);
        let s = ssd.submit(SimTime::ZERO, IoKind::Read, 64 << 20);
        assert!(s < h);
    }

    #[test]
    #[should_panic(expected = "read bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = DiskProfile::custom("bad", 0.0, 1.0, SimDuration::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn attached_metrics_mirror_io() {
        use rmc_runtime::MetricsRegistry;

        let reg = MetricsRegistry::new();
        let mut disk = DiskModel::new(simple_profile());
        disk.attach_metrics(&reg.family("disk", 2));
        disk.submit(SimTime::ZERO, IoKind::Read, 100);
        disk.submit(SimTime::ZERO, IoKind::Write, 200);
        disk.submit(SimTime::ZERO, IoKind::Write, 300);
        assert_eq!(reg.get("disk.2.reads"), 1);
        assert_eq!(reg.get("disk.2.writes"), 2);
        assert_eq!(reg.get("disk.2.read_bytes"), 100);
        assert_eq!(reg.get("disk.2.write_bytes"), 500);
        // All three submitted at t=0 against a busy queue: all outstanding.
        assert_eq!(reg.get("disk.2.queue_depth"), 3);
        // Same family schema as the file engine: the CRC counter exists at 0.
        assert_eq!(reg.get("disk.2.crc_mismatch"), 0);
        // Once the queue has drained, a new request sees depth 1.
        disk.submit(SimTime::from_secs(100), IoKind::Read, 100);
        assert_eq!(reg.get("disk.2.queue_depth"), 1);
    }
}
