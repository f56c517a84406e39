//! Measurement primitives used across the simulator.
//!
//! The reproduced paper reports averages with error bars, per-second power
//! samples, latency timelines, and throughput. These types cover those needs:
//!
//! - [`Summary`] — running mean/min/max without storing samples,
//! - [`TimeSeries`] — `(time, value)` samples for timeline figures,
//! - [`Histogram`] — log-bucketed latency histogram with quantiles,
//! - [`RateMeter`] — events-per-second over fixed windows (throughput
//!   timelines, disk MB/s in Fig 12).

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use crate::time::{SimDuration, SimTime};

/// Streaming summary statistics: count, mean, min and max.
///
/// # Examples
///
/// ```
/// use rmc_runtime::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 6.0);
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.mean += (v - self.mean) / self.count as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation, `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sampled `(time, value)` series, e.g. a power or CPU timeline.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample taken at `t`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs_f64(), value));
    }

    /// The samples as `(seconds, value)` pairs in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Log-bucketed histogram for latency-like values in nanoseconds.
///
/// Buckets grow geometrically (16 sub-buckets per octave), giving ~4.4 %
/// relative quantile error — plenty for reproducing µs-scale latency figures.
///
/// Every cell is an atomic and [`Histogram::record`] takes `&self`, so one
/// type serves both a node's private histogram and the shared, lock-free
/// ones a [`crate::MetricsRegistry`] hands out ([`crate::HistogramHandle`]
/// is an `Arc` of this). All accesses are `Relaxed`: the cells are
/// statistics and publish no other data.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = 4;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (value >> (octave - 1)) - SUB_BUCKETS;
    (SUB_BUCKETS as u32 + octave * SUB_BUCKETS as u32 - SUB_BUCKETS as u32 + sub as u32) as usize
}

fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS + 1;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (octave - 1)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy. Recorders running concurrently may land between
/// the cell reads, so the copy is coherent only up to in-flight records —
/// fine for reporting.
impl Clone for Histogram {
    fn clone(&self) -> Self {
        let counts: Vec<u64> = self.buckets.iter().map(load).collect();
        Histogram {
            // Derive the count from the copied buckets so the two agree.
            count: AtomicU64::new(counts.iter().sum()),
            buckets: counts.into_iter().map(AtomicU64::new).collect(),
            sum: AtomicU64::new(load(&self.sum)),
            max: AtomicU64::new(load(&self.max)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..64 * SUB_BUCKETS as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (e.g. a latency in nanoseconds). Lock-free, safe
    /// from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        load(&self.count)
    }

    /// Mean of recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => load(&self.sum) as f64 / n as f64,
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        load(&self.max)
    }

    /// The value at quantile `q` in `[0, 1]` (lower bucket bound, so the
    /// result under-estimates by at most one bucket width).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        // The target comes from the buckets' own total, not `count`: cells
        // only grow, so the walk below sees at least this many values even
        // while other threads record.
        let count: u64 = self.buckets.iter().map(load).sum();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().map(load).enumerate() {
            seen += c;
            if seen >= target {
                return bucket_low(i);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(load(b), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(load(&other.sum), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }
}

/// Counts events into fixed-width time windows, yielding a rate timeline.
///
/// Used for per-second throughput and the Fig 12 disk MB/s series.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: SimDuration,
    /// Completed windows: amount accumulated in each.
    windows: Vec<f64>,
    current_window: u64,
    current_amount: f64,
}

impl RateMeter {
    /// Creates a meter with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "rate meter window must be positive");
        RateMeter {
            window,
            windows: Vec::new(),
            current_window: 0,
            current_amount: 0.0,
        }
    }

    fn window_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.window.as_nanos()
    }

    /// Adds `amount` (e.g. 1 request, or bytes moved) at time `t`.
    ///
    /// Times must be non-decreasing across calls; out-of-order samples are
    /// folded into the current window.
    pub fn add(&mut self, t: SimTime, amount: f64) {
        let w = self.window_of(t).max(self.current_window);
        while self.current_window < w {
            self.windows.push(self.current_amount);
            self.current_amount = 0.0;
            self.current_window += 1;
        }
        self.current_amount += amount;
    }

    /// Closes out windows up to `t` and returns `(window_start_seconds,
    /// amount_per_second)` pairs.
    pub fn finish(mut self, t: SimTime) -> Vec<(f64, f64)> {
        let w = self.window_of(t).max(self.current_window);
        while self.current_window <= w {
            self.windows.push(self.current_amount);
            self.current_amount = 0.0;
            self.current_window += 1;
        }
        let secs = self.window.as_secs_f64();
        self.windows
            .iter()
            .enumerate()
            .map(|(i, &a)| (i as f64 * secs, a / secs))
            .collect()
    }
}

/// Accumulates weighted busy spans into fixed-width time bins.
///
/// Components (worker threads, disks, NICs) report the spans during which
/// they were busy; the sampler then reads back per-bin utilization. This is
/// how the reproduction obtains the per-second CPU-usage and power timelines
/// (Table I, Fig 9) without storing every span.
///
/// # Examples
///
/// ```
/// use rmc_runtime::{BinnedUsage, SimDuration, SimTime};
///
/// // One core busy for half of each of the first two seconds.
/// let mut u = BinnedUsage::new(SimDuration::from_secs(1));
/// u.add_span(SimTime::from_millis(0), SimTime::from_millis(500), 1.0);
/// u.add_span(SimTime::from_millis(1500), SimTime::from_millis(2000), 1.0);
/// assert_eq!(u.bin_value(0), 0.5);
/// assert_eq!(u.bin_value(1), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct BinnedUsage {
    window: SimDuration,
    /// Busy time (in weighted seconds) per bin.
    bins: Vec<f64>,
}

impl BinnedUsage {
    /// Creates an accumulator with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "bin width must be positive");
        BinnedUsage {
            window,
            bins: Vec::new(),
        }
    }

    /// The bin width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Adds a busy span `[from, to)` with the given weight (e.g. 1.0 for one
    /// core, 2.0 for two cores busy simultaneously). Spans may arrive in any
    /// order and may overlap.
    pub fn add_span(&mut self, from: SimTime, to: SimTime, weight: f64) {
        if to <= from || weight == 0.0 {
            return;
        }
        let w = self.window.as_nanos();
        let first = from.as_nanos() / w;
        let last = (to.as_nanos() - 1) / w;
        if self.bins.len() <= last as usize {
            self.bins.resize(last as usize + 1, 0.0);
        }
        for bin in first..=last {
            let bin_start = bin * w;
            let bin_end = bin_start + w;
            let overlap = to.as_nanos().min(bin_end) - from.as_nanos().max(bin_start);
            self.bins[bin as usize] += overlap as f64 / 1e9 * weight;
        }
    }

    /// Average weight during bin `i` (busy weighted-seconds divided by bin
    /// width); `0.0` for bins never touched.
    pub fn bin_value(&self, i: usize) -> f64 {
        self.bins
            .get(i)
            .map(|&b| b / self.window.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Number of bins that have been touched (the timeline length).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no spans have been added.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total accumulated weighted busy seconds.
    pub fn total_busy_seconds(&self) -> f64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_stats() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut all = Summary::new();
        for i in 0..50 {
            let v = (i * i % 17) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn histogram_buckets_monotone() {
        // bucket_low(bucket_index(v)) <= v for all v, and indices are
        // monotone in v.
        let mut prev_idx = 0;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
        ] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "low bound above value for {v}");
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
        }
    }

    #[test]
    fn histogram_quantiles_reasonable() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((4500..=5200).contains(&p50), "p50={p50}");
        assert!((9200..=10_000).contains(&p99), "p99={p99}");
        assert!(h.quantile(1.0) <= 10_000);
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // Values below SUB_BUCKETS land in exact buckets.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn histogram_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        m.add(SimTime::from_millis(100), 1.0);
        m.add(SimTime::from_millis(900), 1.0);
        m.add(SimTime::from_millis(1500), 5.0);
        let rates = m.finish(SimTime::from_secs(3));
        assert_eq!(rates[0], (0.0, 2.0));
        assert_eq!(rates[1], (1.0, 5.0));
        assert_eq!(rates[2], (2.0, 0.0));
    }

    #[test]
    fn binned_usage_splits_across_bins() {
        let mut u = BinnedUsage::new(SimDuration::from_secs(1));
        // Span covering 0.5s..2.5s with weight 2.
        u.add_span(SimTime::from_millis(500), SimTime::from_millis(2500), 2.0);
        assert!((u.bin_value(0) - 1.0).abs() < 1e-9);
        assert!((u.bin_value(1) - 2.0).abs() < 1e-9);
        assert!((u.bin_value(2) - 1.0).abs() < 1e-9);
        assert!((u.total_busy_seconds() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn binned_usage_overlapping_spans_add() {
        let mut u = BinnedUsage::new(SimDuration::from_secs(1));
        u.add_span(SimTime::ZERO, SimTime::from_secs(1), 1.0);
        u.add_span(SimTime::ZERO, SimTime::from_secs(1), 1.0);
        assert!((u.bin_value(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn binned_usage_empty_and_degenerate() {
        let mut u = BinnedUsage::new(SimDuration::from_secs(1));
        assert!(u.is_empty());
        u.add_span(SimTime::from_secs(1), SimTime::from_secs(1), 1.0);
        assert!(u.is_empty(), "zero-length span must be ignored");
        assert_eq!(u.bin_value(99), 0.0);
    }

    #[test]
    fn rate_meter_skips_empty_windows() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        m.add(SimTime::from_secs(5), 10.0);
        let rates = m.finish(SimTime::from_secs(6));
        assert_eq!(rates.len(), 7);
        assert_eq!(rates[5].1, 10.0);
        assert!(rates[..5].iter().all(|&(_, r)| r == 0.0));
    }
}
