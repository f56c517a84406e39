//! Per-client and per-run measurement containers.
//!
//! The simulated clients record into [`ClientStats`] histograms; a
//! wall-clock loop collects raw sample vectors and collapses them into a
//! [`LatencySummary`].

use rmc_runtime::{Histogram, SimDuration, SimTime};
use serde::Serialize;

/// Latency/throughput statistics for one client (or aggregated).
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Completed operations.
    pub completed: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes (updates + inserts + RMW).
    pub writes: u64,
    /// Operation latency distribution (nanoseconds).
    pub latency: Histogram,
    /// Windowed mean latency timeline (for Fig 10).
    timeline: WindowedMean,
    /// First and last completion instants.
    pub first_completion: Option<SimTime>,
    /// Last completion instant.
    pub last_completion: Option<SimTime>,
}

impl Default for ClientStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientStats {
    /// Empty statistics with a 1-second latency-timeline window.
    pub fn new() -> Self {
        ClientStats::with_timeline_window(SimDuration::from_secs(1))
    }

    /// Empty statistics with a custom latency-timeline window.
    pub fn with_timeline_window(window: SimDuration) -> Self {
        ClientStats {
            completed: 0,
            reads: 0,
            writes: 0,
            latency: Histogram::new(),
            timeline: WindowedMean::new(window),
            first_completion: None,
            last_completion: None,
        }
    }

    /// Records one completed operation.
    pub fn record(&mut self, completed_at: SimTime, latency: SimDuration, is_write: bool) {
        self.completed += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.latency.record_duration(latency);
        self.timeline.add(completed_at, latency.as_micros_f64());
        if self.first_completion.is_none() {
            self.first_completion = Some(completed_at);
        }
        self.last_completion = Some(completed_at);
    }

    /// Mean latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1e3
    }

    /// Observed throughput: completed ops over the completion span.
    pub fn throughput_ops(&self) -> f64 {
        match (self.first_completion, self.last_completion) {
            (Some(a), Some(b)) if b > a => self.completed as f64 / (b - a).as_secs_f64(),
            (Some(_), Some(_)) => self.completed as f64, // all in one instant
            _ => 0.0,
        }
    }

    /// The latency timeline as `(window_start_seconds, mean_latency_us)`;
    /// windows with no completions are omitted (they render as gaps — a
    /// blocked client in Fig 10).
    pub fn latency_timeline(&self) -> Vec<(f64, f64)> {
        self.timeline.points()
    }

    /// Merges another client's stats into this one (for aggregation).
    pub fn merge(&mut self, other: &ClientStats) {
        self.completed += other.completed;
        self.reads += other.reads;
        self.writes += other.writes;
        self.latency.merge(&other.latency);
        self.timeline.merge(&other.timeline);
        self.first_completion = match (self.first_completion, other.first_completion) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_completion = match (self.last_completion, other.last_completion) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Latency percentiles over one operation class, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Operations measured.
    pub count: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Worst observed (µs).
    pub max_us: f64,
}

impl LatencySummary {
    fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_us: 0.0,
            p50_us: 0.0,
            p90_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
        }
    }

    /// Summarizes a set of latency samples (µs). Samples are consumed
    /// (sorted in place).
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::empty();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let count = samples.len() as u64;
        let mean = samples.iter().sum::<f64>() / count as f64;
        LatencySummary {
            count,
            mean_us: mean,
            p50_us: percentile(samples, 50.0),
            p90_us: percentile(samples, 90.0),
            p99_us: percentile(samples, 99.0),
            max_us: *samples.last().expect("nonempty"),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Mean-per-window accumulator for timeline plots.
#[derive(Debug, Clone)]
struct WindowedMean {
    window: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl WindowedMean {
    fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        WindowedMean {
            window,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn add(&mut self, t: SimTime, value: f64) {
        let bin = (t.as_nanos() / self.window.as_nanos()) as usize;
        if self.sums.len() <= bin {
            self.sums.resize(bin + 1, 0.0);
            self.counts.resize(bin + 1, 0);
        }
        self.sums[bin] += value;
        self.counts[bin] += 1;
    }

    fn merge(&mut self, other: &WindowedMean) {
        if other.sums.len() > self.sums.len() {
            self.sums.resize(other.sums.len(), 0.0);
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, (&s, &c)) in other.sums.iter().zip(&other.counts).enumerate() {
            self.sums[i] += s;
            self.counts[i] += c;
        }
    }

    fn points(&self) -> Vec<(f64, f64)> {
        let w = self.window.as_secs_f64();
        self.sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(|(i, (&s, &c))| (i as f64 * w, s / c as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut s = ClientStats::new();
        s.record(SimTime::from_secs(1), SimDuration::from_micros(10), false);
        s.record(SimTime::from_secs(2), SimDuration::from_micros(30), true);
        assert_eq!(s.completed, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert!((s.mean_latency_us() - 20.0).abs() < 0.5);
    }

    #[test]
    fn throughput_over_span() {
        let mut s = ClientStats::new();
        for i in 0..101u64 {
            s.record(
                SimTime::from_millis(i * 10),
                SimDuration::from_micros(5),
                false,
            );
        }
        // 101 ops over 1 second.
        assert!((s.throughput_ops() - 101.0).abs() < 2.0);
    }

    #[test]
    fn timeline_has_gaps_for_blocked_windows() {
        let mut s = ClientStats::new();
        s.record(
            SimTime::from_millis(500),
            SimDuration::from_micros(15),
            false,
        );
        // 3-second silence (blocked client), then recovery.
        s.record(
            SimTime::from_millis(4500),
            SimDuration::from_micros(35),
            false,
        );
        let tl = s.latency_timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].0, 0.0);
        assert_eq!(tl[1].0, 4.0);
        assert!((tl[0].1 - 15.0).abs() < 1e-9);
        assert!((tl[1].1 - 35.0).abs() < 1e-9);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = ClientStats::new();
        let mut b = ClientStats::new();
        a.record(SimTime::from_secs(1), SimDuration::from_micros(10), false);
        b.record(SimTime::from_secs(3), SimDuration::from_micros(20), true);
        a.merge(&b);
        assert_eq!(a.completed, 2);
        assert_eq!(a.first_completion, Some(SimTime::from_secs(1)));
        assert_eq!(a.last_completion, Some(SimTime::from_secs(3)));
        assert_eq!(a.latency_timeline().len(), 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 50.0), 51.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn summary_from_samples() {
        let mut samples = vec![4.0, 1.0, 3.0, 2.0];
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_us, 2.5);
        assert_eq!(s.max_us, 4.0);
        let empty = LatencySummary::from_samples(&mut Vec::new());
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ClientStats::new();
        assert_eq!(s.throughput_ops(), 0.0);
        assert_eq!(s.mean_latency_us(), 0.0);
        assert!(s.latency_timeline().is_empty());
    }
}
