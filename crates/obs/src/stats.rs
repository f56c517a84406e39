//! The stats plane: registry snapshots and their text dump.
//!
//! A [`MetricsRegistry`] accumulates three metric shapes; this module turns
//! them into something a human can read:
//!
//! - [`snapshot`] captures every counter, gauge, and histogram at an
//!   instant, kind-separated (a `set()`-style gauge like `reclamation_lag`
//!   is a level, not an event count);
//! - [`StatsSnapshot::without_zeros`] prunes the idle ones;
//! - [`StatsSnapshot::render_text`] emits the `kvshell stats` dump.

use std::collections::BTreeMap;

use rmc_runtime::{Histogram, MetricKind, MetricsRegistry};

/// Summary of one histogram at snapshot time (values in recorded units,
/// nanoseconds at every call site in this workspace).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// 50th percentile (lower bucket bound).
    pub p50: u64,
    /// 90th percentile (lower bucket bound).
    pub p90: u64,
    /// 99th percentile (lower bucket bound).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistSummary {
    /// Summarizes a point-in-time histogram copy.
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// A point-in-time capture of a whole registry, kind-separated.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Latest-level gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistSummary>,
}

/// Captures every metric in `registry` right now.
pub fn snapshot(registry: &MetricsRegistry) -> StatsSnapshot {
    let mut snap = StatsSnapshot::default();
    for (name, (value, kind)) in registry.snapshot_kinds() {
        match kind {
            MetricKind::Counter => {
                snap.counters.insert(name, value);
            }
            MetricKind::Gauge => {
                snap.gauges.insert(name, value);
            }
        }
    }
    for (name, hist) in registry.snapshot_histograms() {
        snap.histograms.insert(name, HistSummary::of(&hist));
    }
    snap
}

impl StatsSnapshot {
    /// Drops every metric whose value (or histogram count) is zero —
    /// registries accumulate hundreds of names, most idle in any interval.
    pub fn without_zeros(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(_, &v)| v != 0)
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .filter(|(_, h)| h.count != 0)
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }

    /// Human-readable dump (the `kvshell stats` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns):\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<44} n={} mean={:.0} p50={} p90={} p99={} max={}\n",
                    h.count, h.mean, h.p50, h.p90, h.p99, h.max
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_activity() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("read.0.lockfree").add(100);
        reg.gauge("read.0.value_views_live").set(3);
        reg.histogram("stage.read_service_ns").record(800);
        reg
    }

    #[test]
    fn without_zeros_prunes_idle_metrics() {
        let reg = reg_with_activity();
        reg.counter("client.0.giveups"); // registered, never incremented
        reg.histogram("stage.queue_wait_ns"); // registered, never recorded
        let snap = snapshot(&reg).without_zeros();
        assert!(!snap.counters.contains_key("client.0.giveups"));
        assert!(!snap.histograms.contains_key("stage.queue_wait_ns"));
        assert!(snap.counters.contains_key("read.0.lockfree"));
    }

    #[test]
    fn renders_text() {
        let text = snapshot(&reg_with_activity()).render_text();
        assert!(text.contains("read.0.lockfree"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("p99="));
    }
}
