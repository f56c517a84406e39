//! A process-wide named-metric registry shared across threads and engines.
//!
//! Protocol nodes count events (retries, backoffs, epoch-mismatch drops,
//! fenced replicas, …) without knowing which engine hosts them. The sim
//! engine owns all nodes on one thread; the threaded engine spreads them
//! over real threads — so handles are `Arc`-shared atomics and cloning a
//! registry shares the underlying values. Metric names are dotted paths
//! (`"client.3.retries"`, `"net.epoch_mismatch"`); a snapshot returns every
//! metric, and [`MetricsRegistry::sum`] aggregates a per-node family by
//! prefix + suffix.
//!
//! Three metric shapes:
//!
//! - **counters** ([`CounterHandle`], [`MetricKind::Counter`]) — monotonic
//!   event totals, meaningfully *diffed* between two snapshots;
//! - **gauges** (also [`CounterHandle`], registered via
//!   [`MetricsRegistry::gauge`], [`MetricKind::Gauge`]) — point-in-time
//!   levels written with [`CounterHandle::set`] (queue depth, reclamation
//!   lag); diffing them is meaningless, so the stats plane reports the
//!   latest value instead;
//! - **histograms** ([`HistogramHandle`]) — a shared [`Histogram`]:
//!   lock-free log-bucketed latency distributions recorded from any thread.
//!
//! Registration takes a `Mutex` and allocates the name; the *handles* are
//! lock-free. Hot paths must resolve handles once (see
//! [`MetricsRegistry::family`]) and record through them, never re-look-up
//! by name per operation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Histogram;

/// One named counter (or gauge). Cheap to clone; updates are lock-free.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds 1.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for gauge-style metrics (queue depth,
    /// reclamation epoch lag) where the latest observation, not a running
    /// total, is what a snapshot should report.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a registered metric's value is meant to be read over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic running total; the delta between two snapshots is a rate.
    Counter,
    /// Latest-observation level set with [`CounterHandle::set`]; deltas are
    /// meaningless, a snapshot reports the current value.
    Gauge,
}

/// One named lock-free histogram: a shared [`Histogram`]. Cheap to clone;
/// [`Histogram::record`] (reached through `Deref`) is a handful of relaxed
/// atomic ops, safe from any thread.
///
/// # Examples
///
/// ```
/// use rmc_runtime::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let h = reg.histogram("stage.queue_wait_ns");
/// h.record(1_500);
/// h.record(2_500);
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 2);
/// assert!(snap.mean() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Histogram>);

impl std::ops::Deref for HistogramHandle {
    type Target = Histogram;

    fn deref(&self) -> &Histogram {
        &self.0
    }
}

impl HistogramHandle {
    /// A point-in-time copy that later records no longer reach.
    pub fn snapshot(&self) -> Histogram {
        Histogram::clone(&self.0)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, (CounterHandle, MetricKind)>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// A clonable registry of named [`CounterHandle`]s and [`HistogramHandle`]s.
///
/// # Examples
///
/// ```
/// use rmc_runtime::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let retries = reg.counter("client.0.retries");
/// retries.incr();
/// reg.counter("client.1.retries").add(2);
/// assert_eq!(reg.sum("client.", ".retries"), 3);
/// assert_eq!(reg.snapshot()["client.0.retries"], 1);
///
/// // Pre-resolved per-node family: one lock at construction, lock-free use.
/// let fam = reg.family("read", 3);
/// let lockfree = fam.counter("lockfree");
/// lockfree.incr();
/// assert_eq!(reg.get("read.3.lockfree"), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("counters", &self.counters.len())
            .field("histograms", &self.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn counter_kind(&self, name: &str, kind: MetricKind) -> CounterHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let entry = inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| (CounterHandle::default(), kind));
        // Re-registering under a different kind re-brands the metric: the
        // most specific caller (the one that knows it's a gauge) wins.
        if kind == MetricKind::Gauge {
            entry.1 = MetricKind::Gauge;
        }
        entry.0.clone()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    /// The same name always yields handles onto the same underlying value.
    pub fn counter(&self, name: &str) -> CounterHandle {
        self.counter_kind(name, MetricKind::Counter)
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    ///
    /// Same handle type as [`MetricsRegistry::counter`] (write with
    /// [`CounterHandle::set`]), but snapshots brand it [`MetricKind::Gauge`]
    /// so the stats plane reports its level instead of diffing it.
    pub fn gauge(&self, name: &str) -> CounterHandle {
        self.counter_kind(name, MetricKind::Gauge)
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.histograms.entry(name.to_owned()).or_default().clone()
    }

    /// A pre-resolved per-node handle family: `family("read", 3)` resolves
    /// names under `read.3.`. Resolution locks once per handle at
    /// construction; the returned handles are lock-free — this is the API
    /// hot paths must use instead of per-call [`MetricsRegistry::counter`].
    pub fn family(&self, name: &str, index: usize) -> MetricsFamily {
        MetricsFamily {
            registry: self.clone(),
            prefix: format!("{name}.{index}."),
        }
    }

    /// Like [`MetricsRegistry::family`] but with a verbatim prefix
    /// (`"net."`, `"stage."`) instead of a `name.index.` pair.
    pub fn family_at(&self, prefix: &str) -> MetricsFamily {
        MetricsFamily {
            registry: self.clone(),
            prefix: prefix.to_owned(),
        }
    }

    /// Current value of `name`, or 0 when it was never created.
    pub fn get(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.get(name).map_or(0, |(c, _)| c.get())
    }

    /// Sums every counter whose name starts with `prefix` and ends with
    /// `suffix` — aggregating a per-node family like
    /// `("client.", ".retries")` over all clients.
    pub fn sum(&self, prefix: &str, suffix: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, (c, _))| c.get())
            .sum()
    }

    /// A point-in-time copy of every counter and gauge (kind-blind; the
    /// stats plane uses [`MetricsRegistry::snapshot_kinds`]).
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .map(|(k, (c, _))| (k.clone(), c.get()))
            .collect()
    }

    /// A point-in-time copy of every counter and gauge with its kind.
    pub fn snapshot_kinds(&self) -> BTreeMap<String, (u64, MetricKind)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .map(|(k, (c, kind))| (k.clone(), (c.get(), *kind)))
            .collect()
    }

    /// A point-in-time copy of every histogram.
    pub fn snapshot_histograms(&self) -> BTreeMap<String, Histogram> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

/// Pre-resolved handle family under a fixed name prefix; see
/// [`MetricsRegistry::family`].
#[derive(Debug, Clone)]
pub struct MetricsFamily {
    registry: MetricsRegistry,
    prefix: String,
}

impl MetricsFamily {
    /// Resolves the counter `prefix + name` (one lock, then lock-free).
    pub fn counter(&self, name: &str) -> CounterHandle {
        self.registry.counter(&format!("{}{name}", self.prefix))
    }

    /// Resolves the gauge `prefix + name` (one lock, then lock-free).
    pub fn gauge(&self, name: &str) -> CounterHandle {
        self.registry.gauge(&format!("{}{name}", self.prefix))
    }

    /// Resolves the histogram `prefix + name` (one lock, then lock-free).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.registry.histogram(&format!("{}{name}", self.prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_the_counter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.incr();
        b.add(4);
        assert_eq!(reg.get("x"), 5);
        assert_eq!(reg.get("never"), 0);
        a.set(2);
        assert_eq!(reg.get("x"), 2, "set overwrites like a gauge");
    }

    #[test]
    fn clones_share_state_across_threads() {
        let reg = MetricsRegistry::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let c = reg.counter(&format!("node.{t}.events"));
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.sum("node.", ".events"), 4000);
        assert_eq!(reg.snapshot().len(), 4);
    }

    #[test]
    fn sum_filters_by_prefix_and_suffix() {
        let reg = MetricsRegistry::new();
        reg.counter("client.0.retries").add(1);
        reg.counter("client.1.retries").add(2);
        reg.counter("client.1.giveups").add(7);
        reg.counter("server.1.retries").add(9);
        assert_eq!(reg.sum("client.", ".retries"), 3);
        assert_eq!(reg.sum("client.", ".giveups"), 7);
        assert_eq!(reg.sum("", ".retries"), 12);
    }

    #[test]
    fn gauges_are_branded_and_survive_counter_reregistration() {
        let reg = MetricsRegistry::new();
        reg.gauge("read.0.value_views_live").set(7);
        // A later kind-blind lookup must not demote the gauge.
        reg.counter("read.0.value_views_live");
        let kinds = reg.snapshot_kinds();
        assert_eq!(kinds["read.0.value_views_live"], (7, MetricKind::Gauge));
        // And a counter later discovered to be a gauge is re-branded.
        reg.counter("cleaner.0.reclamation_lag");
        reg.gauge("cleaner.0.reclamation_lag");
        assert_eq!(
            reg.snapshot_kinds()["cleaner.0.reclamation_lag"].1,
            MetricKind::Gauge
        );
    }

    #[test]
    fn family_resolves_dotted_names() {
        let reg = MetricsRegistry::new();
        let fam = reg.family("cleaner", 2);
        fam.counter("passes").add(3);
        fam.gauge("reclamation_lag").set(5);
        fam.histogram("busy_ns").record(100);
        assert_eq!(reg.get("cleaner.2.passes"), 3);
        assert_eq!(reg.get("cleaner.2.reclamation_lag"), 5);
        assert_eq!(reg.histogram("cleaner.2.busy_ns").count(), 1);
        let net = reg.family_at("net.");
        net.counter("epoch_mismatch").incr();
        assert_eq!(reg.get("net.epoch_mismatch"), 1);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        let p50 = snap.quantile(0.5);
        // Log buckets under-report by at most ~1/16 relative error.
        assert!((430..=500).contains(&p50), "p50={p50}");
        assert_eq!(snap.max(), 1000);
        assert!((snap.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn concurrent_histogram_and_counter_hammer_is_coherent() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = MetricsRegistry::new();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    // Half the threads resolve via family, half by name —
                    // both must land on the same underlying metrics.
                    let (c, h) = if t % 2 == 0 {
                        let fam = reg.family_at("hammer.");
                        (fam.counter("events"), fam.histogram("lat_ns"))
                    } else {
                        (reg.counter("hammer.events"), reg.histogram("hammer.lat_ns"))
                    };
                    for i in 0..PER_THREAD {
                        c.incr();
                        h.record(i % 4096);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(reg.get("hammer.events"), total);
        let snap = reg.histogram("hammer.lat_ns").snapshot();
        assert_eq!(snap.count(), total);
        assert!(snap.max() < 4096);
        // Quantiles must be monotone over the merged buckets.
        let (p50, p90, p99) = (snap.quantile(0.5), snap.quantile(0.9), snap.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
    }
}
