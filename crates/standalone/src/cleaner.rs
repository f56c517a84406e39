//! Background cleaner threads: log cleaning off the write path.
//!
//! RAMCloud runs its log cleaner on dedicated cores so that service threads
//! never stall on cleaning; a pass run from the write path holds the
//! shard's write lock and stalls every writer behind it. This module is
//! the RAMCloud shape at miniature scale: one `rmc-cleaner-{i}` thread per
//! shard drives the engine's three-phase concurrent protocol —
//!
//! 1. **prepare** under the shard *read* lock: pick victims by
//!    cost-benefit, snapshot their live entries (service threads keep
//!    reading and writing the shard);
//! 2. **build** with *no* lock held: memcpy the live entries into survivor
//!    segments — the expensive part of cleaning, fully off the write path;
//! 3. **apply** under the shard *write* lock: re-verify each entry is
//!    still live, swing the hash-table entries, retire victims into the
//!    epoch limbo list. The write lock is held only for the cheap pointer
//!    swings, not the copying.
//!
//! Which level runs (in-memory compaction vs combined cleaning) is the
//! engine balancer's decision ([`rmc_logstore::Store::clean_pressure`]);
//! the thread just supplies idle cycles, and sleeps until a write rolls its
//! shard's head segment (see `IDLE_BACKOFF`). Per-shard counters (passes,
//! segments freed/compacted, survivor bytes, busy time, reclamation epoch
//! lag) surface through [`rmc_runtime::MetricsRegistry`] under
//! `cleaner.{shard}.*`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use rmc_logstore::Store;
use rmc_runtime::{CounterHandle, MetricsRegistry};

use crate::shard::ShardedStore;

/// The longest an idle cleaner thread sleeps. It is woken sooner by the
/// write that rolls its shard's head segment — the only event that raises
/// pressure — so this only bounds how late it harvests limbo segments a
/// reader had pinned, refreshes its gauges and sees the stop flag.
///
/// Not a poll: polled every 1 ms, the cleaners of `local_b`'s four shards
/// woke ≈ 3 750 times a second, each wake-up preempting a client thread
/// that writes inline and never sleeps, and the scheduler then stacked
/// both client threads on one vCPU for up to two seconds at a time, at
/// half the throughput, in most runs (EXPERIMENTS.md "Write hand-off").
const IDLE_BACKOFF: Duration = Duration::from_millis(20);

/// Per-shard cleaner counters, registered once at thread start.
struct ShardCleanerMetrics {
    passes: CounterHandle,
    segments_freed: CounterHandle,
    segments_compacted: CounterHandle,
    survivor_bytes: CounterHandle,
    bytes_relocated: CounterHandle,
    tombstones_dropped: CounterHandle,
    busy_ns: CounterHandle,
    /// Gauge: epochs the oldest limbo segment trails the current epoch.
    reclamation_lag: CounterHandle,
}

impl ShardCleanerMetrics {
    fn new(registry: &MetricsRegistry, shard: usize) -> Self {
        let fam = registry.family("cleaner", shard);
        ShardCleanerMetrics {
            passes: fam.counter("passes"),
            segments_freed: fam.counter("segments_freed"),
            segments_compacted: fam.counter("segments_compacted"),
            survivor_bytes: fam.counter("survivor_bytes"),
            bytes_relocated: fam.counter("bytes_relocated"),
            tombstones_dropped: fam.counter("tombstones_dropped"),
            busy_ns: fam.counter("busy_ns"),
            reclamation_lag: fam.gauge("reclamation_lag"),
        }
    }
}

/// One background cleaner thread per shard. Stopped and joined by
/// [`CleanerPool::stop_and_join`]; dropped unjoined, the threads run until
/// someone sets the stop flag (the server's `Drop` does) and exit within one
/// idle backoff of it.
pub(crate) struct CleanerPool {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CleanerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanerPool")
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl CleanerPool {
    /// Spawns one cleaner thread per shard of `store`, each running until
    /// `stop` is set.
    pub(crate) fn start(
        store: &Arc<ShardedStore>,
        registry: &MetricsRegistry,
        stop: &Arc<AtomicBool>,
    ) -> Self {
        let threads: Vec<JoinHandle<()>> = (0..store.shard_count())
            .map(|i| {
                let store = Arc::clone(store);
                let stop = Arc::clone(stop);
                let metrics = ShardCleanerMetrics::new(registry, i);
                std::thread::Builder::new()
                    .name(format!("rmc-cleaner-{i}"))
                    .spawn(move || cleaner_loop(store.shard(i), &stop, &metrics))
                    .expect("spawn cleaner")
            })
            .collect();
        store.attach_cleaners(threads.iter().map(|t| t.thread().clone()).collect());
        CleanerPool {
            stop: Arc::clone(stop),
            threads,
        }
    }

    /// Sets the stop flag and joins every thread.
    pub(crate) fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        for t in self.threads.drain(..) {
            t.join().expect("cleaner panicked");
        }
    }
}

/// The per-shard cleaner loop: poll the balancer, run one pass when it
/// asks for one, otherwise harvest safe limbo segments and back off.
fn cleaner_loop(shard: &RwLock<Store>, stop: &AtomicBool, metrics: &ShardCleanerMetrics) {
    while !stop.load(Ordering::Acquire) {
        let Some(kind) = shard.read().clean_pressure() else {
            // No pressure. Epochs may still have advanced past limbo
            // segments retired by an earlier pass — return them to the
            // budget so the next burst of writes does not stall.
            if shard.read().log().limbo_segments() > 0 {
                let t0 = Instant::now();
                let freed = shard.write().reclaim_now();
                metrics.busy_ns.add(t0.elapsed().as_nanos() as u64);
                metrics.segments_freed.add(freed as u64);
            }
            metrics.reclamation_lag.set(shard.read().reclamation_lag());
            std::thread::park_timeout(IDLE_BACKOFF);
            continue;
        };

        let t0 = Instant::now();
        // Phase 1 — prepare under the read lock: readers and writers of
        // this shard continue concurrently. When no compaction victim has
        // decayed enough to be worth copying, do NOT escalate to a combined
        // pass — back off and let the dead fraction grow. Combined cleaning
        // arrives on its own at the hard reserve, against deader, cheaper
        // victims.
        let plan = { shard.read().prepare_clean(kind) };
        let Some(plan) = plan else {
            metrics.busy_ns.add(t0.elapsed().as_nanos() as u64);
            std::thread::park_timeout(IDLE_BACKOFF);
            continue;
        };

        // Phase 2 — build with no lock held: the bulk copying into
        // survivor segments runs entirely off the service path.
        let prepared = plan.build();

        // Phase 3 — apply under the write lock: cheap re-verified pointer
        // swings. Returns None if a writer that found the log full raced us
        // and already cleaned a victim; the pass is simply discarded.
        let outcome = shard.write().apply_clean(prepared);
        metrics.busy_ns.add(t0.elapsed().as_nanos() as u64);

        if let Some(out) = outcome {
            metrics.passes.incr();
            metrics.segments_freed.add(out.segments_freed);
            metrics.segments_compacted.add(out.segments_compacted);
            metrics.survivor_bytes.add(out.survivor_bytes);
            metrics.bytes_relocated.add(out.bytes_relocated);
            metrics.tombstones_dropped.add(out.tombstones_dropped);
        }
        metrics.reclamation_lag.set(shard.read().reclamation_lag());
    }
}
