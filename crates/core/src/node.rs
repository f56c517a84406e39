//! The cost model of one storage server's machine: the threading model
//! (a polling dispatch thread, spin-then-sleep workers, a serialized log
//! head with contention inflation), its disk, and activity accounting.
//! [`crate::cost`] charges every delivery to a server against it; the
//! protocol's `Server` never sees it.

use std::collections::VecDeque;

use rmc_disk::DiskModel;
use rmc_runtime::{BinnedUsage, SimDuration, SimTime};

use crate::calib;
use crate::cost::Waiting;

/// A storage server's machine: master + backup on one 4-core node.
#[derive(Debug)]
pub struct ServerNode {
    /// The node's disk.
    pub disk: DiskModel,
    /// When the dispatch thread frees up.
    pub dispatch_free: SimTime,
    /// When each worker thread next becomes available; `SimTime::MAX` while
    /// it is blocked waiting for replication acks.
    pub workers: Vec<SimTime>,
    /// Deliveries whose dispatch finished but no worker was available.
    pub(crate) pending: VecDeque<Waiting>,
    /// Ops between worker assignment and local completion.
    pub in_service: usize,
    /// Writers between dispatch arrival and local completion (drives the
    /// log-head contention factor).
    pub waiting_writers: usize,
    /// When the log-head critical section frees up.
    pub lock_free: SimTime,
    /// Exponentially smoothed time-average of the number of concurrent
    /// writers (updates between dispatch arrival and local completion) —
    /// the write-path thread pressure the paper identifies as the driver of
    /// the update-path degradation ("this issue is tightly related to the
    /// number of threads servicing requests", Finding 2).
    pub writers_ewma: f64,
    /// Start of the current writer-observation window.
    writers_window_start: SimTime,
    /// ∫ waiting_writers dt within the current window, in seconds.
    writers_integral: f64,
    /// Last instant `waiting_writers` changed.
    writers_last_change: SimTime,
    /// Worker busy time (service + spin) per 1 s bin, in core-seconds.
    pub cpu: BinnedUsage,
    /// Instant the node died, if it did.
    pub killed_at: Option<SimTime>,
}

impl ServerNode {
    /// Creates an idle server.
    pub fn new(disk: DiskModel) -> Self {
        ServerNode {
            disk,
            dispatch_free: SimTime::ZERO,
            workers: vec![SimTime::ZERO; calib::WORKER_THREADS],
            pending: VecDeque::new(),
            in_service: 0,
            waiting_writers: 0,
            lock_free: SimTime::ZERO,
            writers_ewma: 0.0,
            writers_window_start: SimTime::ZERO,
            writers_integral: 0.0,
            writers_last_change: SimTime::ZERO,
            cpu: BinnedUsage::new(SimDuration::from_secs(1)),
            killed_at: None,
        }
    }

    /// Runs the dispatch stage for a request arriving at `now`; returns when
    /// dispatch hands the request to the worker pool.
    pub fn dispatch(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.dispatch_free);
        let done = start + SimDuration::from_micros_f64(calib::DISPATCH_US);
        self.dispatch_free = done;
        done
    }

    /// Number of requests currently runnable (in service or queued).
    pub fn runnable(&self) -> usize {
        self.in_service + self.pending.len()
    }

    /// Adjusts the concurrent-writer count at `now`, folding elapsed time
    /// into the windowed average that feeds [`ServerNode::write_inflation`].
    pub fn adjust_writers(&mut self, now: SimTime, delta: isize) {
        const WINDOW: SimDuration = SimDuration::from_millis(20);
        const ALPHA: f64 = 0.3;
        let w = WINDOW.as_secs_f64();
        // Integrate the old level forward, window by window.
        let mut rolled = 0u32;
        while now >= self.writers_window_start + WINDOW {
            let window_end = self.writers_window_start + WINDOW;
            self.writers_integral += self.waiting_writers as f64
                * window_end
                    .saturating_since(self.writers_last_change)
                    .as_secs_f64();
            self.writers_ewma += ALPHA * (self.writers_integral / w - self.writers_ewma);
            self.writers_integral = 0.0;
            self.writers_window_start = window_end;
            self.writers_last_change = window_end;
            rolled += 1;
            if rolled > 64 {
                // Long idle gap: restart at now with a settled average.
                self.writers_window_start = now;
                self.writers_last_change = now;
                self.writers_integral = 0.0;
                self.writers_ewma = self.waiting_writers as f64;
                break;
            }
        }
        self.writers_integral += self.waiting_writers as f64
            * now.saturating_since(self.writers_last_change).as_secs_f64();
        self.writers_last_change = now;
        if delta >= 0 {
            self.waiting_writers += delta as usize;
        } else {
            self.waiting_writers = self.waiting_writers.saturating_sub((-delta) as usize);
        }
    }

    /// Picks a worker for a request that becomes runnable at `ready`:
    /// prefer the *most recently used* idle worker (it is still spinning —
    /// no wakeup), otherwise the earliest-free busy worker. `None` when
    /// every worker is blocked on replication acks.
    ///
    /// The hot-worker preference is what keeps exactly one worker spinning
    /// per closed-loop client at light load — the Table I staircase
    /// (49.8 % CPU at 1 client, 74 % at 2).
    pub fn pick_worker(&mut self, ready: SimTime) -> Option<usize> {
        let mut hottest_idle: Option<(usize, SimTime)> = None;
        let mut earliest_busy: Option<(usize, SimTime)> = None;
        for (w, free_at) in self.workers.iter().enumerate() {
            if *free_at == SimTime::MAX {
                continue;
            }
            if *free_at <= ready {
                if hottest_idle.is_none_or(|(_, f)| *free_at > f) {
                    hottest_idle = Some((w, *free_at));
                }
            } else if earliest_busy.is_none_or(|(_, f)| *free_at < f) {
                earliest_busy = Some((w, *free_at));
            }
        }
        hottest_idle.or(earliest_busy).map(|(w, _)| w)
    }

    /// Accounts a worker's busy span, extending backwards over its
    /// spin-before-sleep window.
    pub fn account_worker_busy(&mut self, idle_since: SimTime, start: SimTime, end: SimTime) {
        let spin = SimDuration::from_micros_f64(calib::SPIN_TIMEOUT_US);
        let spin_end = idle_since.saturating_add(spin).min(start);
        if spin_end > idle_since {
            self.cpu.add_span(idle_since, spin_end, 1.0);
        }
        if end > start {
            self.cpu.add_span(start, end, 1.0);
        }
    }

    /// Read-side contention factor at current queue depth.
    pub fn read_inflation(&self) -> f64 {
        let excess = self.runnable().saturating_sub(calib::WORKER_THREADS);
        1.0 + calib::CONTENTION_READ * excess as f64
    }

    /// Context-switch inflation factor for write worker service at the
    /// current writer pressure: ramps linearly from 1 to
    /// `1 + CONTENTION_WRITE` as the time-averaged concurrent-writer count
    /// climbs from `CONTENTION_THRESHOLD` over `CONTENTION_SCALE` more
    /// writers — the paper's "poor thread handling under highly-concurrent
    /// accesses" (Finding 2).
    pub fn write_inflation(&self) -> f64 {
        let excess = (self.writers_ewma - calib::CONTENTION_THRESHOLD).max(0.0);
        let ramp = (excess / calib::CONTENTION_SCALE).min(1.0);
        1.0 + calib::CONTENTION_WRITE * ramp
    }

    /// CPU busy fraction of the node in one-second bin `bin`: dispatch core
    /// (while alive) plus worker activity, over the node's cores. `coverage` is the
    /// fraction of the bin the run actually spans (the final bin of a short
    /// run is partial; without the correction short runs would dilute).
    pub fn cpu_fraction(&self, bin: usize, coverage: f64) -> f64 {
        let coverage = coverage.clamp(1e-9, 1.0);
        let died_before = match self.killed_at {
            Some(t) => (t.as_secs_f64() as usize) < bin + 1,
            None => false,
        };
        let dispatch = if died_before { 0.0 } else { 1.0 };
        let workers = (self.cpu.bin_value(bin) / coverage).min(calib::WORKER_THREADS as f64);
        ((dispatch + workers) / calib::CORES as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmc_disk::DiskProfile;

    fn node() -> ServerNode {
        ServerNode::new(DiskModel::new(DiskProfile::grid5000_hdd()))
    }

    #[test]
    fn dispatch_serializes() {
        let mut n = node();
        let d1 = n.dispatch(SimTime::ZERO);
        let d2 = n.dispatch(SimTime::ZERO);
        assert!(d2 > d1);
        assert_eq!((d2 - d1).as_micros_f64(), calib::DISPATCH_US);
    }

    #[test]
    fn hottest_idle_worker_preferred() {
        let mut n = node();
        let ready = SimTime::from_micros(100);
        n.workers[0] = SimTime::from_micros(10);
        n.workers[1] = SimTime::from_micros(90); // most recently freed
        n.workers[2] = SimTime::from_micros(50);
        assert_eq!(n.pick_worker(ready), Some(1));
    }

    #[test]
    fn earliest_busy_worker_when_none_idle() {
        let mut n = node();
        let ready = SimTime::from_micros(10);
        n.workers[0] = SimTime::from_micros(300);
        n.workers[1] = SimTime::from_micros(200);
        n.workers[2] = SimTime::from_micros(400);
        assert_eq!(n.pick_worker(ready), Some(1));
    }

    #[test]
    fn blocked_workers_skipped() {
        let mut n = node();
        n.workers[0] = SimTime::MAX;
        n.workers[1] = SimTime::MAX;
        assert_eq!(n.pick_worker(SimTime::ZERO), Some(2));
        n.workers[2] = SimTime::MAX;
        assert_eq!(n.pick_worker(SimTime::ZERO), None);
    }

    #[test]
    fn spin_accounting_caps_at_timeout() {
        let mut n = node();
        // Worker idle from t=0, next work at t=1ms: spin covers only the
        // spin timeout, then sleep.
        n.account_worker_busy(
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::from_millis(1) + SimDuration::from_micros(5),
        );
        let busy = n.cpu.total_busy_seconds();
        let expect = (calib::SPIN_TIMEOUT_US + 5.0) / 1e6;
        assert!((busy - expect).abs() < 1e-9, "busy={busy} expect={expect}");
    }

    #[test]
    fn spin_accounting_contiguous_when_gap_small() {
        let mut n = node();
        // Gap of 10 µs < 35 µs timeout: worker never sleeps.
        n.account_worker_busy(
            SimTime::ZERO,
            SimTime::from_micros(10),
            SimTime::from_micros(14),
        );
        let busy = n.cpu.total_busy_seconds();
        assert!((busy - 14e-6).abs() < 1e-12, "busy={busy}");
    }

    #[test]
    fn write_lock_inflates_superlinearly_with_runnable() {
        let mut n = node();
        n.writers_ewma = 0.8;
        let base = n.write_inflation();
        n.writers_ewma = 2.0;
        let mid = n.write_inflation();
        n.writers_ewma = 9.0;
        let high = n.write_inflation();
        assert!(
            (base - 1.0).abs() < 0.05,
            "no inflation at light writers: {base}"
        );
        assert!(mid > 1.8, "mid={mid}");
        // Saturating: the factor approaches a ceiling instead of running
        // away (the paper's A throughput is flat from 30 to 90 clients).
        let cap = 1.0 + calib::CONTENTION_WRITE;
        assert!(high <= cap + 1e-9, "high={high} cap={cap}");
        assert!(high >= mid);
    }

    #[test]
    fn cpu_fraction_has_dispatch_floor() {
        let n = node();
        assert_eq!(n.cpu_fraction(0, 1.0), 0.25);
    }

    #[test]
    fn cpu_fraction_zero_after_death() {
        let mut n = node();
        n.killed_at = Some(SimTime::from_secs(5));
        assert_eq!(n.cpu_fraction(2, 1.0), 0.25);
        assert_eq!(n.cpu_fraction(6, 1.0), 0.0);
    }
}
