//! Request-dispatch plumbing for the standalone server.
//!
//! The paper's central throughput finding is that RAMCloud is
//! *dispatch-limited*: the single polling dispatch thread saturates a core
//! long before the worker pool does (§IV). This module holds the pieces the
//! server uses to keep dispatch off the hot path:
//!
//! - [`worker_for_shard`] is **shard affinity**: each worker owns a fixed
//!   subset of shards and receives only that subset's writes over its own
//!   queue. With a single writer per shard, the per-shard write lock is
//!   uncontended among workers, and reads bypass queues entirely.
//! - [`BatchSlot`] / [`BatchGuard`] implement the pooled reply slot for
//!   multi-operations: one allocation and one wakeup per *batch* instead of
//!   one channel per *op*, with per-key results delivered in submission
//!   order and guaranteed completion (a dropped, never-executed batch
//!   command aborts its slot so no client blocks forever).
//! - [`rmc_runtime::StripedCounter`] (shared with the mini-cluster's node
//!   metrics) counts fast-path reads without creating a new shared cache
//!   line: each shard's reads are counted in that shard's own stripe.

use std::sync::{Arc, Condvar, Mutex};

/// The worker that owns shard `shard`: the shards `s` with
/// `s % workers == worker` share one private request queue.
#[inline]
pub(crate) fn worker_for_shard(shard: usize, workers: usize) -> usize {
    shard % workers
}

struct SlotState<T> {
    results: Vec<Option<T>>,
    remaining: usize,
    aborted: bool,
}

/// A pooled reply slot for one batched operation.
///
/// The issuing client allocates one slot per batch (sized to the batch),
/// hands each destination worker a [`BatchGuard`] covering that worker's
/// share of the keys, and blocks in [`BatchSlot::wait`] until every key has
/// been either executed or abandoned. Results come back indexed by the
/// caller's original key order regardless of how the batch was split.
pub(crate) struct BatchSlot<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

impl<T> BatchSlot<T> {
    /// A slot awaiting `n` per-key results.
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(BatchSlot {
            state: Mutex::new(SlotState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                aborted: false,
            }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, index: usize, value: T) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.results[index].is_none(), "slot index filled twice");
        st.results[index] = Some(value);
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn abandon(&self, count: usize) {
        if count == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap();
        st.aborted = true;
        st.remaining -= count;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until all results arrived (or were abandoned). Returns the
    /// per-key results in submission order, or `Err(())` if any part of the
    /// batch was dropped unexecuted (server shutdown).
    pub(crate) fn wait(&self) -> Result<Vec<T>, ()> {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.done.wait(st).unwrap();
        }
        if st.aborted {
            return Err(());
        }
        Ok(st
            .results
            .drain(..)
            .map(|r| r.expect("all results present when remaining == 0"))
            .collect())
    }
}

impl<T> std::fmt::Debug for BatchSlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        write!(
            f,
            "BatchSlot {{ total: {}, remaining: {}, aborted: {} }}",
            st.results.len(),
            st.remaining,
            st.aborted
        )
    }
}

/// One worker's share of a batch. Travels inside the queued command; every
/// key it covers is either completed by the worker or — if the command is
/// dropped without executing (queue torn down mid-shutdown) — abandoned on
/// drop, waking the waiting client with an error instead of deadlocking it.
pub(crate) struct BatchGuard<T> {
    slot: Arc<BatchSlot<T>>,
    pending: usize,
}

impl<T> BatchGuard<T> {
    /// A guard covering `pending` keys of `slot`.
    pub(crate) fn new(slot: Arc<BatchSlot<T>>, pending: usize) -> Self {
        BatchGuard { slot, pending }
    }

    /// Delivers the result for original key index `index`.
    pub(crate) fn complete(&mut self, index: usize, value: T) {
        debug_assert!(self.pending > 0, "completing more keys than covered");
        self.slot.complete(index, value);
        self.pending -= 1;
    }
}

impl<T> Drop for BatchGuard<T> {
    fn drop(&mut self) {
        self.slot.abandon(self.pending);
    }
}

impl<T> std::fmt::Debug for BatchGuard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BatchGuard {{ pending: {} }}", self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_slot_collects_in_submission_order() {
        let slot = BatchSlot::new(4);
        let mut g_even = BatchGuard::new(Arc::clone(&slot), 2);
        let mut g_odd = BatchGuard::new(Arc::clone(&slot), 2);
        // Workers complete out of order and interleaved.
        g_odd.complete(3, "d");
        g_even.complete(0, "a");
        g_odd.complete(1, "b");
        g_even.complete(2, "c");
        drop((g_even, g_odd));
        assert_eq!(slot.wait().unwrap(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn dropped_guard_aborts_instead_of_hanging() {
        let slot = BatchSlot::new(3);
        let mut done = BatchGuard::new(Arc::clone(&slot), 1);
        let undone: BatchGuard<&str> = BatchGuard::new(Arc::clone(&slot), 2);
        done.complete(0, "a");
        drop(done);
        // Simulates a queued command torn down at shutdown.
        drop(undone);
        assert!(slot.wait().is_err());
    }

    #[test]
    fn wait_blocks_until_last_result() {
        let slot = BatchSlot::new(2);
        let mut g = BatchGuard::new(Arc::clone(&slot), 2);
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        g.complete(1, 11);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!waiter.is_finished());
        g.complete(0, 10);
        drop(g);
        assert_eq!(waiter.join().unwrap().unwrap(), vec![10, 11]);
    }

    #[test]
    fn worker_for_shard_partitions_all_shards() {
        let workers = 3;
        let mut owned = vec![0; workers];
        for shard in 0..16 {
            owned[worker_for_shard(shard, workers)] += 1;
        }
        assert_eq!(owned.iter().sum::<i32>(), 16);
        assert!(owned.iter().all(|&n| n >= 5));
    }
}
