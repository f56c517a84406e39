//! [`DelayLine`]: where a wall-clock engine parks a message it was asked
//! to hold ([`crate::Runtime::send_after`]) until it is due.
//!
//! Only fault plans ask for delay, so the line costs nothing until the
//! first item is parked: no thread exists before that, and afterwards the
//! thread blocks on its channel while nothing is parked — an idle engine
//! has no periodic wake-up here.

use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A parked item, ordered earliest-due first.
struct Delayed<T> {
    due: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Delayed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Delayed<T> {}
impl<T> PartialOrd for Delayed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Delayed<T> {
    // Reversed: `BinaryHeap` is a max-heap and the earliest due time must
    // surface first; `seq` keeps equal due times in arrival order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

enum Worker<T> {
    /// Nothing parked yet; holds what the thread will release items into.
    Idle(Box<dyn FnMut(T) + Send>),
    Running(Sender<(Instant, T)>, JoinHandle<()>),
    Closed,
}

/// Holds items for a wall-clock delay, then hands each to `release`.
pub struct DelayLine<T> {
    name: String,
    worker: Mutex<Worker<T>>,
}

impl<T> std::fmt::Debug for DelayLine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayLine")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> DelayLine<T> {
    /// A line whose thread — named `name`, created by the first
    /// [`DelayLine::send_after`] — passes each due item to `release`.
    pub fn new(name: impl Into<String>, release: impl FnMut(T) + Send + 'static) -> Self {
        DelayLine {
            name: name.into(),
            worker: Mutex::new(Worker::Idle(Box::new(release))),
        }
    }

    /// Parks `item` for `delay`. After [`DelayLine::close`] the item is
    /// dropped, like any send into an engine that is going away.
    pub fn send_after(&self, delay: Duration, item: T) {
        let mut worker = self.worker.lock().expect("delay line lock");
        if matches!(*worker, Worker::Idle(_)) {
            let Worker::Idle(release) = std::mem::replace(&mut *worker, Worker::Closed) else {
                unreachable!("matched Idle under the same lock");
            };
            let (tx, rx) = mpsc::channel();
            let handle = thread::Builder::new()
                .name(self.name.clone())
                .spawn(move || run(rx, release))
                .expect("spawn delay line");
            *worker = Worker::Running(tx, handle);
        }
        if let Worker::Running(tx, _) = &*worker {
            let _ = tx.send((Instant::now() + delay, item));
        }
    }

    /// Stops the thread (if one was ever started) and joins it; items
    /// still parked are dropped. Idempotent. Dropping the line without
    /// closing it stops the thread too, but does not wait for it.
    pub fn close(&self) {
        let prev = std::mem::replace(
            &mut *self.worker.lock().expect("delay line lock"),
            Worker::Closed,
        );
        if let Worker::Running(tx, handle) = prev {
            drop(tx);
            let _ = handle.join();
        }
    }
}

fn run<T>(rx: Receiver<(Instant, T)>, mut release: impl FnMut(T)) {
    let mut heap: BinaryHeap<Delayed<T>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        while heap.peek().is_some_and(|top| top.due <= now) {
            release(heap.pop().expect("peeked").item);
        }
        let next = match heap.peek() {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(top) => rx.recv_timeout(top.due.saturating_duration_since(now)),
        };
        match next {
            Ok((due, item)) => {
                seq += 1;
                heap.push(Delayed { due, seq, item });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_due_order_not_arrival_order() {
        let (tx, rx) = mpsc::channel();
        let line = DelayLine::new("delay-test", move |n: u32| {
            let _ = tx.send((n, Instant::now()));
        });
        let start = Instant::now();
        line.send_after(Duration::from_millis(60), 2);
        line.send_after(Duration::from_millis(20), 1);
        let (first, at) = rx.recv_timeout(Duration::from_secs(5)).expect("first");
        assert_eq!(first, 1);
        assert!(at - start >= Duration::from_millis(20), "released early");
        let (second, at) = rx.recv_timeout(Duration::from_secs(5)).expect("second");
        assert_eq!(second, 2);
        assert!(at - start >= Duration::from_millis(60), "released early");
        line.close();
    }

    #[test]
    fn no_thread_until_first_item_and_none_after_close() {
        let line = DelayLine::new("delay-test", |_: u32| {});
        assert!(matches!(*line.worker.lock().unwrap(), Worker::Idle(_)));
        line.send_after(Duration::from_secs(3600), 1);
        assert!(matches!(*line.worker.lock().unwrap(), Worker::Running(..)));
        // Close returns although an item is parked for an hour: the thread
        // was blocked on its channel, not sleeping out the delay.
        line.close();
        line.send_after(Duration::ZERO, 2);
        assert!(matches!(*line.worker.lock().unwrap(), Worker::Closed));
    }
}
