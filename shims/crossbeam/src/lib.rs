//! Offline shim for the [`crossbeam`](https://docs.rs/crossbeam) crate.
//!
//! Provides `crossbeam::channel` with the semantics this workspace relies
//! on, implemented over `Mutex` + `Condvar`:
//!
//! - unbounded MPMC channels; `send` never blocks,
//! - `send` fails once every `Receiver` is gone,
//! - `recv` fails once every `Sender` is gone **and** the queue is empty,
//! - when the last `Receiver` drops, all queued messages are dropped
//!   immediately. This mirrors crossbeam: no one can ever receive them, and
//!   dropping them promptly is what lets a reply channel embedded in a
//!   queued request disconnect (and thus wake) its waiting client.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half of a channel. Clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Clonable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Sends `value`; never blocks.
        ///
        /// # Errors
        ///
        /// [`SendError`] carrying the value back if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// [`RecvError`] once the channel is empty and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap();
            }
        }

        /// Receives with a deadline of `timeout` from now.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] on expiry,
        /// [`RecvTimeoutError::Disconnected`] when empty with no senders.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            // As the published crate: a timeout past what the clock can
            // express is no timeout.
            let Some(deadline) = Instant::now().checked_add(timeout) else {
                return self.recv().map_err(|_| RecvTimeoutError::Disconnected);
            };
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap();
                st = guard;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                // Wake all blocked receivers so they observe disconnection.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let orphaned = {
                let mut st = self.shared.state.lock().unwrap();
                st.receivers -= 1;
                if st.receivers == 0 {
                    // Nothing can receive these messages anymore; drop them
                    // now (outside the lock) so any resources they hold —
                    // e.g. reply senders — are released promptly.
                    std::mem::take(&mut st.queue)
                } else {
                    VecDeque::new()
                }
            };
            drop(orphaned);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn recv_disconnects_when_senders_gone() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_when_receivers_gone() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn dropping_last_receiver_drops_queued_messages() {
            static DROPS: AtomicUsize = AtomicUsize::new(0);
            #[derive(Debug)]
            struct Probe;
            impl Drop for Probe {
                fn drop(&mut self) {
                    DROPS.fetch_add(1, Ordering::SeqCst);
                }
            }
            let (tx, rx) = unbounded();
            tx.send(Probe).unwrap();
            tx.send(Probe).unwrap();
            assert_eq!(DROPS.load(Ordering::SeqCst), 0);
            drop(rx);
            assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        }

        #[test]
        fn blocked_recv_wakes_on_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            let t = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(10));
            drop(tx);
            assert_eq!(t.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn mpmc_many_producers_consumers() {
            let (tx, rx) = unbounded::<u64>();
            let total = Arc::new(AtomicUsize::new(0));
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    let total = Arc::clone(&total);
                    std::thread::spawn(move || {
                        while rx.recv().is_ok() {
                            total.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            drop(rx);
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..500 {
                            tx.send(i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().unwrap();
            }
            for c in consumers {
                c.join().unwrap();
            }
            assert_eq!(total.load(Ordering::SeqCst), 2000);
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn an_inexpressible_timeout_waits_without_limit() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(7));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::MAX),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
