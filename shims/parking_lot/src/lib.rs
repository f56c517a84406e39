//! Offline shim for the [`parking_lot`](https://docs.rs/parking_lot) crate.
//!
//! Wraps `std::sync::RwLock` with `parking_lot`'s non-poisoning API (lock
//! acquisition returns guards directly instead of `Result`s). Poisoning is
//! handled by propagating the inner value: a panic while holding a lock
//! panics subsequent acquirers too, which matches how this workspace uses
//! locks (a panic is already fatal to the test/process).

#![warn(missing_docs)]

use std::fmt;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A reader-writer lock with `parking_lot`'s panic-free API.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write lock, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Never blocks: a lock held elsewhere prints as `<locked>`.
impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn rwlock_writers_across_threads() {
        let l = Arc::new(RwLock::new(0u64));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *l.write() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 4000);
    }

    #[test]
    fn debug_does_not_deadlock() {
        let l = RwLock::new(5);
        let _g = l.write();
        assert!(format!("{l:?}").contains("locked"));
    }
}
