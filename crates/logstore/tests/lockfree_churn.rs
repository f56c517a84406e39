//! Lock-free readers racing writer churn and the background three-phase
//! cleaner on a tiny log — the shape the standalone server runs, distilled
//! to the engine. Two invariants under this load:
//!
//! 1. a seeded, never-deleted key is **always** readable through the
//!    lock-free path (a validated probe must never report a false miss);
//! 2. writes keep succeeding: a write that finds the log full must wait out
//!    in-flight reader epoch pins rather than reporting out-of-memory for
//!    limbo segments that are moments from being free.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use rmc_logstore::{LogConfig, Store, TableId};

const T: TableId = TableId(3);
const KEYS: usize = 32;
const WRITERS: usize = 3;
const READERS: usize = 3;
const ROUNDS: u32 = 150;

fn keys() -> Vec<Vec<u8>> {
    (0..KEYS).map(|i| format!("k{i}").into_bytes()).collect()
}

/// The standalone server's shape: a background thread cleans ahead of the
/// writers, and a write that still finds the log full makes room itself.
fn tiny_store() -> Store {
    Store::new(LogConfig {
        segment_bytes: 512,
        max_segments: 16,
        ordered_index: false,
    })
}

/// The standalone server's background cleaner loop (prepare under the read
/// lock, build unlocked, apply under the write lock, reclaim when idle).
fn cleaner_loop(store: &RwLock<Store>, done: &AtomicBool) {
    while !done.load(Ordering::Relaxed) {
        let Some(kind) = store.read().unwrap().clean_pressure() else {
            if store.read().unwrap().log().limbo_segments() > 0 {
                store.write().unwrap().reclaim_now();
            }
            std::thread::yield_now();
            continue;
        };
        let plan = { store.read().unwrap().prepare_clean(kind) };
        let Some(plan) = plan else {
            std::thread::yield_now();
            continue;
        };
        let prepared = plan.build();
        let _ = store.write().unwrap().apply_clean(prepared);
    }
}

#[test]
fn lockfree_reads_and_writes_survive_cleaner_churn() {
    let store = tiny_store();
    let handle = store.read_handle();
    let store = Arc::new(RwLock::new(store));
    let keys = keys();
    for k in &keys {
        store.write().unwrap().write(T, k, b"0").unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let keys = keys.clone();
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    for k in &keys {
                        // Invariant 2: making room waits out reader epoch
                        // pins, so writes never see out-of-memory while
                        // readers only pin transiently.
                        store
                            .write()
                            .unwrap()
                            .write(T, k, format!("{w}:{round}").as_bytes())
                            .unwrap_or_else(|e| panic!("write {w}:{round} failed: {e}"));
                    }
                }
            })
        })
        .collect();
    let cleaner = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        std::thread::spawn(move || cleaner_loop(&store, &done))
    };
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = handle.clone();
            let keys = keys.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    for k in &keys {
                        match handle.try_read(T, k) {
                            // Invariant 1: no false misses, ever.
                            Ok(Some(view)) => {
                                assert!(!view.value.is_empty());
                                reads += 1;
                            }
                            Ok(None) => {
                                panic!("missed seeded key {}", String::from_utf8_lossy(k))
                            }
                            // Contended: real callers fall back to the
                            // locked path; the invariant under test is
                            // "no false miss", so just retry.
                            Err(_) => {}
                        }
                    }
                }
                reads
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    cleaner.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must make progress");
    }
    let stats = store.read().unwrap().stats();
    assert!(stats.cleanings > 0, "churn must have cleaned");
    assert!(stats.read_lockfree > 0);
}
