//! Concurrency integration tests for the shard-affinity server: batched
//! writers racing fast-path readers under log churn, shutdown with batches
//! in flight, and exactness of the atomic statistics counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmc_logstore::{LogConfig, StoreError, TableId};
use rmc_standalone::{ClientError, ServerConfig, StandaloneServer};

const T: TableId = TableId(3);

fn churn_config() -> ServerConfig {
    ServerConfig {
        worker_threads: 4,
        shards: 8,
        // Small segments so overwrites force the cleaner to run while
        // readers and writers are active.
        log: LogConfig {
            segment_bytes: 512,
            max_segments: 16,
            ordered_index: false,
        },
        queue_capacity: 64,
    }
}

/// Batched writers overwrite a fixed key set (forcing cleaning) while
/// fast-path readers verify every observed value is one some writer
/// actually wrote for that key — per-key consistency under churn.
#[test]
fn batched_writers_and_fast_readers_under_churn() {
    let srv = StandaloneServer::start(churn_config());
    let keys: Vec<Vec<u8>> = (0..32).map(|i| format!("k{i}").into_bytes()).collect();

    // Seed every key so readers distinguish "not yet written" from
    // corruption.
    {
        let client = srv.client();
        let ops: Vec<(&[u8], &[u8])> = keys
            .iter()
            .map(|k| (k.as_slice(), b"0".as_slice()))
            .collect();
        assert!(client
            .multiwrite(T, &ops)
            .unwrap()
            .iter()
            .all(Result::is_ok));
    }

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let client = srv.client();
            let keys = keys.clone();
            std::thread::spawn(move || {
                for round in 1..=150u32 {
                    let value = format!("{w}:{round}");
                    let ops: Vec<(&[u8], &[u8])> = keys
                        .iter()
                        .map(|k| (k.as_slice(), value.as_bytes()))
                        .collect();
                    let results = client.multiwrite(T, &ops).unwrap();
                    assert!(results.iter().all(Result::is_ok));
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let client = srv.client();
            let keys = keys.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                    for rec in client.multiread(T, &refs).unwrap() {
                        let rec = rec.expect("seeded key must stay present");
                        let text = String::from_utf8(rec.value.to_vec()).unwrap();
                        // Values are "0" (seed) or "<writer>:<round>".
                        assert!(
                            text == "0" || text.split_once(':').is_some(),
                            "torn or foreign value: {text:?}"
                        );
                        observed += 1;
                    }
                }
                observed
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let mut observed = 0;
    for r in readers {
        observed += r.join().unwrap();
    }
    assert!(observed > 0, "readers must make progress");
    let stats = srv.store().stats();
    assert!(stats.cleanings > 0, "churn must trigger the cleaner");
    assert!(
        stats.read_hits >= observed,
        "every observed read is a counted hit"
    );
    srv.shutdown();
}

/// Shutting down while batches are in flight must never hang a client:
/// every call completes, either fully executed or with `ServerStopped`
/// (a batch dropped unexecuted aborts its slot and wakes the waiter).
#[test]
fn shutdown_with_batches_in_flight_never_hangs() {
    let srv = StandaloneServer::start(ServerConfig {
        queue_capacity: 4, // keep batches queued so markers race them
        ..ServerConfig::default()
    });
    let clients: Vec<_> = (0..6)
        .map(|t| {
            let client = srv.client();
            std::thread::spawn(move || loop {
                let keys: Vec<Vec<u8>> =
                    (0..16).map(|i| format!("t{t}-{i}").into_bytes()).collect();
                let ops: Vec<(&[u8], &[u8])> = keys
                    .iter()
                    .map(|k| (k.as_slice(), b"v".as_slice()))
                    .collect();
                match client.multiwrite(T, &ops) {
                    Ok(results) => {
                        // A batch that completes must have every key
                        // executed, in order.
                        assert_eq!(results.len(), 16);
                        assert!(results.iter().all(Result::is_ok));
                    }
                    Err(ClientError::ServerStopped) => break,
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                match client.multiread(T, &refs) {
                    Ok(got) => assert_eq!(got.len(), 16),
                    Err(ClientError::ServerStopped) => break,
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    srv.shutdown();
    // The harness timeout is the hang detector; joins must return.
    for c in clients {
        c.join().unwrap();
    }
}

/// The engine's read hit/miss counters are atomics updated under a shared
/// lock; hammer them from many fast-path readers and check exact totals.
#[test]
fn atomic_read_counters_are_exact_under_concurrency() {
    let srv = StandaloneServer::start(churn_config());
    let client = srv.client();
    client.write(T, b"present", b"v").unwrap();

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2000;
    let readers: Vec<_> = (0..THREADS)
        .map(|_| {
            let client = srv.client();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    if i % 2 == 0 {
                        assert!(client.read(T, b"present").unwrap().is_some());
                    } else {
                        assert!(client.read(T, b"absent").unwrap().is_none());
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }

    let stats = srv.store().stats();
    assert_eq!(stats.read_hits, THREADS * PER_THREAD / 2);
    assert_eq!(stats.read_misses, THREADS * PER_THREAD / 2);
    // One queued write plus every fast-path read.
    assert_eq!(srv.ops_executed(), 1 + THREADS * PER_THREAD);
    srv.shutdown();
}

/// A client blocked waiting on a reply is woken by channel disconnect at
/// shutdown — no polling: measure that the error arrives promptly. Writes
/// are what queue (reads never do), and a depth-1 queue keeps the writers
/// blocked in it when the markers arrive.
#[test]
fn blocked_clients_wake_promptly_on_shutdown() {
    let srv = StandaloneServer::start(ServerConfig {
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let client = srv.client();
            std::thread::spawn(move || loop {
                let start = Instant::now();
                match client.write(T, b"k", b"v") {
                    Ok(_) => continue,
                    Err(ClientError::ServerStopped) => return start.elapsed(),
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    srv.shutdown();
    for w in waiters {
        let woke_in = w.join().unwrap();
        assert!(
            woke_in < Duration::from_secs(1),
            "client took {woke_in:?} to observe shutdown"
        );
    }
}

/// `Drop` posts its shutdown markers without blocking, so a marker that
/// finds its queue full is lost and that worker keeps draining for as long
/// as any `Client` clone lives. The stop flag, not the queue, is what ends
/// service: no call that starts after the drop may be acked.
#[test]
fn writes_stop_after_drop_with_full_queue() {
    // A lost marker is likely, not certain, on any one drop; a few rounds
    // make a server that still serves after `Drop` fail reliably.
    for round in 0..4 {
        let srv = StandaloneServer::start(ServerConfig {
            worker_threads: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        let dropped = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..6)
            .map(|t| {
                let client = srv.client();
                let dropped = Arc::clone(&dropped);
                std::thread::spawn(move || {
                    let key = format!("w{t}").into_bytes();
                    // Writes until one fails; returns the outcome of the
                    // first call that started after the drop (or of the
                    // call the drop cut short).
                    loop {
                        let after_drop = dropped.load(Ordering::Acquire);
                        let outcome = client.write(T, &key, b"v").map(|_| ());
                        if after_drop || outcome.is_err() {
                            return outcome;
                        }
                    }
                })
            })
            .collect();
        // Every writer is demonstrably submitting: with six of them on a
        // depth-1 queue, the queue is full at almost any instant.
        while srv.ops_executed() < 200 {
            std::thread::yield_now();
        }
        let reader = srv.client();
        drop(srv);
        dropped.store(true, Ordering::Release);
        assert_eq!(reader.read(T, b"w0"), Err(ClientError::ServerStopped));
        for w in writers {
            assert_eq!(
                w.join().unwrap(),
                Err(ClientError::ServerStopped),
                "round {round}: a write that started after the drop was served"
            );
        }
    }
}

/// A script of mixed single-op and batched traffic ends in the state a
/// `BTreeMap` model of the same script predicts.
#[test]
fn mixed_ops_match_a_btreemap_model() {
    let srv = StandaloneServer::start(ServerConfig::default());
    let client = srv.client();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let keys: Vec<Vec<u8>> = (0..40).map(|i| format!("m{i}").into_bytes()).collect();
    let ops: Vec<(&[u8], &[u8])> = keys
        .iter()
        .map(|k| (k.as_slice(), b"first".as_slice()))
        .collect();
    client.multiwrite(T, &ops).unwrap();
    for k in &keys {
        model.insert(k.clone(), b"first".to_vec());
    }
    for k in keys.iter().step_by(2) {
        client.write(T, k, b"second").unwrap();
        model.insert(k.clone(), b"second".to_vec());
    }
    for k in keys.iter().step_by(5) {
        client.delete(T, k).unwrap();
        model.remove(k);
    }
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let snapshot: Vec<Option<Vec<u8>>> = client
        .multiread(T, &refs)
        .unwrap()
        .into_iter()
        .map(|r| r.map(|rec| rec.value.to_vec()))
        .collect();
    let expected: Vec<Option<Vec<u8>>> = keys.iter().map(|k| model.get(k).cloned()).collect();
    assert_eq!(snapshot, expected);
    assert_eq!(srv.store().object_count(), model.len());
    // Spot-check semantics: index 0 deleted, index 2 overwritten, 1 first.
    assert_eq!(snapshot[0], None);
    assert_eq!(snapshot[1].as_deref(), Some(b"first".as_slice()));
    assert_eq!(snapshot[2].as_deref(), Some(b"second".as_slice()));
    srv.shutdown();
}

/// `StoreError::ValueTooLarge` inside a batch is a per-key result while the
/// rest of the batch lands — matching RAMCloud multi-op partial success.
#[test]
fn batch_partial_failure_leaves_good_keys_written() {
    let srv = StandaloneServer::start(churn_config());
    let client = srv.client();
    let huge = vec![0u8; rmc_logstore::MAX_VALUE_BYTES + 1];
    let ops: Vec<(&[u8], &[u8])> = vec![(b"good1", b"a"), (b"bad", &huge), (b"good2", b"b")];
    let results = client.multiwrite(T, &ops).unwrap();
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(StoreError::ValueTooLarge));
    assert!(results[2].is_ok());
    assert_eq!(&client.read(T, b"good1").unwrap().unwrap().value[..], b"a");
    assert_eq!(client.read(T, b"bad").unwrap(), None);
    assert_eq!(&client.read(T, b"good2").unwrap().unwrap().value[..], b"b");
    srv.shutdown();
}
