//! Concurrency integration tests for the standalone server, whose every
//! operation runs on the thread that issues it: writers outnumbering the
//! shards clean the log on their own threads while readers check what they
//! see, writes race a drop or a shutdown, and the read statistics stay
//! exact across threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use rmc_logstore::{LogConfig, ObjectView, StoreError, TableId};
use rmc_standalone::{ClientError, ServerConfig, StandaloneServer};

const T: TableId = TableId(3);

fn churn_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        // Small segments so overwrites force cleaning while readers and
        // writers are active.
        log: LogConfig {
            segment_bytes: 512,
            max_segments: 16,
            ordered_index: false,
        },
        ..ServerConfig::default()
    }
}

/// A value that names its key, writer and round, padded with a byte the
/// round picks — so a reader can tell a torn or foreign value on sight.
fn value_for(key: &[u8], writer: usize, round: u32) -> Vec<u8> {
    let mut v = format!("{}/{writer}/{round}/", String::from_utf8_lossy(key)).into_bytes();
    v.resize(48, b'a' + (round % 26) as u8);
    v
}

/// Checks a value read under `key` against [`value_for`]'s layout.
fn check_value(key: &[u8], value: &[u8]) {
    let text = String::from_utf8(value.to_vec()).expect("values are ASCII");
    let mut parts = text.splitn(4, '/');
    let (Some(k), Some(_), Some(round), Some(pad)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        panic!("malformed value {text:?}");
    };
    assert_eq!(k.as_bytes(), key, "value of another key: {text:?}");
    let round: u32 = round.parse().expect("round");
    let fill = b'a' + (round % 26) as u8;
    assert!(pad.bytes().all(|b| b == fill), "torn value {text:?}");
}

/// More writer threads than shards overwrite a hot key set through `write`
/// and `multiwrite` on a log of 512 B segments, so the writers themselves
/// find the log full and clean it under their shard's lock. Readers see
/// self-checking values and versions that never go backwards (and never
/// two values under one version); no write runs out of memory; the final
/// state is the one a `BTreeMap` of every acked write predicts.
#[test]
fn batched_writers_and_fast_readers_under_churn() {
    const WRITERS: usize = 4;
    const ROUNDS: u32 = 150;
    let srv = StandaloneServer::start(churn_config());
    let keys: Vec<Vec<u8>> = (0..16).map(|i| format!("k{i}").into_bytes()).collect();
    // Seed every key so readers can require presence.
    {
        let client = srv.client();
        let values: Vec<Vec<u8>> = keys.iter().map(|k| value_for(k, 0, 0)).collect();
        let ops: Vec<(&[u8], &[u8])> = keys
            .iter()
            .zip(&values)
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        assert!(client
            .multiwrite(T, &ops)
            .unwrap()
            .iter()
            .all(Result::is_ok));
    }

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (1..=WRITERS)
        .map(|w| {
            let client = srv.client();
            let keys = keys.clone();
            std::thread::spawn(move || {
                // key -> (version, value) of this writer's acked writes.
                let mut acked: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
                for round in 1..=ROUNDS {
                    let values: Vec<Vec<u8>> =
                        keys.iter().map(|k| value_for(k, w, round)).collect();
                    let outcomes: Vec<_> = if (w + round as usize).is_multiple_of(2) {
                        let ops: Vec<(&[u8], &[u8])> = keys
                            .iter()
                            .zip(&values)
                            .map(|(k, v)| (k.as_slice(), v.as_slice()))
                            .collect();
                        client.multiwrite(T, &ops).unwrap()
                    } else {
                        keys.iter()
                            .zip(&values)
                            .map(|(k, v)| {
                                client.write(T, k, v).map_err(|e| match e {
                                    ClientError::Store(e) => e,
                                    ClientError::ServerStopped => panic!("server stopped"),
                                })
                            })
                            .collect()
                    };
                    for ((key, value), outcome) in keys.iter().zip(values).zip(outcomes) {
                        let version = outcome
                            .expect("a full log is cleaned, never refused")
                            .version;
                        acked.insert(key.clone(), (version.0, value));
                    }
                }
                acked
            })
        })
        .collect();

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let client = srv.client();
            let keys = keys.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last: Vec<(u64, Vec<u8>)> = vec![(0, Vec::new()); keys.len()];
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    for (key, last) in keys.iter().zip(&mut last) {
                        let view = client
                            .read_view(T, key)
                            .unwrap()
                            .expect("seeded key must stay present");
                        check_value(key, &view.value);
                        let version = view.version.0;
                        assert!(version >= last.0, "version went backwards on {key:?}");
                        if version == last.0 {
                            assert_eq!(&view.value[..], &last.1[..], "two values, one version");
                        }
                        *last = (version, view.value.to_vec());
                        observed += 1;
                    }
                }
                observed
            })
        })
        .collect();

    let mut model: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
    for w in writers {
        for (key, (version, value)) in w.join().unwrap() {
            let slot = model.entry(key).or_insert((0, Vec::new()));
            if version > slot.0 {
                *slot = (version, value);
            }
        }
    }
    done.store(true, Ordering::Relaxed);
    let observed: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(observed > 0, "readers must make progress");

    let client = srv.client();
    for (key, (version, value)) in &model {
        let rec = client.read(T, key).unwrap().expect("present");
        assert_eq!((rec.version.0, &rec.value[..]), (*version, &value[..]));
    }
    assert_eq!(srv.store().object_count(), model.len());
    let stats = srv.store().stats();
    assert!(stats.cleanings > 0, "churn must trigger cleaning");
    let background = srv.metrics().sum("cleaner.", ".passes");
    assert!(
        stats.cleanings > background,
        "writers never cleaned on their own threads ({} passes, all {background} background)",
        stats.cleanings
    );
    srv.shutdown();
}

/// Writers (single and batched) race a `drop` in one round and a
/// `shutdown` in the next: every write either completes or is refused with
/// `ServerStopped`, none hangs, and a write that starts after the stop
/// flag was set is refused.
#[test]
fn writes_race_drop_and_shutdown() {
    for round in 0..4 {
        let srv = StandaloneServer::start(churn_config());
        let stopped = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let client = srv.client();
                let stopped = Arc::clone(&stopped);
                std::thread::spawn(move || {
                    let key = format!("w{t}").into_bytes();
                    let ops: [(&[u8], &[u8]); 2] = [(&key, b"b1"), (&key, b"b2")];
                    let mut acked = 0u64;
                    loop {
                        let after_stop = stopped.load(Ordering::Acquire);
                        let outcome = if t % 2 == 0 {
                            client.write(T, &key, b"v").map(|_| ())
                        } else {
                            client.multiwrite(T, &ops).map(|outcomes| {
                                assert!(outcomes.iter().all(Result::is_ok));
                            })
                        };
                        match outcome {
                            Ok(()) => {
                                assert!(!after_stop, "round {round}: served after the stop");
                                acked += 1;
                            }
                            Err(ClientError::ServerStopped) => return acked,
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        // The writers are demonstrably writing before the stop.
        while srv.store().stats().writes < 400 {
            std::thread::yield_now();
        }
        if round % 2 == 0 {
            drop(srv);
        } else {
            srv.shutdown();
        }
        stopped.store(true, Ordering::Release);
        // The harness timeout is the hang detector; joins must return.
        let acked: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(acked > 0, "round {round}: no write was served");
    }
}

/// Read tallies live on per-thread lanes and the live-view gauge is read off
/// buffer reference counts: both must stay exact with several threads
/// reading beside a writer — and a view moved to another thread and dropped
/// there must leave the gauge.
#[test]
fn read_counts_stay_exact_across_threads() {
    const READERS: u64 = 4;
    const READS: u64 = 10_000;
    const HELD: usize = 8;
    const KEYS: u64 = 64;
    let srv = StandaloneServer::start(ServerConfig::default());
    let writer_client = srv.client();
    for i in 0..KEYS {
        writer_client
            .write(T, format!("k{i}").as_bytes(), b"v")
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                writer_client
                    .write(T, format!("k{}", i % KEYS).as_bytes(), b"w")
                    .unwrap();
                i += 1;
            }
        })
    };
    let (tx, rx) = mpsc::channel::<Vec<ObjectView>>();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let client = srv.client();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..READS {
                    // Even reads hit, odd ones miss.
                    let key = if i % 2 == 0 {
                        format!("k{}", (i + r) % KEYS)
                    } else {
                        format!("absent{i}")
                    };
                    let got = client.read_view(T, key.as_bytes()).unwrap();
                    assert_eq!(got.is_some(), i % 2 == 0, "{key}");
                    if held.len() < HELD {
                        held.extend(got);
                    }
                }
                tx.send(held).unwrap();
            })
        })
        .collect();
    drop(tx);
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    // Held by the reader threads, now all on this one.
    let held: Vec<ObjectView> = rx.iter().flatten().collect();
    assert_eq!(held.len(), READERS as usize * HELD);
    let stats = srv.store().stats();
    assert_eq!(stats.read_hits, READERS * READS / 2);
    assert_eq!(stats.read_misses, READERS * READS / 2);
    assert_eq!(
        stats.read_lockfree + stats.read_fallback_locked,
        READERS * READS
    );
    assert_eq!(stats.value_views_live, held.len() as u64);
    std::thread::spawn(move || drop(held)).join().unwrap();
    assert_eq!(srv.store().stats().value_views_live, 0);
    srv.shutdown();
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
