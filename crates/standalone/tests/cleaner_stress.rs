//! Readers hammer the lock-free fast path while background cleaner
//! threads — and writers that find the log full, on their own threads —
//! relocate live data under real memory pressure.
//!
//! The live set is a small fraction of the per-shard budget but the write
//! volume is many times it, so the run only survives if cleaning keeps
//! reclaiming dead segments. There are more writers than shards, and half
//! of them write each round as one `multiwrite`. Readers assert on every single
//! read that the value matches the version (no torn or stale reads through
//! a relocation) and that versions never move backwards; at the end the
//! full write histories are checked against the final live map with the
//! chaos committed-write invariant checker.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rmc_chaos::{check_histories, OpKind, OpRecord};
use rmc_logstore::{LogConfig, TableId};
use rmc_runtime::MetricsRegistry;
use rmc_standalone::{Client, ClientError, ServerConfig, StandaloneServer};

const T: TableId = TableId(7);
const WRITERS: usize = 4;
const KEYS_PER_WRITER: usize = 12;
const ROUNDS: u64 = 300;

fn key_for(writer: usize, i: usize) -> Vec<u8> {
    format!("w{writer}-k{i}").into_bytes()
}

/// The value written in `round`; versions are assigned sequentially per
/// key, so version `v` must carry the value of round `v - 1`.
fn value_for(writer: usize, i: usize, round: u64) -> Vec<u8> {
    let mut v = format!("w{writer}-k{i}-r{round}-").into_bytes();
    v.resize(96, b'x'); // pad so the log sees realistically sized objects
    v
}

/// Spins over every key, checking each observed (value, version) pair for
/// internal consistency and per-key version monotonicity.
fn reader_loop(client: &Client, stop: &AtomicBool) -> u64 {
    let mut last_seen = vec![vec![0u64; KEYS_PER_WRITER]; WRITERS];
    let mut reads = 0u64;
    while !stop.load(Ordering::Acquire) {
        for (w, seen) in last_seen.iter_mut().enumerate() {
            for (i, last) in seen.iter_mut().enumerate() {
                let rec = client
                    .read(T, &key_for(w, i))
                    .expect("server alive")
                    .expect("preloaded key can never be absent");
                let v = rec.version.0;
                assert!(
                    v >= *last,
                    "version went backwards on w{w}-k{i}: {v} after {last}"
                );
                assert_eq!(
                    &rec.value[..],
                    &value_for(w, i, v - 1)[..],
                    "value does not match its version — stale or torn read"
                );
                *last = v;
                reads += 1;
            }
        }
    }
    reads
}

/// Grabs zero-copy `ValueView`s over the whole key space, snapshots their
/// bytes, then *holds* the views while at least one full cleaner pass
/// retires segments underneath them — and asserts the bytes visible
/// through every held view never change. This is the core zero-copy
/// safety contract: a view pins its segment buffer, so relocation and
/// even log-side retirement of the victim must not mutate or reclaim the
/// memory a live handle points into.
fn holder_loop(client: &Client, metrics: &MetricsRegistry, stop: &AtomicBool) -> u64 {
    let mut held_checks = 0u64;
    while !stop.load(Ordering::Acquire) {
        // Acquire a view + byte snapshot of every key.
        let mut held = Vec::with_capacity(WRITERS * KEYS_PER_WRITER);
        for w in 0..WRITERS {
            for i in 0..KEYS_PER_WRITER {
                let view = client.read_view(T, &key_for(w, i)).expect("server alive");
                let view = view.expect("preloaded key can never be absent");
                let snapshot = view.value.to_vec();
                assert_eq!(
                    snapshot,
                    value_for(w, i, view.version.0 - 1),
                    "view bytes must match the version they were read at"
                );
                held.push((w, i, view, snapshot));
            }
        }
        // Hold the views across cleaner activity: wait until the pass
        // counter advances (bounded, in case the writers finish first).
        let passes_before = metrics.sum("cleaner.", ".passes");
        for _ in 0..1_000 {
            if stop.load(Ordering::Acquire) || metrics.sum("cleaner.", ".passes") > passes_before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Every held view must still expose exactly the bytes it had when
        // acquired, no matter what the cleaner did in the meantime.
        for (w, i, view, snapshot) in &held {
            assert_eq!(
                view.value.as_slice(),
                &snapshot[..],
                "bytes mutated under a live view for w{w}-k{i}"
            );
            held_checks += 1;
        }
    }
    held_checks
}

#[test]
fn readers_never_see_stale_data_while_cleaner_runs() {
    // Per-shard budget 24 segments × 4 KiB = 96 KiB; the run appends
    // ~2.5 MiB across 2 shards, so cleaning must reclaim ~13× the budget.
    let srv = StandaloneServer::start(ServerConfig {
        shards: 2,
        log: LogConfig {
            segment_bytes: 4096,
            max_segments: 24,
            ordered_index: false,
        },
        ..ServerConfig::default()
    });

    // Preload every key so readers can assert presence unconditionally.
    let preload = srv.client();
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            preload
                .write(T, &key_for(w, i), &value_for(w, i, 0))
                .unwrap();
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let client = srv.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || reader_loop(&client, &stop))
        })
        .collect();
    let holder = {
        let client = srv.client();
        let metrics = srv.metrics().clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || holder_loop(&client, &metrics, &stop))
    };

    // Each writer owns a disjoint key space and writes it in order — the
    // discipline the chaos history checker assumes; odd writers batch a
    // round into one `multiwrite`, which keeps that order per shard.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let client = srv.client();
            std::thread::spawn(move || {
                let mut history = Vec::new();
                for round in 1..ROUNDS {
                    let keys: Vec<Vec<u8>> = (0..KEYS_PER_WRITER).map(|i| key_for(w, i)).collect();
                    let values: Vec<Vec<u8>> = (0..KEYS_PER_WRITER)
                        .map(|i| value_for(w, i, round))
                        .collect();
                    let outcomes = if w % 2 == 1 {
                        let ops: Vec<(&[u8], &[u8])> = keys
                            .iter()
                            .zip(&values)
                            .map(|(k, v)| (k.as_slice(), v.as_slice()))
                            .collect();
                        client.multiwrite(T, &ops).expect("server alive")
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
                    for ((key, value), out) in keys.into_iter().zip(values).zip(outcomes) {
                        let out = out.expect("cleaning must keep the log from filling up");
                        history.push(OpRecord {
                            key,
                            kind: OpKind::Put(value),
                            acked: true,
                            version: out.version.0,
                            read: None,
                            retries: 1,
                        });
                    }
                }
                history
            })
        })
        .collect();

    let mut histories: Vec<Vec<OpRecord>> = writers
        .into_iter()
        .map(|h| h.join().expect("writer panicked"))
        .collect();
    stop.store(true, Ordering::Release);
    let reads: u64 = readers
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .sum();
    assert!(reads > 0, "readers must have observed the store");
    let held_checks = holder.join().expect("view holder panicked");
    assert!(
        held_checks > 0,
        "the holder must have re-verified views held across cleaner passes"
    );

    // Fold the preload into a history of its own so the checker sees every
    // write ever acked (version 1 of each key).
    histories.push(
        (0..WRITERS)
            .flat_map(|w| {
                (0..KEYS_PER_WRITER).map(move |i| OpRecord {
                    key: key_for(w, i),
                    kind: OpKind::Put(value_for(w, i, 0)),
                    acked: true,
                    version: 1,
                    read: None,
                    retries: 1,
                })
            })
            .collect(),
    );
    // Writers own keys exclusively, so merge preload + writer records per
    // key into one history each, preserving program (= version) order.
    let mut by_key: BTreeMap<Vec<u8>, Vec<OpRecord>> = BTreeMap::new();
    for rec in histories.into_iter().flatten() {
        by_key.entry(rec.key.clone()).or_default().push(rec);
    }
    for ops in by_key.values_mut() {
        ops.sort_by_key(|r| r.version);
    }
    let merged: Vec<Vec<OpRecord>> = by_key.into_values().collect();

    let live: BTreeMap<Vec<u8>, (Vec<u8>, u64)> = {
        let client = srv.client();
        (0..WRITERS)
            .flat_map(|w| (0..KEYS_PER_WRITER).map(move |i| key_for(w, i)))
            .filter_map(|key| {
                client
                    .read(T, &key)
                    .unwrap()
                    .map(|rec| (key, (rec.value.to_vec(), rec.version.0)))
            })
            .collect()
    };
    let violations = check_histories(&merged, &live, true);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");

    // The background threads cleaned, not only the writers.
    let metrics = srv.metrics();
    assert!(
        metrics.sum("cleaner.", ".passes") > 0,
        "background cleaner never ran: {:?}",
        metrics.snapshot()
    );
    let stats = srv.store().stats();
    assert!(
        stats.segments_freed > 0,
        "cleaning must have freed segments"
    );
    // A contended probe falls back to the shard lock; that must stay the
    // exception.
    assert!(
        stats.read_lockfree > 2 * stats.read_fallback_locked,
        "the lock-free path must dominate: {} lock-free, {} fell back",
        stats.read_lockfree,
        stats.read_fallback_locked
    );
    srv.shutdown();
}
