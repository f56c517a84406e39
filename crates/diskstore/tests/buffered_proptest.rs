//! A property test of what pending frames cost a crash: under `off` and
//! `batched`, an append waits in its master's pending frames until a drain
//! writes them, so a backup process that dies loses what was pending — and
//! nothing else. Random sequences of appends, flushes, graceful reopens and
//! crashes run over 2 masters × 3 segments against a model that keeps, per
//! master, the appends the store acked:
//!
//! - while the store is open, it serves what those calls add up to;
//! - after a graceful reopen it recovers exactly that;
//! - after a crash (`std::mem::forget` of the store, then a reopen), each
//!   master recovers what some prefix of its acked calls adds up to, and
//!   that prefix holds every call acked before the last flush.
//!
//! Nothing is injected, so no write fails and no frame is torn: a drain
//! happened whole or not at all.

mod common;

use std::fs;
use std::path::Path;
use std::time::Duration;

use common::{served, tmpdir, Staged};
use proptest::prelude::*;
use rmc_diskstore::{BackupStorage, DiskMetrics, FileStorage, FsyncPolicy};

#[derive(Debug, Clone)]
enum Op {
    Append(usize, u64, Vec<u8>),
    Flush,
    Reopen,
    Crash,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let payload = proptest::collection::vec(any::<u8>(), 1..64);
    let op = prop_oneof![
        8 => (0usize..2, 0u64..3, payload).prop_map(|(m, s, p)| Op::Append(m, s, p)),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
        1 => Just(Op::Crash),
    ];
    proptest::collection::vec(op, 1..64)
}

fn policies() -> impl Strategy<Value = FsyncPolicy> {
    let batched = |bytes| FsyncPolicy::Batched {
        bytes,
        interval: Duration::from_secs(3600),
    };
    // A threshold a few frames deep, and one no run reaches.
    prop_oneof![
        Just(FsyncPolicy::Off),
        Just(batched(300)),
        Just(batched(1 << 20))
    ]
}

/// One acked append: its segment and its bytes.
type Call = (u64, Vec<u8>);

/// What `master`'s slots hold after `calls`.
fn replay(master: usize, calls: &[Call]) -> Staged {
    let mut staged = Staged::new();
    for (segment, bytes) in calls {
        staged
            .entry((master, *segment))
            .or_default()
            .extend_from_slice(bytes);
    }
    staged
}

/// The model: what every master's acked calls add up to.
fn model(calls: &[Vec<Call>; 2]) -> Staged {
    (0..2)
        .flat_map(|master| replay(master, &calls[master]))
        .collect()
}

fn open(dir: &Path, policy: &FsyncPolicy) -> FileStorage {
    FileStorage::open(dir, policy.clone(), 0, DiskMetrics::detached()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_crash_loses_at_most_what_was_acked_since_the_last_flush(
        policy in policies(),
        ops in ops(),
    ) {
        let dir = tmpdir("buffered");
        let mut store = open(&dir, &policy);
        let mut calls: [Vec<Call>; 2] = Default::default();
        // Per master: how many of its calls the last flush covered.
        let mut flushed = [0usize; 2];
        for op in ops {
            match op {
                Op::Append(master, segment, payload) => {
                    store.append(master, segment, &payload).unwrap();
                    calls[master].push((segment, payload));
                }
                Op::Flush => {
                    store.flush().unwrap();
                    flushed = calls.each_ref().map(Vec::len);
                }
                Op::Reopen => {
                    drop(store);
                    store = open(&dir, &policy);
                    prop_assert_eq!((store.recovery.torn_tails, store.recovery.quarantined), (0, 0));
                    flushed = calls.each_ref().map(Vec::len);
                }
                Op::Crash => {
                    std::mem::forget(store);
                    store = open(&dir, &policy);
                    prop_assert_eq!((store.recovery.torn_tails, store.recovery.quarantined), (0, 0));
                    let recovered = served(&store);
                    for master in 0..2 {
                        let mine: Staged = recovered
                            .iter()
                            .filter(|((m, _), _)| *m == master)
                            .map(|(key, bytes)| (*key, bytes.clone()))
                            .collect();
                        let kept = (flushed[master]..=calls[master].len())
                            .find(|&k| replay(master, &calls[master][..k]) == mine);
                        prop_assert!(
                            kept.is_some(),
                            "master {} recovered {:?}: no prefix of {:?} from call {} on",
                            master, mine, calls[master], flushed[master]
                        );
                        // What was lost is gone: the model goes on from what
                        // the files hold, which the next crash keeps.
                        calls[master].truncate(kept.unwrap_or_default());
                    }
                    flushed = calls.each_ref().map(Vec::len);
                }
            }
            prop_assert_eq!(&served(&store), &model(&calls));
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
