//! A model-based property test of the log's write and recovery rules
//! together: random sequences of appends (clean, cut short by the disk,
//! failed outright, written but not synced), late retries to segments a
//! master has left, and reopens — over 2 masters × 3 segments under
//! `per_write`, against
//! two `BTreeMap`s: what the store must *serve* now, and what the *files*
//! must give back at the next open.
//!
//! No bits are flipped here, so nothing may ever be quarantined, and after
//! every reopen each segment is exactly the concatenation of its acked
//! appends — plus any whole frame an fsync EIO left behind un-acked, which
//! the master's retry then stages a second time (replay is
//! version-guarded, so a duplicate entry is harmless and a missing one is
//! not).

mod common;

use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

use common::{served, tmpdir, Staged};
use proptest::prelude::*;
use rmc_diskstore::frame::FRAME_HEADER_BYTES;
use rmc_diskstore::{
    AppendFault, AppendOutcome, BackupStorage, DiskMetrics, FaultInjector, FileStorage, FsyncPolicy,
};

/// What the disk does to the one write an op makes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Clean,
    /// Only this share of the frame's bytes reaches the file.
    Short(f64),
    WriteError,
    /// The frame is written whole; the fsync behind it fails.
    FsyncEio,
}

impl Fate {
    /// Bytes of a `frame_len`-byte frame that reach the file when the write
    /// is cut short, `None` when it is not.
    fn kept(self, frame_len: usize) -> Option<usize> {
        match self {
            Fate::Short(share) => Some((frame_len as f64 * share) as usize),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// An append to any of the master's three segments: one below the last
    /// it wrote to is a late retry.
    Append(usize, u64, Vec<u8>, Fate),
    Reopen,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let fate = || {
        prop_oneof![
            6 => Just(Fate::Clean),
            1 => (0.0f64..1.0).prop_map(Fate::Short),
            1 => Just(Fate::WriteError),
            1 => Just(Fate::FsyncEio),
        ]
    };
    let payload = proptest::collection::vec(any::<u8>(), 1..64);
    let op = prop_oneof![
        8 => (0usize..2, 0u64..3, payload, fate()).prop_map(|(m, s, p, f)| Op::Append(m, s, p, f)),
        1 => Just(Op::Reopen),
    ];
    proptest::collection::vec(op, 1..48)
}

/// The injector: deals the fate the test set for the op in flight.
#[derive(Debug)]
struct Dealt(Arc<Mutex<Fate>>);

impl FaultInjector for Dealt {
    fn on_append(&mut self, _master: usize, _segment: u64, frame: &mut Vec<u8>) -> AppendFault {
        let fate = *self.0.lock().unwrap();
        let outcome = match (fate, fate.kept(frame.len())) {
            (_, Some(keep)) => AppendOutcome::Short { keep },
            (Fate::WriteError, _) => AppendOutcome::Error,
            _ => AppendOutcome::Commit,
        };
        AppendFault {
            stall: None,
            outcome,
        }
    }

    fn on_fsync(&mut self) -> bool {
        *self.0.lock().unwrap() != Fate::FsyncEio
    }
}

fn open(dir: &Path, fate: &Arc<Mutex<Fate>>) -> FileStorage {
    FileStorage::open(dir, FsyncPolicy::PerWrite, 0, DiskMetrics::detached())
        .unwrap()
        .with_injector(Box::new(Dealt(Arc::clone(fate))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_store_serves_and_recovers_what_the_model_says(ops in ops()) {
        let dir = tmpdir("model");
        let fate = Arc::new(Mutex::new(Fate::Clean));
        let mut store = open(&dir, &fate);
        // What `segments_of` must return now, and what the files hold.
        let mut live = Staged::new();
        let mut disk = Staged::new();
        // Frames cut short since the last open: each retired its file, so
        // each is some file's tail.
        let mut torn = 0;
        for op in ops {
            match op {
                Op::Append(master, segment, payload, dealt) => {
                    *fate.lock().unwrap() = dealt;
                    let acked = store.append(master, segment, &payload).is_ok();
                    prop_assert_eq!(acked, dealt == Fate::Clean, "{:?}", dealt);
                    let key = (master, segment);
                    if acked {
                        live.entry(key).or_default().extend_from_slice(&payload);
                    }
                    if acked || dealt == Fate::FsyncEio {
                        disk.entry(key).or_default().extend_from_slice(&payload);
                    }
                    let kept = dealt.kept(FRAME_HEADER_BYTES + payload.len());
                    torn += kept.is_some_and(|kept| kept > 0) as u64;
                }
                Op::Reopen => {
                    *fate.lock().unwrap() = Fate::Clean;
                    drop(store);
                    store = open(&dir, &fate);
                    prop_assert_eq!(
                        (store.recovery.torn_tails, store.recovery.quarantined),
                        (torn, 0)
                    );
                    torn = 0;
                    live = disk.clone();
                }
            }
            *fate.lock().unwrap() = Fate::Clean;
            prop_assert_eq!(&served(&store), &live);
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
