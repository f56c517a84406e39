//! Property tests for the crash-recovery rules: whatever a dying machine
//! or a lying disk does to one file of a master's log,
//! [`FileStorage::open`] must (a) never panic, (b) recover, for every
//! segment, exactly the frames before the damage — a frame-aligned prefix
//! of the damaged file, and every other file whole — and (c) leave the
//! file repaired so the *next* open is clean.
//!
//! The logs under test hold several interleaved segments of two masters,
//! written over up to three incarnations (an incarnation creates its own
//! files), so "the damage ends with the file" has files to end at.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use common::{served, tmpdir, Staged};
use proptest::prelude::*;
use rmc_diskstore::frame::{encode_frame, FRAME_HEADER_BYTES};
use rmc_diskstore::{BackupStorage, DiskMetrics, FileStorage, FsyncPolicy};

fn open(dir: &Path) -> FileStorage {
    FileStorage::open(dir, FsyncPolicy::PerWrite, 0, DiskMetrics::detached()).unwrap()
}

/// One append: `(master, segment, payload)`.
type Append = (usize, u64, Vec<u8>);
/// A log file: `(master, n)` is `m{master}_{n}.log`.
type FileId = (usize, u64);
/// Each file's frames, as `(segment, payload)` in file order.
type Files = BTreeMap<FileId, Vec<(u64, Vec<u8>)>>;

fn path_of(dir: &Path, (master, n): FileId) -> PathBuf {
    dir.join(format!("m{master}_{n}.log"))
}

/// Up to three incarnations' worth of appends over 2 masters × 3 segments.
fn boots() -> impl Strategy<Value = Vec<Vec<Append>>> {
    let append = (
        0usize..2,
        1u64..4,
        proptest::collection::vec(any::<u8>(), 1..128),
    );
    proptest::collection::vec(proptest::collection::vec(append, 1..8), 1..4)
}

/// Stages `boots` and returns what each file must hold: a master's `n`th
/// file is written by the `n`th incarnation that staged anything for it.
fn stage(dir: &Path, boots: &[Vec<Append>]) -> Files {
    let mut files = Files::new();
    let mut next = [0u64; 2];
    for boot in boots {
        let mut s = open(dir);
        let mut wrote = [false; 2];
        for (master, segment, payload) in boot {
            s.append(*master, *segment, payload).unwrap();
            wrote[*master] = true;
            files
                .entry((*master, next[*master]))
                .or_default()
                .push((*segment, payload.clone()));
        }
        for master in 0..2 {
            next[master] += wrote[master] as u64;
        }
    }
    // The layout is what this test says it is: the same bytes the parent
    // wrote, in one file per master and incarnation.
    for (&file, frames) in &files {
        let want: Vec<u8> = frames
            .iter()
            .flat_map(|(segment, payload)| encode_frame(file.0, *segment, 0, payload))
            .collect();
        assert_eq!(fs::read(path_of(dir, file)).unwrap(), want, "{file:?}");
    }
    files
}

/// What must be served when only the first `keep` frames of `victim`
/// survive (the map iterates a master's files in `n` order).
fn surviving(files: &Files, victim: FileId, keep: usize) -> Staged {
    let mut staged = Staged::new();
    for (&file, frames) in files {
        let keep = if file == victim { keep } else { frames.len() };
        for (segment, payload) in &frames[..keep] {
            staged
                .entry((file.0, *segment))
                .or_default()
                .extend_from_slice(payload);
        }
    }
    staged
}

/// Every log file's bytes.
fn on_disk(dir: &Path, files: &Files) -> BTreeMap<FileId, Vec<u8>> {
    files
        .keys()
        .map(|&file| (file, fs::read(path_of(dir, file)).unwrap()))
        .collect()
}

/// The frame of `frames` that byte `at` falls in (`frames.len()` if past
/// the last), and that frame's offset.
fn frame_at(frames: &[(u64, Vec<u8>)], at: usize) -> (usize, usize) {
    let mut start = 0;
    for (i, (_, payload)) in frames.iter().enumerate() {
        let end = start + FRAME_HEADER_BYTES + payload.len();
        if at < end {
            return (i, start);
        }
        start = end;
    }
    (frames.len(), start)
}

/// Opens twice: the first open must serve `want` with the damage counted
/// as `(torn_tails, quarantined)`, leave every file but `victim` as it was
/// and `victim` cut to `cut` bytes; the second must find nothing to fix.
fn check_recovery(
    dir: &Path,
    files: &Files,
    victim: FileId,
    cut: usize,
    want: &Staged,
    before: &BTreeMap<FileId, Vec<u8>>,
) -> (u64, u64) {
    let s = open(dir);
    assert_eq!(&served(&s), want);
    let damage = (s.recovery.torn_tails, s.recovery.quarantined);
    drop(s);
    for (file, bytes) in on_disk(dir, files) {
        let kept = if file == victim {
            cut
        } else {
            before[&file].len()
        };
        assert_eq!(&bytes[..], &before[&file][..kept], "{file:?}");
    }
    // Repair is durable: the second open finds nothing to fix and serves
    // the same bytes.
    let s2 = open(dir);
    assert_eq!((s2.recovery.torn_tails, s2.recovery.quarantined), (0, 0));
    assert_eq!(&served(&s2), want);
    damage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a log file at ANY byte offset — the shape of every torn
    /// write — keeps exactly the frames before the cut, never panics, and
    /// repairs the file so a second open sees no damage.
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix(
        boots in boots(),
        pick in 0.0f64..1.0,
        cut in 0.0f64..1.0,
    ) {
        let dir = tmpdir("trunc");
        let files = stage(&dir, &boots);
        let before = on_disk(&dir, &files);
        let victim = *files.keys().nth((files.len() as f64 * pick) as usize).unwrap();
        let keep = (before[&victim].len() as f64 * cut) as usize;
        let f = fs::OpenOptions::new().write(true).open(path_of(&dir, victim)).unwrap();
        f.set_len(keep as u64).unwrap();
        drop(f);

        let (whole, boundary) = frame_at(&files[&victim], keep);
        let want = surviving(&files, victim, whole);
        let damage = check_recovery(&dir, &files, victim, boundary, &want, &before);
        // A mid-frame cut is a torn tail; a cut exactly on a frame
        // boundary is indistinguishable from a clean shutdown.
        prop_assert_eq!(damage, ((keep != boundary) as u64, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping ANY single bit of a log file — a silently lying disk — is
    /// always detected (CRC32 catches every 1-bit error), keeps exactly
    /// the frames before the flipped one, and never panics.
    #[test]
    fn bit_flip_at_any_offset_never_panics(
        boots in boots(),
        pick in 0.0f64..1.0,
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = tmpdir("flip");
        let files = stage(&dir, &boots);
        let before = on_disk(&dir, &files);
        let victim = *files.keys().nth((files.len() as f64 * pick) as usize).unwrap();
        let mut bytes = before[&victim].clone();
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        fs::write(path_of(&dir, victim), &bytes).unwrap();

        // The flip lands inside some frame, so that frame can never
        // survive, and nothing behind it in its file is believed.
        let (flipped, start) = frame_at(&files[&victim], idx);
        let want = surviving(&files, victim, flipped);
        let (torn, quarantined) = check_recovery(&dir, &files, victim, start, &want, &before);
        // The damage is always *noticed* — as a CRC/format corruption
        // (quarantine) or as a length-field lie that makes the file look
        // torn (truncation). Silence would mean served garbage.
        prop_assert_eq!(
            torn + quarantined, 1,
            "flip at byte {} bit {} of {:?}", idx, bit, victim
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
