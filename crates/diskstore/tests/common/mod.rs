//! What the property tests of the log share.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use rmc_diskstore::{BackupStorage, FileStorage};

/// An empty scratch directory unique to the calling test thread.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rmc-diskstore-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Payload bytes by `(master, segment)`.
pub type Staged = BTreeMap<(usize, u64), Vec<u8>>;

/// What `store` serves for masters 0 and 1.
pub fn served(store: &FileStorage) -> Staged {
    (0..2)
        .flat_map(|master| {
            store
                .segments_of(master)
                .into_iter()
                .map(move |(segment, bytes)| ((master, segment), bytes))
        })
        .collect()
}
