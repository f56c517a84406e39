//! A sharded, thread-safe wrapper around the log-structured store.
//!
//! RAMCloud shards its hash table across threads; here the whole engine is
//! sharded by key hash, each shard its own [`rmc_logstore::Store`] behind a
//! `parking_lot::RwLock`. Writes, deletes, and cleaning take the write
//! lock; a mutation that rolls a shard's head segment wakes that shard's
//! background cleaner, if the server attached one. Reads are served
//! through a per-shard lock-free [`ReadHandle`] (epoch-pinned seqlock
//! probe, zero-copy [`ObjectView`] result), falling back to the shard read
//! lock only when a probe keeps colliding with the writer. Shards are
//! independent, so operations on different shards run fully in parallel;
//! the writers of one shard queue on its lock, on their own threads.

use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::RwLock;
use rmc_logstore::{
    key_hash, KeyHash, LogConfig, ObjectRecord, ObjectView, ReadHandle, Store, StoreError,
    StoreStats, TableId, Version, WriteOutcome,
};
use rmc_runtime::HistogramHandle;

/// A thread-safe key-value store sharded over independent log-structured
/// stores.
///
/// # Examples
///
/// ```
/// use rmc_standalone::ShardedStore;
/// use rmc_logstore::{LogConfig, TableId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = ShardedStore::new(4, LogConfig::default());
/// store.write(TableId(1), b"k", b"v")?;
/// assert_eq!(&store.read(TableId(1), b"k").expect("present").value[..], b"v");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<RwLock<Store>>,
    /// One lock-free reader per shard, built before the stores go behind
    /// their locks. Cloning a handle is cheap; these are the originals.
    handles: Vec<ReadHandle>,
    /// Dwell-time histogram for reads that fell back to the shard lock
    /// (cleaner interference on the read path). Attached once by whoever
    /// owns a [`rmc_runtime::MetricsRegistry`]; untimed until then.
    fallback_dwell: OnceLock<HistogramHandle>,
    /// Each shard's background cleaner, unparked when a mutation rolls the
    /// shard's head segment. Attached once by the server; a bare store has
    /// none and cleans only when full.
    cleaners: OnceLock<Vec<Thread>>,
}

impl ShardedStore {
    /// Creates a store with `shards` independent shards, each sized by
    /// `config` (the memory budget is **per shard**).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, config: LogConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        let stores: Vec<Store> = (0..shards).map(|_| Store::new(config.clone())).collect();
        let handles = stores.iter().map(Store::read_handle).collect();
        ShardedStore {
            shards: stores.into_iter().map(RwLock::new).collect(),
            handles,
            fallback_dwell: OnceLock::new(),
            cleaners: OnceLock::new(),
        }
    }

    /// Attaches one cleaner thread per shard, in shard order, to be woken
    /// when a write rolls that shard's head. First caller wins.
    pub(crate) fn attach_cleaners(&self, threads: Vec<Thread>) {
        debug_assert_eq!(threads.len(), self.shards.len());
        let _ = self.cleaners.set(threads);
    }

    /// Runs `op` under shard `shard`'s write lock. A roll of the head
    /// segment is the only event that raises cleaning pressure, so that is
    /// when the shard's cleaner is woken — after the lock is released.
    fn mutate<T>(&self, shard: usize, op: impl FnOnce(&mut Store) -> T) -> T {
        let mut store = self.shards[shard].write();
        let head = store.log().head();
        let out = op(&mut store);
        let rolled = store.log().head() != head;
        drop(store);
        if rolled {
            if let Some(cleaners) = self.cleaners.get() {
                cleaners[shard].unpark();
            }
        }
        out
    }

    /// Attaches the histogram that times locked-fallback reads (typically
    /// `stage.fallback_locked_ns` from a registry). First caller wins;
    /// later calls are no-ops.
    pub fn attach_fallback_dwell(&self, histogram: HistogramHandle) {
        let _ = self.fallback_dwell.set(histogram);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key hashes to, and the key hash that chose it — handed
    /// on to the `*_at` reads so a read hashes its key once.
    pub(crate) fn locate(&self, table: TableId, key: &[u8]) -> (usize, KeyHash) {
        let hash = key_hash(table, key);
        // FNV's raw bits are weak for short keys; run an avalanche mix
        // before picking the shard so the in-shard index (which uses the
        // raw low bits) and the shard choice stay decorrelated.
        let mut h = hash.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        ((h as usize) % self.shards.len(), hash)
    }

    /// Direct access to one shard's lock. The background cleaner drives the
    /// three-phase protocol through this: prepare under the read lock,
    /// build with no lock, apply under the write lock.
    pub(crate) fn shard(&self, index: usize) -> &RwLock<Store> {
        &self.shards[index]
    }

    /// Worst-case reclamation epoch lag across shards: how far the oldest
    /// limbo segment trails the current epoch (0 when nothing is in limbo).
    pub fn reclamation_lag(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().reclamation_lag())
            .max()
            .unwrap_or(0)
    }

    /// Reads the current value of a key into an owned record.
    ///
    /// The probe is the lock-free one of [`ShardedStore::read_view`]; the
    /// bytes are copied out at this boundary because `ObjectRecord` owns
    /// its buffers. Callers that want to keep the zero-copy window should
    /// use `read_view` instead.
    pub fn read(&self, table: TableId, key: &[u8]) -> Option<ObjectRecord> {
        let (shard, hash) = self.locate(table, key);
        self.read_at(shard, hash, table, key)
    }

    /// [`ShardedStore::read`] with the key already [located](Self::locate).
    pub(crate) fn read_at(
        &self,
        shard: usize,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
    ) -> Option<ObjectRecord> {
        let view = self.read_view_at(shard, hash, table, key)?;
        Some(ObjectRecord {
            table,
            key: Bytes::from(key.to_vec()),
            value: Bytes::from(view.value.to_vec()),
            version: view.version,
            // The view carries no completion id; standalone writes never
            // record one (exactly-once tracking belongs to the replicated
            // protocol deployments, which read through `Store` directly).
            completion: None,
        })
    }

    /// Reads the current value of a key as an [`ObjectView`].
    ///
    /// A hit returns a view directly into the live segment (no lock, no
    /// copy); the view keeps those bytes alive even across cleaning, so
    /// callers may hold it as long as they like — at the cost of delaying
    /// reclamation of that segment.
    ///
    /// A lock-free probe that keeps colliding with the shard's writer falls
    /// back to the shard read lock (counted in the `read_fallback_locked`
    /// statistic), where the lookup also verifies the entry's checksum —
    /// correctness never depends on the lock-free path succeeding.
    pub fn read_view(&self, table: TableId, key: &[u8]) -> Option<ObjectView> {
        let (shard, hash) = self.locate(table, key);
        self.read_view_at(shard, hash, table, key)
    }

    /// [`ShardedStore::read_view`] with the key already
    /// [located](Self::locate).
    pub(crate) fn read_view_at(
        &self,
        shard: usize,
        hash: KeyHash,
        table: TableId,
        key: &[u8],
    ) -> Option<ObjectView> {
        match self.handles[shard].try_read_hashed(hash, table, key) {
            Ok(got) => got,
            Err(_contended) => {
                self.handles[shard].counters().record_fallback_locked();
                // Fallbacks are contention events (writer or cleaner in
                // the way), so time every one — the dwell is the
                // interference the decomposition wants to see.
                let t0 = self
                    .fallback_dwell
                    .get()
                    .filter(|_| rmc_obs::enabled())
                    .map(|h| (h, Instant::now()));
                let got = self.shards[shard].read().read_view(table, key);
                if let Some((h, t0)) = t0 {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                got
            }
        }
    }

    /// Writes (inserts or overwrites) a key, committed under the shard's
    /// write lock before it returns. A write that finds the shard's log full
    /// cleans it first, on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the shard (size limits, out of
    /// memory).
    pub fn write(
        &self,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> Result<WriteOutcome, StoreError> {
        let (shard, _) = self.locate(table, key);
        self.mutate(shard, |store| store.write(table, key, value))
    }

    /// Writes many key/value pairs, taking each touched shard's write lock
    /// once. A shard's pairs are written in `ops` order (so a key written
    /// twice ends with the later value), and the per-pair outcomes come
    /// back in `ops` order.
    pub fn multiwrite(
        &self,
        table: TableId,
        ops: &[(&[u8], &[u8])],
    ) -> Vec<Result<WriteOutcome, StoreError>> {
        let shard_of: Vec<usize> = ops.iter().map(|(k, _)| self.locate(table, k).0).collect();
        let mut outcomes = vec![None; ops.len()];
        for shard in 0..self.shards.len() {
            let mut mine = (0..ops.len()).filter(|&i| shard_of[i] == shard).peekable();
            if mine.peek().is_none() {
                continue;
            }
            self.mutate(shard, |store| {
                for i in mine {
                    let (key, value) = ops[i];
                    outcomes[i] = Some(store.write(table, key, value));
                }
            });
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every pair has a shard"))
            .collect()
    }

    /// Deletes a key; returns the deleted version if it existed.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the shard.
    pub fn delete(&self, table: TableId, key: &[u8]) -> Result<Option<Version>, StoreError> {
        let (shard, _) = self.locate(table, key);
        let deleted = self.mutate(shard, |store| store.delete(table, key))?;
        Ok(deleted.map(|d| d.version))
    }

    /// Scans up to `limit` objects of `table` with keys ≥ `start_key` in
    /// key order, merging results across shards.
    ///
    /// # Errors
    ///
    /// [`StoreError::ScansDisabled`] unless built with
    /// `LogConfig::ordered_index = true`.
    pub fn scan(
        &self,
        table: TableId,
        start_key: &[u8],
        limit: usize,
    ) -> Result<Vec<ObjectRecord>, StoreError> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.read().scan(table, start_key, limit)?);
        }
        all.sort_by(|a, b| a.key.cmp(&b.key));
        all.truncate(limit);
        Ok(all)
    }

    /// Total live objects across shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().object_count()).sum()
    }

    /// Aggregated statistics across shards.
    ///
    /// Uses `StoreStats`'s exhaustive `+=`, so a counter added to the engine
    /// can never be silently dropped from the aggregate.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            total += shard.read().stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T: TableId = TableId(1);

    fn small() -> ShardedStore {
        ShardedStore::new(
            4,
            LogConfig {
                segment_bytes: 1024,
                max_segments: 64,
                ordered_index: false,
            },
        )
    }

    #[test]
    fn basic_crud() {
        let s = small();
        assert!(s.read(T, b"a").is_none());
        s.write(T, b"a", b"1").unwrap();
        assert_eq!(&s.read(T, b"a").unwrap().value[..], b"1");
        let out = s.write(T, b"a", b"2").unwrap();
        assert_eq!(out.version, Version(2));
        assert_eq!(s.delete(T, b"a").unwrap(), Some(Version(2)));
        assert!(s.read(T, b"a").is_none());
    }

    #[test]
    fn record_and_view_reads_agree() {
        let s = small();
        for i in 0..60 {
            let k = format!("k{}", i % 20);
            s.write(T, k.as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            if i % 7 == 0 {
                s.delete(T, k.as_bytes()).unwrap();
            }
        }
        for i in 0..20 {
            let k = format!("k{i}");
            match (s.read(T, k.as_bytes()), s.read_view(T, k.as_bytes())) {
                (Some(r), Some(v)) => {
                    assert_eq!(r.version, v.version);
                    assert_eq!(&r.value[..], &v.value[..]);
                }
                (None, None) => {}
                (r, v) => panic!("record/view disagree for {k}: {r:?} vs {v:?}"),
            }
        }
    }

    #[test]
    fn uncontended_view_is_zero_copy_and_lock_free() {
        let s = small();
        s.write(T, b"k", b"v").unwrap();
        let view = s.read_view(T, b"k").expect("present");
        assert_eq!(s.stats().value_views_live, 1);
        drop(view);
        let st = s.stats();
        // Uncontended single-threaded reads never fall back.
        assert_eq!(st.read_fallback_locked, 0);
        assert_eq!(st.value_views_live, 0, "gauge must return to zero");
        assert!(st.read_lockfree > 0, "the read must count as lock-free");
    }

    #[test]
    fn keys_spread_over_shards() {
        let s = small();
        for i in 0..200 {
            s.write(T, format!("key{i}").as_bytes(), b"v").unwrap();
        }
        let per_shard: Vec<usize> = s.shards.iter().map(|sh| sh.read().object_count()).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 200);
        assert!(
            per_shard.iter().all(|&n| n > 10),
            "poorly balanced: {per_shard:?}"
        );
    }

    #[test]
    fn cross_shard_scan_merges_in_order() {
        let s = ShardedStore::new(
            4,
            LogConfig {
                segment_bytes: 4096,
                max_segments: 64,
                ordered_index: true,
            },
        );
        for i in 0..50 {
            s.write(T, format!("key{i:03}").as_bytes(), b"v").unwrap();
        }
        let got = s.scan(T, b"key010", 10).unwrap();
        let keys: Vec<String> = got
            .iter()
            .map(|o| String::from_utf8(o.key.to_vec()).unwrap())
            .collect();
        let expect: Vec<String> = (10..20).map(|i| format!("key{i:03}")).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn parallel_writers_distinct_keys() {
        let s = Arc::new(small());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.write(
                            T,
                            format!("t{t}-k{i}").as_bytes(),
                            format!("{t}:{i}").as_bytes(),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), 2000);
        for t in 0..4 {
            for i in (0..500).step_by(97) {
                let got = s.read(T, format!("t{t}-k{i}").as_bytes()).unwrap();
                assert_eq!(&got.value[..], format!("{t}:{i}").as_bytes());
            }
        }
    }

    #[test]
    fn parallel_overwrites_same_key_version_monotone() {
        let s = Arc::new(small());
        s.write(T, b"hot", b"0").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut last = Version(0);
                    for _ in 0..250 {
                        let out = s.write(T, b"hot", b"x").unwrap();
                        assert!(out.version > last, "versions must increase");
                        last = out.version;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 1 initial + 1000 overwrites.
        assert_eq!(s.read(T, b"hot").unwrap().version, Version(1001));
    }

    #[test]
    fn churn_triggers_cleaning_concurrently() {
        let s = Arc::new(ShardedStore::new(
            2,
            LogConfig {
                segment_bytes: 512,
                max_segments: 16,
                ordered_index: false,
            },
        ));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for round in 0..400 {
                        let k = format!("k{}", (t * 3 + round) % 8);
                        s.write(T, k.as_bytes(), format!("{round}").as_bytes())
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.stats().cleanings > 0, "cleaner must have run under churn");
        assert!(s.object_count() <= 8);
    }
}
