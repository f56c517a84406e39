//! A real multi-threaded single-node store.
//!
//! Mirrors the RAMCloud server architecture at miniature scale with actual
//! threads, built so that the thread hand-off — the bottleneck the paper
//! characterizes — is not on the path at all:
//!
//! - **Writes run on the thread that issues them.** [`Client::write`] takes
//!   the key's shard write lock and commits before it returns: the writers
//!   of one shard queue on that lock, the writers of different shards run
//!   in parallel, and no request crosses a queue to another thread.
//! - **Lock-free, zero-copy reads.** [`Client::read`] /
//!   [`Client::read_view`] execute on the client thread too, through an
//!   epoch-pinned lock-free index probe; `read_view` returns a zero-copy
//!   view into the live segment. Only a probe that keeps colliding with the
//!   shard's writer falls back to the shard read lock.
//! - **Background cleaning.** One cleaner thread per shard runs the
//!   three-phase concurrent cleaner; a write runs the same phases itself
//!   only when it finds its shard's log full.
//!
//! Why this design and not a worker pool behind queues, locked copying reads
//! or inline cleaning: the measured comparisons are recorded in DESIGN.md
//! §4c–§4e and EXPERIMENTS.md.
//!
//! Batched operations ([`Client::multiread`] / [`Client::multiwrite`])
//! mirror RAMCloud's multi-ops: a multi-write takes each touched shard's
//! write lock once.
//!
//! ## Consistency
//!
//! Writes to one key are serialized by that shard's write lock and
//! committed before the call returns, so a client that has seen a write
//! acknowledged will observe it in subsequent reads. A read racing an
//! *unacknowledged* write may return the older value — the same guarantee
//! RAMCloud offers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rmc_logstore::{
    LogConfig, ObjectRecord, ObjectView, StoreError, TableId, Version, WriteOutcome,
};
use rmc_obs::Sampler;
use rmc_runtime::{HistogramHandle, MetricsRegistry};

use crate::cleaner::CleanerPool;
use crate::shard::ShardedStore;

/// Configuration of a [`StandaloneServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ignored: every operation runs on the thread that issues it. Kept only
    /// because the gated `benchmark/` still names it (ROADMAP item 7(a)).
    pub worker_threads: usize,
    /// Engine shards (the lock granularity).
    pub shards: usize,
    /// Per-shard log sizing.
    pub log: LogConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: 3,
            shards: 8,
            log: LogConfig {
                segment_bytes: 1 << 20,
                max_segments: 256,
                ordered_index: false,
            },
        }
    }
}

/// Sampled stage-timing instrumentation shared by every [`Client`] handle:
/// per-stage latency histograms in the server's [`MetricsRegistry`], fed
/// 1-in-[`STAGE_SAMPLE`] so the hot paths pay two `Instant::now()` calls
/// only on sampled ops (and nothing but one relaxed load + branch when
/// `rmc_obs::set_enabled(false)`).
#[derive(Debug)]
struct StageObs {
    sampler: Sampler,
    read_service: HistogramHandle,
    write_service: HistogramHandle,
}

/// Stage-timing sample period: one in this many operations carries the
/// two `Instant::now()` reads that feed the `stage.*` histograms. Bench
/// reports scale sampled busy-time sums back up by this factor.
pub const STAGE_SAMPLE: u64 = 32;

impl StageObs {
    fn new(registry: &MetricsRegistry) -> Self {
        StageObs {
            sampler: Sampler::new(STAGE_SAMPLE),
            read_service: registry.histogram("stage.read_service_ns"),
            write_service: registry.histogram("stage.write_service_ns"),
        }
    }

    /// `Some(now)` when this op was picked for timing.
    fn sample(&self) -> Option<Instant> {
        self.sampler.tick().then(Instant::now)
    }
}

/// Errors returned by [`Client`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server has shut down.
    ServerStopped,
    /// The engine rejected the operation.
    Store(StoreError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ServerStopped => write!(f, "server stopped"),
            ClientError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<StoreError> for ClientError {
    fn from(e: StoreError) -> Self {
        ClientError::Store(e)
    }
}

/// A handle for issuing requests; cheap to clone, usable from any thread.
/// Every request runs on the calling thread.
#[derive(Debug, Clone)]
pub struct Client {
    store: Arc<ShardedStore>,
    stopped: Arc<AtomicBool>,
    obs: Arc<StageObs>,
}

impl Client {
    /// Every call starts here: once the server was dropped or shut down,
    /// nothing is served. A call that passed this check completes.
    fn check_running(&self) -> Result<(), ClientError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ClientError::ServerStopped);
        }
        Ok(())
    }

    /// Runs one mutation against the store, timing it when sampled.
    fn mutate<T>(
        &self,
        op: impl FnOnce(&ShardedStore) -> Result<T, StoreError>,
    ) -> Result<T, ClientError> {
        self.check_running()?;
        let t0 = self.obs.sample();
        let done = op(&self.store);
        if let Some(t0) = t0 {
            self.obs
                .write_service
                .record(t0.elapsed().as_nanos() as u64);
        }
        done.map_err(Into::into)
    }

    /// Reads a key into an owned record.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn read(&self, table: TableId, key: &[u8]) -> Result<Option<ObjectRecord>, ClientError> {
        self.check_running()?;
        let t0 = self.obs.sample();
        let (shard, hash) = self.store.locate(table, key);
        let got = self.store.read_at(shard, hash, table, key);
        if let Some(t0) = t0 {
            self.obs.read_service.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(got)
    }

    /// Reads a key as an [`ObjectView`]: a hit is served with **no lock and
    /// no copy** — the view points into the live segment and keeps those
    /// bytes alive for as long as the caller holds it. A read that fell
    /// back to the shard lock (see [`ShardedStore::read_view`]) returns the
    /// same kind of view.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn read_view(&self, table: TableId, key: &[u8]) -> Result<Option<ObjectView>, ClientError> {
        self.check_running()?;
        let t0 = self.obs.sample();
        let (shard, hash) = self.store.locate(table, key);
        let got = self.store.read_view_at(shard, hash, table, key);
        if let Some(t0) = t0 {
            self.obs.read_service.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(got)
    }

    /// Reads many keys as [`ObjectView`]s (the zero-copy flavor of
    /// [`Client::multiread`]). Results come back in `keys` order; misses are
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn multiread_views(
        &self,
        table: TableId,
        keys: &[&[u8]],
    ) -> Result<Vec<Option<ObjectView>>, ClientError> {
        self.check_running()?;
        Ok(keys
            .iter()
            .map(|key| self.store.read_view(table, key))
            .collect())
    }

    /// Writes a key.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] or a propagated [`StoreError`].
    pub fn write(
        &self,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> Result<WriteOutcome, ClientError> {
        self.mutate(|store| store.write(table, key, value))
    }

    /// Deletes a key; returns the deleted version if present.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] or a propagated [`StoreError`].
    pub fn delete(&self, table: TableId, key: &[u8]) -> Result<Option<Version>, ClientError> {
        self.mutate(|store| store.delete(table, key))
    }

    /// Scans up to `limit` objects of `table` starting at `start_key`, in
    /// key order.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`], or
    /// [`rmc_logstore::StoreError::ScansDisabled`] when the server's engine
    /// was built without an ordered index.
    pub fn scan(
        &self,
        table: TableId,
        start_key: &[u8],
        limit: usize,
    ) -> Result<Vec<ObjectRecord>, ClientError> {
        self.check_running()?;
        Ok(self.store.scan(table, start_key, limit)?)
    }

    /// Reads many keys at once (RAMCloud's multi-read). Results come back
    /// in `keys` order.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone. Per-key misses
    /// are `None` entries, not errors.
    pub fn multiread(
        &self,
        table: TableId,
        keys: &[&[u8]],
    ) -> Result<Vec<Option<ObjectRecord>>, ClientError> {
        self.check_running()?;
        Ok(keys.iter().map(|key| self.store.read(table, key)).collect())
    }

    /// Writes many key/value pairs at once (RAMCloud's multi-write), taking
    /// each touched shard's write lock once (see
    /// [`ShardedStore::multiwrite`]). Per-key outcomes (including per-key
    /// errors such as [`StoreError::ValueTooLarge`]) come back in `ops`
    /// order.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn multiwrite(
        &self,
        table: TableId,
        ops: &[(&[u8], &[u8])],
    ) -> Result<Vec<Result<WriteOutcome, StoreError>>, ClientError> {
        self.check_running()?;
        Ok(self.store.multiwrite(table, ops))
    }
}

/// The running server: a sharded log-structured engine, its per-shard
/// cleaner threads, and the stop flag every [`Client`] checks.
#[derive(Debug)]
pub struct StandaloneServer {
    store: Arc<ShardedStore>,
    cleaners: CleanerPool,
    metrics: MetricsRegistry,
    /// Refuses every call once set; also what stops the cleaners.
    stopped: Arc<AtomicBool>,
    obs: Arc<StageObs>,
}

impl StandaloneServer {
    /// Starts the server with its cleaner threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn start(config: ServerConfig) -> Self {
        // The background threads clean ahead of the writers; a write that
        // still finds its shard's log full makes room for itself.
        let store = Arc::new(ShardedStore::new(config.shards, config.log));
        let metrics = MetricsRegistry::new();
        store.attach_fallback_dwell(metrics.histogram("stage.fallback_locked_ns"));
        let stopped = Arc::new(AtomicBool::new(false));
        let cleaners = CleanerPool::start(&store, &metrics, &stopped);
        let obs = Arc::new(StageObs::new(&metrics));
        StandaloneServer {
            store,
            cleaners,
            metrics,
            stopped,
            obs,
        }
    }

    /// A new client handle.
    pub fn client(&self) -> Client {
        Client {
            store: Arc::clone(&self.store),
            stopped: Arc::clone(&self.stopped),
            obs: Arc::clone(&self.obs),
        }
    }

    /// The shared engine (e.g. for stats).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The server's metrics registry. Background cleaner threads publish
    /// per-shard counters here under `cleaner.{shard}.*` — passes, segments
    /// freed/compacted, survivor and relocated bytes, tombstones dropped,
    /// busy nanoseconds, and the reclamation epoch-lag gauge. The read
    /// path's counters live in [`ShardedStore::stats`] alone.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Stops the server and joins its cleaner threads.
    ///
    /// From the moment this is called, every [`Client`] call returns
    /// [`ClientError::ServerStopped`]. A call already past its check
    /// completes on its own thread; nothing waits on the server for it.
    pub fn shutdown(mut self) {
        self.cleaners.stop_and_join();
    }
}

impl Drop for StandaloneServer {
    fn drop(&mut self) {
        // Non-blocking teardown (C-DTOR-BLOCK): set the flag and detach. It
        // refuses every later call and stops the cleaners, which exit
        // within one idle backoff; `shutdown` is the joining alternative.
        self.stopped.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(9);

    fn server() -> StandaloneServer {
        StandaloneServer::start(ServerConfig::default())
    }

    #[test]
    fn roundtrip_on_the_calling_thread() {
        let srv = server();
        let client = srv.client();
        client.write(T, b"k", b"v").unwrap();
        let got = client.read(T, b"k").unwrap().unwrap();
        assert_eq!(&got.value[..], b"v");
        assert_eq!(client.delete(T, b"k").unwrap(), Some(Version(1)));
        assert_eq!(client.read(T, b"k").unwrap(), None);
        let st = srv.store().stats();
        assert_eq!(
            (st.writes, st.deletes, st.read_hits, st.read_misses),
            (1, 1, 1, 1)
        );
        srv.shutdown();
    }

    #[test]
    fn many_threads_many_clients() {
        let srv = server();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let client = srv.client();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("c{t}-{i}");
                        client
                            .write(T, key.as_bytes(), format!("{i}").as_bytes())
                            .unwrap();
                        let got = client.read(T, key.as_bytes()).unwrap().unwrap();
                        assert_eq!(&got.value[..], format!("{i}").as_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(srv.store().object_count(), 1600);
        let st = srv.store().stats();
        assert_eq!((st.writes, st.read_hits), (1600, 1600));
        srv.shutdown();
    }

    #[test]
    fn read_view_fast_path_is_zero_copy() {
        let srv = server();
        let client = srv.client();
        client.write(T, b"k", b"view-bytes").unwrap();
        let view = client.read_view(T, b"k").unwrap().expect("present");
        assert_eq!(&view.value[..], b"view-bytes");
        // The gauge counts windows into segment memory: the read did not copy.
        assert_eq!(srv.store().stats().value_views_live, 1);
        drop(view);
        assert_eq!(srv.store().stats().value_views_live, 0);
        assert!(client.read_view(T, b"missing").unwrap().is_none());
        srv.shutdown();
    }

    #[test]
    fn stage_histograms_capture_service_time() {
        let srv = server();
        let client = srv.client();
        // The sampler draws one op in 32 at random: with 1 024 of each
        // kind, an empty histogram is a 1-in-10^14 event.
        for i in 0..1024 {
            client.write(T, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..1024 {
            client.read(T, format!("k{i}").as_bytes()).unwrap();
        }
        let hists = srv.metrics().snapshot_histograms();
        assert!(hists["stage.write_service_ns"].count() > 0);
        assert!(hists["stage.read_service_ns"].count() > 0);
        srv.shutdown();
    }

    #[test]
    fn multiread_views_preserves_order() {
        let srv = server();
        let client = srv.client();
        for i in 0..16 {
            client
                .write(T, format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let keys: Vec<Vec<u8>> = (0..20)
            .map(|i| format!("k{}", 19 - i).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = client.multiread_views(T, &refs).unwrap();
        assert_eq!(got.len(), 20);
        for (i, entry) in got.iter().enumerate() {
            let idx = 19 - i;
            if idx < 16 {
                let view = entry.as_ref().expect("present key");
                assert_eq!(&view.value[..], format!("v{idx}").as_bytes());
            } else {
                assert!(entry.is_none());
            }
        }
        assert!(client.multiread_views(T, &[]).unwrap().is_empty());
        srv.shutdown();
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let mut config = ServerConfig::default();
        config.log.ordered_index = true;
        let srv = StandaloneServer::start(config);
        let client = srv.client();
        for i in 0..20 {
            client
                .write(T, format!("s{i:02}").as_bytes(), b"v")
                .unwrap();
        }
        let got = client.scan(T, b"s05", 5).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(&got[0].key[..], b"s05");
        srv.shutdown();
    }

    #[test]
    fn scan_disabled_by_default() {
        let srv = StandaloneServer::start(ServerConfig::default());
        let client = srv.client();
        match client.scan(T, b"", 5) {
            Err(ClientError::Store(StoreError::ScansDisabled)) => {}
            other => panic!("expected ScansDisabled, got {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn clients_error_after_shutdown() {
        let srv = server();
        let client = srv.client();
        client.write(T, b"k", b"v").unwrap();
        srv.shutdown();
        assert_eq!(client.read(T, b"k"), Err(ClientError::ServerStopped));
        assert_eq!(client.write(T, b"k", b"v"), Err(ClientError::ServerStopped));
        assert_eq!(
            client.multiread(T, &[b"k"]),
            Err(ClientError::ServerStopped)
        );
        assert_eq!(
            client.multiwrite(T, &[(b"k".as_slice(), b"v".as_slice())]),
            Err(ClientError::ServerStopped)
        );
    }

    #[test]
    fn store_errors_propagate() {
        let srv = server();
        let client = srv.client();
        let huge = vec![0u8; rmc_logstore::MAX_VALUE_BYTES + 1];
        match client.write(T, b"k", &huge) {
            Err(ClientError::Store(StoreError::ValueTooLarge)) => {}
            other => panic!("expected ValueTooLarge, got {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn drop_without_shutdown_stops_service() {
        let client;
        {
            let srv = server();
            client = srv.client();
            client.write(T, b"k", b"v").unwrap();
        }
        // The drop set the stop flag before it returned.
        assert_eq!(client.read(T, b"k"), Err(ClientError::ServerStopped));
        assert_eq!(client.write(T, b"x", b"y"), Err(ClientError::ServerStopped));
    }

    #[test]
    fn multiread_returns_results_in_key_order() {
        let srv = server();
        let client = srv.client();
        for i in 0..32 {
            client
                .write(T, format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Present and missing keys interleaved, order must be preserved.
        let keys: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("k{}", 39 - i).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = client.multiread(T, &refs).unwrap();
        assert_eq!(got.len(), 40);
        for (i, entry) in got.iter().enumerate() {
            let idx = 39 - i;
            if idx < 32 {
                let rec = entry.as_ref().expect("present key");
                assert_eq!(&rec.value[..], format!("v{idx}").as_bytes());
            } else {
                assert!(entry.is_none(), "key k{idx} must be a miss");
            }
        }
        assert!(client.multiread(T, &[]).unwrap().is_empty());
        srv.shutdown();
    }

    #[test]
    fn multiwrite_reports_per_key_outcomes_in_order() {
        let srv = server();
        let client = srv.client();
        let huge = vec![0u8; rmc_logstore::MAX_VALUE_BYTES + 1];
        let ops: Vec<(&[u8], &[u8])> = vec![
            (b"a", b"1"),
            (b"b", &huge), // per-key failure, not a batch failure
            (b"c", b"3"),
            (b"a", b"4"), // overwrite in the same batch
        ];
        let got = client.multiwrite(T, &ops).unwrap();
        assert_eq!(got.len(), 4);
        assert!(got[0].is_ok());
        assert_eq!(got[1], Err(StoreError::ValueTooLarge));
        assert!(got[2].is_ok());
        // Same key twice in one batch: versions must be monotone and
        // the final value must be the later op's.
        assert_eq!(got[3].as_ref().unwrap().version, Version(2));
        assert_eq!(&client.read(T, b"a").unwrap().unwrap().value[..], b"4");
        assert!(client.multiwrite(T, &[]).unwrap().is_empty());
        srv.shutdown();
    }

    #[test]
    fn multiwrite_spans_every_shard() {
        let srv = server();
        let client = srv.client();
        let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("key{i}").into_bytes()).collect();
        let ops: Vec<(&[u8], &[u8])> = keys
            .iter()
            .map(|k| (k.as_slice(), b"v".as_slice()))
            .collect();
        let got = client.multiwrite(T, &ops).unwrap();
        assert!(got.iter().all(Result::is_ok));
        assert_eq!(srv.store().object_count(), 64);
        for (key, outcome) in keys.iter().zip(&got) {
            let rec = client.read(T, key).unwrap().expect("written");
            assert_eq!(rec.version, outcome.as_ref().unwrap().version);
        }
        srv.shutdown();
    }
}
