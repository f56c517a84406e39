//! A real multi-threaded single-node store.
//!
//! Mirrors the RAMCloud server architecture at miniature scale with actual
//! threads, built so that dispatch — the bottleneck the paper characterizes
//! — stays off the hot path:
//!
//! - **Shard-affinity dispatch.** Each worker owns a fixed subset of shards
//!   and has a private queue carrying only mutations of those shards, so
//!   writes to a shard are single-threaded and the per-shard write lock is
//!   never contended by another worker.
//! - **Zero-queue, lock-free, zero-copy reads.** [`Client::read`] /
//!   [`Client::read_view`] execute on the client thread against the shard
//!   through an epoch-pinned lock-free index probe; `read_view` returns a
//!   zero-copy view into the live segment. Only a probe that keeps
//!   colliding with the shard's writer falls back to the shard read lock.
//! - **Background cleaning.** One cleaner thread per shard runs the
//!   three-phase concurrent cleaner; a write runs the same phases itself
//!   only when it finds its shard's log full.
//!
//! Why this design and not one global MPMC queue, locked copying reads or
//! inline cleaning: the measured comparisons are recorded in DESIGN.md
//! §4c–§4e and EXPERIMENTS.md.
//!
//! Batched operations ([`Client::multiread`] / [`Client::multiwrite`])
//! mirror RAMCloud's multi-ops: written keys are grouped by destination
//! worker and cross a queue once per worker per batch, replying through one
//! pooled [`BatchSlot`](crate::dispatch) instead of a channel per key.
//!
//! ## Consistency
//!
//! Writes to one key are serialized by that shard's single writer and
//! committed under the shard's write lock before the reply is sent, so a
//! client that has seen a write acknowledged will observe it in subsequent
//! reads. A read racing an *unacknowledged* write may return the older
//! value — the same guarantee RAMCloud offers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use rmc_logstore::{
    LogConfig, ObjectRecord, ObjectView, StoreError, TableId, Version, WriteOutcome,
};
use rmc_obs::Sampler;
use rmc_runtime::{HistogramHandle, MetricsRegistry, StripedCounter};

use crate::cleaner::CleanerPool;
use crate::dispatch::{worker_for_shard, BatchGuard, BatchSlot};
use crate::shard::ShardedStore;

/// Configuration of a [`StandaloneServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads servicing requests (RAMCloud would use cores − 1).
    pub worker_threads: usize,
    /// Engine shards (lock granularity and dispatch-affinity granularity).
    pub shards: usize,
    /// Per-shard log sizing.
    pub log: LogConfig,
    /// Per-queue depth before submitters block.
    pub queue_capacity: usize,
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
            queue_capacity: 1024,
        }
    }
}

/// Sampled stage-timing instrumentation shared by every [`Client`] handle
/// and worker thread: per-stage latency histograms in the server's
/// [`MetricsRegistry`], fed 1-in-[`STAGE_SAMPLE`] so the hot paths pay two
/// `Instant::now()` calls only on sampled ops (and nothing but one relaxed
/// load + branch when `rmc_obs::set_enabled(false)`).
#[derive(Debug)]
struct StageObs {
    sampler: Sampler,
    queue_wait: HistogramHandle,
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
            queue_wait: registry.histogram("stage.queue_wait_ns"),
            read_service: registry.histogram("stage.read_service_ns"),
            write_service: registry.histogram("stage.write_service_ns"),
        }
    }

    /// `Some(now)` when this op was picked for timing.
    fn sample(&self) -> Option<Instant> {
        self.sampler.tick().then(Instant::now)
    }
}

/// A queued mutation (or scan). Reads never enqueue: they run on the
/// calling thread.
enum Command {
    /// Tells one worker to exit (used by `shutdown`; outstanding `Client`
    /// handles keep the channel open, so closure alone cannot stop them).
    Shutdown,
    Write {
        table: TableId,
        key: Vec<u8>,
        value: Vec<u8>,
        reply: Sender<Result<WriteOutcome, StoreError>>,
        /// Enqueue stamp on sampled ops: the worker records the dispatch
        /// queue wait and the in-store service time for this command.
        queued: Option<Instant>,
    },
    Delete {
        table: TableId,
        key: Vec<u8>,
        reply: Sender<Result<Option<Version>, StoreError>>,
        /// Enqueue stamp on sampled ops (see `Command::Write`'s `queued`).
        queued: Option<Instant>,
    },
    Scan {
        table: TableId,
        start_key: Vec<u8>,
        limit: usize,
        reply: Sender<Result<Vec<ObjectRecord>, StoreError>>,
    },
    /// One worker's share of a `multiwrite` batch. Indices are the
    /// caller's original key positions.
    MultiWrite {
        table: TableId,
        ops: Vec<(usize, Vec<u8>, Vec<u8>)>,
        guard: BatchGuard<Result<WriteOutcome, StoreError>>,
    },
}

impl Command {
    /// Logical operations this command carries (for served-op accounting).
    fn op_count(&self) -> u64 {
        match self {
            Command::Shutdown => 0,
            Command::Write { .. } | Command::Delete { .. } | Command::Scan { .. } => 1,
            Command::MultiWrite { ops, .. } => ops.len() as u64,
        }
    }
}

impl std::fmt::Debug for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Command::Shutdown => "Shutdown",
            Command::Write { .. } => "Write",
            Command::Delete { .. } => "Delete",
            Command::Scan { .. } => "Scan",
            Command::MultiWrite { .. } => "MultiWrite",
        };
        write!(f, "Command::{name}")
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

/// A handle for submitting requests; cheap to clone, usable from any thread.
#[derive(Debug, Clone)]
pub struct Client {
    senders: Vec<Sender<Command>>,
    store: Arc<ShardedStore>,
    stopped: Arc<AtomicBool>,
    fast_reads: Arc<StripedCounter>,
    obs: Arc<StageObs>,
}

impl Client {
    /// Every call starts here: once the server was dropped or shut down,
    /// nothing is served — whatever the queues still hold.
    fn check_running(&self) -> Result<(), ClientError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ClientError::ServerStopped);
        }
        Ok(())
    }

    /// The one place a command enters a worker queue. Checking the stop
    /// flag here (not only the channel) matters after a non-blocking
    /// `Drop`: a shutdown marker that found its queue full was lost, so the
    /// worker is still draining and a bare `send` would still be served.
    fn submit(&self, worker: usize, cmd: Command) -> Result<(), ClientError> {
        self.check_running()?;
        self.senders[worker]
            .send(cmd)
            .map_err(|_| ClientError::ServerStopped)
    }

    /// Blocks for a reply. No timeout polling: when the server shuts down,
    /// unserviced commands are dropped with their reply senders, so the
    /// receiver disconnects and this wakes immediately.
    fn await_reply<T>(rx: Receiver<T>) -> Result<T, ClientError> {
        rx.recv().map_err(|_| ClientError::ServerStopped)
    }

    /// The worker that owns mutations of `key`.
    fn worker_for(&self, table: TableId, key: &[u8]) -> usize {
        worker_for_shard(self.store.shard_index(table, key), self.senders.len())
    }

    /// Reads a key into an owned record: no queue crossing, the read
    /// executes directly against the shard on the calling thread.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn read(&self, table: TableId, key: &[u8]) -> Result<Option<ObjectRecord>, ClientError> {
        self.check_running()?;
        let t0 = self.obs.sample();
        let (shard, hash) = self.store.locate(table, key);
        let got = self.store.read_at(shard, hash, table, key);
        self.fast_reads.add(shard);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.obs.read_service.record(ns);
            rmc_obs::tt_record!("fast-path read: {} ns (shard {})", ns, shard as u64);
        }
        Ok(got)
    }

    /// Reads a key as an [`ObjectView`]: a hit is served with **no queue,
    /// no lock, and no copy** — the view points into the live segment and
    /// keeps those bytes alive for as long as the caller holds it. A read
    /// that fell back to the shard lock (see [`ShardedStore::read_view`])
    /// returns the same kind of view.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if the server is gone.
    pub fn read_view(&self, table: TableId, key: &[u8]) -> Result<Option<ObjectView>, ClientError> {
        self.check_running()?;
        let t0 = self.obs.sample();
        let (shard, hash) = self.store.locate(table, key);
        let got = self.store.read_view_at(shard, hash, table, key);
        self.fast_reads.add(shard);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.obs.read_service.record(ns);
            rmc_obs::tt_record!("fast-path read_view: {} ns (shard {})", ns, shard as u64);
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
            .map(|key| {
                let (shard, hash) = self.store.locate(table, key);
                let got = self.store.read_view_at(shard, hash, table, key);
                self.fast_reads.add(shard);
                got
            })
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
        let (reply, rx) = bounded(1);
        self.submit(
            self.worker_for(table, key),
            Command::Write {
                table,
                key: key.to_vec(),
                value: value.to_vec(),
                reply,
                queued: self.obs.sample(),
            },
        )?;
        Self::await_reply(rx)?.map_err(Into::into)
    }

    /// Deletes a key; returns the deleted version if present.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] or a propagated [`StoreError`].
    pub fn delete(&self, table: TableId, key: &[u8]) -> Result<Option<Version>, ClientError> {
        let (reply, rx) = bounded(1);
        self.submit(
            self.worker_for(table, key),
            Command::Delete {
                table,
                key: key.to_vec(),
                reply,
                queued: self.obs.sample(),
            },
        )?;
        Self::await_reply(rx)?.map_err(Into::into)
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
        let (reply, rx) = bounded(1);
        self.submit(
            0,
            Command::Scan {
                table,
                start_key: start_key.to_vec(),
                limit,
                reply,
            },
        )?;
        Self::await_reply(rx)?.map_err(Into::into)
    }

    /// Reads many keys at once (RAMCloud's multi-read), entirely on the
    /// calling thread — reads never enqueue. Results come back in `keys`
    /// order.
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
        Ok(keys
            .iter()
            .map(|key| {
                let (shard, hash) = self.store.locate(table, key);
                let got = self.store.read_at(shard, hash, table, key);
                self.fast_reads.add(shard);
                got
            })
            .collect())
    }

    /// Writes many key/value pairs at once (RAMCloud's multi-write). Keys
    /// are grouped by destination worker; each group crosses its queue once
    /// and replies through one pooled slot. Per-key outcomes (including
    /// per-key errors such as [`StoreError::ValueTooLarge`]) come back in
    /// `ops` order.
    ///
    /// # Errors
    ///
    /// [`ClientError::ServerStopped`] if any part of the batch was dropped
    /// by a shutdown before executing.
    pub fn multiwrite(
        &self,
        table: TableId,
        ops: &[(&[u8], &[u8])],
    ) -> Result<Vec<Result<WriteOutcome, StoreError>>, ClientError> {
        self.check_running()?;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let slot = BatchSlot::new(ops.len());
        // Group by destination queue, remembering original positions.
        type IndexedWrite = (usize, Vec<u8>, Vec<u8>);
        let mut groups: Vec<Vec<IndexedWrite>> =
            (0..self.senders.len()).map(|_| Vec::new()).collect();
        for (i, (key, value)) in ops.iter().enumerate() {
            groups[self.worker_for(table, key)].push((i, key.to_vec(), value.to_vec()));
        }
        for (worker, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let guard = BatchGuard::new(Arc::clone(&slot), group.len());
            // A refused submit drops the command, whose guard aborts the
            // slot — wait() below then reports the stop once every group
            // resolves; same for a command dropped unexecuted by shutdown.
            let _ = self.submit(
                worker,
                Command::MultiWrite {
                    table,
                    ops: group,
                    guard,
                },
            );
        }
        slot.wait().map_err(|()| ClientError::ServerStopped)
    }
}

/// The running server: a worker pool over a sharded log-structured engine.
#[derive(Debug)]
pub struct StandaloneServer {
    store: Arc<ShardedStore>,
    senders: Vec<Sender<Command>>,
    workers: Vec<JoinHandle<u64>>,
    cleaners: CleanerPool,
    metrics: MetricsRegistry,
    queued_ops: Arc<AtomicU64>,
    fast_reads: Arc<StripedCounter>,
    stopped: Arc<AtomicBool>,
    obs: Arc<StageObs>,
}

impl StandaloneServer {
    /// Starts the server with its worker and cleaner threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.worker_threads` or `config.shards` is zero.
    pub fn start(config: ServerConfig) -> Self {
        assert!(config.worker_threads > 0, "need at least one worker");
        // The background threads clean ahead of the writers; a write that
        // still finds its shard's log full makes room for itself.
        let store = Arc::new(ShardedStore::new(config.shards, config.log.clone()));
        let metrics = MetricsRegistry::new();
        store.attach_fallback_dwell(metrics.histogram("stage.fallback_locked_ns"));
        let cleaners = CleanerPool::start(&store, &metrics);
        let queued_ops = Arc::new(AtomicU64::new(0));
        let fast_reads = Arc::new(StripedCounter::new(config.shards));
        let stopped = Arc::new(AtomicBool::new(false));
        let obs = Arc::new(StageObs::new(&metrics));

        // A private queue per worker, so a shard's mutations form a single
        // stream.
        let queues = (0..config.worker_threads).map(|_| bounded(config.queue_capacity));
        let (senders, receivers): (Vec<Sender<Command>>, Vec<Receiver<Command>>) = queues.unzip();

        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let store = Arc::clone(&store);
                let counter = Arc::clone(&queued_ops);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("rmc-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &store, &counter, &obs))
                    .expect("spawn worker")
            })
            .collect();

        StandaloneServer {
            store,
            senders,
            workers,
            cleaners,
            metrics,
            queued_ops,
            fast_reads,
            stopped,
            obs,
        }
    }

    /// A new client handle.
    pub fn client(&self) -> Client {
        Client {
            senders: self.senders.clone(),
            store: Arc::clone(&self.store),
            stopped: Arc::clone(&self.stopped),
            fast_reads: Arc::clone(&self.fast_reads),
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
    /// busy nanoseconds, and the reclamation epoch-lag gauge — and
    /// re-export the engine's read-path counters under `read.{shard}.*`
    /// (`lockfree`, `fallback_locked`, and the `value_views_live` /
    /// `limbo_held_by_views` gauges); [`ShardedStore::stats`] is always
    /// authoritative.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Operations executed so far (queued ops plus fast-path reads).
    pub fn ops_executed(&self) -> u64 {
        self.queued_ops.load(Ordering::Relaxed) + self.fast_reads.sum()
    }

    /// Stops the workers after draining everything already queued, and
    /// joins them. Returns per-worker served-op counts (fast-path reads are
    /// not attributed to any worker; see [`StandaloneServer::ops_executed`]).
    ///
    /// Outstanding [`Client`] handles keep working until the last worker
    /// consumes its shutdown marker. Afterwards their calls return
    /// [`ClientError::ServerStopped`]: new submissions are refused, and
    /// requests that were queued behind a marker are dropped when the
    /// worker's receiver goes away — which disconnects their reply channels
    /// and wakes the blocked callers (no timeout polling anywhere).
    pub fn shutdown(mut self) -> Vec<u64> {
        // Blocking send: queued work drains first, then each worker
        // consumes exactly one marker and exits. Taking the senders leaves
        // `Drop` nothing to post.
        for tx in std::mem::take(&mut self.senders) {
            let _ = tx.send(Command::Shutdown);
        }
        let served: Vec<u64> = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        // Workers are gone; no more writes can arrive, so the cleaners can
        // stop after at most one final pass.
        self.cleaners.stop_and_join();
        // Flag only after the join: requests queued ahead of the markers
        // were still serviced; anything later now errors out promptly.
        self.stopped.store(true, Ordering::Release);
        served
    }
}

impl Drop for StandaloneServer {
    fn drop(&mut self) {
        // Non-blocking teardown (C-DTOR-BLOCK): flag shutdown, post markers,
        // and detach. The flag is what stops service — every `Client` call
        // checks it — so a marker that finds its queue full may be lost:
        // that worker drains what was already queued and exits once the
        // last `Client` clone is gone. `shutdown` is the blocking, checked
        // alternative.
        self.stopped.store(true, Ordering::Release);
        for tx in &self.senders {
            let _ = tx.try_send(Command::Shutdown);
        }
    }
}

/// One worker: drains its queue until it sees a shutdown marker or the
/// queue disconnects. Returns the number of logical ops it served.
fn worker_loop(
    rx: &Receiver<Command>,
    store: &ShardedStore,
    counter: &AtomicU64,
    obs: &StageObs,
) -> u64 {
    // Converts a sampled enqueue stamp into a recorded queue-wait and a
    // fresh service-time start.
    let dequeue = |queued: Option<Instant>| {
        queued.map(|q| {
            let wait = q.elapsed().as_nanos() as u64;
            obs.queue_wait.record(wait);
            rmc_obs::tt_record!("dispatch queue wait: {} ns", wait);
            Instant::now()
        })
    };
    let finish = |start: Option<Instant>| {
        if let Some(s) = start {
            let ns = s.elapsed().as_nanos() as u64;
            obs.write_service.record(ns);
            rmc_obs::tt_record!("store service: {} ns", ns);
        }
    };
    let mut served = 0u64;
    while let Ok(cmd) = rx.recv() {
        // Count before replying so a client that saw its reply also sees
        // the op counted.
        let ops = cmd.op_count();
        served += ops;
        counter.fetch_add(ops, Ordering::Relaxed);
        match cmd {
            Command::Shutdown => break,
            Command::Write {
                table,
                key,
                value,
                reply,
                queued,
            } => {
                let start = dequeue(queued);
                let res = store.write(table, &key, &value);
                finish(start);
                let _ = reply.send(res);
            }
            Command::Delete {
                table,
                key,
                reply,
                queued,
            } => {
                let start = dequeue(queued);
                let res = store.delete(table, &key);
                finish(start);
                let _ = reply.send(res);
            }
            Command::Scan {
                table,
                start_key,
                limit,
                reply,
            } => {
                let _ = reply.send(store.scan(table, &start_key, limit));
            }
            Command::MultiWrite {
                table,
                ops,
                mut guard,
            } => {
                for (index, key, value) in ops {
                    guard.complete(index, store.write(table, &key, &value));
                }
            }
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(9);

    fn server() -> StandaloneServer {
        StandaloneServer::start(ServerConfig::default())
    }

    #[test]
    fn roundtrip_through_worker_pool() {
        let srv = server();
        let client = srv.client();
        client.write(T, b"k", b"v").unwrap();
        let got = client.read(T, b"k").unwrap().unwrap();
        assert_eq!(&got.value[..], b"v");
        assert_eq!(client.delete(T, b"k").unwrap(), Some(Version(1)));
        assert_eq!(client.read(T, b"k").unwrap(), None);
        // All four ops counted; the two reads took the fast path and are
        // not attributed to a worker.
        assert_eq!(srv.ops_executed(), 4);
        let served: u64 = srv.shutdown().iter().sum();
        assert_eq!(served, 2);
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
        assert_eq!(srv.ops_executed(), 8 * 200 * 2);
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
    fn stage_histograms_capture_queue_wait_and_service_time() {
        let srv = server();
        let client = srv.client();
        // Phases, not interleaving: the shared sampler picks every 32nd op,
        // and a strict write/read alternation would phase-lock it.
        for i in 0..256 {
            client.write(T, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..256 {
            client.read(T, format!("k{i}").as_bytes()).unwrap();
        }
        let hists = srv.metrics().snapshot_histograms();
        assert!(hists["stage.queue_wait_ns"].count() > 0, "writes enqueue");
        assert!(hists["stage.write_service_ns"].count() > 0);
        assert!(
            hists["stage.read_service_ns"].count() > 0,
            "fast-path reads are sampled on the client thread"
        );
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
    fn scan_through_worker_pool() {
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
    fn drop_without_shutdown_is_clean() {
        let client;
        {
            let srv = server();
            client = srv.client();
            client.write(T, b"k", b"v").unwrap();
        }
        // Workers drain and exit after drop; fast-path reads observe the
        // stop flag, queued ops observe dead queues.
        let mut stopped = false;
        for _ in 0..100 {
            if client.read(T, b"k").is_err() {
                stopped = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(stopped, "clients must observe server shutdown");
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
    fn multiwrite_spreads_across_workers() {
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
        // Every worker that owns a touched shard served part of the batch.
        let served = srv.shutdown();
        assert!(
            served.iter().filter(|&&n| n > 0).count() > 1,
            "batch must fan out across workers: {served:?}"
        );
    }
}
