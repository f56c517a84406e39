//! The simulated RAMCloud cluster: clients, masters, backups, coordinator,
//! network, disks, and the experiment driver.
//!
//! One [`Cluster`] value is the state `S` of a discrete-event run on the
//! `rmc_sim` engine; events are closures calling back into `Cluster`
//! methods. The data plane is real (`rmc_logstore`): every write stores
//! actual bytes, every replication message carries the serialized entry, and
//! crash recovery replays real segment replicas — so correctness is testable
//! end to end while time, CPU, network, disk, and power are modelled.

use std::collections::BTreeMap;

use rmc_disk::{DiskModel, IoKind};
use rmc_energy::{NodeActivity, PduSampler, PowerProfile};
use rmc_logstore::{CompletionId, LogConfig, LogEntry, ObjectRecord, Store, TableId};
use rmc_net::{NetProfile, Network};
use rmc_runtime::{SimDuration, SimRng, SimTime};
use rmc_sim::{Scheduler, Simulation};
use rmc_ycsb::{ClientStats, OpKind, RequestGenerator, Throttle};

use crate::calib;
use crate::config::{ClientAffinity, ClusterConfig};
use crate::coordinator::{Coordinator, RecoveryState};
use crate::ids::OpId;
use crate::node::{QueuedWork, SegMeta, ServerNode};
use crate::report::{RecoveryReport, RunReport};

/// The single table used by the benchmark (the paper loads one YCSB table).
pub const BENCH_TABLE: TableId = TableId(1);

type Sched<'a> = &'a mut Scheduler<Cluster>;

/// A client machine running one closed-loop YCSB client.
#[derive(Debug)]
struct ClientMachine {
    net_node: usize,
    gen: RequestGenerator,
    throttle: Option<Throttle>,
    stats: ClientStats,
    done: bool,
    /// Next RIFL sequence number for this client's writes.
    next_seq: u64,
}

/// A client request waiting out a crash recovery.
#[derive(Debug, Clone)]
struct BlockedOp {
    client: usize,
    kind: OpKind,
    key_index: u64,
    original_sent_at: SimTime,
    /// RIFL sequence of the interrupted op — the re-issue is a *retry*, so
    /// it carries the same sequence and cannot double-apply.
    seq: u64,
}

/// What an in-flight operation is.
#[derive(Debug)]
enum OpPayload {
    /// A client request executing on a master.
    Client {
        client: usize,
        kind: OpKind,
        key_index: u64,
        sent_at: SimTime,
        seq: u64,
    },
    /// A replication request staging entry bytes on a backup.
    BackupStage {
        master: usize,
        segment: u64,
        bytes: Vec<u8>,
        nominal: u64,
        entries: u64,
        reply_to: Option<OpId>,
        recovery: bool,
    },
    /// A batch of entries being replayed on a recovery master.
    ReplayChunk {
        bytes: Vec<u8>,
        entries: u64,
        nominal: u64,
    },
}

/// An in-flight operation.
#[derive(Debug)]
struct OpState {
    node: usize,
    payload: OpPayload,
    acks_remaining: u32,
    worker: Option<usize>,
    block_start: SimTime,
}

/// A replay chunk queued at a recovery master (processed sequentially).
#[derive(Debug)]
struct ReplayItem {
    bytes: Vec<u8>,
    entries: u64,
    nominal: u64,
}

/// The full simulated cluster (the simulation state).
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    rng: SimRng,
    net: Network,
    nodes: Vec<ServerNode>,
    coord: Coordinator,
    clients: Vec<ClientMachine>,
    ops: BTreeMap<OpId, OpState>,
    next_op: u64,
    done_clients: usize,
    completed_ops: u64,
    timeout_ops: u64,
    blocked: Vec<BlockedOp>,
    kill_plan: Option<(SimTime, usize)>,
    killed_at: Option<SimTime>,
    replay_queues: Vec<Vec<ReplayItem>>,
    replay_active: Vec<usize>,
    pending_segment_reads: usize,
    recovery_finished_at: Option<SimTime>,
    final_recovery: Option<RecoveryState>,
    last_completion: SimTime,
    /// Key indices grouped by their initial owner (for client affinity).
    keys_by_owner: Vec<Vec<u64>>,
}

/// Time constant of the PDU meters' lag, seconds (real PDUs report a
/// lagging average; `rmc_energy::PduSampler`).
const PDU_TAU_SECS: f64 = 3.0;

impl Cluster {
    /// Builds an idle cluster (no data loaded yet).
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.validate();
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        // The paper ran RAMCloud over Infiniband only.
        let net = Network::new(cfg.servers + cfg.clients, NetProfile::infiniband_20g());
        let nodes: Vec<ServerNode> = (0..cfg.servers)
            .map(|id| {
                // The simulator plays the background cleaner thread itself:
                // one bounded clean_step per committed write (below).
                let store = Store::new(LogConfig {
                    segment_bytes: cfg.stored_segment_bytes(),
                    max_segments: cfg.max_segments(),
                    ordered_index: false,
                });
                ServerNode::new(id, store, DiskModel::new(cfg.disk.clone()))
            })
            .collect();
        let coord = Coordinator::new(cfg.servers, ClusterConfig::HASH_BUCKETS);
        let clients: Vec<ClientMachine> = (0..cfg.clients)
            .map(|c| ClientMachine {
                net_node: cfg.servers + c,
                gen: RequestGenerator::new(cfg.workload.clone(), rng.next_u64()),
                throttle: cfg.throttle_rate.map(Throttle::new),
                stats: ClientStats::new(),
                done: false,
                next_seq: 0,
            })
            .collect();
        let replay_queues = (0..cfg.servers).map(|_| Vec::new()).collect();
        let replay_active = vec![0usize; cfg.servers];
        Cluster {
            cfg,
            rng,
            net,
            nodes,
            coord,
            clients,
            ops: BTreeMap::new(),
            next_op: 0,
            done_clients: 0,
            completed_ops: 0,
            timeout_ops: 0,
            blocked: Vec::new(),
            kill_plan: None,
            killed_at: None,
            replay_queues,
            replay_active,
            pending_segment_reads: 0,
            recovery_finished_at: None,
            final_recovery: None,
            last_completion: SimTime::ZERO,
            keys_by_owner: Vec::new(),
        }
    }

    /// Schedules a server kill at `at` (crash-recovery experiments). When
    /// `victim` is `None` a random server is picked, as in the paper.
    pub fn plan_kill(&mut self, at: SimTime, victim: Option<usize>) {
        let v = victim.unwrap_or_else(|| self.rng.gen_below(self.cfg.servers as u64) as usize);
        self.kill_plan = Some((at, v));
    }

    /// Immutable access to a server (tests / verification).
    pub fn node(&self, id: usize) -> &ServerNode {
        &self.nodes[id]
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Reads a key directly from whichever master owns it (bypasses the
    /// simulation — verification only).
    pub fn peek(&self, key: &[u8]) -> Option<ObjectRecord> {
        let owner = self.coord.owner_of(BENCH_TABLE, key);
        self.nodes[owner].store.peek(BENCH_TABLE, key)
    }

    fn nominal_entry(&self) -> u64 {
        self.cfg.nominal_entry_bytes() as u64
    }

    fn stored_value(&self, key_index: u64, version_salt: u64) -> Vec<u8> {
        let n = self.cfg.stored_value_bytes();
        let mut v = vec![0u8; n];
        let tag = key_index.wrapping_mul(0x9E3779B97F4A7C15) ^ version_salt;
        for (i, b) in v.iter_mut().enumerate() {
            *b = tag.to_le_bytes()[i % 8];
        }
        v
    }

    // ------------------------------------------------------------------
    // Pre-loading (the YCSB load phase; not timed, as in the paper)
    // ------------------------------------------------------------------

    /// Loads `record_count` records into the cluster and builds replica
    /// state, without advancing simulated time.
    pub fn preload(&mut self) {
        let records = self.cfg.workload.record_count;
        self.keys_by_owner = vec![Vec::new(); self.cfg.servers];
        for i in 0..records {
            let key = self.cfg.workload.key_for(i);
            let owner = self.coord.owner_of(BENCH_TABLE, &key);
            self.keys_by_owner[owner].push(i);
            let value = self.stored_value(i, 0);
            self.nodes[owner]
                .store
                .write(BENCH_TABLE, &key, &value)
                .expect("preload must fit in the memory budget");
        }
        // Build replication metadata + replica bytes from the resulting logs.
        if self.cfg.replication == 0 {
            return;
        }
        let nominal_entry = self.nominal_entry();
        for master in 0..self.cfg.servers {
            let seg_ids = self.nodes[master].store.log().segment_ids();
            let head = self.nodes[master].store.log().head();
            for sid in seg_ids {
                let (bytes, entries) = {
                    let seg = self.nodes[master].store.log().segment(sid).expect("listed");
                    (seg.as_bytes().to_vec(), seg.iter().count() as u64)
                };
                let backups = self.choose_backups(master);
                let sealed = sid != head;
                let nominal = entries * nominal_entry;
                for &b in &backups {
                    if sealed {
                        self.nodes[b]
                            .backup
                            .flushed
                            .insert((master, sid.0), bytes.clone());
                    } else {
                        self.nodes[b].backup.stage(master, sid.0, &bytes, nominal);
                    }
                }
                self.nodes[master].segments.insert(
                    sid.0,
                    SegMeta {
                        backups,
                        sealed,
                        nominal_bytes: nominal,
                        entries,
                    },
                );
            }
        }
    }

    fn choose_backups(&mut self, master: usize) -> Vec<usize> {
        let candidates: Vec<usize> = self
            .coord
            .alive_servers()
            .into_iter()
            .filter(|&s| s != master)
            .collect();
        let r = self.cfg.replication as usize;
        self.rng
            .sample_indices(candidates.len(), r)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn register_op(&mut self, node: usize, payload: OpPayload) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(
            id,
            OpState {
                node,
                payload,
                acks_remaining: 0,
                worker: None,
                block_start: SimTime::ZERO,
            },
        );
        id
    }

    fn client_issue(&mut self, c: usize, sched: Sched) {
        let Some(req) = self.clients[c].gen.next_request() else {
            if !self.clients[c].done {
                self.clients[c].done = true;
                self.done_clients += 1;
            }
            return;
        };
        let seq = self.clients[c].next_seq;
        self.clients[c].next_seq += 1;
        self.send_client_request(c, req.kind, req.key_index, None, seq, sched);
    }

    /// Issues one request; `resume_sent_at` carries the original send time
    /// (and the caller passes the original `seq`) when re-issuing an op
    /// that was interrupted by a crash.
    fn send_client_request(
        &mut self,
        c: usize,
        kind: OpKind,
        key_index: u64,
        resume_sent_at: Option<SimTime>,
        seq: u64,
        sched: Sched,
    ) {
        let now = sched.now();
        // Client affinity (Fig 10): remap the sampled key into (or away
        // from) a target server's initial data set.
        let affinity = self
            .cfg
            .client_affinity
            .as_ref()
            .and_then(|a| a.get(c).copied())
            .unwrap_or(ClientAffinity::Any);
        let key_index = if resume_sent_at.is_some() || self.keys_by_owner.is_empty() {
            key_index
        } else {
            match affinity {
                ClientAffinity::Any => key_index,
                ClientAffinity::On(srv) => {
                    let pool = &self.keys_by_owner[srv];
                    if pool.is_empty() {
                        key_index
                    } else {
                        pool[self.rng.gen_below(pool.len() as u64) as usize]
                    }
                }
                ClientAffinity::NotOn(srv) => {
                    // Sample a key from any other server's pool, weighted by
                    // pool size.
                    let total: u64 = self
                        .keys_by_owner
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| s != srv)
                        .map(|(_, p)| p.len() as u64)
                        .sum();
                    if total == 0 {
                        key_index
                    } else {
                        let mut pick = self.rng.gen_below(total);
                        let mut chosen = key_index;
                        for (s, pool) in self.keys_by_owner.iter().enumerate() {
                            if s == srv {
                                continue;
                            }
                            if pick < pool.len() as u64 {
                                chosen = pool[pick as usize];
                                break;
                            }
                            pick -= pool.len() as u64;
                        }
                        chosen
                    }
                }
            }
        };
        let key = self.cfg.workload.key_for(key_index);
        let bucket = self.coord.bucket_of(BENCH_TABLE, &key);
        if self.coord.bucket_unavailable(bucket) {
            self.blocked.push(BlockedOp {
                client: c,
                kind,
                key_index,
                original_sent_at: resume_sent_at.unwrap_or(now),
                seq,
            });
            return;
        }
        let server = self.coord.owner_of_bucket(bucket);
        let is_write = kind == OpKind::Update;
        let overhead_us = if is_write {
            calib::CLIENT_WRITE_OVERHEAD_US
        } else {
            calib::CLIENT_READ_OVERHEAD_US
        };
        let mut send_at = now + SimDuration::from_micros_f64(overhead_us);
        if let Some(t) = self.clients[c].throttle.as_mut() {
            send_at = t.reserve(send_at);
        }
        let sent_at = resume_sent_at.unwrap_or(send_at);
        let op = self.register_op(
            server,
            OpPayload::Client {
                client: c,
                kind,
                key_index,
                sent_at,
                seq,
            },
        );
        let req_bytes = if is_write {
            self.nominal_entry() + 64
        } else {
            (self.cfg.key_bytes() + 64) as u64
        };
        let client_net = self.clients[c].net_node;
        // The NIC model reserves queue slots in call order, so transfers
        // must be issued at their actual send instant — a future-dated
        // reservation (throttled sends) would block earlier traffic.
        sched.schedule_at(send_at, move |cl: &mut Cluster, s| {
            let arrival = cl.net.transfer(s.now(), client_net, server, req_bytes);
            s.schedule_at(arrival, move |cl: &mut Cluster, s| cl.op_arrive(op, s));
        });
    }

    fn client_receive(&mut self, op: OpId, sched: Sched) {
        let Some(state) = self.ops.remove(&op) else {
            return;
        };
        let OpPayload::Client {
            client,
            kind,
            sent_at,
            ..
        } = state.payload
        else {
            return;
        };
        let now = sched.now();
        let latency = now.saturating_since(sent_at);
        let is_write = kind == OpKind::Update;
        self.clients[client].stats.record(now, latency, is_write);
        self.completed_ops += 1;
        self.last_completion = now;
        if latency.as_secs_f64() * 1e3 > calib::RPC_TIMEOUT_MS {
            self.timeout_ops += 1;
        }
        self.client_issue(client, sched);
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    fn op_arrive(&mut self, op: OpId, sched: Sched) {
        let now = sched.now();
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let node_id = state.node;
        if !self.nodes[node_id].alive {
            self.fail_op_dead_server(op);
            return;
        }
        match &state.payload {
            OpPayload::BackupStage { entries, .. } => {
                // Replication requests are handled on the dispatch thread:
                // they contend with client requests for dispatch but cannot
                // deadlock the worker pool.
                let entries = *entries;
                let node = &mut self.nodes[node_id];
                let per = SimDuration::from_micros_f64(calib::BACKUP_WRITE_US * entries as f64);
                let start = now.max(node.dispatch_free);
                let done = start + SimDuration::from_micros_f64(calib::DISPATCH_US) + per;
                node.dispatch_free = done;
                sched.schedule_at(done, move |cl: &mut Cluster, s| cl.op_local_done(op, s));
            }
            _ => {
                let (is_write, client) = match &state.payload {
                    OpPayload::Client { kind, client, .. } => {
                        (*kind == OpKind::Update, Some(*client))
                    }
                    _ => (false, None),
                };
                let _ = client;
                let node = &mut self.nodes[node_id];
                let ready = node.dispatch(now);
                if is_write {
                    node.adjust_writers(now, 1);
                }
                self.try_assign(node_id, op, ready, sched);
            }
        }
    }

    fn try_assign(&mut self, node_id: usize, op: OpId, ready: SimTime, sched: Sched) {
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let is_client_write = matches!(
            state.payload,
            OpPayload::Client {
                kind: OpKind::Update,
                ..
            }
        );
        let is_replay = matches!(state.payload, OpPayload::ReplayChunk { .. });
        let replay_entries = match &state.payload {
            OpPayload::ReplayChunk { entries, .. } => *entries,
            _ => 0,
        };
        let node = &mut self.nodes[node_id];
        let Some(w) = node.pick_worker(ready) else {
            node.pending.push_back(QueuedWork {
                op,
                ready_at: ready,
            });
            return;
        };
        let idle_since = node.workers[w].free_at;
        let start = ready.max(idle_since);
        node.in_service += 1;
        let local_done = if is_client_write {
            let svc = SimDuration::from_micros_f64(calib::WRITE_SERVICE_US)
                .mul_f64(node.write_inflation());
            let lock_start = (start + svc).max(node.lock_free);
            // The short serialized log-head append.
            let done = lock_start + SimDuration::from_micros_f64(calib::WRITE_LOCK_US);
            node.lock_free = done;
            done
        } else if is_replay {
            let svc = SimDuration::from_micros_f64(calib::REPLAY_ENTRY_US * replay_entries as f64);
            let lock_start = start.max(node.lock_free);
            let done = lock_start + svc;
            node.lock_free = done;
            done
        } else {
            let svc =
                SimDuration::from_micros_f64(calib::READ_SERVICE_US).mul_f64(node.read_inflation());
            start + svc
        };
        node.account_worker_busy(idle_since, start, local_done);
        node.workers[w].free_at = local_done;
        if let Some(state) = self.ops.get_mut(&op) {
            state.worker = Some(w);
        }
        sched.schedule_at(local_done, move |cl: &mut Cluster, s| {
            cl.op_local_done(op, s)
        });
    }

    fn op_local_done(&mut self, op: OpId, sched: Sched) {
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let node_id = state.node;
        if !self.nodes[node_id].alive {
            self.fail_op_dead_server(op);
            return;
        }
        match &state.payload {
            OpPayload::Client { kind, .. } => {
                let kind = *kind;
                self.nodes[node_id].in_service -= 1;
                match kind {
                    OpKind::Read => {
                        self.execute_read(node_id, op);
                        self.respond_to_client(op, sched);
                    }
                    OpKind::Update => {
                        // Writer occupancy runs until the write completes
                        // (including the replication-ack wait): the thread
                        // exists and contends for that whole span.
                        self.execute_write_and_replicate(node_id, op, sched);
                    }
                }
            }
            OpPayload::BackupStage { .. } => {
                self.finish_backup_stage(op, sched);
            }
            OpPayload::ReplayChunk { .. } => {
                self.execute_replay_chunk(node_id, op, sched);
            }
        }
    }

    fn execute_read(&mut self, node_id: usize, op: OpId) {
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let OpPayload::Client { key_index, .. } = state.payload else {
            return;
        };
        let key = self.cfg.workload.key_for(key_index);
        // Real data-plane read; misses only for not-yet-inserted keys.
        let _ = self.nodes[node_id].store.read(BENCH_TABLE, &key);
    }

    fn execute_write_and_replicate(&mut self, node_id: usize, op: OpId, sched: Sched) {
        let now = sched.now();
        let (key_index, client, seq) = match self.ops.get(&op).map(|s| &s.payload) {
            Some(OpPayload::Client {
                key_index,
                client,
                seq,
                ..
            }) => (*key_index, *client, *seq),
            _ => return,
        };
        let completion = CompletionId {
            client: client as u64,
            seq,
        };
        // RIFL duplicate suppression: a retry of an already-applied write
        // (re-issued after a crash, say) must not re-apply.
        if let Some((done_seq, _)) = self.nodes[node_id].store.last_completion(client as u64) {
            if done_seq == seq {
                self.nodes[node_id].adjust_writers(now, -1);
                self.respond_to_client(op, sched);
                return;
            }
        }
        let key = self.cfg.workload.key_for(key_index);
        let value = self.stored_value(key_index, now.as_nanos());
        let outcome = self.nodes[node_id]
            .store
            .write_with(BENCH_TABLE, &key, &value, Some(completion))
            .expect("write must fit (paper workloads sized under budget)");
        let nominal_entry = self.nominal_entry();
        self.nodes[node_id].mem_write.add(now, nominal_entry as f64);
        // Stand-in for the background cleaner thread: one bounded step per
        // committed write, a pure function of store state (no wall clock,
        // no extra randomness), so traces stay seed-deterministic. Survivor
        // copying is real memory traffic — charge it to the energy model.
        if let Some(out) = self.nodes[node_id].store.clean_step() {
            self.nodes[node_id]
                .mem_write
                .add(now, out.bytes_relocated as f64);
        }

        if self.cfg.replication == 0 {
            self.nodes[node_id].adjust_writers(now, -1);
            self.respond_to_client(op, sched);
            return;
        }

        // Seal the previous head and flush it on the backups.
        if let Some(sealed) = outcome.sealed {
            self.seal_segment(node_id, sealed.0, sched);
        }
        // Make sure the (possibly new) head has a replica set.
        let head_seg = outcome.position.segment.0;
        if !self.nodes[node_id].segments.contains_key(&head_seg) {
            let backups = self.choose_backups(node_id);
            self.nodes[node_id].segments.insert(
                head_seg,
                SegMeta {
                    backups,
                    sealed: false,
                    nominal_bytes: 0,
                    entries: 0,
                },
            );
        }
        let meta = self.nodes[node_id]
            .segments
            .get_mut(&head_seg)
            .expect("just ensured");
        meta.nominal_bytes += nominal_entry;
        meta.entries += 1;
        let backups: Vec<usize> = meta.backups.clone();

        // Serialize the real entry once for all replicas.
        let entry = LogEntry::Object(ObjectRecord {
            table: BENCH_TABLE,
            key: key.clone().into(),
            value: value.into(),
            version: outcome.version,
            completion: Some(completion),
        });
        let mut entry_bytes = Vec::with_capacity(entry.serialized_len());
        entry.serialize_into(&mut entry_bytes);

        let live_backups: Vec<usize> = backups
            .into_iter()
            .filter(|&b| self.nodes[b].alive)
            .collect();
        if live_backups.is_empty() {
            self.nodes[node_id].adjust_writers(now, -1);
            self.respond_to_client(op, sched);
            return;
        }
        if let Some(state) = self.ops.get_mut(&op) {
            state.acks_remaining = live_backups.len() as u32;
            state.block_start = now;
        }
        if let Some(w) = self.ops.get(&op).and_then(|s| s.worker) {
            self.nodes[node_id].workers[w].free_at = SimTime::MAX;
        }
        // Issue replication RPCs; each send costs master-side worker time,
        // inflated by the node's thread-contention factor (Finding 3).
        let send_cost = SimDuration::from_micros_f64(
            calib::REPL_SEND_US * self.nodes[node_id].write_inflation(),
        );
        let mut send_at = now;
        for b in live_backups {
            send_at += send_cost;
            let stage_op = self.register_op(
                b,
                OpPayload::BackupStage {
                    master: node_id,
                    segment: head_seg,
                    bytes: entry_bytes.clone(),
                    nominal: nominal_entry,
                    entries: 1,
                    reply_to: Some(op),
                    recovery: false,
                },
            );
            let bytes = nominal_entry + 40;
            sched.schedule_at(send_at, move |cl: &mut Cluster, s| {
                let arrival = cl.net.transfer(s.now(), node_id, b, bytes);
                s.schedule_at(arrival, move |cl: &mut Cluster, s| {
                    cl.op_arrive(stage_op, s)
                });
            });
        }
        // Account the send costs as worker busy time immediately.
        self.nodes[node_id].cpu.add_span(now, send_at, 1.0);
    }

    fn seal_segment(&mut self, master: usize, segment: u64, sched: Sched) {
        let now = sched.now();
        let Some(meta) = self.nodes[master].segments.get_mut(&segment) else {
            return;
        };
        if meta.sealed {
            return;
        }
        meta.sealed = true;
        let nominal = meta.nominal_bytes;
        let backups = meta.backups.clone();
        for b in backups {
            if !self.nodes[b].alive {
                continue;
            }
            // Seal notice is tiny; the flush is disk work at the backup.
            let arrival = self.net.transfer(now, master, b, 64);
            let done = self.nodes[b].disk.submit(arrival, IoKind::Write, nominal);
            sched.schedule_at(done, move |cl: &mut Cluster, _| {
                cl.nodes[b].backup.flush(master, segment, nominal);
            });
        }
    }

    fn finish_backup_stage(&mut self, op: OpId, sched: Sched) {
        let now = sched.now();
        let Some(state) = self.ops.get_mut(&op) else {
            return;
        };
        let node_id = state.node;
        let (master, segment, bytes, nominal, reply_to, recovery) = match &mut state.payload {
            OpPayload::BackupStage {
                master,
                segment,
                bytes,
                nominal,
                reply_to,
                recovery,
                ..
            } => (
                *master,
                *segment,
                std::mem::take(bytes),
                *nominal,
                *reply_to,
                *recovery,
            ),
            _ => return,
        };
        self.ops.remove(&op);
        self.nodes[node_id]
            .backup
            .stage(master, segment, &bytes, nominal);
        self.nodes[node_id].mem_write.add(now, nominal as f64);

        let mut ack_at = now;
        if recovery {
            // Recovery staging is flushed promptly. The backup's staging
            // buffer is bounded: once the disk falls behind by more than the
            // buffer's worth of data, acks track the disk — the backpressure
            // that couples recovery speed to disk bandwidth and makes
            // recovery time grow with the replication factor (Finding 6).
            let disk_done = self.nodes[node_id].disk.submit(now, IoKind::Write, nominal);
            self.nodes[node_id].backup.flush(master, segment, nominal);
            let slack_secs = calib::BACKUP_BUFFER_BYTES as f64 / self.cfg.disk.write_bytes_per_sec;
            let slack = SimDuration::from_secs_f64(slack_secs);
            let throttled = disk_done.saturating_since(now) > slack;
            if throttled {
                ack_at = disk_done - slack;
            }
        }
        if let Some(master_op) = reply_to {
            sched.schedule_at(ack_at, move |cl: &mut Cluster, s| {
                let arrival = cl.net.transfer(s.now(), node_id, master, 32);
                s.schedule_at(arrival, move |cl: &mut Cluster, s| {
                    cl.ack_arrive(master_op, s)
                });
            });
        }
    }

    fn ack_arrive(&mut self, master_op: OpId, sched: Sched) {
        let now = sched.now();
        let Some(state) = self.ops.get_mut(&master_op) else {
            return;
        };
        if state.acks_remaining > 0 {
            state.acks_remaining -= 1;
        }
        if state.acks_remaining > 0 {
            return;
        }
        let node_id = state.node;
        let worker = state.worker;
        let block_start = state.block_start;
        let is_replay = matches!(state.payload, OpPayload::ReplayChunk { .. });
        if !self.nodes[node_id].alive {
            self.fail_op_dead_server(master_op);
            return;
        }
        // Release the blocked worker (busy-waiting counts as busy CPU).
        if let Some(w) = worker {
            if self.nodes[node_id].workers[w].free_at == SimTime::MAX {
                if now > block_start {
                    self.nodes[node_id].cpu.add_span(block_start, now, 1.0);
                }
                self.nodes[node_id].workers[w].free_at = now;
            }
        }
        if is_replay {
            // Account the ack-polling burn as CPU (capped at the worker
            // count when sampled), then let the next chunk in.
            if now > block_start {
                self.nodes[node_id].cpu.add_span(block_start, now, 1.0);
            }
            self.ops.remove(&master_op);
            self.replay_chunk_complete(node_id, sched);
        } else {
            self.nodes[node_id].adjust_writers(now, -1);
            self.respond_to_client(master_op, sched);
        }
        self.pump_pending(node_id, sched);
    }

    fn pump_pending(&mut self, node_id: usize, sched: Sched) {
        let now = sched.now();
        while let Some(q) = self.nodes[node_id].pending.front().copied() {
            // Stop as soon as no worker is available again.
            let available = self.nodes[node_id]
                .workers
                .iter()
                .any(|w| w.free_at != SimTime::MAX);
            if !available {
                break;
            }
            self.nodes[node_id].pending.pop_front();
            self.try_assign(node_id, q.op, q.ready_at.max(now), sched);
        }
    }

    fn respond_to_client(&mut self, op: OpId, sched: Sched) {
        let now = sched.now();
        let Some(state) = self.ops.get(&op) else {
            return;
        };
        let node_id = state.node;
        let OpPayload::Client { client, kind, .. } = &state.payload else {
            self.ops.remove(&op);
            return;
        };
        let client = *client;
        let resp_bytes = match kind {
            OpKind::Read => self.cfg.workload.value_bytes as u64 + 40,
            _ => 48,
        };
        let client_net = self.clients[client].net_node;
        let arrival = self.net.transfer(now, node_id, client_net, resp_bytes);
        sched.schedule_at(arrival, move |cl: &mut Cluster, s| cl.client_receive(op, s));
    }

    fn fail_op_dead_server(&mut self, op: OpId) {
        let Some(state) = self.ops.remove(&op) else {
            return;
        };
        match state.payload {
            OpPayload::Client {
                client,
                kind,
                key_index,
                sent_at,
                seq,
            } => {
                self.blocked.push(BlockedOp {
                    client,
                    kind,
                    key_index,
                    original_sent_at: sent_at,
                    seq,
                });
            }
            OpPayload::BackupStage { .. } | OpPayload::ReplayChunk { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // Crash and recovery
    // ------------------------------------------------------------------

    /// Kills a server immediately (for tests and custom drivers); normal
    /// experiments use [`Cluster::plan_kill`].
    pub fn kill_server_now(&mut self, victim: usize, sched: Sched) {
        self.kill_server(victim, sched);
    }

    /// Starts client `c`'s closed loop (for tests and custom drivers that
    /// drive their own `rmc_sim::Simulation` instead of using
    /// [`Cluster::run`]).
    pub fn start_client(&mut self, c: usize, sched: Sched) {
        self.client_issue(c, sched);
    }

    /// Test hook: applies a RIFL write for `(client 0, seq)` directly on
    /// `master`'s store and mirrors the entry into its replicas — the state
    /// an acked-but-unanswered write leaves behind.
    pub fn test_apply_write(&mut self, master: usize, key: &[u8], seq: u64) {
        let completion = CompletionId { client: 0, seq };
        let value = vec![0xEE; self.cfg.stored_value_bytes()];
        let outcome = self.nodes[master]
            .store
            .write_with(BENCH_TABLE, key, &value, Some(completion))
            .expect("test write fits");
        let entry = LogEntry::Object(ObjectRecord {
            table: BENCH_TABLE,
            key: key.to_vec().into(),
            value: value.into(),
            version: outcome.version,
            completion: Some(completion),
        });
        let mut bytes = Vec::new();
        entry.serialize_into(&mut bytes);
        let seg = outcome.position.segment.0;
        let backups = self.nodes[master]
            .segments
            .get(&seg)
            .map(|m| m.backups.clone())
            .unwrap_or_default();
        let nominal = self.nominal_entry();
        for b in backups {
            self.nodes[b].backup.stage(master, seg, &bytes, nominal);
        }
        if let Some(meta) = self.nodes[master].segments.get_mut(&seg) {
            meta.entries += 1;
            meta.nominal_bytes += nominal;
        }
    }

    /// Test hook: queues a pending retry of `(client 0, seq)` for `key`, as
    /// if the client's original request had been in flight at crash time.
    pub fn test_block_retry(&mut self, client: usize, key: &[u8], seq: u64) {
        // Reverse-map the key to its record index via the workload format.
        let key_str = String::from_utf8_lossy(key);
        let idx: u64 = key_str
            .trim_start_matches("user")
            .parse()
            .expect("workload key");
        self.blocked.push(BlockedOp {
            client,
            kind: OpKind::Update,
            key_index: idx,
            original_sent_at: SimTime::ZERO,
            seq,
        });
        self.clients[client].next_seq = self.clients[client].next_seq.max(seq + 1);
    }

    fn kill_server(&mut self, victim: usize, sched: Sched) {
        let now = sched.now();
        self.killed_at = Some(now);
        self.nodes[victim].alive = false;
        self.nodes[victim].killed_at = Some(now);
        // Fail everything in flight on the victim; synthesize delayed acks
        // for masters that were waiting on the victim as a backup.
        let op_ids: Vec<OpId> = self.ops.keys().copied().collect();
        let penalty = SimDuration::from_micros_f64(calib::REREPLICATION_PENALTY_MS * 1e3);
        for id in op_ids {
            let Some(state) = self.ops.get(&id) else {
                continue;
            };
            if state.node == victim {
                let reply_to = match &state.payload {
                    OpPayload::BackupStage { reply_to, .. } => *reply_to,
                    _ => None,
                };
                self.fail_op_dead_server(id);
                if let Some(master_op) = reply_to {
                    // The master re-replicates to a new backup; modelled as a
                    // fixed penalty before the ack arrives.
                    sched.schedule_at(now + penalty, move |cl: &mut Cluster, s| {
                        cl.ack_arrive(master_op, s)
                    });
                }
            }
        }
        let delay = SimDuration::from_micros_f64(calib::DETECTION_DELAY_MS * 1e3);
        sched.schedule_at(now + delay, move |cl: &mut Cluster, s| {
            cl.start_recovery(victim, s)
        });
    }

    fn start_recovery(&mut self, victim: usize, sched: Sched) {
        let now = sched.now();
        self.coord.mark_dead(victim);
        let will = self.coord.partition_will(victim);
        self.coord.recovery = Some(RecoveryState {
            crashed: victim,
            detected_at: now,
            outstanding_chunks: 0,
            replayed_entries: 0,
            replayed_nominal_bytes: 0,
            new_owners: will.clone(),
        });
        // Map bucket → recovery master for entry partitioning.
        let bucket_owner: BTreeMap<usize, usize> = will.into_iter().collect();

        let segments: Vec<(u64, SegMeta)> = self.nodes[victim]
            .segments
            .iter()
            .map(|(&s, m)| (s, m.clone()))
            .collect();
        if segments.is_empty() {
            self.finish_recovery(sched);
            return;
        }
        // Group the victim's segments by source backup; each backup reads
        // its share *sequentially* (pipelined with shipping), so reads stay
        // spread across the recovery window and interleave with the
        // re-replication writes on the same spindles — the Fig 12 overlap.
        let mut by_source: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for (seg, meta) in segments {
            let source = meta.backups.iter().copied().find(|&b| {
                self.nodes[b].alive && self.nodes[b].backup.replica(victim, seg).is_some()
            });
            let Some(src) = source else {
                // All replicas lost; the paper never hits this case.
                continue;
            };
            by_source
                .entry(src)
                .or_default()
                .push((seg, meta.nominal_bytes));
        }
        for (src, mut segs) in by_source {
            segs.reverse(); // pop from the back in original order
            self.pending_segment_reads += segs.len();
            let owners = bucket_owner.clone();
            sched.schedule_at(now, move |cl: &mut Cluster, s| {
                cl.read_next_segment(victim, src, segs, owners, s)
            });
        }
        if self.pending_segment_reads == 0 {
            self.finish_recovery(sched);
        }
    }

    /// Reads one of the crashed master's segments at `src`, ships it, then
    /// chains to the next.
    fn read_next_segment(
        &mut self,
        victim: usize,
        src: usize,
        mut segs: Vec<(u64, u64)>,
        bucket_owner: BTreeMap<usize, usize>,
        sched: Sched,
    ) {
        let now = sched.now();
        let Some((seg, nominal)) = segs.pop() else {
            return;
        };
        let on_disk = self.nodes[src]
            .backup
            .replica(victim, seg)
            .map(|(_, d)| d)
            .unwrap_or(false);
        let read_done = if on_disk {
            self.nodes[src].disk.submit(now, IoKind::Read, nominal)
        } else {
            now + SimDuration::from_micros(50)
        };
        sched.schedule_at(read_done, move |cl: &mut Cluster, s| {
            cl.segment_read_done(victim, src, seg, &bucket_owner, s);
            if !segs.is_empty() {
                cl.read_next_segment(victim, src, segs, bucket_owner, s);
            }
        });
    }

    fn segment_read_done(
        &mut self,
        victim: usize,
        src: usize,
        seg: u64,
        bucket_owner: &BTreeMap<usize, usize>,
        sched: Sched,
    ) {
        let now = sched.now();
        self.pending_segment_reads -= 1;
        let Some((bytes, _)) = self.nodes[src].backup.replica(victim, seg) else {
            self.maybe_finish_recovery(sched);
            return;
        };
        let bytes = bytes.to_vec();
        // Partition real entries by recovery master.
        let mut groups: BTreeMap<usize, (Vec<u8>, u64)> = BTreeMap::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let Ok((entry, len)) = LogEntry::parse(&bytes[off..]) else {
                break;
            };
            let bucket = self.coord.bucket_of(entry.table(), entry.key());
            if let Some(&owner) = bucket_owner.get(&bucket) {
                let slot = groups.entry(owner).or_default();
                slot.0.extend_from_slice(&bytes[off..off + len]);
                slot.1 += 1;
            }
            off += len;
        }
        let nominal_entry = self.nominal_entry();
        let chunk_entries = calib::REPLAY_CHUNK_ENTRIES as u64;
        for (owner, (gbytes, n)) in groups {
            let nominal = n * nominal_entry;
            let arrival = self.net.transfer(now, src, owner, nominal + 64);
            // Split into replay chunks; the recovery master processes them
            // sequentially through its worker pool.
            let mut remaining = gbytes.as_slice();
            let mut chunks: Vec<ReplayItem> = Vec::new();
            let mut count = 0u64;
            let mut cur: Vec<u8> = Vec::new();
            let mut cur_entries = 0u64;
            while !remaining.is_empty() {
                let Ok((_, len)) = LogEntry::parse(remaining) else {
                    break;
                };
                cur.extend_from_slice(&remaining[..len]);
                cur_entries += 1;
                remaining = &remaining[len..];
                count += 1;
                let _ = count;
                if cur_entries >= chunk_entries || remaining.is_empty() {
                    chunks.push(ReplayItem {
                        bytes: std::mem::take(&mut cur),
                        entries: cur_entries,
                        nominal: cur_entries * nominal_entry,
                    });
                    cur_entries = 0;
                }
            }
            if let Some(rec) = self.coord.recovery.as_mut() {
                rec.outstanding_chunks += chunks.len();
            }
            sched.schedule_at(arrival, move |cl: &mut Cluster, s| {
                cl.replay_queues[owner].append(&mut chunks);
                cl.pump_replay(owner, s);
            });
        }
        self.maybe_finish_recovery(sched);
    }

    fn pump_replay(&mut self, owner: usize, sched: Sched) {
        // Replay keeps as many chunks in flight as there are workers: the
        // log-head lock still serializes the appends, but the waiting
        // worker threads burn CPU — the paper's 92 % recovery spike — and
        // normal requests queue behind them (Fig 10's latency rise).
        let limit = calib::WORKER_THREADS;
        if !self.nodes[owner].alive {
            return;
        }
        while self.replay_active[owner] < limit && !self.replay_queues[owner].is_empty() {
            self.replay_active[owner] += 1;
            let item = self.replay_queues[owner].remove(0);
            let op = self.register_op(
                owner,
                OpPayload::ReplayChunk {
                    bytes: item.bytes,
                    entries: item.entries,
                    nominal: item.nominal,
                },
            );
            self.op_arrive(op, sched);
        }
    }

    fn execute_replay_chunk(&mut self, node_id: usize, op: OpId, sched: Sched) {
        let now = sched.now();
        // The worker's service is done; the ack wait that follows burns CPU
        // (RPC polling) but does not occupy a worker slot, so normal reads
        // keep interleaving between chunks — the paper's Fig 10 shows only
        // a 1.4-2.4x latency rise on recovery masters, not a stall.
        self.nodes[node_id].in_service = self.nodes[node_id].in_service.saturating_sub(1);
        let (bytes, entries, nominal) = match self.ops.get_mut(&op).map(|s| &mut s.payload) {
            Some(OpPayload::ReplayChunk {
                bytes,
                entries,
                nominal,
            }) => (std::mem::take(bytes), *entries, *nominal),
            _ => return,
        };
        // Real replay into the recovery master's store.
        let mut off = 0usize;
        while off < bytes.len() {
            let Ok((entry, len)) = LogEntry::parse(&bytes[off..]) else {
                break;
            };
            match entry {
                LogEntry::Object(o) => {
                    let _ = self.nodes[node_id].store.replay_object(&o);
                }
                LogEntry::Tombstone(t) => {
                    let _ = self.nodes[node_id].store.replay_tombstone(&t);
                }
            }
            off += len;
        }
        self.nodes[node_id].mem_write.add(now, nominal as f64);
        if let Some(rec) = self.coord.recovery.as_mut() {
            rec.replayed_entries += entries;
            rec.replayed_nominal_bytes += nominal;
        }

        // Re-replicate the chunk to R new backups; completion waits for the
        // acks (bounding chunks in flight) but the worker is already free.
        let r = self.cfg.replication as usize;
        if r == 0 {
            self.ops.remove(&op);
            self.replay_chunk_complete(node_id, sched);
            return;
        }
        let backups = self.choose_backups(node_id);
        let live: Vec<usize> = backups
            .into_iter()
            .filter(|&b| self.nodes[b].alive)
            .collect();
        if live.is_empty() {
            self.ops.remove(&op);
            self.replay_chunk_complete(node_id, sched);
            return;
        }
        if let Some(state) = self.ops.get_mut(&op) {
            state.acks_remaining = live.len() as u32;
            state.block_start = now;
            state.worker = None; // ack wait does not hold a worker slot
        }
        let send_cost = SimDuration::from_micros_f64(
            calib::REPL_SEND_US * self.nodes[node_id].write_inflation(),
        );
        let mut send_at = now;
        // One recovery staging "segment" per (recovery master, backup) pair.
        for b in live {
            send_at += send_cost;
            let stage_op = self.register_op(
                b,
                OpPayload::BackupStage {
                    master: node_id,
                    segment: u64::MAX - node_id as u64, // recovery staging area
                    bytes: bytes.clone(),
                    nominal,
                    entries,
                    reply_to: Some(op),
                    recovery: true,
                },
            );
            let bytes = nominal + 64;
            sched.schedule_at(send_at, move |cl: &mut Cluster, s| {
                let arrival = cl.net.transfer(s.now(), node_id, b, bytes);
                s.schedule_at(arrival, move |cl: &mut Cluster, s| {
                    cl.op_arrive(stage_op, s)
                });
            });
        }
        self.nodes[node_id].cpu.add_span(now, send_at, 1.0);
    }

    fn replay_chunk_complete(&mut self, owner: usize, sched: Sched) {
        self.replay_active[owner] = self.replay_active[owner].saturating_sub(1);
        if let Some(rec) = self.coord.recovery.as_mut() {
            rec.outstanding_chunks = rec.outstanding_chunks.saturating_sub(1);
        }
        self.pump_replay(owner, sched);
        self.maybe_finish_recovery(sched);
    }

    fn maybe_finish_recovery(&mut self, sched: Sched) {
        let done = match self.coord.recovery.as_ref() {
            Some(rec) => {
                rec.outstanding_chunks == 0
                    && self.pending_segment_reads == 0
                    && self.replay_queues.iter().all(|q| q.is_empty())
            }
            None => false,
        };
        if done {
            self.finish_recovery(sched);
        }
    }

    fn finish_recovery(&mut self, sched: Sched) {
        let now = sched.now();
        let Some(rec) = self.coord.recovery.take() else {
            return;
        };
        self.coord.reassign(&rec.new_owners);
        self.coord
            .completed_recoveries
            .push((rec.crashed, rec.detected_at, now));
        self.recovery_finished_at = Some(now);
        // Old replicas of the crashed master are garbage now.
        let crashed = rec.crashed;
        for n in 0..self.nodes.len() {
            self.nodes[n].backup.drop_master(crashed);
        }
        // Re-seed durable replica metadata for the segments the recovery
        // masters created while replaying. Their *contents* were already
        // re-replicated (chunk staging, modelled with full cost); this
        // records them as proper per-segment replicas so a subsequent crash
        // of a recovery master is itself recoverable.
        self.reseed_replicas(sched.now());
        // Keep final counters for the report.
        self.final_recovery = Some(rec);
        // Unblock waiting clients.
        let blocked = std::mem::take(&mut self.blocked);
        for b in blocked {
            self.send_client_request(
                b.client,
                b.kind,
                b.key_index,
                Some(b.original_sent_at),
                b.seq,
                sched,
            );
        }
    }

    /// Registers replicas for any master segments that lack metadata
    /// (created during replay). Bytes are copied directly — the transfer
    /// cost was already charged by the chunk re-replication path.
    fn reseed_replicas(&mut self, _now: SimTime) {
        if self.cfg.replication == 0 {
            return;
        }
        let nominal_entry = self.nominal_entry();
        for master in 0..self.cfg.servers {
            if !self.nodes[master].alive {
                continue;
            }
            let head = self.nodes[master].store.log().head();
            let missing: Vec<rmc_logstore::SegmentId> = self.nodes[master]
                .store
                .log()
                .segment_ids()
                .into_iter()
                .filter(|sid| !self.nodes[master].segments.contains_key(&sid.0))
                .collect();
            for sid in missing {
                let (bytes, entries) = {
                    let seg = self.nodes[master].store.log().segment(sid).expect("listed");
                    (seg.as_bytes().to_vec(), seg.iter().count() as u64)
                };
                let backups = self.choose_backups(master);
                let sealed = sid != head;
                let nominal = entries * nominal_entry;
                for &b in &backups {
                    if sealed {
                        self.nodes[b]
                            .backup
                            .flushed
                            .insert((master, sid.0), bytes.clone());
                    } else {
                        self.nodes[b].backup.stage(master, sid.0, &bytes, nominal);
                    }
                }
                self.nodes[master].segments.insert(
                    sid.0,
                    SegMeta {
                        backups,
                        sealed,
                        nominal_bytes: nominal,
                        entries,
                    },
                );
            }
            // Replay may also have appended into a pre-existing open head
            // whose per-entry replication was routed to the recovery staging
            // area; refresh that head's replica bytes so they match.
            if let Some(meta) = self.nodes[master].segments.get(&head.0).cloned() {
                if !meta.sealed {
                    let (bytes, entries) = {
                        let seg = self.nodes[master]
                            .store
                            .log()
                            .segment(head)
                            .expect("head exists");
                        (seg.as_bytes().to_vec(), seg.iter().count() as u64)
                    };
                    let nominal = entries * nominal_entry;
                    for &b in &meta.backups {
                        if !self.nodes[b].alive {
                            continue;
                        }
                        self.nodes[b]
                            .backup
                            .staged
                            .insert((master, head.0), bytes.clone());
                    }
                    if let Some(m) = self.nodes[master].segments.get_mut(&head.0) {
                        m.entries = entries;
                        m.nominal_bytes = nominal;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The run driver
    // ------------------------------------------------------------------

    /// Runs the configured experiment to completion and reports results.
    ///
    /// Deterministic per seed. `min_duration` extends idle runs (crash
    /// scenarios sample power before and after activity).
    pub fn run_with_min_duration(mut self, min_duration: SimDuration) -> RunReport {
        self.preload();
        let kill = self.kill_plan;
        let mut sim = Simulation::new(self);
        let rt = sim.scheduler_mut();
        rt.schedule_at(SimTime::ZERO, move |cl: &mut Cluster, s| {
            for c in 0..cl.clients.len() {
                cl.client_issue(c, s);
            }
        });
        if let Some((at, victim)) = kill {
            rt.schedule_at(at, move |cl: &mut Cluster, s| cl.kill_server(victim, s));
        }
        let sim_end = sim.run();
        let cluster = sim.into_state();
        // Measure to the end of *useful* activity: the last client
        // completion or recovery finish. Housekeeping events (trailing
        // disk flushes) must not pad the energy window.
        let end_activity = cluster
            .last_completion
            .max(cluster.recovery_finished_at.unwrap_or(SimTime::ZERO));
        let end_activity = if end_activity == SimTime::ZERO {
            sim_end
        } else {
            end_activity
        };
        let end = end_activity.max(SimTime::ZERO + min_duration);
        cluster.build_report(end)
    }

    /// Runs with no minimum duration.
    pub fn run(self) -> RunReport {
        self.run_with_min_duration(SimDuration::ZERO)
    }

    fn build_report(self, end: SimTime) -> RunReport {
        let cfg = &self.cfg;
        let duration_secs = end.as_secs_f64().max(1e-9);
        let secs = duration_secs.ceil() as usize;

        // Offline PDU sampling at 1 Hz from the recorded activity bins.
        let mut pdu = PduSampler::new(cfg.servers, PDU_TAU_SECS);
        let power = PowerProfile::grid5000_nancy();
        let mut cpu_timeline = Vec::with_capacity(secs);
        let mut power_timeline = Vec::with_capacity(secs);
        for sec in 0..secs {
            let t = SimTime::from_secs(sec as u64 + 1);
            let coverage = (duration_secs - sec as f64).clamp(0.0, 1.0).max(1e-9);
            let mut cpu_sum = 0.0;
            let mut watt_sum = 0.0;
            let mut live = 0usize;
            for (i, node) in self.nodes.iter().enumerate() {
                let cpu = node.cpu_fraction(sec, coverage);
                let activity = NodeActivity {
                    cpu,
                    disk: (node.disk.busy_fraction(sec) / coverage).min(1.0),
                    mem_write_gbps: node.mem_write.gbps(sec) / coverage,
                    nic_gbps: self.net.traffic_gbps(i, sec) / coverage,
                };
                let watts = power.power(activity);
                pdu.sample(i, t, watts);
                let dead = node
                    .killed_at
                    .map(|k| (k.as_secs_f64() as usize) < sec + 1)
                    .unwrap_or(false);
                if !dead {
                    cpu_sum += cpu;
                    watt_sum += watts;
                    live += 1;
                }
            }
            if live > 0 {
                cpu_timeline.push((sec as f64, cpu_sum / live as f64));
                power_timeline.push((sec as f64, watt_sum / live as f64));
            }
        }

        let mut merged = ClientStats::new();
        let mut per_client_timelines = Vec::with_capacity(self.clients.len());
        for c in &self.clients {
            merged.merge(&c.stats);
            per_client_timelines.push(c.stats.latency_timeline());
        }

        // Per-node run-average CPU from busy totals (bin-independent, so
        // short runs are not diluted by a partial final bin).
        let mut per_node_cpu = Vec::with_capacity(cfg.servers);
        for node in &self.nodes {
            let alive_secs = node
                .killed_at
                .map(|k| k.as_secs_f64().min(duration_secs))
                .unwrap_or(duration_secs);
            let dispatch = alive_secs / duration_secs;
            let workers =
                (node.cpu.total_busy_seconds() / duration_secs).min(calib::WORKER_THREADS as f64);
            per_node_cpu.push(((dispatch + workers) / calib::CORES as f64).min(1.0));
        }

        // Aggregate disk traces across nodes (Fig 12).
        let mut disk_timeline: Vec<(f64, f64, f64)> = Vec::new();
        for node in self.nodes {
            for (t, r, w) in node.disk.into_trace(end) {
                let idx = t as usize;
                if disk_timeline.len() <= idx {
                    disk_timeline.resize(idx + 1, (0.0, 0.0, 0.0));
                }
                disk_timeline[idx].0 = t;
                disk_timeline[idx].1 += r / 1e6; // MB/s
                disk_timeline[idx].2 += w / 1e6;
            }
        }

        let recovery = self.final_recovery.map(|rec| {
            let killed = self.killed_at.unwrap_or(SimTime::ZERO);
            let finished = self.recovery_finished_at.unwrap_or(end);
            RecoveryReport {
                crashed_server: rec.crashed,
                killed_at_secs: killed.as_secs_f64(),
                detected_at_secs: rec.detected_at.as_secs_f64(),
                finished_at_secs: finished.as_secs_f64(),
                duration_secs: finished.as_secs_f64() - rec.detected_at.as_secs_f64(),
                replayed_entries: rec.replayed_entries,
                replayed_gb: rec.replayed_nominal_bytes as f64 / 1e9,
            }
        });

        let completed = self.completed_ops;
        let throughput = if merged.completed > 0 {
            let span = merged
                .last_completion
                .unwrap_or(end)
                .as_secs_f64()
                .max(1e-9);
            completed as f64 / span
        } else {
            0.0
        };
        let energy = pdu.report(completed);
        let ops_per_joule = energy.ops_per_joule();
        let crashed = completed > 0 && self.timeout_ops as f64 > completed as f64 * 0.01;

        RunReport {
            duration_secs,
            completed_ops: completed,
            throughput_ops: throughput,
            mean_latency_us: merged.mean_latency_us(),
            per_client_latency_timelines: per_client_timelines,
            client_stats: merged,
            energy,
            per_node_cpu,
            cpu_timeline,
            power_timeline,
            disk_timeline,
            recovery,
            timeout_ops: self.timeout_ops,
            crashed,
            ops_per_joule,
        }
    }
}
