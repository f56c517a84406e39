//! The cost layer: the paper's cluster as [`crate::protocol`] running on
//! [`crate::proto_sim`], every delivery charged the machine time it would
//! take on the paper's testbed.
//!
//! The protocol's `Server`, `CoordinatorNode` and `ClientCore` handlers run
//! unchanged; this module only decides *when*. Where the fixed-latency
//! engine delivers a message after a constant delay, here:
//!
//! - a send leaves through an Infiniband-20G [`Network`], charged at the
//!   message's *nominal* size (the workload's value bytes, not the 16-byte
//!   digest the store holds);
//! - a delivery to a server waits for its polling dispatch thread, then one
//!   of its spin-then-sleep workers ([`ServerNode`], fitted by
//!   [`crate::calib`]); replication is staged on the dispatch thread;
//! - the handler runs when its service ends, and a write keeps its worker
//!   until its `Response` leaves, its `Replicate`s `REPL_SEND_US` apart;
//! - a backup writes each sealed replica to its [`DiskModel`] and reads the
//!   sealed ones back to answer a recovery's `FetchSegments`;
//! - busy time, memory writes, NIC and disk activity feed a 1 Hz
//!   [`PduSampler`] through the Grid'5000 power profile.
//!
//! Clients are closed-loop YCSB clients ([`YcsbClient`]) over the
//! protocol's `ClientCore`. [`run`] is the one entry point. This module
//! holds the machine model only: each node's timer, the kill (the plan's
//! one crash, which settles [`Costs::kill`]) and the run loop are
//! [`crate::proto_sim`]'s, the same as for every plan run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rmc_chaos::{Crash, FaultPlan, OpRecord};
use rmc_disk::{DiskModel, IoKind};
use rmc_diskstore::{BackupStorage, MemStorage};
use rmc_energy::{NodeActivity, PduSampler, PowerProfile};
use rmc_logstore::{LogConfig, LogEntry};
use rmc_net::{NetProfile, Network};
use rmc_obs::span::SpanKind;
use rmc_runtime::{NodeId, RateMeter, Runtime, SimDuration, SimRng, SimTime};
use rmc_sim::Scheduler;
use rmc_ycsb::{ClientStats, OpKind, RequestGenerator, Throttle};

use crate::calib;
use crate::config::{ClientAffinity, ClusterConfig};
use crate::node::ServerNode;
use crate::proto_sim::{self, SimNet};
use crate::protocol::{
    bucket_for, is_image, replica_targets, server_id, AnyNode, ClientCore, ClientOp,
    CoordinatorNode, Msg, ProtocolConfig, Reply, Server, ServerCounters, PROTO_TABLE,
};
use crate::report::{RecoveryReport, RunReport};

type Sched = Scheduler<SimNet>;

/// What one handler sent: `(to, msg, extra delay)`.
type Outs = [(NodeId, Msg, SimDuration)];

/// Time constant of the PDU meters' lag, seconds (real PDUs report a
/// lagging average; `rmc_energy::PduSampler`).
const PDU_TAU_SECS: f64 = 3.0;

/// The protocol configuration of a paper run: the paper's 1 024 tablets, its
/// failure-detection delay and RPC timeout, and a log sized so a stored
/// segment seals after as many entries as a nominal 8 MB one.
pub fn protocol_config(cfg: &ClusterConfig) -> ProtocolConfig {
    let mut p = ProtocolConfig::new(cfg.servers, cfg.clients, cfg.replication as usize);
    p.buckets = ClusterConfig::HASH_BUCKETS;
    p.failure_timeout = SimDuration::from_micros_f64(calib::DETECTION_DELAY_MS * 1e3);
    p.retry_timeout = SimDuration::from_micros_f64(calib::RPC_TIMEOUT_MS * 1e3);
    p.log = LogConfig {
        segment_bytes: cfg.stored_segment_bytes(),
        max_segments: cfg.max_segments(),
        ordered_index: false,
    };
    p
}

/// A finished run: its report, and the cluster as the run left it.
#[derive(Debug)]
pub struct Run {
    /// What the paper's artefacts read.
    pub report: RunReport,
    /// The protocol cluster after the run (survivors' stores, histories).
    pub net: SimNet,
}

/// Runs `cfg` to completion: pre-loads the records (untimed, as YCSB's load
/// phase), kills server `kill.1` at `kill.0`, and samples for at least
/// `min`. With `histories` each client keeps the [`OpRecord`] of every op
/// for `rmc_chaos::check_histories`. Deterministic per `cfg.seed`.
pub fn run(
    cfg: &ClusterConfig,
    kill: Option<(SimTime, usize)>,
    min: SimDuration,
    histories: bool,
) -> Run {
    // The kill is the plan's one crash, on a network without faults. The
    // run loop looks between events, so a look at the kill's own instant
    // comes before it: the plan quiesces just after.
    let mut plan = FaultPlan::quiet();
    if let Some((at, server)) = kill {
        plan.crashes.push(Crash {
            at,
            server,
            restart_after: None,
        });
        plan.quiesce_at = at + SimDuration::from_nanos(1);
    }
    let sim = proto_sim::run(build(cfg, histories), &plan, SimTime::from_secs(10_000));
    let sim_end = sim.now();
    let mut net = sim.into_state();
    let report = report(cfg, &mut net, kill, min, sim_end);
    Run { report, net }
}

fn costs(net: &mut SimNet) -> &mut Costs {
    net.cost.as_deref_mut().expect("a costed run")
}

/// Builds the pre-loaded cluster: every record in its owner's store, every
/// log segment staged on the owner's `R` ring backups (sealed ones as on
/// disk already), and one YCSB client per client machine.
fn build(cfg: &ClusterConfig, histories: bool) -> SimNet {
    cfg.validate();
    let pcfg = protocol_config(cfg);
    let mut servers: Vec<Server> = (0..cfg.servers)
        .map(|i| Server::new(i, pcfg.clone()))
        .collect();
    let coordinator = CoordinatorNode::new(pcfg.clone());
    let mut keys_by_owner = vec![Vec::new(); cfg.servers];
    for i in 0..cfg.workload.record_count {
        let key = cfg.workload.key_for(i);
        let owner = coordinator.owners()[bucket_for(PROTO_TABLE, &key, pcfg.buckets)];
        keys_by_owner[owner].push(i);
        (servers[owner].store)
            .write(PROTO_TABLE, &key, &stored_value(cfg, i, 0))
            .expect("preload must fit in the memory budget");
    }
    let mut storage: Vec<MemStorage> = (0..cfg.servers).map(|_| MemStorage::new()).collect();
    for (master, server) in servers.iter().enumerate() {
        let log = server.store.log();
        let alive = vec![true; cfg.servers];
        for b in replica_targets(master, cfg.servers, pcfg.replication, &alive) {
            for id in log.segment_ids() {
                let segment = log.segment(id).expect("listed");
                (storage[b].append(master, id.0, segment.as_bytes()))
                    .expect("memory staging cannot fail");
            }
        }
    }
    for (server, storage) in servers.iter_mut().zip(storage) {
        server.set_storage(Box::new(storage));
    }
    let (keys_by_owner, shared) = (Arc::new(keys_by_owner), Arc::new(cfg.clone()));
    let mut nodes = vec![AnyNode::Coordinator(coordinator)];
    nodes.extend(servers.into_iter().map(AnyNode::Server));
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let streams: Vec<u64> = (0..cfg.clients).map(|_| rng.next_u64()).collect();
    let affinity = |c: usize| cfg.client_affinity.as_ref().and_then(|a| a.get(c).copied());
    for (c, stream) in streams.into_iter().enumerate() {
        nodes.push(AnyNode::Ycsb(YcsbClient {
            core: ClientCore::new(c, pcfg.clone()),
            gen: RequestGenerator::new(cfg.workload.clone(), stream),
            throttle: cfg.throttle_rate.map(Throttle::new),
            affinity: affinity(c).unwrap_or(ClientAffinity::Any),
            keys_by_owner: Arc::clone(&keys_by_owner),
            rng: SimRng::seed_from_u64(rng.next_u64()),
            cfg: Arc::clone(&shared),
            stats: ClientStats::new(),
            sent_at: SimTime::ZERO,
            write: false,
            timeouts: 0,
            done: false,
            history: histories.then(Vec::new),
        }));
    }
    let mut net = SimNet::new(&pcfg, nodes, SimDuration::ZERO);
    net.cost = Some(Box::new(Costs::new(cfg)));
    net
}

/// The stored digest of record `index`'s value (the nominal value's bytes
/// are charged, never materialized), varied by `salt` per overwrite.
fn stored_value(cfg: &ClusterConfig, index: u64, salt: u64) -> Vec<u8> {
    let tag = (index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).to_le_bytes();
    (0..cfg.stored_value_bytes()).map(|i| tag[i % 8]).collect()
}

/// One client machine running one closed-loop YCSB client over the
/// protocol's [`ClientCore`]: the next request leaves a client-side overhead
/// (YCSB's Java path) after the previous reply, no earlier than its throttle
/// allows, and its latency is measured from that departure.
#[derive(Debug)]
pub struct YcsbClient {
    pub(crate) core: ClientCore,
    gen: RequestGenerator,
    throttle: Option<Throttle>,
    affinity: ClientAffinity,
    keys_by_owner: Arc<Vec<Vec<u64>>>,
    rng: SimRng,
    cfg: Arc<ClusterConfig>,
    /// Completions and latencies.
    pub stats: ClientStats,
    /// When the op in flight leaves (the cost layer holds its request).
    sent_at: SimTime,
    write: bool,
    /// Ops whose latency exceeded the RPC timeout.
    pub timeouts: u64,
    /// True once the client's quota is issued and answered.
    pub done: bool,
    history: Option<Vec<OpRecord>>,
}

impl YcsbClient {
    /// Issues the first request (called once by the engine).
    pub fn on_start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.issue(rt);
    }

    /// Feeds the core; a completed op is measured and the next one issued.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, msg: Msg, rt: &mut R) {
        let Some(reply) = self.core.on_message(msg, rt) else {
            return;
        };
        let latency = rt.now().saturating_since(self.sent_at);
        self.stats.record(rt.now(), latency, self.write);
        if latency.as_secs_f64() * 1e3 > calib::RPC_TIMEOUT_MS {
            self.timeouts += 1;
        }
        if let Some(h) = self.history.as_mut() {
            h.push(self.core.record(Some(&reply)));
        }
        self.issue(rt);
    }

    /// The acked ops (when the run keeps histories) plus a trailing unacked
    /// record for an op still in flight.
    pub fn full_history(&self) -> Vec<OpRecord> {
        let mut h = self.history.clone().unwrap_or_default();
        h.extend(self.core.waiting().then(|| self.core.record(None)));
        h
    }

    fn issue<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let Some(req) = self.gen.next_request() else {
            self.done = true;
            return;
        };
        let index = self.pick(req.key_index);
        let key = self.cfg.workload.key_for(index);
        self.write = req.kind == OpKind::Update;
        let (op, overhead_us) = if self.write {
            let salt = (self.core.index() as u64) << 40 ^ (self.core.seq() + 1);
            let value = stored_value(&self.cfg, index, salt);
            (
                ClientOp::Put { key, value },
                calib::CLIENT_WRITE_OVERHEAD_US,
            )
        } else {
            (ClientOp::Get { key }, calib::CLIENT_READ_OVERHEAD_US)
        };
        self.sent_at = rt.now() + SimDuration::from_micros_f64(overhead_us);
        if let Some(t) = self.throttle.as_mut() {
            self.sent_at = t.reserve(self.sent_at);
        }
        self.core.begin(op, rt);
    }

    /// Applies the client's affinity (Fig 10): remaps the sampled record
    /// into, or away from, one server's initial data.
    fn pick(&mut self, index: u64) -> u64 {
        let (target, inside) = match self.affinity {
            ClientAffinity::Any => return index,
            ClientAffinity::On(s) => (s, true),
            ClientAffinity::NotOn(s) => (s, false),
        };
        let pools = self.keys_by_owner.iter().enumerate();
        let mut pools = pools.filter(|&(s, _)| (s == target) == inside);
        let total: u64 = pools.clone().map(|(_, p)| p.len() as u64).sum();
        if total == 0 {
            return index;
        }
        let mut pick = self.rng.gen_below(total);
        let mut find = |(_, p): (usize, &Vec<u64>)| {
            let got = p.get(pick as usize).copied();
            pick -= if got.is_none() { p.len() as u64 } else { 0 };
            got
        };
        pools.find_map(&mut find).unwrap_or(index)
    }
}

// ---------------------------------------------------------------------
// The machine model
// ---------------------------------------------------------------------

/// What a delivery to a server costs before its handler runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Dispatch, then a worker for `READ_SERVICE_US`.
    Read,
    /// Dispatch, then a worker for the write path and the log-head append;
    /// the worker is held until the op's response leaves.
    Write,
    /// Dispatch only.
    Dispatch,
    /// Staging `entries` on the dispatch thread.
    Stage(u64),
}

/// One message on its way: sender, receiver (at the incarnation it was
/// sent to) and payload.
#[derive(Debug)]
struct Hop {
    from: NodeId,
    to: NodeId,
    inc: u64,
    msg: Msg,
}

/// A delivery to a server, from its arrival to its handler.
#[derive(Debug)]
pub(crate) struct Waiting {
    ready_at: SimTime,
    hop: Hop,
    work: Work,
    /// The worker serving it, once one is.
    worker: Option<usize>,
}

/// The server delivery whose handler is running: `(node, work, worker)`.
type Serving = Option<(NodeId, Work, Option<usize>)>;

/// The cost model's state: one [`ServerNode`] per server, the network and
/// the held write workers.
#[derive(Debug)]
pub(crate) struct Costs {
    nominal_entry: u64,
    /// Nominal bytes per stored byte of a log entry.
    inflate: f64,
    key_bytes: u64,
    value_bytes: u64,
    nodes: Vec<ServerNode>,
    /// Nominal bytes written to memory (appends, staging, replay) per node.
    mem_write: Vec<RateMeter>,
    profile: NetProfile,
    net: Network,
    /// `(server, (client, seq))` → `(worker, since)`: a write's worker,
    /// held from its handler until its response leaves.
    held: BTreeMap<(usize, (u64, u64)), (usize, SimTime)>,
    /// Per server: its counters as last seen.
    seen: Vec<ServerCounters>,
    serving: Serving,
    /// Messages between their send and their handler, heartbeats aside.
    in_flight: usize,
    /// `(holder, recovery master, crashed)` of each `SegmentData` on its
    /// way.
    answering: BTreeSet<(usize, usize, usize)>,
    /// Per node: when its NIC is done with the replica images it sends.
    bulk_free: Vec<SimTime>,
    killed: bool,
    detected_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    replayed_entries: u64,
}

/// Cluster-management traffic: a real NIC interleaves its few dozen bytes
/// with bulk transfers, so it never queues behind a replica image (where a
/// heartbeat would miss the failure detector's deadline).
fn control(msg: &Msg) -> bool {
    use Msg::*;
    matches!(
        msg,
        Heartbeat { .. } | MapRequest | MapUpdate { .. } | TakeOver { .. } | FetchSegments { .. }
    ) || matches!(msg, TakeOverDone { .. } | StatsRequest | StatsReply { .. })
}

/// Heartbeats never stop, so a run that waits for quiet ignores them.
fn counted(msg: &Msg) -> bool {
    !matches!(msg, Msg::Heartbeat { .. })
}

/// The log entries in a replica buffer.
fn all_entries(bytes: &[u8]) -> u64 {
    let (mut off, mut n) = (0, 0);
    while let Ok((_, len)) = LogEntry::parse(&bytes[off..]) {
        (off, n) = (off + len, n + 1);
    }
    n
}

impl Costs {
    fn new(cfg: &ClusterConfig) -> Self {
        let total = 1 + cfg.servers + cfg.clients;
        let second = SimDuration::from_secs(1);
        Costs {
            nominal_entry: cfg.nominal_entry_bytes() as u64,
            inflate: cfg.segment_bytes as f64 / cfg.stored_segment_bytes() as f64,
            key_bytes: cfg.key_bytes() as u64,
            value_bytes: cfg.workload.value_bytes as u64,
            nodes: (0..cfg.servers)
                .map(|_| ServerNode::new(DiskModel::new(cfg.disk.clone())))
                .collect(),
            mem_write: vec![RateMeter::new(second); cfg.servers],
            // The paper ran RAMCloud over Infiniband only.
            profile: NetProfile::infiniband_20g(),
            net: Network::new(total, NetProfile::infiniband_20g()),
            held: BTreeMap::new(),
            seen: vec![ServerCounters::default(); cfg.servers],
            serving: None,
            in_flight: 0,
            answering: BTreeSet::new(),
            bulk_free: vec![SimTime::ZERO; total],
            killed: false,
            detected_at: None,
            finished_at: None,
            replayed_entries: 0,
        }
    }

    /// The server index of `node`, if it is a server.
    fn server(&self, node: NodeId) -> Option<usize> {
        (1..=self.nodes.len()).contains(&node.0).then(|| node.0 - 1)
    }

    /// Is the run quiet: nothing but heartbeats in flight, and a kill, if
    /// there was one, recovered?
    pub(crate) fn quiet(&self) -> bool {
        self.in_flight == 0 && (!self.killed || self.finished_at.is_some())
    }

    /// Settles a crashed server: its queued deliveries and held writes die
    /// with it.
    pub(crate) fn kill(&mut self, victim: usize, now: SimTime) {
        self.killed = true;
        let node = &mut self.nodes[victim];
        node.killed_at = Some(now);
        for w in std::mem::take(&mut node.pending) {
            self.settle(&w.hop);
        }
        self.held.retain(|&(s, _), _| s != victim);
    }

    /// A message is handled, or dropped at a dead node.
    fn settle(&mut self, hop: &Hop) {
        self.in_flight -= usize::from(counted(&hop.msg));
        if let Msg::SegmentData { crashed, .. } = hop.msg {
            self.answering.remove(&(hop.from.0, hop.to.0, crashed));
        }
    }

    /// Nominal wire size of `msg`, bytes: a `Replicate`'s scales with the
    /// entries it carries (one for an update's, a segment's for an image).
    fn wire_bytes(&self, msg: &Msg) -> u64 {
        match msg {
            Msg::Request { op, .. } => match op {
                ClientOp::Put { .. } => self.nominal_entry + 64,
                _ => self.key_bytes + 64,
            },
            Msg::Response { reply, .. } => match reply {
                Reply::Value(Some(_)) => self.value_bytes + 40,
                _ => 48,
            },
            Msg::Replicate { bytes, .. } => all_entries(bytes) * self.nominal_entry + 40,
            Msg::ReplicateAck { .. } => 32,
            _ => 64,
        }
    }

    /// What a delivery of `msg` to `server` costs; `None` when it is handled
    /// on arrival.
    fn work(from: NodeId, msg: &Msg) -> Option<Work> {
        Some(match msg {
            Msg::Request { op, .. } => match op {
                ClientOp::Get { .. } => Work::Read,
                _ => Work::Write,
            },
            Msg::Replicate { bytes, .. } => {
                from.0.checked_sub(1)?;
                Work::Stage(all_entries(bytes))
            }
            // The worker holding the write polls for its acks.
            Msg::ReplicateAck { .. } => return None,
            _ => Work::Dispatch,
        })
    }

    /// Gives `w` a worker — the hottest idle one, else the earliest free —
    /// and schedules its handler at the end of its service; queues it when
    /// every worker is held by a write.
    fn assign(&mut self, server: usize, mut w: Waiting, rt: &mut Sched) {
        let node = &mut self.nodes[server];
        let Some(worker) = node.pick_worker(w.ready_at) else {
            node.pending.push_back(w);
            return;
        };
        let idle_since = node.workers[worker];
        let start = w.ready_at.max(idle_since);
        node.in_service += 1;
        let us = SimDuration::from_micros_f64;
        let done = match w.work {
            Work::Write => {
                let svc = us(calib::WRITE_SERVICE_US).mul_f64(node.write_inflation());
                node.lock_free = (start + svc).max(node.lock_free) + us(calib::WRITE_LOCK_US);
                node.lock_free
            }
            _ => start + us(calib::READ_SERVICE_US).mul_f64(node.read_inflation()),
        };
        node.account_worker_busy(idle_since, start, done);
        node.workers[worker] = done;
        w.worker = Some(worker);
        rt.schedule_at(done, |net, rt| serve(net, rt, w));
    }

    /// Frees a held worker at `now`, then hands queued deliveries to the
    /// workers that are not held.
    fn release(&mut self, server: usize, worker: usize, now: SimTime, rt: &mut Sched) {
        let node = &mut self.nodes[server];
        if node.workers[worker] == SimTime::MAX {
            node.workers[worker] = now;
        }
        while self.nodes[server].pick_worker(now).is_some() {
            let Some(mut w) = self.nodes[server].pending.pop_front() else {
                break;
            };
            w.ready_at = w.ready_at.max(now);
            self.assign(server, w, rt);
        }
    }

    /// A held write is answered: its worker's wait was busy polling.
    fn release_write(
        &mut self,
        server: usize,
        (worker, since): (usize, SimTime),
        now: SimTime,
        rt: &mut Sched,
    ) {
        let node = &mut self.nodes[server];
        node.cpu.add_span(since, now, 1.0);
        node.adjust_writers(now, -1);
        self.release(server, worker, now, rt);
    }

    /// A backup stages `msg` from `master`: memory is written now, and its
    /// disk takes what the staging seals — the open segment (the master's
    /// highest) that an append to a later one closes, or the append itself
    /// when it is to a segment below the open one (an image of a sealed
    /// segment, a late retry).
    fn stage(&mut self, backup: usize, held: &dyn BackupStorage, hop: &Hop, now: SimTime) {
        let Msg::Replicate { segment, bytes, .. } = &hop.msg else {
            return;
        };
        let master = hop.from.0 - 1;
        let nominal = (bytes.len() as f64 * self.inflate) as u64;
        self.mem_write[backup].add(now, nominal as f64);
        let sealed = match held.last_slot(master) {
            Some((open, len)) if open < *segment => Some((len as f64 * self.inflate) as u64),
            Some((open, _)) if *segment < open => Some(nominal),
            _ => None,
        };
        if let Some(size) = sealed {
            self.nodes[backup].disk.submit(now, IoKind::Write, size);
        }
    }

    /// The disk reads a backup does to answer `FetchSegments`: its sealed
    /// replicas come off its disk, the open one out of DRAM. Returns each
    /// segment's `(ready, nominal bytes)`, so the reply ships segment by
    /// segment as the reads complete.
    fn read_replicas(
        &mut self,
        backup: usize,
        segments: &[(u64, Vec<u8>)],
        now: SimTime,
    ) -> VecDeque<(SimTime, u64)> {
        let mut plan = VecDeque::with_capacity(segments.len());
        let open = segments.iter().map(|s| s.0).max();
        for (segment, bytes) in segments {
            let size = all_entries(bytes) * self.nominal_entry;
            let ready = match Some(*segment) == open {
                true => now + SimDuration::from_micros(50),
                false => self.nodes[backup].disk.submit(now, IoKind::Read, size),
            };
            plan.push_back((ready, size));
        }
        match plan.front_mut() {
            Some(first) => first.1 += 64,
            None => plan.push_back((now, 64)),
        }
        plan
    }

    /// After a handler on `server`: frees the workers of the writes it
    /// answered (or shed), settles the worker that served it, and times its
    /// sends — a write's `Replicate`s `REPL_SEND_US` apart while its worker
    /// waits for the acks.
    fn after_server(
        &mut self,
        server: usize,
        s: &Server,
        outs: &Outs,
        leave: &mut [SimTime],
        now: SimTime,
        rt: &mut Sched,
    ) {
        for (to, msg, _) in outs {
            if let Msg::Response { seq, .. } = msg {
                if let Some(h) = self.held.remove(&(server, (to.0 as u64, *seq))) {
                    self.release_write(server, h, now, rt);
                }
            }
        }
        let seen = std::mem::replace(&mut self.seen[server], s.counters);
        if s.counters.pending_dropped > seen.pending_dropped {
            // A shed write is never answered: free its worker.
            let shed: Vec<_> = self
                .held
                .keys()
                .filter(|k| k.0 == server)
                .copied()
                .collect();
            for k in shed {
                let h = self.held.remove(&k).expect("listed");
                self.release_write(server, h, now, rt);
            }
        }
        match self.serving.take() {
            Some((_, Work::Write, Some(worker))) => {
                self.mem_write[server].add(now, self.nominal_entry as f64);
                let answered = outs
                    .iter()
                    .any(|(_, m, _)| matches!(m, Msg::Response { .. }));
                let token = outs.iter().find_map(|(_, m, _)| match m {
                    Msg::Replicate { token, .. } => Some(*token),
                    _ => None,
                });
                // A retry of a write still waiting for its acks re-sends its
                // replicas: the first delivery's worker minds them, and this
                // one is free at once.
                let token = token.filter(|t| !answered && !self.held.contains_key(&(server, *t)));
                let node = &mut self.nodes[server];
                let Some(token) = token else {
                    node.adjust_writers(now, -1);
                    return self.release(server, worker, now, rt);
                };
                let send =
                    SimDuration::from_micros_f64(calib::REPL_SEND_US * node.write_inflation());
                let mut at = now;
                for (i, (_, m, _)) in outs.iter().enumerate() {
                    if matches!(m, Msg::Replicate { token: t, .. } if *t == token) {
                        at += send;
                        leave[i] = at;
                    }
                }
                node.cpu.add_span(now, at, 1.0);
                node.workers[worker] = SimTime::MAX;
                self.held.insert((server, token), (worker, now));
            }
            Some((_, _, Some(worker))) => self.release(server, worker, now, rt),
            _ => {}
        }
        if s.counters.replays > seen.replays {
            // The takeover's one handler replayed what it now images: that
            // replay holds the log head and a core, and what the handler
            // sent leaves when it ends.
            let mut segments = BTreeSet::new();
            let replayed: u64 = (outs.iter())
                .filter_map(|(_, m, _)| match m {
                    Msg::Replicate { segment, bytes, .. } => {
                        segments.insert(*segment).then(|| all_entries(bytes))
                    }
                    _ => None,
                })
                .sum();
            self.replayed_entries += replayed;
            self.mem_write[server].add(now, (replayed * self.nominal_entry) as f64);
            let node = &mut self.nodes[server];
            let start = now.max(node.lock_free);
            node.lock_free =
                start + SimDuration::from_micros_f64(calib::REPLAY_ENTRY_US * replayed as f64);
            node.cpu.add_span(start, node.lock_free, 1.0);
            leave.fill(node.lock_free);
        }
    }
}

/// A message reaches its receiver's NIC: a server charges it to its dispatch
/// thread and workers; clients and the coordinator handle it on arrival.
fn arrive(net: &mut SimNet, rt: &mut Sched, hop: Hop) {
    let now = rt.now();
    let SimNet { cost, nodes, .. } = net;
    let c = cost.as_deref_mut().expect("a costed run");
    let Some(server) = c.server(hop.to) else {
        return handle(net, rt, hop, None);
    };
    if nodes[hop.to.0].is_none() {
        return c.settle(&hop); // dead: the NIC drops it
    }
    if let Msg::FetchSegments { crashed } = hop.msg {
        if c.answering.contains(&(hop.to.0, hop.from.0, crashed)) {
            // A re-sent round repeats a request whose answer is still on its
            // way: the holder's transport drops it, as it would a retried
            // RPC still in progress.
            return c.settle(&hop);
        }
    }
    let Some(work) = Costs::work(hop.from, &hop.msg) else {
        return handle(net, rt, hop, None);
    };
    let node = &mut c.nodes[server];
    let ready_at = match work {
        // Replication is staged on the dispatch thread: it contends with
        // client requests for dispatch but never waits for a worker.
        Work::Stage(entries) => {
            let busy = calib::DISPATCH_US + calib::BACKUP_WRITE_US * entries as f64;
            node.dispatch_free = now.max(node.dispatch_free) + SimDuration::from_micros_f64(busy);
            node.dispatch_free
        }
        _ => node.dispatch(now),
    };
    if work == Work::Write {
        node.adjust_writers(now, 1);
    }
    let w = Waiting {
        ready_at,
        hop,
        work,
        worker: None,
    };
    match work {
        Work::Stage(..) | Work::Dispatch => rt.schedule_at(ready_at, |net, rt| serve(net, rt, w)),
        _ => c.assign(server, w, rt),
    }
}

/// A server's service of `w` ended: run its handler.
fn serve(net: &mut SimNet, rt: &mut Sched, w: Waiting) {
    let SimNet { cost, nodes, .. } = net;
    let c = cost.as_deref_mut().expect("a costed run");
    let server = w.hop.to.0 - 1;
    if c.nodes[server].killed_at.is_some() {
        return c.settle(&w.hop);
    }
    c.nodes[server].in_service -= usize::from(w.worker.is_some());
    if let (Work::Stage(_), Some(AnyNode::Server(s))) = (w.work, &nodes[w.hop.to.0]) {
        c.stage(server, s.storage(), &w.hop, rt.now());
    }
    let serving = Some((w.hop.to, w.work, w.worker));
    handle(net, rt, w.hop, serving);
}

/// Runs a handler through the engine's own delivery path.
fn handle(net: &mut SimNet, rt: &mut Sched, hop: Hop, serving: Serving) {
    let c = costs(net);
    c.settle(&hop);
    c.serving = serving;
    proto_sim::deliver(net, rt, hop.from, hop.to, hop.inc, hop.msg);
    costs(net).serving = None;
}

/// Schedules the messages one handler sent under the cost model (the
/// engine's `dispatch` chokepoint): settles the server resources it used,
/// and sends each message through the network when it leaves.
pub(crate) fn emit(
    net: &mut SimNet,
    rt: &mut Sched,
    node: NodeId,
    outs: Vec<(NodeId, Msg, SimDuration)>,
) {
    let now = rt.now();
    let SimNet {
        cost,
        nodes,
        spans,
        incarnations,
        ..
    } = net;
    let c = cost.as_deref_mut().expect("a costed run");
    if c.serving.is_some_and(|(n, ..)| n != node) {
        c.serving = None;
    }
    let mut leave = vec![now; outs.len()];
    match &nodes[node.0] {
        Some(AnyNode::Server(s)) => c.after_server(node.0 - 1, s, &outs, &mut leave, now, rt),
        Some(AnyNode::Coordinator(co)) => {
            let pending = co.recovery_pending();
            if pending && c.killed && c.detected_at.is_none() {
                c.detected_at = Some(now);
            } else if !pending && c.detected_at.is_some() && c.finished_at.is_none() {
                c.finished_at = Some(now);
            }
        }
        // A client's request leaves after its overhead and throttle.
        Some(AnyNode::Ycsb(client)) => {
            let requests = leave.iter_mut().zip(&outs);
            for (at, _) in requests.filter(|(_, (_, m, _))| matches!(m, Msg::Request { .. })) {
                *at = client.sent_at.max(now);
            }
        }
        _ => {}
    }
    for ((to, msg, extra), at) in outs.into_iter().zip(leave) {
        msg.record_span(spans, SpanKind::Send, node, to, now);
        c.in_flight += usize::from(counted(&msg));
        let mut plan = match (&msg, c.server(node)) {
            (Msg::SegmentData { crashed, segments }, Some(b)) => {
                c.answering.insert((node.0, to.0, *crashed));
                c.read_replicas(b, segments, now)
            }
            // A node sends its replica images one at a time, so what it sends
            // meanwhile goes between them instead of behind all of them.
            (Msg::Replicate { token, .. }, _) if is_image(node, *token) => {
                let bytes = c.wire_bytes(&msg);
                let start = at.max(c.bulk_free[node.0]);
                let serialized = SimDuration::from_secs_f64(bytes as f64 / c.profile.bytes_per_sec);
                c.bulk_free[node.0] = start + c.profile.per_message_overhead + serialized;
                VecDeque::from([(start, bytes)])
            }
            _ => VecDeque::from([(at, c.wire_bytes(&msg))]),
        };
        plan.iter_mut()
            .for_each(|chunk| chunk.0 = chunk.0.saturating_add(extra));
        let inc = incarnations.get(to.0).copied().unwrap_or(0);
        send(
            c,
            rt,
            Hop {
                from: node,
                to,
                inc,
                msg,
            },
            plan,
        );
    }
}

/// Puts a message on the wire as the chunks of `plan` — `(earliest
/// departure, nominal bytes)` — each leaving once its predecessor is
/// serialized, so a large reply shares the NIC with requests instead of
/// blocking them for its whole length. The handler runs when the last chunk
/// arrives.
fn send(c: &mut Costs, rt: &mut Sched, hop: Hop, mut plan: VecDeque<(SimTime, u64)>) {
    let now = rt.now();
    let (ready, bytes) = *plan.front().expect("a message is at least one chunk");
    if ready > now {
        rt.schedule_at(ready, |net: &mut SimNet, rt| {
            send(costs(net), rt, hop, plan)
        });
        return;
    }
    plan.pop_front();
    let p = &c.profile;
    let arrival = if control(&hop.msg) {
        now + p.per_message_overhead + p.base_latency
    } else {
        c.net.transfer(now, hop.from.0, hop.to.0, bytes)
    };
    let Some(next) = plan.front_mut() else {
        rt.schedule_at(arrival, |net, rt| arrive(net, rt, hop));
        return;
    };
    let serialized = SimDuration::from_secs_f64(bytes as f64 / p.bytes_per_sec);
    next.0 = next.0.max(now + p.per_message_overhead + serialized);
    let at = next.0;
    rt.schedule_at(at, |net: &mut SimNet, rt| send(costs(net), rt, hop, plan));
}

/// Samples the run's activity at 1 Hz through the PDU model, up to the end
/// of useful activity (the last completion or the recovery's end) or `min`.
fn report(
    cfg: &ClusterConfig,
    net: &mut SimNet,
    kill: Option<(SimTime, usize)>,
    min: SimDuration,
    sim_end: SimTime,
) -> RunReport {
    let c = *net.cost.take().expect("a costed run");
    let clients: Vec<&YcsbClient> = (net.nodes.iter().flatten())
        .filter_map(|n| match n {
            AnyNode::Ycsb(c) => Some(c),
            _ => None,
        })
        .collect();
    let mut merged = ClientStats::new();
    clients
        .iter()
        .for_each(|client| merged.merge(&client.stats));
    let last = (merged.last_completion.into_iter().chain(c.finished_at)).max();
    let end = last.unwrap_or(sim_end).max(SimTime::ZERO + min);
    let duration_secs = end.as_secs_f64().max(1e-9);
    let secs = duration_secs.ceil() as usize;
    let mem_write: Vec<Vec<(f64, f64)>> = c.mem_write.into_iter().map(|m| m.finish(end)).collect();

    let mut pdu = PduSampler::new(cfg.servers, PDU_TAU_SECS);
    let power = PowerProfile::grid5000_nancy();
    let (mut cpu_timeline, mut power_timeline) = (Vec::new(), Vec::new());
    for sec in 0..secs {
        let coverage = (duration_secs - sec as f64).clamp(0.0, 1.0).max(1e-9);
        let (mut cpu_sum, mut watt_sum, mut live) = (0.0, 0.0, 0usize);
        for (i, node) in c.nodes.iter().enumerate() {
            let cpu = node.cpu_fraction(sec, coverage);
            let activity = NodeActivity {
                cpu,
                disk: (node.disk.busy_fraction(sec) / coverage).min(1.0),
                mem_write_gbps: mem_write[i].get(sec).map_or(0.0, |w| w.1) / 1e9 / coverage,
                nic_gbps: c.net.traffic_gbps(server_id(i).0, sec) / coverage,
            };
            let watts = power.power(activity);
            pdu.sample(i, SimTime::from_secs(sec as u64 + 1), watts);
            if node
                .killed_at
                .is_none_or(|k| (k.as_secs_f64() as usize) > sec)
            {
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

    // Per-node run-average CPU from busy totals (bin-independent, so short
    // runs are not diluted by a partial final bin).
    let per_node_cpu = (c.nodes.iter())
        .map(|node| {
            let alive = node
                .killed_at
                .map_or(duration_secs, |k| k.as_secs_f64().min(duration_secs));
            let workers =
                (node.cpu.total_busy_seconds() / duration_secs).min(calib::WORKER_THREADS as f64);
            ((alive / duration_secs + workers) / calib::CORES as f64).min(1.0)
        })
        .collect();

    // Aggregate disk traces across nodes (Fig 12), MB/s.
    let mut disk_timeline: Vec<(f64, f64, f64)> = Vec::new();
    for (t, r, w) in c
        .nodes
        .into_iter()
        .flat_map(|node| node.disk.into_trace(end))
    {
        let idx = t as usize;
        if disk_timeline.len() <= idx {
            disk_timeline.resize(idx + 1, (0.0, 0.0, 0.0));
        }
        let row = &mut disk_timeline[idx];
        *row = (t, row.1 + r / 1e6, row.2 + w / 1e6);
    }

    let recovery = kill
        .zip(c.detected_at)
        .map(|((killed, crashed), detected)| {
            let finished = c.finished_at.unwrap_or(end).as_secs_f64();
            RecoveryReport {
                crashed_server: crashed,
                killed_at_secs: killed.as_secs_f64(),
                detected_at_secs: detected.as_secs_f64(),
                finished_at_secs: finished,
                duration_secs: finished - detected.as_secs_f64(),
                replayed_entries: c.replayed_entries,
                replayed_gb: (c.replayed_entries * c.nominal_entry) as f64 / 1e9,
            }
        });

    let completed = merged.completed;
    let throughput = merged
        .last_completion
        .map_or(0.0, |t| completed as f64 / t.as_secs_f64().max(1e-9));
    let timeout_ops = clients.iter().map(|c| c.timeouts).sum();
    let energy = pdu.report(completed);
    RunReport {
        duration_secs,
        completed_ops: completed,
        throughput_ops: throughput,
        mean_latency_us: merged.mean_latency_us(),
        per_client_latency_timelines: clients.iter().map(|c| c.stats.latency_timeline()).collect(),
        client_stats: merged,
        ops_per_joule: energy.ops_per_joule(),
        energy,
        per_node_cpu,
        cpu_timeline,
        power_timeline,
        disk_timeline,
        recovery,
        timeout_ops,
        crashed: completed > 0 && timeout_ops as f64 > completed as f64 * 0.01,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmc_ycsb::{StandardWorkload, WorkloadSpec};

    #[test]
    fn a_retried_write_waiting_for_its_acks_frees_its_worker() {
        let workload = WorkloadSpec::standard(StandardWorkload::A)
            .with_record_count(400)
            .with_ops_per_client(300);
        let cfg = ClusterConfig::new(4, 2, workload).with_replication(1);
        let mut net = build(&cfg, false);
        // Server 1's dispatch thread is busy for 3 s: the writes it masters,
        // and those it backs up, wait past the clients' 1 s retry timeout,
        // so a retry reaches a master whose write still waits for its acks.
        costs(&mut net).nodes[1].dispatch_free = SimTime::from_secs(3);
        let sim = proto_sim::run(net, &FaultPlan::quiet(), SimTime::from_secs(10_000));
        assert!(sim.now() < SimTime::from_secs(60), "ran to {:?}", sim.now());
        let net = sim.state();
        let resends: u64 = (net.nodes.iter().flatten())
            .filter_map(|n| match n {
                AnyNode::Server(s) => Some(s.counters.pending_resends),
                _ => None,
            })
            .sum();
        assert!(resends > 0, "no retry met a pending write");
        let c = net.cost.as_deref().expect("a costed run");
        assert!(c.held.is_empty());
        for node in &c.nodes {
            assert!(node.workers.iter().all(|&w| w != SimTime::MAX));
        }
        assert!(net.clients_done());
    }

    #[test]
    fn a_recovery_sends_no_image_twice_to_one_target() {
        // Fig 9's shape at a five-hundredth of its data: ten idle servers,
        // R = 4, 10 KB values, the middle server killed.
        let mut workload = WorkloadSpec::standard(StandardWorkload::C)
            .with_record_count(2_000)
            .with_ops_per_client(0);
        workload.value_bytes = 10 * 1024;
        let cfg = ClusterConfig::new(10, 1, workload).with_replication(4);
        let run = run(
            &cfg,
            Some((SimTime::from_secs(2), 5)),
            SimDuration::ZERO,
            false,
        );
        let recovery = run.report.recovery.expect("the kill was recovered");
        assert!(recovery.replayed_entries > 0);
        let servers: Vec<&Server> = (run.net.nodes.iter().flatten())
            .filter_map(|n| match n {
                AnyNode::Server(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(servers.len(), 9);
        let alive: Vec<bool> = (0..10).map(|i| i != 5).collect();
        for master in &servers {
            assert_eq!(master.counters.image_resends, 0, "server {}", master.index);
            // Every target holds each segment of the log once: the kept ones
            // from the load, the adopted one and the replay's from images.
            let log = master.store.log();
            for b in replica_targets(master.index, 10, 4, &alive) {
                let backup = servers.iter().find(|s| s.index == b).expect("alive");
                for (segment, bytes) in backup.storage().segments_of(master.index) {
                    let held = log.segment(rmc_logstore::SegmentId(segment));
                    assert_eq!(
                        bytes.len(),
                        held.expect("held").as_bytes().len(),
                        "master {}, backup {b}, segment {segment}",
                        master.index
                    );
                }
            }
        }
    }
}
