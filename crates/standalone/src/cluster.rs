//! The wall-clock cluster harness: **one harness, two fabrics, one pump**.
//!
//! [`Cluster`] runs `rmc-core`'s coordinator/master/backup state machines
//! as real threads — one coordinator, N servers, and scripted clients or
//! synchronous [`Client`] handles — with real primary-backup replication
//! and will-based crash recovery. It is generic over a [`Fabric`], the
//! only engine-specific code:
//!
//! ```text
//!   Client<F> ──post──▶ ┌──────── Fabric ────────┐ ──Event──▶ inbox ─▶ pump ─▶ node_loop: AnyNode
//!   node_loop ──post──▶ │ ChannelFabric: channel │            (one per    └──▶ Client<F>: ClientCore
//!                       │ WireFabric: TCP socket │             node)
//!   kill/shutdown ─────▶└─ deliver ──────────────┘
//! ```
//!
//! - [`ChannelFabric`] ([`MiniCluster`]/[`MiniClient`]): a crossbeam channel
//!   per node. A restarted server reuses its channel, so every delivery is
//!   stamped with the destination's incarnation and a mismatch is dropped
//!   behind the inbox, counted as `net.epoch_mismatch`.
//! - `rmc_wire::WireFabric` ([`NetCluster`]/[`NetClient`]): a loopback TCP
//!   listener per coordinator/server, and **no thread but the node's own**:
//!   the inbox *is* the node's sockets, and [`Fabric::recv`] is one turn of
//!   a `poll(2)` loop that writes what the node posted since the last
//!   turn, accepts, reads, decodes and stamps `Deliver` — on the thread
//!   that will handle the message. A synchronous [`Client`] drives its
//!   sockets the same way, from whichever thread calls it. Killing a node
//!   closes its sockets, so traffic toward the dead incarnation dies with
//!   its connections and the next one starts from fresh ones. The `rmcd`
//!   binary runs the same [`node_loop`] over the same fabric, one node per
//!   OS process.
//!
//! ## One pump, one client half
//!
//! Everything that waits on an inbox does so through one private loop,
//! `pump`: each turn fires the node's timer if it is due and otherwise
//! takes the inbox's next event, waiting until the timer's deadline at the
//! latest — or, with no timer armed, until an event arrives (there is no
//! idle poll; [`Fabric::deliver`] wakes a blocked loop). The timer is
//! checked **before** the inbox: a server whose inbox never runs dry still
//! sends its heartbeats on time, exactly as the simulated engine fires a
//! timer at its time whatever is queued behind it. [`node_loop`] hands the
//! pump's turns to an `AnyNode`; a [`Client`] handle hands them to the
//! protocol's one client state machine, `rmc_core::protocol::ClientCore` —
//! the same core a scripted client runs under all three engines — until
//! the core yields the op's reply, so routing, RIFL retry, backoff and map
//! refresh exist once. The handle adds only what a blocking caller needs:
//! a give-up budget, checked at each retry tick.
//!
//! Messages that are merely *logically* stale — sent before the sender
//! learned of a restart — are fenced by the protocol itself (heartbeat
//! epochs, `fenced_drops`, `stale_rifl_drops`, recovery rounds) on every
//! engine, the simulated one included.
//!
//! ## Fault injection
//!
//! A chaos cluster ([`Cluster::run_plan`],
//! [`Cluster::start_chaos_with_storage`]) runs under an `rmc_chaos`
//! [`FaultPlan`]: each node judges its outgoing messages through a
//! [`FaultRuntime`] wrapper (per-node seeded fault streams; partitions are
//! a pure schedule and therefore consistent across nodes), and injected
//! delays ride the fabric's delay line via [`Runtime::send_after`]. Unlike
//! the simulated engine the interleaving is not reproducible — the
//! wall-clock engines *degrade gracefully*: the same fault semantics apply
//! and the committed-write invariants must still hold.
//! [`Cluster::run_plan`] additionally drives the plan's crash/restart
//! schedule on the wall clock.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rmc_chaos::{FaultPlan, FaultRuntime, FaultState, OpRecord};
use rmc_core::protocol::{
    bucket_for, msg_class, server_id, AnyNode, ClientCore, ClientOp, Msg, ProtocolConfig, Reply,
    Server, PROTO_TABLE,
};
use rmc_obs::span::SpanRecorder;
use rmc_runtime::{Event, MetricsRegistry, NodeId, Runtime, SimDuration, SimTime};

mod channel;
mod wire;

pub use channel::ChannelFabric;
pub use rmc_wire::WireFabric;

/// The threaded engine: nodes exchange messages over crossbeam channels.
pub type MiniCluster = Cluster<ChannelFabric>;
/// A synchronous client handle of a [`MiniCluster`].
pub type MiniClient = Client<ChannelFabric>;
/// The socket engine: every node owns a loopback TCP listener.
pub type NetCluster = Cluster<WireFabric>;
/// A synchronous client handle over TCP — of a [`NetCluster`] or, via
/// [`Client::connect`], of a live multi-process `rmcd` cluster.
pub type NetClient = Client<WireFabric>;

/// One node's attachment to the cluster's transport — its NIC. Everything
/// the harness needs from an engine: how a message reaches a node's inbox,
/// how a dead incarnation's traffic is kept from the next one, and the
/// shared clock, registry and span recorder.
///
/// Each fabric stamps `SpanKind::Send` in `post` and `SpanKind::Deliver`
/// inside `recv`, exactly once per message.
///
/// `post` is the inbox owner's call: a fabric may hold what was posted
/// until the owner's next `recv` (the TCP fabric does — one `write` per
/// peer per loop turn). `deliver` is the one call made from other threads.
pub trait Fabric: Debug + Send + Sync + Sized + 'static {
    /// Cluster-wide transport state the per-node fabrics are cut from.
    type Net: Debug;
    /// The receiving end of one incarnation's inbox.
    type Inbox: Debug + Send + 'static;

    /// Sets up transport for nodes `0..total`, of which `0..listening`
    /// (coordinator and servers) accept traffic nobody dialed first.
    fn build(total: usize, listening: usize) -> Self::Net;

    /// Attaches incarnation `epoch` of node `id`. Whatever was addressed
    /// to an earlier incarnation never reaches this one's inbox.
    fn attach(net: &mut Self::Net, id: NodeId, epoch: u64) -> (Arc<Self>, Self::Inbox);

    /// Cuts this incarnation off the transport (crash or teardown).
    fn sever(&self);

    /// The node this fabric belongs to.
    fn me(&self) -> NodeId;

    /// Sends `msg` to `to`, holding it for `extra` first when nonzero.
    /// May silently drop, like a NIC.
    fn post(&self, to: NodeId, msg: Msg, extra: SimDuration);

    /// Pushes `event` into this incarnation's own inbox: how the harness
    /// delivers [`Event::Kill`] and [`Event::Shutdown`].
    fn deliver(&self, event: Event<Msg>);

    /// Takes the next event off `inbox`, waiting at most `timeout` — for
    /// as long as it takes when that is `Duration::MAX`. The inbox is its
    /// owner's alone (`&mut`): on the TCP fabric it *is* the node's
    /// sockets, and this call is where they are read and written.
    fn recv(inbox: &mut Self::Inbox, timeout: Duration) -> Result<Event<Msg>, RecvTimeoutError>;

    /// Answers an [`Event::TraceRequest`] from `to`. Only a fabric that
    /// crosses process boundaries can be asked.
    fn answer_trace(&self, to: NodeId) {
        let _ = to;
    }

    /// The fabric's wall clock.
    fn now(&self) -> SimTime;

    /// The registry the cluster's metrics live in.
    fn registry(&self) -> &MetricsRegistry;

    /// The span recorder (cheap clone; shares the event store).
    fn spans(&self) -> SpanRecorder;
}

/// Declares, for each generic scenario `fn name<F: Fabric>()` in scope, one
/// `#[test]` per fabric — `channel::name` and `tcp::name` — so a behaviour
/// every engine must show is written once and checked on both.
#[macro_export]
macro_rules! on_both_fabrics {
    ($($scenario:ident),* $(,)?) => {
        mod channel {
            $(#[test] fn $scenario() { super::$scenario::<$crate::cluster::ChannelFabric>() })*
        }
        mod tcp {
            $(#[test] fn $scenario() { super::$scenario::<$crate::cluster::WireFabric>() })*
        }
    };
}

/// The wall-clock [`Runtime`]: `send` posts on the node's fabric, `now`
/// reads its clock, `set_timer` keeps the earliest deadline for [`pump`]
/// to fire, and `send_after` parks the message on the fabric's delay line
/// (fault-injected delays).
#[derive(Debug)]
struct NodeRuntime<F> {
    fabric: Arc<F>,
    deadline: Option<SimTime>,
}

impl<F: Fabric> Runtime for NodeRuntime<F> {
    type Msg = Msg;

    fn node(&self) -> NodeId {
        self.fabric.me()
    }

    fn now(&self) -> SimTime {
        self.fabric.now()
    }

    fn send(&self, to: NodeId, msg: Msg) {
        self.fabric.post(to, msg, SimDuration::ZERO);
    }

    fn set_timer(&mut self, after: SimDuration) {
        let at = self.fabric.now() + after;
        self.deadline = Some(match self.deadline {
            Some(cur) if cur <= at => cur,
            _ => at,
        });
    }

    fn send_after(&self, delay: SimDuration, to: NodeId, msg: Msg) {
        self.fabric.post(to, msg, delay);
    }
}

/// What [`pump`] hands the state machine it drives.
enum Turn {
    /// The armed timer came due.
    Timer,
    /// The inbox yielded an event.
    Event(Event<Msg>),
}

/// The wall-clock engines' one event pump — under every node loop and
/// every synchronous [`Client`] handle. Each turn is the timer if it is
/// due, otherwise the inbox's next event, awaited until the deadline at
/// the latest; with no timer armed it blocks until an event arrives
/// ([`Fabric::deliver`] wakes it). The timer is looked at *first*: a node
/// whose inbox never runs dry still ticks on time — a backlogged server
/// keeps heartbeating — as under the simulated engine, where a timer fires
/// at its time whatever is queued behind it. Runs until `turn` yields
/// (`Some`) or the inbox is cut off (`None`).
fn pump<F: Fabric, T>(
    rt: &mut NodeRuntime<F>,
    inbox: &mut F::Inbox,
    mut turn: impl FnMut(&mut NodeRuntime<F>, Turn) -> Option<T>,
) -> Option<T> {
    loop {
        let now = rt.now();
        let next = match rt.deadline {
            Some(due) if due <= now => {
                rt.deadline = None;
                Turn::Timer
            }
            deadline => {
                let wait = deadline.map_or(Duration::MAX, |due| {
                    Duration::from_nanos(due.saturating_since(now).as_nanos())
                });
                match F::recv(inbox, wait) {
                    Ok(event) => Turn::Event(event),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return None,
                }
            }
        };
        if let Some(out) = turn(rt, next) {
            return Some(out);
        }
    }
}

/// A server's live `(key, value, version)` triples, tagged with its index.
pub type ServerDump = (usize, Vec<(Vec<u8>, Vec<u8>, u64)>);

/// What a node hands back on graceful shutdown.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's id.
    pub node: NodeId,
    /// Server role: `(index, live objects)` from its real store.
    pub server: Option<ServerDump>,
    /// Coordinator role: final `bucket -> owner` map.
    pub owners: Option<Vec<usize>>,
    /// Scripted-client role: `(per-op replies, finished, op history)`.
    pub client: Option<(Vec<Reply>, bool, Vec<OpRecord>)>,
}

/// Builds the shutdown report and exports the node's stats (and, under
/// chaos, its fault-judge stats) into the shared registry — under the same
/// dotted-path names `proto_sim::SimNet::metrics` uses.
fn report(
    node: AnyNode,
    id: NodeId,
    faults: Option<&FaultState>,
    reg: &MetricsRegistry,
) -> NodeReport {
    if let Some(f) = faults {
        f.stats.export(reg);
    }
    node.export_stats(reg);
    let mut report = NodeReport {
        node: id,
        server: None,
        owners: None,
        client: None,
    };
    match node {
        AnyNode::Coordinator(c) => report.owners = Some(c.owners().to_vec()),
        AnyNode::Server(s) => {
            let live = s
                .store
                .live_objects()
                .map(|o| (o.key.to_vec(), o.value.to_vec(), o.version.0))
                .collect();
            report.server = Some((s.index, live));
        }
        AnyNode::Client(c) => {
            let history = c.full_history();
            report.client = Some((c.results, c.done, history));
        }
        // The cost layer's YCSB clients run only in simulation.
        AnyNode::Ycsb(_) => {}
    }
    report
}

/// One protocol node's event loop, on either fabric: [`Cluster`] runs it on
/// a thread per node, `rmcd` on its main thread. Returns the node's final
/// report on [`Event::Shutdown`], `None` on [`Event::Kill`].
pub fn node_loop<F: Fabric>(
    mut node: AnyNode,
    fabric: Arc<F>,
    mut inbox: F::Inbox,
    mut done_tx: Option<Sender<usize>>,
    mut faults: Option<FaultState>,
) -> Option<NodeReport> {
    let mut rt = NodeRuntime {
        fabric,
        deadline: None,
    };
    // A scripted client reports, once, that its script is through.
    let mut notify_done = |node: &AnyNode| {
        if let AnyNode::Client(c) = node {
            if c.done {
                if let Some(tx) = done_tx.take() {
                    let _ = tx.send(c.index);
                }
            }
        }
    };
    match faults.as_mut() {
        Some(f) => node.on_start(&mut FaultRuntime::new(&mut rt, f, msg_class)),
        None => node.on_start(&mut rt),
    }
    notify_done(&node);
    let graceful = pump(&mut rt, &mut inbox, |rt, turn| {
        match turn {
            Turn::Timer => match faults.as_mut() {
                Some(f) => node.on_timer(&mut FaultRuntime::new(rt, f, msg_class)),
                None => node.on_timer(rt),
            },
            Turn::Event(Event::Msg { from, msg }) => match faults.as_mut() {
                Some(f) => node.on_message(from, msg, &mut FaultRuntime::new(rt, f, msg_class)),
                None => node.on_message(from, msg, rt),
            },
            Turn::Event(Event::TraceRequest { from }) => rt.fabric.answer_trace(from),
            // Cluster nodes never ask for traces.
            Turn::Event(Event::TraceReply { .. }) => {}
            Turn::Event(Event::Kill) => return Some(false),
            Turn::Event(Event::Shutdown) => return Some(true),
        }
        notify_done(&node);
        None
    });
    if graceful != Some(true) {
        return None;
    }
    // Staged replicas go durable before the final report: a graceful exit
    // must leave a file-backed data dir as complete as a per-write-fsync
    // crash would.
    if let AnyNode::Server(s) = &mut node {
        let _ = s.flush_storage();
    }
    let id = rt.node();
    Some(report(node, id, faults.as_ref(), rt.fabric.registry()))
}

/// Derives the per-node fault interpreter for a chaos run. Each node (and
/// each incarnation) judges its own sends with an independent RNG stream;
/// partitions are a pure schedule shared by every stream, so the cut links
/// stay consistent cluster-wide.
fn node_faults(plan: Option<&FaultPlan>, node: NodeId, epoch: u64) -> Option<FaultState> {
    plan.map(|p| {
        let mut p = p.clone();
        p.seed ^= (node.0 as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(epoch.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut f = FaultState::new(p);
        f.trace_enabled = false;
        f
    })
}

/// Aggregated final state of a shut-down cluster.
#[derive(Debug)]
pub struct ClusterReport {
    /// Final `bucket -> owner` map (from the coordinator).
    pub owners: Vec<usize>,
    /// The live `key -> value` set the surviving cluster serves: the union
    /// of surviving servers' stores, owner-filtered — directly comparable
    /// with `rmc_core::proto_sim::SimNet::live_map`.
    pub live: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Like [`ClusterReport::live`] but carrying versions — the state the
    /// chaos invariant checker judges client histories against.
    pub live_versioned: BTreeMap<Vec<u8>, (Vec<u8>, u64)>,
    /// Scripted clients' `(index, replies, finished)`, in index order.
    pub clients: Vec<(usize, Vec<Reply>, bool)>,
    /// Scripted clients' op histories in index order, for
    /// `rmc_chaos::check_histories`.
    pub histories: Vec<Vec<OpRecord>>,
    /// The cluster's metrics registry: live client-handle counters (and
    /// `wire.*` NIC health on the TCP fabric) plus every node's protocol
    /// counters exported at shutdown.
    pub metrics: MetricsRegistry,
    /// Cross-node RPC span timelines stamped at the fabric's send/deliver
    /// chokepoints (wall-clock ns).
    pub spans: SpanRecorder,
}

/// Builds the backup staging engine for `(server index, incarnation
/// epoch)` — the cluster calls it at boot and again on every restart, so a
/// file-backed factory naturally re-opens the same data dir and recovers
/// its staged segments.
pub type StorageFactory =
    Arc<dyn Fn(usize, u64) -> Box<dyn rmc_diskstore::BackupStorage> + Send + Sync>;

/// A running cluster: coordinator + servers (+ optional scripted clients)
/// as threads over fabric `F`.
pub struct Cluster<F: Fabric> {
    cfg: ProtocolConfig,
    plan: Option<FaultPlan>,
    storage: Option<StorageFactory>,
    net: F::Net,
    /// Each node's current incarnation's fabric, by node id.
    fabrics: Vec<Arc<F>>,
    epochs: Vec<u64>,
    handles: Vec<(NodeId, JoinHandle<Option<NodeReport>>)>,
    done_tx: Sender<usize>,
    done_rx: Receiver<usize>,
}

impl<F: Fabric> Debug for Cluster<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("cfg", &self.cfg)
            .field("plan", &self.plan)
            .field("net", &self.net)
            .field("nodes", &self.handles.len())
            .field("file_backed", &self.storage.is_some())
            .finish()
    }
}

impl<F: Fabric> Cluster<F> {
    /// Starts coordinator and server threads; returns the cluster plus one
    /// synchronous [`Client`] handle per configured client.
    pub fn start(cfg: ProtocolConfig) -> (Self, Vec<Client<F>>) {
        Self::launch(cfg, None, None, None)
    }

    /// Like [`Cluster::start`] but staging every server's backup replicas
    /// in the engine `storage` builds — pass a factory returning
    /// `rmc_diskstore::FileStorage` to give the cluster real on-disk
    /// durability. The factory is called again (with the new incarnation
    /// epoch) on every [`Cluster::restart_server`], which is how a
    /// restarted server rejoins with disk-recovered segments.
    pub fn start_with_storage(
        cfg: ProtocolConfig,
        storage: StorageFactory,
    ) -> (Self, Vec<Client<F>>) {
        Self::launch(cfg, None, None, Some(storage))
    }

    /// Starts the full cluster with scripted client threads (the
    /// wall-clock half of the cross-engine equivalence test). Await
    /// completion with [`Cluster::wait_for_scripted_clients`].
    pub fn start_scripted(cfg: ProtocolConfig, scripts: Vec<Vec<ClientOp>>) -> Self {
        Self::launch(cfg, Some(scripts), None, None).0
    }

    /// Starts a scripted cluster, its backups on `storage`, under the
    /// message-level faults of `plan` (drops, duplicates, delays,
    /// partitions, backup-write failures), judged where a message would
    /// enter the fabric — the harness for running chaos plans (message
    /// *and* disk faults) against file-backed backups. The plan's crash
    /// schedule is *not* applied — drive it with [`Cluster::kill_server`]
    /// / [`Cluster::restart_server`], or use [`Cluster::run_plan`] for the
    /// whole thing.
    pub fn start_chaos_with_storage(
        cfg: ProtocolConfig,
        scripts: Vec<Vec<ClientOp>>,
        plan: &FaultPlan,
        storage: StorageFactory,
    ) -> Self {
        Self::launch(cfg, Some(scripts), Some(plan), Some(storage)).0
    }

    /// Runs a scripted cluster under the full [`FaultPlan`] — its message
    /// faults plus its crash and restart schedule driven on the wall clock
    /// — then waits for every script to finish (panicking after
    /// `client_timeout`), lets detection and recovery settle, and returns
    /// the final report.
    pub fn run_plan(
        cfg: ProtocolConfig,
        scripts: Vec<Vec<ClientOp>>,
        plan: &FaultPlan,
        client_timeout: Duration,
    ) -> ClusterReport {
        enum Ev {
            Kill(usize),
            Restart(usize),
        }
        let mut cluster = Self::launch(cfg, Some(scripts), Some(plan), None).0;
        let mut events: Vec<(SimTime, Ev)> = Vec::new();
        for c in &plan.crashes {
            events.push((c.at, Ev::Kill(c.server)));
            if let Some(after) = c.restart_after {
                events.push((c.at.saturating_add(after), Ev::Restart(c.server)));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        for (at, ev) in events {
            loop {
                let now = cluster.fabrics[0].now();
                if now >= at {
                    break;
                }
                thread::sleep(Duration::from_nanos((at - now).as_nanos()));
            }
            match ev {
                Ev::Kill(s) => cluster.kill_server(s),
                Ev::Restart(s) => cluster.restart_server(s),
            }
        }
        cluster.wait_for_scripted_clients(client_timeout);
        // Scripts can finish before the last failure is even detected; give
        // detection + recovery + re-replication time to settle so the
        // report reflects a converged cluster.
        let settle = Duration::from_nanos(cluster.cfg.failure_timeout.as_nanos())
            .saturating_mul(4)
            .saturating_add(Duration::from_millis(500));
        thread::sleep(settle);
        cluster.shutdown()
    }

    fn launch(
        cfg: ProtocolConfig,
        scripts: Option<Vec<Vec<ClientOp>>>,
        plan: Option<&FaultPlan>,
        storage: Option<StorageFactory>,
    ) -> (Self, Vec<Client<F>>) {
        let scripted = scripts.is_some();
        let mut nodes = AnyNode::build_cluster(&cfg, scripts.unwrap_or_default());
        if let Some(factory) = &storage {
            for node in &mut nodes {
                if let AnyNode::Server(s) = node {
                    s.set_storage(factory(s.index, 0));
                }
            }
        }
        let (done_tx, done_rx) = unbounded();
        let mut cluster = Cluster {
            net: F::build(nodes.len(), 1 + cfg.servers),
            cfg,
            plan: plan.cloned(),
            storage,
            fabrics: Vec::with_capacity(nodes.len()),
            epochs: vec![0; nodes.len()],
            handles: Vec::new(),
            done_tx,
            done_rx,
        };
        let mut clients = Vec::new();
        for (i, node) in nodes.into_iter().enumerate() {
            let (fabric, inbox) = F::attach(&mut cluster.net, NodeId(i), 0);
            cluster.fabrics.push(Arc::clone(&fabric));
            match node {
                // A sync handle stands in for the scripted state machine.
                AnyNode::Client(_) if !scripted => {
                    clients.push(Client::new(cluster.cfg.clone(), fabric, inbox));
                }
                node => cluster.spawn(node, fabric, inbox),
            }
        }
        (cluster, clients)
    }

    /// Runs `node` — the current incarnation of its id — on its own thread.
    fn spawn(&mut self, node: AnyNode, fabric: Arc<F>, inbox: F::Inbox) {
        let id = fabric.me();
        let epoch = self.epochs[id.0];
        let done_tx = matches!(node, AnyNode::Client(_)).then(|| self.done_tx.clone());
        let faults = node_faults(self.plan.as_ref(), id, epoch);
        let handle = thread::Builder::new()
            .name(format!("node-{id}-e{epoch}"))
            .spawn(move || node_loop(node, fabric, inbox, done_tx, faults))
            .expect("spawn cluster node");
        self.handles.push((id, handle));
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The shared metrics registry (live counters; each node's protocol
    /// counters are exported into it at shutdown).
    pub fn metrics(&self) -> MetricsRegistry {
        self.fabrics[0].registry().clone()
    }

    /// The cluster's span recorder (cheap clone; shares the event store).
    pub fn spans(&self) -> SpanRecorder {
        self.fabrics[0].spans()
    }

    /// Crashes server `index`: its thread exits without a goodbye and its
    /// fabric is severed. The coordinator notices via missed heartbeats
    /// and runs will-based recovery; nothing in flight toward the dead
    /// incarnation will reach a restarted one.
    pub fn kill_server(&self, index: usize) {
        let fabric = &self.fabrics[server_id(index).0];
        fabric.deliver(Event::Kill);
        fabric.sever();
    }

    /// Boots a fresh incarnation of a previously killed server at its
    /// original address: a [`Server::restarted`] with a bumped epoch and
    /// an empty store that stays unsynced until the coordinator readmits
    /// it. A no-op if the previous incarnation is still running after a
    /// short wait.
    pub fn restart_server(&mut self, index: usize) {
        let id = server_id(index);
        if let Some((_, h)) = self.handles.iter().rev().find(|(hid, _)| *hid == id) {
            // Wait briefly for an in-flight kill to land; if the server is
            // genuinely alive, restarting would double-drive its inbox.
            let deadline = Instant::now() + Duration::from_millis(200);
            while !h.is_finished() {
                if Instant::now() >= deadline {
                    return;
                }
                thread::sleep(Duration::from_millis(1));
            }
        }
        self.epochs[id.0] += 1;
        let epoch = self.epochs[id.0];
        let mut server = Server::restarted(index, self.cfg.clone(), epoch);
        if let Some(factory) = &self.storage {
            // A file-backed factory re-opens the same data dir here, so the
            // fresh incarnation rejoins holding every staged segment that
            // survived on disk.
            server.set_storage(factory(index, epoch));
        }
        let (fabric, inbox) = F::attach(&mut self.net, id, epoch);
        self.fabrics[id.0] = Arc::clone(&fabric);
        self.spawn(AnyNode::Server(server), fabric, inbox);
    }

    /// Blocks until every scripted client finished its script, or panics
    /// after `timeout` (a liveness failure).
    pub fn wait_for_scripted_clients(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut done = 0;
        while done < self.cfg.clients {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.done_rx.recv_timeout(left) {
                Ok(_) => done += 1,
                Err(_) => panic!(
                    "liveness: only {done}/{} scripted clients finished within {timeout:?}",
                    self.cfg.clients
                ),
            }
        }
    }

    /// Gracefully stops every surviving node, severs every fabric, and
    /// aggregates the final state.
    pub fn shutdown(mut self) -> ClusterReport {
        for (id, _) in &self.handles {
            self.fabrics[id.0].deliver(Event::Shutdown);
        }
        let reports = self
            .handles
            .drain(..)
            .map(|(id, handle)| (id, handle.join().expect("cluster node panicked")))
            .collect();
        aggregate_reports(
            reports,
            self.fabrics[0].registry().clone(),
            self.fabrics[0].spans(),
        )
    }
}

/// Crashes and joins whatever node threads are left, then severs every
/// fabric: all of them after a [`Cluster::shutdown`]'s joins; the threads
/// too when the cluster is dropped without one (a test that panicked
/// mid-scenario), which would otherwise leak them.
impl<F: Fabric> Drop for Cluster<F> {
    fn drop(&mut self) {
        for (id, _) in &self.handles {
            self.fabrics[id.0].deliver(Event::Kill);
        }
        for (_, handle) in self.handles.drain(..) {
            let _ = handle.join();
        }
        for fabric in &self.fabrics {
            fabric.sever();
        }
    }
}

/// Folds per-node shutdown reports into a [`ClusterReport`]: last
/// coordinator map wins, surviving servers' stores union owner-filtered
/// into the live set, client results and histories sorted by index.
fn aggregate_reports(
    reports: Vec<(NodeId, Option<NodeReport>)>,
    metrics: MetricsRegistry,
    spans: SpanRecorder,
) -> ClusterReport {
    let mut owners = Vec::new();
    let mut servers: Vec<ServerDump> = Vec::new();
    let mut clients = Vec::new();
    for (id, rep) in reports {
        let Some(rep) = rep else {
            continue; // killed node: no report, like a dead machine
        };
        if let Some(o) = rep.owners {
            owners = o;
        }
        if let Some(s) = rep.server {
            servers.push(s);
        }
        if let Some((results, done, history)) = rep.client {
            clients.push((id.0, results, done, history));
        }
    }
    clients.sort_unstable_by_key(|(i, _, _, _)| *i);
    let buckets = owners.len().max(1);
    let mut live_versioned = BTreeMap::new();
    for (index, objects) in servers {
        for (key, value, version) in objects {
            if owners[bucket_for(PROTO_TABLE, &key, buckets)] == index {
                live_versioned.insert(key, (value, version));
            }
        }
    }
    let live = live_versioned
        .iter()
        .map(|(k, (v, _))| (k.clone(), v.clone()))
        .collect();
    let histories = clients.iter().map(|(_, _, _, h)| h.clone()).collect();
    ClusterReport {
        owners,
        live,
        live_versioned,
        clients: clients.into_iter().map(|(i, r, d, _)| (i, r, d)).collect(),
        histories,
        metrics,
        spans,
    }
}

/// A synchronous client handle: the protocol's client half
/// ([`ClientCore`] — routing, stable-seq RIFL retries under backoff, map
/// refresh) on the wall-clock [`Runtime`], pumped by the calling thread
/// until the op's reply arrives or its give-up budget runs out. The core's
/// event counters are live in the fabric's [`MetricsRegistry`] under
/// `client.<i>.*`, current whenever a call returns.
#[derive(Debug)]
pub struct Client<F: Fabric> {
    core: ClientCore,
    rt: NodeRuntime<F>,
    inbox: F::Inbox,
    /// A `connect`ed client's fabric is its own to tear down; a
    /// cluster-issued handle's is severed by [`Cluster::shutdown`].
    owns_fabric: bool,
    op_budget: Duration,
}

impl<F: Fabric> Client<F> {
    fn new(cfg: ProtocolConfig, fabric: Arc<F>, inbox: F::Inbox) -> Self {
        let index = fabric.me().0 - 1 - cfg.servers;
        // Liveness bound: a healthy cluster answers in microseconds; even
        // a crash only blocks until recovery. Far beyond that, fail loudly
        // instead of hanging the caller.
        let op_budget = Duration::from_nanos(cfg.retry_timeout.as_nanos()).saturating_mul(200);
        Client {
            core: ClientCore::new(index, cfg),
            rt: NodeRuntime {
                fabric,
                deadline: None,
            },
            inbox,
            owns_fabric: false,
            op_budget,
        }
    }

    /// This client's node id.
    pub fn node(&self) -> NodeId {
        self.rt.node()
    }

    /// The client's fabric (its registry carries the `client.<i>.*`
    /// counters and, over TCP, this connection's `wire.*` health).
    pub fn fabric(&self) -> &Arc<F> {
        &self.rt.fabric
    }

    /// Overrides the per-op give-up budget (default: 200 × the base retry
    /// timeout). At the first retry tick past the budget an op returns an
    /// error and counts a `client.<i>.giveups`.
    pub fn set_op_budget(&mut self, budget: Duration) {
        self.op_budget = budget;
    }

    /// Writes `key = value`; returns once the write is applied and fully
    /// replicated.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.put_versioned(key, value).map(|_| ())
    }

    /// Writes `key = value` and returns the version the write was applied
    /// at.
    pub fn put_versioned(&mut self, key: &[u8], value: &[u8]) -> Result<u64, String> {
        match self.request(ClientOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Reply::Done { version } => Ok(version),
            other => Err(format!("unexpected put reply: {other:?}")),
        }
    }

    /// Reads `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        match self.request(ClientOp::Get { key: key.to_vec() })? {
            Reply::Value(v) => Ok(v),
            other => Err(format!("unexpected get reply: {other:?}")),
        }
    }

    /// Deletes `key` (absent keys are fine).
    pub fn del(&mut self, key: &[u8]) -> Result<(), String> {
        match self.request(ClientOp::Del { key: key.to_vec() })? {
            Reply::Done { .. } => Ok(()),
            other => Err(format!("unexpected del reply: {other:?}")),
        }
    }

    /// Re-sends the last request verbatim — same sequence number, same op —
    /// as a *network-duplicated* (not retried) delivery, and returns the
    /// server's answer. RIFL must replay the originally recorded reply
    /// without re-applying the op.
    pub fn duplicate_last(&mut self) -> Result<Reply, String> {
        if !self.core.begin_again(&mut self.rt) {
            return Err("no prior request to duplicate".to_owned());
        }
        self.await_reply()
    }

    /// Fetches a node's live protocol stats over the fabric (the `Stats`
    /// RPC): `(name, value)` pairs from a server's or the coordinator's
    /// own counters and ack-wait histogram. Only `target`'s own reply
    /// counts — a late answer to an earlier ask of another node does not.
    pub fn node_stats(&mut self, target: NodeId) -> Result<Vec<(String, u64)>, String> {
        self.ask(
            "stats",
            target,
            |fabric| fabric.post(target, Msg::StatsRequest, SimDuration::ZERO),
            |event| match event {
                Event::Msg {
                    from,
                    msg: Msg::StatsReply { stats },
                } if from == target => Some(stats),
                _ => None,
            },
        )
    }

    /// A control-plane RPC: `send`s the question to `target`, re-asking
    /// every retry timeout until `pick` accepts an answer or the op budget
    /// runs out.
    fn ask<T>(
        &mut self,
        what: &str,
        target: NodeId,
        send: impl Fn(&F),
        mut pick: impl FnMut(Event<Msg>) -> Option<T>,
    ) -> Result<T, String> {
        let every = self.core.config().retry_timeout;
        send(&self.rt.fabric);
        self.rt.set_timer(every);
        self.drive(
            format_args!("{what} request to {target}"),
            |_, rt, turn| match turn {
                Turn::Timer => {
                    send(&rt.fabric);
                    rt.set_timer(every);
                    None
                }
                Turn::Event(event) => pick(event),
            },
        )
    }

    fn request(&mut self, op: ClientOp) -> Result<Reply, String> {
        self.core.begin(op, &mut self.rt);
        self.await_reply()
    }

    /// Feeds the core until it yields the reply to the op in flight.
    fn await_reply(&mut self) -> Result<Reply, String> {
        let seq = self.core.seq();
        self.drive(format_args!("request {seq}"), |core, rt, turn| match turn {
            Turn::Timer => {
                core.on_timer(rt);
                None
            }
            Turn::Event(Event::Msg { msg, .. }) => core.on_message(msg, rt),
            Turn::Event(_) => None,
        })
    }

    /// Pumps the inbox, handing each turn to `turn` until it yields. Gives
    /// up — counting a `giveups` — at the first timer tick past the op
    /// budget; the timer armed for the call dies with it.
    fn drive<T>(
        &mut self,
        what: std::fmt::Arguments<'_>,
        mut turn: impl FnMut(&mut ClientCore, &mut NodeRuntime<F>, Turn) -> Option<T>,
    ) -> Result<T, String> {
        let before = self.core.counters;
        let give_up = Instant::now() + self.op_budget;
        let core = &mut self.core;
        let outcome = pump(&mut self.rt, &mut self.inbox, |rt, next| match next {
            Turn::Event(Event::Kill | Event::Shutdown) => {
                Some(Err("client handle terminated".to_owned()))
            }
            Turn::Timer if Instant::now() >= give_up => {
                core.counters.giveups += 1;
                Some(Err(format!("{what} exhausted its retry budget")))
            }
            next => turn(core, rt, next).map(Ok),
        })
        .unwrap_or_else(|| Err("cluster is gone".to_owned()));
        self.rt.deadline = None;
        if self.core.counters != before {
            let family = self.fabric().registry().family("client", self.core.index());
            for (name, value) in self.core.stats() {
                family.counter(&name).set(value);
            }
        }
        outcome
    }
}

impl<F: Fabric> Drop for Client<F> {
    fn drop(&mut self) {
        if self.owns_fabric {
            self.fabric().sever();
        }
    }
}

#[cfg(test)]
mod tests;
