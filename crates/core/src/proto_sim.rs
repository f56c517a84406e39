//! The simulated engine for the shared protocol: runs
//! [`crate::protocol`]'s node state machines on the deterministic
//! `rmc_sim` event queue.
//!
//! Each `send` becomes a delivery event after a fixed latency; each
//! `set_timer` becomes a timer event. The paper's figures replace the fixed
//! latency with [`crate::cost`]'s machine model at the same two
//! chokepoints (`SimNet::cost`): what a delivery waits for, and when the
//! handler's sends leave. Handlers execute against a
//! `QueuedRuntime` that buffers their effects, which are then scheduled
//! in emission order — so a given config, script, and fault plan replays
//! bit-identically. Crashed nodes are `None` slots: messages and timers
//! addressed to them are dropped, exactly like the threaded engine's dead
//! threads.
//!
//! ## Fault injection and restarts
//!
//! [`run_plan`] executes a cluster under an `rmc_chaos`
//! [`FaultPlan`]: every handler runs behind a
//! [`FaultRuntime`] wrapper, so each emitted message is judged
//! (drop / delay / duplicate / partition) by the plan's seeded
//! [`FaultState`] before it reaches the event queue. Scheduled crashes
//! empty the victim's node slot; scheduled restarts boot a fresh
//! [`Server::restarted`] incarnation.
//!
//! Every delivery and timer event is stamped with the destination's
//! *incarnation number* at emission time. A restart bumps the incarnation,
//! so messages and timers that were in flight toward the previous life are
//! discarded on arrival instead of leaking into the new one — the count is
//! exposed as `net.epoch_mismatch` in [`SimNet::metrics`].

use std::collections::BTreeMap;

use rmc_chaos::{Crash, FaultPlan, FaultRuntime, FaultState, OpRecord};
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::{MetricsRegistry, NodeId, Runtime, SimDuration, SimTime};
use rmc_sim::{Scheduler, Simulation};

use crate::cost::Costs;
use crate::protocol::{
    msg_class, AnyNode, ClientOp, CoordinatorNode, Msg, ProtocolConfig, ScriptClient, Server,
};

/// Buffered effects of one handler invocation under the simulated engine.
/// The outbox sits behind a `RefCell` because [`Runtime::send`] takes
/// `&self` (the NIC contract); buffering order is unchanged, so same-seed
/// runs stay bit-identical.
#[derive(Debug)]
pub(crate) struct QueuedRuntime {
    me: NodeId,
    now: SimTime,
    /// `(to, msg, extra_delay)` — the delay comes from `send_after`
    /// (fault-injected delays ride through it).
    pub(crate) out: std::cell::RefCell<Vec<(NodeId, Msg, SimDuration)>>,
    pub(crate) timers: Vec<SimDuration>,
}

impl QueuedRuntime {
    fn new(me: NodeId, now: SimTime) -> Self {
        QueuedRuntime {
            me,
            now,
            out: std::cell::RefCell::new(Vec::new()),
            timers: Vec::new(),
        }
    }
}

impl Runtime for QueuedRuntime {
    type Msg = Msg;

    fn node(&self) -> NodeId {
        self.me
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&self, to: NodeId, msg: Msg) {
        self.out.borrow_mut().push((to, msg, SimDuration::ZERO));
    }

    fn set_timer(&mut self, after: SimDuration) {
        self.timers.push(after);
    }

    fn send_after(&self, delay: SimDuration, to: NodeId, msg: Msg) {
        self.out.borrow_mut().push((to, msg, delay));
    }
}

/// The simulated protocol cluster: one slot per node id; `None` marks a
/// crashed node.
#[derive(Debug)]
pub struct SimNet {
    cfg: ProtocolConfig,
    /// All nodes, indexed by [`NodeId`]. Killed nodes become `None`.
    pub nodes: Vec<Option<AnyNode>>,
    latency: SimDuration,
    /// Incarnation number per node id; restarts bump the slot.
    pub(crate) incarnations: Vec<u64>,
    /// In-flight messages discarded because the destination restarted
    /// between emission and delivery.
    pub epoch_mismatch_drops: u64,
    /// The fault interpreter, when running under a plan (`None` = perfect
    /// network).
    pub faults: Option<FaultState>,
    /// Cross-node RPC span timeline, stamped with *virtual* time at the
    /// engine's send/deliver chokepoints — replays of the same seed record
    /// identical timelines.
    pub spans: SpanRecorder,
    /// The machine model charging every delivery its dispatch, worker, NIC
    /// and disk time (`None` = the fixed `latency`).
    pub(crate) cost: Option<Box<Costs>>,
}

impl SimNet {
    /// Builds the cluster for `cfg` with per-client op scripts and a fixed
    /// one-way message latency.
    pub fn new(cfg: &ProtocolConfig, scripts: Vec<Vec<ClientOp>>, latency: SimDuration) -> Self {
        let nodes: Vec<Option<AnyNode>> = AnyNode::build_cluster(cfg, scripts)
            .into_iter()
            .map(Some)
            .collect();
        let incarnations = vec![0; nodes.len()];
        SimNet {
            cfg: cfg.clone(),
            nodes,
            latency,
            incarnations,
            epoch_mismatch_drops: 0,
            faults: None,
            spans: SpanRecorder::default(),
            cost: None,
        }
    }

    /// The scripted client `c` (panics if killed or out of range).
    pub fn client(&self, cfg: &ProtocolConfig, c: usize) -> &ScriptClient {
        match self.nodes[crate::protocol::client_id(cfg.servers, c).0].as_ref() {
            Some(AnyNode::Client(cl)) => cl,
            _ => panic!("client {c} is not alive"),
        }
    }

    /// Surviving servers.
    pub fn servers(&self) -> impl Iterator<Item = &Server> {
        self.nodes.iter().filter_map(|n| match n {
            Some(AnyNode::Server(s)) => Some(s),
            _ => None,
        })
    }

    /// The surviving server with cluster index `index`, if alive.
    pub fn server(&self, index: usize) -> Option<&Server> {
        match self.nodes[crate::protocol::server_id(index).0].as_ref() {
            Some(AnyNode::Server(s)) => Some(s),
            _ => None,
        }
    }

    /// The coordinator (panics if the slot is gone — generated plans never
    /// crash it).
    pub fn coordinator(&self) -> &CoordinatorNode {
        match self.nodes[crate::protocol::coordinator_id().0].as_ref() {
            Some(AnyNode::Coordinator(c)) => c,
            _ => panic!("coordinator is not alive"),
        }
    }

    /// The coordinator's current `bucket -> owner` map.
    pub fn owners(&self) -> Vec<usize> {
        self.coordinator().owners().to_vec()
    }

    /// Have all clients finished their scripts or their YCSB quotas?
    pub fn clients_done(&self) -> bool {
        self.nodes.iter().flatten().all(|n| match n {
            AnyNode::Client(c) => c.done,
            AnyNode::Ycsb(c) => c.done,
            _ => true,
        })
    }

    /// Is a crash recovery still in flight on the coordinator?
    pub fn recovery_pending(&self) -> bool {
        self.coordinator().recovery_pending()
    }

    /// The live `key -> value` set served by the surviving cluster — the
    /// cross-engine comparison artifact.
    pub fn live_map(&self) -> BTreeMap<Vec<u8>, Vec<u8>> {
        crate::protocol::live_map(self.servers(), &self.owners())
    }

    /// Like [`SimNet::live_map`] but carrying versions — the state the
    /// chaos invariant checker judges client histories against.
    pub fn live_map_versioned(&self) -> BTreeMap<Vec<u8>, (Vec<u8>, u64)> {
        crate::protocol::live_map_versioned(self.servers(), &self.owners())
    }

    /// Per-client operation histories (recorded acks plus a trailing
    /// unacked record for any op still in flight), in client-index order.
    pub fn histories(&self) -> Vec<Vec<OpRecord>> {
        self.nodes
            .iter()
            .flatten()
            .filter_map(|n| match n {
                AnyNode::Client(c) => Some(c.full_history()),
                AnyNode::Ycsb(c) => Some(c.full_history()),
                _ => None,
            })
            .collect()
    }

    /// Exports every stat the nodes report ([`AnyNode::export_stats`]), the
    /// epoch-mismatch drop count, and the fault interpreter's stats into a
    /// fresh [`MetricsRegistry`] under dotted-path names.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("net.epoch_mismatch")
            .add(self.epoch_mismatch_drops);
        if let Some(f) = &self.faults {
            f.stats.export(&reg);
        }
        for node in self.nodes.iter().flatten() {
            node.export_stats(&reg);
        }
        reg
    }
}

/// Schedules the buffered effects of one handler invocation: each emitted
/// message becomes a delivery event one `latency` (plus any fault-injected
/// delay) later; each armed timer becomes a timer event. Both are stamped
/// with the destination's current incarnation. Scheduling in emission order
/// inherits the engine's `(time, seq)` ordering, so runs are deterministic.
/// Under a cost model, [`crate::cost::emit`] schedules them instead.
fn dispatch(net: &mut SimNet, rt: &mut Scheduler<SimNet>, node: NodeId, q: QueuedRuntime) {
    if net.cost.is_some() {
        return crate::cost::emit(net, rt, node, q);
    }
    let latency = net.latency;
    for (to, msg, extra) in q.out.into_inner() {
        let from = node;
        msg.record_span(&net.spans, SpanKind::Send, from, to, rt.now());
        let inc = net.incarnations.get(to.0).copied().unwrap_or(0);
        let after = latency.checked_add(extra).unwrap_or(SimDuration::MAX);
        rt.schedule_after(after, move |net, rt| deliver(net, rt, from, to, inc, msg));
    }
    let self_inc = net.incarnations.get(node.0).copied().unwrap_or(0);
    for after in q.timers {
        rt.schedule_after(after, move |net, rt| fire_timer(net, rt, node, self_inc));
    }
}

pub(crate) fn deliver(
    net: &mut SimNet,
    rt: &mut Scheduler<SimNet>,
    from: NodeId,
    to: NodeId,
    inc: u64,
    msg: Msg,
) {
    if net.incarnations.get(to.0).copied().unwrap_or(0) != inc {
        // The destination restarted while this message was in flight: it
        // belongs to the previous incarnation and must never reach the new
        // one.
        net.epoch_mismatch_drops += 1;
        return;
    }
    let mut q = QueuedRuntime::new(to, rt.now());
    {
        let Some(node) = net.nodes.get_mut(to.0).and_then(|n| n.as_mut()) else {
            return; // dead or unknown: the NIC drops it
        };
        msg.record_span(&net.spans, SpanKind::Deliver, from, to, rt.now());
        match net.faults.as_mut() {
            Some(f) => node.on_message(from, msg, &mut FaultRuntime::new(&mut q, f, msg_class)),
            None => node.on_message(from, msg, &mut q),
        }
    }
    dispatch(net, rt, to, q);
}

pub(crate) fn fire_timer(net: &mut SimNet, rt: &mut Scheduler<SimNet>, node: NodeId, inc: u64) {
    if net.incarnations.get(node.0).copied().unwrap_or(0) != inc {
        return; // the timer died with the incarnation that armed it
    }
    let mut q = QueuedRuntime::new(node, rt.now());
    {
        let Some(n) = net.nodes.get_mut(node.0).and_then(|n| n.as_mut()) else {
            return;
        };
        match net.faults.as_mut() {
            Some(f) => n.on_timer(&mut FaultRuntime::new(&mut q, f, msg_class)),
            None => n.on_timer(&mut q),
        }
    }
    dispatch(net, rt, node, q);
}

pub(crate) fn start_node(net: &mut SimNet, rt: &mut Scheduler<SimNet>, node: NodeId) {
    let mut q = QueuedRuntime::new(node, rt.now());
    {
        let Some(n) = net.nodes.get_mut(node.0).and_then(|n| n.as_mut()) else {
            return;
        };
        match net.faults.as_mut() {
            Some(f) => n.on_start(&mut FaultRuntime::new(&mut q, f, msg_class)),
            None => n.on_start(&mut q),
        }
    }
    dispatch(net, rt, node, q);
}

/// Crashes server `victim`: its slot empties, in-flight traffic to it is
/// dropped on delivery.
pub(crate) fn crash_server(net: &mut SimNet, victim: usize) {
    let id = crate::protocol::server_id(victim);
    net.nodes[id.0] = None;
}

/// Boots a fresh incarnation of server `victim`: bumps the slot's
/// incarnation (orphaning the previous life's in-flight messages and
/// timers) and starts a [`Server::restarted`] with an empty store that
/// stays unsynced until the coordinator readmits it.
fn restart_server(net: &mut SimNet, rt: &mut Scheduler<SimNet>, victim: usize) {
    let id = crate::protocol::server_id(victim);
    if net.nodes[id.0].is_some() {
        return; // already alive: stale restart event
    }
    net.incarnations[id.0] += 1;
    let epoch = net.incarnations[id.0];
    net.nodes[id.0] = Some(AnyNode::Server(Server::restarted(
        victim,
        net.cfg.clone(),
        epoch,
    )));
    start_node(net, rt, id);
}

/// Runs the scripted protocol cluster under a full [`FaultPlan`]:
/// drops, duplicates, delays, partitions, crashes, and restarts, all
/// seed-deterministic.
///
/// The run stops at `horizon`, or earlier once the plan has quiesced, every
/// client finished its script, and no recovery is pending — the converged
/// state the invariant checker wants to judge.
pub fn run_plan(
    cfg: &ProtocolConfig,
    scripts: Vec<Vec<ClientOp>>,
    plan: &FaultPlan,
    horizon: SimTime,
) -> SimNet {
    let mut net = SimNet::new(cfg, scripts, SimDuration::from_micros(100));
    net.faults = Some(FaultState::new(plan.clone()));
    let total = 1 + cfg.servers + cfg.clients;
    let mut sim = Simulation::new(net);
    let rt = sim.scheduler_mut();
    for i in 0..total {
        rt.schedule_at(SimTime::ZERO, move |net, rt| start_node(net, rt, NodeId(i)));
    }
    for crash in plan.crashes.iter().copied() {
        rt.schedule_at(crash.at, move |net: &mut SimNet, _| {
            crash_server(net, crash.server);
        });
        if let Some(after) = crash.restart_after {
            rt.schedule_at(crash.at.saturating_add(after), move |net, rt| {
                restart_server(net, rt, crash.server);
            });
        }
    }
    // Chunked run with an early exit: heartbeats re-arm forever, so the
    // queue never drains on its own; but once faults have ceased, scripts
    // finished, and recovery settled, nothing interesting remains.
    let quiesce = plan.quiesce_at;
    let chunk = SimDuration::from_millis(20);
    loop {
        let now = sim.now();
        if now >= horizon {
            break;
        }
        let mut next = now.saturating_add(chunk);
        if next > horizon {
            next = horizon;
        }
        sim.run_until(next);
        let net = sim.state();
        if sim.now() >= quiesce && net.clients_done() && !net.recovery_pending() {
            break;
        }
    }
    sim.into_state()
}

/// Runs the scripted protocol cluster under simulated time with a perfect
/// network.
///
/// `kills` crash servers permanently at the given instants (their node
/// slot becomes `None`; in-flight messages to them are dropped). The run
/// stops at `horizon` or as soon as all scripts and recoveries finish.
pub fn run_script(
    cfg: &ProtocolConfig,
    scripts: Vec<Vec<ClientOp>>,
    kills: Vec<(SimTime, usize)>,
    horizon: SimTime,
) -> SimNet {
    let mut plan = FaultPlan::quiet();
    for (at, victim) in kills {
        plan.crashes.push(Crash {
            at,
            server: victim,
            restart_after: None,
        });
    }
    run_plan(cfg, scripts, &plan, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Reply;
    use rmc_chaos::{check_histories, PlanShape};

    fn key(i: usize) -> Vec<u8> {
        format!("key{i:04}").into_bytes()
    }

    fn script(ops: usize) -> Vec<ClientOp> {
        let mut s = Vec::new();
        for i in 0..ops {
            s.push(ClientOp::Put {
                key: key(i),
                value: format!("v{i}").into_bytes(),
            });
        }
        // Overwrite a few and delete a few so versions and tombstones are
        // exercised.
        for i in 0..ops / 4 {
            s.push(ClientOp::Put {
                key: key(i),
                value: format!("v{i}b").into_bytes(),
            });
        }
        for i in (0..ops).step_by(7) {
            s.push(ClientOp::Del { key: key(i) });
        }
        s
    }

    fn expected(ops: usize) -> std::collections::BTreeMap<Vec<u8>, Vec<u8>> {
        let mut m = std::collections::BTreeMap::new();
        for i in 0..ops {
            m.insert(key(i), format!("v{i}").into_bytes());
        }
        for i in 0..ops / 4 {
            m.insert(key(i), format!("v{i}b").into_bytes());
        }
        for i in (0..ops).step_by(7) {
            m.remove(&key(i));
        }
        m
    }

    #[test]
    fn script_without_crash_serves_expected_map() {
        let cfg = ProtocolConfig::new(3, 1, 1);
        let net = run_script(&cfg, vec![script(40)], vec![], SimTime::from_secs(5));
        let client = net.client(&cfg, 0);
        assert!(client.done, "client finished its script");
        assert!(client.results.iter().all(|r| *r != Reply::WrongOwner));
        assert_eq!(net.live_map(), expected(40));
    }

    #[test]
    fn mid_script_crash_recovers_and_client_completes() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let net = run_script(
            &cfg,
            vec![script(60)],
            vec![(SimTime::from_millis(5), 1)],
            SimTime::from_secs(10),
        );
        let client = net.client(&cfg, 0);
        assert!(client.done, "client must not hang across the crash");
        assert_eq!(net.live_map(), expected(60));
        // The victim's buckets moved to survivors.
        assert!(net.owners().iter().all(|&o| o != 1));
    }

    #[test]
    fn same_seed_same_script_is_deterministic() {
        let cfg = ProtocolConfig::new(4, 2, 2);
        let run = || {
            run_script(
                &cfg,
                vec![script(30), script(25)],
                vec![(SimTime::from_millis(4), 2)],
                SimTime::from_secs(10),
            )
            .live_map()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_restart_rejoins_without_leaking_old_incarnation_traffic() {
        let cfg = ProtocolConfig::new(4, 1, 2);
        let mut plan = FaultPlan::quiet();
        plan.crashes.push(Crash {
            at: SimTime::from_millis(8),
            server: 1,
            restart_after: Some(SimDuration::from_millis(120)),
        });
        plan.quiesce_at = SimTime::from_millis(300);
        let net = run_plan(&cfg, vec![script(60)], &plan, SimTime::from_secs(20));
        let client = net.client(&cfg, 0);
        assert!(client.done, "client rides out crash + restart");
        assert_eq!(net.live_map(), expected(60));
        // The restarted incarnation is back, bucket-less, epoch 1.
        let restarted = net.server(1).expect("server 1 restarted");
        assert_eq!(restarted.epoch(), 1);
        let coord = net.coordinator();
        assert!(coord.is_alive(1), "restarted server readmitted");
        assert!(
            coord.counters.restarts_detected >= 1,
            "epoch jump was noticed"
        );
        assert!(coord.counters.readmissions >= 1);
        // In-flight traffic to the old incarnation was discarded, and the
        // metric surface exposes it.
        let metrics = net.metrics();
        assert_eq!(metrics.get("net.epoch_mismatch"), net.epoch_mismatch_drops);
        // The checker agrees nothing was lost.
        let violations = check_histories(&net.histories(), &net.live_map_versioned(), true);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn same_seed_yields_identical_span_timeline() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let run = || run_script(&cfg, vec![script(20)], vec![], SimTime::from_secs(5));
        let (a, b) = (run(), run());
        let events = a.spans.events();
        assert!(!events.is_empty(), "spans were stamped");
        assert_eq!(events, b.spans.events(), "virtual-time timelines replay");
        // A write op's timeline crosses every stage of the paper's
        // decomposition: client send → master deliver → replicate out →
        // backup acks → response back to the client.
        let trace = a.spans.traces()[0];
        let tl = a.spans.timeline(trace);
        let labels: Vec<(SpanKind, &str)> = tl.iter().map(|e| (e.kind, e.label)).collect();
        for needed in [
            (SpanKind::Send, "request"),
            (SpanKind::Deliver, "request"),
            (SpanKind::Send, "replicate"),
            (SpanKind::Deliver, "replicate"),
            (SpanKind::Send, "replicate_ack"),
            (SpanKind::Deliver, "replicate_ack"),
            (SpanKind::Send, "response"),
            (SpanKind::Deliver, "response"),
        ] {
            assert!(labels.contains(&needed), "missing {needed:?} in {labels:?}");
        }
        assert!(tl.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // And the masters recorded the replication ack-wait stage.
        let acked: u64 = a.servers().map(|s| s.ack_wait.count()).sum();
        assert!(acked > 0, "ack-wait histogram populated");
        // The registry export walks the Stats RPC's own enumeration, so no
        // stat a server lists can be missing from it.
        let reg = a.metrics();
        assert!(reg.sum("server.", ".ack_wait_count") > 0);
        let metrics = reg.snapshot();
        for server in a.servers() {
            for (name, _) in server.stats() {
                let key = format!("server.{}.{name}", server.index);
                assert!(metrics.contains_key(&key), "metrics() lacks {key}");
            }
        }
    }

    #[test]
    fn generated_plan_replays_with_an_identical_fault_trace() {
        let cfg = ProtocolConfig::new(4, 2, 2);
        let shape = PlanShape::new(
            (0..cfg.servers).map(crate::protocol::server_id).collect(),
            cfg.replication,
        );
        let plan = FaultPlan::generate(0xD15EA5E, &shape);
        let run = || {
            run_plan(
                &cfg,
                vec![script(40), script(30)],
                &plan,
                SimTime::from_secs(30),
            )
        };
        let a = run();
        let b = run();
        let (fa, fb) = (a.faults.as_ref().unwrap(), b.faults.as_ref().unwrap());
        assert_eq!(fa.trace, fb.trace, "fault event traces replay exactly");
        assert_eq!(fa.stats, fb.stats);
        assert_eq!(a.live_map(), b.live_map());
        assert_eq!(a.epoch_mismatch_drops, b.epoch_mismatch_drops);
        assert_eq!(a.histories(), b.histories());
    }
}
