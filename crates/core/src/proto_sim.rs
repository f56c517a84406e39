//! The simulated engine for the shared protocol: runs
//! [`crate::protocol`]'s node state machines on the deterministic
//! `rmc_sim` event queue, and owns every simulated node's lifecycle — its
//! start, its timer, its crash and restart, and the loop that runs the
//! cluster — whether messages travel at a fixed latency or through
//! [`crate::cost`]'s machine model.
//!
//! Each `send` becomes a delivery event after a fixed latency. Each node
//! has one timer deadline, as [`Runtime::set_timer`] promises on every
//! engine: re-arming keeps the earlier deadline, so a node that re-arms on
//! every event still fires once per deadline. The paper's figures replace
//! the fixed latency with the machine model at the same two chokepoints
//! (`SimNet::cost`): what a delivery waits for, and when the handler's
//! sends leave. Every handler — start, timer or message — is entered
//! through one function against a `QueuedRuntime` that buffers its
//! effects, which are then scheduled in emission order — so a given
//! config, script, and fault plan replays bit-identically. Crashed nodes
//! are `None` slots: messages and timers addressed to them are dropped,
//! exactly like the threaded engine's dead threads.
//!
//! ## Fault injection and restarts
//!
//! [`run_plan`] executes a cluster under an `rmc_chaos`
//! [`FaultPlan`]: every handler runs behind a
//! [`FaultRuntime`] wrapper, so each emitted message is judged
//! (drop / delay / duplicate / partition) by the plan's seeded
//! [`FaultState`] before it reaches the event queue. Scheduled crashes
//! empty the victim's node slot; scheduled restarts boot a fresh
//! [`Server::restarted`] incarnation. A costed run
//! ([`crate::cost::run`]) goes through the same loop with its one kill as
//! the plan's only crash and no fault judge.
//!
//! Every delivery and every timer deadline is stamped with the
//! destination's *incarnation number* at emission time. A restart bumps
//! the incarnation, so messages and timers that were in flight toward the
//! previous life are discarded on arrival instead of leaking into the new
//! one — the message count is exposed as `net.epoch_mismatch` in
//! [`SimNet::metrics`] — and the new life's first arm replaces the old
//! life's deadline even when both fall on one instant.

use std::collections::BTreeMap;

use rmc_chaos::{Crash, FaultPlan, FaultRuntime, FaultState, OpRecord};
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::{MetricsRegistry, NodeId, Runtime, SimDuration, SimTime};
use rmc_sim::{Scheduler, Simulation};

use crate::cost::Costs;
use crate::protocol::{
    msg_class, server_id, AnyNode, ClientOp, CoordinatorNode, Msg, ProtocolConfig, ScriptClient,
    Server, Wake,
};

/// Buffered effects of one handler invocation under the simulated engine.
/// The outbox sits behind a `RefCell` because [`Runtime::send`] takes
/// `&self` (the NIC contract); buffering order is unchanged, so same-seed
/// runs stay bit-identical.
#[derive(Debug)]
struct QueuedRuntime {
    me: NodeId,
    now: SimTime,
    /// `(to, msg, extra_delay)` — the delay comes from `send_after`
    /// (fault-injected delays ride through it).
    out: std::cell::RefCell<Vec<(NodeId, Msg, SimDuration)>>,
    timers: Vec<SimDuration>,
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
    /// Each node's one timer deadline, stamped with the incarnation that
    /// armed it.
    timers: Vec<Option<(SimTime, u64)>>,
    /// Timer handlers run, per node id (exported as `net.timer_fires`).
    timer_fires: Vec<u64>,
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
    /// Builds the cluster of `nodes` (indexed by [`NodeId`]) under `cfg`,
    /// with a fixed one-way message latency.
    pub fn new(cfg: &ProtocolConfig, nodes: Vec<AnyNode>, latency: SimDuration) -> Self {
        let total = nodes.len();
        SimNet {
            cfg: cfg.clone(),
            nodes: nodes.into_iter().map(Some).collect(),
            latency,
            incarnations: vec![0; total],
            timers: vec![None; total],
            timer_fires: vec![0; total],
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
        match self.nodes[server_id(index).0].as_ref() {
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
    /// epoch-mismatch drop count, the timer handlers run, and the fault
    /// interpreter's stats into a fresh [`MetricsRegistry`] under
    /// dotted-path names.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("net.epoch_mismatch")
            .add(self.epoch_mismatch_drops);
        reg.counter("net.timer_fires")
            .add(self.timer_fires.iter().sum());
        if let Some(f) = &self.faults {
            f.stats.export(&reg);
        }
        for node in self.nodes.iter().flatten() {
            node.export_stats(&reg);
        }
        reg
    }
}

/// Enters node `id` for one handler — its start, its timer or a message —
/// behind the plan's fault judge when there is one, and schedules what the
/// handler did. A dead node is not entered: its NIC drops the message.
fn enter(net: &mut SimNet, rt: &mut Scheduler<SimNet>, id: NodeId, wake: Wake) {
    let now = rt.now();
    let mut q = QueuedRuntime::new(id, now);
    let Some(node) = net.nodes.get_mut(id.0).and_then(Option::as_mut) else {
        return;
    };
    if let Wake::Message(from, msg) = &wake {
        msg.record_span(&net.spans, SpanKind::Deliver, *from, id, now);
    }
    match net.faults.as_mut() {
        Some(f) => node.wake(wake, &mut FaultRuntime::new(&mut q, f, msg_class)),
        None => node.wake(wake, &mut q),
    }
    dispatch(net, rt, id, q);
}

/// Schedules the buffered effects of one handler invocation: its timer arms
/// go to the node's one deadline; each emitted message becomes a delivery
/// event one `latency` (plus any fault-injected delay) later, stamped with
/// the destination's current incarnation. Scheduling in emission order
/// inherits the engine's `(time, seq)` ordering, so runs are deterministic.
/// Under a cost model, [`crate::cost::emit`] schedules the messages instead.
fn dispatch(net: &mut SimNet, rt: &mut Scheduler<SimNet>, node: NodeId, q: QueuedRuntime) {
    for after in q.timers {
        arm(net, rt, node, after);
    }
    let outs = q.out.into_inner();
    if net.cost.is_some() {
        return crate::cost::emit(net, rt, node, outs);
    }
    for (to, msg, extra) in outs {
        msg.record_span(&net.spans, SpanKind::Send, node, to, rt.now());
        let inc = net.incarnations.get(to.0).copied().unwrap_or(0);
        let after = net.latency.saturating_add(extra);
        rt.schedule_after(after, move |net, rt| deliver(net, rt, node, to, inc, msg));
    }
}

/// Arms `node`'s one timer `after` from now ([`Runtime::set_timer`]): an
/// earlier deadline its incarnation armed stands; any other is replaced.
/// The deadline fires only while it is still the node's, and never into
/// another incarnation than the one that armed it.
fn arm(net: &mut SimNet, rt: &mut Scheduler<SimNet>, node: NodeId, after: SimDuration) {
    let (at, inc) = (rt.now().saturating_add(after), net.incarnations[node.0]);
    let slot = &mut net.timers[node.0];
    if matches!(*slot, Some((due, armed)) if armed == inc && due <= at) {
        return;
    }
    *slot = Some((at, inc));
    rt.schedule_at(at, move |net: &mut SimNet, rt| {
        if net.timers[node.0] == Some((at, inc)) && net.incarnations[node.0] == inc {
            net.timers[node.0] = None;
            net.timer_fires[node.0] += 1;
            enter(net, rt, node, Wake::Timer);
        }
    });
}

/// Delivers `msg` to `to` if the incarnation it was sent to still lives.
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
    enter(net, rt, to, Wake::Message(from, msg));
}

/// Crashes server `victim`: its slot empties, and what is in flight to it
/// is dropped when it comes due. Under a cost model the machine's queued
/// work dies with it.
fn crash_server(net: &mut SimNet, victim: usize, now: SimTime) {
    net.nodes[server_id(victim).0] = None;
    if let Some(c) = net.cost.as_deref_mut() {
        c.kill(victim, now);
    }
}

/// Boots a fresh incarnation of server `victim`: bumps the slot's
/// incarnation (orphaning the previous life's in-flight messages and
/// timers) and starts a [`Server::restarted`] with an empty store that
/// stays unsynced until the coordinator readmits it.
fn restart_server(net: &mut SimNet, rt: &mut Scheduler<SimNet>, victim: usize) {
    let id = server_id(victim);
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
    enter(net, rt, id, Wake::Start);
}

/// Starts every node of `net`, crashes and restarts servers as `plan`
/// schedules, and runs to `horizon` — or until the cluster is quiet: the
/// plan has quiesced, every client is done, no recovery is pending, and,
/// under a cost model, nothing but heartbeats is in flight and a kill is
/// recovered ([`Costs::quiet`]). The fault judge is whatever `net.faults`
/// holds; `plan` supplies only the crash schedule and the quiesce instant.
pub(crate) fn run(net: SimNet, plan: &FaultPlan, horizon: SimTime) -> Simulation<SimNet> {
    let total = net.nodes.len();
    let mut sim = Simulation::new(net);
    let rt = sim.scheduler_mut();
    for i in 0..total {
        rt.schedule_at(SimTime::ZERO, move |net, rt| {
            enter(net, rt, NodeId(i), Wake::Start)
        });
    }
    for crash in plan.crashes.iter().copied() {
        rt.schedule_at(crash.at, move |net: &mut SimNet, rt| {
            crash_server(net, crash.server, rt.now());
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
    let quiet = |net: &SimNet, now: SimTime| {
        now >= plan.quiesce_at
            && net.clients_done()
            && !net.recovery_pending()
            && net.cost.as_deref().is_none_or(Costs::quiet)
    };
    let chunk = SimDuration::from_millis(20);
    while sim.now() < horizon {
        sim.run_until(sim.now().saturating_add(chunk).min(horizon));
        if quiet(sim.state(), sim.now()) {
            break;
        }
    }
    sim
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
    let nodes = AnyNode::build_cluster(cfg, scripts);
    let mut net = SimNet::new(cfg, nodes, SimDuration::from_micros(100));
    net.faults = Some(FaultState::new(plan.clone()));
    run(net, plan, horizon).into_state()
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
    use crate::protocol::{client_id, Reply};
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
    fn a_client_fires_its_timer_once_per_deadline_not_once_per_arm() {
        // Every op the client begins re-arms its retry timer; the earlier
        // deadline stands, so over 400 ops of a few hundred microseconds
        // each the timer fires about once per retry window.
        let cfg = ProtocolConfig::new(3, 1, 1);
        let puts = (0..400)
            .map(|i| ClientOp::Put {
                key: key(i),
                value: b"v".to_vec(),
            })
            .collect();
        let net = run_script(&cfg, vec![puts], vec![], SimTime::from_secs(5));
        assert!(net.client(&cfg, 0).done);
        let end_ns = net.spans.events().iter().map(|e| e.at_ns).max();
        let windows = end_ns.expect("spans were stamped") / cfg.retry_timeout.as_nanos() + 1;
        let fires = net.timer_fires[client_id(cfg.servers, 0).0];
        assert!(
            (1..=windows + 1).contains(&fires),
            "{fires} timer fires in {windows} retry windows"
        );
        assert_eq!(
            net.metrics().get("net.timer_fires"),
            net.timer_fires.iter().sum()
        );
    }

    #[test]
    fn a_restart_arming_its_previous_lifes_deadline_still_heartbeats() {
        // Server 1 crashes and restarts at t = 0, right after its first
        // start: the new life's first arm lands on the instant the old
        // life left pending. Only the new life's deadline may fire, and it
        // must: its heartbeats are what readmit it.
        let cfg = ProtocolConfig::new(3, 1, 1);
        let mut plan = FaultPlan::quiet();
        plan.crashes.push(Crash {
            at: SimTime::ZERO,
            server: 1,
            restart_after: Some(SimDuration::ZERO),
        });
        plan.quiesce_at = SimTime::from_millis(500);
        let net = run_plan(&cfg, vec![script(20)], &plan, SimTime::from_secs(5));
        assert_eq!(net.server(1).expect("server 1 restarted").epoch(), 1);
        assert!(
            net.timer_fires[server_id(1).0] > 0,
            "the new life never ticked"
        );
        let coord = net.coordinator();
        assert_eq!(coord.counters.restarts_detected, 1);
        assert!(coord.counters.readmissions >= 1, "{:?}", coord.counters);
        assert!(coord.is_alive(1), "the restarted server was not readmitted");
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
