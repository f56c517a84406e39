//! Harness tests. A scenario that holds on any fabric is written once,
//! generic over [`Fabric`], and instantiated for both by [`on_both_fabrics`];
//! what only one transport can exhibit (epoch-stamp drops, connection
//! death) stays a plain test on that fabric.

use super::*;
use rmc_chaos::{check_histories, Crash, Partition};
use rmc_core::protocol::{bucket_for, coordinator_id, PROTO_TABLE};
use rmc_obs::span::SpanKind;

const SERVERS: usize = 3;
const REPLICATION: usize = 2;

fn small_cfg(servers: usize, clients: usize, replication: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(servers, clients, replication);
    // Wall-clock-friendly timings: coarse enough that scheduler jitter
    // cannot fake a death, fine enough that tests stay fast.
    cfg.heartbeat_interval = SimDuration::from_millis(15);
    cfg.failure_timeout = SimDuration::from_millis(150);
    cfg.retry_timeout = SimDuration::from_millis(50);
    cfg
}

fn kv(i: usize) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key{i:03}").into_bytes(),
        format!("val{i}").into_bytes(),
    )
}

on_both_fabrics!(
    put_get_del_roundtrip,
    spans_and_stats_flow_over_the_fabric,
    shutdown_report_holds_every_stat_the_stats_rpc_lists,
    one_send_and_one_deliver_per_unretried_message,
    node_stats_ignores_a_reply_from_another_node,
    kill_and_recover_preserves_live_set,
    give_up_is_counted_and_reported,
    seeded_chaos_plan_replays,
);

fn put_get_del_roundtrip<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(small_cfg(SERVERS, 1, 1));
    let c = &mut clients[0];
    for i in 0..50 {
        c.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    assert_eq!(c.get(b"k7").unwrap(), Some(b"v7".to_vec()));
    c.del(b"k7").unwrap();
    assert_eq!(c.get(b"k7").unwrap(), None);
    let report = cluster.shutdown();
    assert_eq!(report.live.len(), 49);
    assert_eq!(report.live.get(b"k8".as_slice()), Some(&b"v8".to_vec()));
    assert!(!report.spans.is_empty(), "spans must be stamped");
}

fn spans_and_stats_flow_over_the_fabric<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(small_cfg(SERVERS, 1, REPLICATION));
    let c = &mut clients[0];
    for i in 0..10 {
        c.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    assert_eq!(c.get(b"k3").unwrap(), Some(b"v3".to_vec()));
    // Live stats over the fabric, from a master and from the coordinator.
    let stats = c.node_stats(server_id(0)).unwrap();
    assert!(stats.iter().any(|(k, _)| k == "ack_wait_count"));
    let coord = c.node_stats(coordinator_id()).unwrap();
    assert!(coord.iter().any(|(k, _)| k == "map_version"));
    // A replicated put's timeline crosses every hop of the paper's
    // decomposition, stamped at the fabric chokepoints.
    let spans = cluster.spans();
    let labels: Vec<(SpanKind, &str)> = spans.events().iter().map(|e| (e.kind, e.label)).collect();
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
        assert!(labels.contains(&needed), "missing {needed:?}");
    }
    let tl = spans.timeline(spans.traces()[0]);
    assert!(tl.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    let report = cluster.shutdown();
    assert!(report.metrics.sum("server.", ".ack_wait_count") > 0);
}

/// The shutdown report and the Stats RPC read one enumeration: a stat a
/// server lists live cannot be missing from `ClusterReport.metrics`.
fn shutdown_report_holds_every_stat_the_stats_rpc_lists<F: Fabric>() {
    let cfg = small_cfg(SERVERS, 1, REPLICATION);
    let names = rmc_core::protocol::Server::new(0, cfg.clone()).stats();
    let (cluster, mut clients) = Cluster::<F>::start(cfg);
    clients[0].put(b"k", b"v").unwrap();
    let metrics = cluster.shutdown().metrics.snapshot();
    for i in 0..SERVERS {
        for (name, _) in &names {
            let key = format!("server.{i}.{name}");
            assert!(metrics.contains_key(&key), "report lacks {key}");
        }
    }
}

/// The span invariant consumers of the timelines rely on (the benchmark's
/// hop report discards any timeline that is not clean): each fabric stamps
/// `Send` once in `post` and `Deliver` once at its delivery chokepoint, so
/// a message that was neither retried nor fault-duplicated shows exactly
/// one of each.
fn one_send_and_one_deliver_per_unretried_message<F: Fabric>() {
    let mut cfg = small_cfg(SERVERS, 1, REPLICATION);
    // Nothing may be re-sent for the count to be exact.
    cfg.retry_timeout = SimDuration::from_secs(5);
    let (cluster, mut clients) = Cluster::<F>::start(cfg);
    let c = &mut clients[0];
    for i in 0..20 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        assert_eq!(c.get(&k).unwrap(), Some(v));
    }
    assert_eq!(cluster.metrics().sum("client.", ".retries"), 0);
    let spans = cluster.spans();
    assert_eq!(spans.traces().len(), 40, "one trace per op");
    for trace in spans.traces() {
        let mut hops: BTreeMap<(&str, usize, usize), (u32, u32)> = BTreeMap::new();
        for e in spans.timeline(trace) {
            let hop = hops.entry((e.label, e.from, e.to)).or_default();
            match e.kind {
                SpanKind::Send => hop.0 += 1,
                SpanKind::Deliver => hop.1 += 1,
            }
        }
        // A get is request + response; a put adds a replicate and an ack
        // per backup.
        assert!(
            hops.len() == 2 || hops.len() == 2 + 2 * REPLICATION,
            "{trace:?}: {hops:?}"
        );
        for (hop, counts) in hops {
            assert_eq!(counts, (1, 1), "{trace:?} hop {hop:?}: (sends, delivers)");
        }
    }
    cluster.shutdown();
}

/// A `StatsReply` from node B sitting in the inbox — the late answer to a
/// timed-out ask, or a duplicate — must not be reported as node A's stats.
fn node_stats_ignores_a_reply_from_another_node<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(small_cfg(SERVERS, 1, 1));
    let c = &mut clients[0];
    for _ in 0..2 {
        c.fabric().deliver(Event::Msg {
            from: server_id(1),
            msg: Msg::StatsReply {
                stats: vec![("from_the_wrong_node".into(), 1)],
            },
        });
    }
    let stats = c.node_stats(server_id(0)).unwrap();
    assert!(
        stats.iter().any(|(k, _)| k == "ack_wait_count"),
        "server 0's own stats"
    );
    assert!(
        !stats.iter().any(|(k, _)| k == "from_the_wrong_node"),
        "another node's reply reported as server 0's: {stats:?}"
    );
    cluster.shutdown();
}

fn kill_and_recover_preserves_live_set<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(small_cfg(SERVERS, 1, REPLICATION));
    let c = &mut clients[0];
    let mut expected = BTreeMap::new();
    for i in 0..80 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    cluster.kill_server(1);
    // Writes keep succeeding across the crash (retries ride out detection
    // + recovery — over TCP, re-dialing through connection failures).
    for i in 80..100 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    let metrics = cluster.metrics();
    let report = cluster.shutdown();
    assert!(report.owners.iter().all(|&o| o != 1), "victim owns nothing");
    assert_eq!(
        report.live, expected,
        "recovery restored the exact live set"
    );
    // Riding out the crash required retrying against the dead owner.
    assert!(
        metrics.sum("client.", ".retries") > 0,
        "crash recovery without a single client retry"
    );
}

fn give_up_is_counted_and_reported<F: Fabric>() {
    // A single server with no replicas: killing it leaves nothing to
    // recover onto (the coordinator refuses to declare the last server
    // dead), so a write can only give up.
    let (cluster, mut clients) = Cluster::<F>::start(small_cfg(1, 1, 0));
    let c = &mut clients[0];
    c.put(b"k", b"v").unwrap();
    cluster.kill_server(0);
    c.set_op_budget(Duration::from_millis(400));
    let err = c.put(b"k", b"w");
    assert!(err.is_err(), "write to a dead single-server cluster");
    assert_eq!(cluster.metrics().sum("client.", ".giveups"), 1);
    assert!(cluster.metrics().sum("client.", ".retries") > 0);
    cluster.shutdown();
}

/// A seeded chaos plan — drops, duplicates, delays, one partition, and one
/// server kill(+restart) — judged where messages enter the fabric, leaves
/// clean histories.
fn seeded_chaos_plan_replays<F: Fabric>() {
    const CLIENTS: usize = 2;
    const OPS: usize = 12;
    let cfg = small_cfg(4, CLIENTS, REPLICATION);
    let scripts: Vec<Vec<ClientOp>> = (0..CLIENTS)
        .map(|cl| {
            let key = |i: usize| format!("c{cl}k{i:03}").into_bytes();
            let mut s = Vec::new();
            for i in 0..OPS {
                s.push(ClientOp::Put {
                    key: key(i),
                    value: format!("c{cl}v{i}").into_bytes(),
                });
                if i % 3 == 0 {
                    s.push(ClientOp::Get { key: key(i) });
                }
                if i % 5 == 4 {
                    s.push(ClientOp::Del { key: key(i - 2) });
                }
            }
            s
        })
        .collect();
    let mut plan = FaultPlan::quiet();
    plan.seed = 0x5eed_cafe_0000_0001;
    plan.drop_prob = 0.02;
    plan.dup_prob = 0.04;
    plan.delay_prob = 0.04;
    plan.max_delay = SimDuration::from_millis(20);
    plan.backup_write_fail_prob = 0.02;
    plan.partitions.push(Partition {
        start: SimTime::ZERO.saturating_add(SimDuration::from_millis(200)),
        heal: SimTime::ZERO.saturating_add(SimDuration::from_millis(450)),
        group: vec![server_id(3)],
        symmetric: true,
    });
    plan.crashes.push(Crash {
        at: SimTime::ZERO.saturating_add(SimDuration::from_millis(150)),
        server: 1,
        restart_after: Some(SimDuration::from_millis(600)),
    });
    plan.quiesce_at = SimTime::ZERO.saturating_add(SimDuration::from_secs(3600));

    let report = Cluster::<F>::run_plan(cfg, scripts, &plan, Duration::from_secs(60));
    assert!(
        report.clients.iter().all(|(_, _, done)| *done),
        "scripts unfinished under chaos"
    );
    let violations = check_histories(&report.histories, &report.live_versioned, true);
    assert!(
        violations.is_empty(),
        "chaos violated invariants: {violations:?}\nmetrics: {:?}",
        report.metrics.snapshot()
    );
    assert!(
        report.metrics.get("faults.judged") > 0,
        "fault layer never engaged"
    );
}

/// The channel fabric with server 0's inbox never empty: whenever nothing
/// real is waiting it yields one more message the server ignores.
#[derive(Debug)]
struct Backlogged(Arc<ChannelFabric>);

impl Fabric for Backlogged {
    type Net = <ChannelFabric as Fabric>::Net;
    type Inbox = (<ChannelFabric as Fabric>::Inbox, NodeId);

    fn build(total: usize, listening: usize) -> Self::Net {
        ChannelFabric::build(total, listening)
    }
    fn attach(net: &mut Self::Net, id: NodeId, epoch: u64) -> (Arc<Self>, Self::Inbox) {
        let (fabric, inbox) = ChannelFabric::attach(net, id, epoch);
        (Arc::new(Backlogged(fabric)), (inbox, id))
    }
    fn sever(&self) {
        self.0.sever();
    }
    fn me(&self) -> NodeId {
        self.0.me()
    }
    fn post(&self, to: NodeId, msg: Msg, extra: SimDuration) {
        self.0.post(to, msg, extra);
    }
    fn deliver(&self, event: Event<Msg>) {
        self.0.deliver(event);
    }
    fn recv(
        (inbox, me): &mut Self::Inbox,
        timeout: Duration,
    ) -> Result<Event<Msg>, RecvTimeoutError> {
        if *me != server_id(0) {
            return ChannelFabric::recv(inbox, timeout);
        }
        match ChannelFabric::recv(inbox, Duration::ZERO) {
            Err(RecvTimeoutError::Timeout) => Ok(Event::Msg {
                from: *me,
                msg: Msg::MapRequest,
            }),
            other => other,
        }
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn registry(&self) -> &MetricsRegistry {
        self.0.registry()
    }
    fn spans(&self) -> SpanRecorder {
        self.0.spans()
    }
}

/// Timer starvation: a healthy server that always finds a message ready
/// must still tick — its heartbeats keep leaving, and the coordinator,
/// several failure timeouts on, has suspected nobody.
#[test]
fn a_backlogged_server_keeps_heartbeating() {
    let cfg = small_cfg(SERVERS, 1, REPLICATION);
    let wait = Duration::from_nanos(cfg.failure_timeout.as_nanos()) * 4;
    let (cluster, mut clients) = Cluster::<Backlogged>::start(cfg);
    thread::sleep(wait);
    let coord = clients[0].node_stats(coordinator_id()).unwrap();
    let stat = |name: &str| coord.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    assert_eq!(stat("map_version"), Some(0), "a server was declared dead");
    assert_eq!(stat("readmissions"), Some(0));
    // The backlogged server still serves, behind its backlog.
    clients[0].put(b"k", b"v").unwrap();
    assert_eq!(cluster.shutdown().live.len(), 1);
}

/// Channel fabric: traffic queued for a dead incarnation is dropped by its
/// epoch stamp, never delivered to the restarted one.
#[test]
fn restart_rejects_stale_in_flight_messages() {
    let (mut cluster, mut clients) = MiniCluster::start(small_cfg(SERVERS, 1, REPLICATION));
    let c = &mut clients[0];
    let mut expected = BTreeMap::new();
    for i in 0..60 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    cluster.kill_server(1);
    // Keep writing while the victim is dead: retries, map updates, and
    // replication traffic addressed to the old incarnation pile up on
    // its channel.
    for i in 60..80 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    cluster.restart_server(1);
    // Let the restarted incarnation drain its stale queue and be
    // readmitted via its epoch-stamped heartbeats.
    thread::sleep(Duration::from_millis(600));
    for i in 80..90 {
        let (k, v) = kv(i);
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    let report = cluster.shutdown();
    assert_eq!(report.live, expected, "no write lost across the restart");
    assert!(
        report.metrics.get("net.epoch_mismatch") > 0,
        "stale in-flight messages must be dropped by epoch, not delivered"
    );
    assert!(
        report.metrics.get("coord.restarts_detected") > 0,
        "the coordinator must notice the epoch jump"
    );
}

/// TCP fabric: RIFL exactly-once across a dropped connection. The client's
/// pooled connections are severed after an acked write; the verbatim
/// re-send (same sequence number) arrives over a *fresh* connection and
/// must echo the recorded reply without re-applying.
#[test]
fn rifl_replays_across_a_dropped_connection() {
    let (cluster, mut clients) = NetCluster::start(small_cfg(SERVERS, 1, REPLICATION));
    let c = &mut clients[0];
    let v1 = c.put_versioned(b"reconnect-key", b"first").unwrap();
    let v2 = c.put_versioned(b"reconnect-key", b"second").unwrap();
    assert!(v2 > v1);
    // Kill every connection this client holds, mid-conversation.
    c.fabric().drop_connections();
    for _ in 0..3 {
        match c.duplicate_last().unwrap() {
            Reply::Done { version } => {
                assert_eq!(version, v2, "duplicate must echo the recorded version")
            }
            other => panic!("unexpected duplicate reply: {other:?}"),
        }
    }
    assert_eq!(c.get(b"reconnect-key").unwrap(), Some(b"second".to_vec()));
    let metrics = cluster.metrics();
    assert!(
        metrics.get("wire.reconnects") > 0,
        "the severed connections must have been re-dialed"
    );
    let report = cluster.shutdown();
    assert_eq!(
        report.live_versioned.get(b"reconnect-key".as_slice()),
        Some(&(b"second".to_vec(), v2)),
        "the store must hold the original version, applied once"
    );
    let replays: u64 = (0..SERVERS)
        .map(|i| report.metrics.get(&format!("server.{i}.rifl_replays")))
        .sum();
    assert!(replays >= 3, "RIFL must have replayed the recorded reply");
}

/// TCP fabric: NIC health lands in the same registry as the protocol's
/// counters.
#[test]
fn wire_health_is_counted_in_the_cluster_registry() {
    let (cluster, mut clients) = NetCluster::start(small_cfg(SERVERS, 1, 1));
    clients[0].put(b"k", b"v").unwrap();
    let metrics = cluster.metrics();
    assert!(metrics.get("wire.connects") > 0, "no dials counted");
    assert!(metrics.get("wire.frames_tx") > 0);
    assert!(metrics.get("wire.frames_rx") > 0);
    assert_eq!(metrics.get("wire.decode_errors"), 0);
    cluster.shutdown();
}

/// TCP fabric: the Trace RPC answers with the RIFL-keyed spans the node
/// recorded, so a client finds its own put delivered at the key's owner.
#[test]
fn the_trace_rpc_serves_the_spans_a_node_recorded() {
    let cfg = small_cfg(SERVERS, 1, REPLICATION);
    let (cluster, mut clients) = NetCluster::start(cfg.clone());
    let c = &mut clients[0];
    c.put(b"k", b"v").unwrap();
    let (client, seq) = (c.node().0, c.core.seq());
    // A fresh cluster routes by `ClientCore`'s initial round-robin map.
    let owner = server_id(bucket_for(PROTO_TABLE, b"k", cfg.buckets) % cfg.servers);
    let dump = c.node_trace(owner).unwrap();
    let delivered = format!(
        "deliver {:<13} {client} -> {}  ({client}, {seq})",
        "request", owner.0
    );
    assert!(dump.lines().any(|l| l.ends_with(&delivered)), "{dump}");
    assert!(dump.ends_with(" 0 dropped)\n"), "{dump}");
    cluster.shutdown();
}
