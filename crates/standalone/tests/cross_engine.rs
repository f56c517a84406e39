//! Cross-engine equivalence: the *same* scripted op/crash sequence runs
//! through the simulated engine (`rmc_core::proto_sim`) and a wall-clock
//! engine (`rmc_standalone::Cluster` over channels, then over loopback
//! TCP), and must leave the surviving cluster serving the *identical* live
//! key/value set after recovery.
//!
//! The protocol makes the final state timing-independent: clients retry
//! with stable RIFL sequence numbers (no double-applies), replication acks
//! gate responses (no acked write is lost), and will-based recovery
//! replays every staged replica (version-guarded). So even though the two
//! engines interleave completely differently — one deterministic event
//! queue vs. real preemptive threads vs. real sockets — the converged map
//! is the same.

use std::collections::BTreeMap;
use std::time::Duration;

use rmc_core::proto_sim;
use rmc_core::protocol::{ClientOp, ProtocolConfig, Reply};
use rmc_runtime::{SimDuration, SimTime};
use rmc_standalone::{on_both_fabrics, Cluster, Fabric};

/// Per-client disjoint key space so cross-client interleaving cannot
/// change the final map.
fn key(client: usize, i: usize) -> Vec<u8> {
    format!("c{client}-key{i:04}").into_bytes()
}

/// Puts, overwrites, and deletes — enough to exercise versions, RIFL
/// retries, and tombstone replay.
fn script(client: usize, ops: usize) -> Vec<ClientOp> {
    let mut s = Vec::new();
    for i in 0..ops {
        s.push(ClientOp::Put {
            key: key(client, i),
            value: format!("v{i}").into_bytes(),
        });
    }
    for i in 0..ops / 3 {
        s.push(ClientOp::Put {
            key: key(client, i),
            value: format!("v{i}-rewrite").into_bytes(),
        });
    }
    for i in (0..ops).step_by(5) {
        s.push(ClientOp::Del {
            key: key(client, i),
        });
    }
    s
}

/// The map the script alone determines, independent of engine or crash.
fn expected(clients: usize, ops: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for c in 0..clients {
        for i in 0..ops {
            m.insert(key(c, i), format!("v{i}").into_bytes());
        }
        for i in 0..ops / 3 {
            m.insert(key(c, i), format!("v{i}-rewrite").into_bytes());
        }
        for i in (0..ops).step_by(5) {
            m.remove(&key(c, i));
        }
    }
    m
}

fn cfg(clients: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(4, clients, 2);
    // Coarse wall-clock-safe timings; the simulated engine is indifferent.
    cfg.heartbeat_interval = SimDuration::from_millis(15);
    cfg.failure_timeout = SimDuration::from_millis(150);
    cfg.retry_timeout = SimDuration::from_millis(50);
    cfg
}

on_both_fabrics!(
    same_script_same_crash_same_live_set_as_the_simulation,
    master_kill_restores_exact_pre_crash_live_set,
    handles_and_scripted_clients_answer_alike,
);

/// One client body on three engines: the same op list through a
/// synchronous handle, through a scripted client on the same fabric, and
/// through a scripted client under the simulation draws the same replies —
/// values and versions — and leaves the same versioned live set.
fn handles_and_scripted_clients_answer_alike<F: Fabric>() {
    let mut ops = script(0, 30);
    for i in [0, 1, 5, 29, 30] {
        ops.push(ClientOp::Get { key: key(0, i) });
    }
    // `Client::del` does not return the tombstone's version.
    let comparable = |replies: &[Reply]| -> Vec<Reply> {
        let blank = |(op, reply): (&ClientOp, &Reply)| match op {
            ClientOp::Del { .. } => Reply::Done { version: 0 },
            _ => reply.clone(),
        };
        ops.iter().zip(replies).map(blank).collect()
    };

    let net = proto_sim::run_script(&cfg(1), vec![ops.clone()], vec![], SimTime::from_secs(30));
    let sim_replies = comparable(&net.client(&cfg(1), 0).results);
    assert_eq!(sim_replies.len(), ops.len(), "sim client finished");

    let cluster = Cluster::<F>::start_scripted(cfg(1), vec![ops.clone()]);
    cluster.wait_for_scripted_clients(Duration::from_secs(60));
    let scripted = cluster.shutdown();

    let (cluster, mut clients) = Cluster::<F>::start(cfg(1));
    let c = &mut clients[0];
    let handle_replies: Vec<Reply> = ops
        .iter()
        .map(|op| match op {
            ClientOp::Put { key, value } => Reply::Done {
                version: c.put_versioned(key, value).expect("put"),
            },
            ClientOp::Get { key } => Reply::Value(c.get(key).expect("get")),
            ClientOp::Del { key } => {
                c.del(key).expect("del");
                Reply::Done { version: 0 }
            }
        })
        .collect();
    let by_handle = cluster.shutdown();

    assert_eq!(comparable(&scripted.clients[0].1), sim_replies);
    assert_eq!(handle_replies, sim_replies);
    let sim_live = net.live_map_versioned();
    assert_eq!(scripted.live_versioned, sim_live);
    assert_eq!(by_handle.live_versioned, sim_live);
    assert_eq!(net.live_map(), expected(1, 30));
}

fn same_script_same_crash_same_live_set_as_the_simulation<F: Fabric>() {
    let clients = 2;
    let ops = 60;
    let scripts: Vec<Vec<ClientOp>> = (0..clients).map(|c| script(c, ops)).collect();
    let victim = 1;

    // Engine 1: deterministic simulation, crash mid-script.
    let net = proto_sim::run_script(
        &cfg(clients),
        scripts.clone(),
        vec![(SimTime::from_millis(5), victim)],
        SimTime::from_secs(30),
    );
    for c in 0..clients {
        assert!(net.client(&cfg(clients), c).done, "sim client {c} finished");
    }
    let sim_map = net.live_map();

    // Engine 2: real threads on the wall clock, crash mid-script.
    let cluster = Cluster::<F>::start_scripted(cfg(clients), scripts);
    std::thread::sleep(Duration::from_millis(5));
    cluster.kill_server(victim);
    cluster.wait_for_scripted_clients(Duration::from_secs(60));
    // Clients may finish before the coordinator's failure timeout elapses;
    // give detection + recovery time to run before freezing the state.
    std::thread::sleep(Duration::from_millis(1500));
    let report = cluster.shutdown();
    for (c, _, done) in &report.clients {
        assert!(done, "wall-clock client {c} finished");
    }

    let want = expected(clients, ops);
    assert_eq!(
        sim_map, want,
        "simulated engine converges to the script's map"
    );
    assert_eq!(
        report.live, want,
        "wall-clock engine converges to the script's map"
    );
    assert_eq!(sim_map, report.live, "engines agree key for key");
    assert!(
        report.owners.iter().all(|&o| o != victim),
        "victim owns nothing after recovery"
    );
}

/// Acceptance criterion: kill a master thread and assert recovery restores
/// the exact pre-crash live set — and that no client hangs while it
/// happens (wall-clock liveness).
fn master_kill_restores_exact_pre_crash_live_set<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(cfg(1));
    let c = &mut clients[0];

    // Build a known pre-crash state through the normal write path.
    let mut pre_crash = BTreeMap::new();
    for i in 0..120 {
        let (k, v) = (key(0, i), format!("val{i}").into_bytes());
        c.put(&k, &v).expect("pre-crash put");
        pre_crash.insert(k, v);
    }
    for i in (0..120).step_by(9) {
        c.del(&key(0, i)).expect("pre-crash del");
        pre_crash.remove(&key(0, i));
    }

    cluster.kill_server(2);

    // Liveness: reads and writes complete across detection + recovery
    // (the client retries internally; a hang fails the put's own bound).
    for i in 0..120 {
        let got = c.get(&key(0, i)).expect("read never hangs across the kill");
        assert_eq!(
            got.as_ref(),
            pre_crash.get(&key(0, i)),
            "key {i} readable post-crash"
        );
    }

    let report = cluster.shutdown();
    assert_eq!(
        report.live, pre_crash,
        "recovery restored the exact pre-crash live set"
    );
    assert!(
        report.owners.iter().all(|&o| o != 2),
        "victim's buckets were reassigned"
    );
}
