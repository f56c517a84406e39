//! End-to-end tests of the paper's cluster: the protocol cluster under the
//! cost layer (`rmc_core::cost`). Data-plane correctness, replication and
//! recovery invariants, determinism, and the qualitative behaviours the
//! paper's findings rest on.

use rmc_chaos::{check_histories, Crash, FaultPlan};
use rmc_core::cost::{self, Run};
use rmc_core::protocol::{bucket_for, replica_targets, ClientOp, ProtocolConfig, PROTO_TABLE};
use rmc_core::{proto_sim, ClientAffinity, ClusterConfig};
use rmc_logstore::LogEntry;
use rmc_sim::{SimDuration, SimTime};
use rmc_ycsb::{Mix, StandardWorkload, WorkloadSpec};

fn small_workload(w: StandardWorkload, records: u64, ops: u64) -> WorkloadSpec {
    WorkloadSpec::standard(w)
        .with_record_count(records)
        .with_ops_per_client(ops)
}

fn workload(records: u64, ops: u64) -> WorkloadSpec {
    small_workload(StandardWorkload::C, records, ops)
}

fn run(cfg: &ClusterConfig) -> Run {
    cost::run(cfg, None, SimDuration::ZERO, false)
}

fn run_killing(cfg: &ClusterConfig, at: SimTime, victim: usize, min: SimDuration) -> Run {
    cost::run(cfg, Some((at, victim)), min, false)
}

/// Every pre-loaded record the surviving cluster no longer serves.
fn missing(run: &Run, w: &WorkloadSpec) -> Vec<u64> {
    let live = run.net.live_map();
    (0..w.record_count)
        .filter(|&i| !live.contains_key(&w.key_for(i)))
        .collect()
}

#[test]
fn read_only_run_completes_all_ops() {
    let cfg = ClusterConfig::new(3, 4, small_workload(StandardWorkload::C, 500, 1_000));
    let report = run(&cfg).report;
    assert_eq!(report.completed_ops, 4_000);
    assert!(report.throughput_ops > 10_000.0);
    assert_eq!(report.timeout_ops, 0);
    assert!(!report.crashed);
}

#[test]
fn update_heavy_run_stores_real_data() {
    let workload = small_workload(StandardWorkload::A, 200, 2_000);
    let cfg = ClusterConfig::new(2, 2, workload.clone());
    let run = run(&cfg);
    assert_eq!(run.report.completed_ops, 4_000);
    assert!(run.report.client_stats.writes > 1_500, "A is half updates");
    // Every record is served by its owning master, most of them rewritten.
    assert!(missing(&run, &workload).is_empty());
    let versions = run.net.live_map_versioned();
    let rewritten = versions.values().filter(|(_, v)| *v > 1).count();
    assert!(rewritten > 150, "{rewritten} of 200 records rewritten");
}

#[test]
fn per_node_cpu_has_dispatch_floor_when_idle() {
    // No client ops, 5-second idle window: CPU = the polling dispatch core.
    let workload = small_workload(StandardWorkload::C, 100, 0);
    let cfg = ClusterConfig::new(2, 1, workload);
    let report = cost::run(&cfg, None, SimDuration::from_secs(5), false).report;
    let (lo, hi) = report.cpu_min_max_pct();
    assert!((24.0..=26.0).contains(&lo), "idle CPU floor, got {lo}");
    assert!((24.0..=26.0).contains(&hi));
    // Idle power is well below loaded power but above base.
    assert!(report.avg_node_watts() > 70.0);
    assert!(report.avg_node_watts() < 85.0);
}

#[test]
fn same_seed_same_report_different_seed_differs() {
    let mk = |seed| {
        let cfg = ClusterConfig::new(3, 3, small_workload(StandardWorkload::A, 300, 1_500))
            .with_replication(2)
            .with_seed(seed);
        run(&cfg).report
    };
    let a = mk(7);
    let b = mk(7);
    let c = mk(8);
    assert_eq!(a.completed_ops, b.completed_ops);
    assert_eq!(a.duration_secs, b.duration_secs);
    assert_eq!(a.mean_latency_us, b.mean_latency_us);
    assert_eq!(a.energy.total_energy_joules, b.energy.total_energy_joules);
    assert_ne!(
        (a.duration_secs, a.mean_latency_us),
        (c.duration_secs, c.mean_latency_us),
        "different seeds should perturb the run"
    );
}

/// Two same-seed runs across a kill and its recovery report the same, to the
/// last field.
#[test]
fn same_seed_runs_report_identically_across_a_kill() {
    let cfg = ClusterConfig::new(4, 2, small_workload(StandardWorkload::A, 400, 600))
        .with_replication(2)
        .with_seed(3);
    let mk = || {
        format!(
            "{:?}",
            run_killing(&cfg, SimTime::from_millis(20), 1, SimDuration::ZERO).report
        )
    };
    let a = mk();
    assert!(a.contains("recovery: Some"), "{a}");
    assert_eq!(a, mk());
}

#[test]
fn replication_slows_updates_monotonically() {
    // Finding 3's core shape at miniature scale.
    let mut last = f64::INFINITY;
    for r in [0u32, 1, 2, 3] {
        let cfg = ClusterConfig::new(5, 4, small_workload(StandardWorkload::A, 300, 2_000))
            .with_replication(r);
        let report = run(&cfg).report;
        assert!(
            report.throughput_ops < last * 1.02,
            "R={r}: {} should not exceed R-1's {last}",
            report.throughput_ops
        );
        last = report.throughput_ops;
    }
}

#[test]
fn backups_hold_replicas_after_replicated_run() {
    let cfg = ClusterConfig::new(4, 2, small_workload(StandardWorkload::A, 200, 1_000))
        .with_replication(2);
    let run = run(&cfg);
    // Every master log segment is staged, byte for byte, on its 2 ring
    // backups and on no other server.
    for m in 0..4 {
        let log = &run.net.server(m).expect("alive").store;
        let log = log.log();
        let targets = replica_targets(m, 4, 2, &[true; 4]);
        for b in 0..4 {
            let held = run.net.server(b).expect("alive").storage().segments_of(m);
            if !targets.contains(&b) {
                assert!(held.is_empty(), "server {b} backs up master {m}");
                continue;
            }
            assert_eq!(held.len(), log.segment_ids().len(), "{m} on {b}");
            for (seg, bytes) in held {
                let segment = log.segment(rmc_logstore::SegmentId(seg)).expect("listed");
                assert_eq!(bytes, segment.as_bytes(), "replica of ({m},{seg}) on {b}");
            }
        }
    }
}

#[test]
fn crash_recovery_restores_all_data() {
    // Kill a server mid-run; afterwards every pre-loaded record must be
    // readable from the surviving masters (real bytes, really replayed).
    let records = 400;
    let workload = small_workload(StandardWorkload::A, records, 500);
    let cfg = ClusterConfig::new(4, 2, workload.clone())
        .with_replication(2)
        .with_seed(11);
    let run = run_killing(&cfg, SimTime::from_millis(50), 1, SimDuration::from_secs(2));
    let report = &run.report;
    let recovery = report
        .recovery
        .as_ref()
        .expect("recovery must have happened");
    assert_eq!(recovery.crashed_server, 1);
    assert!(recovery.duration_secs > 0.0);
    assert!(recovery.replayed_entries > 0);
    assert!(!report.per_client_latency_timelines.is_empty());
    assert_eq!(missing(&run, &workload), Vec::<u64>::new());
}

#[test]
fn recovery_leaves_cluster_readable() {
    let records = 300u64;
    let workload = small_workload(StandardWorkload::C, records, 200);
    let cfg = ClusterConfig::new(3, 1, workload.clone())
        .with_replication(2)
        .with_seed(5);
    let run = run_killing(&cfg, SimTime::from_millis(10), 0, SimDuration::ZERO);
    let coord = run.net.coordinator();
    assert!(!coord.recovery_pending(), "recovery finished");
    assert!(!coord.is_alive(0));
    let missing = missing(&run, &workload);
    assert!(missing.is_empty(), "{missing:?} lost in recovery");
    // The dead master owns nothing afterwards.
    assert!(run.net.owners().iter().all(|&o| o != 0));
}

#[test]
fn recovery_slows_with_replication_factor() {
    // Finding 6 at miniature scale: higher R → longer recovery.
    let mut last = 0.0;
    for r in [1u32, 3] {
        let mut workload = small_workload(StandardWorkload::C, 30_000, 0);
        workload.value_bytes = 4096;
        let cfg = ClusterConfig::new(4, 1, workload)
            .with_replication(r)
            .with_seed(3);
        let run = run_killing(&cfg, SimTime::from_secs(1), 2, SimDuration::from_secs(3));
        let rec = run.report.recovery.expect("recovery ran");
        assert!(
            rec.duration_secs > last,
            "R={r} recovery {} should exceed previous {last}",
            rec.duration_secs
        );
        last = rec.duration_secs;
    }
}

#[test]
fn throttled_clients_scale_linearly() {
    // Fig 13's premise: with client-side rate caps, aggregate throughput is
    // clients × rate.
    for clients in [2usize, 4, 8] {
        let cfg = ClusterConfig::new(3, clients, small_workload(StandardWorkload::A, 300, 1_000))
            .with_replication(2)
            .with_throttle(500.0);
        let report = run(&cfg).report;
        let expect = clients as f64 * 500.0;
        let got = report.throughput_ops;
        assert!(
            (expect * 0.85..expect * 1.1).contains(&got),
            "{clients} clients at 500 req/s: got {got}, expected ~{expect}"
        );
    }
}

#[test]
fn disk_timeline_shows_recovery_io() {
    let mut workload = small_workload(StandardWorkload::C, 20_000, 0);
    workload.value_bytes = 4096;
    let cfg = ClusterConfig::new(4, 1, workload)
        .with_replication(2)
        .with_seed(9);
    let report = run_killing(&cfg, SimTime::from_secs(2), 1, SimDuration::from_secs(4)).report;
    let total_read: f64 = report.disk_timeline.iter().map(|&(_, r, _)| r).sum();
    let total_write: f64 = report.disk_timeline.iter().map(|&(_, _, w)| w).sum();
    assert!(total_read > 0.0, "recovery must read from backup disks");
    assert!(total_write > 0.0, "re-replication must write to disks");
}

#[test]
fn energy_report_consistent() {
    let cfg = ClusterConfig::new(3, 3, small_workload(StandardWorkload::C, 300, 3_000));
    let report = run(&cfg).report;
    let e = &report.energy;
    assert_eq!(e.per_node_avg_watts.len(), 3);
    // Energy ≈ avg power × nodes × duration (within sampling granularity).
    let approx = e.cluster_avg_watts * 3.0 * report.duration_secs.ceil();
    assert!(
        (e.total_energy_joules - approx).abs() / approx < 0.25,
        "energy {} vs approx {approx}",
        e.total_energy_joules
    );
    assert!(report.ops_per_joule > 0.0);
}

#[test]
fn all_client_ops_complete_across_crash() {
    // Liveness: every client operation eventually completes even when a
    // master dies mid-run — a client retries its op into the new map.
    let workload = small_workload(StandardWorkload::A, 400, 3_000);
    let cfg = ClusterConfig::new(4, 3, workload)
        .with_replication(2)
        .with_seed(17);
    let report = run_killing(&cfg, SimTime::from_millis(20), 2, SimDuration::ZERO).report;
    let recovery = report
        .recovery
        .as_ref()
        .expect("crash must have triggered recovery");
    assert_eq!(
        report.completed_ops, 9_000,
        "every op must complete despite the crash"
    );
    // The ops that waited out the recovery show up as high-latency tail.
    assert!(
        report.client_stats.latency.max() as f64 / 1e9 >= recovery.duration_secs * 0.9,
        "some op should have waited for the recovery"
    );
}

/// The figures' substrate under the correctness checker: a Fig 9-shaped
/// cluster (10 servers, R4, the middle one killed) while one client
/// rewrites the victim's records and another everyone else's. Every acked
/// write survives, none applies twice, and every record reads back.
#[test]
fn a_killed_server_under_the_cost_layer_loses_no_acked_write() {
    let mut workload = small_workload(StandardWorkload::A, 2_000, 400);
    workload.mix = Mix {
        read: 0.0,
        update: 1.0,
    };
    let mut cfg = ClusterConfig::new(10, 2, workload.clone())
        .with_replication(4)
        .with_seed(42);
    cfg.client_affinity = Some(vec![ClientAffinity::On(5), ClientAffinity::NotOn(5)]);
    let run = cost::run(
        &cfg,
        Some((SimTime::from_millis(5), 5)),
        SimDuration::ZERO,
        true,
    );
    let rec = run
        .report
        .recovery
        .as_ref()
        .expect("the kill was recovered");
    assert!(rec.replayed_entries > 0);
    assert_eq!(run.report.completed_ops, 800);
    let histories = run.net.histories();
    assert_eq!(histories.iter().map(Vec::len).sum::<usize>(), 800);
    // The checker judges the keys the clients wrote; the rest were loaded.
    let mut live = run.net.live_map_versioned();
    let written: std::collections::BTreeSet<&Vec<u8>> =
        histories.iter().flatten().map(|op| &op.key).collect();
    assert!(written.len() > 300, "{} keys rewritten", written.len());
    live.retain(|k, _| written.contains(k));
    let violations = check_histories(&histories, &live, true);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(missing(&run, &workload), Vec::<u64>::new());
}

fn script_cluster(servers: usize, replication: usize) -> ProtocolConfig {
    ProtocolConfig::new(servers, 1, replication)
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

#[test]
fn sequential_double_crash_loses_nothing() {
    // Kill server 0, let recovery finish, then kill server 1 (which now
    // holds recovered data). Everything must still be readable: this
    // exercises the re-replication of what a recovery replayed.
    let cfg = script_cluster(4, 2);
    let script: Vec<ClientOp> = (0..400)
        .map(|i| ClientOp::Put {
            key: key(i),
            value: vec![i as u8; 8],
        })
        .collect();
    // The script is done long before the second kill: the plan's quiesce
    // instant keeps the run going past it.
    let mut plan = FaultPlan::quiet();
    for (at, server) in [(SimTime::from_millis(50), 0), (SimTime::from_secs(1), 1)] {
        let restart_after = None;
        plan.crashes.push(Crash {
            at,
            server,
            restart_after,
        });
    }
    plan.quiesce_at = SimTime::from_secs(2);
    let net = proto_sim::run_plan(&cfg, vec![script], &plan, SimTime::from_secs(10));
    assert!(net.clients_done());
    assert!(!net.recovery_pending());
    assert!(
        net.owners().iter().all(|&o| o >= 2),
        "both victims' buckets moved"
    );
    let live = net.live_map();
    let lost: Vec<usize> = (0..400).filter(|&i| !live.contains_key(&key(i))).collect();
    assert!(lost.is_empty(), "{lost:?} lost after two crashes");
}

#[test]
fn crash_retry_is_exactly_once() {
    // Surgical interleaving: a write is applied and replicated, the master
    // dies before its acks come back, and the client's retry lands on the
    // recovery master. The RIFL completion record — recovered from the
    // replicas — must suppress the duplicate: the key's version stays at
    // its post-write value instead of bumping again.
    let cfg = script_cluster(3, 2);
    let k = (0..)
        .map(key)
        .find(|k| bucket_for(PROTO_TABLE, k, cfg.buckets).is_multiple_of(3))
        .expect("some key on server 0");
    let put = |v: &[u8]| ClientOp::Put {
        key: k.clone(),
        value: v.to_vec(),
    };
    // 100 µs a hop: the second put reaches master 0 at 500 µs, its
    // replicas are staged at 600 µs, and their acks would arrive at 700.
    let mut plan = FaultPlan::quiet();
    plan.crashes.push(Crash {
        at: SimTime::from_micros(650),
        server: 0,
        restart_after: None,
    });
    let net = proto_sim::run_plan(
        &cfg,
        vec![vec![put(b"first"), put(b"second")]],
        &plan,
        SimTime::from_secs(10),
    );
    // The write was applied and replicated before the crash: a backup
    // holds its record under the client's second sequence number.
    let staged = net.server(1).expect("alive").storage().segments_of(0);
    let replicated = staged.iter().any(|(_, bytes)| {
        let mut off = 0;
        let mut found = false;
        while let Ok((entry, len)) = LogEntry::parse(&bytes[off..]) {
            if let LogEntry::Object(o) = entry {
                found |= o.completion.is_some_and(|c| c.seq == 2);
            }
            off += len;
        }
        found
    });
    assert!(replicated, "the write reached its backups before the crash");
    let client = net.client(&cfg, 0);
    assert!(client.done);
    let (value, version) = net.live_map_versioned()[&k].clone();
    assert_eq!(value, b"second");
    assert_eq!(
        version, 2,
        "retry after recovery must not double-apply (exactly-once)"
    );
    let violations = check_histories(&net.histories(), &net.live_map_versioned(), true);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn not_on_affinity_avoids_target_server() {
    let w = workload(500, 2_000);
    let mut cfg = ClusterConfig::new(4, 1, w).with_seed(8);
    cfg.client_affinity = Some(vec![ClientAffinity::NotOn(2)]);
    let run = run(&cfg);
    let hits = |n: usize| run.net.server(n).expect("alive").store.stats().read_hits;
    // Server 2's store must have seen zero read traffic.
    assert_eq!(hits(2), 0, "NotOn(2) client must never read from server 2");
    assert_eq!(hits(0) + hits(1) + hits(3), 2_000);
}
