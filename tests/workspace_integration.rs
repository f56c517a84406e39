//! Workspace-level integration tests: exercise the whole stack through the
//! umbrella crate, the way a downstream user would.

use ramcloud_repro::core::{cost, ClusterConfig};
use ramcloud_repro::logstore::{LogConfig, Store, TableId};
use ramcloud_repro::sim::{SimDuration, SimTime, Simulation};
use ramcloud_repro::standalone::{ServerConfig, StandaloneServer};
use ramcloud_repro::ycsb::{RequestGenerator, StandardWorkload, WorkloadSpec};

#[test]
fn umbrella_reexports_work_together() {
    // Engine.
    let mut store = Store::new(LogConfig::default());
    store.write(TableId(1), b"k", b"v").unwrap();
    assert!(store.read(TableId(1), b"k").is_some());

    // Simulator.
    let mut sim = Simulation::new(0u32);
    sim.scheduler_mut()
        .schedule_at(SimTime::from_secs(1), |n: &mut u32, _| *n += 1);
    sim.run();
    assert_eq!(*sim.state(), 1);

    // Workload generator.
    let mut client = RequestGenerator::new(
        WorkloadSpec::standard(StandardWorkload::B).with_ops_per_client(100),
        7,
    );
    assert_eq!(std::iter::from_fn(|| client.next_request()).count(), 100);
}

#[test]
fn simulated_cluster_and_standalone_agree_on_semantics() {
    // Same logical operations through both deployments must agree on what
    // survives: versions bump per overwrite, deletes stick.
    let table = TableId(1);

    // Standalone (real threads).
    let server = StandaloneServer::start(ServerConfig::default());
    let client = server.client();
    client.write(table, b"key", b"v1").unwrap();
    let v2 = client.write(table, b"key", b"v2").unwrap();
    assert_eq!(v2.version.0, 2);
    client.delete(table, b"key").unwrap();
    assert!(client.read(table, b"key").unwrap().is_none());
    server.shutdown();

    // Simulated cluster: after a run of updates every loaded record is
    // served, at version 1 plus the overwrites it took.
    let workload = WorkloadSpec::standard(StandardWorkload::A)
        .with_record_count(50)
        .with_ops_per_client(500);
    let cfg = ClusterConfig::new(2, 2, workload.clone());
    let run = cost::run(&cfg, None, SimDuration::ZERO, false);
    let live = run.net.live_map_versioned();
    let updates = run.report.client_stats.writes;
    let overwrites: u64 = (0..50).map(|i| live[&workload.key_for(i)].1 - 1).sum();
    assert_eq!(overwrites, updates, "every update bumped one version once");
}

#[test]
fn full_measurement_pipeline_miniature() {
    // The complete paper pipeline: load, run a mixed workload, sample power,
    // compute efficiency — at test scale.
    let workload = WorkloadSpec::standard(StandardWorkload::A)
        .with_record_count(1_000)
        .with_ops_per_client(2_000);
    let cfg = ClusterConfig::new(4, 6, workload).with_replication(2);
    let report = cost::run(&cfg, None, SimDuration::ZERO, false).report;
    assert_eq!(report.completed_ops, 12_000);
    assert!(report.throughput_ops > 1_000.0);
    // Power must sit inside the node model's physical envelope.
    for &w in &report.energy.per_node_avg_watts {
        assert!((59.0..135.0).contains(&w), "implausible node power {w}");
    }
    assert!(report.ops_per_joule > 0.0);
    let (cpu_min, cpu_max) = report.cpu_min_max_pct();
    assert!(cpu_min >= 25.0 - 1e-6, "dispatch floor violated: {cpu_min}");
    assert!(cpu_max <= 100.0 + 1e-6);
}

#[test]
fn crash_recovery_through_umbrella() {
    let workload = WorkloadSpec::standard(StandardWorkload::C)
        .with_record_count(2_000)
        .with_ops_per_client(0);
    let cfg = ClusterConfig::new(3, 1, workload).with_replication(2);
    let kill = Some((SimTime::from_secs(1), 0));
    let report = cost::run(&cfg, kill, SimDuration::from_secs(5), false).report;
    let rec = report.recovery.expect("recovery ran");
    assert!(rec.replayed_entries > 0);
    assert!(rec.duration_secs > 0.0);
}
