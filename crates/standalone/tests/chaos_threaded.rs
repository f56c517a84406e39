//! Chaos under the wall-clock engines: the same fault plans, state
//! machines, and invariant checker as the deterministic suite in
//! `rmc-core/tests/chaos_invariants.rs`, but on real threads and the wall
//! clock — each scenario written once and run over both fabrics (crossbeam
//! channels and loopback TCP).
//!
//! A wall-clock engine cannot replay a plan bit-for-bit — scheduling is
//! the OS's business — so these tests check *graceful degradation*: under
//! drops, duplicates, delays, partitions, backup-write failures, lying
//! disks, and crash/restart schedules, every acked write survives, versions
//! stay monotone, RIFL never double-applies, and the cluster converges.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmc_chaos::{check_histories, Crash, DiskFaults, FaultPlan, PlanShape};
use rmc_core::protocol::{server_id, ClientOp, ProtocolConfig, Reply};
use rmc_diskstore::{DiskMetrics, FileStorage, FsyncPolicy};
use rmc_runtime::{MetricsRegistry, SimDuration, SimTime};
use rmc_standalone::{on_both_fabrics, Cluster, Fabric, StorageFactory};

const SERVERS: usize = 4;
const CLIENTS: usize = 2;
const REPLICATION: usize = 2;
const OPS_PER_CLIENT: usize = 16;

/// Timings that tolerate thread-scheduling jitter: a heartbeat missed to a
/// busy scheduler must not read as a death.
fn chaos_cfg() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(SERVERS, CLIENTS, REPLICATION);
    cfg.heartbeat_interval = SimDuration::from_millis(15);
    cfg.failure_timeout = SimDuration::from_millis(150);
    cfg.retry_timeout = SimDuration::from_millis(50);
    cfg
}

/// Per-client scripts over disjoint key namespaces (the checker treats
/// each key as single-writer): puts, overwrites, deletes, and reads.
fn scripts() -> Vec<Vec<ClientOp>> {
    scripts_of(OPS_PER_CLIENT)
}

fn scripts_of(ops_per_client: usize) -> Vec<Vec<ClientOp>> {
    (0..CLIENTS)
        .map(|c| {
            let key = |i: usize| format!("c{c}k{i:03}").into_bytes();
            let mut s = Vec::new();
            for i in 0..ops_per_client {
                s.push(ClientOp::Put {
                    key: key(i),
                    value: format!("c{c}v{i}").into_bytes(),
                });
                if i % 3 == 0 {
                    s.push(ClientOp::Get { key: key(i) });
                }
                if i % 4 == 3 {
                    s.push(ClientOp::Put {
                        key: key(i - 1),
                        value: format!("c{c}w{i}").into_bytes(),
                    });
                }
                if i % 5 == 4 {
                    s.push(ClientOp::Del { key: key(i - 2) });
                }
            }
            s
        })
        .collect()
}

on_both_fabrics!(
    duplicated_write_returns_original_version,
    backup_death_re_replicates_then_master_crash_recovers,
    pinned_plans_degrade_gracefully,
    lying_disks_under_file_backed_backups_lose_no_acked_write,
);

/// Satellite: a *duplicated* (not merely retried) write returns the
/// originally-assigned version and applies exactly once — the wall-clock
/// half of the RIFL exactly-once guarantee (the simulated half lives in
/// `rmc-core`'s protocol tests).
fn duplicated_write_returns_original_version<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(chaos_cfg());
    let c = &mut clients[0];
    let v1 = c.put_versioned(b"dup-key", b"first").unwrap();
    let v2 = c.put_versioned(b"dup-key", b"second").unwrap();
    assert!(v2 > v1, "versions must advance: {v1} then {v2}");
    // Replay the second write's exact request (same RIFL sequence number)
    // several times: every copy must echo the recorded reply, not bump the
    // version again.
    for _ in 0..3 {
        match c.duplicate_last().unwrap() {
            Reply::Done { version } => assert_eq!(version, v2, "duplicate must echo v2"),
            other => panic!("unexpected duplicate reply: {other:?}"),
        }
    }
    assert_eq!(c.get(b"dup-key").unwrap(), Some(b"second".to_vec()));
    let report = cluster.shutdown();
    assert_eq!(
        report.live_versioned.get(b"dup-key".as_slice()),
        Some(&(b"second".to_vec(), v2)),
        "the store must hold the original version, applied once"
    );
    let replays: u64 = (0..SERVERS)
        .map(|i| report.metrics.get(&format!("server.{i}.rifl_replays")))
        .sum();
    assert!(replays >= 3, "RIFL must have replayed the recorded reply");
}

/// Satellite: killing a backup mid-replication re-replicates its segments
/// onto fresh targets, and a subsequent crash of the master still recovers
/// the full live set from the re-replicated copies.
fn backup_death_re_replicates_then_master_crash_recovers<F: Fabric>() {
    let (cluster, mut clients) = Cluster::<F>::start(chaos_cfg());
    let c = &mut clients[0];
    let mut expected = BTreeMap::new();
    // Seed writes so master 1 has segments replicated onto {2, 3}.
    for i in 0..40 {
        let (k, v) = (
            format!("key{i:03}").into_bytes(),
            format!("val{i}").into_bytes(),
        );
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    // Kill server 2 — a backup of master 1 — mid-stream, keep writing.
    cluster.kill_server(2);
    for i in 40..70 {
        let (k, v) = (
            format!("key{i:03}").into_bytes(),
            format!("val{i}").into_bytes(),
        );
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    // Let the survivors finish re-targeting their replicas off server 2.
    std::thread::sleep(Duration::from_millis(700));
    // Now crash master 1: its data must be recoverable from the
    // re-replicated copies alone.
    cluster.kill_server(1);
    for i in 70..90 {
        let (k, v) = (
            format!("key{i:03}").into_bytes(),
            format!("val{i}").into_bytes(),
        );
        c.put(&k, &v).unwrap();
        expected.insert(k, v);
    }
    let report = cluster.shutdown();
    assert!(
        report.owners.iter().all(|&o| o != 1 && o != 2),
        "dead servers own nothing: {:?}",
        report.owners
    );
    assert_eq!(
        report.live, expected,
        "acked writes must survive backup death followed by master crash"
    );
    let reseeds: u64 = (0..SERVERS)
        .map(|i| report.metrics.get(&format!("server.{i}.reseeds")))
        .sum();
    assert!(
        reseeds > 0,
        "losing a backup must trigger re-replication of its segments"
    );
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Tentpole acceptance (wall-clock half): generated fault plans — message
/// faults plus a crash/restart schedule — degrade gracefully under real
/// threads. The seeds are pinned for CI; override with
/// `RMC_CHAOS_SEEDS=1,2,3` (comma-separated u64s, `0x` hex accepted).
fn pinned_plans_degrade_gracefully<F: Fabric>() {
    const PINNED: [u64; 4] = [
        0x0000_0000_dead_beef,
        0x3141_5926_5358_9793,
        0x9e37_79b9_7f4a_7c15,
        0xcafe_f00d_cafe_f00d,
    ];
    let seeds: Vec<u64> = match std::env::var("RMC_CHAOS_SEEDS") {
        Ok(v) => v.split(',').filter_map(parse_seed).collect(),
        Err(_) => PINNED.to_vec(),
    };
    assert!(!seeds.is_empty(), "no usable seeds in RMC_CHAOS_SEEDS");
    let shape = PlanShape::new((0..SERVERS).map(server_id).collect(), REPLICATION);
    for seed in seeds {
        let mut plan = FaultPlan::generate(seed, &shape);
        // Generated plans are tuned for simulated microsecond RTTs; on the
        // wall clock a whole retry cycle is ~50ms, so stretch the schedule
        // and soften per-message odds enough that scripts finish within
        // the op budget while every fault class still fires.
        plan.drop_prob = plan.drop_prob.min(0.02);
        plan.dup_prob = plan.dup_prob.min(0.05);
        plan.delay_prob = plan.delay_prob.min(0.05);
        plan.max_delay = SimDuration::from_millis(20);
        plan.backup_write_fail_prob = plan.backup_write_fail_prob.min(0.02);
        plan.partitions.clear();
        plan.crashes.clear();
        plan.crashes.push(Crash {
            at: SimTime::ZERO.saturating_add(SimDuration::from_millis(150)),
            server: 1 + (seed % (SERVERS as u64 - 1)) as usize,
            restart_after: Some(SimDuration::from_millis(600)),
        });
        plan.quiesce_at = SimTime::ZERO.saturating_add(SimDuration::from_secs(3600));

        let report = Cluster::<F>::run_plan(chaos_cfg(), scripts(), &plan, Duration::from_secs(60));
        assert!(
            report.clients.iter().all(|(_, _, done)| *done),
            "seed {seed:#018x}: scripts unfinished"
        );
        let violations = check_histories(&report.histories, &report.live_versioned, true);
        assert!(
            violations.is_empty(),
            "seed {seed:#018x}: {violations:?}\nmetrics: {:?}",
            report.metrics.snapshot()
        );
        let judged = report.metrics.get("faults.judged");
        assert!(judged > 0, "seed {seed:#018x}: fault layer never engaged");
    }
}

/// Sleeps until `done()` holds; panics with `what` after 30 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The storage boundary as a chaos surface, from above the crate: every
/// backup stages replicas in a `FileStorage` under `per_write` whose disk
/// cuts writes short, fails fsyncs and stalls (`DiskFaults`, seeded per
/// node), and server 2's also flips bits on their way to the platter.
/// Scripted clients write through it while server 2 is killed and
/// cold-restarted — its `open` runs on the dir its own disk damaged — and
/// then master 1, whose replicas server 2 holds, is crashed for good: its
/// data must come back from whatever the backups recovered.
fn lying_disks_under_file_backed_backups_lose_no_acked_write<F: Fabric>() {
    const FLIPPED: usize = 2;
    let fabric = std::any::type_name::<F>().replace(|c: char| !c.is_alphanumeric(), "_");
    let base = std::env::temp_dir().join(format!("rmc-disk-chaos-{}-{fabric}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut plan = FaultPlan::quiet();
    plan.seed = 0x0d15_c0ba_d5ec_7025;
    plan.disk_short_write_prob = 0.08;
    plan.disk_fsync_eio_prob = 0.05;
    plan.disk_stall_prob = 0.10;
    plan.disk_max_stall = SimDuration::from_millis(2);
    let disk = MetricsRegistry::new();
    let factory: StorageFactory = {
        let (base, plan, disk) = (base.clone(), plan.clone(), disk.clone());
        Arc::new(move |index, epoch| {
            let mut plan = plan.clone();
            // A restarted server's disk is the same disk, not the same draws.
            plan.seed ^= epoch;
            if index == FLIPPED {
                plan.disk_bit_flip_prob = 0.10;
            }
            let storage = FileStorage::open(
                base.join(format!("s{index}")),
                FsyncPolicy::PerWrite,
                epoch,
                DiskMetrics::new(&disk.family("disk", index)),
            )
            .expect("a damaged dir must open: recovery cuts and quarantines");
            let faults = DiskFaults::from_plan(&plan, index).expect("the plan has disk faults");
            Box::new(storage.with_injector(Box::new(faults)))
        })
    };
    let mut cluster =
        Cluster::<F>::start_chaos_with_storage(chaos_cfg(), scripts_of(120), &plan, factory);

    // Not before its disk has cut a few writes short: each retired a file
    // with a torn tail, so the restart below has damage to find even if no
    // flipped frame is on disk yet.
    wait_until("server 2's disk cut three writes short", || {
        disk.get(&format!("disk.{FLIPPED}.write_errors")) >= 3
    });
    cluster.kill_server(FLIPPED);
    std::thread::sleep(Duration::from_millis(600));
    cluster.restart_server(FLIPPED);
    wait_until("server 2 reopened its data dir", || {
        disk.get(&format!("disk.{FLIPPED}.read_bytes")) > 0
    });
    // Readmission and re-replication, then the master it backs up dies.
    std::thread::sleep(Duration::from_millis(700));
    cluster.kill_server(1);

    cluster.wait_for_scripted_clients(Duration::from_secs(120));
    std::thread::sleep(Duration::from_millis(1100));
    let report = cluster.shutdown();
    assert!(
        report.clients.iter().all(|(_, _, done)| *done),
        "scripts unfinished"
    );
    let violations = check_histories(&report.histories, &report.live_versioned, true);
    assert!(
        violations.is_empty(),
        "{violations:?}\ndisk: {:?}\nmetrics: {:?}",
        disk.snapshot(),
        report.metrics.snapshot()
    );
    // The plan is known to have bitten: every kind of fault was served,
    // and the reopen found damage to cut or quarantine.
    for counter in ["write_errors", "fsync_errors", "stalls"] {
        let served = disk.sum("disk.", &format!(".{counter}"));
        assert!(served > 0, "no {counter} injected");
    }
    let found = disk.sum("disk.", ".torn_tails") + disk.sum("disk.", ".quarantined");
    eprintln!("{fabric}: disk {:?}", disk.snapshot());
    assert!(found > 0, "the restart found no damage");
    let _ = std::fs::remove_dir_all(&base);
}
