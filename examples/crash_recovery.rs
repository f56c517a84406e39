//! Watch a crash recovery end to end.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```
//!
//! Loads ~2 GB (nominal) into 5 simulated servers with 3-way replication,
//! kills one at t=10 s, and prints the recovery report plus the CPU/power
//! spike — Figs 9 and 11 in miniature. All data is verified readable after
//! recovery through the protocol's own stores.

use rmc_core::{cost, ClusterConfig};
use rmc_sim::{SimDuration, SimTime};
use rmc_ycsb::{StandardWorkload, WorkloadSpec};

fn main() {
    let mut workload = WorkloadSpec::standard(StandardWorkload::C)
        .with_record_count(200_000)
        .with_ops_per_client(0);
    workload.value_bytes = 10 * 1024; // ~2 GB nominal across the cluster
    let cfg = ClusterConfig::new(5, 1, workload.clone()).with_replication(3);
    let kill = Some((SimTime::from_secs(10), 2));
    let run = cost::run(&cfg, kill, SimDuration::from_secs(40), false);
    let report = run.report;
    let rec = report.recovery.expect("a recovery must have run");
    println!(
        "killed server {} at t={:.0}s",
        rec.crashed_server, rec.killed_at_secs
    );
    println!(
        "detected after {:.2}s; recovered {:.2} GB ({} entries) in {:.1}s",
        rec.detected_at_secs - rec.killed_at_secs,
        rec.replayed_gb,
        rec.replayed_entries,
        rec.duration_secs,
    );
    println!("\n  t(s) | cpu%  | W/node   (watch the spike at the crash)");
    for (t, cpu) in &report.cpu_timeline {
        let watts = report
            .power_timeline
            .iter()
            .find(|(pt, _)| pt == t)
            .map(|(_, w)| *w)
            .unwrap_or(0.0);
        if (*t as u64).is_multiple_of(2) {
            println!("  {t:>4.0} | {:>4.0}% | {watts:>6.1} W", cpu * 100.0);
        }
    }
    let (reads, writes) = report
        .disk_timeline
        .iter()
        .fold((0.0, 0.0), |(r, w), &(_, tr, tw)| (r + tr, w + tw));
    println!("\naggregate disk traffic during the run: {reads:.0} MB read, {writes:.0} MB written");
    let live = run.net.live_map();
    let lost = (0..workload.record_count)
        .filter(|&i| !live.contains_key(&workload.key_for(i)))
        .count();
    assert_eq!(lost, 0, "every record must survive the crash");
    println!(
        "all {} records readable after recovery",
        workload.record_count
    );
}
