//! Measure a simulated RAMCloud cluster the way the paper does.
//!
//! ```sh
//! cargo run --release --example cluster_energy
//! ```
//!
//! Runs YCSB workloads A/B/C against a 10-server simulated cluster (the
//! protocol under the cost layer) and
//! prints the paper's headline metrics: aggregate throughput, average
//! per-node power, total energy, and requests served per joule.

use rmc_core::{cost, ClusterConfig};
use rmc_sim::SimDuration;
use rmc_ycsb::{StandardWorkload, WorkloadSpec};

fn main() {
    println!("10 servers, 30 closed-loop clients, 100K records x 1KB, replication off\n");
    println!(
        "{:>10} | {:>12} | {:>10} | {:>12} | {:>10}",
        "workload", "throughput", "W/node", "energy (KJ)", "ops/joule"
    );
    for w in [
        StandardWorkload::C,
        StandardWorkload::B,
        StandardWorkload::A,
    ] {
        let workload = WorkloadSpec::standard(w).with_ops_per_client(10_000);
        let cfg = ClusterConfig::new(10, 30, workload);
        let report = cost::run(&cfg, None, SimDuration::ZERO, false).report;
        println!(
            "{:>10} | {:>10.0}/s | {:>8.1} W | {:>10.2} KJ | {:>10.0}",
            w.to_string(),
            report.throughput_ops,
            report.avg_node_watts(),
            report.total_energy_kj(),
            report.ops_per_joule,
        );
    }
    println!("\nNote the paper's Finding 2 in miniature: the update-heavy run is");
    println!("slower AND burns more energy per request than read-only.");
}
