//! A cluster dropped without `shutdown()` takes its threads with it.
//!
//! Every test that panics mid-scenario drops its cluster this way. This
//! file holds one test and nothing else so that the process's task list
//! is that cluster's and no other's.

#![cfg(target_os = "linux")]

use rmc_core::protocol::ProtocolConfig;
use rmc_standalone::cluster::{ChannelFabric, WireFabric};
use rmc_standalone::{Cluster, Fabric};

/// How many threads of this process are node loops.
fn node_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("own task list")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("node-"))
        .count()
}

fn start_use_drop<F: Fabric>() {
    const SERVERS: usize = 3;
    let (mut cluster, mut clients) = Cluster::<F>::start(ProtocolConfig::new(SERVERS, 1, 2));
    clients[0].put(b"k", b"v").unwrap();
    // A dead incarnation's handle and a live successor's, both to join.
    cluster.kill_server(1);
    cluster.restart_server(1);
    assert!(node_threads() >= 1 + SERVERS - 1);
    drop(cluster);
    assert_eq!(node_threads(), 0, "a dropped cluster left node threads");
}

#[test]
fn a_dropped_cluster_joins_its_node_threads() {
    start_use_drop::<ChannelFabric>();
    start_use_drop::<WireFabric>();
}
