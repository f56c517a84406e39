//! Thread census of the socket engine: a node is one thread.
//!
//! Over TCP a node's inbox is its sockets, read and written by the node
//! loop itself; a synchronous client handle has no thread at all. This
//! file holds one test and nothing else so that the process's task list
//! is that cluster's and no other's.

#![cfg(target_os = "linux")]

use rmc_core::protocol::ProtocolConfig;
use rmc_standalone::NetCluster;

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("own task list")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .collect()
}

#[test]
fn a_socket_cluster_under_load_is_one_thread_per_node() {
    const SERVERS: usize = 3;
    const CLIENTS: usize = 2;
    let before = thread_names().len();
    let (cluster, mut clients) = NetCluster::start(ProtocolConfig::new(SERVERS, CLIENTS, 2));
    for i in 0..1_000usize {
        let client = &mut clients[i % CLIENTS];
        let key = format!("key{:03}", i % 97).into_bytes();
        match i % 5 {
            0 | 1 => client.put(&key, format!("v{i}").as_bytes()).unwrap(),
            2 => client.del(&key).unwrap(),
            _ => drop(client.get(&key).unwrap()),
        }
    }
    let names = thread_names();
    for retired in ["wire-read", "wire-accept"] {
        assert!(
            !names.iter().any(|n| n.starts_with(retired)),
            "a {retired}* thread exists: {names:?}"
        );
    }
    let nodes = names.iter().filter(|n| n.starts_with("node-")).count();
    assert_eq!(nodes, 1 + SERVERS, "coordinator + servers: {names:?}");
    assert_eq!(
        names.len(),
        before + nodes,
        "the cluster's only threads are its node loops: {names:?}"
    );
    cluster.shutdown();
}
