//! The real multi-threaded single-node store under concurrent load.
//!
//! ```sh
//! cargo run --release --example standalone_server
//! ```
//!
//! Starts a server over the sharded log-structured engine and drives it
//! from several real client threads — every op runs on the thread that
//! issues it — printing actual (wall-clock) throughput: no simulation
//! involved.

use std::time::Instant;

use rmc_logstore::TableId;
use rmc_standalone::{ServerConfig, StandaloneServer};

fn main() {
    let server = StandaloneServer::start(ServerConfig::default());
    let table = TableId(1);
    let client_threads = 4;
    let ops_per_client = 50_000;

    let start = Instant::now();
    let handles: Vec<_> = (0..client_threads)
        .map(|t| {
            let client = server.client();
            std::thread::spawn(move || {
                for i in 0..ops_per_client {
                    let key = format!("user{:08}", (t * ops_per_client + i) % 10_000);
                    if i % 2 == 0 {
                        client
                            .write(table, key.as_bytes(), b"payload-xxxxxxxx")
                            .unwrap();
                    } else {
                        let _ = client.read(table, key.as_bytes()).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let total_ops = (client_threads * ops_per_client) as f64;
    println!(
        "{total_ops} ops from {client_threads} client threads in {:.2?} -> {:.0} op/s",
        elapsed,
        total_ops / elapsed.as_secs_f64()
    );
    let stats = server.store().stats();
    println!(
        "engine: {} writes ({} overwrites), {} reads ({} lock-free), {} cleanings; {} live objects",
        stats.writes,
        stats.overwrites,
        stats.read_hits + stats.read_misses,
        stats.read_lockfree,
        stats.cleanings,
        server.store().object_count()
    );
    server.shutdown();
}
