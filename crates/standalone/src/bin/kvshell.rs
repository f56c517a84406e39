//! Interactive shell over the standalone multi-threaded store — or, with
//! `--connect`, over a live `rmcd` cluster through the wire protocol.
//!
//! ```sh
//! cargo run --release -p rmc-standalone --bin kvshell
//! kv> set user1 hello
//! kv> get user1
//! ```
//!
//! Remote mode speaks `rmc-wire` framing to real server processes:
//!
//! ```sh
//! kvshell --connect 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 --servers 2
//! kv> set user1 hello     # routed by bucket, RIFL-retried
//! kv> stats               # live Stats RPC from coordinator + every server
//! kv> trace               # every node's RIFL-keyed spans over the wire
//! ```
//!
//! The `--connect` list is positional — coordinator first, then the
//! servers (`--servers` defaults to the list length minus one). Give each
//! concurrently attached shell its own `--client-index`; it becomes the
//! RIFL client identity servers dedup requests by.

use std::io::{BufRead, Write};

use rmc_core::protocol::{coordinator_id, server_id, ProtocolConfig};
use rmc_logstore::TableId;
use rmc_standalone::{parse_command, NetClient, ReplCommand, ServerConfig, StandaloneServer, HELP};
use rmc_wire::AddressBook;

/// Runs the REPL against a live `rmcd` cluster over TCP.
fn connect_repl(addrs_arg: &str, servers_arg: Option<usize>, client_index: usize) {
    let mut addrs = Vec::new();
    for a in addrs_arg.split(',') {
        match a.trim().parse() {
            Ok(sa) => addrs.push(Some(sa)),
            Err(e) => {
                eprintln!("kvshell: address {a:?}: {e}");
                std::process::exit(2);
            }
        }
    }
    let servers = servers_arg.unwrap_or_else(|| addrs.len().saturating_sub(1));
    if servers == 0 || addrs.len() != 1 + servers {
        eprintln!(
            "kvshell: --connect needs 1 + servers = {} addresses (coordinator first), got {}",
            1 + servers,
            addrs.len()
        );
        std::process::exit(2);
    }
    // Replication is the cluster's business; the client only needs the
    // shape (servers, buckets) and retry timings.
    let cfg = ProtocolConfig::new(servers, client_index + 1, 1);
    let mut client = NetClient::connect(cfg, client_index, AddressBook::new(addrs));

    println!(
        "rmc kvshell — connected to {servers}-server cluster as {}. `help` for commands.",
        client.node()
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("kv> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let cmd = match parse_command(&line) {
            Ok(c) => c,
            Err(rmc_standalone::ParseCommandError::Empty) => continue,
            Err(e) => {
                println!("error: {e}");
                continue;
            }
        };
        match cmd {
            ReplCommand::Set { key, value } => match client.put_versioned(&key, &value) {
                Ok(version) => println!("ok ({version})"),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Get { key } => match client.get(&key) {
                Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                Ok(None) => println!("(nil)"),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Del { key } => match client.del(&key) {
                Ok(()) => println!("ok"),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Scan { .. } => {
                println!("error: scan is not part of the wire protocol");
            }
            ReplCommand::Stats => {
                // Live Stats RPC from every cluster member, plus the local
                // NIC's own wire.* health.
                match client.node_stats(coordinator_id()) {
                    Ok(stats) => {
                        println!("coordinator:");
                        for (k, v) in stats {
                            println!("  {k} = {v}");
                        }
                    }
                    Err(e) => println!("coordinator: error: {e}"),
                }
                for s in 0..servers {
                    match client.node_stats(server_id(s)) {
                        Ok(stats) => {
                            println!("server {s}:");
                            for (k, v) in stats {
                                println!("  {k} = {v}");
                            }
                        }
                        Err(e) => println!("server {s}: error: {e}"),
                    }
                }
                print!(
                    "{}",
                    rmc_obs::stats::snapshot(client.fabric().registry())
                        .without_zeros()
                        .render_text()
                );
            }
            ReplCommand::Trace { limit } => {
                // The coordinator's recorded spans, then each server's,
                // fetched over the wire.
                let mut targets = vec![("coordinator".to_owned(), coordinator_id())];
                for s in 0..servers {
                    targets.push((format!("server {s}"), server_id(s)));
                }
                for (name, id) in targets {
                    match client.node_trace(id) {
                        Ok(text) => {
                            let lines: Vec<&str> = text.lines().collect();
                            let shown = match limit {
                                Some(n) => &lines[lines.len().saturating_sub(n)..],
                                None => &lines[..],
                            };
                            println!("--- {name} ---");
                            for l in shown {
                                println!("{l}");
                            }
                        }
                        Err(e) => println!("--- {name} --- error: {e}"),
                    }
                }
            }
            ReplCommand::Help => println!("{HELP}"),
            ReplCommand::Quit => break,
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut connect = None;
    let mut servers = None;
    let mut client_index = 0usize;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" if i + 1 < argv.len() => {
                connect = Some(argv[i + 1].clone());
                i += 2;
            }
            "--servers" if i + 1 < argv.len() => {
                servers = argv[i + 1].parse().ok();
                i += 2;
            }
            "--client-index" if i + 1 < argv.len() => {
                client_index = argv[i + 1].parse().unwrap_or(0);
                i += 2;
            }
            other => {
                eprintln!(
                    "kvshell: unknown argument {other}\nusage: kvshell [--connect a0,a1,... \
                     [--servers N] [--client-index I]]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(addrs) = connect {
        connect_repl(&addrs, servers, client_index);
        return;
    }
    let mut config = ServerConfig::default();
    config.log.ordered_index = true; // scans on
    let shards = config.shards;
    let server = StandaloneServer::start(config);
    let client = server.client();
    let table = TableId(1);

    println!(
        "rmc kvshell — log-structured in-memory store ({shards} shards). `help` for commands."
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("kv> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let cmd = match parse_command(&line) {
            Ok(c) => c,
            Err(rmc_standalone::ParseCommandError::Empty) => continue,
            Err(e) => {
                println!("error: {e}");
                continue;
            }
        };
        match cmd {
            ReplCommand::Set { key, value } => match client.write(table, &key, &value) {
                Ok(o) => println!("ok ({})", o.version),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Get { key } => match client.read(table, &key) {
                Ok(Some(o)) => {
                    println!("{} ({})", String::from_utf8_lossy(&o.value), o.version)
                }
                Ok(None) => println!("(nil)"),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Del { key } => match client.delete(table, &key) {
                Ok(Some(v)) => println!("deleted ({v})"),
                Ok(None) => println!("(nil)"),
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Scan { start, limit } => match client.scan(table, &start, limit) {
                Ok(objs) => {
                    for o in &objs {
                        println!(
                            "{} = {} ({})",
                            String::from_utf8_lossy(&o.key),
                            String::from_utf8_lossy(&o.value),
                            o.version
                        );
                    }
                    println!("({} results)", objs.len());
                }
                Err(e) => println!("error: {e}"),
            },
            ReplCommand::Stats => {
                let s = server.store().stats();
                println!(
                    "objects {} | writes {} (overwrites {}) | deletes {} | reads {}/{} hit/miss",
                    server.store().object_count(),
                    s.writes,
                    s.overwrites,
                    s.deletes,
                    s.read_hits,
                    s.read_misses
                );
                println!(
                    "read path: {} lock-free, {} under the shard lock | {} value views live, \
                     {} limbo segments held by views",
                    s.read_lockfree,
                    s.read_fallback_locked,
                    s.value_views_live,
                    s.limbo_held_by_views
                );
                println!(
                    "cleaner: {} passes, {} segments freed, {} bytes relocated",
                    s.cleanings, s.segments_freed, s.bytes_relocated
                );
                // The registry stats plane: counters, gauges, and the
                // per-stage latency histograms, zero entries pruned.
                print!(
                    "{}",
                    rmc_obs::stats::snapshot(server.metrics())
                        .without_zeros()
                        .render_text()
                );
            }
            ReplCommand::Trace { .. } => {
                println!(
                    "spans are recorded by a cluster's nodes: run kvshell --connect; \
                     this store's sampled timings are the stage.* histograms in `stats`"
                );
            }
            ReplCommand::Help => println!("{HELP}"),
            ReplCommand::Quit => break,
        }
    }
    server.shutdown();
}
