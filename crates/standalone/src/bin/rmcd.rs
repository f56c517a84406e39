//! `rmcd` — one cluster node per OS process, over real TCP.
//!
//! Runs the coordinator or one server of the shared replication/recovery
//! protocol as a standalone process on `rmc-wire`'s socket engine. Launch
//! one coordinator and N servers (any order — connections are dialed
//! lazily and retried under backoff), then drive the cluster with
//! `kvshell --connect`, or load it with `bash benchmark/run.sh --workload wire_a`.
//!
//! ```sh
//! rmcd --role coordinator --addrs 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 \
//!      --servers 2 --replication 1 &
//! rmcd --role server --index 0 --addrs 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 \
//!      --servers 2 --replication 1 &
//! rmcd --role server --index 1 --addrs 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 \
//!      --servers 2 --replication 1 &
//! ```
//!
//! The address list is positional: entry 0 is the coordinator, entries
//! `1..=servers` the servers.
//!
//! ## Durability and shutdown
//!
//! With `--data-dir DIR`, a server stages its backup segment replicas in
//! checksummed files under `DIR` (`rmc-diskstore`'s `FileStorage`), forced
//! durable per `--fsync` (`per_write` | `batched[:BYTES,MILLIS]` | `off`).
//! Under `per_write` (the default) every replica write is written and
//! synced before its ack. Under `batched` and `off` a write is acked from
//! the segment's pending frames in memory, which reach the file in one
//! call when the master seals the segment (or on a flush): a crash of this
//! process loses the unwritten ones, which then live only on the segment's
//! other replicas — RAMCloud's contract for its buffered backups.
//! A restart from the same `DIR` bumps the persisted incarnation epoch —
//! so the coordinator's restart detection recovers the previous
//! incarnation — and rejoins with every staged segment recovered from disk
//! (longest valid frame prefix; torn tails truncated, corruption
//! quarantined), ready to serve recoveries of *other* crashed masters.
//!
//! Two ways to stop: kill the process (a crash; the protocol's recovery
//! machinery is the cleanup, and with `--fsync per_write` every acked
//! write survives on disk), or close its stdin (graceful: the node writes
//! what is pending, fsyncs its open log files, then exits 0).

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::thread;

use rmc_core::protocol::{
    coordinator_id, server_id, AnyNode, CoordinatorNode, ProtocolConfig, Server,
};
use rmc_diskstore::{bump_epoch, DiskMetrics, FileStorage, FsyncPolicy};
use rmc_obs::span::SpanRecorder;
use rmc_runtime::{Event, MetricsRegistry, SimDuration, WallClock};
use rmc_standalone::node_loop;
use rmc_wire::{AddressBook, FabricConfig, WireFabric};

const USAGE: &str = "usage: rmcd --role coordinator|server [--index I] \
--addrs a0,a1,... --servers N --replication R \
[--clients C] [--heartbeat-ms H] [--failure-ms F] [--retry-ms T] \
[--data-dir DIR] [--fsync per_write|batched[:BYTES,MILLIS]|off]
  --fsync per_write (the default) writes and syncs every replica write before
  its ack; batched and off ack from memory and write a replica segment in one
  call when it seals, so a crash of this process loses what is unwritten here
  and the other replicas keep it";

struct Args {
    role: String,
    index: usize,
    addrs: Vec<SocketAddr>,
    servers: usize,
    replication: usize,
    clients: usize,
    heartbeat_ms: u64,
    failure_ms: u64,
    retry_ms: u64,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        role: String::new(),
        index: 0,
        addrs: Vec::new(),
        servers: 0,
        replication: 1,
        clients: 0,
        heartbeat_ms: 25,
        failure_ms: 250,
        retry_ms: 50,
        data_dir: None,
        fsync: FsyncPolicy::PerWrite,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--role" => args.role = val("--role")?,
            "--index" => args.index = val("--index")?.parse().map_err(|e| format!("{e}"))?,
            "--addrs" => {
                for a in val("--addrs")?.split(',') {
                    args.addrs.push(
                        a.trim()
                            .parse()
                            .map_err(|e| format!("address {a:?}: {e}"))?,
                    );
                }
            }
            "--servers" => args.servers = val("--servers")?.parse().map_err(|e| format!("{e}"))?,
            "--replication" => {
                args.replication = val("--replication")?.parse().map_err(|e| format!("{e}"))?
            }
            "--clients" => args.clients = val("--clients")?.parse().map_err(|e| format!("{e}"))?,
            "--heartbeat-ms" => {
                args.heartbeat_ms = val("--heartbeat-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--failure-ms" => {
                args.failure_ms = val("--failure-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--retry-ms" => {
                args.retry_ms = val("--retry-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(val("--data-dir")?)),
            "--fsync" => args.fsync = FsyncPolicy::parse(&val("--fsync")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.role != "coordinator" && args.role != "server" {
        return Err("--role must be coordinator or server".into());
    }
    if args.servers == 0 {
        return Err("--servers must be positive".into());
    }
    if args.addrs.len() != 1 + args.servers {
        return Err(format!(
            "--addrs must list 1 + servers = {} addresses (coordinator first), got {}",
            1 + args.servers,
            args.addrs.len()
        ));
    }
    if args.role == "server" && args.index >= args.servers {
        return Err(format!(
            "--index {} out of range for {} servers",
            args.index, args.servers
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmcd: {e}\n{USAGE}");
            exit(2);
        }
    };
    let mut cfg = ProtocolConfig::new(args.servers, args.clients, args.replication);
    cfg.heartbeat_interval = SimDuration::from_millis(args.heartbeat_ms);
    cfg.failure_timeout = SimDuration::from_millis(args.failure_ms);
    cfg.retry_timeout = SimDuration::from_millis(args.retry_ms);

    let me = if args.role == "coordinator" {
        coordinator_id()
    } else {
        server_id(args.index)
    };
    let my_addr = args.addrs[me.0];
    let listener = match TcpListener::bind(my_addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rmcd: binding {my_addr}: {e}");
            exit(1);
        }
    };
    let book = AddressBook::new(args.addrs.iter().copied().map(Some).collect());
    let registry = MetricsRegistry::new();
    let (fabric, inbox) = WireFabric::start(FabricConfig {
        me,
        book,
        listener: Some(listener),
        registry: registry.clone(),
        spans: SpanRecorder::default(),
        clock: Arc::new(WallClock::new()),
    });
    let node = if args.role == "coordinator" {
        AnyNode::Coordinator(CoordinatorNode::new(cfg))
    } else if let Some(dir) = &args.data_dir {
        // Durable server: stage replicas in checksummed files and carry the
        // persisted incarnation epoch. Epoch 0 is the first boot; anything
        // later is a restart, and the recovered staged segments rejoin the
        // cluster with us — the coordinator's restart detection will have
        // the *other* servers' recovered replicas to rebuild our data from.
        let epoch = match bump_epoch(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("rmcd: epoch file under {}: {e}", dir.display());
                exit(1);
            }
        };
        let storage = match FileStorage::open(
            dir,
            args.fsync.clone(),
            epoch,
            DiskMetrics::new(&registry.family_at("disk.")),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rmcd: opening data dir {}: {e}", dir.display());
                exit(1);
            }
        };
        eprintln!(
            "rmcd: server {} epoch {epoch}: recovered {} staged segments \
             ({} bytes, {} torn tails truncated, {} quarantined) from {}",
            args.index,
            storage.recovery.segments,
            storage.recovery.bytes,
            storage.recovery.torn_tails,
            storage.recovery.quarantined,
            dir.display(),
        );
        let mut server = if epoch == 0 {
            Server::new(args.index, cfg)
        } else {
            Server::restarted(args.index, cfg, epoch)
        };
        server.set_storage(Box::new(storage));
        AnyNode::Server(server)
    } else {
        AnyNode::Server(Server::new(args.index, cfg))
    };
    // The ready line the launching harness waits for (stdout, flushed by
    // println's line buffering on a pipe... so use explicit flush).
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "rmcd ready {} {} {}", args.role, me, my_addr);
        let _ = out.flush();
    }
    // Graceful shutdown rides stdin: when the launcher closes our stdin (or
    // exits), the watcher delivers Shutdown and the node loop returns after
    // flushing storage. A SIGKILL, by contrast, reaches neither — that is
    // the crash the durability layer exists for.
    let watched = Arc::clone(&fabric);
    thread::spawn(move || {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        watched.deliver(Event::Shutdown);
    });
    // The node loop is this process's main thread, and the only one that
    // touches a socket: the inbox it polls is the listener and connections.
    node_loop(node, Arc::clone(&fabric), inbox, None, None);
    fabric.shutdown();
}
