//! [`RmcdFleet`]: launch, kill, restart, and gracefully shut down a
//! multi-process `rmcd` cluster.
//!
//! The socket engine's third tier runs one cluster node per OS process;
//! every harness that drives it (the YCSB wire backend, the recovery
//! ablation bench, the kill-9 durability test, CI smoke) needs the same
//! lifecycle plumbing: spawn the coordinator and servers with a shared
//! address list, wait for each `rmcd ready` line so nothing races a bind,
//! keep stdout drained, and tear the fleet down at the end. This module is
//! that plumbing, with the two teardown modes the durability story
//! distinguishes:
//!
//! - [`RmcdFleet::shutdown`] — graceful: close each child's stdin (the
//!   `rmcd` shutdown signal), and *join* the processes — wait for every
//!   node to flush and fsync its open log files and exit — rather than
//!   abandoning or killing them.
//! - [`RmcdFleet::kill`] / [`RmcdFleet::kill_all`] — SIGKILL: the crash the
//!   durability layer exists for. Nothing is flushed; what survives is
//!   exactly what the fsync policy made durable.
//!
//! Killed-or-exited nodes can be relaunched with [`RmcdFleet::restart`] on
//! the same address and data dir — `rmcd` bumps its persisted epoch and
//! rejoins with its staged segments recovered from disk.

use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How to launch one `rmcd` fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Path to the `rmcd` binary (see [`rmcd_sibling_path`]).
    pub bin: PathBuf,
    /// Listen addresses: entry 0 the coordinator, entries `1..=servers`
    /// the servers (see [`reserve_addrs`]).
    pub addrs: Vec<SocketAddr>,
    /// Number of servers.
    pub servers: usize,
    /// Replication factor.
    pub replication: usize,
    /// Per-server data dirs (`--data-dir`), or `None` for memory-staged
    /// backups. When set, must hold one dir per server.
    pub data_dirs: Option<Vec<PathBuf>>,
    /// Fsync policy string passed through to `--fsync`.
    pub fsync: Option<String>,
    /// `--heartbeat-ms` override.
    pub heartbeat_ms: Option<u64>,
    /// `--failure-ms` override.
    pub failure_ms: Option<u64>,
    /// `--retry-ms` override.
    pub retry_ms: Option<u64>,
}

impl FleetConfig {
    /// A memory-staged fleet of `servers` nodes on `addrs`.
    pub fn new(bin: PathBuf, addrs: Vec<SocketAddr>, servers: usize, replication: usize) -> Self {
        FleetConfig {
            bin,
            addrs,
            servers,
            replication,
            data_dirs: None,
            fsync: None,
            heartbeat_ms: None,
            failure_ms: None,
            retry_ms: None,
        }
    }
}

/// One spawned node: the child plus its held-open stdin (closing it is the
/// graceful-shutdown signal).
#[derive(Debug)]
struct FleetChild {
    child: Child,
    stdin: Option<ChildStdin>,
}

/// A running `rmcd` fleet: coordinator + servers, one OS process each.
#[derive(Debug)]
pub struct RmcdFleet {
    cfg: FleetConfig,
    /// Indexed by node id: 0 the coordinator, `1..=servers` the servers.
    /// `None` after a kill (until restarted).
    children: Vec<Option<FleetChild>>,
}

/// Finds `rmcd` next to the currently running executable — both are
/// workspace binaries, so any build that produced the caller produced it
/// too (or the error says how to).
pub fn rmcd_sibling_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent directory")?;
    // Test binaries live one level down (target/<profile>/deps/); check
    // both the sibling dir and its parent.
    for d in [dir, dir.parent().unwrap_or(dir)] {
        let path = d.join(format!("rmcd{}", std::env::consts::EXE_SUFFIX));
        if path.is_file() {
            return Ok(path);
        }
    }
    Err(format!(
        "rmcd not found near {} — build it first: cargo build --release -p rmc-standalone --bin rmcd",
        dir.display()
    ))
}

/// Reserves `n` distinct loopback ports by holding ephemeral listeners
/// while collecting their addresses, then releasing them for the fleet to
/// claim (SO_REUSEADDR makes the rebind race-free in practice).
pub fn reserve_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| format!("local_addr: {e}")))
        .collect()
}

impl RmcdFleet {
    /// Spawns the coordinator and every server, waiting for each process's
    /// `rmcd ready` line so the workload never races a bind.
    pub fn spawn(cfg: FleetConfig) -> Result<RmcdFleet, String> {
        if cfg.addrs.len() != 1 + cfg.servers {
            return Err(format!(
                "fleet wants 1 + {} addresses, got {}",
                cfg.servers,
                cfg.addrs.len()
            ));
        }
        if let Some(dirs) = &cfg.data_dirs {
            if dirs.len() != cfg.servers {
                return Err(format!(
                    "fleet wants {} data dirs, got {}",
                    cfg.servers,
                    dirs.len()
                ));
            }
        }
        let mut fleet = RmcdFleet {
            children: (0..=cfg.servers).map(|_| None).collect(),
            cfg,
        };
        for node in 0..=fleet.cfg.servers {
            fleet.spawn_node(node)?;
        }
        Ok(fleet)
    }

    /// (Re)spawns node `node` (0 = coordinator, `1..=servers` a server) on
    /// its configured address and data dir, waiting for its ready line.
    fn spawn_node(&mut self, node: usize) -> Result<(), String> {
        let cfg = &self.cfg;
        let role = if node == 0 { "coordinator" } else { "server" };
        let addr_list = cfg
            .addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut cmd = Command::new(&cfg.bin);
        cmd.arg("--role")
            .arg(role)
            .arg("--addrs")
            .arg(&addr_list)
            .arg("--servers")
            .arg(cfg.servers.to_string())
            .arg("--replication")
            .arg(cfg.replication.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if node > 0 {
            cmd.arg("--index").arg((node - 1).to_string());
            if let Some(dirs) = &cfg.data_dirs {
                cmd.arg("--data-dir").arg(&dirs[node - 1]);
            }
            if let Some(fsync) = &cfg.fsync {
                cmd.arg("--fsync").arg(fsync);
            }
        }
        for (flag, v) in [
            ("--heartbeat-ms", cfg.heartbeat_ms),
            ("--failure-ms", cfg.failure_ms),
            ("--retry-ms", cfg.retry_ms),
        ] {
            if let Some(v) = v {
                cmd.arg(flag).arg(v.to_string());
            }
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {role}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("rmcd stdout not piped")?;
        let mut lines = std::io::BufReader::new(stdout).lines();
        match lines.next() {
            Some(Ok(line)) if line.starts_with("rmcd ready") => {}
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("rmcd {role} never reported ready: {other:?}"));
            }
        }
        // Keep draining stdout so the child can never block on a full pipe.
        std::thread::spawn(move || for _line in lines {});
        self.children[node] = Some(FleetChild { child, stdin });
        Ok(())
    }

    /// The fleet's address list (coordinator first).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.cfg.addrs
    }

    /// SIGKILLs server `index` (no flush — a crash). No-op if not running.
    pub fn kill(&mut self, index: usize) {
        if let Some(mut fc) = self.children[1 + index].take() {
            let _ = fc.child.kill();
            let _ = fc.child.wait();
        }
    }

    /// SIGKILLs every node, coordinator included — the whole-fleet crash.
    pub fn kill_all(&mut self) {
        for slot in &mut self.children {
            if let Some(mut fc) = slot.take() {
                let _ = fc.child.kill();
                let _ = fc.child.wait();
            }
        }
    }

    /// Relaunches server `index` on the same address and data dir; `rmcd`
    /// bumps its persisted epoch and rejoins with its staged segments
    /// recovered from disk.
    pub fn restart(&mut self, index: usize) -> Result<(), String> {
        self.kill(index);
        self.spawn_node(1 + index)
    }

    /// Relaunches the coordinator (fresh state: epochs restart at zero,
    /// which is what makes a cold-restarted fleet's persisted epochs read
    /// as restarts to recover).
    pub fn restart_coordinator(&mut self) -> Result<(), String> {
        if let Some(mut fc) = self.children[0].take() {
            let _ = fc.child.kill();
            let _ = fc.child.wait();
        }
        self.spawn_node(0)
    }

    /// Graceful shutdown: closes every child's stdin (the `rmcd` shutdown
    /// signal — each node flushes and fsyncs its open log files) and
    /// joins the processes, escalating to SIGKILL only past `timeout`.
    /// Returns an error naming any node that had to be killed.
    pub fn shutdown(mut self, timeout: Duration) -> Result<(), String> {
        for fc in self.children.iter_mut().flatten() {
            drop(fc.stdin.take());
        }
        let deadline = Instant::now() + timeout;
        let mut killed = Vec::new();
        for (node, slot) in self.children.iter_mut().enumerate() {
            let Some(fc) = slot.as_mut() else { continue };
            loop {
                match fc.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = fc.child.kill();
                        let _ = fc.child.wait();
                        killed.push(node);
                        break;
                    }
                }
            }
            *slot = None;
        }
        if killed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "nodes {killed:?} did not exit within {timeout:?}; killed"
            ))
        }
    }
}

impl Drop for RmcdFleet {
    fn drop(&mut self) {
        // Last-resort cleanup for panicking harnesses; orderly callers use
        // shutdown() or kill_all() explicitly.
        for slot in &mut self.children {
            if let Some(mut fc) = slot.take() {
                let _ = fc.child.kill();
                let _ = fc.child.wait();
            }
        }
    }
}
