//! `wire_c` and `wire_a`: closed-loop YCSB clients over loopback TCP
//! against one coordinator and three `rmcd` server processes (R = 2,
//! memory-staged backups).
//!
//! Eight clients, not `nproc` = 2: with one or two clients the vCPUs halt
//! between thread hops and the same binary measures anything from 0.8 K to
//! 16 K ops/s; with eight the host stays busy and runs repeat (README,
//! "Load shape").

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rmc_core::protocol::{server_id, ProtocolConfig};
use rmc_runtime::{MetricsRegistry, SimDuration};
use rmc_standalone::{reserve_addrs, rmcd_sibling_path, FleetConfig, NetClient, RmcdFleet};
use rmc_wire::AddressBook;
use rmc_ycsb::{OpKind, RequestGenerator, StandardWorkload, WorkloadSpec};

use crate::driver::{run_closed_loop, Step, Worker};
use crate::hops;
use crate::metrics::{Outcome, Report};
use crate::procfs::{self, ProcSample, Usage};
use crate::stats::median;
use crate::summary;
use crate::values::{audit_read, check_value, fill_value, Model, Tag};
use crate::Scale;

/// Servers in the fleet.
pub const SERVERS: usize = 3;
/// Replication factor.
pub const REPLICATION: usize = 2;
/// Value size, bytes.
pub const VALUE_BYTES: usize = 1024;

/// The protocol configuration clients and the hop-trace cluster share.
pub fn protocol_config(clients: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(SERVERS, clients, REPLICATION);
    cfg.retry_timeout = SimDuration::from_millis(50);
    // The benchmark measures the steady state, not failure detection: a
    // steal burst must not get a healthy server declared dead mid-run.
    cfg.failure_timeout = SimDuration::from_millis(2_000);
    cfg.heartbeat_interval = SimDuration::from_millis(25);
    cfg
}

/// The request stream of one client: the standard mix over `records`
/// uniform keys, unbounded (the run is bounded by time).
pub fn stream(workload: StandardWorkload, records: u64, seed: u64) -> RequestGenerator {
    let mut spec = WorkloadSpec::standard(workload).with_record_count(records);
    spec.value_bytes = VALUE_BYTES;
    spec.ops_per_client = u64::MAX;
    RequestGenerator::new(spec, seed)
}

/// One closed-loop wire client.
pub struct WireWorker {
    client: NetClient,
    gen: RequestGenerator,
    id: u64,
    writes: u64,
    value: Vec<u8>,
    /// Acknowledged writes of this client (load included).
    pub model: Model,
    /// Operations attempted, all phases.
    pub attempted: u64,
    /// Operations that errored, found nothing, or read a broken value.
    pub failed: u64,
    /// Key + value bytes of acknowledged writes.
    pub user_bytes: u64,
}

impl WireWorker {
    fn put(&mut self, key_index: u64) -> Option<Duration> {
        let key = self.gen.key_for(key_index);
        let tag = Tag {
            writer: self.id,
            counter: self.writes,
        };
        self.writes += 1;
        fill_value(&mut self.value, tag, key_index);
        self.attempted += 1;
        let t0 = Instant::now();
        match self.client.put_versioned(&key, &self.value) {
            Ok(version) => {
                let took = t0.elapsed();
                self.model.acked(key_index, version, tag);
                self.user_bytes += (key.len() + self.value.len()) as u64;
                Some(took)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn get(&mut self, key_index: u64) -> Option<(Duration, Vec<u8>)> {
        let key = self.gen.key_for(key_index);
        self.attempted += 1;
        let t0 = Instant::now();
        let got = self.client.get(&key);
        let took = t0.elapsed();
        match got {
            Ok(Some(v)) if check_value(&v, key_index, VALUE_BYTES).is_some() => Some((took, v)),
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

impl Worker for WireWorker {
    fn step(&mut self, _timed: bool) -> Step {
        let req = self.gen.next_request().expect("unbounded stream");
        let update = req.kind != OpKind::Read;
        let took = if update {
            self.put(req.key_index)
        } else {
            self.get(req.key_index).map(|(took, _)| took)
        };
        Step {
            update,
            latency_ns: took.map(|d| d.as_nanos() as u64),
        }
    }
}

/// A running fleet with its connected, loaded clients.
struct Deployment {
    fleet: RmcdFleet,
    workers: Vec<WireWorker>,
    registries: Vec<MetricsRegistry>,
}

/// Starts a fleet on fresh ports, connects the clients and loads the
/// records (client `c` loads the keys `≡ c mod clients`, in parallel).
fn deploy(workload: StandardWorkload, seed: u64, scale: &Scale) -> Result<Deployment, String> {
    let addrs = reserve_addrs(1 + SERVERS)?;
    let mut fleet_cfg = FleetConfig::new(rmcd_sibling_path()?, addrs.clone(), SERVERS, REPLICATION);
    fleet_cfg.failure_ms = Some(2_000);
    let fleet = RmcdFleet::spawn(fleet_cfg)?;
    let book: Vec<Option<SocketAddr>> = addrs.iter().copied().map(Some).collect();
    let clients = scale.wire_clients;
    let mut workers: Vec<WireWorker> = (0..clients)
        .map(|i| {
            let client =
                NetClient::connect(protocol_config(clients), i, AddressBook::new(book.clone()));
            WireWorker {
                client,
                gen: stream(workload, scale.wire_records, seed + i as u64),
                id: i as u64,
                writes: 0,
                value: vec![0u8; VALUE_BYTES],
                model: Model::default(),
                attempted: 0,
                failed: 0,
                user_bytes: 0,
            }
        })
        .collect();
    let registries = workers
        .iter()
        .map(|w| w.client.fabric().registry().clone())
        .collect();
    let records = scale.wire_records;
    std::thread::scope(|scope| {
        for (c, w) in workers.iter_mut().enumerate() {
            scope.spawn(move || {
                for key_index in (c as u64..records).step_by(clients) {
                    w.put(key_index);
                }
            });
        }
    });
    if let Some(w) = workers.iter().find(|w| w.failed > 0) {
        return Err(format!("load: client {} failed {} puts", w.id, w.failed));
    }
    Ok(Deployment {
        fleet,
        workers,
        registries,
    })
}

/// The fleet's processes by role, found through `/proc`.
struct FleetPids {
    coordinator: u32,
    servers: Vec<u32>,
}

impl FleetPids {
    fn find() -> Result<FleetPids, String> {
        let mut coordinator = None;
        let mut servers = vec![None; SERVERS];
        for (pid, args) in procfs::rmcd_children() {
            let arg = |flag: &str| {
                args.iter()
                    .position(|a| a == flag)
                    .and_then(|i| args.get(i + 1))
            };
            match (arg("--role").map(String::as_str), arg("--index")) {
                (Some("coordinator"), _) => coordinator = Some(pid),
                (Some("server"), Some(index)) => {
                    if let Some(slot) = index.parse().ok().and_then(|i: usize| servers.get_mut(i)) {
                        *slot = Some(pid);
                    }
                }
                _ => {}
            }
        }
        Ok(FleetPids {
            coordinator: coordinator.ok_or("coordinator process not found under /proc")?,
            servers: servers
                .into_iter()
                .collect::<Option<_>>()
                .ok_or("a server process was not found under /proc")?,
        })
    }

    fn sample(&self) -> FleetSample {
        FleetSample {
            coordinator: procfs::sample_process(self.coordinator),
            servers: self
                .servers
                .iter()
                .map(|&p| procfs::sample_process(p))
                .collect(),
        }
    }
}

struct FleetSample {
    coordinator: ProcSample,
    servers: Vec<ProcSample>,
}

/// Usage of the server threads whose name satisfies `class`, summed over
/// the servers.
fn servers_usage(a: &FleetSample, b: &FleetSample, class: impl Fn(&str) -> bool) -> Usage {
    let mut total = Usage::default();
    for (before, after) in a.servers.iter().zip(&b.servers) {
        total += procfs::usage(before, after, &class);
    }
    total
}

/// CPU the whole fleet burns per second with no load at all (accept and
/// delay-line polling, heartbeats) — the paper's non-proportionality.
fn idle_burn_ms_per_s(pids: &FleetPids, window: Duration) -> f64 {
    let before = pids.sample();
    let t0 = Instant::now();
    std::thread::sleep(window);
    let idle_s = t0.elapsed().as_secs_f64();
    let after = pids.sample();
    let busy = servers_usage(&before, &after, |_| true).run_ns
        + procfs::usage(&before.coordinator, &after.coordinator, |_| true).run_ns;
    busy as f64 / 1e6 / idle_s
}

/// The `fleet.*` metrics that split CPU by thread name, between the two
/// ends of the measured phase (`ops` completed in `elapsed_s`).
fn fleet_by_thread(
    before: &FleetSample,
    after: &FleetSample,
    ops: u64,
    elapsed_s: f64,
    report: &mut Report,
) {
    let per_op_us = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let class_us = |class: fn(&str) -> bool| per_op_us(servers_usage(before, after, class).run_ns);
    // The main thread of an rmcd is its node loop; its stdin watcher
    // shares the name but never runs.
    report.set("fleet.node_loop_cpu_us_per_op", class_us(|c| c == "rmcd"));
    report.set(
        "fleet.wire_read_cpu_us_per_op",
        class_us(|c| c.starts_with("wire-read")),
    );
    report.set(
        "fleet.net_forward_cpu_us_per_op",
        class_us(|c| c == "net-forward"),
    );
    let timers = servers_usage(before, after, |c| {
        c.starts_with("wire-accept") || c.starts_with("wire-delay")
    });
    report.set(
        "fleet.timer_threads_cpu_ms_per_s",
        timers.run_ns as f64 / 1e6 / elapsed_s,
    );
    let coordinator = procfs::usage(&before.coordinator, &after.coordinator, |_| true);
    report.set(
        "fleet.coordinator_cpu_ms_per_s",
        coordinator.run_ns as f64 / 1e6 / elapsed_s,
    );
    let servers = servers_usage(before, after, |_| true);
    report.set(
        "fleet.ctx_switches_per_op",
        servers.voluntary_switches as f64 / ops.max(1) as f64,
    );
    report.set("fleet.runq_wait_us_per_op", per_op_us(servers.wait_ns));
    let all = || after.servers.iter().chain([&after.coordinator]);
    report.set(
        "fleet.rss_mb_end",
        all().map(|p| p.rss_kb).sum::<u64>() as f64 / 1024.0,
    );
    report.set(
        "fleet.threads",
        all().map(|p| p.threads.len()).sum::<usize>() as f64,
    );
}

/// Reads every key back once, in parallel over the clients' connections,
/// against the merged model. Returns how many whole, self-consistent
/// values carried a tag other than the model's (a read that fails
/// outright is counted by the worker itself).
fn audit(workers: &mut [WireWorker], model: &Model, records: u64) -> u64 {
    let clients = workers.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(c, w)| {
                scope.spawn(move || {
                    let mut stale = 0u64;
                    for key_index in (c as u64..records).step_by(clients) {
                        if let Some((_, v)) = w.get(key_index) {
                            if !audit_read(model, key_index, Some(&v), VALUE_BYTES) {
                                stale += 1;
                            }
                        }
                    }
                    stale
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit thread"))
            .sum()
    })
}

/// The `core.*` metrics, from every server's Stats RPC: counts sum over
/// servers, quantiles quote the worst server.
fn core_stats(
    client: &mut NetClient,
    user_bytes: u64,
    report: &mut Report,
    complaints: &mut Vec<String>,
) {
    let (mut ack_p50, mut ack_p99, mut staged) = (0u64, 0u64, 0u64);
    let mut counters = [0u64; 3];
    for s in 0..SERVERS {
        match client.node_stats(server_id(s)) {
            Ok(stats) => {
                let stat = |key: &str| stats.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
                ack_p50 = ack_p50.max(stat("ack_wait_p50_ns"));
                ack_p99 = ack_p99.max(stat("ack_wait_p99_ns"));
                staged += stat("staged_bytes");
                for (total, key) in counters.iter_mut().zip([
                    "rifl_replays",
                    "pending_resends",
                    "backup_append_errors",
                ]) {
                    *total += stat(key);
                }
            }
            Err(e) => complaints.push(format!("stats of server {s}: {e}")),
        }
    }
    report.set("core.ack_wait_p50_us", ack_p50 as f64 / 1e3);
    report.set("core.ack_wait_p99_us", ack_p99 as f64 / 1e3);
    report.set(
        "core.staged_bytes_per_user_byte",
        staged as f64 / user_bytes.max(1) as f64,
    );
    report.set("core.rifl_replays", counters[0] as f64);
    report.set("core.pending_resends", counters[1] as f64);
    report.set("core.backup_append_errors", counters[2] as f64);
}

/// Runs `wire_c` (`StandardWorkload::C`) or `wire_a` (`A`).
pub fn run(
    workload: StandardWorkload,
    seed: u64,
    measure: Duration,
    trace: bool,
    scale: &Scale,
) -> Result<Outcome, String> {
    // Set-up is timed several times, on a fresh fleet each, and the median
    // reported; the last deployment is the one measured.
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..scale.setups {
        if let Some(Deployment { fleet, workers, .. }) = deployment.take() {
            drop(workers);
            fleet.shutdown(Duration::from_secs(10))?;
        }
        let t0 = Instant::now();
        deployment = Some(deploy(workload, seed, scale)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Deployment {
        fleet,
        workers,
        registries,
    } = deployment.expect("at least one set-up");
    let pids = FleetPids::find()?;
    let mut report = Report::default();
    report.set("setup_s", median(&mut setup_s));
    if trace {
        report.set(
            "fleet.idle_cpu_ms_per_s",
            idle_burn_ms_per_s(&pids, scale.idle_window),
        );
    }

    let wire_sum = |name: &str| registries.iter().map(|r| r.get(name)).sum::<u64>();
    let client_sum =
        |suffix: &str| -> u64 { registries.iter().map(|r| r.sum("client.", suffix)).sum() };
    let frames = || wire_sum("wire.frames_tx") + wire_sum("wire.frames_rx");
    let mut fleet_cpu = Vec::with_capacity(2);
    let mut frames_at = Vec::with_capacity(2);
    // Charged to the ops: the harness (clients), then the fleet.
    let mut charged = vec![std::process::id(), pids.coordinator];
    charged.extend(&pids.servers);
    let result = run_closed_loop(workers, scale.warmup, measure, 1, &charged, |_begin| {
        fleet_cpu.push(pids.sample());
        frames_at.push(frames());
    });

    let (quiet, latency) = summary::rate_and_latency(&result.windows, &result.samples, &mut report);
    // CPU and joules over the same quiet windows: every rmcd process plus
    // the harness; the three servers are the nodes that draw power.
    let (quiet_ops, quiet_cpu_ns) = summary::cpu_and_energy(
        &result.windows,
        &quiet,
        &result.window_cpu_ns,
        &[2, 3, 4],
        &mut report,
    );
    let quiet_us = |ns: u64| ns as f64 / 1e3 / quiet_ops.max(1) as f64;
    report.set("client.cpu_us_per_op", quiet_us(quiet_cpu_ns[0]));
    report.set(
        "fleet.cpu_us_per_op",
        quiet_us(quiet_cpu_ns[1..].iter().sum()),
    );
    fleet_by_thread(
        &fleet_cpu[0],
        &fleet_cpu[1],
        result.ops,
        result.elapsed_s,
        &mut report,
    );
    report.set(
        "client.frames_per_op",
        (frames_at[1] - frames_at[0]) as f64 / result.ops.max(1) as f64,
    );

    // Audit: merge what every client had acknowledged, read it all back.
    let mut workers = result.workers;
    let mut model = Model::default();
    for w in &mut workers {
        model.merge(std::mem::take(&mut w.model));
    }
    let stale = audit(&mut workers, &model, scale.wire_records);
    let attempted: u64 = workers.iter().map(|w| w.attempted).sum();
    let failed: u64 = workers.iter().map(|w| w.failed).sum::<u64>() + stale;
    let user_bytes: u64 = workers.iter().map(|w| w.user_bytes).sum();

    let mut complaints = Vec::new();
    core_stats(
        &mut workers[0].client,
        user_bytes,
        &mut report,
        &mut complaints,
    );
    report.set(
        "client.retries_per_kop",
        client_sum(".retries") as f64 * 1e3 / attempted.max(1) as f64,
    );
    report.set("client.giveups", client_sum(".giveups") as f64);
    report.set("client.wrong_owner", client_sum(".wrong_owner") as f64);
    let decode_errors = wire_sum("wire.decode_errors");
    report.set("wire.decode_errors", decode_errors as f64);
    report.set("wire.reconnects", wire_sum("wire.reconnects") as f64);

    drop(workers); // closes every client fabric
    if let Err(e) = fleet.shutdown(Duration::from_secs(10)) {
        complaints.push(e);
    }
    let orphans = procfs::rmcd_children();
    if !orphans.is_empty() {
        complaints.push(format!("orphan rmcd processes: {orphans:?}"));
    }
    if stale > 0 {
        complaints.push(format!(
            "audit: {stale} keys hold a value other than their latest acknowledged write"
        ));
    }
    if decode_errors > 0 {
        complaints.push(format!("{decode_errors} wire decode errors"));
    }
    if failed > 0 {
        complaints.push(format!("{failed} of {attempted} operations failed"));
    }

    if trace {
        report.absorb(hops::trace(workload, seed, scale)?);
    }
    Ok(Outcome {
        correct: complaints.is_empty(),
        attempted,
        failed,
        report,
        complaints,
        windows: summary::window_records(&result.windows, &quiet, latency),
    })
}
