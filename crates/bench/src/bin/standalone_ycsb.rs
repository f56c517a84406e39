//! YCSB-driven throughput harness for the standalone server.
//!
//! Binds the wall-clock YCSB runner (`rmc_ycsb::runner`) to
//! `rmc_standalone` and sweeps worker counts × read/write mixes × batch sizes,
//! emitting a machine-readable `BENCH_standalone.json` (schema validated by
//! `rmc_bench::report`, which CI's smoke run re-checks).
//!
//! A second backend drives the same workloads through the replicated
//! mini-cluster (`rmc_standalone::MiniCluster`): coordinator + masters +
//! backups as real threads, every write paying the primary-backup
//! replication round trip. Its numbers land in the report's
//! `mini_cluster` section — the wall-clock cost of durability next to the
//! unreplicated single-server rows.
//!
//! A third backend (`--backend net_cluster`) takes the cluster out of
//! process: it spawns one `rmcd` coordinator and [`NET_SERVERS`] server
//! processes on loopback TCP, drives them through `rmc-wire` framed
//! connections, and emits a separate `BENCH_wire.json` with wire-health
//! counters and the servers' replication ack-wait decomposition fetched
//! over the live Stats RPC.
//!
//! Usage:
//!   standalone_ycsb [--smoke] [--out PATH]   run the sweep, write a report
//!   standalone_ycsb --backend net_cluster [--smoke] [--out PATH]
//!                                            spawn rmcd processes, write BENCH_wire.json
//!   standalone_ycsb --check PATH             validate an existing report (any schema)

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use rmc_bench::backend::{latency_json, StandaloneBackend};
use rmc_bench::json::{self, Json};
use rmc_bench::kops;
use rmc_bench::report::{validate_standalone_report, validate_wire_report, SCHEMA_VERSION};
use rmc_core::protocol::{server_id, ProtocolConfig};
use rmc_energy::{attribute_energy, EnergyAttribution, NodeActivity, OpClassUsage, PowerProfile};
use rmc_logstore::LogConfig;
use rmc_runtime::{MetricsRegistry, SimDuration};
use rmc_standalone::{
    cluster, reserve_addrs, rmcd_sibling_path, Fabric, FleetConfig, MiniCluster, NetClient,
    RmcdFleet, ServerConfig, StandaloneServer, STAGE_SAMPLE,
};
use rmc_wire::AddressBook;
use rmc_ycsb::runner::{self, KvBackend, LatencySummary, RunSummary, RunnerConfig};
use rmc_ycsb::{Distribution, Mix, WorkloadSpec};

/// Adapts a replicated cluster's sync clients — over either fabric — to
/// the runner's backend trait.
///
/// Client ops take `&mut self` (they own an inbox), so the backend keeps a
/// pool of clients in a channel: each op checks one out, runs against it,
/// and returns it. Pool size matches the runner's thread count, so
/// checkout never blocks in steady state.
struct ClusterBackend<F: Fabric> {
    ret: Sender<cluster::Client<F>>,
    pool: Receiver<cluster::Client<F>>,
}

impl<F: Fabric> ClusterBackend<F> {
    fn new(clients: Vec<cluster::Client<F>>) -> Self {
        let (ret, pool) = crossbeam::channel::unbounded();
        for c in clients {
            ret.send(c).expect("pool channel open");
        }
        ClusterBackend { ret, pool }
    }

    fn with_client<T>(
        &self,
        f: impl FnOnce(&mut cluster::Client<F>) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut client = self
            .pool
            .recv()
            .map_err(|_| "cluster client pool closed".to_string())?;
        let result = f(&mut client);
        let _ = self.ret.send(client);
        result
    }
}

impl<F: Fabric> KvBackend for ClusterBackend<F> {
    fn read(&self, key: &[u8]) -> Result<bool, String> {
        self.with_client(|c| c.get(key).map(|r| r.is_some()))
    }

    fn write(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.with_client(|c| c.put(key, value))
    }

    fn multiread(&self, keys: &[Vec<u8>]) -> Result<usize, String> {
        self.with_client(|c| {
            let mut found = 0;
            for key in keys {
                if c.get(key)?.is_some() {
                    found += 1;
                }
            }
            Ok(found)
        })
    }

    fn multiwrite(&self, ops: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        self.with_client(|c| {
            for (key, value) in ops {
                c.put(key, value)?;
            }
            Ok(())
        })
    }
}

#[derive(Clone, Copy)]
struct Scale {
    record_count: u64,
    ops_per_client: u64,
    clients: usize,
    value_bytes: usize,
    worker_counts: &'static [usize],
    smoke: bool,
}

const FULL: Scale = Scale {
    record_count: 10_000,
    ops_per_client: 25_000,
    clients: 4,
    value_bytes: 256,
    worker_counts: &[1, 2, 4],
    smoke: false,
};

const SMOKE: Scale = Scale {
    record_count: 512,
    ops_per_client: 500,
    clients: 2,
    value_bytes: 64,
    worker_counts: &[2],
    smoke: true,
};

/// The read/write mixes swept (names are stable schema values).
const MIXES: &[(&str, f64)] = &[("read50", 0.50), ("read95", 0.95), ("read100", 1.0)];
const BATCH_SIZES: &[usize] = &[1, 16];
/// The mix the replicated mini-cluster section runs.
const MINI_MIX: &str = "read95";

fn spec_for(name: &str, read_fraction: f64, scale: Scale) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        mix: Mix {
            read: read_fraction,
            update: 1.0 - read_fraction,
            insert: 0.0,
            rmw: 0.0,
            scan: 0.0,
        },
        distribution: Distribution::Uniform,
        record_count: scale.record_count,
        value_bytes: scale.value_bytes,
        ops_per_client: scale.ops_per_client,
    }
}

struct Measurement {
    workers: usize,
    mix: &'static str,
    read_fraction: f64,
    batch_size: usize,
    summary: RunSummary,
    /// Background-cleaner counters snapshotted before shutdown.
    cleaner: Json,
    /// Read-path counters snapshotted before shutdown.
    read_path: Json,
    /// Per-stage latency decomposition (`stage.*` histograms).
    stages: Json,
    /// Per-op-class energy attribution derived from the stage busy times.
    energy: Json,
}

/// One `stage.*` histogram rendered as the report's summary block.
fn stage_summary(m: &MetricsRegistry, name: &str) -> Json {
    let h = m.histogram(name).snapshot();
    Json::obj(vec![
        ("count", h.count().into()),
        ("mean_ns", h.mean().into()),
        ("p50_ns", h.quantile(0.5).into()),
        ("p99_ns", h.quantile(0.99).into()),
        ("max_ns", h.max().into()),
    ])
}

/// The per-stage latency decomposition block: where a sampled op's time
/// went — dispatch-queue wait, shard service, and (for reads that lost the
/// lock-free race) fallback-lock dwell.
fn stages_json(server: &StandaloneServer) -> Json {
    let m = server.metrics();
    Json::obj(vec![
        ("sample_period", STAGE_SAMPLE.into()),
        ("queue_wait_ns", stage_summary(m, "stage.queue_wait_ns")),
        ("read_service_ns", stage_summary(m, "stage.read_service_ns")),
        (
            "write_service_ns",
            stage_summary(m, "stage.write_service_ns"),
        ),
        (
            "fallback_locked_ns",
            stage_summary(m, "stage.fallback_locked_ns"),
        ),
    ])
}

/// Splits the run's modelled node energy across op classes using the
/// decomposed stage busy times (sampled sums scaled back up by the
/// sampling period; cleaner busy time is tracked unsampled).
fn energy_json(server: &StandaloneServer, summary: &RunSummary) -> Json {
    let m = server.metrics();
    let sampled_busy = |name: &str| {
        let h = m.histogram(name).snapshot();
        (h.mean() * h.count() as f64) as u64 * STAGE_SAMPLE
    };
    let read_busy = sampled_busy("stage.read_service_ns");
    let write_busy = sampled_busy("stage.write_service_ns");
    let cleaner_busy = m.sum("cleaner.", ".busy_ns");
    let classes = vec![
        OpClassUsage::new("read", summary.reads.count, read_busy),
        OpClassUsage::new("write", summary.writes.count, write_busy),
        OpClassUsage::new("cleaner", 0, cleaner_busy),
    ];
    let elapsed = summary.elapsed_secs.max(1e-9);
    let total_busy = (read_busy + write_busy + cleaner_busy) as f64;
    let profile = PowerProfile::grid5000_nancy();
    let activity = NodeActivity {
        cpu: (total_busy / (elapsed * 1e9)).clamp(0.0, 1.0),
        ..NodeActivity::idle()
    };
    let split = attribute_energy(&profile, activity, elapsed, &classes);
    energy_split_json(&split)
}

/// Renders an energy attribution as the report's `energy` block.
fn energy_split_json(split: &[EnergyAttribution]) -> Json {
    let total: f64 = split.iter().map(|a| a.joules).sum();
    Json::obj(vec![
        ("profile", "grid5000_nancy".into()),
        ("total_joules", total.into()),
        (
            "classes",
            Json::Arr(
                split
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("name", a.name.as_str().into()),
                            ("ops", a.ops.into()),
                            ("joules", a.joules.into()),
                            ("micro_joules_per_op", a.micro_joules_per_op.into()),
                            ("ops_per_joule", a.ops_per_joule.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Sums the per-shard `cleaner.{shard}.*` counters into the report's
/// cleaner block. Near-zero under this sweep's roomy log budget — the
/// block exists so operators see cleaning activity (or its absence) next
/// to the throughput it might explain; the `local_b` workload of
/// `benchmark/` is the run that forces real pressure.
fn cleaner_json(server: &StandaloneServer) -> Json {
    let m = server.metrics();
    let sum = |name: &str| m.sum("cleaner.", &format!(".{name}"));
    Json::obj(vec![
        ("passes", sum("passes").into()),
        ("segments_freed", sum("segments_freed").into()),
        ("segments_compacted", sum("segments_compacted").into()),
        ("bytes_relocated", sum("bytes_relocated").into()),
        ("tombstones_dropped", sum("tombstones_dropped").into()),
        ("busy_ns", sum("busy_ns").into()),
    ])
}

/// The report's per-row `read_path` block: the engine's read-path counters
/// — so every throughput number says how often reads actually took the
/// lock-free path and how often they fell back to the shard lock.
fn read_path_json(server: &StandaloneServer) -> Json {
    let stats = server.store().stats();
    Json::obj(vec![
        ("lockfree", stats.read_lockfree.into()),
        ("fallback_locked", stats.read_fallback_locked.into()),
    ])
}

fn run_one(
    workers: usize,
    mix: &'static str,
    read_fraction: f64,
    batch_size: usize,
    scale: Scale,
) -> Result<Measurement, String> {
    let server = StandaloneServer::start(ServerConfig {
        worker_threads: workers,
        shards: 16,
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: 256,
            ordered_index: false,
        },
        queue_capacity: 1024,
    });
    let spec = spec_for(mix, read_fraction, scale);
    let backend = Arc::new(StandaloneBackend {
        client: server.client(),
    });
    runner::load(&*backend, &spec, 1)?;
    let summary = runner::run(
        &backend,
        &spec,
        &RunnerConfig {
            clients: scale.clients,
            batch_size,
            seed: 42,
        },
    )?;
    let cleaner = cleaner_json(&server);
    let read_path = read_path_json(&server);
    let stages = stages_json(&server);
    let energy = energy_json(&server, &summary);
    let p50_us =
        |name: &str| server.metrics().histogram(name).snapshot().quantile(0.5) as f64 / 1000.0;
    let queue_p50 = p50_us("stage.queue_wait_ns");
    let read_svc_p50 = p50_us("stage.read_service_ns");
    let write_svc_p50 = p50_us("stage.write_service_ns");
    server.shutdown();
    println!(
        "  standalone     workers={workers} mix={mix:<8} batch={batch_size:<3} {:>9} ops/s  read p99 {:>8.1} us",
        kops(summary.throughput_ops_per_sec),
        summary.reads.p99_us,
    );
    // The sampled decomposition next to the end-to-end figures it must
    // stay consistent with: each stage p50 can only be a part of — never
    // exceed by much — the matching op class's end-to-end p50.
    println!(
        "      stages (1/{STAGE_SAMPLE} sampled): queue p50 {queue_p50:.1} us | read svc p50 {read_svc_p50:.1} us (e2e {:.1}) | write svc p50 {write_svc_p50:.1} us (e2e {:.1})",
        summary.reads.p50_us,
        summary.writes.p50_us,
    );
    Ok(Measurement {
        workers,
        mix,
        read_fraction,
        batch_size,
        summary,
        cleaner,
        read_path,
        stages,
        energy,
    })
}

/// Mini-cluster shape: small enough that the channel-bound replicated
/// path finishes promptly, big enough to exercise bucket spread.
const MINI_SERVERS: usize = 4;
const MINI_REPLICATION: usize = 2;

/// Runs [`MINI_MIX`] through the replicated mini-cluster: real
/// coordinator/master/backup threads, every write acked only after its
/// replicas are staged. Returns the report's `mini_cluster` section.
fn run_mini(scale: Scale) -> Result<Json, String> {
    let pool = scale.clients;
    let mut cfg = ProtocolConfig::new(MINI_SERVERS, pool, MINI_REPLICATION);
    // Wall-clock-safe control-plane timings (scheduler jitter must not
    // masquerade as a missed heartbeat).
    cfg.heartbeat_interval = SimDuration::from_millis(15);
    cfg.failure_timeout = SimDuration::from_millis(150);
    cfg.retry_timeout = SimDuration::from_millis(50);

    let mut spec = spec_for(MINI_MIX, 0.95, scale);
    // Every op is a cross-thread RPC (writes add a replication round
    // trip), so run a slice of the single-server volume.
    spec.record_count = (scale.record_count / 4).max(64);
    spec.ops_per_client = (scale.ops_per_client / 10).max(100);

    let (cluster, clients) = MiniCluster::start(cfg);
    let backend = Arc::new(ClusterBackend::new(clients));
    runner::load(&*backend, &spec, 1)?;
    let summary = runner::run(
        &backend,
        &spec,
        &RunnerConfig {
            clients: pool,
            batch_size: 1,
            seed: 42,
        },
    )?;
    drop(backend);
    let report = cluster.shutdown();
    // Replication-ack wait: how long masters sat on a committed write
    // waiting for backup acks — the decomposed cost of durability, next to
    // the end-to-end write latency it explains. Counts sum over servers;
    // quantiles quote the worst server.
    let ack_count = report.metrics.sum("server.", ".ack_wait_count");
    let snap = report.metrics.snapshot();
    let worst = |suffix: &str| {
        snap.iter()
            .filter(|(k, _)| k.starts_with("server.") && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    };
    println!(
        "  {:<14} servers={MINI_SERVERS} r={MINI_REPLICATION} mix={MINI_MIX:<8} {:>9} ops/s  write p99 {:>8.1} us",
        "mini_cluster",
        kops(summary.throughput_ops_per_sec),
        summary.writes.p99_us,
    );
    println!(
        "      ack wait: {} waits | worst-server p99 {:.1} us (write e2e p99 {:.1}) | {} span events",
        ack_count,
        worst(".ack_wait_p99_ns") as f64 / 1000.0,
        summary.writes.p99_us,
        report.spans.len(),
    );
    Ok(Json::obj(vec![
        (
            "replication_ack_wait",
            Json::obj(vec![
                ("count", ack_count.into()),
                ("worst_p50_ns", worst(".ack_wait_p50_ns").into()),
                ("worst_p99_ns", worst(".ack_wait_p99_ns").into()),
                ("max_ns", worst(".ack_wait_max_ns").into()),
            ]),
        ),
        ("span_events", report.spans.len().into()),
        ("servers", MINI_SERVERS.into()),
        ("replication", MINI_REPLICATION.into()),
        ("mix", MINI_MIX.into()),
        ("record_count", spec.record_count.into()),
        ("ops", summary.ops.into()),
        ("elapsed_secs", summary.elapsed_secs.into()),
        (
            "throughput_ops_per_sec",
            summary.throughput_ops_per_sec.into(),
        ),
        ("read_latency_us", latency_json(&summary.reads)),
        ("write_latency_us", latency_json(&summary.writes)),
    ]))
}

/// Socket-engine fleet shape: one coordinator + three server processes,
/// every write replicated to two backups over real loopback TCP.
const NET_SERVERS: usize = 3;
const NET_REPLICATION: usize = 2;

// Fleet lifecycle plumbing (spawn with ready-line sync, graceful join on
// shutdown, SIGKILL on drop) lives in `rmc_standalone::RmcdFleet` now,
// shared with the recovery ablation bench and the kill-9 durability test.

struct WireMeasurement {
    mix: &'static str,
    read_fraction: f64,
    batch_size: usize,
    summary: RunSummary,
    /// `wire.*` health counters summed over every client fabric.
    wire: Json,
    /// Replication ack-wait decomposition from the servers' Stats RPC.
    stages: Json,
    /// Energy modelled from client-observed service times.
    energy: Json,
}

/// Models the run's energy from the only vantage a separate-process
/// cluster offers without a sampling daemon: each op class's busy time is
/// its client-observed mean latency times its count — network wait
/// included, so this is the whole-request envelope, not server CPU alone.
fn wire_energy_json(summary: &RunSummary) -> Json {
    let busy = |lat: &LatencySummary| (lat.mean_us * 1000.0 * lat.count as f64) as u64;
    let read_busy = busy(&summary.reads);
    let write_busy = busy(&summary.writes);
    let classes = vec![
        OpClassUsage::new("read", summary.reads.count, read_busy),
        OpClassUsage::new("write", summary.writes.count, write_busy),
    ];
    let elapsed = summary.elapsed_secs.max(1e-9);
    let profile = PowerProfile::grid5000_nancy();
    let activity = NodeActivity {
        cpu: ((read_busy + write_busy) as f64 / (elapsed * 1e9)).clamp(0.0, 1.0),
        ..NodeActivity::idle()
    };
    energy_split_json(&attribute_energy(&profile, activity, elapsed, &classes))
}

/// One wire row: a fresh `rmcd` fleet on fresh ports, loaded and driven
/// over TCP, with wire health and server-side stage decomposition
/// snapshotted before teardown (so shutdown races can't leak into the
/// counters). A fleet per row keeps each row's connects/frames
/// attributable to that row alone.
fn run_wire_row(
    mix: &'static str,
    read_fraction: f64,
    scale: Scale,
) -> Result<WireMeasurement, String> {
    let addrs = reserve_addrs(1 + NET_SERVERS)?;
    let cluster = RmcdFleet::spawn(FleetConfig::new(
        rmcd_sibling_path()?,
        addrs.clone(),
        NET_SERVERS,
        NET_REPLICATION,
    ))?;
    let book_addrs: Vec<Option<SocketAddr>> = addrs.iter().copied().map(Some).collect();
    let mut clients = Vec::new();
    let mut registries = Vec::new();
    for i in 0..scale.clients {
        let mut cfg = ProtocolConfig::new(NET_SERVERS, scale.clients, NET_REPLICATION);
        cfg.retry_timeout = SimDuration::from_millis(50);
        let client = NetClient::connect(cfg, i, AddressBook::new(book_addrs.clone()));
        registries.push(client.fabric().registry().clone());
        clients.push(client);
    }

    let mut spec = spec_for(mix, read_fraction, scale);
    // Every op is a framed TCP round trip (writes add a replication round
    // trip on top), so run the mini-cluster's reduced volume.
    spec.record_count = (scale.record_count / 4).max(64);
    spec.ops_per_client = (scale.ops_per_client / 10).max(100);

    let backend = Arc::new(ClusterBackend::new(clients));
    runner::load(&*backend, &spec, 1)?;
    let summary = runner::run(
        &backend,
        &spec,
        &RunnerConfig {
            clients: scale.clients,
            batch_size: 1,
            seed: 42,
        },
    )?;

    // Replication ack-wait from the servers' live Stats RPC: counts sum
    // over servers, quantiles quote the worst one.
    let mut ack = (0u64, 0u64, 0u64, 0u64);
    for s in 0..NET_SERVERS {
        let stats = backend.with_client(|c| c.node_stats(server_id(s)))?;
        let stat = |key: &str| {
            stats
                .iter()
                .find(|(name, _)| name.as_str() == key)
                .map_or(0, |(_, v)| *v)
        };
        ack.0 += stat("ack_wait_count");
        ack.1 = ack.1.max(stat("ack_wait_p50_ns"));
        ack.2 = ack.2.max(stat("ack_wait_p99_ns"));
        ack.3 = ack.3.max(stat("ack_wait_max_ns"));
    }
    let wire_sum = |name: &str| registries.iter().map(|r| r.get(name)).sum::<u64>();
    let wire = Json::obj(vec![
        ("connects", wire_sum("wire.connects").into()),
        ("reconnects", wire_sum("wire.reconnects").into()),
        ("frames_tx", wire_sum("wire.frames_tx").into()),
        ("frames_rx", wire_sum("wire.frames_rx").into()),
        ("decode_errors", wire_sum("wire.decode_errors").into()),
    ]);
    let stages = Json::obj(vec![(
        "replication_ack_wait",
        Json::obj(vec![
            ("count", ack.0.into()),
            ("worst_p50_ns", ack.1.into()),
            ("worst_p99_ns", ack.2.into()),
            ("max_ns", ack.3.into()),
        ]),
    )]);
    let energy = wire_energy_json(&summary);
    drop(backend); // closes every client fabric
                   // Graceful teardown: each node flushes on stdin-EOF, and the processes
                   // are joined rather than abandoned (escalates to SIGKILL only if one
                   // hangs past the deadline).
    let _ = cluster.shutdown(std::time::Duration::from_secs(10));

    println!(
        "  {:<14} servers={NET_SERVERS} r={NET_REPLICATION} mix={mix:<8} batch=1   {:>9} ops/s  read p99 {:>8.1} us",
        "net_cluster",
        kops(summary.throughput_ops_per_sec),
        summary.reads.p99_us,
    );
    println!(
        "      wire: {} connects | {} tx / {} rx frames | ack wait {} (worst p99 {:.1} us)",
        wire_sum("wire.connects"),
        wire_sum("wire.frames_tx"),
        wire_sum("wire.frames_rx"),
        ack.0,
        ack.2 as f64 / 1000.0,
    );
    Ok(WireMeasurement {
        mix,
        read_fraction,
        batch_size: 1,
        summary,
        wire,
        stages,
        energy,
    })
}

/// Runs every mix through real `rmcd` processes and assembles the
/// `BENCH_wire.json` document (`benchmark: "wire_ycsb"`). The comparison
/// quotes read100 over read50 — what write replication over the wire
/// costs end to end.
fn run_net(scale: Scale) -> Result<Json, String> {
    let mut rows = Vec::new();
    for &(mix, read_fraction) in MIXES {
        rows.push(run_wire_row(mix, read_fraction, scale)?);
    }

    let pick = |mix: &str| {
        rows.iter()
            .find(|r| r.mix == mix)
            .map(|r| r.summary.throughput_ops_per_sec)
            .ok_or_else(|| format!("missing {mix} wire run"))
    };
    let read50 = pick("read50")?;
    let read100 = pick("read100")?;
    let speedup = read100 / read50;
    println!(
        "\nwire comparison (read100 vs read50, {} clients): {} -> {} ops/s = {speedup:.2}x",
        scale.clients,
        kops(read50),
        kops(read100),
    );

    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("backend", "net_cluster".into()),
                ("mix", r.mix.into()),
                ("read_fraction", r.read_fraction.into()),
                ("clients", scale.clients.into()),
                ("batch_size", r.batch_size.into()),
                ("ops", r.summary.ops.into()),
                ("elapsed_secs", r.summary.elapsed_secs.into()),
                (
                    "throughput_ops_per_sec",
                    r.summary.throughput_ops_per_sec.into(),
                ),
                ("read_latency_us", latency_json(&r.summary.reads)),
                ("write_latency_us", latency_json(&r.summary.writes)),
                ("wire", r.wire.clone()),
                ("stages", r.stages.clone()),
                ("energy", r.energy.clone()),
            ])
        })
        .collect();

    Ok(Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("benchmark", "wire_ycsb".into()),
        (
            "config",
            Json::obj(vec![
                ("servers", NET_SERVERS.into()),
                ("replication", NET_REPLICATION.into()),
                ("clients", scale.clients.into()),
                ("record_count", (scale.record_count / 4).max(64).into()),
                (
                    "ops_per_client",
                    (scale.ops_per_client / 10).max(100).into(),
                ),
                ("value_bytes", scale.value_bytes.into()),
                ("smoke", scale.smoke.into()),
            ]),
        ),
        ("results", Json::Arr(results)),
        (
            "comparison",
            Json::obj(vec![
                ("clients", scale.clients.into()),
                ("read50_ops_per_sec", read50.into()),
                ("read100_ops_per_sec", read100.into()),
                ("speedup", speedup.into()),
            ]),
        ),
    ]))
}

fn sweep(scale: Scale) -> Result<Vec<Measurement>, String> {
    let mut all = Vec::new();
    for &workers in scale.worker_counts {
        for &(mix, read_fraction) in MIXES {
            for &batch_size in BATCH_SIZES {
                all.push(run_one(workers, mix, read_fraction, batch_size, scale)?);
            }
        }
    }
    Ok(all)
}

fn report(measurements: &[Measurement], mini: Json, scale: Scale) -> Json {
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("workers", m.workers.into()),
                ("mix", m.mix.into()),
                ("read_fraction", m.read_fraction.into()),
                ("batch_size", m.batch_size.into()),
                ("ops", m.summary.ops.into()),
                ("elapsed_secs", m.summary.elapsed_secs.into()),
                (
                    "throughput_ops_per_sec",
                    m.summary.throughput_ops_per_sec.into(),
                ),
                ("read_latency_us", latency_json(&m.summary.reads)),
                ("write_latency_us", latency_json(&m.summary.writes)),
                ("cleaner", m.cleaner.clone()),
                ("read_path", m.read_path.clone()),
                ("stages", m.stages.clone()),
                ("energy", m.energy.clone()),
            ])
        })
        .collect();

    Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("benchmark", "standalone_ycsb".into()),
        (
            "config",
            Json::obj(vec![
                ("record_count", scale.record_count.into()),
                ("ops_per_client", scale.ops_per_client.into()),
                ("clients", scale.clients.into()),
                ("value_bytes", scale.value_bytes.into()),
                ("smoke", scale.smoke.into()),
            ]),
        ),
        ("results", Json::Arr(results)),
        ("mini_cluster", mini),
    ])
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text)?;
    // Dispatch on the document's own benchmark tag so one --check flag
    // validates whichever report this binary can emit.
    let kind = doc
        .get("benchmark")
        .and_then(Json::as_str)
        .unwrap_or("standalone_ycsb")
        .to_owned();
    match kind.as_str() {
        "wire_ycsb" => validate_wire_report(&doc)?,
        _ => validate_standalone_report(&doc)?,
    }
    println!("{path}: valid {kind} report");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = FULL;
    let mut backend = String::from("standalone");
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => scale = SMOKE,
            "--backend" if i + 1 < args.len() => {
                i += 1;
                backend = args[i].clone();
            }
            "--out" if i + 1 < args.len() => {
                i += 1;
                out = Some(args[i].clone());
            }
            "--check" if i + 1 < args.len() => {
                i += 1;
                check_path = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: standalone_ycsb [--backend standalone|net_cluster] [--smoke] \
                     [--out PATH] | --check PATH"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if let Some(path) = check_path {
        return match check(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let outcome = match backend.as_str() {
        "net_cluster" => {
            let out = out.unwrap_or_else(|| "BENCH_wire.json".to_owned());
            println!(
                "wire YCSB over rmcd processes ({}): {} servers r={}, {} clients",
                if scale.smoke { "smoke" } else { "full" },
                NET_SERVERS,
                NET_REPLICATION,
                scale.clients,
            );
            run_net(scale).and_then(|doc| {
                // Never emit a report CI's validator would reject.
                validate_wire_report(&doc)?;
                std::fs::write(&out, format!("{doc}\n"))
                    .map_err(|e| format!("write {out}: {e}"))?;
                println!("-> {out}");
                Ok(())
            })
        }
        "standalone" => {
            let out = out.unwrap_or_else(|| "BENCH_standalone.json".to_owned());
            println!(
                "standalone YCSB sweep ({}): {} records x {} B, {} clients x {} ops",
                if scale.smoke { "smoke" } else { "full" },
                scale.record_count,
                scale.value_bytes,
                scale.clients,
                scale.ops_per_client,
            );
            sweep(scale).and_then(|measurements| {
                let mini = run_mini(scale)?;
                let doc = report(&measurements, mini, scale);
                // Never emit a report CI's validator would reject.
                validate_standalone_report(&doc)?;
                std::fs::write(&out, format!("{doc}\n"))
                    .map_err(|e| format!("write {out}: {e}"))?;
                println!("-> {out}");
                Ok(())
            })
        }
        other => Err(format!(
            "unknown backend {other:?} (expected standalone or net_cluster)"
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
