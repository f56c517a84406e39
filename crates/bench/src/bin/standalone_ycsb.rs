//! YCSB-driven throughput harness for the standalone server.
//!
//! Binds the wall-clock YCSB runner (`rmc_ycsb::runner`) to
//! `rmc_standalone` and sweeps read/write mixes × batch sizes,
//! emitting a machine-readable `BENCH_standalone.json` (schema validated by
//! `rmc_bench::report`, which CI's smoke run re-checks).
//!
//! The replicated cluster — in process and as `rmcd` processes over TCP —
//! is measured by the repo's benchmark (`benchmark/`, workloads `wire_c`,
//! `wire_a`, `path_a`), not here.
//!
//! Usage:
//!   standalone_ycsb [--smoke] [--out PATH]   run the sweep, write a report
//!   standalone_ycsb --check PATH             validate an existing report

use std::process::ExitCode;
use std::sync::Arc;

use rmc_bench::backend::{latency_json, StandaloneBackend};
use rmc_bench::chart::format_quantity as kops;
use rmc_bench::json::Json;
use rmc_bench::report::{self, SCHEMA_VERSION};
use rmc_energy::{attribute_energy, EnergyAttribution, NodeActivity, OpClassUsage, PowerProfile};
use rmc_logstore::LogConfig;
use rmc_runtime::MetricsRegistry;
use rmc_standalone::{ServerConfig, StandaloneServer, STAGE_SAMPLE};
use rmc_ycsb::runner::{self, RunSummary, RunnerConfig};
use rmc_ycsb::{Distribution, Mix, WorkloadSpec};

#[derive(Clone, Copy)]
struct Scale {
    record_count: u64,
    ops_per_client: u64,
    clients: usize,
    value_bytes: usize,
    smoke: bool,
}

const FULL: Scale = Scale {
    record_count: 10_000,
    ops_per_client: 25_000,
    clients: 4,
    value_bytes: 256,
    smoke: false,
};

const SMOKE: Scale = Scale {
    record_count: 512,
    ops_per_client: 20_000,
    clients: 2,
    value_bytes: 64,
    smoke: true,
};

/// The read/write mixes swept (names are stable schema values).
const MIXES: &[(&str, f64)] = &[("read50", 0.50), ("read95", 0.95), ("read100", 1.0)];
const BATCH_SIZES: &[usize] = &[1, 16];

fn spec_for(name: &str, read_fraction: f64, scale: Scale) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        mix: Mix {
            read: read_fraction,
            update: 1.0 - read_fraction,
        },
        distribution: Distribution::Uniform,
        record_count: scale.record_count,
        value_bytes: scale.value_bytes,
        ops_per_client: scale.ops_per_client,
    }
}

struct Measurement {
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
/// went — shard service, and (for reads that lost the lock-free race)
/// fallback-lock dwell.
fn stages_json(server: &StandaloneServer) -> Json {
    let m = server.metrics();
    Json::obj(vec![
        ("sample_period", STAGE_SAMPLE.into()),
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
    mix: &'static str,
    read_fraction: f64,
    batch_size: usize,
    scale: Scale,
) -> Result<Measurement, String> {
    let server = StandaloneServer::start(ServerConfig {
        shards: 16,
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: 256,
            ordered_index: false,
        },
        ..ServerConfig::default()
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
    let read_svc_p50 = p50_us("stage.read_service_ns");
    let write_svc_p50 = p50_us("stage.write_service_ns");
    server.shutdown();
    println!(
        "  standalone     mix={mix:<8} batch={batch_size:<3} {:>9} ops/s  read p99 {:>8.1} us",
        kops(summary.throughput_ops_per_sec),
        summary.reads.p99_us,
    );
    // The sampled decomposition next to the end-to-end figures it must
    // stay consistent with: each stage p50 can only be a part of — never
    // exceed by much — the matching op class's end-to-end p50.
    println!(
        "      stages (1/{STAGE_SAMPLE} sampled): read svc p50 {read_svc_p50:.1} us (e2e {:.1}) | write svc p50 {write_svc_p50:.1} us (e2e {:.1})",
        summary.reads.p50_us,
        summary.writes.p50_us,
    );
    Ok(Measurement {
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

fn sweep(scale: Scale) -> Result<Vec<Measurement>, String> {
    let mut all = Vec::new();
    for &(mix, read_fraction) in MIXES {
        for &batch_size in BATCH_SIZES {
            all.push(run_one(mix, read_fraction, batch_size, scale)?);
        }
    }
    Ok(all)
}

fn report(measurements: &[Measurement], scale: Scale) -> Json {
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::obj(vec![
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
    ])
}

fn main() -> ExitCode {
    report::run_bin("standalone_ycsb", "BENCH_standalone.json", &[], |cli| {
        let scale = if cli.smoke { SMOKE } else { FULL };
        println!(
            "standalone YCSB sweep ({}): {} records x {} B, {} clients x {} ops",
            if scale.smoke { "smoke" } else { "full" },
            scale.record_count,
            scale.value_bytes,
            scale.clients,
            scale.ops_per_client,
        );
        sweep(scale).and_then(|measurements| report::emit(&report(&measurements, scale), &cli.out))
    })
}
