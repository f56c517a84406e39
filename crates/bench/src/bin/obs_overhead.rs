//! Observability ablation: what does always-on instrumentation cost?
//!
//! The `rmc-obs` design brief is "cheap enough to leave on": sampled stage
//! timing, one relaxed load on every unsampled op. This bench proves the budget on the worst case — the
//! zero-copy read-path hot loop, where a single extra clock read would
//! already cost ~10 %:
//!
//! - `disabled` — the kill switch ([`rmc_obs::set_enabled`]) off: every
//!   record point reduces to a relaxed load + branch;
//! - `enabled` — the default shipping configuration: 1-in-32 stage
//!   sampling into the `stage.*` histograms.
//!
//! Both modes run against the **same server instance** (memory layout,
//! allocator state, and cache geometry are per-instance and vary by
//! several percent — more than the effect under test), in interleaved
//! rounds (disabled, enabled, disabled, …) so slow drift hits both
//! alike (and alternating order within each round so run-after-run
//! effects cancel); the headline overhead is the 25 %-trimmed mean of the
//! per-round paired deltas, which shrugs off one-off stalls in either
//! direction on shared hardware.
//! The report validator enforces `overhead_percent <= budget_percent`
//! (3 %), so CI's `--check` pass doubles as the acceptance gate.
//!
//! Usage:
//!   obs_overhead [--smoke] [--out PATH]   run the ablation, write a report
//!   obs_overhead --check PATH             validate an existing report

use std::process::ExitCode;
use std::sync::Arc;

use rmc_bench::backend::{latency_json, StandaloneBackend};
use rmc_bench::chart::format_quantity as kops;
use rmc_bench::json::Json;
use rmc_bench::report::{self, paired_overhead_percent, SCHEMA_VERSION};
use rmc_logstore::LogConfig;
use rmc_standalone::{ServerConfig, StandaloneServer};
use rmc_ycsb::runner::{self, RunSummary, RunnerConfig};
use rmc_ycsb::{Distribution, Mix, WorkloadSpec};

const SHARDS: usize = 16;
/// The acceptance bound: enabled instrumentation may cost at most this
/// much read throughput versus the kill-switch baseline.
const BUDGET_PERCENT: f64 = 3.0;

#[derive(Clone, Copy)]
struct Scale {
    record_count: u64,
    ops_per_client: u64,
    value_bytes: usize,
    /// Interleaved (disabled, enabled) round pairs. The full scale's
    /// working set sits near the cache-capacity boundary, where run-to-run
    /// throughput is noisier, so it buys extra rounds for the trimmed mean.
    rounds: usize,
    smoke: bool,
}

const FULL: Scale = Scale {
    record_count: 10_000,
    ops_per_client: 400_000,
    value_bytes: 256,
    rounds: 48,
    smoke: false,
};

const SMOKE: Scale = Scale {
    record_count: 512,
    ops_per_client: 300_000,
    value_bytes: 64,
    rounds: 16,
    smoke: true,
};

fn mode_name(enabled: bool) -> &'static str {
    if enabled {
        "enabled"
    } else {
        "disabled"
    }
}

struct Measurement {
    enabled: bool,
    round: usize,
    summary: RunSummary,
    /// `stage.read_service_ns` samples taken during the run — proof the
    /// switch was actually in the claimed position.
    stage_samples: u64,
}

fn run_measured(
    backend: &Arc<StandaloneBackend>,
    spec: &WorkloadSpec,
    hist: &rmc_runtime::HistogramHandle,
    enabled: bool,
    round: usize,
) -> Result<Measurement, String> {
    rmc_obs::set_enabled(enabled);
    let before = hist.count();
    let summary = runner::run(
        backend,
        spec,
        &RunnerConfig {
            clients: 1,
            batch_size: 1,
            seed: 42,
        },
    );
    rmc_obs::set_enabled(true);
    let summary = summary?;
    let stage_samples = hist.count() - before;
    println!(
        "  round {round} {:<8} {:>9} ops/s  read p99 {:>7.2} us  stage samples {}",
        mode_name(enabled),
        kops(summary.throughput_ops_per_sec),
        summary.reads.p99_us,
        stage_samples,
    );
    Ok(Measurement {
        enabled,
        round,
        summary,
        stage_samples,
    })
}

/// Runs the full interleaved ablation against one shared server instance.
fn run_ablation(scale: Scale) -> Result<Vec<Measurement>, String> {
    let server = StandaloneServer::start(ServerConfig {
        shards: SHARDS,
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: 256,
            ordered_index: false,
        },
        ..ServerConfig::default()
    });
    let spec = WorkloadSpec {
        name: "read100-obs".to_owned(),
        mix: Mix {
            read: 1.0,
            update: 0.0,
        },
        distribution: Distribution::Uniform,
        record_count: scale.record_count,
        value_bytes: scale.value_bytes,
        ops_per_client: scale.ops_per_client,
    };
    let backend = Arc::new(StandaloneBackend {
        client: server.client(),
    });
    runner::load(&*backend, &spec, 1)?;
    let hist = server.metrics().histogram("stage.read_service_ns");

    // Unrecorded warmup: first-touch page faults and allocator growth land
    // here, not in round 0.
    run_measured(&backend, &spec, &hist, false, 0)?;
    let mut measurements = Vec::new();
    for round in 0..scale.rounds {
        // Interleave so drift lands on both modes symmetrically, and
        // alternate which mode goes first so any run-after-run order
        // effect (cache state left by the previous run) cancels too.
        let first = round % 2 == 0;
        measurements.push(run_measured(&backend, &spec, &hist, first, round)?);
        measurements.push(run_measured(&backend, &spec, &hist, !first, round)?);
    }
    server.shutdown();
    Ok(measurements)
}

fn report(measurements: &[Measurement], scale: Scale) -> Result<Json, String> {
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("mode", mode_name(m.enabled).into()),
                ("round", m.round.into()),
                ("ops", m.summary.ops.into()),
                ("elapsed_secs", m.summary.elapsed_secs.into()),
                (
                    "throughput_ops_per_sec",
                    m.summary.throughput_ops_per_sec.into(),
                ),
                ("stage_samples", m.stage_samples.into()),
                ("read_latency_us", latency_json(&m.summary.reads)),
            ])
        })
        .collect();

    // Headline statistic: the trimmed mean of per-round paired overheads
    // (shared with the validator, which recomputes it from these rows).
    // The per-mode medians are informational context.
    let mut pairs = Vec::new();
    for round in 0..scale.rounds {
        let pick = |enabled: bool| {
            measurements
                .iter()
                .find(|m| m.round == round && m.enabled == enabled)
                .map(|m| m.summary.throughput_ops_per_sec)
                .ok_or_else(|| format!("round {round} is missing a mode"))
        };
        pairs.push((pick(false)?, pick(true)?));
    }
    let overhead = paired_overhead_percent(&pairs)?;
    let median = |enabled: bool| {
        let mut v: Vec<f64> = measurements
            .iter()
            .filter(|m| m.enabled == enabled)
            .map(|m| m.summary.throughput_ops_per_sec)
            .collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let disabled = median(false);
    let enabled = median(true);
    println!(
        "\ncomparison (trimmed paired mean over {} rounds): disabled median {} -> enabled median {} ops/s, overhead {overhead:+.2}% (budget {BUDGET_PERCENT}%)",
        scale.rounds,
        kops(disabled),
        kops(enabled),
    );

    Ok(Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("benchmark", "obs_overhead".into()),
        (
            "config",
            Json::obj(vec![
                ("record_count", scale.record_count.into()),
                ("ops_per_client", scale.ops_per_client.into()),
                ("value_bytes", scale.value_bytes.into()),
                ("shards", SHARDS.into()),
                ("rounds", scale.rounds.into()),
                ("smoke", scale.smoke.into()),
            ]),
        ),
        ("results", Json::Arr(results)),
        (
            "comparison",
            Json::obj(vec![
                ("disabled_ops_per_sec", disabled.into()),
                ("enabled_ops_per_sec", enabled.into()),
                ("overhead_percent", overhead.into()),
                ("budget_percent", BUDGET_PERCENT.into()),
            ]),
        ),
    ]))
}

fn main() -> ExitCode {
    report::run_bin("obs_overhead", "BENCH_obs.json", &[], |cli| {
        let scale = if cli.smoke { SMOKE } else { FULL };
        println!(
            "observability ablation ({}): {} records x {} B, read-only, {} ops x {} interleaved rounds",
            if scale.smoke { "smoke" } else { "full" },
            scale.record_count,
            scale.value_bytes,
            scale.ops_per_client,
            scale.rounds,
        );
        // The validator behind `emit` enforces the overhead budget, so a
        // run over budget fails here as it would under `--check`.
        run_ablation(scale)
            .and_then(|measurements| report(&measurements, scale))
            .and_then(|doc| report::emit(&doc, &cli.out))
    })
}
