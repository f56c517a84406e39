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
use std::time::Instant;

use rmc_bench::chart::format_quantity as kops;
use rmc_bench::json::Json;
use rmc_bench::report::{self, paired_overhead_percent, SCHEMA_VERSION};
use rmc_logstore::{LogConfig, TableId};
use rmc_standalone::{Client, ServerConfig, StandaloneServer};
use rmc_ycsb::{Distribution, LatencySummary, Mix, RequestGenerator, WorkloadSpec};

const SHARDS: usize = 16;
/// The table every record lives in.
const TABLE: TableId = TableId(1);
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
    elapsed_secs: f64,
    throughput_ops_per_sec: f64,
    reads: LatencySummary,
    /// `stage.read_service_ns` samples taken during the run — proof the
    /// switch was actually in the claimed position.
    stage_samples: u64,
}

/// Writes every record of `spec`, 128 to a `multiwrite`.
fn preload(client: &Client, spec: &WorkloadSpec) -> Result<(), String> {
    let mut generator = RequestGenerator::new(spec.clone(), 1);
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..spec.record_count)
        .map(|index| (spec.key_for(index), generator.value_for(index)))
        .collect();
    for chunk in records.chunks(128) {
        let ops: Vec<(&[u8], &[u8])> = chunk
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        for outcome in client.multiwrite(TABLE, &ops).map_err(|e| e.to_string())? {
            outcome.map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One closed-loop client: every request of the (read-only) stream is one
/// timed `read_view`, the server's lock-free zero-copy path. Returns the
/// per-read latencies, µs.
fn read_loop(client: &Client, spec: &WorkloadSpec) -> Result<Vec<f64>, String> {
    let mut generator = RequestGenerator::new(spec.clone(), 42);
    let mut read_us = Vec::with_capacity(spec.ops_per_client as usize);
    while let Some(request) = generator.next_request() {
        let key = generator.key_for(request.key_index);
        let t = Instant::now();
        client.read_view(TABLE, &key).map_err(|e| e.to_string())?;
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(read_us)
}

fn run_measured(
    client: &Client,
    spec: &WorkloadSpec,
    hist: &rmc_runtime::HistogramHandle,
    enabled: bool,
    round: usize,
) -> Result<Measurement, String> {
    rmc_obs::set_enabled(enabled);
    let before = hist.count();
    let start = Instant::now();
    let handle = {
        let (client, spec) = (client.clone(), spec.clone());
        std::thread::spawn(move || read_loop(&client, &spec))
    };
    let read_us = handle.join().expect("client thread panicked");
    let elapsed_secs = start.elapsed().as_secs_f64();
    rmc_obs::set_enabled(true);
    let mut read_us = read_us?;
    let stage_samples = hist.count() - before;
    let m = Measurement {
        enabled,
        round,
        elapsed_secs,
        throughput_ops_per_sec: read_us.len() as f64 / elapsed_secs,
        reads: LatencySummary::from_samples(&mut read_us),
        stage_samples,
    };
    println!(
        "  round {round} {:<8} {:>9} ops/s  read p99 {:>7.2} us  stage samples {}",
        mode_name(enabled),
        kops(m.throughput_ops_per_sec),
        m.reads.p99_us,
        stage_samples,
    );
    Ok(m)
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
    let client = server.client();
    preload(&client, &spec)?;
    let hist = server.metrics().histogram("stage.read_service_ns");

    // Unrecorded warmup: first-touch page faults and allocator growth land
    // here, not in round 0.
    run_measured(&client, &spec, &hist, false, 0)?;
    let mut measurements = Vec::new();
    for round in 0..scale.rounds {
        // Interleave so drift lands on both modes symmetrically, and
        // alternate which mode goes first so any run-after-run order
        // effect (cache state left by the previous run) cancels too.
        let first = round % 2 == 0;
        measurements.push(run_measured(&client, &spec, &hist, first, round)?);
        measurements.push(run_measured(&client, &spec, &hist, !first, round)?);
    }
    server.shutdown();
    Ok(measurements)
}

/// Renders a latency summary as the report's `read_latency_us` block.
fn latency_json(lat: &LatencySummary) -> Json {
    Json::obj(vec![
        ("count", lat.count.into()),
        ("mean", lat.mean_us.into()),
        ("p50", lat.p50_us.into()),
        ("p90", lat.p90_us.into()),
        ("p99", lat.p99_us.into()),
        ("max", lat.max_us.into()),
    ])
}

fn report(measurements: &[Measurement], scale: Scale) -> Result<Json, String> {
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("mode", mode_name(m.enabled).into()),
                ("round", m.round.into()),
                ("ops", m.reads.count.into()),
                ("elapsed_secs", m.elapsed_secs.into()),
                ("throughput_ops_per_sec", m.throughput_ops_per_sec.into()),
                ("stage_samples", m.stage_samples.into()),
                ("read_latency_us", latency_json(&m.reads)),
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
                .map(|m| m.throughput_ops_per_sec)
                .ok_or_else(|| format!("round {round} is missing a mode"))
        };
        pairs.push((pick(false)?, pick(true)?));
    }
    let overhead = paired_overhead_percent(&pairs)?;
    let median = |enabled: bool| {
        let mut v: Vec<f64> = measurements
            .iter()
            .filter(|m| m.enabled == enabled)
            .map(|m| m.throughput_ops_per_sec)
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
