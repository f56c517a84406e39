//! Schema of the machine-readable standalone benchmark report
//! (`BENCH_standalone.json`) and its validator.
//!
//! The emitter (`src/bin/standalone_ycsb.rs`) and CI's smoke check share
//! this validator, so the schema can't silently drift from what downstream
//! tooling parses.

use crate::json::Json;

/// Current schema version emitted and accepted.
pub const SCHEMA_VERSION: u64 = 1;

fn field<'a>(obj: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

fn num(obj: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    field(obj, ctx, key)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a number"))
}

fn string<'a>(obj: &'a Json, ctx: &str, key: &str) -> Result<&'a str, String> {
    field(obj, ctx, key)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a string"))
}

fn latency(obj: &Json, ctx: &str, key: &str) -> Result<(), String> {
    let lat = field(obj, ctx, key)?;
    let ctx = format!("{ctx}.{key}");
    let count = num(lat, &ctx, "count")?;
    for stat in ["mean", "p50", "p90", "p99", "max"] {
        let v = num(lat, &ctx, stat)?;
        if count > 0.0 && v < 0.0 {
            return Err(format!("{ctx}: \"{stat}\" must be non-negative"));
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_standalone.json` document.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate_standalone_report(doc: &Json) -> Result<(), String> {
    let version = num(doc, "report", "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let benchmark = string(doc, "report", "benchmark")?;
    if benchmark != "standalone_ycsb" {
        return Err(format!("unexpected benchmark {benchmark:?}"));
    }

    let config = field(doc, "report", "config")?;
    for key in ["record_count", "ops_per_client", "clients", "value_bytes"] {
        let v = num(config, "config", key)?;
        if v <= 0.0 {
            return Err(format!("config: \"{key}\" must be positive"));
        }
    }

    let results = field(doc, "report", "results")?
        .as_array()
        .ok_or("report: \"results\" must be an array")?;
    if results.is_empty() {
        return Err("report: \"results\" must be non-empty".into());
    }
    for (i, result) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        string(result, &ctx, "mix")?;
        let read_fraction = num(result, &ctx, "read_fraction")?;
        if !(0.0..=1.0).contains(&read_fraction) {
            return Err(format!("{ctx}: read_fraction out of range"));
        }
        for key in ["workers", "batch_size", "ops"] {
            if num(result, &ctx, key)? < 1.0 {
                return Err(format!("{ctx}: \"{key}\" must be >= 1"));
            }
        }
        for key in ["elapsed_secs", "throughput_ops_per_sec"] {
            if num(result, &ctx, key)? <= 0.0 {
                return Err(format!("{ctx}: \"{key}\" must be positive"));
            }
        }
        latency(result, &ctx, "read_latency_us")?;
        latency(result, &ctx, "write_latency_us")?;
        // The background-cleaner block is optional (older reports predate
        // it), but when present its counters must be non-negative.
        if let Some(cleaner) = result.get("cleaner") {
            let cctx = format!("{ctx}.cleaner");
            for key in [
                "passes",
                "segments_freed",
                "segments_compacted",
                "bytes_relocated",
                "tombstones_dropped",
                "busy_ns",
            ] {
                if num(cleaner, &cctx, key)? < 0.0 {
                    return Err(format!("{cctx}: \"{key}\" must be non-negative"));
                }
            }
        }
        // The read-path block is mandatory: it is the proof the row's
        // reads were served by the lock-free path.
        let read_path = field(result, &ctx, "read_path")?;
        validate_read_path_block(read_path, &format!("{ctx}.read_path"))?;
        // The per-stage latency decomposition is optional (older reports
        // predate it); when present every stage summary must be complete.
        if let Some(stages) = result.get("stages") {
            let sctx = format!("{ctx}.stages");
            for key in [
                "queue_wait_ns",
                "read_service_ns",
                "write_service_ns",
                "fallback_locked_ns",
            ] {
                let stage = field(stages, &sctx, key)?;
                let kctx = format!("{sctx}.{key}");
                if num(stage, &kctx, "count")? < 0.0 {
                    return Err(format!("{kctx}: \"count\" must be non-negative"));
                }
                for stat in ["mean_ns", "p50_ns", "p99_ns", "max_ns"] {
                    if num(stage, &kctx, stat)? < 0.0 {
                        return Err(format!("{kctx}: \"{stat}\" must be non-negative"));
                    }
                }
            }
        }
        // The per-op-class energy attribution is optional; when present the
        // class splits must carry non-negative joules.
        if let Some(energy) = result.get("energy") {
            validate_energy_block(energy, &format!("{ctx}.energy"))?;
        }
    }

    // The replicated mini-cluster section is optional (older reports
    // predate it), but when present it must be coherent.
    if let Some(mini) = doc.get("mini_cluster") {
        for key in ["servers", "replication", "record_count", "ops"] {
            if num(mini, "mini_cluster", key)? < 1.0 {
                return Err(format!("mini_cluster: \"{key}\" must be >= 1"));
            }
        }
        if num(mini, "mini_cluster", "replication")? >= num(mini, "mini_cluster", "servers")? {
            return Err("mini_cluster: replication must be < servers".into());
        }
        string(mini, "mini_cluster", "mix")?;
        for key in ["elapsed_secs", "throughput_ops_per_sec"] {
            if num(mini, "mini_cluster", key)? <= 0.0 {
                return Err(format!("mini_cluster: \"{key}\" must be positive"));
            }
        }
        latency(mini, "mini_cluster", "read_latency_us")?;
        latency(mini, "mini_cluster", "write_latency_us")?;
    }
    Ok(())
}

/// Validates an `energy` block: a modelled total plus per-op-class splits
/// carrying non-negative joules.
fn validate_energy_block(energy: &Json, ectx: &str) -> Result<(), String> {
    num(energy, ectx, "total_joules")?;
    let classes = field(energy, ectx, "classes")?
        .as_array()
        .ok_or_else(|| format!("{ectx}: \"classes\" must be an array"))?;
    for (j, class) in classes.iter().enumerate() {
        let cctx = format!("{ectx}.classes[{j}]");
        string(class, &cctx, "name")?;
        for key in ["ops", "joules", "micro_joules_per_op", "ops_per_joule"] {
            if num(class, &cctx, key)? < 0.0 {
                return Err(format!("{cctx}: \"{key}\" must be non-negative"));
            }
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_wire.json` document (the socket-engine YCSB
/// benchmark: real `rmcd` processes over loopback TCP, driven through
/// `rmc-wire` framed connections).
///
/// Beyond shape, the validator enforces wire health: every row must have
/// actually moved frames, and a clean loopback run must decode every frame
/// it received — a non-zero `decode_errors` means framing corruption, not
/// load.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate_wire_report(doc: &Json) -> Result<(), String> {
    let version = num(doc, "report", "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let benchmark = string(doc, "report", "benchmark")?;
    if benchmark != "wire_ycsb" {
        return Err(format!("unexpected benchmark {benchmark:?}"));
    }

    let config = field(doc, "report", "config")?;
    for key in [
        "servers",
        "replication",
        "clients",
        "record_count",
        "ops_per_client",
        "value_bytes",
    ] {
        if num(config, "config", key)? <= 0.0 {
            return Err(format!("config: \"{key}\" must be positive"));
        }
    }
    if num(config, "config", "replication")? >= num(config, "config", "servers")? {
        return Err("config: replication must be < servers".into());
    }

    let results = field(doc, "report", "results")?
        .as_array()
        .ok_or("report: \"results\" must be an array")?;
    if results.is_empty() {
        return Err("report: \"results\" must be non-empty".into());
    }
    for (i, result) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let backend = string(result, &ctx, "backend")?;
        if backend != "net_cluster" {
            return Err(format!("{ctx}: unknown backend {backend:?}"));
        }
        string(result, &ctx, "mix")?;
        let read_fraction = num(result, &ctx, "read_fraction")?;
        if !(0.0..=1.0).contains(&read_fraction) {
            return Err(format!("{ctx}: read_fraction out of range"));
        }
        for key in ["clients", "batch_size", "ops"] {
            if num(result, &ctx, key)? < 1.0 {
                return Err(format!("{ctx}: \"{key}\" must be >= 1"));
            }
        }
        for key in ["elapsed_secs", "throughput_ops_per_sec"] {
            if num(result, &ctx, key)? <= 0.0 {
                return Err(format!("{ctx}: \"{key}\" must be positive"));
            }
        }
        latency(result, &ctx, "read_latency_us")?;
        latency(result, &ctx, "write_latency_us")?;
        // The wire-health block is mandatory — it is the proof the row ran
        // over sockets at all.
        let wire = field(result, &ctx, "wire")?;
        let wctx = format!("{ctx}.wire");
        for key in ["connects", "reconnects", "frames_tx", "frames_rx"] {
            if num(wire, &wctx, key)? < 0.0 {
                return Err(format!("{wctx}: \"{key}\" must be non-negative"));
            }
        }
        if num(wire, &wctx, "frames_tx")? < 1.0 || num(wire, &wctx, "frames_rx")? < 1.0 {
            return Err(format!("{wctx}: run moved no frames — not a wire run"));
        }
        if num(wire, &wctx, "decode_errors")? != 0.0 {
            return Err(format!("{wctx}: clean loopback run decoded errors"));
        }
        // The replication ack-wait decomposition from the servers' live
        // Stats RPC (counts sum over servers; quantiles quote the worst).
        let stages = field(result, &ctx, "stages")?;
        let stage = field(stages, &format!("{ctx}.stages"), "replication_ack_wait")?;
        let sctx = format!("{ctx}.stages.replication_ack_wait");
        for key in ["count", "worst_p50_ns", "worst_p99_ns", "max_ns"] {
            if num(stage, &sctx, key)? < 0.0 {
                return Err(format!("{sctx}: \"{key}\" must be non-negative"));
            }
        }
        if let Some(energy) = result.get("energy") {
            validate_energy_block(energy, &format!("{ctx}.energy"))?;
        }
    }

    let comparison = field(doc, "report", "comparison")?;
    num(comparison, "comparison", "clients")?;
    let read50 = num(comparison, "comparison", "read50_ops_per_sec")?;
    let read100 = num(comparison, "comparison", "read100_ops_per_sec")?;
    let speedup = num(comparison, "comparison", "speedup")?;
    if read50 <= 0.0 || read100 <= 0.0 {
        return Err("comparison: throughputs must be positive".into());
    }
    if (speedup - read100 / read50).abs() > 1e-6 * speedup.max(1.0) {
        return Err("comparison: speedup != read100/read50".into());
    }
    Ok(())
}

/// Validates a `read_path` block: `{lockfree, fallback_locked}`, where a
/// run must actually have taken the lock-free path.
fn validate_read_path_block(block: &Json, ctx: &str) -> Result<(), String> {
    let lockfree = num(block, ctx, "lockfree")?;
    let fallback = num(block, ctx, "fallback_locked")?;
    if lockfree < 0.0 || fallback < 0.0 {
        return Err(format!("{ctx}: counters must be non-negative"));
    }
    if lockfree == 0.0 {
        return Err(format!("{ctx}: run never took the lock-free path"));
    }
    Ok(())
}

/// Computes the obs-ablation overhead statistic from per-round paired
/// throughputs `(disabled, enabled)`: each round's relative overhead in
/// percent, then the 25 %-trimmed mean across rounds. The emitter runs
/// each round's pair back to back with alternating order, so this
/// statistic cancels both slow drift and run-order effects that would
/// otherwise swamp a ~1 % signal on shared hardware. Shared between the
/// emitter and [`validate_obs_report`], which recomputes it from the
/// report's own rows.
///
/// # Errors
///
/// When `rounds` is empty or a throughput is non-positive.
pub fn paired_overhead_percent(rounds: &[(f64, f64)]) -> Result<f64, String> {
    if rounds.is_empty() {
        return Err("no paired rounds to compare".into());
    }
    let mut deltas = Vec::with_capacity(rounds.len());
    for &(disabled, enabled) in rounds {
        if disabled <= 0.0 || enabled <= 0.0 {
            return Err("paired throughputs must be positive".into());
        }
        deltas.push((disabled - enabled) / disabled * 100.0);
    }
    deltas.sort_by(f64::total_cmp);
    let trim = deltas.len() / 4;
    let kept = &deltas[trim..deltas.len() - trim];
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Validates a parsed `BENCH_obs.json` document (the observability
/// ablation: instrumentation enabled vs the kill-switch baseline on the
/// read-path hot loop). The validator enforces the overhead budget, so
/// CI's `--check` pass doubles as the acceptance gate.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate_obs_report(doc: &Json) -> Result<(), String> {
    let version = num(doc, "report", "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let benchmark = string(doc, "report", "benchmark")?;
    if benchmark != "obs_overhead" {
        return Err(format!("unexpected benchmark {benchmark:?}"));
    }

    let config = field(doc, "report", "config")?;
    for key in [
        "record_count",
        "ops_per_client",
        "value_bytes",
        "shards",
        "rounds",
    ] {
        if num(config, "config", key)? <= 0.0 {
            return Err(format!("config: \"{key}\" must be positive"));
        }
    }

    let results = field(doc, "report", "results")?
        .as_array()
        .ok_or("report: \"results\" must be an array")?;
    if results.is_empty() {
        return Err("report: \"results\" must be non-empty".into());
    }
    let mut seen_modes = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let mode = string(result, &ctx, "mode")?;
        if !matches!(mode, "enabled" | "disabled") {
            return Err(format!("{ctx}: unknown mode {mode:?}"));
        }
        seen_modes.push(mode.to_owned());
        if num(result, &ctx, "round")? < 0.0 || num(result, &ctx, "ops")? < 1.0 {
            return Err(format!("{ctx}: \"round\"/\"ops\" out of range"));
        }
        for key in ["elapsed_secs", "throughput_ops_per_sec"] {
            if num(result, &ctx, key)? <= 0.0 {
                return Err(format!("{ctx}: \"{key}\" must be positive"));
            }
        }
        latency(result, &ctx, "read_latency_us")?;
        // The stage histograms are the proof the switch actually flipped:
        // an enabled run must have sampled some reads, a disabled run none.
        let samples = num(result, &ctx, "stage_samples")?;
        if mode == "enabled" && samples < 1.0 {
            return Err(format!("{ctx}: enabled run recorded no stage samples"));
        }
        if mode == "disabled" && samples != 0.0 {
            return Err(format!("{ctx}: disabled run recorded stage samples"));
        }
    }
    for mode in ["enabled", "disabled"] {
        if !seen_modes.iter().any(|m| m == mode) {
            return Err(format!("results: missing \"{mode}\" run"));
        }
    }

    let comparison = field(doc, "report", "comparison")?;
    let disabled = num(comparison, "comparison", "disabled_ops_per_sec")?;
    let enabled = num(comparison, "comparison", "enabled_ops_per_sec")?;
    let overhead = num(comparison, "comparison", "overhead_percent")?;
    let budget = num(comparison, "comparison", "budget_percent")?;
    if disabled <= 0.0 || enabled <= 0.0 {
        return Err("comparison: throughputs must be positive".into());
    }
    if budget <= 0.0 {
        return Err("comparison: budget_percent must be positive".into());
    }
    // Recompute the paired statistic from the report's own rows so the
    // headline number can't drift from the data behind it.
    let mut per_round: std::collections::BTreeMap<i64, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    for (i, result) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let round = num(result, &ctx, "round")? as i64;
        let ops = num(result, &ctx, "throughput_ops_per_sec")?;
        let slot = per_round.entry(round).or_default();
        match string(result, &ctx, "mode")? {
            "disabled" => slot.0 = Some(ops),
            _ => slot.1 = Some(ops),
        }
    }
    let mut pairs = Vec::new();
    for (round, (d, e)) in per_round {
        let (Some(d), Some(e)) = (d, e) else {
            return Err(format!("results: round {round} is missing a mode"));
        };
        pairs.push((d, e));
    }
    let expected = paired_overhead_percent(&pairs)?;
    if (overhead - expected).abs() > 1e-6 * expected.abs().max(1.0) {
        return Err("comparison: overhead_percent inconsistent with results".into());
    }
    if overhead > budget {
        return Err(format!(
            "comparison: overhead {overhead:.2}% exceeds the {budget}% budget"
        ));
    }
    Ok(())
}

/// The backup staging engines the recovery ablation compares.
pub const RECOVERY_ENGINES: [&str; 2] = ["memory", "file"];

/// Validates a parsed `BENCH_recovery.json` document (the recovery
/// ablation: crash-recovery time vs. data size vs. recovery-master count,
/// with backups staged in memory vs. on checksummed segment files).
///
/// Beyond shape, the validator enforces the sweep the ablation exists for:
/// each engine must cover at least 3 distinct data sizes and 2 distinct
/// recovery-master counts, every row's recovery bandwidth must match its
/// own numbers, file rows must prove they actually wrote files (and read
/// them back corruption-free), and `case` strings must be unique — they
/// are the row identity `bench_compare` diffs.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate_recovery_report(doc: &Json) -> Result<(), String> {
    let version = num(doc, "report", "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let benchmark = string(doc, "report", "benchmark")?;
    if benchmark != "recovery_ablation" {
        return Err(format!("unexpected benchmark {benchmark:?}"));
    }

    let config = field(doc, "report", "config")?;
    for key in ["replication", "value_bytes"] {
        if num(config, "config", key)? < 1.0 {
            return Err(format!("config: \"{key}\" must be >= 1"));
        }
    }
    string(config, "config", "fsync")?;

    let results = field(doc, "report", "results")?
        .as_array()
        .ok_or("report: \"results\" must be an array")?;
    if results.is_empty() {
        return Err("report: \"results\" must be non-empty".into());
    }
    let mut cases = Vec::new();
    let mut sizes: std::collections::BTreeMap<String, std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    let mut masters: std::collections::BTreeMap<String, std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for (i, result) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let engine = string(result, &ctx, "engine")?;
        if !RECOVERY_ENGINES.contains(&engine) {
            return Err(format!("{ctx}: unknown engine {engine:?}"));
        }
        let case = string(result, &ctx, "case")?;
        if case.is_empty() {
            return Err(format!("{ctx}: \"case\" must be non-empty"));
        }
        if cases.contains(&case.to_owned()) {
            return Err(format!("{ctx}: duplicate case {case:?}"));
        }
        cases.push(case.to_owned());
        let servers = num(result, &ctx, "servers")?;
        if servers < 2.0 {
            return Err(format!("{ctx}: \"servers\" must be >= 2"));
        }
        let rec_masters = num(result, &ctx, "recovery_masters")?;
        if rec_masters < 1.0 || rec_masters >= servers {
            return Err(format!("{ctx}: \"recovery_masters\" must be in 1..servers"));
        }
        for key in ["records", "data_bytes", "victim_bytes"] {
            if num(result, &ctx, key)? < 1.0 {
                return Err(format!("{ctx}: \"{key}\" must be >= 1"));
            }
        }
        if num(result, &ctx, "detection_secs")? < 0.0 {
            return Err(format!("{ctx}: \"detection_secs\" must be non-negative"));
        }
        let recovery_secs = num(result, &ctx, "recovery_secs")?;
        let throughput = num(result, &ctx, "throughput_ops_per_sec")?;
        if recovery_secs <= 0.0 || throughput <= 0.0 {
            return Err(format!(
                "{ctx}: \"recovery_secs\" and \"throughput_ops_per_sec\" must be positive"
            ));
        }
        // The headline bandwidth must be the row's own bytes over its own
        // seconds, so a regression in either is visible in the diffed number.
        let expected = num(result, &ctx, "victim_bytes")? / recovery_secs;
        if (throughput - expected).abs() > 1e-6 * expected.max(1.0) {
            return Err(format!(
                "{ctx}: throughput_ops_per_sec inconsistent with victim_bytes/recovery_secs"
            ));
        }
        if engine == "file" {
            // A file row that moved no bytes through the disk engine (or
            // saw corruption on a healthy disk) is not a valid measurement.
            let disk = field(result, &ctx, "disk")?;
            let dctx = format!("{ctx}.disk");
            if num(disk, &dctx, "write_bytes")? < 1.0 {
                return Err(format!("{dctx}: file engine row wrote no bytes"));
            }
            if num(disk, &dctx, "fsyncs")? < 0.0 {
                return Err(format!("{dctx}: \"fsyncs\" must be non-negative"));
            }
            if num(disk, &dctx, "crc_mismatch")? != 0.0 {
                return Err(format!("{dctx}: healthy-disk run detected corruption"));
            }
        }
        sizes
            .entry(engine.to_owned())
            .or_default()
            .insert(num(result, &ctx, "data_bytes")? as u64);
        masters
            .entry(engine.to_owned())
            .or_default()
            .insert(rec_masters as u64);
    }
    for engine in RECOVERY_ENGINES {
        let s = sizes.get(engine).map_or(0, |s| s.len());
        let m = masters.get(engine).map_or(0, |m| m.len());
        if s < 3 {
            return Err(format!(
                "results: engine \"{engine}\" covers {s} data sizes, needs >= 3"
            ));
        }
        if m < 2 {
            return Err(format!(
                "results: engine \"{engine}\" covers {m} recovery-master counts, needs >= 2"
            ));
        }
    }

    let comparison = field(doc, "report", "comparison")?;
    let memory = num(comparison, "comparison", "memory_bytes_per_sec")?;
    let file = num(comparison, "comparison", "file_bytes_per_sec")?;
    let ratio = num(comparison, "comparison", "file_over_memory")?;
    if memory <= 0.0 || file <= 0.0 {
        return Err("comparison: recovery bandwidths must be positive".into());
    }
    if (ratio - file / memory).abs() > 1e-6 * ratio.abs().max(1.0) {
        return Err("comparison: file_over_memory != file/memory".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn minimal() -> String {
        r#"{
          "schema_version": 1,
          "benchmark": "standalone_ycsb",
          "config": {"record_count": 100, "ops_per_client": 50, "clients": 2, "value_bytes": 64},
          "results": [{
            "workers": 4, "mix": "read95",
            "read_fraction": 0.95, "batch_size": 1, "ops": 100,
            "elapsed_secs": 0.5, "throughput_ops_per_sec": 200.0,
            "read_path": {"lockfree": 95, "fallback_locked": 0},
            "read_latency_us": {"count": 95, "mean": 2.0, "p50": 1.5, "p90": 3.0, "p99": 9.0, "max": 11.0},
            "write_latency_us": {"count": 5, "mean": 5.0, "p50": 4.0, "p90": 8.0, "p99": 9.0, "max": 9.5}
          }]
        }"#
        .to_owned()
    }

    #[test]
    fn accepts_minimal_valid_report() {
        validate_standalone_report(&parse(&minimal()).unwrap()).unwrap();
    }

    fn with_mini(mini: &str) -> String {
        minimal().replace(
            "\"results\": [{",
            &format!("\"mini_cluster\": {mini}, \"results\": [{{"),
        )
    }

    const MINI_OK: &str = r#"{
        "servers": 4, "replication": 2, "mix": "read95",
        "record_count": 128, "ops": 400,
        "elapsed_secs": 0.2, "throughput_ops_per_sec": 2000.0,
        "read_latency_us": {"count": 380, "mean": 40.0, "p50": 35.0, "p90": 60.0, "p99": 90.0, "max": 120.0},
        "write_latency_us": {"count": 20, "mean": 80.0, "p50": 70.0, "p90": 110.0, "p99": 150.0, "max": 180.0}
    }"#;

    #[test]
    fn accepts_report_with_mini_cluster_section() {
        validate_standalone_report(&parse(&with_mini(MINI_OK)).unwrap()).unwrap();
    }

    #[test]
    fn rejects_incoherent_mini_cluster_section() {
        let bad = MINI_OK.replace("\"replication\": 2", "\"replication\": 4");
        let err = validate_standalone_report(&parse(&with_mini(&bad)).unwrap()).unwrap_err();
        assert!(err.contains("replication"), "got {err}");
    }

    #[test]
    fn standalone_report_requires_and_checks_read_path_block() {
        let bad = minimal().replace("\"lockfree\": 95", "\"lockfree\": 0");
        let err = validate_standalone_report(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("lock-free path"), "got {err}");
        let missing = minimal().replace("\"read_path\"", "\"read_pathology\"");
        let err = validate_standalone_report(&parse(&missing).unwrap()).unwrap_err();
        assert!(err.contains("read_path"), "got {err}");
    }

    #[test]
    fn standalone_report_checks_stage_and_energy_blocks() {
        let with_blocks = minimal().replace(
            "\"read_latency_us\"",
            "\"stages\": {
               \"queue_wait_ns\": {\"count\": 3, \"mean_ns\": 900.0, \"p50_ns\": 800, \"p99_ns\": 1500, \"max_ns\": 1600},
               \"read_service_ns\": {\"count\": 3, \"mean_ns\": 700.0, \"p50_ns\": 650, \"p99_ns\": 900, \"max_ns\": 950},
               \"write_service_ns\": {\"count\": 1, \"mean_ns\": 1200.0, \"p50_ns\": 1200, \"p99_ns\": 1200, \"max_ns\": 1200},
               \"fallback_locked_ns\": {\"count\": 0, \"mean_ns\": 0.0, \"p50_ns\": 0, \"p99_ns\": 0, \"max_ns\": 0}},
             \"energy\": {\"total_joules\": 12.5, \"classes\": [
               {\"name\": \"read\", \"ops\": 95, \"joules\": 9.0, \"micro_joules_per_op\": 94736.8, \"ops_per_joule\": 10.6}]},
             \"read_latency_us\"",
        );
        validate_standalone_report(&parse(&with_blocks).unwrap()).unwrap();
        let bad = with_blocks.replace("\"joules\": 9.0", "\"joules\": -1.0");
        let err = validate_standalone_report(&parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("joules"), "got {err}");
        let missing = with_blocks.replace("\"write_service_ns\"", "\"write_service_zz\"");
        let err = validate_standalone_report(&parse(&missing).unwrap()).unwrap_err();
        assert!(err.contains("write_service_ns"), "got {err}");
    }

    fn minimal_obs() -> String {
        r#"{
          "schema_version": 1,
          "benchmark": "obs_overhead",
          "config": {"record_count": 512, "ops_per_client": 10000, "value_bytes": 64,
            "shards": 16, "rounds": 2, "smoke": true},
          "results": [
            {"mode": "disabled", "round": 0, "ops": 10000, "elapsed_secs": 0.1,
             "throughput_ops_per_sec": 100000.0, "stage_samples": 0,
             "read_latency_us": {"count": 10000, "mean": 1.0, "p50": 0.9, "p90": 1.5, "p99": 2.0, "max": 9.0}},
            {"mode": "enabled", "round": 0, "ops": 10000, "elapsed_secs": 0.102,
             "throughput_ops_per_sec": 98039.2, "stage_samples": 313,
             "read_latency_us": {"count": 10000, "mean": 1.0, "p50": 0.9, "p90": 1.5, "p99": 2.1, "max": 9.0}}
          ],
          "comparison": {"disabled_ops_per_sec": 100000.0, "enabled_ops_per_sec": 98039.2,
            "overhead_percent": 1.9608, "budget_percent": 3.0}
        }"#
        .to_owned()
    }

    #[test]
    fn accepts_minimal_obs_report() {
        validate_obs_report(&parse(&minimal_obs()).unwrap()).unwrap();
    }

    #[test]
    fn rejects_bad_obs_reports() {
        for (needle, replacement, expect) in [
            ("obs_overhead", "other_bench", "benchmark"),
            ("\"mode\": \"disabled\"", "\"mode\": \"psychic\"", "mode"),
            (
                "\"stage_samples\": 313",
                "\"stage_samples\": 0",
                "no stage samples",
            ),
            (
                "\"stage_samples\": 0,",
                "\"stage_samples\": 5,",
                "disabled run",
            ),
            (
                "\"overhead_percent\": 1.9608",
                "\"overhead_percent\": 0.5",
                "inconsistent",
            ),
            (
                "\"budget_percent\": 3.0",
                "\"budget_percent\": 1.0",
                "exceeds",
            ),
        ] {
            let doc = minimal_obs().replace(needle, replacement);
            let err = validate_obs_report(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
        // Both arms of the ablation must be present: turn the disabled row
        // into a (sample-carrying) enabled one and expect the missing-mode
        // check to fire.
        let doc = minimal_obs()
            .replace("\"mode\": \"disabled\"", "\"mode\": \"enabled\"")
            .replace("\"stage_samples\": 0,", "\"stage_samples\": 7,");
        let err = validate_obs_report(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("missing \"disabled\""), "got {err}");
    }

    fn minimal_wire() -> String {
        r#"{
          "schema_version": 1,
          "benchmark": "wire_ycsb",
          "config": {"servers": 3, "replication": 2, "clients": 2,
            "record_count": 128, "ops_per_client": 50, "value_bytes": 64, "smoke": true},
          "results": [
            {"backend": "net_cluster", "mix": "read50", "read_fraction": 0.5,
             "clients": 2, "batch_size": 1, "ops": 100,
             "elapsed_secs": 0.2, "throughput_ops_per_sec": 500.0,
             "read_latency_us": {"count": 50, "mean": 90.0, "p50": 80.0, "p90": 120.0, "p99": 200.0, "max": 400.0},
             "write_latency_us": {"count": 50, "mean": 150.0, "p50": 130.0, "p90": 220.0, "p99": 380.0, "max": 900.0},
             "wire": {"connects": 8, "reconnects": 0, "frames_tx": 220, "frames_rx": 220, "decode_errors": 0},
             "stages": {"replication_ack_wait": {"count": 50, "worst_p50_ns": 40000, "worst_p99_ns": 90000, "max_ns": 200000}}},
            {"backend": "net_cluster", "mix": "read100", "read_fraction": 1.0,
             "clients": 2, "batch_size": 1, "ops": 100,
             "elapsed_secs": 0.1, "throughput_ops_per_sec": 1000.0,
             "read_latency_us": {"count": 100, "mean": 85.0, "p50": 78.0, "p90": 110.0, "p99": 160.0, "max": 300.0},
             "write_latency_us": {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0},
             "wire": {"connects": 8, "reconnects": 0, "frames_tx": 210, "frames_rx": 210, "decode_errors": 0},
             "stages": {"replication_ack_wait": {"count": 0, "worst_p50_ns": 0, "worst_p99_ns": 0, "max_ns": 0}}}
          ],
          "comparison": {"clients": 2, "read50_ops_per_sec": 500.0,
            "read100_ops_per_sec": 1000.0, "speedup": 2.0}
        }"#
        .to_owned()
    }

    #[test]
    fn accepts_minimal_wire_report() {
        validate_wire_report(&parse(&minimal_wire()).unwrap()).unwrap();
    }

    #[test]
    fn rejects_bad_wire_reports() {
        for (needle, replacement, expect) in [
            ("wire_ycsb", "other_bench", "benchmark"),
            ("\"replication\": 2", "\"replication\": 3", "replication"),
            (
                "\"backend\": \"net_cluster\", \"mix\": \"read50\"",
                "\"backend\": \"carrier_pigeon\", \"mix\": \"read50\"",
                "backend",
            ),
            ("\"frames_tx\": 220", "\"frames_tx\": 0", "moved no frames"),
            (
                "\"decode_errors\": 0}",
                "\"decode_errors\": 3}",
                "decoded errors",
            ),
            (
                "\"worst_p99_ns\": 90000",
                "\"worst_p99_ns\": -1",
                "worst_p99_ns",
            ),
            ("\"speedup\": 2.0", "\"speedup\": 5.0", "speedup"),
        ] {
            let doc = minimal_wire().replacen(needle, replacement, 1);
            let err = validate_wire_report(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
        // A row without its wire block is not a wire row at all.
        let doc = minimal_wire().replacen("\"wire\":", "\"unwired\":", 1);
        let err = validate_wire_report(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("wire"), "got {err}");
    }

    fn recovery_row(engine: &str, case: &str, servers: u64, data: u64) -> String {
        let masters = servers - 1;
        let victim = data / servers;
        let secs = 0.5;
        format!(
            r#"{{"engine": "{engine}", "case": "{case}", "servers": {servers},
               "recovery_masters": {masters}, "records": 1024, "data_bytes": {data},
               "victim_bytes": {victim}, "detection_secs": 0.15, "recovery_secs": {secs},
               "throughput_ops_per_sec": {tp},
               "disk": {{"write_bytes": 9000, "fsyncs": 4, "crc_mismatch": 0}}}}"#,
            tp = victim as f64 / secs,
        )
    }

    fn minimal_recovery() -> String {
        let mut rows = Vec::new();
        for engine in ["memory", "file"] {
            for (servers, data) in [(4, 1 << 20), (4, 2 << 20), (4, 4 << 20), (8, 4 << 20)] {
                let case = format!("{engine}_s{servers}_d{data}");
                rows.push(recovery_row(engine, &case, servers, data));
            }
        }
        format!(
            r#"{{
              "schema_version": 1,
              "benchmark": "recovery_ablation",
              "config": {{"replication": 2, "value_bytes": 1024, "fsync": "batched:262144,50", "smoke": true}},
              "results": [{}],
              "comparison": {{"memory_bytes_per_sec": 2097152.0, "file_bytes_per_sec": 1048576.0,
                "file_over_memory": 0.5}}
            }}"#,
            rows.join(",\n")
        )
    }

    #[test]
    fn accepts_minimal_recovery_report() {
        validate_recovery_report(&parse(&minimal_recovery()).unwrap()).unwrap();
    }

    #[test]
    fn rejects_bad_recovery_reports() {
        for (needle, replacement, expect) in [
            ("recovery_ablation", "other_bench", "benchmark"),
            (
                "\"engine\": \"memory\"",
                "\"engine\": \"ramdisk\"",
                "engine",
            ),
            (
                "\"case\": \"file_s8_d4194304\"",
                "\"case\": \"file_s4_d1048576\"",
                "duplicate case",
            ),
            (
                "\"throughput_ops_per_sec\": 524288,",
                "\"throughput_ops_per_sec\": 999,",
                "inconsistent",
            ),
            (
                "\"file_over_memory\": 0.5",
                "\"file_over_memory\": 2.0",
                "file_over_memory",
            ),
        ] {
            let doc = minimal_recovery().replacen(needle, replacement, 1);
            let err = validate_recovery_report(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
        // Corrupt every disk block: only the file rows' blocks are checked,
        // but at least one file row must trip the corruption gate.
        let doc = minimal_recovery().replace("\"crc_mismatch\": 0", "\"crc_mismatch\": 2");
        let err = validate_recovery_report(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("corruption"), "got {err}");
        // Coverage gates: dropping the 8-server file row leaves one master
        // count; collapsing a size leaves two sizes.
        let doc = minimal_recovery().replacen(
            "\"engine\": \"file\", \"case\": \"file_s8",
            "\"engine\": \"memory\", \"case\": \"m8",
            1,
        );
        let err = validate_recovery_report(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("recovery-master counts"), "got {err}");
        let doc = minimal_recovery().replace("\"data_bytes\": 2097152", "\"data_bytes\": 1048576");
        let err = validate_recovery_report(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("data sizes"), "got {err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_values() {
        for (needle, replacement, expect) in [
            (
                "\"schema_version\": 1",
                "\"schema_version\": 2",
                "schema_version",
            ),
            ("standalone_ycsb", "other_bench", "benchmark"),
            (
                "\"results\": [{",
                "\"results\": [], \"ignored\": [{",
                "non-empty",
            ),
            (
                "\"read_fraction\": 0.95",
                "\"read_fraction\": 1.5",
                "read_fraction",
            ),
            ("\"p99\": 9.0, \"max\": 11.0", "\"max\": 11.0", "p99"),
        ] {
            let doc = minimal().replace(needle, replacement);
            let err = validate_standalone_report(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
    }
}
