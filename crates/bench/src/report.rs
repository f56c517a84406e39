//! The reports `rmc-bench` emits (`BENCH_obs.json`, `BENCH_recovery.json`)
//! and the one validator for both.
//!
//! Every report is the same envelope — `schema_version`, a `benchmark` tag,
//! a `config` block, a non-empty `results` array, for some kinds a
//! `comparison` block — so what differs between kinds is data: [`KINDS`]
//! holds, per kind, the required fields with their bounds, the fields that
//! identify a row, the metric `bench_compare` gates on, and one function
//! for the invariants that relate fields to each other. [`validate`] looks
//! the kind up by the document's own tag; the emitters ([`emit`]), every
//! bin's `--check` ([`check_file`]) and `bench_compare` ([`load`]) all go
//! through it, so the schema can't drift from what any of them reads.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Json};

/// Current schema version emitted and accepted.
pub const SCHEMA_VERSION: u64 = 1;

/// What a field must hold.
#[derive(Debug)]
enum Is {
    /// Any number.
    Num,
    /// A number `>=` the bound.
    Min(f64),
    /// A number `> 0`.
    Positive,
    /// A non-empty string.
    Str,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// An object holding these fields.
    Block(&'static [Field]),
}
use Is::{Block, Min, Num, OneOf, Positive, Str};

#[derive(Debug)]
struct Field {
    name: &'static str,
    is: Is,
    /// Absent is fine (reports older than the field); present is checked.
    optional: bool,
}

const fn req(name: &'static str, is: Is) -> Field {
    Field {
        name,
        is,
        optional: false,
    }
}

const fn opt(name: &'static str, is: Is) -> Field {
    Field {
        name,
        is,
        optional: true,
    }
}

/// One kind of report: everything that differs from the shared envelope.
#[derive(Debug)]
pub struct ReportKind {
    /// The document's `benchmark` tag.
    pub benchmark: &'static str,
    config: &'static [Field],
    row: &'static [Field],
    /// Fields of the top-level `comparison` block; empty when the kind has
    /// none.
    comparison: &'static [Field],
    /// The row fields that name a row; unique within a report, and what
    /// `bench_compare` matches baseline and current rows by.
    pub identity: &'static [&'static str],
    /// The row field `bench_compare` diffs (higher is better).
    pub metric: &'static str,
    /// Checks relating fields to each other, run once the table's bounds
    /// hold.
    invariants: fn(&Json) -> Result<(), String>,
}

/// A `*_latency_us` block as `obs_overhead` renders it.
const LATENCY: Is = Block(&[
    req("count", Min(0.0)),
    req("mean", Min(0.0)),
    req("p50", Min(0.0)),
    req("p90", Min(0.0)),
    req("p99", Min(0.0)),
    req("max", Min(0.0)),
]);

/// The backup staging engines the recovery ablation compares.
const RECOVERY_ENGINES: [&str; 2] = ["memory", "file"];

/// Every report kind this crate emits.
pub static KINDS: [ReportKind; 2] = [
    // The observability ablation (`obs_overhead`): instrumentation enabled
    // vs the kill-switch baseline on the read-path hot loop.
    ReportKind {
        benchmark: "obs_overhead",
        config: &[
            req("record_count", Positive),
            req("ops_per_client", Positive),
            req("value_bytes", Positive),
            req("shards", Positive),
            req("rounds", Positive),
        ],
        row: &[
            req("mode", OneOf(&["enabled", "disabled"])),
            req("round", Min(0.0)),
            req("ops", Min(1.0)),
            req("elapsed_secs", Positive),
            req("throughput_ops_per_sec", Positive),
            req("stage_samples", Num),
            req("read_latency_us", LATENCY),
        ],
        comparison: &[
            req("disabled_ops_per_sec", Positive),
            req("enabled_ops_per_sec", Positive),
            req("overhead_percent", Num),
            req("budget_percent", Positive),
        ],
        identity: &["mode", "round"],
        metric: "throughput_ops_per_sec",
        invariants: obs_switch_flipped_and_overhead_within_budget,
    },
    // The recovery ablation (`recovery_ablation`): crash-recovery time vs
    // data size vs recovery-master count, backups in memory vs on files.
    ReportKind {
        benchmark: "recovery_ablation",
        config: &[
            req("replication", Min(1.0)),
            req("value_bytes", Min(1.0)),
            req("fsync", Str),
        ],
        row: &[
            req("engine", OneOf(&RECOVERY_ENGINES)),
            req("case", Str),
            req("servers", Min(2.0)),
            req("recovery_masters", Min(1.0)),
            req("records", Min(1.0)),
            req("data_bytes", Min(1.0)),
            req("victim_bytes", Min(1.0)),
            req("detection_secs", Min(0.0)),
            req("recovery_secs", Positive),
            req("recovery_bytes_per_sec", Positive),
            opt(
                "disk",
                Block(&[
                    req("write_bytes", Min(0.0)),
                    req("fsyncs", Min(0.0)),
                    req("crc_mismatch", Min(0.0)),
                ]),
            ),
        ],
        comparison: &[
            req("memory_bytes_per_sec", Positive),
            req("file_bytes_per_sec", Positive),
            req("file_over_memory", Num),
        ],
        identity: &["case"],
        metric: "recovery_bytes_per_sec",
        invariants: recovery_sweep_is_covered_and_consistent,
    },
];

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

fn rows(doc: &Json) -> Result<&[Json], String> {
    field(doc, "report", "results")?
        .as_array()
        .ok_or_else(|| "report: \"results\" must be an array".into())
}

/// Checks `obj` against `fields`; the first violation is the error.
fn check_block(obj: &Json, ctx: &str, fields: &[Field]) -> Result<(), String> {
    for f in fields {
        let key = f.name;
        if f.optional && obj.get(key).is_none() {
            continue;
        }
        match &f.is {
            Num | Min(_) | Positive => {
                let v = num(obj, ctx, key)?;
                let must = match &f.is {
                    Min(b) if v < *b && *b == 0.0 => "non-negative".to_owned(),
                    Min(b) if v < *b => format!(">= {b}"),
                    Positive if v <= 0.0 => "positive".to_owned(),
                    _ => continue,
                };
                return Err(format!("{ctx}: \"{key}\" must be {must}"));
            }
            Str => {
                if string(obj, ctx, key)?.is_empty() {
                    return Err(format!("{ctx}: \"{key}\" must be non-empty"));
                }
            }
            OneOf(allowed) => {
                let v = string(obj, ctx, key)?;
                if !allowed.contains(&v) {
                    return Err(format!("{ctx}: unknown {key} {v:?}"));
                }
            }
            Block(inner) => check_block(field(obj, ctx, key)?, &format!("{ctx}.{key}"), inner)?,
        }
    }
    Ok(())
}

impl ReportKind {
    /// The identity of a result row, e.g. `mode=enabled round=3`.
    pub fn row_key(&self, row: &Json) -> String {
        let parts: Vec<String> = self
            .identity
            .iter()
            .map(|&name| match row.get(name) {
                Some(Json::Str(s)) => format!("{name}={s}"),
                Some(Json::Num(n)) => format!("{name}={n}"),
                _ => format!("{name}=?"),
            })
            .collect();
        parts.join(" ")
    }
}

/// Validates a parsed report of any kind and returns its table entry.
///
/// # Errors
///
/// The first schema violation found, as a human-readable message.
pub fn validate(doc: &Json) -> Result<&'static ReportKind, String> {
    let version = num(doc, "report", "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let benchmark = string(doc, "report", "benchmark")?;
    let kind = KINDS
        .iter()
        .find(|k| k.benchmark == benchmark)
        .ok_or_else(|| format!("unexpected benchmark {benchmark:?}"))?;

    check_block(field(doc, "report", "config")?, "config", kind.config)?;
    let results = rows(doc)?;
    if results.is_empty() {
        return Err("report: \"results\" must be non-empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        check_block(row, &format!("results[{i}]"), kind.row)?;
    }
    if !kind.comparison.is_empty() {
        let comparison = field(doc, "report", "comparison")?;
        check_block(comparison, "comparison", kind.comparison)?;
    }
    (kind.invariants)(doc)?;
    let mut seen = BTreeSet::new();
    for (i, row) in results.iter().enumerate() {
        let key = kind.row_key(row);
        if !seen.insert(key.clone()) {
            return Err(format!(
                "results[{i}]: duplicate {} [{key}]",
                kind.identity.join("/")
            ));
        }
    }
    Ok(kind)
}

/// Reads, parses and validates the report at `path`.
///
/// # Errors
///
/// An unreadable file, malformed JSON, or the first schema violation.
pub fn load(path: &str) -> Result<(Json, &'static ReportKind), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let kind = validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok((doc, kind))
}

/// What every bin's `--check PATH` runs.
///
/// # Errors
///
/// As [`load`].
pub fn check_file(path: &str) -> Result<(), String> {
    let (_, kind) = load(path)?;
    println!("{path}: valid {} report", kind.benchmark);
    Ok(())
}

/// Writes `doc` to `path` — unless it is a report `--check` would reject.
///
/// # Errors
///
/// A schema violation, or the write failing.
pub fn emit(doc: &Json, path: &str) -> Result<(), String> {
    validate(doc)?;
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("write {path}: {e}"))?;
    println!("-> {path}");
    Ok(())
}

/// The command line every report bin shares:
/// `[--smoke] [--out PATH] | --check PATH`, plus the bin's own value flags.
#[derive(Debug, PartialEq)]
pub struct Cli {
    /// `--smoke`: the CI-scale sweep.
    pub smoke: bool,
    /// `--out PATH`, or the bin's default.
    pub out: String,
    /// `--check PATH`: validate that file instead of measuring.
    pub check: Option<String>,
    /// Values of the bin's own flags, in the order `extra` named them.
    pub extra: Vec<Option<String>>,
}

/// Parses a report bin's arguments; `extra` names its own value flags with
/// their usage placeholder, e.g. `("--fsync", "POLICY")`.
///
/// # Errors
///
/// The unknown (or value-less) argument, named, with the usage line.
pub fn parse_cli(
    bin: &str,
    default_out: &str,
    extra: &[(&str, &str)],
    args: &[String],
) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        out: default_out.to_owned(),
        check: None,
        extra: vec![None; extra.len()],
    };
    let usage = |arg: &str| {
        let own: String = extra.iter().map(|(f, v)| format!(" [{f} {v}]")).collect();
        format!("unknown argument {arg:?}\nusage: {bin} [--smoke]{own} [--out PATH] | --check PATH")
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().cloned().ok_or_else(|| usage(arg));
        match (arg.as_str(), extra.iter().position(|(flag, _)| flag == arg)) {
            ("--smoke", _) => cli.smoke = true,
            ("--out", _) => cli.out = value()?,
            ("--check", _) => cli.check = Some(value()?),
            (_, Some(own)) => cli.extra[own] = Some(value()?),
            _ => return Err(usage(arg)),
        }
    }
    Ok(cli)
}

/// A report bin's `main`: parses the process arguments ([`parse_cli`]),
/// runs `--check` through [`check_file`] or hands the parsed line to
/// `measure` (which ends in [`emit`]), and maps the outcome to the exit
/// code — 1 on a bad argument, a schema violation or a failed run.
pub fn run_bin(
    bin: &str,
    default_out: &str,
    extra: &[(&str, &str)],
    measure: impl FnOnce(&Cli) -> Result<(), String>,
) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(bin, default_out, extra, &args).and_then(|cli| match &cli.check {
        Some(path) => check_file(path),
        None => measure(&cli),
    });
    match outcome {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Computes the obs-ablation overhead statistic from per-round paired
/// throughputs `(disabled, enabled)`: each round's relative overhead in
/// percent, then the 25 %-trimmed mean across rounds. The emitter runs
/// each round's pair back to back with alternating order, so this
/// statistic cancels both slow drift and run-order effects that would
/// otherwise swamp a ~1 % signal on shared hardware. Shared between the
/// emitter and the validator, which recomputes it from the report's own
/// rows.
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

/// Obs: the stage histograms prove the switch was where each row claims
/// (an enabled run sampled some reads, a disabled run none), every round
/// has both modes, the headline overhead is the paired statistic of the
/// report's own rows, and it is within the budget — so `--check` doubles as
/// the acceptance gate.
fn obs_switch_flipped_and_overhead_within_budget(doc: &Json) -> Result<(), String> {
    // round -> (disabled, enabled) throughput
    let mut per_round: BTreeMap<i64, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for (i, row) in rows(doc)?.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let enabled = string(row, &ctx, "mode")? == "enabled";
        let samples = num(row, &ctx, "stage_samples")?;
        if enabled && samples < 1.0 {
            return Err(format!("{ctx}: enabled run recorded no stage samples"));
        }
        if !enabled && samples != 0.0 {
            return Err(format!("{ctx}: disabled run recorded stage samples"));
        }
        let ops = num(row, &ctx, "throughput_ops_per_sec")?;
        let slot = per_round
            .entry(num(row, &ctx, "round")? as i64)
            .or_default();
        *(if enabled { &mut slot.1 } else { &mut slot.0 }) = Some(ops);
    }
    for (mode, present) in [
        ("enabled", per_round.values().any(|p| p.1.is_some())),
        ("disabled", per_round.values().any(|p| p.0.is_some())),
    ] {
        if !present {
            return Err(format!("results: missing \"{mode}\" run"));
        }
    }
    let mut pairs = Vec::new();
    for (round, (d, e)) in per_round {
        let (Some(d), Some(e)) = (d, e) else {
            return Err(format!("results: round {round} is missing a mode"));
        };
        pairs.push((d, e));
    }
    let comparison = field(doc, "report", "comparison")?;
    let overhead = num(comparison, "comparison", "overhead_percent")?;
    let budget = num(comparison, "comparison", "budget_percent")?;
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

/// Recovery: the sweep the ablation exists for is there (each engine
/// covers at least 3 data sizes and 2 recovery-master counts), every row's
/// recovery bandwidth is its own bytes over its own seconds (so a
/// regression in either shows in the diffed number), file rows prove they
/// wrote files and read them back corruption-free, and the headline ratio
/// matches its operands.
fn recovery_sweep_is_covered_and_consistent(doc: &Json) -> Result<(), String> {
    // engine -> (data sizes, recovery-master counts)
    let mut covered: BTreeMap<&str, (BTreeSet<u64>, BTreeSet<u64>)> = BTreeMap::new();
    for (i, row) in rows(doc)?.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let engine = string(row, &ctx, "engine")?;
        let masters = num(row, &ctx, "recovery_masters")?;
        if masters >= num(row, &ctx, "servers")? {
            return Err(format!("{ctx}: \"recovery_masters\" must be in 1..servers"));
        }
        let expected = num(row, &ctx, "victim_bytes")? / num(row, &ctx, "recovery_secs")?;
        let bandwidth = num(row, &ctx, "recovery_bytes_per_sec")?;
        if (bandwidth - expected).abs() > 1e-6 * expected.max(1.0) {
            return Err(format!(
                "{ctx}: recovery_bytes_per_sec inconsistent with victim_bytes/recovery_secs"
            ));
        }
        if engine == "file" {
            let disk = field(row, &ctx, "disk")?;
            let dctx = format!("{ctx}.disk");
            if num(disk, &dctx, "write_bytes")? < 1.0 {
                return Err(format!("{dctx}: file engine row wrote no bytes"));
            }
            if num(disk, &dctx, "crc_mismatch")? != 0.0 {
                return Err(format!("{dctx}: healthy-disk run detected corruption"));
            }
        }
        let slot = covered.entry(engine).or_default();
        slot.0.insert(num(row, &ctx, "data_bytes")? as u64);
        slot.1.insert(masters as u64);
    }
    for engine in RECOVERY_ENGINES {
        let (sizes, masters) = covered.remove(engine).unwrap_or_default();
        if sizes.len() < 3 {
            return Err(format!(
                "results: engine \"{engine}\" covers {} data sizes, needs >= 3",
                sizes.len()
            ));
        }
        if masters.len() < 2 {
            return Err(format!(
                "results: engine \"{engine}\" covers {} recovery-master counts, needs >= 2",
                masters.len()
            ));
        }
    }
    let comparison = field(doc, "report", "comparison")?;
    let memory = num(comparison, "comparison", "memory_bytes_per_sec")?;
    let file = num(comparison, "comparison", "file_bytes_per_sec")?;
    let ratio = num(comparison, "comparison", "file_over_memory")?;
    if (ratio - file / memory).abs() > 1e-6 * ratio.abs().max(1.0) {
        return Err("comparison: file_over_memory != file/memory".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

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
        validate(&parse(&minimal_obs()).unwrap()).unwrap();
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
            let err = validate(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
        // Both arms of the ablation must be present: turn the disabled row
        // into a (sample-carrying) enabled one and expect the missing-mode
        // check to fire.
        let doc = minimal_obs()
            .replace("\"mode\": \"disabled\"", "\"mode\": \"enabled\"")
            .replace("\"stage_samples\": 0,", "\"stage_samples\": 7,");
        let err = validate(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("missing \"disabled\""), "got {err}");
    }

    fn recovery_row(engine: &str, case: &str, servers: u64, data: u64) -> String {
        let masters = servers - 1;
        let victim = data / servers;
        let secs = 0.5;
        format!(
            r#"{{"engine": "{engine}", "case": "{case}", "servers": {servers},
               "recovery_masters": {masters}, "records": 1024, "data_bytes": {data},
               "victim_bytes": {victim}, "detection_secs": 0.15, "recovery_secs": {secs},
               "recovery_bytes_per_sec": {tp},
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
        validate(&parse(&minimal_recovery()).unwrap()).unwrap();
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
                "\"recovery_bytes_per_sec\": 524288,",
                "\"recovery_bytes_per_sec\": 999,",
                "inconsistent",
            ),
            (
                "\"file_over_memory\": 0.5",
                "\"file_over_memory\": 2.0",
                "file_over_memory",
            ),
        ] {
            let doc = minimal_recovery().replacen(needle, replacement, 1);
            let err = validate(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
        // Corrupt every disk block: only the file rows' blocks are checked,
        // but at least one file row must trip the corruption gate.
        let doc = minimal_recovery().replace("\"crc_mismatch\": 0", "\"crc_mismatch\": 2");
        let err = validate(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("corruption"), "got {err}");
        // Coverage gates: dropping the 8-server file row leaves one master
        // count; collapsing a size leaves two sizes.
        let doc = minimal_recovery().replacen(
            "\"engine\": \"file\", \"case\": \"file_s8",
            "\"engine\": \"memory\", \"case\": \"m8",
            1,
        );
        let err = validate(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("recovery-master counts"), "got {err}");
        let doc = minimal_recovery().replace("\"data_bytes\": 2097152", "\"data_bytes\": 1048576");
        let err = validate(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("data sizes"), "got {err}");
    }

    /// Each kind's minimal report validates, as the kind its tag names.
    #[test]
    fn accepts_minimal_valid_report() {
        for (doc, tag) in [
            (minimal_obs(), "obs_overhead"),
            (minimal_recovery(), "recovery_ablation"),
        ] {
            assert_eq!(validate(&parse(&doc).unwrap()).unwrap().benchmark, tag);
        }
    }

    /// The envelope every kind shares, and the field bounds of its table.
    #[test]
    fn rejects_missing_fields_and_bad_values() {
        for (needle, replacement, expect) in [
            (
                "\"schema_version\": 1",
                "\"schema_version\": 2",
                "schema_version",
            ),
            ("obs_overhead", "other_bench", "benchmark"),
            (
                "\"results\": [",
                "\"results\": [], \"ignored\": [",
                "non-empty",
            ),
            (
                "\"elapsed_secs\": 0.1,",
                "\"elapsed_secs\": -0.1,",
                "elapsed_secs",
            ),
            ("\"p99\": 2.0, \"max\": 9.0", "\"max\": 9.0", "p99"),
        ] {
            let doc = minimal_obs().replace(needle, replacement);
            let err = validate(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{expect}: got {err}");
        }
    }

    #[test]
    fn one_command_line_for_every_report_bin() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parse = |s: &str| parse_cli("b", "B.json", &[("--fsync", "POLICY")], &args(s));
        let cli = parse("--smoke --fsync per_write --out x.json").unwrap();
        assert!(cli.smoke && cli.out == "x.json" && cli.check.is_none());
        assert_eq!(cli.extra, vec![Some("per_write".to_owned())]);
        let cli = parse("--check y.json").unwrap();
        assert_eq!(
            (cli.out.as_str(), cli.check.as_deref()),
            ("B.json", Some("y.json"))
        );
        for bad in ["--backend x", "--out", "--fsync"] {
            let err = parse(bad).unwrap_err();
            let flag = bad.split(' ').next().unwrap();
            assert!(
                err.starts_with(&format!("unknown argument {flag:?}")),
                "{err}"
            );
            assert!(err.ends_with("b [--smoke] [--fsync POLICY] [--out PATH] | --check PATH"));
        }
    }

    /// Every report committed to the repo is one `validate` accepts, and
    /// sits where the repo keeps them: full-scale at the root, the smoke
    /// baselines CI diffs against in `results/`.
    #[test]
    fn committed_artefacts_validate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = Vec::new();
        for (dir, smoke) in [(root.clone(), false), (root.join("results"), true)] {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with("BENCH_") && name.ends_with(".json") {
                    assert_eq!(name.ends_with("_smoke.json"), smoke, "{path:?} misplaced");
                    paths.push(path);
                }
            }
        }
        let mut names: Vec<String> = (paths.iter())
            .map(|p| p.strip_prefix(&root).unwrap().display().to_string())
            .collect();
        names.sort();
        let expected = [
            "BENCH_obs.json",
            "BENCH_recovery.json",
            "results/BENCH_recovery_smoke.json",
        ];
        assert_eq!(names, expected);
        for path in paths {
            load(path.to_str().unwrap()).unwrap();
        }
    }
}
