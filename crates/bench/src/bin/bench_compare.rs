//! Compares two benchmark reports row by row and flags throughput
//! regressions — the guard between a freshly generated `BENCH_*.json` and
//! the committed baseline.
//!
//! Rows are matched by identity key: every string field of the row (e.g.
//! `mix`, `mode`, `backend`, `engine`, `case`) and the sweep-axis integers
//! (`workers`, `clients`, `batch_size`). That covers `BENCH_standalone.json`,
//! `BENCH_obs.json`, `BENCH_wire.json` and `BENCH_recovery.json` without
//! per-schema code. `throughput_ops_per_sec` is then diffed per matched
//! pair.
//!
//! By default regressions are warnings (benchmarks on shared CI hardware
//! are noisy) and the exit code stays 0; `--strict` turns any regression
//! beyond the threshold into a failure.
//!
//! With `--history FILE`, each comparison also appends one compact JSONL
//! record (timestamp, benchmark, per-row throughputs, regression count) to
//! `FILE` — a durable trend log (`results/bench_history.jsonl`) that
//! accumulates across runs where individual `BENCH_*.json` files only hold
//! the latest.
//!
//! Usage:
//!   bench_compare --baseline OLD.json --current NEW.json
//!                 [--threshold PCT] [--strict] [--history FILE]

use std::io::Write;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use rmc_bench::json::{self, Json};
use rmc_bench::kops;

/// Default allowed throughput drop, percent.
const DEFAULT_THRESHOLD: f64 = 15.0;

/// The sweep-axis integer fields that identify a row (alongside every
/// string field); other numbers are measurements, not identity.
const KEY_NUMBERS: [&str; 3] = ["workers", "clients", "batch_size"];

/// Builds the stable identity key of a result row.
fn row_key(row: &Json) -> String {
    let Json::Obj(fields) = row else {
        return String::from("<non-object row>");
    };
    let mut parts = Vec::new();
    for (name, value) in fields {
        match value {
            Json::Str(s) => parts.push(format!("{name}={s}")),
            Json::Num(n) if KEY_NUMBERS.contains(&name.as_str()) => {
                parts.push(format!("{name}={n}"));
            }
            _ => {}
        }
    }
    parts.join(" ")
}

fn rows(doc: &Json) -> Vec<(String, f64)> {
    doc.get("results")
        .and_then(Json::as_array)
        .map(|results| {
            results
                .iter()
                .filter_map(|row| {
                    let throughput = row.get("throughput_ops_per_sec")?.as_f64()?;
                    Some((row_key(row), throughput))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn compare(baseline: &Json, current: &Json, threshold: f64) -> (Vec<String>, Vec<String>) {
    let base_rows = rows(baseline);
    let cur_rows = rows(current);
    let mut regressions = Vec::new();
    let mut notes = Vec::new();

    for (key, base) in &base_rows {
        let Some((_, cur)) = cur_rows.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("row dropped from current report: [{key}]"));
            continue;
        };
        let delta_pct = (cur - base) / base * 100.0;
        let line = format!(
            "[{key}] {} -> {} ops/s ({delta_pct:+.1}%)",
            kops(*base),
            kops(*cur),
        );
        if -delta_pct > threshold {
            regressions.push(line);
        } else {
            notes.push(line);
        }
    }
    for (key, _) in &cur_rows {
        if !base_rows.iter().any(|(k, _)| k == key) {
            notes.push(format!("[{key}] new row (no baseline)"));
        }
    }
    (regressions, notes)
}

/// Appends one compact JSONL record of this comparison to `path`.
fn append_history(
    path: &str,
    benchmark: &str,
    current: &Json,
    regressions: usize,
) -> Result<(), String> {
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let row_entries: Vec<Json> = rows(current)
        .into_iter()
        .map(|(key, ops)| Json::obj(vec![("key", key.into()), ("ops_per_sec", ops.into())]))
        .collect();
    let record = Json::obj(vec![
        ("unix_secs", unix_secs.into()),
        ("benchmark", benchmark.into()),
        ("rows", Json::Arr(row_entries)),
        ("regressions", regressions.into()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    writeln!(file, "{}", record.to_compact()).map_err(|e| format!("append {path}: {e}"))?;
    println!("history -> {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut strict = false;
    let mut history_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" if i + 1 < args.len() => {
                i += 1;
                baseline_path = Some(args[i].clone());
            }
            "--current" if i + 1 < args.len() => {
                i += 1;
                current_path = Some(args[i].clone());
            }
            "--threshold" if i + 1 < args.len() => {
                i += 1;
                threshold = match args[i].parse() {
                    Ok(t) => t,
                    Err(_) => {
                        eprintln!("--threshold must be a number, got {:?}", args[i]);
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--strict" => strict = true,
            "--history" if i + 1 < args.len() => {
                i += 1;
                history_path = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_compare --baseline OLD.json --current NEW.json \
                     [--threshold PCT] [--strict] [--history FILE]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("--baseline and --current are both required");
        return ExitCode::FAILURE;
    };

    let outcome: Result<bool, String> = (|| {
        let baseline = load(&baseline_path)?;
        let current = load(&current_path)?;
        if baseline.get("benchmark").and_then(Json::as_str)
            != current.get("benchmark").and_then(Json::as_str)
        {
            return Err("reports are from different benchmarks".into());
        }
        let (regressions, notes) = compare(&baseline, &current, threshold);
        if rows(&baseline).is_empty() {
            return Err(format!("{baseline_path}: no comparable rows"));
        }
        println!("{current_path} vs {baseline_path} (threshold {threshold}%):");
        for line in &notes {
            println!("  ok   {line}");
        }
        for line in &regressions {
            println!("  SLOW {line}");
        }
        println!(
            "{} rows compared, {} regression(s)",
            notes.len() + regressions.len(),
            regressions.len()
        );
        if let Some(path) = &history_path {
            let benchmark = current
                .get("benchmark")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            append_history(path, benchmark, &current, regressions.len())?;
        }
        Ok(!regressions.is_empty())
    })();

    match outcome {
        Ok(regressed) => {
            if regressed && strict {
                ExitCode::FAILURE
            } else {
                if regressed {
                    println!("(warnings only; pass --strict to fail on regressions)");
                }
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
