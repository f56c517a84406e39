//! Compares two benchmark reports row by row and flags throughput
//! regressions — the guard between a freshly generated `BENCH_*.json` and
//! the committed baseline.
//!
//! Both files go through `rmc_bench::report::load`, so a report the
//! schema rejects is never diffed. Rows are matched by the identity fields
//! the report table names for the kind (`mode`/`round`, `case`), and the
//! kind's gated metric (`throughput_ops_per_sec`,
//! `recovery_bytes_per_sec`) is diffed per matched pair — no per-schema
//! code here.
//!
//! By default regressions are warnings (benchmarks on shared CI hardware
//! are noisy) and the exit code stays 0; `--strict` turns any regression
//! beyond the threshold into a failure.
//!
//! Usage:
//!   bench_compare --baseline OLD.json --current NEW.json
//!                 [--threshold PCT] [--strict]

use std::process::ExitCode;

use rmc_bench::chart::format_quantity as kops;
use rmc_bench::json::Json;
use rmc_bench::report::{self, ReportKind};

/// Default allowed drop of the gated metric, percent.
const DEFAULT_THRESHOLD: f64 = 15.0;

/// `(identity key, gated metric)` of every result row.
fn rows(doc: &Json, kind: &ReportKind) -> Vec<(String, f64)> {
    doc.get("results")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| Some((kind.row_key(row), row.get(kind.metric)?.as_f64()?)))
        .collect()
}

fn compare(
    base_rows: &[(String, f64)],
    cur_rows: &[(String, f64)],
    threshold: f64,
) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut notes = Vec::new();

    for (key, base) in base_rows {
        let Some((_, cur)) = cur_rows.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("row dropped from current report: [{key}]"));
            continue;
        };
        let delta_pct = (cur - base) / base * 100.0;
        let line = format!(
            "[{key}] {} -> {} ({delta_pct:+.1}%)",
            kops(*base),
            kops(*cur)
        );
        if -delta_pct > threshold {
            regressions.push(line);
        } else {
            notes.push(line);
        }
    }
    for (key, _) in cur_rows {
        if !base_rows.iter().any(|(k, _)| k == key) {
            notes.push(format!("[{key}] new row (no baseline)"));
        }
    }
    (regressions, notes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut strict = false;
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
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_compare --baseline OLD.json --current NEW.json \
                     [--threshold PCT] [--strict]"
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
        let (baseline, kind) = report::load(&baseline_path)?;
        let (current, current_kind) = report::load(&current_path)?;
        if kind.benchmark != current_kind.benchmark {
            return Err("reports are from different benchmarks".into());
        }
        let (base_rows, cur_rows) = (rows(&baseline, kind), rows(&current, kind));
        let (regressions, notes) = compare(&base_rows, &cur_rows, threshold);
        println!(
            "{current_path} vs {baseline_path} ({}, threshold {threshold}%):",
            kind.metric
        );
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
