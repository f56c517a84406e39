//! `rmc-benchmark` — the repo's benchmark harness.
//!
//! ```text
//! rmc-benchmark [--workload wire_c|wire_a|path_a|local_b] [--seed N]
//!               [--seconds S] [--trace 0|1] [--smoke] [--emit-contract]
//! ```
//!
//! With `--workload`, runs that workload once and prints, as the last line
//! of stdout, the JSON result the contract in `BENCHMARK.json` describes:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without it, runs all four workloads, untraced then traced,
//! and prints every metric by name. Exits non-zero when an output check
//! fails. See `README.md`.

mod driver;
mod hops;
mod host;
mod local;
mod metrics;
mod path;
mod probes;
mod procfs;
mod stats;
mod summary;
mod values;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rmc_ycsb::StandardWorkload;

use metrics::{result_line, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of the contract, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;

/// Sizes of everything that is not the measured time. `--smoke` shrinks
/// them all; the code paths and metric names stay the same.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Times set-up is repeated (its median is `setup_s`).
    pub setups: usize,
    /// Unmeasured closed-loop time before the measured phase.
    pub warmup: Duration,
    /// Records on the wire workloads and the hop trace.
    pub wire_records: u64,
    /// Closed-loop clients on the wire workloads.
    pub wire_clients: usize,
    /// No-load window for `fleet.idle_cpu_ms_per_s`.
    pub idle_window: Duration,
    /// Traced ops per client of the hop trace.
    pub hop_ops_per_client: usize,
    /// Records on `path_a` and its probes.
    pub path_records: u64,
    /// Ops of one `path_a` round.
    pub path_round_ops: u64,
    /// Ops of one `path_a` estimator window (divides `path_round_ops`).
    pub path_window_ops: u64,
    /// Ops whose spans `trace_path_a.jsonl` holds.
    pub path_trace_ops: u32,
    /// Ops of the logstore probe (the generator probe runs 4×).
    pub probe_ops: u64,
    /// Appends of the diskstore probe with fsync off.
    pub probe_appends: usize,
    /// Appends of the diskstore probe with per-write fsync.
    pub probe_fsync_appends: usize,
    /// Records on `local_b`.
    pub local_records: u64,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            setups: 3,
            warmup: Duration::from_secs(1),
            wire_records: 10_000,
            wire_clients: 8,
            idle_window: Duration::from_secs(2),
            hop_ops_per_client: 500,
            path_records: 10_000,
            path_round_ops: 40_000,
            path_window_ops: 5_000,
            path_trace_ops: 2_000,
            probe_ops: 60_000,
            probe_appends: 20_000,
            probe_fsync_appends: 300,
            local_records: 50_000,
        }
    }

    fn smoke() -> Scale {
        Scale {
            setups: 1,
            warmup: Duration::from_millis(200),
            wire_records: 1_000,
            wire_clients: 8,
            idle_window: Duration::from_millis(300),
            hop_ops_per_client: 50,
            path_records: 1_000,
            path_round_ops: 4_000,
            path_window_ops: 1_000,
            path_trace_ops: 200,
            probe_ops: 4_000,
            probe_appends: 1_000,
            probe_fsync_appends: 20,
            local_records: 5_000,
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        emit_contract: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--emit-contract" => args.emit_contract = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    if args.smoke && !seconds_given {
        args.seconds = 1;
    }
    Ok(args)
}

/// Where the benchmark keeps what it writes, relative to the checkout root
/// (`run.sh` changes there before it starts the harness).
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

fn run_workload(name: &str, args: &Args, trace: bool, scale: &Scale) -> Outcome {
    let measure = Duration::from_secs(args.seconds);
    let result = match name {
        "wire_c" => wire::run(StandardWorkload::C, args.seed, measure, trace, scale),
        "wire_a" => wire::run(StandardWorkload::A, args.seed, measure, trace, scale),
        "path_a" => path::run(args.seed, measure, trace, scale, &out_dir()),
        "local_b" => local::run(args.seed, measure, scale),
        _ => unreachable!("workload names are checked at parse time"),
    };
    result.unwrap_or_else(|e| Outcome {
        complaints: vec![e],
        ..Outcome::default()
    })
}

/// Writes the run's windows (rate and steal of each) beside the trace, so
/// a surprising number can be checked against how quiet the host was.
fn write_windows(workload: &str, outcome: &Outcome) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("windows_{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (w, quiet, l) in &outcome.windows {
        writeln!(
            out,
            "{{\"start_ns\": {}, \"end_ns\": {}, \"ops\": {}, \"ops_s\": {:.1}, \"steal\": {:.4}, \
             \"quiet\": {quiet}, \"timed_reads\": {}, \"timed_ops\": {}, \
             \"read_p50_us\": {:.3}, \"read_p99_us\": {:.3}, \"op_p99_us\": {:.3}}}",
            w.start_ns,
            w.end_ns,
            w.ops,
            w.rate(),
            w.steal,
            l.reads,
            l.ops,
            l.read_p50_us,
            l.read_p99_us,
            l.op_p99_us
        )?;
    }
    out.flush()
}

fn print_table(workload: &str, outcome: &Outcome, defs: &[MetricDef]) {
    for m in defs {
        println!(
            "{workload:<8} {:<46} {:>16.4} {}",
            m.name,
            outcome.report.get(m.name),
            m.unit
        );
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::SPINNER_FLAG) {
        host::spin_until_orphaned();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        print!("{}", metrics::contract_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    // One idle-class spinner per vCPU for as long as anything is measured
    // (see `host.rs`); killed and reaped when this goes out of scope.
    let spinners = host::IdleSpinners::start();
    if spinners.count() == 0 {
        eprintln!("rmc-benchmark: no idle spinners (SCHED_IDLE refused?); expect a noisier run");
    }
    let mut all_correct = true;
    let mut run_one = |name: &str, trace: bool| {
        let mut outcome = run_workload(name, &args, trace, &scale);
        outcome
            .report
            .set("host.idle_spinners", spinners.count() as f64);
        for c in &outcome.complaints {
            eprintln!("rmc-benchmark: {name}: {c}");
        }
        all_correct &= outcome.correct;
        if let Err(e) = write_windows(name, &outcome) {
            eprintln!("rmc-benchmark: {name}: writing windows: {e}");
        }
        let defs = if trace { PER_LAYER } else { END_TO_END };
        print_table(name, &outcome, defs);
        println!("{}", result_line(&outcome, defs));
    };
    match &args.workload {
        Some(name) => run_one(name, args.trace),
        None => {
            for w in WORKLOADS {
                run_one(w.name, false);
                run_one(w.name, true);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
