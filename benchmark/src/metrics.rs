//! The benchmark's contract in one place: workloads, end-to-end and
//! per-layer metrics with their units and directions. `BENCHMARK.json` at
//! the repo root is generated from these tables (`--emit-contract`) and a
//! test keeps the two identical; `README.md` is the glossary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

use Better::{Higher, Lower};

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it loads and what it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "wire_c",
        why: "YCSB-C over 3 rmcd processes: every op crosses codec, TCP and thread hops while replication and storage idle",
    },
    WorkloadDef {
        name: "wire_a",
        why: "YCSB-A on the same fleet: each update adds the R=2 replicate fan-out and ack round, and reads queue behind updates",
    },
    WorkloadDef {
        name: "path_a",
        why: "YCSB-A through a single-threaded inline engine: all repo-owned code on the op path; no sockets, threads or scheduler",
    },
    WorkloadDef {
        name: "local_b",
        why: "YCSB-B zipfian on an in-process StandaloneServer: lock-free reads, shard dispatch and the cleaner; no wire, no replication",
    },
];

/// One metric: its name, unit, direction, and (end-to-end only) the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; reported with `--trace 0`. Every bound
/// is the contract's maximum: ten runs of the same code spread by 5–19 %
/// on this host (`BASELINE.md`). The 99th percentiles are not here because
/// they spread by up to 45 % — they are `client.read_p99_us` and
/// `client.op_p99_us` below.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("ops_per_joule", "1/J", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics; reported with `--trace 1`, ungated. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // client: what the closed-loop clients observe beyond the gated set.
    layer("client.read_p99_us", "us", Lower),
    layer("client.op_p99_us", "us", Lower),
    layer("client.update_p50_us", "us", Lower),
    layer("client.update_p99_us", "us", Lower),
    layer("client.read_p999_us", "us", Lower),
    layer("client.update_p999_us", "us", Lower),
    layer("client.read_samples", "count", Higher),
    layer("client.update_samples", "count", Higher),
    layer("client.cpu_us_per_op", "us", Lower),
    layer("client.frames_per_op", "count", Lower),
    layer("client.retries_per_kop", "count", Lower),
    layer("client.giveups", "count", Lower),
    layer("client.wrong_owner", "count", Lower),
    layer("client.unattributed_us_p50", "us", Lower),
    // fleet: the rmcd processes, read passively through /proc.
    layer("fleet.cpu_us_per_op", "us", Lower),
    layer("fleet.node_loop_cpu_us_per_op", "us", Lower),
    layer("fleet.wire_read_cpu_us_per_op", "us", Lower),
    layer("fleet.net_forward_cpu_us_per_op", "us", Lower),
    layer("fleet.timer_threads_cpu_ms_per_s", "ms/s", Lower),
    layer("fleet.coordinator_cpu_ms_per_s", "ms/s", Lower),
    layer("fleet.ctx_switches_per_op", "count", Lower),
    layer("fleet.runq_wait_us_per_op", "us", Lower),
    layer("fleet.idle_cpu_ms_per_s", "ms/s", Lower),
    layer("fleet.rss_mb_end", "MB", Lower),
    layer("fleet.threads", "count", Lower),
    // core: the protocol Server.
    layer("core.ack_wait_p50_us", "us", Lower),
    layer("core.ack_wait_p99_us", "us", Lower),
    layer("core.staged_bytes_per_user_byte", "ratio", Lower),
    layer("core.rifl_replays", "count", Lower),
    layer("core.pending_resends", "count", Lower),
    layer("core.backup_append_errors", "count", Lower),
    layer("core.master_read_ns", "ns", Lower),
    layer("core.master_update_ns", "ns", Lower),
    layer("core.backup_replicate_ns", "ns", Lower),
    layer("core.master_ack_ns", "ns", Lower),
    layer("core.node_read_turnaround_us_p50", "us", Lower),
    layer("core.node_update_fanout_us_p50", "us", Lower),
    layer("core.backup_turnaround_us_p50", "us", Lower),
    layer("core.ack_to_response_us_p50", "us", Lower),
    // wire: codec, framing, and the socket hops.
    layer("wire.encode_ns_per_op", "ns", Lower),
    layer("wire.decode_ns_per_op", "ns", Lower),
    layer("wire.frame_ns_per_op", "ns", Lower),
    layer("wire.bytes_per_read", "B", Lower),
    layer("wire.bytes_per_update", "B", Lower),
    layer("wire.frames_per_read", "count", Lower),
    layer("wire.frames_per_update", "count", Lower),
    layer("wire.hop_request_us_p50", "us", Lower),
    layer("wire.hop_response_us_p50", "us", Lower),
    layer("wire.hop_replicate_us_p50", "us", Lower),
    layer("wire.hop_ack_us_p50", "us", Lower),
    layer("wire.decode_errors", "count", Lower),
    layer("wire.reconnects", "count", Lower),
    // logstore: the log-structured Store.
    layer("logstore.read_ns", "ns", Lower),
    layer("logstore.write_ns", "ns", Lower),
    layer("logstore.read_lockfree_share", "ratio", Higher),
    layer("logstore.probe_steps_per_lookup", "count", Lower),
    layer(
        "logstore.cleaner_relocated_bytes_per_user_byte",
        "ratio",
        Lower,
    ),
    layer("logstore.cleaner_busy_ms_per_s", "ms/s", Lower),
    layer("logstore.cleaner_passes_per_s", "1/s", Lower),
    // standalone: the threaded server's public stage histograms.
    layer("standalone.queue_wait_p50_us", "us", Lower),
    layer("standalone.write_service_p50_us", "us", Lower),
    layer("standalone.read_service_p50_ns", "ns", Lower),
    layer("standalone.rss_mb_end", "MB", Lower),
    // diskstore: the file-backed backup engine.
    layer("diskstore.append_ns", "ns", Lower),
    layer("diskstore.write_bytes_per_user_byte", "ratio", Lower),
    layer("diskstore.fsyncs_per_append_batched", "ratio", Lower),
    layer("diskstore.append_fsync_us_p50", "us", Lower),
    layer("diskstore.open_recover_ms", "ms", Lower),
    layer("diskstore.crc_mismatch", "count", Lower),
    // ycsb: the generator's own cost.
    layer("ycsb.next_request_ns", "ns", Lower),
    layer("ycsb.value_for_ns", "ns", Lower),
    // energy: inputs to ops_per_joule.
    layer("energy.watts_per_server", "W", Lower),
    layer("energy.dynamic_share_pct", "%", Lower),
    // path: does the path_a budget close?
    layer("path.untraced_op_ns", "ns", Lower),
    layer("path.layer_sum_ns", "ns", Lower),
    layer("path.unattributed_ns", "ns", Lower),
    layer("path.budget_gap_pct", "%", Lower),
    // obs: what tracing itself costs.
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.span_bias_ns", "ns", Lower),
    // host: how quiet the machine was.
    layer("host.steal_pct", "%", Lower),
    layer("host.quiet_windows", "count", Higher),
    layer("host.noisy", "count", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.idle_spinners", "count", Higher),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets `name`; panics on a name outside the catalogue, so a typo
    /// fails the first smoke run instead of silently reporting 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The value of `name` (0 when the workload did not set it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds `other` in (its values win).
    pub fn absorb(&mut self, other: Report) {
        self.values.extend(other.values);
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (measured, warm-up, load and audit reads).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong value.
    pub failed: u64,
    /// The metrics.
    pub report: Report,
    /// Why `correct` is false, for the human reading stderr.
    pub complaints: Vec<String>,
    /// The measurement windows, kept for `out/windows_<workload>.jsonl`,
    /// each with whether it was quiet and what latency it saw.
    pub windows: Vec<(crate::stats::Window, bool, crate::summary::WindowLatency)>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest digits that round-trip: every digit
        // as measured, and always with a decimal point or exponent.
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line the driver parses: `defs` selects and orders the
/// metrics.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(outcome.report.get(m.name)),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, generated.
pub fn contract_json(run_seconds: u64) -> String {
    let better = |b: Better| match b {
        Higher => "higher",
        Lower => "lower",
    };
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.better),
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m.better)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n    {workloads}\n  ],\n  \
         \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_is_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "bad name");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(contract_json(15).len() < 64 * 1024);
    }

    #[test]
    fn committed_contract_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        // Not assert_eq!: the two 8 KB strings would drown the message.
        assert!(
            committed == contract_json(15),
            "regenerate: bash benchmark/run.sh --emit-contract > BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_lists_exactly_the_selected_metrics() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        outcome.report.set("setup_s", 0.5);
        outcome.report.set("throughput_ops_s", 1234.0);
        outcome.report.set("host.nproc", 2.0);
        let line = result_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_ops_s\": {\"value\": 1234.0, \"unit\": \"1/s\"}"));
        assert!(!line.contains("host.nproc"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(result_line(&outcome, PER_LAYER).contains("\"host.nproc\": {\"value\": 2.0"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_rejected() {
        Report::default().set("wire.typo", 1.0);
    }
}
