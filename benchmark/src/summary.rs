//! Turns windows, latency samples and CPU seconds into the metrics every
//! workload reports the same way.

use rmc_energy::{NodeActivity, PowerProfile};

use crate::driver::Sample;
use crate::metrics::Report;
use crate::stats::{interquartile_mean, mean_rate, mean_steal, quantile, QuietSet, Window};

/// Cores of the paper's server node (Xeon X3440): the denominator that
/// turns on-CPU seconds into the power model's utilisation.
const NODE_CORES: f64 = 4.0;

/// A window needs this many samples of a kind for its percentiles of that
/// kind to count.
const MIN_WINDOW_SAMPLES: usize = 200;

/// Latency percentiles of the operations that completed in one window, µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowLatency {
    /// Timed reads in the window.
    pub reads: usize,
    /// Timed operations (reads and updates) in the window.
    pub ops: usize,
    /// Median read latency.
    pub read_p50_us: f64,
    /// 99th-percentile read latency.
    pub read_p99_us: f64,
    /// 99th-percentile latency over reads and updates pooled.
    pub op_p99_us: f64,
}

fn latency_by_window(windows: &[Window], samples: &[Sample]) -> Vec<WindowLatency> {
    let mut reads: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    let mut all: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for s in samples {
        // Windows are in time order; samples are attributed by completion.
        let i = windows.partition_point(|w| w.end_ns <= s.at_ns);
        if i < windows.len() && windows[i].start_ns <= s.at_ns {
            let us = s.latency_ns as f64 / 1e3;
            all[i].push(us);
            if !s.update {
                reads[i].push(us);
            }
        }
    }
    reads
        .iter_mut()
        .zip(&mut all)
        .map(|(reads, all)| WindowLatency {
            reads: reads.len(),
            ops: all.len(),
            read_p50_us: quantile(reads, 50.0),
            read_p99_us: quantile(reads, 99.0),
            op_p99_us: quantile(all, 99.0),
        })
        .collect()
}

/// Sets throughput, the latency percentiles with their sample counts, and
/// the `host.*` metrics, all over the quiet windows; returns those and the
/// per-window latencies.
///
/// `read_p50_us`, `client.read_p99_us` and `client.op_p99_us` are the
/// *interquartile mean over the quiet windows of the per-window
/// percentile*: what a typical 200 ms of the run looked like. Pooling all
/// samples instead lets one burst — a neighbour, not the program — own the
/// whole tail: ten runs of the same binary then spread by 43 % on
/// `wire_a`'s read p99. The update percentiles and the 99.9th percentiles
/// are pooled over the quiet windows.
pub fn rate_and_latency(
    windows: &[Window],
    samples: &[Sample],
    report: &mut Report,
) -> (QuietSet, Vec<WindowLatency>) {
    let quiet = QuietSet::select(windows);
    report.set("throughput_ops_s", mean_rate(windows, &quiet));

    let by_window = latency_by_window(windows, samples);
    let typical = |enough: fn(&WindowLatency) -> bool, pick: fn(&WindowLatency) -> f64| {
        let mut values: Vec<f64> = by_window
            .iter()
            .zip(&quiet.used)
            .filter(|(w, &used)| used && enough(w))
            .map(|(w, _)| pick(w))
            .collect();
        interquartile_mean(&mut values)
    };
    let enough_reads = |w: &WindowLatency| w.reads >= MIN_WINDOW_SAMPLES;
    report.set("read_p50_us", typical(enough_reads, |w| w.read_p50_us));
    report.set(
        "client.read_p99_us",
        typical(enough_reads, |w| w.read_p99_us),
    );
    report.set(
        "client.op_p99_us",
        typical(|w| w.ops >= MIN_WINDOW_SAMPLES, |w| w.op_p99_us),
    );

    let us = |s: &Sample| s.latency_ns as f64 / 1e3;
    let counted = || samples.iter().filter(|s| quiet.covers(windows, s.at_ns));
    let mut reads: Vec<f64> = counted().filter(|s| !s.update).map(us).collect();
    let mut updates: Vec<f64> = counted().filter(|s| s.update).map(us).collect();
    report.set("client.read_p999_us", quantile(&mut reads, 99.9));
    report.set("client.read_samples", reads.len() as f64);
    report.set("client.update_p50_us", quantile(&mut updates, 50.0));
    report.set("client.update_p99_us", quantile(&mut updates, 99.0));
    report.set("client.update_p999_us", quantile(&mut updates, 99.9));
    report.set("client.update_samples", updates.len() as f64);

    report.set("host.steal_pct", mean_steal(windows) * 100.0);
    report.set("host.quiet_windows", quiet.count() as f64);
    report.set("host.noisy", f64::from(u8::from(quiet.noisy)));
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    report.set("host.nproc", nproc as f64);
    (quiet, by_window)
}

/// The per-window record a run leaves in `out/windows_<workload>.jsonl`.
pub fn window_records(
    windows: &[Window],
    quiet: &QuietSet,
    latency: Vec<WindowLatency>,
) -> Vec<(Window, bool, WindowLatency)> {
    windows
        .iter()
        .zip(&quiet.used)
        .zip(latency)
        .map(|((w, &used), l)| (*w, used, l))
        .collect()
}

/// Sets `cpu_us_per_op`, `ops_per_joule` and the `energy.*` inputs over the
/// quiet windows. `window_cpu_ns[w][p]` is the on-CPU time of measured
/// process `p` in window `w`; `nodes` lists the processes that are serving
/// nodes (each gets the paper's power profile). Returns the quiet windows'
/// `(ops, on-CPU ns per process)` for the per-layer splits.
pub fn cpu_and_energy(
    windows: &[Window],
    quiet: &QuietSet,
    window_cpu_ns: &[Vec<u64>],
    nodes: &[usize],
    report: &mut Report,
) -> (u64, Vec<u64>) {
    let processes = window_cpu_ns.first().map_or(0, Vec::len);
    let mut cpu_ns = vec![0u64; processes];
    let (mut ops, mut elapsed_ns) = (0u64, 0u64);
    for ((w, cpu), _) in windows
        .iter()
        .zip(window_cpu_ns)
        .zip(&quiet.used)
        .filter(|(_, &used)| used)
    {
        ops += w.ops;
        elapsed_ns += w.end_ns - w.start_ns;
        for (total, ns) in cpu_ns.iter_mut().zip(cpu) {
            *total += ns;
        }
    }
    report.set(
        "cpu_us_per_op",
        cpu_ns.iter().sum::<u64>() as f64 / 1e3 / ops.max(1) as f64,
    );
    let node_cpu_s: Vec<f64> = nodes.iter().map(|&p| cpu_ns[p] as f64 / 1e9).collect();
    energy(ops, elapsed_ns as f64 / 1e9, &node_cpu_s, report);
    (ops, cpu_ns)
}

/// Sets `ops_per_joule` and the `energy.*` inputs: the paper's node power
/// profile driven by *measured* on-CPU seconds, one entry of
/// `node_cpu_s` per serving node.
fn energy(ops: u64, elapsed_s: f64, node_cpu_s: &[f64], report: &mut Report) {
    let profile = PowerProfile::grid5000_nancy();
    let elapsed_s = elapsed_s.max(1e-9);
    let watts: Vec<f64> = node_cpu_s
        .iter()
        .map(|cpu_s| {
            profile.power(NodeActivity {
                cpu: cpu_s / (NODE_CORES * elapsed_s),
                ..NodeActivity::idle()
            })
        })
        .collect();
    let total_watts: f64 = watts.iter().sum();
    if total_watts <= 0.0 {
        return;
    }
    let mean_watts = total_watts / watts.len() as f64;
    report.set("ops_per_joule", ops as f64 / (total_watts * elapsed_s));
    report.set("energy.watts_per_server", mean_watts);
    report.set(
        "energy.dynamic_share_pct",
        (mean_watts - profile.idle_power()) / mean_watts * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_what_a_typical_quiet_window_saw() {
        let windows: Vec<Window> = (0..12)
            .map(|i| Window {
                start_ns: i * 1_000_000,
                end_ns: (i + 1) * 1_000_000,
                ops: 500,
                steal: if i == 1 { 0.5 } else { 0.0 },
            })
            .collect();
        let mut samples = Vec::new();
        for i in 0..12u64 {
            for j in 0..500u64 {
                // The stolen window's ops look 100x slower; one quiet
                // window holds a burst that hits a tenth of its ops.
                let latency_ns = match (i, j) {
                    (1, _) => 500_000,
                    (7, j) if j % 10 == 0 => 90_000,
                    _ => 5_000 + j,
                };
                samples.push(Sample {
                    at_ns: i * 1_000_000 + j,
                    latency_ns,
                    update: j % 2 == 1,
                });
            }
        }
        let mut report = Report::default();
        let (quiet, by_window) = rate_and_latency(&windows, &samples, &mut report);
        assert_eq!(quiet.count(), 11);
        assert_eq!((by_window[3].reads, by_window[3].ops), (250, 500));
        assert_eq!(by_window[7].op_p99_us, 90.0);
        // Neither the stolen window nor the burst window moves the tail.
        assert_eq!(report.get("read_p50_us"), 5.25);
        let tail = report.get("client.read_p99_us");
        assert!((5.0..5.5).contains(&tail), "{tail}");
        assert!((5.0..5.5).contains(&report.get("client.op_p99_us")));
        // The pooled 99.9th percentile still sees the burst.
        assert_eq!(report.get("client.read_p999_us"), 90.0);
        assert_eq!(report.get("client.read_samples"), 2_750.0);
        assert_eq!(report.get("host.quiet_windows"), 11.0);
        assert_eq!(report.get("host.noisy"), 0.0);
        assert_eq!(report.get("throughput_ops_s"), 5e5);
    }

    #[test]
    fn cpu_per_op_counts_quiet_windows_only() {
        let windows: Vec<Window> = (0..9)
            .map(|i| Window {
                start_ns: i * 1_000_000_000,
                end_ns: (i + 1) * 1_000_000_000,
                ops: 1_000,
                steal: if i == 8 { 0.5 } else { 0.0 },
            })
            .collect();
        // Two processes; the stolen window burned ten times the CPU.
        let cpu: Vec<Vec<u64>> = (0..9)
            .map(|i| {
                if i == 8 {
                    vec![20_000_000, 80_000_000]
                } else {
                    vec![2_000_000, 8_000_000]
                }
            })
            .collect();
        let quiet = QuietSet::select(&windows);
        assert_eq!(quiet.count(), 8);
        let mut report = Report::default();
        let (ops, per_process) = cpu_and_energy(&windows, &quiet, &cpu, &[1], &mut report);
        assert_eq!((ops, per_process), (8_000, vec![16_000_000, 64_000_000]));
        assert_eq!(report.get("cpu_us_per_op"), 10.0);
        // One node, 64 ms busy of 8 s x 4 cores.
        let watts = 59.0 + 66.0 * 0.064 / 32.0;
        assert!((report.get("energy.watts_per_server") - watts).abs() < 1e-9);
        assert!((report.get("ops_per_joule") - 8_000.0 / (watts * 8.0)).abs() < 1e-9);
    }

    #[test]
    fn joules_follow_the_paper_profile() {
        let mut report = Report::default();
        // Three servers, each one core busy out of four, for 10 s.
        energy(1_000_000, 10.0, &[10.0, 10.0, 10.0], &mut report);
        let watts = report.get("energy.watts_per_server");
        assert!((watts - 75.5).abs() < 1e-9, "{watts}");
        let opj = report.get("ops_per_joule");
        assert!((opj - 1_000_000.0 / (3.0 * 75.5 * 10.0)).abs() < 1e-9);
        assert!((report.get("energy.dynamic_share_pct") - 16.5 / 75.5 * 100.0).abs() < 1e-9);
    }
}
