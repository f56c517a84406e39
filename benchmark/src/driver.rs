//! The closed-loop driver shared by the threaded workloads (`wire_c`,
//! `wire_a`, `local_b`): N client threads, each issuing its next operation
//! only after the previous one completed, for a fixed wall time.
//!
//! The main thread is the sampler. At every window boundary it reads the
//! clients' operation counters, the host's `/proc/stat` and the on-CPU time
//! of every measured process, so each window carries its own rate, steal
//! share and CPU cost; at the first and last boundary it also snapshots
//! the harness's threads by name (and, through the caller's hook, the
//! fleet's).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::procfs::{self, HostCpu};
use crate::stats::Window;

/// Length of one measurement window: 40 host ticks on two vCPUs, so steal
/// resolves to 2.5 % of a window, and a 15 s run has 75 windows to pick
/// its quietest from. Reading ~60 threads' `schedstat` at each boundary
/// costs the sampler about 1 ms of the 200.
pub const WINDOW: Duration = Duration::from_millis(200);

/// What one executed operation reports to the driver.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The operation was an update (else a read).
    pub update: bool,
    /// Latency of the operation proper (the call into the system, not the
    /// generator), if this step was asked to time itself and succeeded.
    pub latency_ns: Option<u64>,
}

/// One closed-loop client. It owns its connection or handle, its request
/// generator, its audit model and its attempted/failed counts.
pub trait Worker: Send {
    /// Executes the next operation of this client's stream. When `timed`,
    /// the worker reads the clock around the call into the system.
    fn step(&mut self, timed: bool) -> Step;
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the measured phase began.
    pub at_ns: u64,
    /// Latency, ns.
    pub latency_ns: u64,
    /// Update (else read).
    pub update: bool,
}

/// What a closed-loop run measured.
#[derive(Debug)]
pub struct LoopResult<W> {
    /// The workers, handed back for the audit.
    pub workers: Vec<W>,
    /// Per-window operation counts and steal shares.
    pub windows: Vec<Window>,
    /// Per window, the on-CPU ns each of the measured processes spent in
    /// it (same order as the `pids` passed in).
    pub window_cpu_ns: Vec<Vec<u64>>,
    /// Timed operations of every client, completed in the measured phase.
    pub samples: Vec<Sample>,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// Wall time of the measured phase, seconds.
    pub elapsed_s: f64,
    /// The harness's own threads at the start and end of the measured
    /// phase.
    pub harness_cpu: (procfs::ProcSample, procfs::ProcSample),
}

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// A counter on its own cache line, so eight clients bumping eight
/// counters do not share one.
#[repr(align(128))]
struct PaddedCounter(AtomicU64);

/// Runs `workers` closed-loop: `warmup` unmeasured, then `measure` in
/// [`WINDOW`]-sized windows. One operation in `time_every` is timed.
/// `pids` are the processes whose CPU time is charged to the operations
/// (the harness itself first). `on_phase` is called on the sampler thread
/// when the measured phase begins (`true`) and ends (`false`) — the
/// by-thread-name snapshots hang there.
pub fn run_closed_loop<W: Worker>(
    mut workers: Vec<W>,
    warmup: Duration,
    measure: Duration,
    time_every: u64,
    pids: &[u32],
    mut on_phase: impl FnMut(bool),
) -> LoopResult<W> {
    let n = workers.len();
    let phase = AtomicU8::new(WARMUP);
    let counters: Vec<PaddedCounter> = (0..n).map(|_| PaddedCounter(AtomicU64::new(0))).collect();
    // Workers park here after their last operation so that their threads
    // (and per-thread CPU counters) outlive the end-of-phase snapshot.
    let parked = Barrier::new(n + 1);
    let origin = Instant::now() + warmup;
    let windows_wanted = (measure.as_nanos() / WINDOW.as_nanos()).max(1) as usize;
    let me = std::process::id();

    let mut windows = Vec::with_capacity(windows_wanted);
    let mut window_cpu_ns = Vec::with_capacity(windows_wanted);
    let mut harness_cpu = None;
    let mut per_worker: Vec<Vec<Sample>> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(&counters)
            .enumerate()
            .map(|(i, (worker, counter))| {
                let (phase, parked) = (&phase, &parked);
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || {
                        let mut samples = Vec::with_capacity(1 << 16);
                        let mut issued = 0u64;
                        loop {
                            let now = phase.load(Ordering::Relaxed);
                            if now == STOP {
                                break;
                            }
                            let timed = issued.is_multiple_of(time_every);
                            issued += 1;
                            let step = worker.step(timed);
                            if now != MEASURE {
                                continue;
                            }
                            // Relaxed: a statistic the sampler reads; it
                            // publishes nothing else.
                            counter.0.fetch_add(1, Ordering::Relaxed);
                            if let Some(latency_ns) = step.latency_ns {
                                samples.push(Sample {
                                    at_ns: origin.elapsed().as_nanos() as u64,
                                    latency_ns,
                                    update: step.update,
                                });
                            }
                        }
                        parked.wait();
                        samples
                    })
                    .expect("spawn client thread")
            })
            .collect();

        sleep_until(origin);
        let cpu_before = procfs::sample_process(me);
        on_phase(true);
        phase.store(MEASURE, Ordering::SeqCst);
        let read_mark = || -> (u64, u64, HostCpu, Vec<u64>) {
            (
                origin.elapsed().as_nanos() as u64,
                counters.iter().map(|c| c.0.load(Ordering::Relaxed)).sum(),
                procfs::host_cpu(),
                pids.iter().map(|&p| procfs::run_ns_total(p)).collect(),
            )
        };
        let mut mark = read_mark();
        for k in 1..=windows_wanted {
            sleep_until(origin + WINDOW * k as u32);
            let next = read_mark();
            windows.push(Window {
                start_ns: mark.0,
                end_ns: next.0,
                ops: next.1 - mark.1,
                steal: procfs::steal_share(mark.2, next.2),
            });
            window_cpu_ns.push(
                next.3
                    .iter()
                    .zip(&mark.3)
                    .map(|(after, before)| after.saturating_sub(*before))
                    .collect(),
            );
            mark = next;
        }
        phase.store(STOP, Ordering::SeqCst);
        on_phase(false);
        harness_cpu = Some((cpu_before, procfs::sample_process(me)));
        parked.wait();
        per_worker = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });

    let end_ns = windows.last().map_or(0, |w: &Window| w.end_ns);
    let start_ns = windows.first().map_or(0, |w| w.start_ns);
    let samples = per_worker
        .into_iter()
        .flatten()
        .filter(|s| s.at_ns < end_ns)
        .collect();
    LoopResult {
        workers,
        ops: windows.iter().map(|w| w.ops).sum(),
        elapsed_s: (end_ns - start_ns) as f64 / 1e9,
        windows,
        window_cpu_ns,
        samples,
        harness_cpu: harness_cpu.expect("sampler ran"),
    }
}

fn sleep_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin {
        steps: u64,
    }

    impl Worker for Spin {
        fn step(&mut self, timed: bool) -> Step {
            self.steps += 1;
            std::thread::sleep(Duration::from_micros(200));
            Step {
                update: self.steps.is_multiple_of(2),
                latency_ns: timed.then_some(200_000),
            }
        }
    }

    #[test]
    fn windows_cover_the_measured_phase_and_hand_workers_back() {
        let mut phases = Vec::new();
        let r = run_closed_loop(
            vec![Spin { steps: 0 }, Spin { steps: 0 }],
            Duration::from_millis(50),
            WINDOW * 5,
            3,
            &[std::process::id()],
            |begin| phases.push(begin),
        );
        assert_eq!(phases, [true, false]);
        assert_eq!(r.windows.len(), 5);
        assert_eq!(r.window_cpu_ns.len(), 5);
        assert!(r.window_cpu_ns.iter().all(|w| w.len() == 1));
        assert_eq!(r.ops, r.windows.iter().map(|w| w.ops).sum::<u64>());
        assert!(r.ops > 0 && r.elapsed_s > 0.9 && r.elapsed_s < 2.0);
        // Warm-up steps ran but were not counted.
        let stepped: u64 = r.workers.iter().map(|w| w.steps).sum();
        assert!(stepped > r.ops, "{stepped} vs {}", r.ops);
        // One step in three is timed; both kinds show up.
        assert!(!r.samples.is_empty() && (r.samples.len() as u64) < r.ops / 2);
        assert!(r.samples.iter().any(|s| s.update) && r.samples.iter().any(|s| !s.update));
        let (before, after) = &r.harness_cpu;
        let clients = procfs::usage(before, after, |c| c.starts_with("bench-client"));
        assert!(clients.voluntary_switches > 0);
    }
}
