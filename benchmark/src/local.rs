//! `local_b`: YCSB-B (95 % reads), zipfian θ = 0.99, on an in-process
//! [`StandaloneServer`] — the lock-free read path, shard dispatch and the
//! concurrent cleaner do all the work; wire and replication none.
//!
//! 50 000 × 1 KB records in 4 shards of 24 × 1 MiB segments is ≈ 55 %
//! memory utilisation: the 5 % updates turn the log over several times in
//! a run, so the cleaner reaches its steady write amplification.

use std::time::{Duration, Instant};

use rmc_logstore::{LogConfig, TableId};
use rmc_standalone::{Client, ServerConfig, StandaloneServer};
use rmc_ycsb::{Distribution, OpKind, RequestGenerator, StandardWorkload, WorkloadSpec};

use crate::driver::{run_closed_loop, Step, Worker};
use crate::metrics::{Outcome, Report};
use crate::procfs;
use crate::stats::median;
use crate::summary;
use crate::values::{audit_read, check_value, fill_value, Model, Tag};
use crate::wire::VALUE_BYTES;
use crate::Scale;

const TABLE: TableId = TableId(1);
/// Closed-loop client threads (= `nproc` of the reference host).
const CLIENTS: usize = 2;
/// One op in this many is timed: two clock reads on every 0.7 µs read
/// would be a tenth of what is measured.
const TIME_EVERY: u64 = 16;

fn server_config() -> ServerConfig {
    ServerConfig {
        worker_threads: 2,
        shards: 4,
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: 24,
            ordered_index: false,
        },
        ..ServerConfig::default()
    }
}

struct LocalWorker {
    client: Client,
    gen: RequestGenerator,
    id: u64,
    writes: u64,
    value: Vec<u8>,
    model: Model,
    attempted: u64,
    failed: u64,
    user_bytes: u64,
}

impl LocalWorker {
    fn put(&mut self, key_index: u64, timed: bool) -> Option<u64> {
        let key = self.gen.key_for(key_index);
        let tag = Tag {
            writer: self.id,
            counter: self.writes,
        };
        self.writes += 1;
        fill_value(&mut self.value, tag, key_index);
        self.attempted += 1;
        let t0 = timed.then(Instant::now);
        match self.client.write(TABLE, &key, &self.value) {
            Ok(outcome) => {
                let took = t0.map(|t| t.elapsed().as_nanos() as u64);
                self.model.acked(key_index, outcome.version.0, tag);
                self.user_bytes += (key.len() + self.value.len()) as u64;
                took
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Reads `key_index` and self-checks the value; with a model, also
    /// requires the tag the model expects (the audit).
    fn get(&mut self, key_index: u64, timed: bool, audit: Option<&Model>) -> Option<u64> {
        let key = self.gen.key_for(key_index);
        self.attempted += 1;
        let t0 = timed.then(Instant::now);
        let view = self.client.read_view(TABLE, &key);
        let took = t0.map(|t| t.elapsed().as_nanos() as u64);
        let bytes = view
            .as_ref()
            .ok()
            .and_then(|v| v.as_ref())
            .map(|v| &v.value[..]);
        let ok = match audit {
            Some(model) => audit_read(model, key_index, bytes, VALUE_BYTES),
            None => bytes.is_some_and(|b| check_value(b, key_index, VALUE_BYTES).is_some()),
        };
        if !ok {
            self.failed += 1;
            return None;
        }
        took
    }
}

impl Worker for LocalWorker {
    fn step(&mut self, timed: bool) -> Step {
        let req = self.gen.next_request().expect("unbounded stream");
        let update = req.kind != OpKind::Read;
        let latency_ns = if update {
            self.put(req.key_index, timed)
        } else {
            self.get(req.key_index, timed, None)
        };
        Step { update, latency_ns }
    }
}

/// Starts a server and loads it (client `c` loads the keys `≡ c mod 2`).
fn deploy(seed: u64, scale: &Scale) -> Result<(StandaloneServer, Vec<LocalWorker>), String> {
    let server = StandaloneServer::start(server_config());
    let mut spec =
        WorkloadSpec::standard(StandardWorkload::B).with_record_count(scale.local_records);
    spec.distribution = Distribution::zipfian_default();
    spec.value_bytes = VALUE_BYTES;
    spec.ops_per_client = u64::MAX;
    let mut workers: Vec<LocalWorker> = (0..CLIENTS)
        .map(|i| LocalWorker {
            client: server.client(),
            gen: RequestGenerator::new(spec.clone(), seed + i as u64),
            id: i as u64,
            writes: 0,
            value: vec![0u8; VALUE_BYTES],
            model: Model::default(),
            attempted: 0,
            failed: 0,
            user_bytes: 0,
        })
        .collect();
    let records = scale.local_records;
    std::thread::scope(|scope| {
        for (c, w) in workers.iter_mut().enumerate() {
            scope.spawn(move || {
                for key_index in (c as u64..records).step_by(CLIENTS) {
                    w.put(key_index, false);
                }
            });
        }
    });
    if workers.iter().any(|w| w.failed > 0) {
        return Err("local_b load: a write failed".into());
    }
    Ok((server, workers))
}

/// Runs `local_b`.
pub fn run(seed: u64, measure: Duration, scale: &Scale) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut deployment: Option<(StandaloneServer, Vec<LocalWorker>)> = None;
    for _ in 0..scale.setups {
        if let Some((server, workers)) = deployment.take() {
            drop(workers);
            server.shutdown();
        }
        let t0 = Instant::now();
        deployment = Some(deploy(seed, scale)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (server, workers) = deployment.expect("at least one set-up");
    let mut report = Report::default();
    report.set("setup_s", median(&mut setup_s));

    // Cleaner and store counters at both ends of the measured phase.
    let cleaner = |suffix: &str| server.metrics().sum("cleaner.", suffix);
    let mut marks = Vec::with_capacity(2);
    let me = [std::process::id()];
    let result = run_closed_loop(workers, scale.warmup, measure, TIME_EVERY, &me, |_begin| {
        marks.push((
            server.store().stats(),
            cleaner(".passes"),
            cleaner(".bytes_relocated"),
            cleaner(".busy_ns"),
        ));
    });
    let (quiet, latency) = summary::rate_and_latency(&result.windows, &result.samples, &mut report);
    // Server and clients share the process: all of its threads count, and
    // the process is the one node that draws power.
    summary::cpu_and_energy(
        &result.windows,
        &quiet,
        &result.window_cpu_ns,
        &[0],
        &mut report,
    );
    let (before, after) = &result.harness_cpu;
    report.set(
        "client.cpu_us_per_op",
        procfs::usage(before, after, |c| c.starts_with("bench-client")).run_ns as f64
            / 1e3
            / result.ops.max(1) as f64,
    );

    let (s0, s1) = (marks[0].0, marks[1].0);
    let reads = (s1.read_hits + s1.read_misses).saturating_sub(s0.read_hits + s0.read_misses);
    report.set(
        "logstore.read_lockfree_share",
        (s1.read_lockfree - s0.read_lockfree) as f64 / reads.max(1) as f64,
    );
    report.set(
        "logstore.probe_steps_per_lookup",
        (s1.index_probe_steps - s0.index_probe_steps) as f64
            / (s1.index_probes - s0.index_probes).max(1) as f64,
    );
    let mut workers = result.workers;
    // Bytes written in the measured phase are not tracked apart from the
    // rest; the writes are uniform in size, so scale by the write count.
    let written: u64 = workers.iter().map(|w| w.user_bytes).sum();
    let writes: u64 = workers.iter().map(|w| w.writes).sum();
    let measured_bytes = written as f64 * (s1.writes - s0.writes) as f64 / writes.max(1) as f64;
    report.set(
        "logstore.cleaner_relocated_bytes_per_user_byte",
        (marks[1].2 - marks[0].2) as f64 / measured_bytes.max(1.0),
    );
    report.set(
        "logstore.cleaner_passes_per_s",
        (marks[1].1 - marks[0].1) as f64 / result.elapsed_s,
    );
    report.set(
        "logstore.cleaner_busy_ms_per_s",
        (marks[1].3 - marks[0].3) as f64 / 1e6 / result.elapsed_s,
    );
    let stages = server.metrics().snapshot_histograms();
    let p50 = |name: &str| stages.get(name).map_or(0, |h| h.quantile(0.5)) as f64;
    report.set(
        "standalone.queue_wait_p50_us",
        p50("stage.queue_wait_ns") / 1e3,
    );
    report.set(
        "standalone.write_service_p50_us",
        p50("stage.write_service_ns") / 1e3,
    );
    report.set(
        "standalone.read_service_p50_ns",
        p50("stage.read_service_ns"),
    );
    report.set("standalone.rss_mb_end", after.rss_kb as f64 / 1024.0);

    // Audit: every key read back once, against the merged model.
    let mut model = Model::default();
    for w in &mut workers {
        model.merge(std::mem::take(&mut w.model));
    }
    let records = scale.local_records;
    std::thread::scope(|scope| {
        let model = &model;
        for (c, w) in workers.iter_mut().enumerate() {
            scope.spawn(move || {
                for key_index in (c as u64..records).step_by(CLIENTS) {
                    w.get(key_index, false, Some(model));
                }
            });
        }
    });
    let attempted: u64 = workers.iter().map(|w| w.attempted).sum();
    let failed: u64 = workers.iter().map(|w| w.failed).sum();
    drop(workers);
    server.shutdown();
    let mut complaints = Vec::new();
    if failed > 0 {
        complaints.push(format!(
            "{failed} of {attempted} operations failed or read a wrong value"
        ));
    }
    Ok(Outcome {
        correct: complaints.is_empty(),
        attempted,
        failed,
        report,
        complaints,
        windows: summary::window_records(&result.windows, &quiet, latency),
    })
}
