//! Recovery ablation: crash-recovery time vs. data size vs. number of
//! recovery masters, with backup replicas staged in memory vs. on
//! CRC-framed per-master log files.
//!
//! Each case boots a threaded [`MiniCluster`] (real coordinator, master,
//! and backup threads over crossbeam channels), loads a known data volume
//! through the replicated write path, SIGKILL-equivalently kills one
//! master thread, and measures on the wall clock:
//!
//! - **detection**: kill → the coordinator notices the silence (heartbeat
//!   failure timeout) and broadcasts the death;
//! - **recovery**: detection → every partition of the victim's will has
//!   been replayed by its recovery master and the coordinator's
//!   `recoveries_pending` drops back to zero (polled over the live Stats
//!   RPC).
//!
//! Recovery masters scale with the cluster: the will partitions the
//! victim's buckets across all survivors, so an `S`-server cluster replays
//! on `S-1` masters in parallel — the paper's partitioned parallel
//! recovery (Fig 11, Finding 6). The `file` engine stages every backup
//! replica in `rmc_diskstore::FileStorage` (checksummed frames, `batched`
//! by default), so its recovery serves segment bytes that really
//! round-tripped through files. Under `batched` (and `off`) a backup acks
//! from memory and writes each replica segment in one call when its master
//! seals it: recovery reads the sealed segments back from the files and
//! the open one from the backup's pending frames, and an ack survives a
//! crash of the backup *process* only once its segment is written — until
//! then it lives on the other replica. (The victim here is a master
//! thread; no backup dies with it.)
//!
//! Each row's `recovery_bytes_per_sec` is the recovery bandwidth (victim's
//! data over recovery seconds) — the number `bench_compare` diffs against
//! the committed smoke baseline.
//!
//! Usage:
//!   recovery_ablation [--smoke] [--fsync POLICY] [--out PATH]
//!   recovery_ablation --check PATH             validate an existing report

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmc_bench::json::Json;
use rmc_bench::report::{self, SCHEMA_VERSION};
use rmc_core::protocol::{bucket_for, coordinator_id, ProtocolConfig, PROTO_TABLE};
use rmc_diskstore::{DiskMetrics, FileStorage, FsyncPolicy};
use rmc_runtime::{MetricsRegistry, SimDuration};
use rmc_standalone::{MiniCluster, StorageFactory};

const REPLICATION: usize = 2;

#[derive(Clone)]
struct Scale {
    /// Total loaded data volumes (bytes), the x-axis of Fig 11-style rows.
    data_sizes: Vec<u64>,
    /// Cluster sizes; each contributes `servers - 1` recovery masters.
    server_counts: Vec<usize>,
    value_bytes: usize,
    smoke: bool,
}

fn full_scale() -> Scale {
    Scale {
        data_sizes: vec![2 << 20, 4 << 20, 8 << 20],
        server_counts: vec![4, 8],
        value_bytes: 4096,
        smoke: false,
    }
}

fn smoke_scale() -> Scale {
    Scale {
        data_sizes: vec![256 << 10, 1 << 20, 4 << 20],
        server_counts: vec![4, 8],
        value_bytes: 1024,
        smoke: true,
    }
}

struct Measurement {
    engine: &'static str,
    case: String,
    servers: usize,
    records: u64,
    data_bytes: u64,
    victim_bytes: u64,
    detection_secs: f64,
    recovery_secs: f64,
    /// `disk.*` totals across the cluster (file engine only).
    disk: Option<(u64, u64, u64)>, // (write_bytes, fsyncs, crc_mismatch)
}

fn key_of(i: u64) -> Vec<u8> {
    format!("rec{i:08}").into_bytes()
}

/// Runs one (engine, data size, cluster size) cell and measures its
/// recovery on the wall clock.
fn run_case(
    engine: &'static str,
    data_bytes: u64,
    servers: usize,
    value_bytes: usize,
    fsync: &str,
) -> Result<Measurement, String> {
    let case = format!("{engine}_s{servers}_d{}KiB", data_bytes >> 10);
    let mut cfg = ProtocolConfig::new(servers, 1, REPLICATION);
    cfg.heartbeat_interval = SimDuration::from_millis(15);
    // Wide enough that a server busy replaying its share of the will never
    // misses enough heartbeats to be falsely suspected: a cascaded round
    // would recover the busy server from replicas that don't yet hold its
    // just-replayed (not yet re-replicated) records. The data-size axis is
    // capped so per-master replay stays well under this timeout.
    cfg.failure_timeout = SimDuration::from_millis(600);
    cfg.retry_timeout = SimDuration::from_millis(50);
    let buckets = cfg.buckets;

    let base = std::env::temp_dir().join(format!("rmc_recovery_{}_{case}", std::process::id()));
    let disk_registry = MetricsRegistry::new();
    let (cluster, mut clients) = if engine == "file" {
        let policy = FsyncPolicy::parse(fsync)?;
        let factory: StorageFactory = {
            let base = base.clone();
            let registry = disk_registry.clone();
            Arc::new(move |index, epoch| {
                let dir = base.join(format!("s{index}"));
                let metrics = DiskMetrics::new(&registry.family("disk", index));
                Box::new(
                    FileStorage::open(dir, policy.clone(), epoch, metrics)
                        .expect("open backup file storage"),
                )
            })
        };
        MiniCluster::start_with_storage(cfg.clone(), factory)
    } else {
        MiniCluster::start(cfg.clone())
    };
    let client = &mut clients[0];
    client.set_op_budget(Duration::from_secs(30));

    // Load through the replicated write path; track the victim's share.
    let victim = servers / 2;
    let records = (data_bytes / value_bytes as u64).max(1);
    let mut victim_bytes = 0u64;
    let mut victim_keys = Vec::new();
    for i in 0..records {
        let key = key_of(i);
        let value = vec![(i % 251) as u8; value_bytes];
        client.put(&key, &value).map_err(|e| format!("load: {e}"))?;
        if bucket_for(PROTO_TABLE, &key, buckets) % servers == victim {
            victim_bytes += (key.len() + value.len()) as u64;
            victim_keys.push(key);
        }
    }
    if victim_keys.is_empty() {
        return Err(format!("{case}: victim owns no keys — data too small"));
    }

    let stat = |stats: &[(String, u64)], name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let before = client
        .node_stats(coordinator_id())
        .map_err(|e| format!("pre-kill stats: {e}"))?;
    let map_v0 = stat(&before, "map_version");

    cluster.kill_server(victim);
    let t_kill = Instant::now();

    // Poll the coordinator's live stats: detection is the death broadcast
    // (map version bump / a pending recovery appears), completion is
    // `recoveries_pending` back at zero.
    let budget = Duration::from_secs(120);
    let mut t_detect: Option<Instant> = None;
    let t_done = loop {
        if t_kill.elapsed() > budget {
            return Err(format!("{case}: recovery did not finish within {budget:?}"));
        }
        let stats = client
            .node_stats(coordinator_id())
            .map_err(|e| format!("poll stats: {e}"))?;
        let pending = stat(&stats, "recoveries_pending");
        let map_v = stat(&stats, "map_version");
        if t_detect.is_none() && (pending > 0 || map_v > map_v0) {
            t_detect = Some(Instant::now());
        }
        if t_detect.is_some() && pending == 0 {
            break Instant::now();
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let t_detect = t_detect.expect("loop breaks only after detection");
    let detection_secs = (t_detect - t_kill).as_secs_f64();
    // Sub-poll-interval completions read as ~0; clamp to the poll period.
    let recovery_secs = (t_done - t_detect).as_secs_f64().max(0.002);

    // Prove the data actually came back: sample the victim's keys. A key
    // can transiently read as absent if replay load made the coordinator
    // falsely suspect another server and a follow-on recovery round is
    // still replaying it to yet another owner — retry before crying loss.
    let step = (victim_keys.len() / 64).max(1);
    for key in victim_keys.iter().step_by(step) {
        let read_deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let got = client
                .get(key)
                .map_err(|e| format!("{case}: post-recovery read: {e}"))?;
            if got.is_some() {
                break;
            }
            if Instant::now() > read_deadline {
                return Err(format!("{case}: key {key:?} lost across recovery"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let disk = (engine == "file").then(|| {
        (
            disk_registry.sum("disk.", ".write_bytes"),
            disk_registry.sum("disk.", ".fsyncs"),
            disk_registry.sum("disk.", ".crc_mismatch"),
        )
    });

    let report = cluster.shutdown();
    if report.owners.contains(&victim) {
        return Err(format!("{case}: victim still owns buckets after recovery"));
    }
    if engine == "file" {
        let _ = std::fs::remove_dir_all(&base);
    }

    println!(
        "  {case:<24} masters={:<2} victim {:>7} KiB  detect {detection_secs:>6.3}s  recover {recovery_secs:>7.3}s  ({:.1} MB/s)",
        servers - 1,
        victim_bytes >> 10,
        victim_bytes as f64 / recovery_secs / 1e6,
    );
    Ok(Measurement {
        engine,
        case,
        servers,
        records,
        data_bytes,
        victim_bytes,
        detection_secs,
        recovery_secs,
        disk,
    })
}

fn report(measurements: &[Measurement], scale: &Scale, fsync: &str) -> Result<Json, String> {
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("engine", m.engine.into()),
                ("case", m.case.clone().into()),
                ("servers", m.servers.into()),
                ("recovery_masters", (m.servers - 1).into()),
                ("records", m.records.into()),
                ("data_bytes", m.data_bytes.into()),
                ("victim_bytes", m.victim_bytes.into()),
                ("detection_secs", m.detection_secs.into()),
                ("recovery_secs", m.recovery_secs.into()),
                (
                    "recovery_bytes_per_sec",
                    (m.victim_bytes as f64 / m.recovery_secs).into(),
                ),
            ];
            if let Some((write_bytes, fsyncs, crc_mismatch)) = m.disk {
                fields.push((
                    "disk",
                    Json::obj(vec![
                        ("write_bytes", write_bytes.into()),
                        ("fsyncs", fsyncs.into()),
                        ("crc_mismatch", crc_mismatch.into()),
                    ]),
                ));
            }
            Json::obj(fields)
        })
        .collect();

    // Headline comparison: both engines at the largest case.
    let headline = |engine: &str| {
        measurements
            .iter()
            .filter(|m| m.engine == engine)
            .max_by_key(|m| (m.data_bytes, m.servers))
            .map(|m| m.victim_bytes as f64 / m.recovery_secs)
            .ok_or_else(|| format!("missing {engine} runs"))
    };
    let memory = headline("memory")?;
    let file = headline("file")?;
    println!(
        "\ncomparison (largest case): memory {:.1} MB/s vs file {:.1} MB/s = {:.2}x",
        memory / 1e6,
        file / 1e6,
        file / memory
    );

    Ok(Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("benchmark", "recovery_ablation".into()),
        (
            "config",
            Json::obj(vec![
                ("replication", REPLICATION.into()),
                ("value_bytes", scale.value_bytes.into()),
                ("fsync", fsync.into()),
                ("smoke", scale.smoke.into()),
            ]),
        ),
        ("results", Json::Arr(results)),
        (
            "comparison",
            Json::obj(vec![
                ("memory_bytes_per_sec", memory.into()),
                ("file_bytes_per_sec", file.into()),
                ("file_over_memory", (file / memory).into()),
            ]),
        ),
    ]))
}

fn main() -> ExitCode {
    let own = [("--fsync", "POLICY")];
    report::run_bin("recovery_ablation", "BENCH_recovery.json", &own, |cli| {
        let scale = if cli.smoke {
            smoke_scale()
        } else {
            full_scale()
        };
        let fsync = cli.extra[0].as_deref().unwrap_or("batched");
        println!(
            "recovery ablation ({}): sizes {:?} KiB x servers {:?} x engines [memory, file], R{REPLICATION}, fsync={fsync}",
            if scale.smoke { "smoke" } else { "full" },
            scale.data_sizes.iter().map(|d| d >> 10).collect::<Vec<_>>(),
            scale.server_counts,
        );
        let mut measurements = Vec::new();
        for engine in ["memory", "file"] {
            for &servers in &scale.server_counts {
                for &data in &scale.data_sizes {
                    measurements.push(run_case(engine, data, servers, scale.value_bytes, fsync)?);
                }
            }
        }
        report::emit(&report(&measurements, &scale, fsync)?, &cli.out)
    })
}
