//! Direct probes of single layers, replaying `path_a`'s stream with
//! everything else taken away: a bare `Store`, a bare `FileStorage`, the
//! bare generator. They give the per-call cost of the layers `path_a`
//! composes, and the exact storage counts (framing overhead, fsyncs per
//! append) that no timing noise touches.

use std::path::Path;
use std::time::{Duration, Instant};

use rmc_core::protocol::PROTO_TABLE;
use rmc_diskstore::{BackupStorage, DiskMetrics, FileStorage, FsyncPolicy};
use rmc_logstore::{CompletionId, LogEntry, ObjectRecord, Store, Version};
use rmc_runtime::MetricsRegistry;
use rmc_ycsb::{OpKind, StandardWorkload};

use crate::metrics::Report;
use crate::stats::{median, quantile};
use crate::values::{fill_value, Tag};
use crate::wire::{protocol_config, stream, VALUE_BYTES};
use crate::Scale;

/// Removes a probe's directory when the probe ends, however it ends.
struct TempDir<'a>(&'a Path);

impl Drop for TempDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

/// Median of per-call timings, less what an empty timing costs.
fn typical_ns(samples: &mut [f64], bias_ns: f64) -> f64 {
    (median(samples) - bias_ns).max(0.0)
}

/// `logstore.read_ns` / `logstore.write_ns`: the stream on a bare `Store`
/// configured like a master's.
fn logstore(seed: u64, scale: &Scale, bias_ns: f64, report: &mut Report) -> Result<(), String> {
    let mut store = Store::new(protocol_config(1).log);
    let mut gen = stream(StandardWorkload::A, scale.path_records, seed);
    let mut value = vec![0u8; VALUE_BYTES];
    let mut writes = 0u64;
    let mut write = |store: &mut Store, key_index: u64, key: &[u8]| {
        let tag = Tag {
            writer: 0,
            counter: writes,
        };
        writes += 1;
        fill_value(&mut value, tag, key_index);
        let completion = CompletionId {
            client: 4,
            seq: writes,
        };
        let t0 = Instant::now();
        let done = store.write_with(PROTO_TABLE, key, &value, Some(completion));
        let took = t0.elapsed();
        done.map(|_| took)
            .map_err(|e| format!("logstore probe write: {e}"))
    };
    for key_index in 0..scale.path_records {
        write(&mut store, key_index, &gen.key_for(key_index))?;
    }
    let (mut reads, mut updates) = (Vec::new(), Vec::new());
    for _ in 0..scale.probe_ops {
        let req = gen.next_request().expect("unbounded stream");
        let key = gen.key_for(req.key_index);
        if req.kind == OpKind::Read {
            let t0 = Instant::now();
            let view = store.read_view(PROTO_TABLE, &key);
            reads.push(t0.elapsed().as_nanos() as f64);
            if view.is_none() {
                return Err("logstore probe: a loaded key is missing".into());
            }
        } else {
            updates.push(write(&mut store, req.key_index, &key)?.as_nanos() as f64);
        }
    }
    report.set("logstore.read_ns", typical_ns(&mut reads, bias_ns));
    report.set("logstore.write_ns", typical_ns(&mut updates, bias_ns));
    Ok(())
}

/// The replica bytes a master sends for one update of the stream, and the
/// segment they belong to (segments roll like a master's).
struct ReplicaStream {
    gen: rmc_ycsb::RequestGenerator,
    value: Vec<u8>,
    version: u64,
    segment: u64,
    segment_bytes: usize,
    segment_cap: usize,
}

impl ReplicaStream {
    fn new(seed: u64, scale: &Scale) -> ReplicaStream {
        ReplicaStream {
            gen: stream(StandardWorkload::A, scale.path_records, seed),
            value: vec![0u8; VALUE_BYTES],
            version: 0,
            segment: 0,
            segment_bytes: 0,
            segment_cap: protocol_config(1).log.segment_bytes,
        }
    }

    fn next(&mut self) -> (u64, Vec<u8>) {
        let req = self.gen.next_request().expect("unbounded stream");
        self.version += 1;
        let tag = Tag {
            writer: 0,
            counter: self.version,
        };
        fill_value(&mut self.value, tag, req.key_index);
        let entry = LogEntry::Object(ObjectRecord {
            table: PROTO_TABLE,
            key: self.gen.key_for(req.key_index).into(),
            value: self.value.clone().into(),
            version: Version(self.version),
            completion: Some(CompletionId {
                client: 4,
                seq: self.version,
            }),
        });
        let mut bytes = Vec::with_capacity(VALUE_BYTES + 64);
        entry.serialize_into(&mut bytes);
        if self.segment_bytes + bytes.len() > self.segment_cap {
            self.segment += 1;
            self.segment_bytes = 0;
        }
        self.segment_bytes += bytes.len();
        (self.segment, bytes)
    }
}

/// `diskstore.*`: replica appends on a bare `FileStorage` under each fsync
/// policy, then recovery of what was written.
fn diskstore(
    seed: u64,
    scale: &Scale,
    bias_ns: f64,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let dir = out_dir.join(format!("diskstore-{}", std::process::id()));
    let _cleanup = TempDir(&dir);
    let open = |sub: &str, policy: FsyncPolicy, registry: &MetricsRegistry| {
        FileStorage::open(
            dir.join(sub),
            policy,
            0,
            DiskMetrics::new(&registry.family_at("disk.")),
        )
        .map_err(|e| format!("diskstore probe: {e}"))
    };
    let err = |e| format!("diskstore probe append: {e}");

    // fsync off: the policy path_a runs, so append cost and framing
    // overhead are path_a's.
    let registry = MetricsRegistry::new();
    let mut store = open("off", FsyncPolicy::Off, &registry)?;
    let mut replicas = ReplicaStream::new(seed, scale);
    let mut appends = Vec::with_capacity(scale.probe_appends);
    let mut payload = 0u64;
    for _ in 0..scale.probe_appends {
        let (segment, bytes) = replicas.next();
        let t0 = Instant::now();
        store.append(0, segment, &bytes).map_err(err)?;
        appends.push(t0.elapsed().as_nanos() as f64);
        payload += bytes.len() as u64;
    }
    store.flush().map_err(err)?;
    drop(store);
    report.set("diskstore.append_ns", typical_ns(&mut appends, bias_ns));
    report.set(
        "diskstore.write_bytes_per_user_byte",
        registry.get("disk.write_bytes") as f64 / payload as f64,
    );

    // Recovery of exactly those bytes.
    let registry = MetricsRegistry::new();
    let t0 = Instant::now();
    let recovered = open("off", FsyncPolicy::Off, &registry)?;
    report.set(
        "diskstore.open_recover_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    if recovered.recovery.bytes != payload {
        return Err(format!(
            "diskstore probe: recovered {} of {payload} bytes",
            recovered.recovery.bytes
        ));
    }
    report.set(
        "diskstore.crc_mismatch",
        registry.get("disk.crc_mismatch") as f64,
    );
    drop(recovered);

    // Batched: a byte threshold only (the interval never elapses), so the
    // number of fsyncs is a function of the stream alone.
    let registry = MetricsRegistry::new();
    let batched = FsyncPolicy::Batched {
        bytes: 1 << 20,
        interval: Duration::from_secs(3600),
    };
    let mut store = open("batched", batched, &registry)?;
    let mut replicas = ReplicaStream::new(seed, scale);
    let batched_appends = scale.probe_appends / 4;
    for _ in 0..batched_appends {
        let (segment, bytes) = replicas.next();
        store.append(0, segment, &bytes).map_err(err)?;
    }
    report.set(
        "diskstore.fsyncs_per_append_batched",
        registry.get("disk.fsyncs") as f64 / batched_appends.max(1) as f64,
    );
    drop(store);

    // Per write: the sandbox's disk, not a device's — reported, not gated.
    let registry = MetricsRegistry::new();
    let mut store = open("per_write", FsyncPolicy::PerWrite, &registry)?;
    let mut replicas = ReplicaStream::new(seed, scale);
    let mut synced = Vec::with_capacity(scale.probe_fsync_appends);
    for _ in 0..scale.probe_fsync_appends {
        let (segment, bytes) = replicas.next();
        let t0 = Instant::now();
        store.append(0, segment, &bytes).map_err(err)?;
        synced.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    report.set("diskstore.append_fsync_us_p50", quantile(&mut synced, 50.0));
    Ok(())
}

/// `ycsb.*`: what the generator and the value builder cost per call —
/// the share of a `path_a` op that is the harness, not the program.
fn ycsb(seed: u64, scale: &Scale, report: &mut Report) {
    let mut gen = stream(StandardWorkload::A, scale.path_records, seed);
    let n = scale.probe_ops * 4;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(gen.next_request());
    }
    report.set(
        "ycsb.next_request_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );
    let mut value = vec![0u8; VALUE_BYTES];
    let t0 = Instant::now();
    for i in 0..n {
        let tag = Tag {
            writer: 0,
            counter: i,
        };
        fill_value(std::hint::black_box(&mut value), tag, i);
    }
    report.set(
        "ycsb.value_for_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// Runs every probe. `bias_ns` is what an empty timing costs
/// (`path::span_bias_ns`).
pub fn run(seed: u64, scale: &Scale, bias_ns: f64, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    logstore(seed, scale, bias_ns, &mut report)?;
    diskstore(seed, scale, bias_ns, out_dir, &mut report)?;
    ycsb(seed, scale, &mut report);
    Ok(report)
}
