//! Wall-clock closed-loop benchmark runner.
//!
//! Everything else in this crate generates workloads for the deterministic
//! simulator; this module drives a *real* key-value backend (the standalone
//! server, or anything implementing [`KvBackend`]) with the same YCSB
//! streams and measures actual throughput and latency percentiles, the way
//! the paper's YCSB clients measure RAMCloud.
//!
//! Clients are closed-loop (one outstanding request each, as in the paper);
//! with `batch_size > 1` a client instead groups consecutive operations
//! into multi-read/multi-write batches, modeling RAMCloud's multi-ops.

use std::sync::Arc;
use std::time::Instant;

use crate::client::RequestGenerator;
use crate::workload::{OpKind, WorkloadSpec};

// Summaries live with the other measurement containers so the sim-time
// client model and this runner report through one code path; re-exported
// here for the runner's historical callers.
pub use crate::stats::{percentile, LatencySummary};

/// A real key-value store the runner can drive.
///
/// Errors are stringly typed so backends with different error enums plug in
/// without a shared error hierarchy; any error aborts the run.
pub trait KvBackend: Send + Sync + 'static {
    /// Reads one key; `true` if it was found.
    fn read(&self, key: &[u8]) -> Result<bool, String>;
    /// Writes one key.
    fn write(&self, key: &[u8], value: &[u8]) -> Result<(), String>;
    /// Reads a batch of keys; returns the number found.
    fn multiread(&self, keys: &[Vec<u8>]) -> Result<usize, String>;
    /// Writes a batch of key/value pairs.
    fn multiwrite(&self, ops: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String>;
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Operations grouped per multi-op batch; `1` issues single ops.
    pub batch_size: usize,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            clients: 1,
            batch_size: 1,
            seed: 42,
        }
    }
}

/// Results of one measured run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Logical operations completed (an RMW counts once).
    pub ops: u64,
    /// Wall-clock duration of the measured phase, seconds.
    pub elapsed_secs: f64,
    /// `ops / elapsed_secs`.
    pub throughput_ops_per_sec: f64,
    /// Read-path latency percentiles.
    pub reads: LatencySummary,
    /// Write-path latency percentiles.
    pub writes: LatencySummary,
}

/// Preloads the workload's records into the backend in multi-write chunks.
///
/// # Errors
///
/// Propagates the first backend error.
pub fn load<B: KvBackend>(backend: &B, spec: &WorkloadSpec, seed: u64) -> Result<(), String> {
    let mut generator = RequestGenerator::new(spec.clone(), seed);
    let mut chunk = Vec::with_capacity(128);
    for index in 0..spec.record_count {
        chunk.push((spec.key_for(index), generator.value_for(index)));
        if chunk.len() == 128 {
            backend.multiwrite(&chunk)?;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        backend.multiwrite(&chunk)?;
    }
    Ok(())
}

/// Runs the workload's measured phase: `config.clients` closed-loop client
/// threads each issuing `spec.ops_per_client` operations.
///
/// # Errors
///
/// Propagates the first backend error from any client.
///
/// # Panics
///
/// Panics if `config.clients` or `config.batch_size` is zero.
pub fn run<B: KvBackend>(
    backend: &Arc<B>,
    spec: &WorkloadSpec,
    config: &RunnerConfig,
) -> Result<RunSummary, String> {
    assert!(config.clients > 0, "need at least one client");
    assert!(config.batch_size > 0, "batch size must be positive");
    let start = Instant::now();
    let clients: Vec<_> = (0..config.clients)
        .map(|i| {
            let backend = Arc::clone(backend);
            let spec = spec.clone();
            let batch = config.batch_size;
            let seed = config.seed + i as u64;
            std::thread::spawn(move || client_loop(&*backend, &spec, batch, seed))
        })
        .collect();

    let mut ops = 0u64;
    let mut read_samples = Vec::new();
    let mut write_samples = Vec::new();
    for handle in clients {
        let outcome = handle.join().expect("client thread panicked")?;
        ops += outcome.ops;
        read_samples.extend(outcome.read_us);
        write_samples.extend(outcome.write_us);
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok(RunSummary {
        ops,
        elapsed_secs: elapsed,
        throughput_ops_per_sec: ops as f64 / elapsed,
        reads: LatencySummary::from_samples(&mut read_samples),
        writes: LatencySummary::from_samples(&mut write_samples),
    })
}

struct ClientOutcome {
    ops: u64,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
}

fn client_loop<B: KvBackend>(
    backend: &B,
    spec: &WorkloadSpec,
    batch_size: usize,
    seed: u64,
) -> Result<ClientOutcome, String> {
    let mut generator = RequestGenerator::new(spec.clone(), seed);
    let mut outcome = ClientOutcome {
        ops: 0,
        read_us: Vec::with_capacity(spec.ops_per_client as usize),
        write_us: Vec::new(),
    };
    let mut read_batch: Vec<Vec<u8>> = Vec::with_capacity(batch_size);
    let mut write_batch: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(batch_size);

    while let Some(request) = generator.next_request() {
        let key = generator.key_for(request.key_index);
        outcome.ops += 1;
        match request.kind {
            OpKind::Read => {
                if batch_size == 1 {
                    let t = Instant::now();
                    backend.read(&key)?;
                    outcome.read_us.push(t.elapsed().as_secs_f64() * 1e6);
                } else {
                    read_batch.push(key);
                    if read_batch.len() == batch_size {
                        flush_reads(backend, &mut read_batch, &mut outcome.read_us)?;
                    }
                }
            }
            OpKind::Update => {
                let value = generator.value_for(request.key_index);
                if batch_size == 1 {
                    let t = Instant::now();
                    backend.write(&key, &value)?;
                    outcome.write_us.push(t.elapsed().as_secs_f64() * 1e6);
                } else {
                    write_batch.push((key, value));
                    if write_batch.len() == batch_size {
                        flush_writes(backend, &mut write_batch, &mut outcome.write_us)?;
                    }
                }
            }
        }
    }
    flush_reads(backend, &mut read_batch, &mut outcome.read_us)?;
    flush_writes(backend, &mut write_batch, &mut outcome.write_us)?;
    Ok(outcome)
}

fn flush_reads<B: KvBackend>(
    backend: &B,
    batch: &mut Vec<Vec<u8>>,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    if batch.is_empty() {
        return Ok(());
    }
    let t = Instant::now();
    backend.multiread(batch)?;
    let per_op = t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
    samples.extend(std::iter::repeat_n(per_op, batch.len()));
    batch.clear();
    Ok(())
}

fn flush_writes<B: KvBackend>(
    backend: &B,
    batch: &mut Vec<(Vec<u8>, Vec<u8>)>,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    if batch.is_empty() {
        return Ok(());
    }
    let t = Instant::now();
    backend.multiwrite(batch)?;
    let per_op = t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
    samples.extend(std::iter::repeat_n(per_op, batch.len()));
    batch.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::StandardWorkload;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[derive(Default)]
    struct MapBackend {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
        single_calls: AtomicU64,
        batch_calls: AtomicU64,
    }

    impl KvBackend for MapBackend {
        fn read(&self, key: &[u8]) -> Result<bool, String> {
            self.single_calls.fetch_add(1, Ordering::Relaxed);
            Ok(self.map.lock().unwrap().contains_key(key))
        }
        fn write(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
            self.single_calls.fetch_add(1, Ordering::Relaxed);
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn multiread(&self, keys: &[Vec<u8>]) -> Result<usize, String> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            let map = self.map.lock().unwrap();
            Ok(keys.iter().filter(|k| map.contains_key(*k)).count())
        }
        fn multiwrite(&self, ops: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            let mut map = self.map.lock().unwrap();
            for (k, v) in ops {
                map.insert(k.clone(), v.clone());
            }
            Ok(())
        }
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::standard(StandardWorkload::A)
            .with_record_count(64)
            .with_ops_per_client(200)
    }

    #[test]
    fn load_preloads_every_record() {
        let backend = MapBackend::default();
        load(&backend, &small_spec(), 1).unwrap();
        assert_eq!(backend.map.lock().unwrap().len(), 64);
    }

    #[test]
    fn run_counts_every_operation() {
        let backend = Arc::new(MapBackend::default());
        load(&*backend, &small_spec(), 1).unwrap();
        let summary = run(
            &backend,
            &small_spec(),
            &RunnerConfig {
                clients: 3,
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.ops, 3 * 200);
        // Workload A is 50/50, so both classes must have samples and the
        // class totals must cover every op.
        assert!(summary.reads.count > 0 && summary.writes.count > 0);
        assert_eq!(summary.reads.count + summary.writes.count, 600);
        assert!(summary.throughput_ops_per_sec > 0.0);
    }

    #[test]
    fn batched_run_uses_multi_ops_and_flushes_remainders() {
        let backend = Arc::new(MapBackend::default());
        load(&*backend, &small_spec(), 1).unwrap();
        let before = backend.batch_calls.load(Ordering::Relaxed);
        let summary = run(
            &backend,
            &small_spec(),
            &RunnerConfig {
                clients: 2,
                batch_size: 7, // does not divide 200: remainders must flush
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.ops, 400);
        assert_eq!(summary.reads.count + summary.writes.count, 400);
        assert!(backend.batch_calls.load(Ordering::Relaxed) > before);
        assert_eq!(backend.single_calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backend_errors_propagate() {
        struct Failing;
        impl KvBackend for Failing {
            fn read(&self, _: &[u8]) -> Result<bool, String> {
                Err("boom".into())
            }
            fn write(&self, _: &[u8], _: &[u8]) -> Result<(), String> {
                Err("boom".into())
            }
            fn multiread(&self, _: &[Vec<u8>]) -> Result<usize, String> {
                Err("boom".into())
            }
            fn multiwrite(&self, _: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
                Err("boom".into())
            }
        }
        let backend = Arc::new(Failing);
        let err = run(&backend, &small_spec(), &RunnerConfig::default()).unwrap_err();
        assert_eq!(err, "boom");
    }
}
