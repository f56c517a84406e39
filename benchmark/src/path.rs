//! `path_a`: YCSB-A through an inline engine — every line of repo-owned
//! code on a replicated op's path, with the kernel and the scheduler
//! removed.
//!
//! The engine is a single-threaded [`Runtime`]: one [`CoordinatorNode`] and
//! three [`Server`]s with file-backed backups (fsync off), and for every
//! message `encode_msg → encode_frame → FrameReader → decode_msg →
//! on_message`. No sockets, no threads; timers never fire. Codec,
//! protocol, logstore and diskstore work shows here at full size, while a
//! thread-hop or syscall change cannot move it.
//!
//! State grows with every update (replica files, their memory mirror, the
//! masters' re-seed log), so the run is cut into **rounds**: a fresh engine,
//! a load, a fixed number of ops, an audit. Rounds repeat until the
//! measured time is used up; each round is cut into windows of a fixed
//! number of ops for the estimator, and gives one sample of `setup_s`.
//!
//! The traced run wraps every call into a layer's public function in a
//! span. Layer times must add up to the untraced per-op time: the budget
//! closes, or the gap is reported.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rmc_core::coordinator::bucket_for;
use rmc_core::protocol::{
    client_id, coordinator_id, server_id, ClientOp, CoordinatorNode, Msg, Reply, Server,
    PROTO_TABLE,
};
use rmc_diskstore::{DiskMetrics, FileStorage, FsyncPolicy};
use rmc_runtime::{NodeId, Runtime, SimDuration, SimTime};
use rmc_wire::{decode_msg, encode_frame, encode_msg, FrameKind, FrameReader};
use rmc_ycsb::{OpKind, StandardWorkload};

use crate::driver::Sample;
use crate::metrics::{Outcome, Report};
use crate::probes;
use crate::procfs;
use crate::stats::{mean_rate, median, QuietSet, Window};
use crate::summary;
use crate::values::{check_value, fill_value, Tag};
use crate::wire::{protocol_config, stream, SERVERS, VALUE_BYTES};
use crate::Scale;

/// A layer boundary the traced run stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole client op (the parent span).
    Op,
    /// `RequestGenerator::next_request` + key formatting.
    Generator,
    /// Building the tagged value.
    Value,
    /// The harness's own output check (model update, value self-check).
    Audit,
    /// `rmc_wire::encode_msg`.
    Encode,
    /// `rmc_wire::encode_frame`.
    FrameWrite,
    /// `FrameReader::feed` + `next_frame`.
    FrameRead,
    /// `rmc_wire::decode_msg`.
    Decode,
    /// `Server::on_message(Request{Get})`.
    MasterRead,
    /// `Server::on_message(Request{Put})`.
    MasterUpdate,
    /// `Server::on_message(Replicate)`.
    BackupReplicate,
    /// `Server::on_message(ReplicateAck)`.
    MasterAck,
    /// Any other `on_message` (start-up heartbeats).
    Other,
}

const LAYERS: usize = Layer::Other as usize + 1;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Generator => "ycsb.next_request",
            Layer::Value => "harness.fill_value",
            Layer::Audit => "harness.audit",
            Layer::Encode => "wire.encode_msg",
            Layer::FrameWrite => "wire.encode_frame",
            Layer::FrameRead => "wire.frame_reader",
            Layer::Decode => "wire.decode_msg",
            Layer::MasterRead => "core.on_message.request_get",
            Layer::MasterUpdate => "core.on_message.request_put",
            Layer::BackupReplicate => "core.on_message.replicate",
            Layer::MasterAck => "core.on_message.replicate_ack",
            Layer::Other => "core.on_message.other",
        }
    }
}

/// One recorded span. `parent` indexes the op span that caused it
/// (`u32::MAX` for an op span itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Start, ns since the probe's origin.
    pub start_ns: u64,
    /// End, ns since the probe's origin.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: u32,
    /// Client op number within the round.
    pub op: u32,
}

/// Stamps layer boundaries, or does not: the engine is generic over this,
/// so the untraced build of the op path has no trace of tracing in it.
pub trait Probe {
    /// Runs `f` as one span of `layer`.
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T;
    /// Opens the parent span of client op `op`.
    fn begin_op(&mut self, op: u32);
    /// Closes the current op's parent span.
    fn end_op(&mut self);
}

/// The untraced probe.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn span<T>(&mut self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
    fn begin_op(&mut self, _op: u32) {}
    fn end_op(&mut self) {}
}

/// The tracing probe: an `Instant` pair around every layer call, spans
/// kept in memory.
pub struct SpanProbe {
    origin: Instant,
    /// The spans, in start order.
    pub spans: Vec<Span>,
    parent: u32,
    op: u32,
}

impl SpanProbe {
    fn new(capacity: usize) -> SpanProbe {
        SpanProbe {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            parent: u32::MAX,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Probe for SpanProbe {
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.parent,
            op: self.op,
        });
        out
    }

    fn begin_op(&mut self, op: u32) {
        self.op = op;
        self.parent = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer: Layer::Op,
            start_ns,
            end_ns: start_ns,
            parent: u32::MAX,
            op,
        });
    }

    fn end_op(&mut self) {
        let end_ns = self.now();
        self.spans[self.parent as usize].end_ns = end_ns;
        self.parent = u32::MAX;
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children never overlap here (the engine is single-threaded), so
/// that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(s.parent as usize) {
            *parent = parent.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// What a span costs when it wraps nothing: the part of two clock reads
/// that falls inside every span. Subtracted once per span from the layer
/// sums; reported as `obs.span_bias_ns`.
pub fn span_bias_ns() -> f64 {
    let mut probe = SpanProbe::new(4096);
    for _ in 0..4096 {
        probe.span(Layer::Other, || std::hint::black_box(()));
    }
    let mut empty: Vec<f64> = probe
        .spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    median(&mut empty)
}

/// Per-layer totals of some traced ops.
#[derive(Debug, Clone, Default)]
struct LayerSums {
    ns: [f64; LAYERS],
    calls: [u64; LAYERS],
    ops: u64,
}

impl LayerSums {
    /// Per-layer totals of `spans`, one entry per window of `window_ops`
    /// client ops (the spans of one traced round, in op order).
    fn by_window(spans: &[Span], window_ops: u64, bias_ns: f64) -> Vec<LayerSums> {
        let mut windows: Vec<LayerSums> = Vec::new();
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let w = (u64::from(span.op) / window_ops) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, LayerSums::default);
            }
            let (sums, i) = (&mut windows[w], span.layer as usize);
            sums.calls[i] += 1;
            if span.layer == Layer::Op {
                // What is left of an op once its children are taken out:
                // the engine loop itself, plus the clock reads *between*
                // the child spans.
                sums.ops += 1;
                sums.ns[i] += own as f64;
            } else {
                sums.ns[i] += (own as f64 - bias_ns).max(0.0);
            }
        }
        windows
    }

    fn merge(&mut self, other: &LayerSums) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        self.ops += other.ops;
    }

    fn per_op(&self, layers: &[Layer]) -> f64 {
        layers.iter().map(|&l| self.ns[l as usize]).sum::<f64>() / self.ops.max(1) as f64
    }

    /// Every layer span together, per op: all but the op spans' own time.
    fn layers_per_op(&self) -> f64 {
        self.ns[Layer::Op as usize + 1..].iter().sum::<f64>() / self.ops.max(1) as f64
    }

    fn per_call(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] / self.calls[layer as usize].max(1) as f64
    }
}

/// The handler-side runtime: buffers sends, ignores timers.
struct Outbox {
    me: NodeId,
    now: SimTime,
    out: RefCell<Vec<(NodeId, Msg)>>,
}

impl Runtime for Outbox {
    type Msg = Msg;
    fn node(&self) -> NodeId {
        self.me
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&self, to: NodeId, msg: Msg) {
        self.out.borrow_mut().push((to, msg));
    }
    // Timers never fire: no heartbeat ticks, no failure detection.
    fn set_timer(&mut self, _after: SimDuration) {}
}

/// Frames and bytes that crossed the engine's "wire".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Traffic {
    frames: u64,
    bytes: u64,
}

/// The inline engine.
pub struct Engine {
    coordinator: CoordinatorNode,
    servers: Vec<Server>,
    readers: Vec<FrameReader>,
    queue: VecDeque<(NodeId, Vec<u8>)>,
    client: NodeId,
    seq: u64,
    ticks: u64,
    buckets: usize,
    traffic: Traffic,
    root: PathBuf,
}

impl Engine {
    /// Builds the cluster with its data dirs under `root` (removed on
    /// drop) and delivers the start-up traffic.
    pub fn start(root: &Path) -> Result<Engine, String> {
        let cfg = protocol_config(1);
        let mut servers = Vec::with_capacity(SERVERS);
        for i in 0..SERVERS {
            let storage = FileStorage::open(
                root.join(format!("s{i}")),
                FsyncPolicy::Off,
                0,
                DiskMetrics::detached(),
            )
            .map_err(|e| format!("opening {root:?}: {e}"))?;
            servers.push(Server::with_storage(i, cfg.clone(), Box::new(storage)));
        }
        let nodes = 1 + SERVERS + 1;
        let mut engine = Engine {
            coordinator: CoordinatorNode::new(cfg.clone()),
            servers,
            readers: (0..nodes).map(|_| FrameReader::new()).collect(),
            queue: VecDeque::new(),
            client: client_id(SERVERS, 0),
            seq: 0,
            ticks: 0,
            buckets: cfg.buckets,
            traffic: Traffic::default(),
            root: root.to_owned(),
        };
        let probe = &mut NoProbe;
        let mut rt = engine.outbox(coordinator_id());
        engine.coordinator.on_start(&mut rt);
        engine.flush(rt, probe);
        for i in 0..SERVERS {
            let mut rt = engine.outbox(server_id(i));
            engine.servers[i].on_start(&mut rt);
            engine.flush(rt, probe);
        }
        while engine.deliver_next(probe)?.is_some() {}
        Ok(engine)
    }

    fn outbox(&mut self, me: NodeId) -> Outbox {
        // A logical clock: handlers only subtract instants from it.
        self.ticks += 1;
        Outbox {
            me,
            now: SimTime::from_nanos(self.ticks),
            out: RefCell::new(Vec::new()),
        }
    }

    /// Encodes, frames and queues everything a handler sent.
    fn flush<P: Probe>(&mut self, rt: Outbox, probe: &mut P) {
        let from = rt.me;
        for (to, msg) in rt.out.into_inner() {
            self.post(from, to, &msg, probe);
        }
    }

    fn post<P: Probe>(&mut self, from: NodeId, to: NodeId, msg: &Msg, probe: &mut P) {
        let payload = probe.span(Layer::Encode, || encode_msg(from, msg));
        let frame = probe
            .span(Layer::FrameWrite, || encode_frame(FrameKind::Msg, &payload))
            .expect("benchmark messages are far below the frame cap");
        self.traffic.frames += 1;
        self.traffic.bytes += frame.len() as u64;
        self.queue.push_back((to, frame));
    }

    /// Delivers the oldest queued frame. Returns the message if it was
    /// addressed to the client, `None` when the queue is empty.
    fn deliver_next<P: Probe>(&mut self, probe: &mut P) -> Result<Option<Option<Msg>>, String> {
        let Some((to, bytes)) = self.queue.pop_front() else {
            return Ok(None);
        };
        let reader = &mut self.readers[to.0];
        let frame = probe
            .span(Layer::FrameRead, || {
                reader.feed(&bytes);
                reader.next_frame()
            })
            .map_err(|e| format!("frame: {e}"))?
            .ok_or("a whole frame was fed but none came out")?;
        let (from, msg) = probe
            .span(Layer::Decode, || decode_msg(&frame.payload))
            .map_err(|e| format!("decode: {e:?}"))?;
        if to == self.client {
            return Ok(Some(Some(msg)));
        }
        let layer = match &msg {
            Msg::Request {
                op: ClientOp::Get { .. },
                ..
            } => Layer::MasterRead,
            Msg::Request { .. } => Layer::MasterUpdate,
            Msg::Replicate { .. } => Layer::BackupReplicate,
            Msg::ReplicateAck { .. } => Layer::MasterAck,
            _ => Layer::Other,
        };
        let mut rt = self.outbox(to);
        if to == coordinator_id() {
            let node = &mut self.coordinator;
            probe.span(layer, || node.on_message(from, msg, &mut rt));
        } else {
            let node = &mut self.servers[to.0 - 1];
            probe.span(layer, || node.on_message(from, msg, &mut rt));
        }
        self.flush(rt, probe);
        Ok(Some(None))
    }

    /// One client op, start to reply.
    pub fn request<P: Probe>(&mut self, op: ClientOp, probe: &mut P) -> Result<Reply, String> {
        self.seq += 1;
        let seq = self.seq;
        let owner = bucket_for(PROTO_TABLE, op.key(), self.buckets) % SERVERS;
        self.post(
            self.client,
            server_id(owner),
            &Msg::Request { seq, op },
            probe,
        );
        loop {
            match self.deliver_next(probe)? {
                None => return Err(format!("request {seq} drained the engine unanswered")),
                Some(Some(Msg::Response { seq: s, reply })) if s == seq => return Ok(reply),
                Some(_) => {}
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // The file stores fsync every open file when they drop (after this
        // body). Nothing here is worth writing back: cut the files to zero
        // first so those fsyncs find no dirty data.
        for i in 0..SERVERS {
            let dir = std::fs::read_dir(self.root.join(format!("s{i}")));
            for entry in dir.into_iter().flatten().flatten() {
                if let Ok(f) = File::options().write(true).open(entry.path()) {
                    let _ = f.set_len(0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Per-kind traffic of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    reads: u64,
    read: Traffic,
    updates: u64,
    update: Traffic,
}

/// What one round measured.
struct Round {
    setup_s: f64,
    windows: Vec<Window>,
    /// On-CPU ns of the harness process in each window.
    window_cpu_ns: Vec<Vec<u64>>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    counts: Counts,
}

impl Round {
    fn measured(&self) -> Duration {
        Duration::from_nanos(self.windows.iter().map(|w| w.end_ns - w.start_ns).sum())
    }
}

/// The client of one round: generator, exact model, counters.
struct RoundClient {
    engine: Engine,
    model: HashMap<u64, Tag>,
    value: Vec<u8>,
    writes: u64,
    attempted: u64,
    failed: u64,
}

impl RoundClient {
    fn put<P: Probe>(&mut self, key_index: u64, key: Vec<u8>, probe: &mut P) {
        let tag = Tag {
            writer: 0,
            counter: self.writes,
        };
        self.writes += 1;
        let value = &mut self.value;
        probe.span(Layer::Value, || fill_value(value, tag, key_index));
        self.attempted += 1;
        let op = ClientOp::Put {
            key,
            value: self.value.clone(),
        };
        match self.engine.request(op, probe) {
            Ok(Reply::Done { .. }) => {
                // One client, one op at a time: the model is exact.
                let model = &mut self.model;
                probe.span(Layer::Audit, || model.insert(key_index, tag));
            }
            _ => self.failed += 1,
        }
    }

    fn get<P: Probe>(&mut self, key_index: u64, key: Vec<u8>, probe: &mut P) {
        self.attempted += 1;
        let reply = self.engine.request(ClientOp::Get { key }, probe);
        let want = self.model.get(&key_index).copied();
        let ok = probe.span(Layer::Audit, || match &reply {
            Ok(Reply::Value(Some(v))) => {
                want.is_some() && check_value(v, key_index, VALUE_BYTES) == want
            }
            _ => false,
        });
        if !ok {
            self.failed += 1;
        }
    }
}

/// One round: fresh engine, load, `scale.path_round_ops` ops, audit.
/// `origin` is the run's time origin (windows and samples are relative to
/// it).
fn round<P: Probe>(
    seed: u64,
    index: usize,
    origin: Instant,
    scale: &Scale,
    out_dir: &Path,
    probe: &mut P,
) -> Result<Round, String> {
    let records = scale.path_records;
    let root = out_dir.join(format!("path_a-{}-{index}", std::process::id()));
    let t0 = Instant::now();
    let mut client = RoundClient {
        engine: Engine::start(&root)?,
        model: HashMap::with_capacity(records as usize),
        value: vec![0u8; VALUE_BYTES],
        writes: 0,
        attempted: 0,
        failed: 0,
    };
    let mut gen = stream(StandardWorkload::A, records, seed ^ ((index as u64) << 32));
    for key_index in 0..records {
        client.put(key_index, gen.key_for(key_index), &mut NoProbe);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let me = std::process::id();
    let mut counts = Counts::default();
    let mut samples = Vec::with_capacity(scale.path_round_ops as usize);
    let per_round = (scale.path_round_ops / scale.path_window_ops) as usize;
    let mut windows = Vec::with_capacity(per_round);
    let mut window_cpu_ns = Vec::with_capacity(per_round);
    let read_mark = || {
        (
            origin.elapsed().as_nanos() as u64,
            procfs::host_cpu(),
            procfs::run_ns_total(me),
        )
    };
    let mut mark = read_mark();
    for op in 0..scale.path_round_ops {
        probe.begin_op(op as u32);
        let (update, key_index, key) = probe.span(Layer::Generator, || {
            let req = gen.next_request().expect("unbounded stream");
            (
                req.kind != OpKind::Read,
                req.key_index,
                gen.key_for(req.key_index),
            )
        });
        // Every op is timed: two clock reads are 0.1 % of a 40 µs op.
        let timed = Instant::now();
        let before = client.engine.traffic;
        let failed_before = client.failed;
        if update {
            client.put(key_index, key, probe);
        } else {
            client.get(key_index, key, probe);
        }
        let done = Instant::now();
        if client.failed == failed_before {
            samples.push(Sample {
                at_ns: (done - origin).as_nanos() as u64,
                latency_ns: (done - timed).as_nanos() as u64,
                update,
            });
        }
        let after = client.engine.traffic;
        let (n, traffic) = if update {
            (&mut counts.updates, &mut counts.update)
        } else {
            (&mut counts.reads, &mut counts.read)
        };
        *n += 1;
        traffic.frames += after.frames - before.frames;
        traffic.bytes += after.bytes - before.bytes;
        probe.end_op();
        if (op + 1) % scale.path_window_ops == 0 {
            let next = read_mark();
            windows.push(Window {
                start_ns: mark.0,
                end_ns: next.0,
                ops: scale.path_window_ops,
                steal: procfs::steal_share(mark.1, next.1),
            });
            window_cpu_ns.push(vec![next.2.saturating_sub(mark.2)]);
            mark = next;
        }
    }

    // Audit: every key, read back through the whole path.
    for key_index in 0..records {
        client.get(key_index, gen.key_for(key_index), &mut NoProbe);
    }
    Ok(Round {
        setup_s,
        windows,
        window_cpu_ns,
        samples,
        attempted: client.attempted,
        failed: client.failed,
        counts,
    })
}

fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    out.flush()
}

/// Runs `path_a`. Untraced, every round is measured the same way; traced,
/// rounds alternate untraced and traced so the two are compared under the
/// same host conditions.
pub fn run(
    seed: u64,
    measure: Duration,
    trace: bool,
    scale: &Scale,
    out_dir: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    let origin = Instant::now();
    let bias_ns = if trace { span_bias_ns() } else { 0.0 };
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    // One entry per window of the traced rounds, in the rounds' order.
    let mut traced_sums: Vec<LayerSums> = Vec::new();
    let mut kept_spans: Vec<Span> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut index = 0;
    while measured < measure || rounds.len() < scale.setups {
        let r = round(seed, index, origin, scale, out_dir, &mut NoProbe)?;
        measured += r.measured();
        rounds.push(r);
        index += 1;
        if trace {
            // ~14 spans a read, ~34 an update.
            let mut probe = SpanProbe::new(scale.path_round_ops as usize * 26);
            let r = round(seed, index, origin, scale, out_dir, &mut probe)?;
            measured += r.measured();
            traced_sums.extend(LayerSums::by_window(
                &probe.spans,
                scale.path_window_ops,
                bias_ns,
            ));
            if kept_spans.is_empty() {
                // The trace file holds the first traced round's first ops.
                let keep = probe
                    .spans
                    .iter()
                    .position(|s| s.op >= scale.path_trace_ops)
                    .unwrap_or(probe.spans.len());
                kept_spans = probe.spans[..keep].to_vec();
            }
            traced_rounds.push(r);
            index += 1;
        }
    }

    let mut report = Report::default();
    let mut setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    report.set("setup_s", median(&mut setup_s));
    let windows: Vec<Window> = rounds
        .iter()
        .flat_map(|r| r.windows.iter().copied())
        .collect();
    let samples: Vec<Sample> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let (quiet, latency) = summary::rate_and_latency(&windows, &samples, &mut report);
    // One node: the harness process hosts the whole engine.
    let window_cpu_ns: Vec<Vec<u64>> = rounds
        .iter()
        .flat_map(|r| r.window_cpu_ns.iter().cloned())
        .collect();
    summary::cpu_and_energy(&windows, &quiet, &window_cpu_ns, &[0], &mut report);

    let every = || rounds.iter().chain(&traced_rounds);
    let attempted: u64 = every().map(|r| r.attempted).sum();
    let failed: u64 = every().map(|r| r.failed).sum();
    let mut complaints = Vec::new();
    if failed > 0 {
        complaints.push(format!(
            "{failed} of {attempted} operations failed or read a wrong value"
        ));
    }

    // Exact counts: the same for every round of every run.
    let c = rounds[0].counts;
    if every().any(|r| {
        let d = r.counts;
        d.read.frames * c.reads != c.read.frames * d.reads
            || d.update.frames * c.updates != c.update.frames * d.updates
    }) {
        complaints.push("frames per op differ between rounds".into());
    }
    let per = |t: u64, n: u64| t as f64 / n.max(1) as f64;
    report.set("wire.frames_per_read", per(c.read.frames, c.reads));
    report.set("wire.frames_per_update", per(c.update.frames, c.updates));
    report.set("wire.bytes_per_read", per(c.read.bytes, c.reads));
    report.set("wire.bytes_per_update", per(c.update.bytes, c.updates));

    if trace {
        // Per-op time the way throughput is taken — over quiet windows —
        // and the layer sums over the same windows of the traced rounds.
        let untraced = 1e9 / report.get("throughput_ops_s");
        let traced_windows: Vec<Window> = traced_rounds
            .iter()
            .flat_map(|r| r.windows.iter().copied())
            .collect();
        let traced_quiet = QuietSet::select(&traced_windows);
        let traced = 1e9 / mean_rate(&traced_windows, &traced_quiet);
        let mut sums = LayerSums::default();
        for (window, _) in traced_sums
            .iter()
            .zip(&traced_quiet.used)
            .filter(|(_, &used)| used)
        {
            sums.merge(window);
        }
        let layer_sum = sums.layers_per_op();
        report.set("path.untraced_op_ns", untraced);
        report.set("path.layer_sum_ns", layer_sum);
        report.set("path.unattributed_ns", untraced - layer_sum);
        let gap_pct = (untraced - layer_sum).abs() / untraced * 100.0;
        report.set("path.budget_gap_pct", gap_pct);
        if gap_pct > 10.0 {
            // Reported, not failed: on a disturbed host the traced and
            // untraced rounds can differ by more than the layers do.
            eprintln!("rmc-benchmark: path_a: the layer budget is {gap_pct:.1} % off the untraced op time");
        }
        report.set("obs.trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
        report.set("obs.span_bias_ns", bias_ns);
        report.set("wire.encode_ns_per_op", sums.per_op(&[Layer::Encode]));
        report.set("wire.decode_ns_per_op", sums.per_op(&[Layer::Decode]));
        report.set(
            "wire.frame_ns_per_op",
            sums.per_op(&[Layer::FrameWrite, Layer::FrameRead]),
        );
        report.set("core.master_read_ns", sums.per_call(Layer::MasterRead));
        report.set("core.master_update_ns", sums.per_call(Layer::MasterUpdate));
        report.set(
            "core.backup_replicate_ns",
            sums.per_call(Layer::BackupReplicate),
        );
        report.set("core.master_ack_ns", sums.per_call(Layer::MasterAck));
        let trace_path = out_dir.join("trace_path_a.jsonl");
        write_trace(&trace_path, &kept_spans)
            .map_err(|e| format!("writing {trace_path:?}: {e}"))?;
        report.absorb(probes::run(seed, scale, bias_ns, out_dir)?);
    }

    Ok(Outcome {
        correct: complaints.is_empty(),
        attempted,
        failed,
        report,
        complaints,
        windows: summary::window_records(&windows, &quiet, latency),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(Layer::Op, 0, 1_000, u32::MAX),
            span(Layer::Encode, 100, 300, 0),
            span(Layer::MasterRead, 400, 900, 0),
            Span {
                op: 1,
                ..span(Layer::Op, 1_000, 1_500, u32::MAX)
            },
            Span {
                op: 1,
                ..span(Layer::Decode, 1_100, 1_150, 3)
            },
        ];
        assert_eq!(self_times(&spans), [300, 200, 500, 450, 50]);

        // One window per op here; merged, they are the whole trace.
        let mut by_window = LayerSums::by_window(&spans, 1, 10.0);
        assert_eq!(by_window.len(), 2);
        assert_eq!((by_window[0].ops, by_window[1].ops), (1, 1));
        let mut sums = by_window.remove(0);
        sums.merge(&by_window[0]);
        assert_eq!(sums.ops, 2);
        // Children lose the bias once each; op self time does not.
        assert_eq!(sums.ns[Layer::Encode as usize], 190.0);
        assert_eq!(sums.ns[Layer::Op as usize], 750.0);
        assert_eq!(
            sums.per_op(&[Layer::Encode, Layer::Decode]),
            (190.0 + 40.0) / 2.0
        );
        assert_eq!(sums.per_call(Layer::MasterRead), 490.0);
    }

    #[test]
    fn probe_nests_layer_spans_under_their_op() {
        let mut probe = SpanProbe::new(8);
        probe.begin_op(7);
        let x = probe.span(Layer::Encode, || 41 + 1);
        probe.span(Layer::Decode, || ());
        probe.end_op();
        assert_eq!(x, 42);
        assert_eq!(probe.spans.len(), 3);
        let [op, a, b] = probe.spans[..] else {
            panic!()
        };
        assert_eq!((op.layer, op.parent, op.op), (Layer::Op, u32::MAX, 7));
        assert_eq!((a.parent, b.parent, b.op), (0, 0, 7));
        assert!(op.start_ns <= a.start_ns && a.end_ns <= b.start_ns && b.end_ns <= op.end_ns);
    }

    #[test]
    fn engine_counts_two_frames_a_read_and_six_an_update() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-engine-{}", std::process::id()));
        let mut engine = Engine::start(&root).unwrap();
        let key = b"user0000000000000001".to_vec();
        let mut value = vec![0u8; VALUE_BYTES];
        let tag = Tag {
            writer: 0,
            counter: 0,
        };
        fill_value(&mut value, tag, 1);
        let before = engine.traffic;
        let put = ClientOp::Put {
            key: key.clone(),
            value,
        };
        assert!(matches!(
            engine.request(put, &mut NoProbe),
            Ok(Reply::Done { .. })
        ));
        let mid = engine.traffic;
        assert_eq!(
            mid.frames - before.frames,
            6,
            "request, 2 x (replicate, ack), response"
        );
        let got = engine.request(ClientOp::Get { key }, &mut NoProbe).unwrap();
        assert_eq!(engine.traffic.frames - mid.frames, 2);
        let Reply::Value(Some(v)) = got else {
            panic!("{got:?}")
        };
        assert_eq!(check_value(&v, 1, VALUE_BYTES), Some(tag));
        assert!(root.join("s0").is_dir());
        drop(engine);
        assert!(!root.exists(), "data dirs are removed with the engine");
    }
}
