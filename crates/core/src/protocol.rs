//! One replication/recovery protocol, three engines.
//!
//! The node state machines in this module — [`CoordinatorNode`],
//! [`Server`], [`ClientCore`] (under a [`ScriptClient`] or the wall-clock
//! engines' synchronous handle) — implement RAMCloud's client/master/backup
//! protocol (bucket routing, primary-backup replication with ack-gated
//! responses, RIFL exactly-once retries, heartbeat failure detection, and
//! will-based crash recovery) as message handlers that are generic over
//! [`rmc_runtime::Runtime`]. They never see a scheduler, a channel, or a
//! thread; everything they may do to the outside world is `rt.now()`,
//! `rt.send(..)`, and `rt.set_timer(..)`.
//!
//! Three engines run them:
//!
//! - [`crate::proto_sim`] delivers messages through the deterministic
//!   `rmc_sim` event queue (under [`crate::cost`] for the paper's figures);
//! - `rmc_standalone::cluster` delivers them between real threads on the
//!   wall clock, over crossbeam channels (the *mini-cluster*); and
//! - `rmcd` runs one node per process, over TCP sockets (`rmc_wire`).
//!
//! The cross-engine equivalence test drives the same scripted op/crash
//! sequence through all of them and asserts the surviving key/value sets
//! match.
//!
//! ## Protocol sketch
//!
//! Writes: the owning master applies the op to its real log-structured
//! [`Store`] (RIFL-deduplicated by `(client, seq)`), serializes the log
//! entry, and sends the bytes to `R` ring-placement backups; the client
//! response is withheld until every backup acks. Clients retry timed-out
//! ops with the *same* sequence number, so a crash between apply and
//! response cannot double-apply.
//!
//! Recovery: the coordinator declares a master dead after
//! `failure_timeout` without heartbeats, partitions the will over the
//! survivors, and sends each recovery master a `TakeOver`. A recovery
//! master fetches the crashed master's staged segment replicas from every
//! survivor, forgets whatever stale copy it holds of its assigned buckets,
//! replays the entries that hash into them (version-guarded, so duplicate
//! replicas are harmless), re-replicates the recovered entries, and reports
//! `TakeOverDone` once its backups have acked them. When all recovery
//! masters finish, the coordinator reassigns the buckets and broadcasts the
//! new tablet map; blocked clients retry into it.
//!
//! ## Fault hardening
//!
//! The chaos suite (`rmc-chaos`) subjects this protocol to message drops,
//! duplicates, delays, partitions, and crash/restarts. Surviving that
//! forces several mechanisms beyond the happy path:
//!
//! - **Incarnation epochs.** Every server carries an epoch (bumped by the
//!   engine on each restart) in its heartbeats. The coordinator rejects
//!   heartbeats from older incarnations, treats a higher epoch as proof the
//!   previous incarnation died (recovering it even if the failure detector
//!   never fired), and readmits restarted or wrongly-declared-dead servers
//!   bucket-less once no recovery is pending for them.
//! - **Backup fencing.** A backup stops accepting `Replicate` traffic from
//!   a master it knows to be dead — and fences the master *before* serving
//!   a recovery `FetchSegments` — so a zombie master can never get a write
//!   acked after recovery has read the backup's segments.
//! - **Recovery rounds.** `TakeOver`/`TakeOverDone` carry a round number.
//!   A round still unfinished after `RECOVERY_RETRY_TIMEOUT` (200 ms) is
//!   re-sent as it is to the recovery masters that have not reported — a
//!   lost message is all that can hold it up — and re-issued (new round,
//!   recomputed over the current survivors) only once a server it counts on
//!   has died or restarted. A recovery master answers a re-sent round by
//!   asking again whoever has not answered, or by reporting again if it has
//!   finished, so a round that takes longer than 200 ms (as one shipping
//!   gigabytes does) is never restarted. Completions from replaced rounds
//!   are ignored, and a completed recovery whose target owner has meanwhile
//!   died is re-run rather than reassigning buckets to a corpse.
//! - **One replication write.** A backup's replica of segment S is the
//!   master's log segment S, and every byte of it arrives as an acked
//!   append. When the replica target set changes the master seals its head,
//!   images every log segment onto the targets it adopted and re-points
//!   pending writes at the survivors, so a backup death mid-replication
//!   neither wedges the write nor drops a copy. An image is a pending write
//!   answering no client, re-sent from the heartbeat tick to a target that
//!   acked no image for `retry_timeout`; a takeover is reported done once
//!   its images are acked. A backup adopted later holds only the live log,
//!   so the cleaner keeps what a retry or a replay needs from it: each
//!   client's latest completion record and each deleted key's tombstone.
//! - **RIFL duplicate suppression.** Masters remember the last sequence
//!   number and reply per client: older duplicates are dropped, a duplicate
//!   of the last op is answered with the recorded reply (same version, no
//!   re-apply), and a duplicate of a still-pending op re-drives replication
//!   instead of re-applying.
//! - **Client backoff.** Retries wait `retry_timeout` doubled per attempt,
//!   at most three times (8 × the base), plus deterministic jitter
//!   ([`retry_jitter`]), and ask the coordinator for a fresh tablet map
//!   instead of hot-looping against a stale one.

use std::collections::{btree_map::Range, BTreeMap, BTreeSet};
use std::sync::Arc;

use rmc_chaos::{MsgClass, OpKind, OpRecord};
use rmc_diskstore::{BackupStorage, MemStorage};
use rmc_logstore::{
    key_hash, CompletionId, KeyHash, LogConfig, LogEntry, SegmentId, Store, TableId, WriteOutcome,
};
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::MetricKind::{self, Counter, Gauge};
use rmc_runtime::{Histogram, MetricsRegistry, NodeId, Runtime, SimDuration, SimTime};

/// The single table the protocol serves (the paper loads one YCSB table).
pub const PROTO_TABLE: TableId = TableId(1);

/// The hash bucket (tablet) `key` falls into among `buckets`.
///
/// Free function so every routing decision — coordinator, masters, and
/// clients, under every engine — shares one hash.
pub fn bucket_for(table: TableId, key: &[u8], buckets: usize) -> usize {
    bucket_of(key_hash(table, key), buckets)
}

/// The hash bucket of a key whose hash is `hash`, among `buckets`.
fn bucket_of(hash: KeyHash, buckets: usize) -> usize {
    (hash.0 % buckets as u64) as usize
}

// ---------------------------------------------------------------------
// Addressing
// ---------------------------------------------------------------------

/// The coordinator's node id.
pub fn coordinator_id() -> NodeId {
    NodeId(0)
}

/// The node id of server `i` (each server is master + backup).
pub fn server_id(i: usize) -> NodeId {
    NodeId(1 + i)
}

/// The node id of client `c` in a cluster of `servers` servers.
pub fn client_id(servers: usize, c: usize) -> NodeId {
    NodeId(1 + servers + c)
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Shape and timing knobs for one protocol cluster.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Number of servers (each is master + backup).
    pub servers: usize,
    /// Number of clients.
    pub clients: usize,
    /// Replication factor `R`: backups per segment.
    pub replication: usize,
    /// Hash buckets (tablets) over the key space.
    pub buckets: usize,
    /// How often servers heartbeat the coordinator.
    pub heartbeat_interval: SimDuration,
    /// Silence after which the coordinator declares a server dead.
    pub failure_timeout: SimDuration,
    /// Client retry timeout for unanswered requests: the backoff base
    /// (see [`retry_backoff`]).
    pub retry_timeout: SimDuration,
    /// Master log sizing.
    pub log: LogConfig,
}

impl ProtocolConfig {
    /// A small cluster with timing defaults that work under both engines
    /// (coarse enough for real threads, deterministic under simulation).
    pub fn new(servers: usize, clients: usize, replication: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(
            replication < servers,
            "replication factor must leave at least one non-replica server"
        );
        ProtocolConfig {
            servers,
            clients,
            replication,
            buckets: 64,
            heartbeat_interval: SimDuration::from_millis(10),
            failure_timeout: SimDuration::from_millis(50),
            retry_timeout: SimDuration::from_millis(40),
            log: LogConfig {
                segment_bytes: 1 << 16,
                max_segments: 1024,
                ordered_index: false,
            },
        }
    }
}

/// Ring placement: the `replication` alive servers after `master`,
/// wrapping, excluding `master` itself. Pure and engine-independent, so
/// both engines place replicas identically.
pub fn replica_targets(
    master: usize,
    servers: usize,
    replication: usize,
    alive: &[bool],
) -> Vec<usize> {
    let mut out = Vec::with_capacity(replication);
    let mut i = (master + 1) % servers;
    while out.len() < replication && i != master {
        if alive[i] {
            out.push(i);
        }
        i = (i + 1) % servers;
    }
    out
}

/// Deterministic retry jitter: a hash of `(client, seq, attempt)` folded
/// into `0..max_nanos`. Pure, so both engines (and two runs of the same
/// plan) compute identical jitter without sharing an RNG.
pub fn retry_jitter(client: usize, seq: u64, attempt: u32, max_nanos: u64) -> u64 {
    if max_nanos == 0 {
        return 0;
    }
    let mut x = (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % max_nanos
}

/// How many times a client's retry window doubles: from attempt 3 on it
/// waits `retry_timeout · 8` (320 ms at the 40 ms default).
const MAX_BACKOFF_DOUBLINGS: u32 = 3;

/// How long the coordinator waits for a recovery round to complete before
/// re-sending it (or, if a server it counts on died, re-issuing it).
const RECOVERY_RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// The exponential backoff window, `retry_timeout · 2^min(attempt, 3)`, plus
/// [`retry_jitter`] below half the base, that a client waits before retry
/// number `attempt` of `seq`. [`ClientCore`] is its one caller.
pub fn retry_backoff(cfg: &ProtocolConfig, client: usize, seq: u64, attempt: u32) -> SimDuration {
    let base = cfg.retry_timeout;
    let window = base.mul_f64(f64::from(1u32 << attempt.min(MAX_BACKOFF_DOUBLINGS)));
    let jitter = retry_jitter(client, seq, attempt, base.as_nanos() / 2);
    window.saturating_add(SimDuration::from_nanos(jitter))
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A client-visible operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Write `key = value`.
    Put {
        /// Record key.
        key: Vec<u8>,
        /// Record value.
        value: Vec<u8>,
    },
    /// Read `key`.
    Get {
        /// Record key.
        key: Vec<u8>,
    },
    /// Delete `key`.
    Del {
        /// Record key.
        key: Vec<u8>,
    },
}

impl ClientOp {
    /// The key this op addresses.
    pub fn key(&self) -> &[u8] {
        match self {
            ClientOp::Put { key, .. } | ClientOp::Get { key } | ClientOp::Del { key } => key,
        }
    }
}

/// A master's answer to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Write or delete applied (and, for writes, fully replicated).
    Done {
        /// The version the mutation was applied at: the assigned version
        /// for a put, the deleted version for a del (0 when the key was
        /// absent). Duplicates of the same request echo the same version.
        version: u64,
    },
    /// Read result; `None` when the key does not exist.
    Value(Option<Vec<u8>>),
    /// The receiving server does not own the key's bucket; retry after the
    /// next map update.
    WrongOwner,
}

/// Everything nodes say to each other. One enum for the whole cluster so a
/// single `Runtime<Msg = Msg>` transport carries it all. `PartialEq` exists
/// for the wire codec's round-trip tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → master: perform `op`; `seq` is the client's RIFL sequence
    /// (retries reuse it).
    Request {
        /// Client-chosen sequence number, monotone per client.
        seq: u64,
        /// The operation.
        op: ClientOp,
    },
    /// Master → client: answer to the request with the same `seq`.
    Response {
        /// Echo of the request sequence.
        seq: u64,
        /// The outcome.
        reply: Reply,
    },
    /// Master → backup: stage these serialized log-entry bytes for
    /// (sending master, `segment`).
    Replicate {
        /// The master's segment the bytes belong to.
        segment: u64,
        /// Serialized [`LogEntry`] bytes (real wire format, CRC-checked on
        /// replay), shared by every replica of one write and every resend.
        bytes: Arc<[u8]>,
        /// `(client, seq)` the master is waiting to answer, or for an image
        /// of a log segment `(master's node id, segment)`: no client has a
        /// server's node id.
        token: (u64, u64),
    },
    /// Backup → master: the bytes for `token` are staged.
    ReplicateAck {
        /// Echo of the replicate token.
        token: (u64, u64),
    },
    /// Server → coordinator: liveness beacon, stamped with the sender's
    /// incarnation so a restarted server is distinguishable from its
    /// previous life.
    Heartbeat {
        /// The sender's incarnation epoch (0 for the initial boot; bumped
        /// by the engine on every restart).
        epoch: u64,
        /// The tablet-map version the sender has seen; the coordinator
        /// unicasts a fresh map when this lags.
        map_version: u64,
    },
    /// Anyone → coordinator: please unicast me the current tablet map
    /// (sent by clients backing off against a stale map).
    MapRequest,
    /// Coordinator → recovery master: recover `buckets` of `crashed` using
    /// replicas held by `survivors`.
    TakeOver {
        /// The dead master.
        crashed: usize,
        /// Buckets this recovery master must restore.
        buckets: Vec<usize>,
        /// Alive servers to fetch segment replicas from.
        survivors: Vec<usize>,
        /// Recovery round; retries of a stalled recovery bump it and stale
        /// rounds are ignored on both ends.
        round: u64,
    },
    /// Recovery master → survivors: send me your staged segments of
    /// `crashed`.
    FetchSegments {
        /// The dead master whose replicas are wanted.
        crashed: usize,
    },
    /// Survivor → recovery master: staged `(segment, bytes)` replicas of
    /// `crashed` (empty if it held none).
    SegmentData {
        /// The dead master the segments belong to.
        crashed: usize,
        /// Replica buffers, one per staged segment.
        segments: Vec<(u64, Vec<u8>)>,
    },
    /// Recovery master → coordinator: the buckets the `TakeOver` of
    /// `round` gave the sender are replayed and re-replicated.
    TakeOverDone {
        /// The dead master.
        crashed: usize,
        /// Echo of the `TakeOver` round this completion answers.
        round: u64,
    },
    /// Coordinator → everyone: the tablet map changed.
    MapUpdate {
        /// Monotone map version.
        version: u64,
        /// `bucket -> owner` table.
        owners: Vec<usize>,
        /// Per-server liveness.
        alive: Vec<bool>,
    },
    /// Anyone → server or coordinator: dump your event counters and stage
    /// timings (the stats plane's RPC; no RIFL id — stats are idempotent).
    StatsRequest,
    /// Server/coordinator → asker: the requested `name -> value` stats.
    StatsReply {
        /// Flat dotted-name/value pairs, ready for a metrics registry.
        stats: Vec<(String, u64)>,
    },
}

impl Msg {
    /// Message-variant label for span timelines and span dumps.
    pub fn span_label(&self) -> &'static str {
        match self {
            Msg::Request { .. } => "request",
            Msg::Response { .. } => "response",
            Msg::Replicate { .. } => "replicate",
            Msg::ReplicateAck { .. } => "replicate_ack",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::MapRequest => "map_request",
            Msg::TakeOver { .. } => "take_over",
            Msg::FetchSegments { .. } => "fetch_segments",
            Msg::SegmentData { .. } => "segment_data",
            Msg::TakeOverDone { .. } => "take_over_done",
            Msg::MapUpdate { .. } => "map_update",
            Msg::StatsRequest => "stats_request",
            Msg::StatsReply { .. } => "stats_reply",
        }
    }

    /// The RIFL `(client, seq)` trace id this message serves, if it is part
    /// of a client operation's span. `from`/`to` identify the client side
    /// of request/response hops; replication hops carry the id as their
    /// token (an image serves no client and yields `None`).
    pub fn trace_id(&self, from: NodeId, to: NodeId) -> Option<(u64, u64)> {
        match self {
            Msg::Request { seq, .. } => Some((from.0 as u64, *seq)),
            Msg::Response { seq, .. } => Some((to.0 as u64, *seq)),
            Msg::Replicate { token, .. } => (!is_image(from, *token)).then_some(*token),
            Msg::ReplicateAck { token } => (!is_image(to, *token)).then_some(*token),
            _ => None,
        }
    }

    /// Records this message's hop `from → to` at `at` on the span timeline
    /// of the client operation it serves (nothing for other traffic). Every
    /// engine calls this at its send and its deliver chokepoint.
    pub fn record_span(
        &self,
        spans: &SpanRecorder,
        kind: SpanKind,
        from: NodeId,
        to: NodeId,
        at: SimTime,
    ) {
        if let Some(trace) = self.trace_id(from, to) {
            spans.record(trace, kind, self.span_label(), from.0, to.0, at.as_nanos());
        }
    }
}

/// Does `master`'s replication token `token` name an image of one of its
/// log segments? An image's token is `(master's node id, segment)`, an
/// update's `(client, seq)`, and no client has a server's node id.
pub(crate) fn is_image(master: NodeId, token: (u64, u64)) -> bool {
    token.0 == master.0 as u64
}

/// Classifies a message for the fault layer: replication traffic is
/// additionally subject to the plan's backup-write fault probability.
pub fn msg_class(msg: &Msg) -> MsgClass {
    match msg {
        Msg::Replicate { .. } => MsgClass::BackupWrite,
        _ => MsgClass::Other,
    }
}

// ---------------------------------------------------------------------
// Stats plane
// ---------------------------------------------------------------------

/// One stat a node reports: its name, whether two readings are meant to be
/// diffed ([`Counter`]) or read as a level ([`Gauge`]), and its value. Each
/// role lists its rows once (`stat_rows`); the Stats RPC
/// ([`Msg::StatsReply`]) sends the names and values, and
/// [`AnyNode::export_stats`] files them in a [`MetricsRegistry`] by kind.
type StatRow = (&'static str, MetricKind, u64);

fn stat_pairs(rows: Vec<StatRow>) -> Vec<(String, u64)> {
    rows.into_iter().map(|(n, _, v)| (n.into(), v)).collect()
}

// ---------------------------------------------------------------------
// Coordinator node
// ---------------------------------------------------------------------

/// Observable event counters on the coordinator (exported into the metrics
/// registry by the engine harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordCounters {
    /// Heartbeats from an older incarnation, rejected.
    pub stale_heartbeats: u64,
    /// Restarts detected via an epoch jump.
    pub restarts_detected: u64,
    /// Servers readmitted (bucket-less) after restart or a healed
    /// partition.
    pub readmissions: u64,
    /// Recovery rounds re-issued because a server they counted on died.
    pub recovery_retries: u64,
    /// Restart recoveries deferred because declaring the server dead at
    /// detection time would have left no survivor (whole-fleet restart).
    pub restarts_deferred: u64,
    /// `MapRequest`s answered.
    pub map_requests: u64,
}

/// One in-flight recovery the coordinator is tracking.
#[derive(Debug)]
struct PendingRecovery {
    /// Recovery masters still working this round. A set, not a count: the
    /// network may duplicate a `TakeOverDone`, and counting one master's
    /// completion twice would finish the recovery with another master's
    /// buckets never replayed.
    left: BTreeSet<usize>,
    /// Current round; completions from other rounds are stale.
    round: u64,
    /// When the current round was last sent.
    started: SimTime,
    /// The survivors the round fetches from, with the epoch each had when
    /// it was issued: the round is re-issued once one of them dies or
    /// restarts.
    counts_on: Vec<(usize, u64)>,
    /// The will, as `(bucket, new_owner)` in bucket order: each recovery
    /// master's `TakeOver` names its buckets, and all of them move once
    /// every one has finished.
    moves: Vec<(usize, usize)>,
}

/// The coordinator state machine: the tablet map, failure detection and
/// recovery orchestration.
#[derive(Debug)]
pub struct CoordinatorNode {
    cfg: ProtocolConfig,
    /// `bucket -> owner`. The buckets start round-robin over the servers
    /// (a uniform spread, as the paper's `ServerSpan` gives) and move when
    /// a recovery completes.
    tablet_owner: Vec<usize>,
    /// Per server: not declared dead, or readmitted since.
    alive: Vec<bool>,
    last_heartbeat: Vec<SimTime>,
    /// Highest incarnation epoch heard per server.
    server_epoch: Vec<u64>,
    map_version: u64,
    /// crashed server -> recovery in progress.
    pending: BTreeMap<usize, PendingRecovery>,
    /// Restarted servers whose old incarnation still awaits recovery:
    /// declaring them dead at detection time would have left no survivor
    /// (the whole-fleet cold-restart shape). Retried from the timer.
    deferred_restarts: BTreeSet<usize>,
    next_round: u64,
    /// Event counters.
    pub counters: CoordCounters,
    started: bool,
}

impl CoordinatorNode {
    /// Creates the coordinator for `cfg`'s cluster shape, every server
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no servers or no buckets.
    pub fn new(cfg: ProtocolConfig) -> Self {
        assert!(cfg.servers > 0 && cfg.buckets > 0);
        CoordinatorNode {
            tablet_owner: (0..cfg.buckets).map(|b| b % cfg.servers).collect(),
            alive: vec![true; cfg.servers],
            last_heartbeat: vec![SimTime::ZERO; cfg.servers],
            server_epoch: vec![0; cfg.servers],
            map_version: 0,
            pending: BTreeMap::new(),
            deferred_restarts: BTreeSet::new(),
            next_round: 0,
            counters: CoordCounters::default(),
            started: false,
            cfg,
        }
    }

    /// The tablet map, `bucket -> owner`.
    pub fn owners(&self) -> &[usize] {
        &self.tablet_owner
    }

    /// Is `server` alive (never declared dead, or readmitted since)?
    pub fn is_alive(&self, server: usize) -> bool {
        self.alive[server]
    }

    /// Is any crash recovery still in flight (or detected but deferred)?
    pub fn recovery_pending(&self) -> bool {
        !self.pending.is_empty() || !self.deferred_restarts.is_empty()
    }

    /// The current tablet-map version.
    pub fn map_version(&self) -> u64 {
        self.map_version
    }

    /// Starts failure detection (called once by the engine).
    pub fn on_start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let now = rt.now();
        for hb in &mut self.last_heartbeat {
            *hb = now;
        }
        self.started = true;
        rt.set_timer(self.cfg.heartbeat_interval);
    }

    /// Handles one message.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, from: NodeId, msg: Msg, rt: &mut R) {
        match msg {
            Msg::Heartbeat { epoch, map_version } => {
                self.on_heartbeat(from, epoch, map_version, rt)
            }
            Msg::MapRequest => {
                self.counters.map_requests += 1;
                rt.send(from, self.map_update());
            }
            Msg::TakeOverDone { crashed, round } => {
                let Some(sender) = from.0.checked_sub(1) else {
                    return;
                };
                let Some(rec) = self.pending.get_mut(&crashed) else {
                    return;
                };
                if rec.round != round {
                    return; // a retried round replaced this completion
                }
                rec.left.remove(&sender);
                if !rec.left.is_empty() {
                    return;
                }
                // Never reassign buckets to a recovery master that has
                // itself died since finishing: re-run over the current
                // survivors instead.
                if rec.moves.iter().all(|&(_, owner)| self.alive[owner]) {
                    let rec = self.pending.remove(&crashed).expect("present");
                    for (bucket, owner) in rec.moves {
                        self.tablet_owner[bucket] = owner;
                    }
                    self.broadcast_map(rt);
                } else {
                    self.counters.recovery_retries += 1;
                    self.start_recovery_round(crashed, rt);
                }
            }
            Msg::StatsRequest => {
                rt.send(
                    from,
                    Msg::StatsReply {
                        stats: self.stats(),
                    },
                );
            }
            _ => {}
        }
    }

    /// The stats-plane dump the coordinator answers [`Msg::StatsRequest`]
    /// with.
    pub fn stats(&self) -> Vec<(String, u64)> {
        stat_pairs(self.stat_rows())
    }

    fn stat_rows(&self) -> Vec<StatRow> {
        let c = &self.counters;
        vec![
            ("stale_heartbeats", Counter, c.stale_heartbeats),
            ("restarts_detected", Counter, c.restarts_detected),
            ("readmissions", Counter, c.readmissions),
            ("recovery_retries", Counter, c.recovery_retries),
            ("restarts_deferred", Counter, c.restarts_deferred),
            ("map_requests", Counter, c.map_requests),
            ("map_version", Gauge, self.map_version),
            (
                "recoveries_pending",
                Gauge,
                (self.pending.len() + self.deferred_restarts.len()) as u64,
            ),
        ]
    }

    fn on_heartbeat<R: Runtime<Msg = Msg>>(
        &mut self,
        from: NodeId,
        epoch: u64,
        map_version: u64,
        rt: &mut R,
    ) {
        let Some(server) = from.0.checked_sub(1) else {
            return;
        };
        if server >= self.cfg.servers {
            return;
        }
        let recorded = self.server_epoch[server];
        if epoch < recorded {
            // A zombie beacon from a previous life.
            self.counters.stale_heartbeats += 1;
            return;
        }
        self.last_heartbeat[server] = rt.now();
        if epoch > recorded {
            // The server restarted: its previous incarnation is dead even
            // if the failure detector never fired. Recover its data first;
            // readmission happens on a later heartbeat, once no recovery is
            // pending for it.
            self.server_epoch[server] = epoch;
            self.counters.restarts_detected += 1;
            if self.alive[server] && !self.pending.contains_key(&server) {
                self.declare_dead(server, rt);
                if self.alive[server] {
                    // Refused: every other server is already down for
                    // recovery (the whole fleet cold-restarted at once).
                    // The epoch is recorded, so this branch never fires
                    // again — park the restart and retry from the timer
                    // once a sibling's recovery completes and readmits it.
                    self.deferred_restarts.insert(server);
                    self.counters.restarts_deferred += 1;
                }
            }
        } else if !self.alive[server] && !self.pending.contains_key(&server) {
            // Same incarnation, declared dead, nothing left to recover:
            // either a healed partition or a completed restart recovery.
            // Readmit bucket-less (its old buckets stay where recovery put
            // them).
            self.alive[server] = true;
            self.counters.readmissions += 1;
            self.broadcast_map(rt);
        }
        if map_version < self.map_version {
            rt.send(from, self.map_update());
        }
    }

    /// Periodic failure check; re-arms itself.
    pub fn on_timer<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        if !self.started {
            return;
        }
        let now = rt.now();
        // Stalled recoveries: re-send the round while every server it counts
        // on lives (a message was lost, or the round is merely long), and
        // re-issue it over the current survivors once one has died.
        let overdue: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, rec)| now.saturating_since(rec.started) >= RECOVERY_RETRY_TIMEOUT)
            .map(|(&crashed, _)| crashed)
            .collect();
        for crashed in overdue {
            let rec = &self.pending[&crashed];
            let intact = (rec.counts_on.iter())
                .all(|&(s, epoch)| self.alive[s] && self.server_epoch[s] == epoch);
            if intact {
                self.send_round(crashed, rt);
            } else {
                self.counters.recovery_retries += 1;
                self.start_recovery_round(crashed, rt);
            }
        }
        // Parked restart recoveries (see the deferral in `on_heartbeat`):
        // retry each tick; once enough siblings are readmitted the
        // declaration goes through and the old incarnation is recovered.
        for server in std::mem::take(&mut self.deferred_restarts) {
            if self.pending.contains_key(&server) {
                continue; // a recovery for it is underway after all
            }
            if self.alive[server] {
                self.declare_dead(server, rt);
                if self.alive[server] {
                    self.deferred_restarts.insert(server); // still refused
                }
            }
        }
        for s in 0..self.cfg.servers {
            if !self.alive[s] || self.pending.contains_key(&s) {
                continue;
            }
            if now - self.last_heartbeat[s] >= self.cfg.failure_timeout {
                self.declare_dead(s, rt);
            }
        }
        rt.set_timer(self.cfg.heartbeat_interval);
    }

    /// The servers alive now, in index order.
    fn survivors(&self) -> Vec<usize> {
        (0..self.cfg.servers).filter(|&s| self.alive[s]).collect()
    }

    fn declare_dead<R: Runtime<Msg = Msg>>(&mut self, victim: usize, rt: &mut R) {
        // Never declare the last server dead: no survivor could recover it.
        if self.survivors().iter().all(|&s| s == victim) {
            return;
        }
        self.alive[victim] = false;
        // Tell everyone the victim is dead (clients stop sending to it,
        // backups fence it) before recovery masters start fetching.
        self.broadcast_map(rt);
        self.start_recovery_round(victim, rt);
    }

    /// Issues (or re-issues) the recovery of `victim` as a fresh round over
    /// the current survivors.
    fn start_recovery_round<R: Runtime<Msg = Msg>>(&mut self, victim: usize, rt: &mut R) {
        let survivors = self.survivors();
        // The will: the victim's buckets spread round-robin over the
        // survivors, so every machine takes part in recovery (the paper's
        // Section II-B).
        let owned = (0..self.tablet_owner.len()).filter(|&b| self.tablet_owner[b] == victim);
        let moves: Vec<(usize, usize)> = owned.zip(survivors.iter().copied().cycle()).collect();
        if moves.is_empty() {
            // No survivor, or the victim owned nothing (its death broadcast
            // was enough).
            self.pending.remove(&victim);
            return;
        }
        self.next_round += 1;
        let counts_on = (survivors.iter())
            .map(|&s| (s, self.server_epoch[s]))
            .collect();
        self.pending.insert(
            victim,
            PendingRecovery {
                left: moves.iter().map(|&(_, owner)| owner).collect(),
                round: self.next_round,
                started: rt.now(),
                counts_on,
                moves,
            },
        );
        self.send_round(victim, rt);
    }

    /// Sends `victim`'s current round to each recovery master that has not
    /// reported it done, with the buckets the will gives it.
    fn send_round<R: Runtime<Msg = Msg>>(&mut self, victim: usize, rt: &mut R) {
        let rec = self.pending.get_mut(&victim).expect("pending");
        rec.started = rt.now();
        let survivors: Vec<usize> = rec.counts_on.iter().map(|&(s, _)| s).collect();
        for &owner in &rec.left {
            let buckets = (rec.moves.iter())
                .filter(|&&(_, o)| o == owner)
                .map(|&(bucket, _)| bucket)
                .collect();
            let takeover = Msg::TakeOver {
                crashed: victim,
                buckets,
                survivors: survivors.clone(),
                round: rec.round,
            };
            rt.send(server_id(owner), takeover);
        }
    }

    /// The current tablet map, as sent to a node that asks or lags (no
    /// version bump).
    fn map_update(&self) -> Msg {
        Msg::MapUpdate {
            version: self.map_version,
            owners: self.tablet_owner.clone(),
            alive: self.alive.clone(),
        }
    }

    /// Bumps the map version and sends the map to every live server, then
    /// to every client.
    fn broadcast_map<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.map_version += 1;
        let servers = self.survivors().into_iter().map(server_id);
        let clients = (0..self.cfg.clients).map(|c| client_id(self.cfg.servers, c));
        for to in servers.chain(clients) {
            rt.send(to, self.map_update());
        }
    }
}

// ---------------------------------------------------------------------
// Server node (master + backup + recovery master)
// ---------------------------------------------------------------------

/// Observable event counters on a server (exported into the metrics
/// registry by the engine harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Replicate messages rejected because the sending master is fenced.
    pub fenced_drops: u64,
    /// Requests dropped as duplicates of a sequence the client has moved past.
    pub stale_rifl_drops: u64,
    /// Duplicate requests answered from the recorded reply (no re-apply).
    pub rifl_replays: u64,
    /// Requests answered `WrongOwner`.
    pub wrong_owner: u64,
    /// Times the replica target set changed and the log was imaged onto
    /// the adopted targets.
    pub reseeds: u64,
    /// Images re-sent to a target silent for `retry_timeout`.
    pub image_resends: u64,
    /// Takeovers replayed here as a recovery master.
    pub replays: u64,
    /// Pending writes dropped because ownership (or our own liveness)
    /// moved away mid-replication.
    pub pending_dropped: u64,
    /// Duplicate requests that re-drove replication of a pending write.
    pub pending_resends: u64,
    /// Backup appends the storage engine failed to make durable (the ack
    /// was withheld; the master's retry machinery redrives the write).
    pub backup_append_errors: u64,
    /// Recoveries that stopped replaying a collected replica early because
    /// its bytes stopped parsing (torn/corrupt replica tail).
    pub replay_truncations: u64,
    /// Head seals an image skipped because the log had no free segment to
    /// roll into. The open head is imaged all the same, and an append that
    /// overtakes that image lands beside it: neither erases the other.
    pub unsealed_heads: u64,
}

/// Bytes replicated to backups, waiting on their acks: an update's record,
/// answered when every ack is in, or an image of a log segment, which
/// answers no client.
#[derive(Debug)]
struct PendingWrite {
    segment: u64,
    /// The bytes, copied out of the log once; each `Replicate` of them
    /// shares this buffer.
    bytes: Arc<[u8]>,
    /// An update's bucket and the reply its acks release; `None` for an
    /// image.
    answer: Option<(usize, Reply)>,
    waiting: BTreeSet<usize>,
    acked: BTreeSet<usize>,
    /// When replication started, for the ack-wait stage histogram.
    started: SimTime,
}

impl PendingWrite {
    fn new(segment: u64, bytes: &[u8], answer: Option<(usize, Reply)>, now: SimTime) -> Self {
        let (bytes, waiting, acked) = (Arc::from(bytes), BTreeSet::new(), BTreeSet::new());
        PendingWrite {
            segment,
            bytes,
            answer,
            waiting,
            acked,
            started: now,
        }
    }
}

/// A recovery master's takeover of a crashed master's buckets, from the
/// `TakeOver` that starts a round to the `TakeOverDone` that reports it.
#[derive(Debug)]
struct Takeover {
    round: u64,
    buckets: Vec<usize>,
    phase: Phase,
}

/// How far a [`Takeover`]'s round has got.
#[derive(Debug)]
enum Phase {
    /// Gathering the crashed master's staged replicas: the survivors yet to
    /// answer, and what has arrived.
    Fetching {
        awaiting: BTreeSet<usize>,
        collected: Vec<(u64, Vec<u8>)>,
    },
    /// Replayed; reported once no image of replica segment `from` (the
    /// first the replay wrote) or a later one is pending.
    Imaging { from: u64 },
    /// `TakeOverDone` sent; a re-sent round is answered with another.
    Reported,
}

/// A server state machine: master for its buckets, backup for its ring
/// neighbours, recovery master when the coordinator says so.
#[derive(Debug)]
pub struct Server {
    /// This server's index (node id is `server_id(index)`).
    pub index: usize,
    cfg: ProtocolConfig,
    /// The master's real log-structured store.
    pub store: Store,
    epoch: u64,
    /// False from a restart until the first `MapUpdate` arrives; an
    /// unsynced server answers everything `WrongOwner` rather than serving
    /// from a default map over an empty store.
    synced: bool,
    owners: Vec<usize>,
    alive: Vec<bool>,
    map_version: u64,
    pending: BTreeMap<(u64, u64), PendingWrite>,
    /// Backup role: where replica bytes are staged. [`MemStorage`] by
    /// default (the deterministic engines); a file-backed engine when the
    /// harness opts into durability ([`Server::set_storage`]).
    staged: Box<dyn BackupStorage>,
    /// Backup role: masters whose `Replicate` traffic is rejected (known
    /// dead, or fetched from for recovery).
    fenced: BTreeSet<usize>,
    /// RIFL: last sequence per client, and the reply it was answered with
    /// if it was an update (a read is served afresh, never recorded).
    rifl_last: BTreeMap<u64, (u64, Option<Reply>)>,
    /// Replica targets the last time we looked (to detect changes).
    last_targets: Vec<usize>,
    /// Per server: when it last acked one of our images or was sent one.
    image_clock: Vec<SimTime>,
    /// The latest takeover round sent here, per crashed master.
    takeovers: BTreeMap<usize, Takeover>,
    /// Event counters.
    pub counters: ServerCounters,
    /// Time writes spend waiting on backup acks (ns): from the first
    /// `Replicate` send to the last ack. The paper's replication stage.
    pub ack_wait: Histogram,
}

impl Server {
    /// Creates server `index` with the initial round-robin tablet map.
    pub fn new(index: usize, cfg: ProtocolConfig) -> Self {
        Server::boot(index, cfg, 0, true)
    }

    /// Creates a fresh incarnation of server `index` after a crash: empty
    /// store, incarnation `epoch`, and unsynced until the coordinator
    /// sends a map.
    pub fn restarted(index: usize, cfg: ProtocolConfig, epoch: u64) -> Self {
        Server::boot(index, cfg, epoch, false)
    }

    /// Replaces the backup staging engine. Segments already staged in the
    /// engine (e.g. recovered from disk by `FileStorage::open`) are served
    /// to recoveries exactly as if they had been replicated this
    /// incarnation — this is how a cold-restarted server rejoins with its
    /// staged replicas intact instead of booting empty.
    pub fn set_storage(&mut self, storage: Box<dyn BackupStorage>) {
        self.staged = storage;
    }

    /// [`Server::new`] with an explicit backup staging engine. Nothing in
    /// the workspace calls it (they call `set_storage`); `benchmark/`'s
    /// path harness does.
    pub fn with_storage(
        index: usize,
        cfg: ProtocolConfig,
        storage: Box<dyn BackupStorage>,
    ) -> Self {
        let mut s = Server::new(index, cfg);
        s.set_storage(storage);
        s
    }

    /// The backup staging engine (for harness inspection).
    pub fn storage(&self) -> &dyn BackupStorage {
        self.staged.as_ref()
    }

    /// Forces staged replica bytes durable (fsync on file engines). Called
    /// on graceful shutdown.
    pub fn flush_storage(&mut self) -> Result<(), rmc_diskstore::StorageError> {
        self.staged.flush()
    }

    fn boot(index: usize, cfg: ProtocolConfig, epoch: u64, synced: bool) -> Self {
        let owners: Vec<usize> = (0..cfg.buckets).map(|b| b % cfg.servers).collect();
        let alive = vec![true; cfg.servers];
        let last_targets = replica_targets(index, cfg.servers, cfg.replication, &alive);
        let store = Store::new(cfg.log.clone());
        let image_clock = vec![SimTime::ZERO; cfg.servers];
        Server {
            index,
            cfg,
            store,
            epoch,
            synced,
            owners,
            alive,
            map_version: 0,
            pending: BTreeMap::new(),
            staged: Box::new(MemStorage::new()),
            fenced: BTreeSet::new(),
            rifl_last: BTreeMap::new(),
            last_targets,
            image_clock,
            takeovers: BTreeMap::new(),
            counters: ServerCounters::default(),
            ack_wait: Histogram::new(),
        }
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn heartbeat<R: Runtime<Msg = Msg>>(&self, rt: &mut R) {
        rt.send(
            coordinator_id(),
            Msg::Heartbeat {
                epoch: self.epoch,
                map_version: self.map_version,
            },
        );
    }

    /// Starts heartbeating (called once by the engine).
    pub fn on_start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.heartbeat(rt);
        rt.set_timer(self.cfg.heartbeat_interval);
    }

    /// Heartbeat tick, which also re-drives images; re-arms itself.
    pub fn on_timer<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.heartbeat(rt);
        self.redrive_images(rt);
        rt.set_timer(self.cfg.heartbeat_interval);
    }

    /// Handles one message.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, from: NodeId, msg: Msg, rt: &mut R) {
        match msg {
            Msg::Request { seq, op } => self.handle_request(from, seq, op, rt),
            Msg::Replicate {
                segment,
                bytes,
                token,
            } => self.handle_replicate(from, segment, bytes, token, rt),
            Msg::ReplicateAck { token } => {
                let Some(backup) = from.0.checked_sub(1) else {
                    return;
                };
                if let Some(p) = self.pending.get_mut(&token) {
                    if let (None, Some(clock)) = (&p.answer, self.image_clock.get_mut(backup)) {
                        *clock = rt.now();
                    }
                    p.acked.insert(backup);
                    p.waiting.remove(&backup);
                    if p.waiting.is_empty() {
                        self.complete(token, rt);
                    }
                }
            }
            Msg::TakeOver {
                crashed,
                buckets,
                survivors,
                round,
            } => self.begin_takeover(crashed, buckets, survivors, round, rt),
            Msg::FetchSegments { crashed } => {
                // Fence before answering: after this instant, nothing more
                // from `crashed` may be staged here, so the recovery sees
                // every write this backup will ever ack for it.
                self.fenced.insert(crashed);
                let segments = self.staged.segments_of(crashed);
                rt.send(from, Msg::SegmentData { crashed, segments });
            }
            Msg::SegmentData { crashed, segments } => {
                self.absorb_segments(crashed, from, segments, rt)
            }
            Msg::MapUpdate {
                version,
                owners,
                alive,
            } => self.apply_map_update(version, owners, alive, rt),
            Msg::StatsRequest => {
                rt.send(
                    from,
                    Msg::StatsReply {
                        stats: self.stats(),
                    },
                );
            }
            Msg::Response { .. }
            | Msg::Heartbeat { .. }
            | Msg::MapRequest
            | Msg::TakeOverDone { .. }
            | Msg::StatsReply { .. } => {}
        }
    }

    /// The stats-plane dump this server answers [`Msg::StatsRequest`] with:
    /// event counters plus the replication ack-wait stage summary.
    pub fn stats(&self) -> Vec<(String, u64)> {
        stat_pairs(self.stat_rows())
    }

    fn stat_rows(&self) -> Vec<StatRow> {
        let c = &self.counters;
        vec![
            ("fenced_drops", Counter, c.fenced_drops),
            ("stale_rifl_drops", Counter, c.stale_rifl_drops),
            ("rifl_replays", Counter, c.rifl_replays),
            ("wrong_owner", Counter, c.wrong_owner),
            ("reseeds", Counter, c.reseeds),
            ("image_resends", Counter, c.image_resends),
            ("replays", Counter, c.replays),
            ("pending_dropped", Counter, c.pending_dropped),
            ("pending_resends", Counter, c.pending_resends),
            ("backup_append_errors", Counter, c.backup_append_errors),
            ("replay_truncations", Counter, c.replay_truncations),
            ("staged_segments", Gauge, self.staged.segment_count() as u64),
            ("staged_bytes", Gauge, self.staged.staged_bytes()),
            ("pending_now", Gauge, self.pending.len() as u64),
            // The ack-wait count diffs like a counter; its quantiles are
            // levels of the distribution.
            ("ack_wait_count", Counter, self.ack_wait.count()),
            ("ack_wait_mean_ns", Gauge, self.ack_wait.mean() as u64),
            ("ack_wait_p50_ns", Gauge, self.ack_wait.quantile(0.5)),
            ("ack_wait_p99_ns", Gauge, self.ack_wait.quantile(0.99)),
            ("ack_wait_max_ns", Gauge, self.ack_wait.max()),
        ]
    }

    /// Records an update's reply for RIFL replay and sends it.
    fn respond<R: Runtime<Msg = Msg>>(
        &mut self,
        client: NodeId,
        seq: u64,
        reply: Reply,
        rt: &mut R,
    ) {
        let entry = self.rifl_last.entry(client.0 as u64).or_insert((seq, None));
        if seq >= entry.0 {
            *entry = (seq, Some(reply.clone()));
        }
        rt.send(client, Msg::Response { seq, reply });
    }

    fn handle_request<R: Runtime<Msg = Msg>>(
        &mut self,
        client: NodeId,
        seq: u64,
        op: ClientOp,
        rt: &mut R,
    ) {
        let bucket = bucket_for(PROTO_TABLE, op.key(), self.cfg.buckets);
        // An unsynced restart serves nothing; a server that has seen its
        // own death in the map serves nothing until readmitted.
        if !self.synced || !self.alive[self.index] || self.owners[bucket] != self.index {
            self.counters.wrong_owner += 1;
            rt.send(
                client,
                Msg::Response {
                    seq,
                    reply: Reply::WrongOwner,
                },
            );
            return;
        }
        // RIFL: duplicates of finished updates replay the recorded reply;
        // duplicates of the in-flight op re-drive replication; older
        // sequences are dead retransmissions. A read records no reply: its
        // duplicate is served afresh, which is linearizable because a read
        // is idempotent.
        let rifl = self.rifl_last.get(&(client.0 as u64)).cloned();
        if let Some((last_seq, recorded)) = rifl {
            if seq < last_seq {
                self.counters.stale_rifl_drops += 1;
                return;
            }
            if seq == last_seq {
                if let Some(reply) = recorded {
                    self.counters.rifl_replays += 1;
                    rt.send(client, Msg::Response { seq, reply });
                    return;
                }
                let token = (client.0 as u64, seq);
                if let Some(p) = self.pending.get(&token) {
                    self.counters.pending_resends += 1;
                    for b in p.waiting.clone() {
                        self.send_replica(token, b, rt);
                    }
                    return;
                }
                // No recorded reply and nothing pending: the op was shed
                // during an ownership change; process it afresh (the
                // store's completion record makes a re-apply idempotent).
            }
        }
        self.rifl_last.insert(client.0 as u64, (seq, None));
        match op {
            ClientOp::Get { key } => {
                // The view points into the segment; the value is copied
                // once, here, at the wire boundary.
                let value = self
                    .store
                    .read_view(PROTO_TABLE, &key)
                    .map(|o| o.value.to_vec());
                let reply = Reply::Value(value);
                rt.send(client, Msg::Response { seq, reply });
            }
            ClientOp::Put { key, value } => {
                let completion = CompletionId {
                    client: client.0 as u64,
                    seq,
                };
                // A re-driven duplicate appends nothing: its outcome names
                // the op's own record, not whatever sits at the key by now.
                let outcome = self
                    .store
                    .write_with(PROTO_TABLE, &key, &value, Some(completion))
                    .expect("mini-cluster write fits in log");
                self.replicate(outcome, client, seq, bucket, rt);
            }
            ClientOp::Del { key } => {
                match self
                    .store
                    .delete(PROTO_TABLE, &key)
                    .expect("tombstone fits in log")
                {
                    // Nothing to delete: answer immediately.
                    None => self.respond(client, seq, Reply::Done { version: 0 }, rt),
                    Some(outcome) => self.replicate(outcome, client, seq, bucket, rt),
                }
            }
        }
    }

    fn handle_replicate<R: Runtime<Msg = Msg>>(
        &mut self,
        from: NodeId,
        segment: u64,
        bytes: Arc<[u8]>,
        token: (u64, u64),
        rt: &mut R,
    ) {
        let Some(master) = from.0.checked_sub(1) else {
            return;
        };
        if master >= self.cfg.servers {
            return;
        }
        if self.fenced.contains(&master) {
            // The master is dead as far as this backup is concerned; an
            // ack here could let a zombie confirm a write that recovery
            // will never see.
            self.counters.fenced_drops += 1;
            return;
        }
        match self.staged.append(master, segment, &bytes) {
            Ok(()) => rt.send(from, Msg::ReplicateAck { token }),
            Err(_) => {
                // Not durable: withhold the ack. The master's retry
                // machinery redrives the write; duplicate frames from a
                // retry are harmless (replay is version-guarded).
                self.counters.backup_append_errors += 1;
            }
        }
    }

    /// Stages the record `outcome` stands for on `R` ring backups — the
    /// bytes the log holds, under the segment that holds them — and
    /// registers the client response to fire when every ack is in. A
    /// duplicate of a pending write re-replicates to the still-waiting
    /// targets, so a lost `Replicate` or ack cannot wedge the op.
    fn replicate<R: Runtime<Msg = Msg>>(
        &mut self,
        outcome: WriteOutcome,
        client: NodeId,
        seq: u64,
        bucket: usize,
        rt: &mut R,
    ) {
        let reply = Reply::Done {
            version: outcome.version.0,
        };
        let targets = self.targets();
        if targets.is_empty() {
            self.respond(client, seq, reply, rt);
            return;
        }
        let bytes = (self.store)
            .appended_bytes(&outcome)
            .expect("a record just written is in the log");
        let token = (client.0 as u64, seq);
        let segment = self.replica_segment(outcome.position.segment);
        let write = PendingWrite::new(segment, bytes, Some((bucket, reply)), rt.now());
        self.pending.insert(token, write);
        self.replicate_to(token, &targets, rt);
    }

    /// The replica targets under the current map.
    fn targets(&self) -> Vec<usize> {
        let (servers, replication) = (self.cfg.servers, self.cfg.replication);
        replica_targets(self.index, servers, replication, &self.alive)
    }

    /// The id backups stage log segment `segment` under, tagged with this
    /// incarnation's epoch: a restarted master's log numbers its segments
    /// from 0 again while its backups still hold the last incarnation's.
    fn replica_segment(&self, segment: SegmentId) -> u64 {
        self.epoch << 32 | segment.0
    }

    /// Adds `to` to the backups pending write `token` waits for, and sends
    /// it to each that neither acked it nor was waited for already.
    fn replicate_to<R: Runtime<Msg = Msg>>(&mut self, token: (u64, u64), to: &[usize], rt: &mut R) {
        let p = self.pending.get_mut(&token).expect("pending");
        let fresh: BTreeSet<usize> = (to.iter().copied())
            .filter(|&b| !p.acked.contains(&b) && p.waiting.insert(b))
            .collect();
        for b in fresh {
            self.send_replica(token, b, rt);
        }
    }

    /// Sends pending write `token`'s bytes to backup `b`; an image restarts
    /// `b`'s image clock.
    fn send_replica<R: Runtime<Msg = Msg>>(&mut self, token: (u64, u64), b: usize, rt: &mut R) {
        let p = &self.pending[&token];
        let replicate = Msg::Replicate {
            segment: p.segment,
            bytes: Arc::clone(&p.bytes),
            token,
        };
        rt.send(server_id(b), replicate);
        if p.answer.is_none() {
            self.image_clock[b] = rt.now();
        }
    }

    /// Retires pending write `token`, its last ack in: answers its client,
    /// or, for an image, reports each takeover it was the last to hold up.
    fn complete<R: Runtime<Msg = Msg>>(&mut self, token: (u64, u64), rt: &mut R) {
        let p = self.pending.remove(&token).expect("pending");
        match p.answer {
            Some((_, reply)) => {
                self.ack_wait
                    .record(rt.now().saturating_since(p.started).as_nanos());
                self.respond(NodeId(token.0 as usize), token.1, reply, rt);
            }
            None => self.report_replayed(rt),
        }
    }

    /// The pending images of replica segment `from` and later ones.
    fn images(&self, from: u64) -> Range<'_, (u64, u64), PendingWrite> {
        let me = server_id(self.index).0 as u64;
        self.pending.range((me, from)..=(me, u64::MAX))
    }

    /// Images every log segment from `from` on onto backups `to`, each a
    /// pending write, after sealing the head (see
    /// [`ServerCounters::unsealed_heads`]). A segment already imaged goes
    /// only to the backups of `to` that neither acked nor await it.
    fn image<R: Runtime<Msg = Msg>>(&mut self, from: SegmentId, to: &[usize], rt: &mut R) {
        if to.is_empty() {
            return;
        }
        self.seal_head();
        let mut tokens = Vec::new();
        let log = self.store.log();
        for id in log.segment_ids().into_iter().filter(|&id| id >= from) {
            let bytes = log.segment(id).expect("listed").as_bytes();
            if bytes.is_empty() {
                continue;
            }
            let token = (server_id(self.index).0 as u64, self.replica_segment(id));
            let image = PendingWrite::new(token.1, bytes, None, rt.now());
            let p = self.pending.entry(token).or_insert(image);
            if p.bytes.len() < bytes.len() {
                p.bytes = Arc::from(bytes); // an unsealed head grew
            }
            tokens.push(token);
        }
        for token in tokens {
            self.replicate_to(token, to, rt);
        }
    }

    /// Re-sends the waiting images of each target that has acked none for
    /// `retry_timeout`, so a slow transfer that is moving is never re-sent.
    /// An update's ack says nothing of an image the backup failed to stage.
    fn redrive_images<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let now = rt.now();
        let quiet = |b: usize| now.saturating_since(self.image_clock[b]) >= self.cfg.retry_timeout;
        let resend: Vec<((u64, u64), usize)> = (self.images(0))
            .flat_map(|(&token, p)| p.waiting.iter().map(move |&b| (token, b)))
            .filter(|&(_, b)| quiet(b))
            .collect();
        self.counters.image_resends += resend.len() as u64;
        for (token, b) in resend {
            self.send_replica(token, b, rt);
        }
    }

    /// Reports each takeover replayed here whose images are all acked: none
    /// of a segment from the first its replay wrote on is pending.
    fn report_replayed<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let acked = |from| self.images(from).next().is_none();
        let durable: Vec<usize> = (self.takeovers.iter())
            .filter(|(_, t)| matches!(t.phase, Phase::Imaging { from } if acked(from)))
            .map(|(&crashed, _)| crashed)
            .collect();
        for crashed in durable {
            let t = self.takeovers.get_mut(&crashed).expect("listed");
            t.phase = Phase::Reported;
            let round = t.round;
            rt.send(coordinator_id(), Msg::TakeOverDone { crashed, round });
        }
    }

    /// Seals the log's head before it is imaged; counts the seal instead
    /// when the log has no segment left to roll into.
    fn seal_head(&mut self) {
        if self.store.seal_head().is_err() {
            self.counters.unsealed_heads += 1;
        }
    }

    fn apply_map_update<R: Runtime<Msg = Msg>>(
        &mut self,
        version: u64,
        owners: Vec<usize>,
        alive: Vec<bool>,
        rt: &mut R,
    ) {
        if version <= self.map_version {
            return;
        }
        self.map_version = version;
        self.owners = owners;
        self.alive = alive;
        self.synced = true;
        // Backup role: fence dead masters, unfence readmitted ones.
        for (m, &up) in self.alive.iter().enumerate() {
            if up {
                self.fenced.remove(&m);
            } else {
                self.fenced.insert(m);
            }
        }
        self.retarget_replication(rt);
    }

    /// Reacts to a map change in the master role: sheds pending writes we
    /// can no longer answer for, and when the replica target set changed,
    /// re-points pending writes and images the log onto the adopted
    /// targets.
    fn retarget_replication<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let me_alive = self.alive[self.index];
        let moved = |p: &PendingWrite| {
            p.answer
                .as_ref()
                .is_some_and(|a| self.owners[a.0] != self.index)
        };
        let shed: Vec<(u64, u64)> = (self.pending.iter())
            .filter(|(_, p)| !me_alive || moved(p))
            .map(|(&t, _)| t)
            .collect();
        for token in shed {
            // No response: the client will retry against the new owner,
            // which recovers (or re-applies idempotently) the op.
            self.pending.remove(&token);
            self.counters.pending_dropped += 1;
        }
        if !me_alive {
            // Declared dead: a takeover replayed here is run again elsewhere,
            // and the images it waited for are shed.
            (self.takeovers).retain(|_, t| !matches!(t.phase, Phase::Imaging { .. }));
            return;
        }
        let targets = self.targets();
        if targets == self.last_targets {
            return;
        }
        self.counters.reseeds += 1;
        let adopted: Vec<usize> = (targets.iter().copied())
            .filter(|b| !self.last_targets.contains(b))
            .collect();
        // Re-point pending writes: a dead target is waited for no more, an
        // adopted one is sent what it lacks, a kept one holds what it got.
        let tokens: Vec<(u64, u64)> = self.pending.keys().copied().collect();
        for token in tokens {
            let p = self.pending.get_mut(&token).expect("present");
            p.waiting.retain(|b| targets.contains(b));
            self.replicate_to(token, &adopted, rt);
            if self.pending[&token].waiting.is_empty() {
                self.complete(token, rt);
            }
        }
        // Image the whole log onto the adopted targets, so that they hold
        // everything, not just future writes.
        self.image(SegmentId(0), &adopted, rt);
        self.last_targets = targets;
    }

    fn begin_takeover<R: Runtime<Msg = Msg>>(
        &mut self,
        crashed: usize,
        buckets: Vec<usize>,
        survivors: Vec<usize>,
        round: u64,
        rt: &mut R,
    ) {
        use std::cmp::Ordering::{Equal, Greater};
        let latest = self.takeovers.get(&crashed);
        match latest.map(|t| (t.round.cmp(&round), &t.phase)) {
            // A newer round replaced this one.
            Some((Greater, _)) => return,
            // A re-sent round in progress: ask again whoever has not
            // answered (the request or its answer may have been lost).
            Some((Equal, Phase::Fetching { awaiting, .. })) => {
                for &s in awaiting {
                    rt.send(server_id(s), Msg::FetchSegments { crashed });
                }
                return;
            }
            // Replayed: the last image ack reports it.
            Some((Equal, Phase::Imaging { .. })) => return,
            // Finished here: its report is lost or still on its way.
            Some((Equal, Phase::Reported)) => {
                return rt.send(coordinator_id(), Msg::TakeOverDone { crashed, round });
            }
            // The first round sent here, or one replacing an older one.
            _ => {}
        }
        // We know the master is dead even if the MapUpdate raced.
        self.fenced.insert(crashed);
        let awaiting: BTreeSet<usize> = (survivors.into_iter())
            .filter(|&s| s != self.index)
            .collect();
        for &s in &awaiting {
            rt.send(server_id(s), Msg::FetchSegments { crashed });
        }
        let done = awaiting.is_empty();
        // Own staged replicas join the pool without a network round trip.
        let collected = self.staged.segments_of(crashed);
        let phase = Phase::Fetching {
            awaiting,
            collected,
        };
        self.takeovers.insert(
            crashed,
            Takeover {
                round,
                buckets,
                phase,
            },
        );
        if done {
            self.finish_takeover(crashed, rt);
        }
    }

    fn absorb_segments<R: Runtime<Msg = Msg>>(
        &mut self,
        crashed: usize,
        from: NodeId,
        segments: Vec<(u64, Vec<u8>)>,
        rt: &mut R,
    ) {
        let Some(survivor) = from.0.checked_sub(1) else {
            return;
        };
        let Some(Phase::Fetching {
            awaiting,
            collected,
        }) = self.takeovers.get_mut(&crashed).map(|t| &mut t.phase)
        else {
            return;
        };
        if !awaiting.remove(&survivor) {
            return; // a repeated answer
        }
        collected.extend(segments);
        if awaiting.is_empty() {
            self.finish_takeover(crashed, rt);
        }
    }

    /// Replays every collected entry that hashes into the assigned buckets.
    /// Replicas overlap (R copies of each segment); `replay_object` /
    /// `replay_tombstone` are version-guarded, so duplicates are no-ops.
    fn finish_takeover<R: Runtime<Msg = Msg>>(&mut self, crashed: usize, rt: &mut R) {
        let t = self.takeovers.get_mut(&crashed).expect("takeover");
        let Phase::Fetching { collected, .. } = &mut t.phase else {
            unreachable!("a takeover is replayed once it has fetched")
        };
        let collected = std::mem::take(collected);
        let bucket_set: BTreeSet<usize> = t.buckets.iter().copied().collect();
        self.counters.replays += 1;
        // What this server holds of these buckets is stale (a write it never
        // had acked before it was declared dead): no replay may lose to it.
        let buckets = self.cfg.buckets;
        (self.store).forget(PROTO_TABLE, |h| bucket_set.contains(&bucket_of(h, buckets)));
        // Replay into fresh segments only, so that the images below repeat
        // nothing the backups hold (a log too full to seal repeats its head:
        // a backup only appends, so that costs room, not data).
        self.seal_head();
        let from = self.store.log().head();
        for (_seg, bytes) in &collected {
            let mut off = 0;
            while off < bytes.len() {
                // A replica recovered from disk may end in a torn or
                // corrupt entry (the storage engine truncates at frame
                // granularity, but a frame can hold a partial entry batch).
                // The prefix up to here is trustworthy; stop, count, and
                // replay what parsed — never panic on disk-sourced bytes.
                let Ok((entry, len)) = LogEntry::parse(&bytes[off..]) else {
                    self.counters.replay_truncations += 1;
                    break;
                };
                off += len;
                let key = match &entry {
                    LogEntry::Object(o) => &o.key,
                    LogEntry::Tombstone(t) => &t.key,
                };
                if !bucket_set.contains(&bucket_for(PROTO_TABLE, key, self.cfg.buckets)) {
                    continue;
                }
                match &entry {
                    LogEntry::Object(o) => self.store.replay_object(o),
                    LogEntry::Tombstone(t) => self.store.replay_tombstone(t),
                }
                .expect("replayed entry fits");
            }
        }
        // Restore durability of the recovered data: image every segment the
        // replay wrote — objects, the tombstones that must travel with them,
        // and completion records — onto this server's own backups, and
        // report the takeover done once each of them is acked.
        self.image(from, &self.targets(), rt);
        let from = self.replica_segment(from);
        self.takeovers.get_mut(&crashed).expect("takeover").phase = Phase::Imaging { from };
        self.report_replayed(rt);
    }
}

// ---------------------------------------------------------------------
// The client half: one core, a script over it
// ---------------------------------------------------------------------

/// Observable event counters on a client (exported into the metrics
/// registry by the engine harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Requests re-sent after a retry timeout.
    pub retries: u64,
    /// Retries issued with a grown (above-base) backoff delay.
    pub backoffs: u64,
    /// Ops abandoned entirely. [`ClientCore`] itself retries forever;
    /// whoever drives it under a budget (the wall-clock `Client` handle)
    /// counts the op it stops waiting for here.
    pub giveups: u64,
    /// Tablet-map refreshes requested from the coordinator.
    pub map_requests: u64,
    /// `WrongOwner` responses received.
    pub wrong_owner: u64,
}

/// The client half of the protocol, written once: routes an op to the
/// owner of its key's bucket, re-sends it with the *same* RIFL sequence
/// number until a usable response arrives — under capped, jittered
/// exponential backoff ([`retry_backoff`]), refreshing the tablet map
/// alongside every retry — and absorbs `WrongOwner` and `MapUpdate`.
///
/// One op is in flight at a time. [`ScriptClient`] feeds it a script on
/// every engine; the wall-clock engines' synchronous `Client` handle feeds
/// it the caller's ops and pumps its inbox until [`ClientCore::on_message`]
/// yields the reply.
#[derive(Debug)]
pub struct ClientCore {
    index: usize,
    cfg: ProtocolConfig,
    owners: Vec<usize>,
    map_version: u64,
    seq: u64,
    /// The op last begun, kept once answered: what a verbatim duplicate
    /// re-sends.
    op: Option<ClientOp>,
    /// Is `op` still waiting for its reply?
    waiting: bool,
    last_sent: SimTime,
    attempt: u32,
    retry_delay: SimDuration,
    /// Event counters.
    pub counters: ClientCounters,
}

impl ClientCore {
    /// Creates the core of client `index`, routing by the initial
    /// round-robin map.
    pub fn new(index: usize, cfg: ProtocolConfig) -> Self {
        ClientCore {
            index,
            owners: (0..cfg.buckets).map(|b| b % cfg.servers).collect(),
            map_version: 0,
            seq: 0,
            op: None,
            waiting: false,
            last_sent: SimTime::ZERO,
            attempt: 0,
            retry_delay: cfg.retry_timeout,
            counters: ClientCounters::default(),
            cfg,
        }
    }

    /// The client's index (its node id is `client_id(servers, index)`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The configuration the client routes and retries by.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The RIFL sequence number of the op last begun.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Is an op still waiting for its reply?
    pub fn waiting(&self) -> bool {
        self.waiting
    }

    /// The event counters in the shape of the servers' and the
    /// coordinator's stats-plane dumps.
    pub fn stats(&self) -> Vec<(String, u64)> {
        stat_pairs(self.stat_rows())
    }

    fn stat_rows(&self) -> Vec<StatRow> {
        let c = &self.counters;
        vec![
            ("retries", Counter, c.retries),
            ("backoffs", Counter, c.backoffs),
            ("giveups", Counter, c.giveups),
            ("map_requests", Counter, c.map_requests),
            ("wrong_owner", Counter, c.wrong_owner),
        ]
    }

    /// Starts `op` under the next sequence number: sends it and arms the
    /// retry timer. The previous op must have been answered or abandoned.
    pub fn begin<R: Runtime<Msg = Msg>>(&mut self, op: ClientOp, rt: &mut R) {
        self.seq += 1;
        self.op = Some(op);
        self.start(rt);
    }

    /// Starts the last op over, verbatim — same sequence number, first
    /// attempt — as a network-duplicated delivery would. `false` if
    /// nothing was ever begun.
    pub fn begin_again<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) -> bool {
        if self.op.is_some() {
            self.start(rt);
        }
        self.op.is_some()
    }

    fn start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.waiting = true;
        self.attempt = 0;
        self.retry_delay = retry_backoff(&self.cfg, self.index, self.seq, 0);
        self.send(rt);
        rt.set_timer(self.retry_delay);
    }

    fn send<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        let op = self.op.clone().expect("an op was begun");
        let owner = self.owners[bucket_for(PROTO_TABLE, op.key(), self.cfg.buckets)];
        self.last_sent = rt.now();
        rt.send(server_id(owner), Msg::Request { seq: self.seq, op });
    }

    /// Handles a response or a map update; returns the reply that
    /// completes the op in flight.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, msg: Msg, rt: &mut R) -> Option<Reply> {
        match msg {
            // A response to another seq is a stale duplicate from an
            // earlier retry.
            Msg::Response { seq, reply } if self.waiting && seq == self.seq => {
                if reply == Reply::WrongOwner {
                    // Routing raced a recovery: ask for a fresh map; the
                    // timer will retry after it lands.
                    self.counters.wrong_owner += 1;
                    self.counters.map_requests += 1;
                    rt.send(coordinator_id(), Msg::MapRequest);
                    return None;
                }
                self.waiting = false;
                Some(reply)
            }
            Msg::MapUpdate {
                version, owners, ..
            } if version > self.map_version => {
                self.map_version = version;
                self.owners = owners;
                None
            }
            _ => None,
        }
    }

    /// Retry tick: re-sends the op in flight (same sequence) once it has
    /// been outstanding for the current backoff delay, then grows the
    /// delay. Re-arms itself while an op is in flight.
    pub fn on_timer<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        if !self.waiting {
            return;
        }
        if rt.now().saturating_since(self.last_sent) >= self.retry_delay {
            self.attempt = self.attempt.saturating_add(1);
            self.counters.retries += 1;
            if self.attempt > 1 {
                self.counters.backoffs += 1;
            }
            self.retry_delay = retry_backoff(&self.cfg, self.index, self.seq, self.attempt);
            // The map may be why we're stuck; refresh it alongside the
            // retry.
            self.counters.map_requests += 1;
            rt.send(coordinator_id(), Msg::MapRequest);
            self.send(rt);
        }
        rt.set_timer(self.retry_delay);
    }

    /// The history record of the op last begun: acked with `reply`, or —
    /// `None` — not yet.
    pub fn record(&self, reply: Option<&Reply>) -> OpRecord {
        let op = self.op.as_ref().expect("an op was begun");
        let kind = match op {
            ClientOp::Put { value, .. } => OpKind::Put(value.clone()),
            ClientOp::Del { .. } => OpKind::Del,
            ClientOp::Get { .. } => OpKind::Get,
        };
        // A reply of the wrong shape is a protocol bug; it records version
        // 0 so the checker flags it.
        let (version, read) = match (&kind, reply) {
            (OpKind::Put(_) | OpKind::Del, Some(Reply::Done { version })) => (*version, None),
            (OpKind::Get, Some(Reply::Value(v))) => (0, Some(v.clone())),
            _ => (0, None),
        };
        OpRecord {
            key: op.key().to_vec(),
            kind,
            acked: reply.is_some(),
            version,
            read,
            retries: u64::from(self.attempt),
        }
    }
}

/// A client that executes a fixed op script, one op at a time, over a
/// [`ClientCore`], recording each reply and the history the invariant
/// checker judges. Used by every engine for the cross-engine equivalence
/// test and the chaos suite.
#[derive(Debug)]
pub struct ScriptClient {
    /// Client index (node id is `client_id(servers, index)`).
    pub index: usize,
    core: ClientCore,
    /// The ops not yet issued.
    script: std::vec::IntoIter<ClientOp>,
    /// Replies recorded per completed op, in script order.
    pub results: Vec<Reply>,
    /// Acked operations in program order, for the invariant checker.
    pub history: Vec<OpRecord>,
    /// True once every scripted op has completed.
    pub done: bool,
}

impl ScriptClient {
    /// Creates client `index` over `script`.
    pub fn new(index: usize, cfg: ProtocolConfig, script: Vec<ClientOp>) -> Self {
        ScriptClient {
            index,
            core: ClientCore::new(index, cfg),
            script: script.into_iter(),
            results: Vec::new(),
            history: Vec::new(),
            done: false,
        }
    }

    /// The recorded history plus, if an op is still in flight, a trailing
    /// unacked record for it — the exact shape
    /// [`check_histories`](rmc_chaos::check_histories) expects.
    pub fn full_history(&self) -> Vec<OpRecord> {
        let mut h = self.history.clone();
        if self.core.waiting() {
            h.push(self.core.record(None));
        }
        h
    }

    /// Issues the first op (called once by the engine).
    pub fn on_start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.issue(rt);
    }

    fn issue<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        match self.script.next() {
            Some(op) => self.core.begin(op, rt),
            None => self.done = true,
        }
    }

    /// Feeds the core; a completed op is recorded and the next one issued.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, _from: NodeId, msg: Msg, rt: &mut R) {
        if let Some(reply) = self.core.on_message(msg, rt) {
            self.history.push(self.core.record(Some(&reply)));
            self.results.push(reply);
            self.issue(rt);
        }
    }

    /// The core's retry tick.
    pub fn on_timer<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        self.core.on_timer(rt);
    }
}

// ---------------------------------------------------------------------
// A cluster node of any role (used by both engine harnesses)
// ---------------------------------------------------------------------

/// What makes a node run a handler: its start, its timer, or a message.
#[derive(Debug)]
pub enum Wake {
    /// The engine boots the node (once per incarnation).
    Start,
    /// The node's one timer deadline came due.
    Timer,
    /// A message arrived from the given node.
    Message(NodeId, Msg),
}

/// One node of the protocol cluster, whatever its role. Engine harnesses
/// hold a `Vec<AnyNode>` indexed by [`NodeId`].
// Variant sizes differ by a few hundred bytes, but there is exactly one
// AnyNode per cluster node — indirection would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyNode {
    /// The coordinator.
    Coordinator(CoordinatorNode),
    /// A server (master + backup).
    Server(Server),
    /// A scripted client.
    Client(ScriptClient),
    /// A closed-loop YCSB client (the paper's figures, under
    /// [`crate::cost`]).
    Ycsb(crate::cost::YcsbClient),
}

impl AnyNode {
    /// Dispatches the engine's start callback.
    pub fn on_start<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        match self {
            AnyNode::Coordinator(n) => n.on_start(rt),
            AnyNode::Server(n) => n.on_start(rt),
            AnyNode::Client(n) => n.on_start(rt),
            AnyNode::Ycsb(n) => n.on_start(rt),
        }
    }

    /// Dispatches a delivered message.
    pub fn on_message<R: Runtime<Msg = Msg>>(&mut self, from: NodeId, msg: Msg, rt: &mut R) {
        match self {
            AnyNode::Coordinator(n) => n.on_message(from, msg, rt),
            AnyNode::Server(n) => n.on_message(from, msg, rt),
            AnyNode::Client(n) => n.on_message(from, msg, rt),
            AnyNode::Ycsb(n) => n.on_message(msg, rt),
        }
    }

    /// Dispatches a timer expiry.
    pub fn on_timer<R: Runtime<Msg = Msg>>(&mut self, rt: &mut R) {
        match self {
            AnyNode::Coordinator(n) => n.on_timer(rt),
            AnyNode::Server(n) => n.on_timer(rt),
            AnyNode::Client(n) => n.on_timer(rt),
            AnyNode::Ycsb(n) => n.core.on_timer(rt),
        }
    }

    /// Runs the handler `wake` calls for: every engine enters a node here.
    pub fn wake<R: Runtime<Msg = Msg>>(&mut self, wake: Wake, rt: &mut R) {
        match wake {
            Wake::Start => self.on_start(rt),
            Wake::Timer => self.on_timer(rt),
            Wake::Message(from, msg) => self.on_message(from, msg, rt),
        }
    }

    /// Files every stat the node reports over the Stats RPC in `reg`, under
    /// `coord.<name>`, `server.<index>.<name>` or `client.<index>.<name>`.
    /// Counters are added (a restarted node keeps counting where its last
    /// incarnation's report stopped), gauges are set.
    pub fn export_stats(&self, reg: &MetricsRegistry) {
        let (family, rows) = match self {
            AnyNode::Coordinator(n) => (reg.family_at("coord."), n.stat_rows()),
            AnyNode::Server(n) => (reg.family("server", n.index), n.stat_rows()),
            AnyNode::Client(n) => (reg.family("client", n.index), n.core.stat_rows()),
            AnyNode::Ycsb(n) => (reg.family("client", n.core.index), n.core.stat_rows()),
        };
        for (name, kind, value) in rows {
            match kind {
                Counter => family.counter(name).add(value),
                Gauge => family.gauge(name).set(value),
            }
        }
    }

    /// Builds the full node set for `cfg` with `scripts[c]` driving client
    /// `c` (clients beyond the script list get empty scripts).
    pub fn build_cluster(cfg: &ProtocolConfig, scripts: Vec<Vec<ClientOp>>) -> Vec<AnyNode> {
        let mut nodes = Vec::with_capacity(1 + cfg.servers + cfg.clients);
        nodes.push(AnyNode::Coordinator(CoordinatorNode::new(cfg.clone())));
        for s in 0..cfg.servers {
            nodes.push(AnyNode::Server(Server::new(s, cfg.clone())));
        }
        let mut scripts = scripts.into_iter();
        for c in 0..cfg.clients {
            let script = scripts.next().unwrap_or_default();
            nodes.push(AnyNode::Client(ScriptClient::new(c, cfg.clone(), script)));
        }
        nodes
    }
}

/// The live `key -> (value, version)` map a set of surviving servers
/// serves, judged by `owners` (only the current owner's copy of a key
/// counts). The invariant checker compares client histories against this.
pub fn live_map_versioned<'a, I>(servers: I, owners: &[usize]) -> BTreeMap<Vec<u8>, (Vec<u8>, u64)>
where
    I: IntoIterator<Item = &'a Server>,
{
    let mut map = BTreeMap::new();
    for server in servers {
        for obj in server.store.live_objects() {
            let bucket = bucket_for(PROTO_TABLE, &obj.key, owners.len());
            if owners[bucket] == server.index {
                map.insert(obj.key.to_vec(), (obj.value.to_vec(), obj.version.0));
            }
        }
    }
    map
}

/// The live `key -> value` map (see [`live_map_versioned`]). This is the
/// artifact the cross-engine equivalence test compares.
pub fn live_map<'a, I>(servers: I, owners: &[usize]) -> BTreeMap<Vec<u8>, Vec<u8>>
where
    I: IntoIterator<Item = &'a Server>,
{
    live_map_versioned(servers, owners)
        .into_iter()
        .map(|(k, (v, _))| (k, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmc_logstore::ObjectRecord;

    #[test]
    fn replica_ring_skips_dead_and_self() {
        let alive = vec![true, false, true, true];
        assert_eq!(replica_targets(0, 4, 2, &alive), vec![2, 3]);
        assert_eq!(replica_targets(2, 4, 2, &alive), vec![3, 0]);
        // Not enough survivors: degrade gracefully.
        let mostly_dead = vec![true, false, false, false];
        assert_eq!(replica_targets(0, 4, 2, &mostly_dead), Vec::<usize>::new());
    }

    #[test]
    fn addressing_is_disjoint() {
        let servers = 3;
        let mut seen = BTreeSet::new();
        seen.insert(coordinator_id());
        for s in 0..servers {
            assert!(seen.insert(server_id(s)));
        }
        for c in 0..4 {
            assert!(seen.insert(client_id(servers, c)));
        }
        assert_eq!(seen.len(), 1 + servers + 4);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for client in 0..4 {
            for seq in 1..10 {
                for attempt in 0..8 {
                    let a = retry_jitter(client, seq, attempt, 1000);
                    let b = retry_jitter(client, seq, attempt, 1000);
                    assert_eq!(a, b);
                    assert!(a < 1000);
                }
            }
        }
        // Different inputs actually spread.
        let distinct: BTreeSet<u64> = (0..32).map(|a| retry_jitter(1, 7, a, 1_000_000)).collect();
        assert!(distinct.len() > 16);
    }

    /// Minimal recording engine for driving a node directly in tests.
    struct TestRt {
        me: NodeId,
        now: SimTime,
        sent: std::cell::RefCell<Vec<(NodeId, Msg)>>,
        timers: Vec<SimDuration>,
    }

    impl TestRt {
        fn new(me: NodeId) -> Self {
            TestRt {
                me,
                now: SimTime::from_millis(1),
                sent: std::cell::RefCell::new(Vec::new()),
                timers: Vec::new(),
            }
        }
        fn drain(&mut self) -> Vec<(NodeId, Msg)> {
            std::mem::take(&mut *self.sent.borrow_mut())
        }
    }

    impl Runtime for TestRt {
        type Msg = Msg;
        fn node(&self) -> NodeId {
            self.me
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&self, to: NodeId, msg: Msg) {
            self.sent.borrow_mut().push((to, msg));
        }
        fn set_timer(&mut self, after: SimDuration) {
            self.timers.push(after);
        }
    }

    /// Keys that hash to buckets owned by server 0 under the initial
    /// round-robin map.
    fn keys_owned_by_zero(cfg: &ProtocolConfig) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..10_000u32)
            .map(|i| format!("k{i}").into_bytes())
            .filter(|key| bucket_for(PROTO_TABLE, key, cfg.buckets).is_multiple_of(cfg.servers))
    }

    fn key_owned_by_zero(cfg: &ProtocolConfig) -> Vec<u8> {
        keys_owned_by_zero(cfg)
            .next()
            .expect("a key owned by server 0")
    }

    /// Delivers `out`, sent by `from`, and everything it sets off among
    /// `servers`, in send order; messages for other nodes are dropped.
    fn deliver(servers: &mut [Server], from: NodeId, out: Vec<(NodeId, Msg)>) {
        deliver_but(servers, from, out, |_, _, _| false);
    }

    /// [`deliver`], losing each message `lose` picks; returns what went to
    /// nodes other than `servers`.
    fn deliver_but(
        servers: &mut [Server],
        from: NodeId,
        out: Vec<(NodeId, Msg)>,
        mut lose: impl FnMut(NodeId, NodeId, &Msg) -> bool,
    ) -> Vec<(NodeId, Msg)> {
        let mut queue: std::collections::VecDeque<_> =
            out.into_iter().map(|(to, msg)| (from, to, msg)).collect();
        let mut others = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            if lose(from, to, &msg) {
                continue;
            }
            let Some(server) = to.0.checked_sub(1).and_then(|i| servers.get_mut(i)) else {
                others.push((to, msg));
                continue;
            };
            let mut rt = TestRt::new(to);
            server.on_message(from, msg, &mut rt);
            queue.extend(rt.drain().into_iter().map(|(next, msg)| (to, next, msg)));
        }
        others
    }

    /// Keys that hash to buckets owned by `owner` under the initial
    /// round-robin map of four servers.
    fn keys_owned_by(cfg: &ProtocolConfig, owner: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..10_000u32)
            .map(|i| format!("k{i}").into_bytes())
            .filter(move |key| bucket_for(PROTO_TABLE, key, cfg.buckets) % cfg.servers == owner)
    }

    /// Three acked puts on master `master`, replicated among `servers`.
    fn three_puts(servers: &mut [Server], cfg: &ProtocolConfig, master: usize) {
        let client = client_id(cfg.servers, 0);
        for (seq, key) in (1..).zip(keys_owned_by(cfg, master).take(3)) {
            let op = ClientOp::Put {
                key,
                value: vec![b'v'; 100],
            };
            let mut rt = TestRt::new(server_id(master));
            servers[master].on_message(client, Msg::Request { seq, op }, &mut rt);
            deliver(servers, server_id(master), rt.drain());
        }
    }

    #[test]
    fn a_takeover_reports_done_only_once_its_images_are_acked() {
        // Server 3 dies; server 0 recovers its buckets and images what it
        // replayed onto its own backups, 1 and 2. Each image is lost once.
        let cfg = ProtocolConfig::new(4, 1, 2);
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        three_puts(&mut servers, &cfg, 3);
        let lost = std::cell::RefCell::new(BTreeSet::new());
        let lose_once = |from: NodeId, to: NodeId, msg: &Msg| match msg {
            Msg::Replicate { segment, .. } if from == server_id(0) => {
                lost.borrow_mut().insert((to, *segment))
            }
            _ => false,
        };
        let takeover = Msg::TakeOver {
            crashed: 3,
            buckets: (3..cfg.buckets).step_by(4).collect(),
            survivors: vec![0, 1, 2],
            round: 1,
        };
        let mut rt = TestRt::new(server_id(0));
        servers[0].on_message(coordinator_id(), takeover, &mut rt);
        let sent = deliver_but(&mut servers, server_id(0), rt.drain(), lose_once);
        let reports = |sent: &[(NodeId, Msg)]| {
            (sent.iter())
                .filter(|(to, m)| *to == coordinator_id() && matches!(m, Msg::TakeOverDone { .. }))
                .count()
        };
        assert_eq!(reports(&sent), 0, "reported before its images were acked");
        // A tick before the backups have been quiet for `retry_timeout`
        // re-sends nothing; the next one re-sends every image.
        let images = lost.borrow().len();
        assert!(images >= 2, "the replay is imaged onto both backups");
        for (after, again) in [(cfg.retry_timeout / 2, false), (cfg.retry_timeout, true)] {
            let mut rt = TestRt::new(server_id(0));
            rt.now += after;
            servers[0].on_timer(&mut rt);
            let out = rt.drain();
            let resent = out
                .iter()
                .filter(|(_, m)| matches!(m, Msg::Replicate { .. }));
            assert_eq!(resent.count(), if again { images } else { 0 });
            let sent = deliver_but(&mut servers, server_id(0), out, lose_once);
            assert_eq!(reports(&sent), usize::from(again), "after {after:?}");
        }
        assert_eq!(servers[0].counters.image_resends, images as u64);
        for backup in [1, 2] {
            let staged = servers[backup].storage().segments_of(0);
            let entries: usize = staged.iter().map(|(_, b)| b.len()).sum();
            assert!(entries > 0, "backup {backup} holds the replay");
        }
    }

    #[test]
    fn a_takeover_replays_past_a_stale_copy_of_what_it_recovers() {
        // Server 0 holds a copy of a key of server 3's that was never acked
        // (as a server declared dead and readmitted may), at the version
        // server 3 then acks its own put of the key at. Server 3 dies and
        // server 0 recovers the key's bucket.
        let cfg = ProtocolConfig::new(4, 1, 2);
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        let key = keys_owned_by(&cfg, 3)
            .next()
            .expect("a key owned by server 3");
        (servers[0].store)
            .write(PROTO_TABLE, &key, b"stale")
            .unwrap();
        let client = client_id(4, 0);
        let op = ClientOp::Put {
            key: key.clone(),
            value: b"acked".to_vec(),
        };
        let mut rt = TestRt::new(server_id(3));
        servers[3].on_message(client, Msg::Request { seq: 1, op }, &mut rt);
        let out = rt.drain();
        let record = replicated(&out, (client.0 as u64, 1))[0].to_vec();
        assert!(answered(
            &deliver_but(&mut servers, server_id(3), out, |_, _, _| false),
            1
        ));
        let takeover = Msg::TakeOver {
            crashed: 3,
            buckets: vec![bucket_for(PROTO_TABLE, &key, cfg.buckets)],
            survivors: vec![0, 1, 2],
            round: 1,
        };
        deliver(
            &mut servers,
            coordinator_id(),
            vec![(server_id(0), takeover)],
        );
        let live = servers[0].store.read(PROTO_TABLE, &key).expect("recovered");
        assert_eq!(&live.value[..], b"acked");
        for backup in [1, 2] {
            let staged = servers[backup].storage().segments_of(0);
            assert!(
                (staged.iter()).any(|(_, b)| b.windows(record.len()).any(|w| w == record)),
                "backup {backup} holds the recovered record"
            );
        }
    }

    #[test]
    fn a_backup_death_images_each_log_onto_the_target_adopted_only() {
        // Four servers, R = 2: master 0 replicates to 1 and 2, master 1 to 2
        // and 3. Server 2 dies: master 0 keeps 1 and adopts 3, master 1
        // keeps 3 and adopts 0.
        let cfg = ProtocolConfig::new(4, 1, 2);
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        for master in [0, 1] {
            three_puts(&mut servers, &cfg, master);
        }
        for (master, kept, adopted) in [(0, 1, 3), (1, 3, 0)] {
            let mut rt = TestRt::new(server_id(master));
            servers[master].on_message(coordinator_id(), without(&cfg, 2), &mut rt);
            let out = rt.drain();
            let to: BTreeSet<NodeId> = (out.iter())
                .filter(|(_, m)| matches!(m, Msg::Replicate { .. }))
                .map(|&(to, _)| to)
                .collect();
            assert_eq!(to, BTreeSet::from([server_id(adopted)]), "master {master}");
            deliver(&mut servers, server_id(master), out);
            // Each target holds the log once: the kept one from the writes,
            // the adopted one from the images.
            let log = servers[master].store.log();
            for backup in [kept, adopted] {
                let staged = servers[backup].storage().segments_of(master);
                assert!(!staged.is_empty());
                for (segment, bytes) in staged {
                    let held = log.segment(SegmentId(segment)).expect("held");
                    assert_eq!(bytes, held.as_bytes(), "master {master}, backup {backup}");
                }
            }
        }
    }

    /// Does `out` answer `seq` with `Done`?
    fn answered(out: &[(NodeId, Msg)], seq: u64) -> bool {
        out.iter().any(
            |(_, m)| matches!(m, Msg::Response { seq: s, reply: Reply::Done { .. } } if *s == seq),
        )
    }

    /// The first map update: server `dead` is dead, ownership unchanged.
    fn without(cfg: &ProtocolConfig, dead: usize) -> Msg {
        let mut alive = vec![true; cfg.servers];
        alive[dead] = false;
        Msg::MapUpdate {
            version: 1,
            owners: (0..cfg.buckets).map(|b| b % cfg.servers).collect(),
            alive,
        }
    }

    #[test]
    fn duplicate_request_replays_the_original_version_and_applies_once() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let client = client_id(3, 0);
        let key = key_owned_by_zero(&cfg);
        let mut server = Server::new(0, cfg.clone());
        let mut rt = TestRt::new(server_id(0));

        let put = ClientOp::Put {
            key: key.clone(),
            value: b"v".to_vec(),
        };
        server.on_message(
            client,
            Msg::Request {
                seq: 1,
                op: put.clone(),
            },
            &mut rt,
        );
        // Two backup replicates out, no response yet.
        let out = rt.drain();
        let token = (client.0 as u64, 1);
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, Msg::Replicate { token: t, .. } if *t == token))
                .count(),
            2
        );
        // Both backups ack; the response carries the assigned version.
        server.on_message(server_id(1), Msg::ReplicateAck { token }, &mut rt);
        server.on_message(server_id(2), Msg::ReplicateAck { token }, &mut rt);
        let out = rt.drain();
        let first_version = match &out[..] {
            [(
                to,
                Msg::Response {
                    seq: 1,
                    reply: Reply::Done { version },
                },
            )] if *to == client => *version,
            other => panic!("expected one Done response, got {other:?}"),
        };
        assert_eq!(first_version, 1);

        // A duplicate *delivery* of the same request (not a timeout retry):
        // same version echoed, nothing re-applied, nothing re-replicated.
        server.on_message(client, Msg::Request { seq: 1, op: put }, &mut rt);
        let out = rt.drain();
        match &out[..] {
            [(
                to,
                Msg::Response {
                    seq: 1,
                    reply: Reply::Done { version },
                },
            )] if *to == client => {
                assert_eq!(*version, first_version);
            }
            other => panic!("expected replayed Done, got {other:?}"),
        }
        assert_eq!(server.counters.rifl_replays, 1);
        assert_eq!(server.store.live_objects().count(), 1);
        let obj = server.store.read(PROTO_TABLE, &key).expect("live");
        assert_eq!(obj.version.0, first_version);
    }

    #[test]
    fn both_replicas_and_a_resend_share_one_buffer() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let client = client_id(3, 0);
        let key = key_owned_by_zero(&cfg);
        let mut server = Server::new(0, cfg);
        let mut rt = TestRt::new(server_id(0));
        let put = ClientOp::Put {
            key,
            value: vec![b'v'; 1000],
        };
        let request = Msg::Request { seq: 1, op: put };
        server.on_message(client, request.clone(), &mut rt);
        let token = (client.0 as u64, 1);
        let out = rt.drain();
        let sent = replicated(&out, token);
        assert_eq!(sent.len(), 2, "one replicate per backup");
        assert!(std::ptr::eq(sent[0], sent[1]), "one copy for both replicas");
        // Neither backup acked: the duplicate re-drives the same buffer.
        server.on_message(client, request, &mut rt);
        let again = rt.drain();
        let resent = replicated(&again, token);
        assert_eq!(resent.len(), 2);
        assert!(resent.iter().all(|b| std::ptr::eq(*b, sent[0])));
        assert_eq!(server.counters.pending_resends, 1);
    }

    #[test]
    fn a_duplicate_get_is_served_afresh_not_replayed() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let (reader, writer) = (client_id(3, 0), client_id(3, 1));
        let key = key_owned_by_zero(&cfg);
        let mut server = Server::new(0, cfg);
        let mut rt = TestRt::new(server_id(0));
        let mut put = |server: &mut Server, seq: u64, value: &[u8]| {
            let op = ClientOp::Put {
                key: key.clone(),
                value: value.to_vec(),
            };
            server.on_message(writer, Msg::Request { seq, op }, &mut rt);
            let token = (writer.0 as u64, seq);
            server.on_message(server_id(1), Msg::ReplicateAck { token }, &mut rt);
            server.on_message(server_id(2), Msg::ReplicateAck { token }, &mut rt);
            assert!(answered(&rt.drain(), seq));
        };
        let get = Msg::Request {
            seq: 1,
            op: ClientOp::Get { key: key.clone() },
        };
        let read = |server: &mut Server| {
            let mut rt = TestRt::new(server_id(0));
            server.on_message(reader, get.clone(), &mut rt);
            match &rt.drain()[..] {
                [(
                    to,
                    Msg::Response {
                        seq: 1,
                        reply: Reply::Value(v),
                    },
                )] if *to == reader => v.clone(),
                other => panic!("expected one value, got {other:?}"),
            }
        };
        put(&mut server, 1, b"old");
        assert_eq!(read(&mut server).as_deref(), Some(&b"old"[..]));
        put(&mut server, 2, b"new");
        // The duplicate reads the key as it is now: a read is idempotent.
        assert_eq!(read(&mut server).as_deref(), Some(&b"new"[..]));
        assert_eq!(server.counters.rifl_replays, 0);
        assert_eq!(server.counters.stale_rifl_drops, 0);
    }

    /// The `Replicate` payloads in `out` that carry `token`.
    fn replicated(out: &[(NodeId, Msg)], token: (u64, u64)) -> Vec<&[u8]> {
        out.iter()
            .filter_map(|(_, m)| match m {
                Msg::Replicate {
                    bytes, token: t, ..
                } if *t == token => Some(&bytes[..]),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_put_replicates_the_bytes_its_log_holds() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let client = client_id(3, 0);
        let key = key_owned_by_zero(&cfg);
        let mut server = Server::new(0, cfg);
        let mut rt = TestRt::new(server_id(0));
        let mut logged = 0;
        for (seq, value) in [(1, &b"first"[..]), (2, &b"second, longer"[..])] {
            let op = ClientOp::Put {
                key: key.clone(),
                value: value.to_vec(),
            };
            server.on_message(client, Msg::Request { seq, op }, &mut rt);
            let token = (client.0 as u64, seq);
            let out = rt.drain();
            let sent = replicated(&out, token);
            assert_eq!(sent.len(), 2, "one replicate per backup");
            // Both writes sit back to back in the head segment: the
            // replica is that record, byte for byte — serialized once.
            let log = server.store.log();
            let head = log.segment(log.head()).expect("head").as_bytes();
            for bytes in sent {
                assert_eq!(bytes, &head[logged..]);
                let (entry, len) = LogEntry::parse(bytes).expect("a whole entry");
                assert_eq!(len, bytes.len());
                let LogEntry::Object(o) = entry else {
                    panic!("{entry:?}")
                };
                assert_eq!((&o.value[..], o.version.0), (value, seq));
                assert_eq!(
                    o.completion,
                    Some(CompletionId {
                        client: token.0,
                        seq
                    })
                );
            }
            logged = head.len();
            server.on_message(server_id(1), Msg::ReplicateAck { token }, &mut rt);
            server.on_message(server_id(2), Msg::ReplicateAck { token }, &mut rt);
            rt.drain();
        }
    }

    #[test]
    fn replicas_are_the_masters_log_segments() {
        // Four servers, R = 2: master 0 replicates to 1 and 2, then to 1 and
        // 3 once 2 is dead. Small segments, so the head rolls.
        let mut cfg = ProtocolConfig::new(4, 1, 2);
        cfg.log.segment_bytes = 1024;
        let client = client_id(4, 0);
        let keys: Vec<Vec<u8>> = keys_owned_by_zero(&cfg).take(6).collect();
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        let mut seq = 0;
        let mut run = |servers: &mut Vec<Server>, op: ClientOp| {
            seq += 1;
            let mut rt = TestRt::new(server_id(0));
            servers[0].on_message(client, Msg::Request { seq, op }, &mut rt);
            deliver(servers, server_id(0), rt.drain());
        };
        let put = |key: &[u8], value: &str| ClientOp::Put {
            key: key.to_vec(),
            value: format!("{value:-<200}").into_bytes(),
        };
        let del = |key: &[u8]| ClientOp::Del { key: key.to_vec() };
        for key in &keys[..4] {
            run(&mut servers, put(key, "first"));
        }
        run(&mut servers, put(&keys[0], "overwritten"));
        run(&mut servers, del(&keys[1]));
        assert!(
            servers[0].store.log().head() > SegmentId(0),
            "the head rolled"
        );
        // Server 2 dies: server 3 is adopted and gets images of the log.
        let mut rt = TestRt::new(server_id(0));
        servers[0].on_message(coordinator_id(), without(&cfg, 2), &mut rt);
        deliver(&mut servers, server_id(0), rt.drain());
        assert_eq!(servers[0].counters.reseeds, 1);
        for key in &keys[4..] {
            run(&mut servers, put(key, "after"));
        }
        run(&mut servers, del(&keys[4]));
        run(&mut servers, put(&keys[2], "overwritten, after"));

        let log = servers[0].store.log();
        let held: Vec<SegmentId> = log
            .segment_ids()
            .into_iter()
            .filter(|&id| !log.segment(id).expect("listed").is_empty())
            .collect();
        for backup in [1, 3] {
            let staged = servers[backup].storage().segments_of(0);
            let ids: Vec<SegmentId> = staged.iter().map(|&(s, _)| SegmentId(s)).collect();
            assert_eq!(ids, held, "backup {backup} stages every log segment");
            for (segment, bytes) in &staged {
                let segment = log.segment(SegmentId(*segment)).expect("held");
                assert_eq!(&bytes[..], segment.as_bytes(), "backup {backup}");
            }
        }
    }

    #[test]
    fn an_image_does_not_erase_a_put_that_overtook_it() {
        let cfg = ProtocolConfig::new(4, 1, 2);
        let client = client_id(4, 0);
        let keys: Vec<Vec<u8>> = keys_owned_by_zero(&cfg).take(4).collect();
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        let put = |seq: u64, key: &[u8]| Msg::Request {
            seq,
            op: ClientOp::Put {
                key: key.to_vec(),
                value: format!("value {seq}").into_bytes(),
            },
        };
        let mut rt = TestRt::new(server_id(0));
        for (seq, key) in (1..).zip(&keys[..3]) {
            servers[0].on_message(client, put(seq, key), &mut rt);
            deliver(&mut servers, server_id(0), rt.drain());
        }
        // Server 2 dies; the images for server 3 are delayed…
        servers[0].on_message(coordinator_id(), without(&cfg, 2), &mut rt);
        let images = rt.drain();
        assert!(images.iter().any(|(to, _)| *to == server_id(3)));
        // …behind the next put, which both backups ack.
        servers[0].on_message(client, put(4, &keys[3]), &mut rt);
        let token = (client.0 as u64, 4);
        let out = rt.drain();
        let record = replicated(&out, token)[0].to_vec();
        let mut acks = Vec::new();
        for (to, msg) in out {
            let mut backup_rt = TestRt::new(to);
            servers[to.0 - 1].on_message(server_id(0), msg, &mut backup_rt);
            acks.extend(backup_rt.drain().into_iter().map(|(_, ack)| (to, ack)));
        }
        for (from, ack) in acks {
            servers[0].on_message(from, ack, &mut rt);
        }
        assert!(answered(&rt.drain(), 4), "the put is acked");
        deliver(&mut servers, server_id(0), images);
        let staged = servers[3].storage().segments_of(0);
        assert!(
            staged
                .iter()
                .any(|(_, bytes)| bytes.windows(record.len()).any(|w| w == record)),
            "the acked put is still staged on its new backup"
        );
    }

    #[test]
    fn a_target_change_with_no_segment_to_roll_into_images_the_open_head() {
        let mut cfg = ProtocolConfig::new(4, 1, 2);
        cfg.log.segment_bytes = 1024;
        cfg.log.max_segments = 8;
        let client = client_id(4, 0);
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        let mut rt = TestRt::new(server_id(0));
        let mut keys = keys_owned_by_zero(&cfg);
        let mut seq = 0;
        let mut put = |servers: &mut Vec<Server>, rt: &mut TestRt| {
            seq += 1;
            let op = ClientOp::Put {
                key: keys.next().expect("a key owned by server 0"),
                value: vec![b'v'; 200],
            };
            servers[0].on_message(client, Msg::Request { seq, op }, rt);
            let out = rt.drain();
            deliver(servers, server_id(0), out.clone());
            answered(&rt.drain(), seq)
                || out.iter().any(|(_, m)| matches!(m, Msg::Replicate { .. }))
        };
        // Distinct keys, all live, until the last free segment is the head.
        while servers[0].store.log().free_segment_slots() > 0 {
            assert!(put(&mut servers, &mut rt));
        }
        // Server 2 dies: the head cannot be sealed, and is imaged open.
        servers[0].on_message(coordinator_id(), without(&cfg, 2), &mut rt);
        deliver(&mut servers, server_id(0), rt.drain());
        assert_eq!(servers[0].counters.reseeds, 1);
        assert_eq!(servers[0].counters.unsealed_heads, 1);
        let log = servers[0].store.log();
        let staged = servers[3].storage().segments_of(0);
        assert_eq!(staged.len(), log.segment_ids().len());
        for (segment, bytes) in &staged {
            let held = log.segment(SegmentId(*segment)).expect("held");
            assert_eq!(&bytes[..], held.as_bytes());
        }
        // Writes go on into the head's remaining room.
        assert!(put(&mut servers, &mut rt));
    }

    #[test]
    fn a_takeover_images_what_it_replayed_past_what_backups_already_hold() {
        // Backup 1 holds more of master 0's segment 0 than master 0's log
        // does now — after a duplicated `Replicate`, or a restart (the new
        // life numbers its log from segment 0 again). Master 0 then recovers
        // server 3's bucket from backup 1: its own backups must end up with
        // the replayed record all the same.
        let cfg = ProtocolConfig::new(4, 1, 2);
        let client = client_id(4, 0);
        let owned_by = |owner: usize| {
            (0..10_000u32)
                .map(|i| format!("k{i}").into_bytes())
                .filter(move |key| bucket_for(PROTO_TABLE, key, cfg.buckets) % 4 == owner)
        };
        for restart in [false, true] {
            let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
            let mut rt = TestRt::new(server_id(0));
            for (seq, key) in (1..).zip(owned_by(0).take(3)) {
                let op = ClientOp::Put {
                    key,
                    value: vec![b'v'; 100],
                };
                servers[0].on_message(client, Msg::Request { seq, op }, &mut rt);
                let out = rt.drain();
                if !restart {
                    deliver(&mut servers, server_id(0), out.clone());
                }
                deliver(&mut servers, server_id(0), out);
            }
            let key = owned_by(3).next().expect("a key owned by server 3");
            let bucket = bucket_for(PROTO_TABLE, &key, cfg.buckets);
            let op = ClientOp::Put {
                key,
                value: b"recovered".to_vec(),
            };
            let mut rt = TestRt::new(server_id(3));
            servers[3].on_message(client, Msg::Request { seq: 1, op }, &mut rt);
            let record = replicated(&rt.drain(), (client.0 as u64, 1))[0].to_vec();
            let replica = Msg::Replicate {
                segment: 0,
                bytes: record.clone().into(),
                token: (client.0 as u64, 1),
            };
            servers[1].on_message(server_id(3), replica, &mut TestRt::new(server_id(1)));
            if restart {
                servers[0] = Server::restarted(0, cfg.clone(), 1);
            }
            let takeover = Msg::TakeOver {
                crashed: 3,
                buckets: vec![bucket],
                survivors: vec![1],
                round: 1,
            };
            deliver(
                &mut servers,
                coordinator_id(),
                vec![(server_id(0), takeover)],
            );
            assert!(servers[0]
                .store
                .read(PROTO_TABLE, &record_key(&record))
                .is_some());
            for backup in [1, 2] {
                let staged = servers[backup].storage().segments_of(0);
                assert!(
                    staged
                        .iter()
                        .any(|(_, bytes)| bytes.windows(record.len()).any(|w| w == record)),
                    "restart {restart}: backup {backup} holds the replayed record"
                );
            }
        }
    }

    /// The key of the serialized object record `bytes`.
    fn record_key(bytes: &[u8]) -> Vec<u8> {
        let (LogEntry::Object(o), _) = LogEntry::parse(bytes).expect("a whole entry") else {
            panic!("not an object")
        };
        o.key.to_vec()
    }

    #[test]
    fn a_redriven_shed_duplicate_replicates_its_own_record_not_the_newer_one() {
        let cfg = ProtocolConfig::new(3, 2, 2);
        let (a, b) = (client_id(3, 0), client_id(3, 1));
        let key = key_owned_by_zero(&cfg);
        let bucket = bucket_for(PROTO_TABLE, &key, cfg.buckets);
        let home: Vec<usize> = (0..cfg.buckets).map(|b| b % cfg.servers).collect();
        let mut away = home.clone();
        away[bucket] = 1;
        let mut server = Server::new(0, cfg);
        let mut rt = TestRt::new(server_id(0));
        let put = |value: &[u8]| Msg::Request {
            seq: 1,
            op: ClientOp::Put {
                key: key.clone(),
                value: value.to_vec(),
            },
        };
        // A's write is applied and waits for its backups…
        server.on_message(a, put(b"from a"), &mut rt);
        // …when the bucket moves away (the pending write is shed without an
        // answer) and back again.
        for (version, owners) in [(1, away), (2, home)] {
            let alive = vec![true; 3];
            let update = Msg::MapUpdate {
                version,
                owners,
                alive,
            };
            server.on_message(coordinator_id(), update, &mut rt);
        }
        assert_eq!(server.counters.pending_dropped, 1);
        // B overwrites the key.
        server.on_message(b, put(b"from b"), &mut rt);
        rt.drain();
        // A retries: its write is not applied twice, and appends nothing —
        // the log position of the key holds B's version 2 by now. What goes
        // to the backups must still be A's own version 1.
        server.on_message(a, put(b"from a"), &mut rt);
        let token = (a.0 as u64, 1);
        let out = rt.drain();
        let sent = replicated(&out, token);
        assert_eq!(sent.len(), 2);
        for bytes in sent {
            let (entry, _) = LogEntry::parse(bytes).expect("a whole entry");
            assert_eq!(
                entry,
                LogEntry::Object(ObjectRecord {
                    table: PROTO_TABLE,
                    key: key.clone().into(),
                    value: b"from a".to_vec().into(),
                    version: rmc_logstore::Version(1),
                    completion: Some(CompletionId {
                        client: token.0,
                        seq: 1
                    }),
                })
            );
        }
        let live = server.store.read(PROTO_TABLE, &key).expect("live");
        assert_eq!((&live.value[..], live.version.0), (&b"from b"[..], 2));
    }

    #[test]
    fn older_duplicate_sequences_are_dropped_not_reapplied() {
        let cfg = ProtocolConfig::new(3, 1, 0); // replication 0: instant acks
        let client = client_id(3, 0);
        let key = key_owned_by_zero(&cfg);
        let mut server = Server::new(0, cfg);
        let mut rt = TestRt::new(server_id(0));

        let put = |v: &[u8]| ClientOp::Put {
            key: key.clone(),
            value: v.to_vec(),
        };
        server.on_message(
            client,
            Msg::Request {
                seq: 1,
                op: put(b"a"),
            },
            &mut rt,
        );
        server.on_message(
            client,
            Msg::Request {
                seq: 2,
                op: put(b"b"),
            },
            &mut rt,
        );
        rt.drain();
        // A late network duplicate of seq 1 must not resurrect value "a":
        // the store's completion record only remembers the *last* seq, so
        // without the RIFL guard this would re-apply.
        server.on_message(
            client,
            Msg::Request {
                seq: 1,
                op: put(b"a"),
            },
            &mut rt,
        );
        assert!(rt.drain().is_empty(), "stale duplicate gets no reply");
        assert_eq!(server.counters.stale_rifl_drops, 1);
        let obj = server.store.read(PROTO_TABLE, &key).expect("live");
        assert_eq!(&obj.value[..], b"b");
        assert_eq!(obj.version.0, 2);
    }

    #[test]
    fn fenced_masters_get_no_acks() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let mut backup = Server::new(1, cfg);
        let mut rt = TestRt::new(server_id(1));
        // Recovery fetches server 0's segments: the fetch itself fences.
        backup.on_message(server_id(2), Msg::FetchSegments { crashed: 0 }, &mut rt);
        rt.drain();
        backup.on_message(
            server_id(0),
            Msg::Replicate {
                segment: 0,
                bytes: vec![1, 2, 3].into(),
                token: (9, 9),
            },
            &mut rt,
        );
        assert!(rt.drain().is_empty(), "no ack for a fenced master");
        assert_eq!(backup.counters.fenced_drops, 1);
    }

    #[test]
    fn client_backoff_grows_and_caps() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let base = cfg.retry_timeout;
        let mut prev = SimDuration::ZERO;
        for attempt in 0..=MAX_BACKOFF_DOUBLINGS {
            let d = retry_backoff(&cfg, 0, 1, attempt);
            assert!(d >= base, "attempt {attempt} below base");
            // Strictly growing while the window doubles (jitter < base/2
            // can never cancel a doubling).
            assert!(d > prev, "attempt {attempt} did not grow");
            prev = d;
        }
        // Past the last doubling every window sits on the plateau, 8 × the
        // base, plus jitter below half the base.
        let plateau = base.mul_f64(8.0);
        for attempt in MAX_BACKOFF_DOUBLINGS + 1..=20 {
            let d = retry_backoff(&cfg, 0, 1, attempt);
            assert!(d >= plateau && d < plateau + base.mul_f64(0.5), "{d}");
        }
        // Jitter is deterministic: the same (client, seq, attempt) always
        // waits the same window, and distinct clients de-synchronize.
        assert_eq!(retry_backoff(&cfg, 1, 7, 3), retry_backoff(&cfg, 1, 7, 3));
        assert_ne!(retry_backoff(&cfg, 0, 7, 3), retry_backoff(&cfg, 1, 7, 3));
    }

    /// A retry timeout is a floor on the first retry's window, however
    /// large it is set.
    #[test]
    fn a_retry_timeout_above_the_old_cap_is_honoured() {
        let mut cfg = ProtocolConfig::new(3, 2, 2);
        cfg.retry_timeout = SimDuration::from_secs(5);
        for (client, seq) in [(0, 1), (1, 1), (0, 7), (1, 42)] {
            let d = retry_backoff(&cfg, client, seq, 0);
            assert!(d >= cfg.retry_timeout, "client {client} seq {seq}: {d}");
        }
    }

    /// The client half, driven directly: what every engine's client does
    /// about a lost response, a `WrongOwner` and a map update.
    #[test]
    fn client_core_retries_with_a_stable_seq_and_follows_the_map() {
        let cfg = ProtocolConfig::new(3, 1, 2);
        let key = key_owned_by_zero(&cfg);
        let mut rt = TestRt::new(client_id(3, 0));
        let mut core = ClientCore::new(0, cfg.clone());
        let op = ClientOp::Get { key: key.clone() };
        let request = Msg::Request {
            seq: 1,
            op: op.clone(),
        };
        core.begin(op, &mut rt);
        assert_eq!(rt.drain(), vec![(server_id(0), request.clone())]);
        let first = retry_backoff(&cfg, 0, 1, 0);
        assert_eq!(rt.timers, vec![first]);

        // A tick before the window ends re-arms and re-sends nothing.
        core.on_timer(&mut rt);
        assert!(rt.drain().is_empty());
        // The response was dropped: once the window has passed the same
        // seq goes out again, with a map refresh beside it.
        rt.now += first;
        core.on_timer(&mut rt);
        assert_eq!(
            rt.drain(),
            vec![
                (coordinator_id(), Msg::MapRequest),
                (server_id(0), request.clone())
            ]
        );
        // The second miss waits a grown window.
        let second = retry_backoff(&cfg, 0, 1, 1);
        assert!(second > first);
        assert_eq!(rt.timers.last(), Some(&second));
        rt.now += second;
        core.on_timer(&mut rt);
        assert_eq!(rt.drain().len(), 2);
        assert_eq!((core.counters.retries, core.counters.backoffs), (2, 1));

        // `WrongOwner` asks for one fresh map and completes nothing.
        let wrong = Msg::Response {
            seq: 1,
            reply: Reply::WrongOwner,
        };
        assert_eq!(core.on_message(wrong, &mut rt), None);
        assert_eq!(rt.drain(), vec![(coordinator_id(), Msg::MapRequest)]);
        assert_eq!(core.counters.wrong_owner, 1);
        assert!(core.waiting());

        // A newer map re-routes the next send; an older one does not.
        let map = |version, owner| Msg::MapUpdate {
            version,
            owners: vec![owner; cfg.buckets],
            alive: vec![true; 3],
        };
        assert_eq!(core.on_message(map(2, 2), &mut rt), None);
        assert_eq!(core.on_message(map(1, 1), &mut rt), None);
        rt.now += retry_backoff(&cfg, 0, 1, 2);
        core.on_timer(&mut rt);
        assert_eq!(rt.drain()[1], (server_id(2), request));

        // A response to another seq is stale; the op's own completes it,
        // once.
        let reply = |seq| Msg::Response {
            seq,
            reply: Reply::Value(None),
        };
        assert_eq!(core.on_message(reply(7), &mut rt), None);
        assert_eq!(core.on_message(reply(1), &mut rt), Some(Reply::Value(None)));
        assert_eq!(core.on_message(reply(1), &mut rt), None);
        assert!(!core.waiting());
        assert_eq!(core.counters.map_requests, 4);
        assert_eq!(core.counters.giveups, 0);
    }

    #[test]
    fn coordinator_detects_restarts_and_ignores_zombie_epochs() {
        let cfg = ProtocolConfig::new(3, 0, 1);
        let mut coord = CoordinatorNode::new(cfg);
        let mut rt = TestRt::new(coordinator_id());
        coord.on_start(&mut rt);
        // Server 0 restarts (epoch 1): its old incarnation must be
        // recovered even though the failure detector never fired.
        coord.on_message(
            server_id(0),
            Msg::Heartbeat {
                epoch: 1,
                map_version: 0,
            },
            &mut rt,
        );
        assert_eq!(coord.counters.restarts_detected, 1);
        assert!(!coord.is_alive(0));
        assert!(coord.recovery_pending());
        let out = rt.drain();
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Msg::TakeOver { crashed: 0, .. })),
            "restart triggers recovery of the old incarnation"
        );
        // A zombie beacon from the old incarnation is rejected.
        coord.on_message(
            server_id(0),
            Msg::Heartbeat {
                epoch: 0,
                map_version: 0,
            },
            &mut rt,
        );
        assert_eq!(coord.counters.stale_heartbeats, 1);
    }

    #[test]
    fn a_stalled_round_is_resent_until_a_server_it_counts_on_dies() {
        let cfg = ProtocolConfig::new(4, 0, 1);
        let mut coord = CoordinatorNode::new(cfg);
        let mut rt = TestRt::new(coordinator_id());
        coord.on_start(&mut rt);
        let beat = |coord: &mut CoordinatorNode, rt: &mut TestRt, s: usize, epoch| {
            let hb = Msg::Heartbeat {
                epoch,
                map_version: 0,
            };
            coord.on_message(server_id(s), hb, rt);
        };
        beat(&mut coord, &mut rt, 0, 1); // server 0 restarted
        let takeovers = |rt: &mut TestRt| -> Vec<(usize, Vec<usize>, u64)> {
            (rt.drain().into_iter())
                .filter_map(|(to, m)| match m {
                    Msg::TakeOver { buckets, round, .. } => Some((to.0 - 1, buckets, round)),
                    _ => None,
                })
                .collect()
        };
        let first = takeovers(&mut rt);
        assert_eq!(first.len(), 3);
        let (done, _, round) = first[0].clone();
        let report = Msg::TakeOverDone { crashed: 0, round };
        coord.on_message(server_id(done), report, &mut rt);

        // 200 ms on, every survivor alive: the same round goes again to the
        // two recovery masters that have not reported.
        for _ in 0..20 {
            rt.now += SimDuration::from_millis(10);
            (1..4).for_each(|s| beat(&mut coord, &mut rt, s, 0));
            coord.on_timer(&mut rt);
        }
        let again = takeovers(&mut rt);
        assert_eq!(again, first[1..].to_vec());
        assert_eq!(coord.counters.recovery_retries, 0);

        // Server 3 falls silent and is declared dead: the round is
        // re-issued over servers 1 and 2.
        for _ in 0..30 {
            rt.now += SimDuration::from_millis(10);
            (1..3).for_each(|s| beat(&mut coord, &mut rt, s, 0));
            coord.on_timer(&mut rt);
        }
        assert!(!coord.is_alive(3));
        assert_eq!(coord.counters.recovery_retries, 1);
        let reissued = takeovers(&mut rt);
        let of_0: Vec<_> = reissued.iter().filter(|t| t.2 > round).collect();
        assert!(of_0.iter().all(|t| t.0 == 1 || t.0 == 2), "{reissued:?}");
    }

    #[test]
    fn a_recovery_master_asks_again_or_reports_again_for_a_resent_round() {
        // Server 0 dies with three acked puts staged on servers 1 and 2.
        // Server 1 recovers them and images its replay onto its own
        // backups, 2 and 3.
        let cfg = ProtocolConfig::new(4, 1, 2);
        let mut servers: Vec<Server> = (0..4).map(|i| Server::new(i, cfg.clone())).collect();
        three_puts(&mut servers, &cfg, 0);
        let takeover = || Msg::TakeOver {
            crashed: 0,
            buckets: (0..cfg.buckets).step_by(4).collect(),
            survivors: vec![1, 2, 3],
            round: 4,
        };
        let fetches = |out: &[(NodeId, Msg)]| -> Vec<NodeId> {
            (out.iter())
                .filter(|(_, m)| matches!(m, Msg::FetchSegments { crashed: 0 }))
                .map(|&(to, _)| to)
                .collect()
        };
        let reports = |out: &[(NodeId, Msg)]| {
            (out.iter())
                .filter(|(to, m)| {
                    *to == coordinator_id() && matches!(m, Msg::TakeOverDone { round: 4, .. })
                })
                .count()
        };
        let mut rt = TestRt::new(server_id(1));
        servers[1].on_message(coordinator_id(), takeover(), &mut rt);
        assert_eq!(fetches(&rt.drain()), vec![server_id(2), server_id(3)]);
        // Re-sent while neither has answered: ask both again.
        servers[1].on_message(coordinator_id(), takeover(), &mut rt);
        assert_eq!(fetches(&rt.drain()), vec![server_id(2), server_id(3)]);
        let data = |servers: &[Server], s: usize| Msg::SegmentData {
            crashed: 0,
            segments: servers[s].storage().segments_of(0),
        };
        assert!(!servers[2].storage().segments_of(0).is_empty());
        for s in [2, 3] {
            let answer = data(&servers, s);
            servers[1].on_message(server_id(s), answer, &mut rt);
        }
        let images = rt.drain();
        let imaged: BTreeSet<NodeId> = (images.iter())
            .filter(|(_, m)| matches!(m, Msg::Replicate { .. }))
            .map(|&(to, _)| to)
            .collect();
        assert_eq!(imaged, BTreeSet::from([server_id(2), server_id(3)]));
        assert_eq!(reports(&images), 0, "reported before its images were acked");
        // Re-sent while the images are unacked: no one is left to ask and
        // nothing is reported yet.
        servers[1].on_message(coordinator_id(), takeover(), &mut rt);
        assert_eq!(rt.drain(), vec![]);
        // The acks report it, once.
        let sent = deliver_but(&mut servers, server_id(1), images, |_, _, _| false);
        assert_eq!(reports(&sent), 1);
        // A late repeated answer changes nothing; a re-sent finished round
        // is reported again without fetching.
        let answer = data(&servers, 2);
        servers[1].on_message(server_id(2), answer, &mut rt);
        assert_eq!(rt.drain(), vec![]);
        servers[1].on_message(coordinator_id(), takeover(), &mut rt);
        let out = rt.drain();
        assert_eq!((reports(&out), fetches(&out).len()), (1, 0));
    }

    #[test]
    fn a_stale_round_gets_no_report_while_a_newer_round_runs() {
        let cfg = ProtocolConfig::new(3, 0, 1);
        let mut rm = Server::new(1, cfg);
        let mut rt = TestRt::new(server_id(1));
        let takeover = |round| Msg::TakeOver {
            crashed: 0,
            buckets: vec![0, 1],
            survivors: vec![1, 2],
            round,
        };
        let nothing = || Msg::SegmentData {
            crashed: 0,
            segments: Vec::new(),
        };
        // Round 4 finishes here: there was nothing to replay.
        rm.on_message(coordinator_id(), takeover(4), &mut rt);
        rm.on_message(server_id(2), nothing(), &mut rt);
        let done = |round| (coordinator_id(), Msg::TakeOverDone { crashed: 0, round });
        assert_eq!(rt.drain().last(), Some(&done(4)));
        // Round 5 replaces it. A late copy of round 4 is stale while round 5
        // fetches, and once it has finished.
        rm.on_message(coordinator_id(), takeover(5), &mut rt);
        let fetch = (server_id(2), Msg::FetchSegments { crashed: 0 });
        assert_eq!(rt.drain(), vec![fetch]);
        rm.on_message(coordinator_id(), takeover(4), &mut rt);
        assert_eq!(rt.drain(), vec![], "a replaced round is not reported");
        rm.on_message(server_id(2), nothing(), &mut rt);
        assert_eq!(rt.drain().last(), Some(&done(5)));
        rm.on_message(coordinator_id(), takeover(4), &mut rt);
        assert_eq!(rt.drain(), vec![]);
    }

    #[test]
    fn coordinator_readmits_after_recovery_completes() {
        let cfg = ProtocolConfig::new(3, 0, 1);
        let buckets = cfg.buckets;
        let mut coord = CoordinatorNode::new(cfg);
        let mut rt = TestRt::new(coordinator_id());
        coord.on_start(&mut rt);
        coord.on_message(
            server_id(0),
            Msg::Heartbeat {
                epoch: 1,
                map_version: 0,
            },
            &mut rt,
        );
        // Collect the TakeOvers and complete them.
        let takeovers: Vec<(usize, Vec<usize>, u64)> = rt
            .drain()
            .into_iter()
            .filter_map(|(to, m)| match m {
                Msg::TakeOver { buckets, round, .. } => Some((to.0 - 1, buckets, round)),
                _ => None,
            })
            .collect();
        assert!(!takeovers.is_empty());
        for (owner, _, round) in takeovers {
            let done = Msg::TakeOverDone { crashed: 0, round };
            coord.on_message(server_id(owner), done, &mut rt);
        }
        assert!(!coord.recovery_pending());
        // The next heartbeat of the new incarnation readmits it
        // bucket-less.
        coord.on_message(
            server_id(0),
            Msg::Heartbeat {
                epoch: 1,
                map_version: 0,
            },
            &mut rt,
        );
        assert_eq!(coord.counters.readmissions, 1);
        assert!(coord.is_alive(0));
        let owners = coord.owners();
        assert_eq!(owners.len(), buckets);
        assert!(
            owners.iter().all(|&o| o != 0),
            "readmitted server owns nothing"
        );
    }

    /// Drains `rt` and answers every TakeOver with its TakeOverDone.
    fn complete_takeovers(coord: &mut CoordinatorNode, rt: &mut TestRt) {
        let takeovers: Vec<(usize, usize, u64)> = rt
            .drain()
            .into_iter()
            .filter_map(|(to, m)| match m {
                Msg::TakeOver { crashed, round, .. } => Some((to.0 - 1, crashed, round)),
                _ => None,
            })
            .collect();
        for (owner, crashed, round) in takeovers {
            coord.on_message(server_id(owner), Msg::TakeOverDone { crashed, round }, rt);
        }
    }

    #[test]
    fn whole_fleet_restart_defers_then_recovers_the_last_server() {
        // Both servers of a 2-server cluster cold-restart at once. The
        // second restart cannot be declared dead immediately (no survivor
        // would remain), but its old incarnation must still be recovered
        // once the first one's recovery completes.
        let cfg = ProtocolConfig::new(2, 0, 1);
        let mut coord = CoordinatorNode::new(cfg);
        let mut rt = TestRt::new(coordinator_id());
        coord.on_start(&mut rt);
        let hb = |coord: &mut CoordinatorNode, rt: &mut TestRt, s: usize| {
            coord.on_message(
                server_id(s),
                Msg::Heartbeat {
                    epoch: 1,
                    map_version: 0,
                },
                rt,
            );
        };
        hb(&mut coord, &mut rt, 0);
        assert!(!coord.is_alive(0), "first restart recovered eagerly");
        hb(&mut coord, &mut rt, 1);
        assert!(
            coord.is_alive(1),
            "last server must not be declared dead with no survivor left"
        );
        assert_eq!(coord.counters.restarts_deferred, 1);
        assert!(coord.recovery_pending(), "deferred restart counts as owed");

        complete_takeovers(&mut coord, &mut rt);
        hb(&mut coord, &mut rt, 0); // readmit server 0
        assert!(coord.is_alive(0));
        assert!(
            coord.recovery_pending(),
            "server 1's old incarnation is still owed"
        );

        // The timer retries the parked restart, now with a survivor.
        coord.on_timer(&mut rt);
        assert!(!coord.is_alive(1), "deferred declaration went through");
        complete_takeovers(&mut coord, &mut rt);
        hb(&mut coord, &mut rt, 1); // readmit server 1
        assert!(coord.is_alive(1));
        assert!(!coord.recovery_pending());
        assert_eq!(coord.counters.readmissions, 2);
        assert_eq!(coord.counters.restarts_detected, 2);
    }

    /// A coordinator over `servers` servers and `buckets` buckets that has
    /// declared server `dead` dead (it restarted) and sent its will out.
    fn coordinator_without(
        servers: usize,
        buckets: usize,
        dead: usize,
        rt: &mut TestRt,
    ) -> CoordinatorNode {
        let mut cfg = ProtocolConfig::new(servers, 0, 1);
        cfg.buckets = buckets;
        let mut coord = CoordinatorNode::new(cfg);
        coord.on_start(rt);
        let restarted = Msg::Heartbeat {
            epoch: 1,
            map_version: 0,
        };
        coord.on_message(server_id(dead), restarted, rt);
        coord
    }

    #[test]
    fn buckets_distributed_uniformly() {
        let mut cfg = ProtocolConfig::new(4, 0, 1);
        cfg.buckets = 1024;
        let c = CoordinatorNode::new(cfg);
        let mut counts = [0usize; 4];
        for &owner in c.owners() {
            counts[owner] += 1;
        }
        assert!(counts.iter().all(|&n| n == 256), "{counts:?}");
    }

    #[test]
    fn owner_lookup_consistent() {
        let mut cfg = ProtocolConfig::new(5, 0, 1);
        cfg.buckets = 100;
        let c = CoordinatorNode::new(cfg);
        let owner_of = |key: &[u8]| c.owners()[bucket_for(PROTO_TABLE, key, 100)];
        let o1 = owner_of(b"some-key");
        let o2 = owner_of(b"some-key");
        assert_eq!(o1, o2);
        assert!(o1 < 5);
    }

    #[test]
    fn a_declared_death_marks_the_victim_alone_dead() {
        let mut rt = TestRt::new(coordinator_id());
        let c = coordinator_without(3, 9, 1, &mut rt);
        assert!(!c.is_alive(1));
        let alive: Vec<usize> = (0..3).filter(|&s| c.is_alive(s)).collect();
        assert_eq!(alive, vec![0, 2]);
    }

    #[test]
    fn will_spreads_over_survivors() {
        let mut rt = TestRt::new(coordinator_id());
        coordinator_without(4, 16, 0, &mut rt);
        let will: Vec<(usize, usize)> = (rt.drain().into_iter())
            .filter_map(|(to, m)| match m {
                Msg::TakeOver { buckets, .. } => Some((to.0 - 1, buckets)),
                _ => None,
            })
            .flat_map(|(owner, buckets)| buckets.into_iter().map(move |b| (b, owner)))
            .collect();
        assert_eq!(will.len(), 4); // buckets 0,4,8,12
        let owners: Vec<usize> = will.iter().map(|&(_, o)| o).collect();
        assert!(owners.iter().all(|&o| o != 0), "dead master excluded");
        // Round-robin across 3 survivors: at least 2 distinct owners here.
        let mut distinct = owners.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn reassign_restores_availability() {
        let mut rt = TestRt::new(coordinator_id());
        let mut c = coordinator_without(2, 4, 0, &mut rt);
        assert!(!c.is_alive(c.owners()[0]), "bucket 0 is down");
        assert!(c.is_alive(c.owners()[1]));
        complete_takeovers(&mut c, &mut rt);
        assert!(c.is_alive(c.owners()[0]), "bucket 0 is back");
        assert_eq!(c.owners()[0], 1);
    }
}
