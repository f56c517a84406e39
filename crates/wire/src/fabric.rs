//! [`WireFabric`]: the cluster protocol's transport over real TCP sockets.
//!
//! One `WireFabric` is one node's NIC: it owns the node's listener (if the
//! node listens), its [`ConnectionPool`], the reader threads that decode
//! every socket straight into the node's inbox — a channel of
//! [`Event`]s, the same item the in-process channel fabric delivers, so
//! one node loop serves both — and a [`DelayLine`] backing
//! `Runtime::send_after` (which is how chaos plans inject message *delay*
//! at the wire; its thread exists only once a plan has delayed something).
//!
//! `post` stamps the [`SpanKind::Send`] side of RPC span propagation and
//! the reader threads stamp [`SpanKind::Deliver`] — each exactly once per
//! message — so a request's timeline crosses process boundaries on the
//! shared wall clock of each process.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rmc_core::protocol::Msg;
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::{
    Clock, DelayLine, Event, MetricsRegistry, NodeId, SimDuration, SimTime, WallClock,
};

use crate::codec;
use crate::frame::{encode_frame, FrameKind, FrameReader};
use crate::pool::{AddressBook, ConnectionPool, WireMetrics};

/// Poll granularity for the acceptor thread.
const POLL: Duration = Duration::from_millis(2);

/// Everything needed to start a fabric.
#[derive(Debug)]
pub struct FabricConfig {
    /// This node's id.
    pub me: NodeId,
    /// Listen addresses of the cluster's listening nodes.
    pub book: AddressBook,
    /// This node's own listener (`None` for client nodes, which are
    /// reachable only over connections they dial).
    pub listener: Option<TcpListener>,
    /// Where `wire.*` metrics land (shared across a test cluster, or the
    /// process's registry under `rmcd`).
    pub registry: MetricsRegistry,
    /// Where send/deliver span events land.
    pub spans: SpanRecorder,
    /// The clock `now()` reads (shared across an in-process cluster so
    /// span timelines are comparable).
    pub clock: Arc<WallClock>,
}

/// One node's TCP NIC: listener, connection pool, reader threads, delay
/// line, and the observability chokepoints.
#[derive(Debug)]
pub struct WireFabric {
    me: NodeId,
    clock: Arc<WallClock>,
    registry: MetricsRegistry,
    spans: SpanRecorder,
    metrics: WireMetrics,
    pool: ConnectionPool,
    inbox_tx: Sender<Event<Msg>>,
    delay: DelayLine<(NodeId, Msg)>,
    shutdown: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Read-half clones of every socket a reader thread blocks on, so
    /// shutdown can unblock them all.
    reader_socks: Mutex<Vec<TcpStream>>,
}

impl WireFabric {
    /// Starts the fabric's threads and returns it with the node's inbox.
    pub fn start(cfg: FabricConfig) -> (Arc<WireFabric>, Receiver<Event<Msg>>) {
        let (inbox_tx, inbox_rx) = unbounded();
        let metrics = WireMetrics::new(&cfg.registry);
        let me = cfg.me;
        let fabric = Arc::new_cyclic(|weak: &Weak<WireFabric>| {
            let (weak, sender) = (weak.clone(), weak.clone());
            let delay = DelayLine::new(format!("wire-delay-{me}"), move |(to, msg)| {
                if let Some(fabric) = sender.upgrade() {
                    fabric.post_now(to, msg);
                }
            });
            let pool = ConnectionPool::new(
                me,
                cfg.book,
                metrics.clone(),
                encode_frame(FrameKind::Hello, &codec::encode_hello(me)).expect("tiny hello"),
                Box::new(move |stream| {
                    if let Some(fabric) = weak.upgrade() {
                        fabric.spawn_reader(stream);
                    }
                }),
            );
            WireFabric {
                me,
                clock: cfg.clock,
                registry: cfg.registry,
                spans: cfg.spans,
                metrics,
                pool,
                inbox_tx,
                delay,
                shutdown: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
                reader_socks: Mutex::new(Vec::new()),
            }
        });
        if let Some(listener) = cfg.listener {
            let f = Arc::clone(&fabric);
            fabric.track(
                thread::Builder::new()
                    .name(format!("wire-accept-{me}"))
                    .spawn(move || f.accept_loop(listener))
                    .expect("spawn acceptor"),
            );
        }
        (fabric, inbox_rx)
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The fabric's wall clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The registry the fabric's `wire.*` metrics live in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The fabric's span recorder (cheap clone; shares the event store).
    pub fn spans(&self) -> SpanRecorder {
        self.spans.clone()
    }

    fn track(&self, handle: JoinHandle<()>) {
        self.threads.lock().expect("threads lock").push(handle);
    }

    /// Sends `msg` to `to`, holding it on the delay line for `extra`
    /// first when nonzero. This is the engine's send chokepoint: it
    /// stamps the [`SpanKind::Send`] span and frames + encodes the
    /// message for the pool.
    pub fn post(&self, to: NodeId, msg: Msg, extra: SimDuration) {
        if extra.is_zero() {
            self.post_now(to, msg);
        } else {
            self.delay
                .send_after(Duration::from_nanos(extra.as_nanos()), (to, msg));
        }
    }

    /// Pushes `event` into this node's own inbox, behind whatever the
    /// sockets already delivered — how a harness (or `rmcd`'s stdin
    /// watcher) hands the node loop [`Event::Kill`] / [`Event::Shutdown`].
    pub fn deliver(&self, event: Event<Msg>) {
        let _ = self.inbox_tx.send(event);
    }

    fn post_now(&self, to: NodeId, msg: Msg) {
        msg.record_span(&self.spans, SpanKind::Send, self.me, to, self.now());
        let payload = codec::encode_msg(self.me, &msg);
        match encode_frame(FrameKind::Msg, &payload) {
            Ok(bytes) => {
                self.pool.send_bytes(to, &bytes);
            }
            Err(_) => {
                // An oversize message cannot be framed: drop it, exactly
                // like a NIC refusing a jumbo datagram. Protocol retries
                // will not help, but neither would crashing the node.
                self.metrics.decode_errors.incr();
            }
        }
    }

    /// Asks the process behind `to` for its TimeTrace dump; the answer
    /// arrives as [`Event::TraceReply`].
    pub fn send_trace_request(&self, to: NodeId) {
        let payload = codec::encode_trace_request(self.me);
        if let Ok(bytes) = encode_frame(FrameKind::TraceRequest, &payload) {
            self.pool.send_bytes(to, &bytes);
        }
    }

    /// Answers a trace request from `to` with `text`.
    pub fn send_trace_reply(&self, to: NodeId, text: &str) {
        let payload = codec::encode_trace_reply(self.me, text);
        if let Ok(bytes) = encode_frame(FrameKind::TraceReply, &payload) {
            self.pool.send_bytes(to, &bytes);
        }
    }

    /// Severs every pooled connection without stopping the fabric: the
    /// next send to each peer re-dials (under backoff). Chaos and
    /// reconnect tests use this to model connection death mid-exchange —
    /// the RIFL exactly-once guarantee must hold across it.
    pub fn drop_connections(&self) {
        self.pool.close_all();
    }

    /// Stops every fabric thread and closes every socket. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.delay.close();
        self.pool.close_all();
        for sock in self.reader_socks.lock().expect("socks lock").drain(..) {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = self
            .threads
            .lock()
            .expect("threads lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn spawn_reader(self: &Arc<Self>, stream: TcpStream) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            self.reader_socks.lock().expect("socks lock").push(clone);
        }
        let f = Arc::clone(self);
        self.track(
            thread::Builder::new()
                .name(format!("wire-read-{}", self.me))
                .spawn(move || f.reader_loop(stream))
                .expect("spawn wire reader"),
        );
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(false);
                    self.spawn_reader(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(_) => thread::sleep(POLL),
            }
        }
    }

    fn reader_loop(self: Arc<Self>, mut stream: TcpStream) {
        let mut frames = FrameReader::new();
        let mut buf = vec![0u8; 64 * 1024];
        'conn: loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            frames.feed(&buf[..n]);
            loop {
                match frames.next_frame() {
                    Ok(None) => break,
                    Ok(Some(frame)) => {
                        if !self.handle_frame(frame, &stream) {
                            break 'conn;
                        }
                    }
                    Err(_) => {
                        // Framing lost: there is no way to resynchronize
                        // a byte stream whose boundaries are gone. Count
                        // and drop the connection; the pool will re-dial.
                        self.metrics.decode_errors.incr();
                        break 'conn;
                    }
                }
            }
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Processes one reassembled frame; returns `false` when the
    /// connection should close (shutdown in progress).
    fn handle_frame(&self, frame: crate::frame::Frame, stream: &TcpStream) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.metrics.frames_rx.incr();
        match frame.kind {
            FrameKind::Hello => match codec::decode_hello(&frame.payload) {
                Ok(peer) => {
                    // The dialer's socket becomes our pooled route back to
                    // it: replies multiplex over the connection the
                    // requests arrive on.
                    if let Ok(write_half) = stream.try_clone() {
                        self.pool.adopt(peer, write_half);
                    }
                }
                Err(_) => self.metrics.decode_errors.incr(),
            },
            FrameKind::Msg => match codec::decode_msg(&frame.payload) {
                Ok((from, msg)) => {
                    msg.record_span(&self.spans, SpanKind::Deliver, from, self.me, self.now());
                    self.deliver(Event::Msg { from, msg });
                }
                Err(_) => self.metrics.decode_errors.incr(),
            },
            FrameKind::TraceRequest => match codec::decode_trace_request(&frame.payload) {
                Ok(from) => self.deliver(Event::TraceRequest { from }),
                Err(_) => self.metrics.decode_errors.incr(),
            },
            FrameKind::TraceReply => match codec::decode_trace_reply(&frame.payload) {
                Ok((from, text)) => self.deliver(Event::TraceReply { from, text }),
                Err(_) => self.metrics.decode_errors.incr(),
            },
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    type Pair = (
        Arc<WireFabric>,
        Receiver<Event<Msg>>,
        Arc<WireFabric>,
        Receiver<Event<Msg>>,
    );

    fn loopback_pair() -> Pair {
        pair_with_client(NodeId(1))
    }

    fn pair_with_client(client_id: NodeId) -> Pair {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let registry = MetricsRegistry::new();
        let spans = SpanRecorder::default();
        let clock = Arc::new(WallClock::new());
        let book = AddressBook::new(vec![Some(addr)]);
        let (server, server_rx) = WireFabric::start(FabricConfig {
            me: NodeId(0),
            book: book.clone(),
            listener: Some(listener),
            registry: registry.clone(),
            spans: spans.clone(),
            clock: Arc::clone(&clock),
        });
        let (client, client_rx) = WireFabric::start(FabricConfig {
            me: client_id,
            book,
            listener: None,
            registry,
            spans,
            clock,
        });
        (server, server_rx, client, client_rx)
    }

    #[test]
    fn request_and_reply_multiplex_over_one_dialed_connection() {
        let (server, server_rx, client, client_rx) = loopback_pair();
        client.post(NodeId(0), Msg::StatsRequest, SimDuration::ZERO);
        let got = server_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("request arrives");
        match got {
            Event::Msg {
                from,
                msg: Msg::StatsRequest,
            } => assert_eq!(from, NodeId(1)),
            other => panic!("unexpected inbound {other:?}"),
        }
        // The reply flows back over the connection the request arrived on
        // (the client has no listener to dial).
        server.post(
            NodeId(1),
            Msg::StatsReply {
                stats: vec![("x".into(), 7)],
            },
            SimDuration::ZERO,
        );
        match client_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("reply arrives")
        {
            Event::Msg {
                from,
                msg: Msg::StatsReply { stats },
            } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(stats, vec![("x".to_owned(), 7)]);
            }
            other => panic!("unexpected inbound {other:?}"),
        }
        let registry = server.registry().clone();
        assert!(registry.get("wire.connects") >= 1);
        assert!(registry.get("wire.frames_tx") >= 2);
        assert!(registry.get("wire.frames_rx") >= 2);
        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn trace_request_round_trips() {
        let (server, server_rx, client, client_rx) = loopback_pair();
        client.send_trace_request(NodeId(0));
        match server_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("trace request arrives")
        {
            Event::TraceRequest { from } => {
                assert_eq!(from, NodeId(1));
                server.send_trace_reply(from, "trace dump text");
            }
            other => panic!("unexpected inbound {other:?}"),
        }
        match client_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("trace reply arrives")
        {
            Event::TraceReply { from, text } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(text, "trace dump text");
            }
            other => panic!("unexpected inbound {other:?}"),
        }
        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn send_after_rides_the_delay_line() {
        let (server, server_rx, client, _client_rx) = loopback_pair();
        let start = Instant::now();
        client.post(NodeId(0), Msg::MapRequest, SimDuration::from_millis(40));
        match server_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("delayed message arrives")
        {
            Event::Msg {
                msg: Msg::MapRequest,
                ..
            } => {}
            other => panic!("unexpected inbound {other:?}"),
        }
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "delay line must actually delay"
        );
        client.shutdown();
        server.shutdown();
    }

    /// An undelayed fabric has no delay-line thread to wake up; the first
    /// delayed post creates it, under the name the benchmark classes by.
    #[cfg(target_os = "linux")]
    #[test]
    fn delay_thread_exists_only_after_a_delayed_post() {
        let has_delay_thread = || {
            std::fs::read_dir("/proc/self/task")
                .expect("own task list")
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .any(|comm| comm.trim() == "wire-delay-n777")
        };
        let (server, server_rx, client, _client_rx) = pair_with_client(NodeId(777));
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        let _ = server_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            !has_delay_thread(),
            "idle fabric must not own a delay thread"
        );
        client.post(NodeId(0), Msg::MapRequest, SimDuration::from_millis(1));
        let _ = server_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(has_delay_thread());
        client.shutdown();
        assert!(!has_delay_thread(), "shutdown joins the delay thread");
        server.shutdown();
    }

    #[test]
    fn spans_stamp_wire_send_and_deliver() {
        let (server, server_rx, client, client_rx) = loopback_pair();
        client.post(
            NodeId(0),
            Msg::Request {
                seq: 1,
                op: rmc_core::protocol::ClientOp::Get { key: b"k".to_vec() },
            },
            SimDuration::ZERO,
        );
        let _ = server_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        server.post(
            NodeId(1),
            Msg::Response {
                seq: 1,
                reply: rmc_core::protocol::Reply::Value(None),
            },
            SimDuration::ZERO,
        );
        let _ = client_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let spans = client.spans();
        let kinds: Vec<(SpanKind, &str)> =
            spans.events().iter().map(|e| (e.kind, e.label)).collect();
        for needed in [
            (SpanKind::Send, "request"),
            (SpanKind::Deliver, "request"),
            (SpanKind::Send, "response"),
            (SpanKind::Deliver, "response"),
        ] {
            assert!(kinds.contains(&needed), "missing {needed:?}");
        }
        client.shutdown();
        server.shutdown();
    }
}
