//! [`WireFabric`]: the cluster protocol's transport over real TCP sockets.
//!
//! A node's inbox *is* its sockets. [`WireFabric::start`] returns the
//! shared handle every thread may hold and the [`WireInbox`] exactly one
//! thread owns; that thread — a cluster's node loop, `rmcd`'s main thread,
//! a synchronous client's caller — reads and writes the node's sockets
//! itself, from one readiness loop inside [`WireInbox::recv`]. No thread
//! exists per connection or per listener, and nothing is handed from one
//! thread to another between the socket and the handler.
//!
//! One loop turn: route what was posted since the last turn into the
//! per-connection out-buffers (dialing lazily, under per-peer backoff),
//! write each buffer once (however many frames it holds), `poll(2)` the
//! waker, the listener and every connection, accept, read, reassemble,
//! decode, and queue the decoded [`Event`]s — the same item the in-process
//! channel fabric delivers, so one node loop serves both.
//!
//! Connections are bidirectional: when node A dials node B, B reads A's
//! `Hello` frame and adopts that socket as *its* route to A — replies
//! multiplex back over the socket the request arrived on, which is how
//! listener-less nodes (clients) receive responses at all. Adoption only
//! changes which socket is *written*: when two nodes dial each other at
//! once both sockets stay open, one per direction, each readable until its
//! own EOF.
//!
//! Delivery may silently fail, like a NIC: a failed dial, a peer in
//! backoff, a peer with no route, or a connection whose backlog outgrew
//! `MAX_BACKLOG` *drops the message* — exactly the guarantee
//! [`rmc_runtime::Runtime::send`] documents, and why the protocol carries
//! its own acks and retries.
//!
//! [`WireFabric::post`] stamps the [`SpanKind::Send`] side of RPC span
//! propagation and the loop stamps [`SpanKind::Deliver`] as it decodes —
//! each exactly once per message, the latter on the thread that will
//! handle the message — so a request's timeline crosses process
//! boundaries on the shared wall clock of each process.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use rmc_core::protocol::Msg;
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::{
    CounterHandle, DelayLine, Event, MetricsRegistry, NodeId, SimDuration, SimTime, WallClock,
};

use crate::codec;
use crate::frame::{encode_frame, Frame, FrameKind, FrameReader, MAX_PAYLOAD};

/// First-failure backoff; doubles per consecutive failure up to
/// [`BACKOFF_CAP`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(10);
/// Ceiling on the per-peer reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(640);
/// Bound on a single blocking dial (loopback dials resolve in
/// microseconds; a dead-but-routable address must not hang the sender).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Most bytes taken off one socket per loop turn (level-triggered `poll`
/// reports the rest on the next turn, after the other sockets had theirs).
const READ_CHUNK: usize = 64 * 1024;
/// Most unsent bytes one connection may hold. A peer that stops reading
/// costs its connection (counted as `wire.backlog_drops`), never the
/// sender's memory or its loop; four maximal frames is room for any burst
/// the protocol produces between two reads of a live peer.
const MAX_BACKLOG: usize = 4 * MAX_PAYLOAD;

/// `NodeId -> SocketAddr` for the nodes that listen (coordinator and
/// servers); client nodes are reachable only over connections they
/// themselves dialed.
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    addrs: Vec<Option<SocketAddr>>,
}

impl AddressBook {
    /// Builds the book; index `i` is the address of `NodeId(i)` (`None`
    /// for nodes without a listener).
    pub fn new(addrs: Vec<Option<SocketAddr>>) -> Self {
        AddressBook { addrs }
    }

    /// The listen address of `node`, if it has one.
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.get(node.0).copied().flatten()
    }
}

/// The `wire.*` health counters, registered in a [`MetricsRegistry`] so
/// they surface in snapshot diffs next to the protocol's own counters.
#[derive(Debug, Clone)]
pub struct WireMetrics {
    /// First successful dial to a peer.
    pub connects: CounterHandle,
    /// Successful re-dial after a connection was lost.
    pub reconnects: CounterHandle,
    /// Frames accepted by a connection's out-buffer.
    pub frames_tx: CounterHandle,
    /// Frames read and reassembled from a socket.
    pub frames_rx: CounterHandle,
    /// Frames that failed to reassemble or decode (counted, then skipped;
    /// lost framing also costs the connection).
    pub decode_errors: CounterHandle,
    /// Connections dropped because their peer let `MAX_BACKLOG`
    /// (4 × [`MAX_PAYLOAD`]) unsent bytes pile up.
    pub backlog_drops: CounterHandle,
    /// Peers with a live route (gauge; per NIC — in a registry shared by
    /// several fabrics the last writer wins).
    pub pool_size: CounterHandle,
}

impl WireMetrics {
    /// Registers the `wire.*` handles in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        WireMetrics {
            connects: registry.counter("wire.connects"),
            reconnects: registry.counter("wire.reconnects"),
            frames_tx: registry.counter("wire.frames_tx"),
            frames_rx: registry.counter("wire.frames_rx"),
            decode_errors: registry.counter("wire.decode_errors"),
            backlog_drops: registry.counter("wire.backlog_drops"),
            pool_size: registry.gauge("wire.pool_size"),
        }
    }
}

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

/// What any thread may leave for the inbox's owner to pick up on its next
/// loop turn.
#[derive(Debug, Default)]
struct Mailbox {
    /// Framed messages awaiting a route, in post order.
    frames: Vec<(NodeId, Vec<u8>)>,
    /// Events pushed by [`WireFabric::deliver`].
    events: Vec<Event<Msg>>,
    /// [`WireFabric::drop_connections`] was called.
    drop_connections: bool,
    /// [`WireFabric::shutdown`] was called.
    closed: bool,
}

/// The shareable half of one node's TCP NIC: the send chokepoint, the
/// delay line, and the observability handles. The sockets themselves live
/// in the node's [`WireInbox`].
#[derive(Debug)]
pub struct WireFabric {
    me: NodeId,
    clock: Arc<WallClock>,
    registry: MetricsRegistry,
    spans: SpanRecorder,
    metrics: WireMetrics,
    delay: DelayLine<(NodeId, Msg)>,
    mailbox: Mutex<Mailbox>,
    /// Written (one byte) to get the owner out of `poll` when another
    /// thread left something in the mailbox.
    waker: UnixStream,
}

impl WireFabric {
    /// Builds the node's NIC: the handle to post on and the inbox whose
    /// owner drives the sockets. Starts no thread.
    pub fn start(cfg: FabricConfig) -> (Arc<WireFabric>, WireInbox) {
        let me = cfg.me;
        let (waker_tx, waker_rx) = UnixStream::pair().expect("waker socket pair");
        waker_tx.set_nonblocking(true).expect("nonblocking waker");
        waker_rx.set_nonblocking(true).expect("nonblocking waker");
        if let Some(listener) = &cfg.listener {
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
        }
        let fabric = Arc::new_cyclic(|weak: &Weak<WireFabric>| {
            let sender = weak.clone();
            let delay = DelayLine::new(format!("wire-delay-{me}"), move |(to, msg)| {
                if let Some(fabric) = sender.upgrade() {
                    fabric.post_now(to, msg);
                    fabric.wake();
                }
            });
            WireFabric {
                me,
                clock: cfg.clock,
                metrics: WireMetrics::new(&cfg.registry),
                registry: cfg.registry,
                spans: cfg.spans,
                delay,
                mailbox: Mutex::default(),
                waker: waker_tx,
            }
        });
        let inbox = WireInbox {
            fabric: Arc::clone(&fabric),
            book: cfg.book,
            hello: encode_frame(FrameKind::Hello, &codec::encode_hello(me)).expect("tiny hello"),
            listener: cfg.listener,
            waker: waker_rx,
            conns: Vec::new(),
            next_conn: 0,
            peers: HashMap::new(),
            ready: VecDeque::new(),
            posted: Vec::new(),
            pollfds: Vec::new(),
            buf: vec![0u8; READ_CHUNK],
            closed: false,
        };
        (fabric, inbox)
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

    fn mailbox(&self) -> std::sync::MutexGuard<'_, Mailbox> {
        self.mailbox.lock().expect("no mailbox holder panics")
    }

    /// Gets the inbox owner out of `poll`. A full waker socket means a
    /// wake-up is already pending, and a closed one that the inbox is
    /// gone: neither is an error.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }

    /// Sends `msg` to `to`, holding it on the delay line for `extra`
    /// first when nonzero. This is the engine's send chokepoint: it
    /// stamps the [`SpanKind::Send`] span and frames + encodes the
    /// message.
    ///
    /// By contract this is the inbox owner's call: the frame goes out on
    /// the owner's next [`WireInbox::recv`], with everything else posted
    /// in between, and no wake-up is spent on it.
    pub fn post(&self, to: NodeId, msg: Msg, extra: SimDuration) {
        if extra.is_zero() {
            self.post_now(to, msg);
        } else {
            self.delay
                .send_after(Duration::from_nanos(extra.as_nanos()), (to, msg));
        }
    }

    /// Pushes `event` into this node's own inbox and wakes its owner —
    /// how a harness (or `rmcd`'s stdin watcher) hands the node loop
    /// [`Event::Kill`] / [`Event::Shutdown`] from another thread.
    pub fn deliver(&self, event: Event<Msg>) {
        self.mailbox().events.push(event);
        self.wake();
    }

    fn post_now(&self, to: NodeId, msg: Msg) {
        msg.record_span(&self.spans, SpanKind::Send, self.me, to, self.now());
        let payload = codec::encode_msg(self.me, &msg);
        self.post_frame(to, FrameKind::Msg, &payload);
    }

    fn post_frame(&self, to: NodeId, kind: FrameKind, payload: &[u8]) {
        match encode_frame(kind, payload) {
            Ok(bytes) => {
                let mut mailbox = self.mailbox();
                if !mailbox.closed {
                    mailbox.frames.push((to, bytes));
                }
            }
            Err(_) => {
                // An oversize message cannot be framed: drop it, exactly
                // like a NIC refusing a jumbo datagram. Protocol retries
                // will not help, but neither would crashing the node.
                self.metrics.decode_errors.incr();
            }
        }
    }

    /// Asks the process behind `to` for its span dump; the answer arrives
    /// as [`Event::TraceReply`].
    pub fn send_trace_request(&self, to: NodeId) {
        let payload = codec::encode_trace_request(self.me);
        self.post_frame(to, FrameKind::TraceRequest, &payload);
    }

    /// Answers a trace request from `to` with `text`.
    pub fn send_trace_reply(&self, to: NodeId, text: &str) {
        let payload = codec::encode_trace_reply(self.me, text);
        self.post_frame(to, FrameKind::TraceReply, &payload);
    }

    /// Severs every connection without stopping the fabric: the next send
    /// to each peer re-dials. Chaos and reconnect tests use this to model
    /// connection death mid-exchange — the RIFL exactly-once guarantee
    /// must hold across it. Takes effect on the owner's next loop turn,
    /// ahead of anything posted but not yet written.
    pub fn drop_connections(&self) {
        self.mailbox().drop_connections = true;
        self.wake();
    }

    /// Stops the delay line and tells the inbox to close the listener and
    /// every socket, which it does on its owner's next loop turn (or when
    /// it is dropped, whichever comes first). Idempotent.
    pub fn shutdown(&self) {
        self.delay.close();
        let mut mailbox = self.mailbox();
        mailbox.closed = true;
        mailbox.frames.clear();
        drop(mailbox);
        self.wake();
    }
}

/// One open socket of the node.
#[derive(Debug)]
struct Conn {
    /// What a peer's route names it by; never reused.
    id: u64,
    stream: TcpStream,
    frames: FrameReader,
    /// Frames accepted for this socket; `out[sent..]` is still unwritten.
    out: Vec<u8>,
    sent: usize,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.sent
    }
}

/// What the node knows about reaching one peer.
#[derive(Debug, Default)]
struct Peer {
    /// The connection written for this peer. Always names an open one:
    /// [`WireInbox::retire`] clears it with the connection.
    route: Option<u64>,
    /// Set after the first successful dial: later successes count as
    /// reconnects.
    ever_connected: bool,
    /// Next backoff window to apply on a dial failure.
    backoff: Option<Duration>,
    /// Dials before this instant are skipped (message dropped).
    retry_at: Option<Instant>,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Waits until one of `fds` is ready or `deadline` passes (at once when it
/// already has; for as long as it takes when there is none), filling in
/// each `revents`.
fn poll_until(fds: &mut [PollFd], deadline: Option<Instant>) {
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout_ms);
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    loop {
        // Rounded *up*: rounding a sub-millisecond wait down to 0 would
        // spin until the deadline.
        let ms = deadline.map_or(-1, |deadline| {
            let left = deadline.saturating_duration_since(Instant::now());
            i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // `PollFd`s laid out as `struct pollfd` (int, short, short), and the
        // call reads and writes exactly `fds.len()` of them, for the
        // duration of the call only. libc is already linked by std.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if n >= 0 {
            return;
        }
        let err = std::io::Error::last_os_error();
        // A signal is not readiness: wait out what is left.
        assert!(
            err.kind() == ErrorKind::Interrupted,
            "poll over {} descriptors: {err}",
            fds.len()
        );
    }
}

/// The owning half of one node's TCP NIC: listener, connections, routes,
/// and the readiness loop that turns them into [`Event`]s. Dropping it
/// closes every socket.
#[derive(Debug)]
pub struct WireInbox {
    fabric: Arc<WireFabric>,
    book: AddressBook,
    /// Written first on every dialed connection: names this node.
    hello: Vec<u8>,
    listener: Option<TcpListener>,
    waker: UnixStream,
    conns: Vec<Conn>,
    next_conn: u64,
    peers: HashMap<usize, Peer>,
    /// Decoded and injected events not yet handed out.
    ready: VecDeque<Event<Msg>>,
    /// The mailbox's frame list is swapped with this one, so neither side
    /// allocates per turn.
    posted: Vec<(NodeId, Vec<u8>)>,
    pollfds: Vec<PollFd>,
    buf: Vec<u8>,
    closed: bool,
}

impl WireInbox {
    /// Takes the next event, driving the node's sockets for at most
    /// `timeout` while there is none — without limit when `timeout` is
    /// beyond what the clock can express (`Duration::MAX`): everything
    /// posted so far is written out before the wait begins.
    ///
    /// # Errors
    ///
    /// `Timeout` when nothing arrived in time; `Disconnected` once the
    /// fabric was shut down and its last events were handed out.
    pub fn recv(&mut self, timeout: Duration) -> Result<Event<Msg>, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(event) = self.ready.pop_front() {
                return Ok(event);
            }
            if self.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            self.turn(deadline);
            if self.ready.is_empty() && deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// One turn of the readiness loop, waiting for readiness until
    /// `deadline` at the latest (`None`: until something is ready).
    fn turn(&mut self, deadline: Option<Instant>) {
        self.take_mailbox();
        if self.closed {
            return;
        }
        self.flush();
        self.pollfds.clear();
        let watch = |fd: i32, events: i16| PollFd {
            fd,
            events,
            revents: 0,
        };
        self.pollfds.push(watch(self.waker.as_raw_fd(), POLLIN));
        for conn in &self.conns {
            let want_out = if conn.backlog() > 0 { POLLOUT } else { 0 };
            self.pollfds
                .push(watch(conn.stream.as_raw_fd(), POLLIN | want_out));
        }
        if let Some(listener) = &self.listener {
            self.pollfds.push(watch(listener.as_raw_fd(), POLLIN));
        }
        // Injected events are already waiting: look at the sockets, but
        // do not wait for them.
        let deadline = if self.ready.is_empty() {
            deadline
        } else {
            Some(Instant::now())
        };
        poll_until(&mut self.pollfds, deadline);

        if self.pollfds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!(self.waker.read(&mut sink), Ok(n) if n > 0) {}
        }
        // `POLLOUT` needs no handling here: the next turn's flush writes.
        let polled = self.conns.len();
        let mut dead = Vec::new();
        for i in 0..polled {
            if self.pollfds[1 + i].revents & !POLLOUT != 0 && !self.read_conn(i) {
                dead.push(self.conns[i].id);
            }
        }
        if self.pollfds.get(1 + polled).is_some_and(|l| l.revents != 0) {
            self.accept();
        }
        for id in dead {
            self.retire(id);
        }
    }

    /// Empties the fabric's mailbox: severs or closes if asked to, queues
    /// injected events, and routes posted frames to their connections.
    fn take_mailbox(&mut self) {
        let (drop_connections, closed) = {
            let mut mailbox = self.fabric.mailbox();
            self.ready.extend(mailbox.events.drain(..));
            std::mem::swap(&mut mailbox.frames, &mut self.posted);
            (
                std::mem::take(&mut mailbox.drop_connections),
                mailbox.closed,
            )
        };
        if drop_connections || closed {
            self.conns.clear();
            for peer in self.peers.values_mut() {
                peer.route = None;
            }
            self.note_routes();
        }
        if closed {
            self.closed = true;
            self.listener = None;
            self.posted.clear();
        }
        let mut posted = std::mem::take(&mut self.posted);
        for (to, frame) in posted.drain(..) {
            self.route(to, &frame);
        }
        self.posted = posted;
    }

    /// Appends `frame` to the out-buffer of `to`'s connection, dialing
    /// one if there is none. No route, a failed or backed-off dial, or a
    /// full backlog drops the frame.
    fn route(&mut self, to: NodeId, frame: &[u8]) {
        let routed = self.peers.get(&to.0).and_then(|p| p.route);
        let Some(id) = routed.or_else(|| self.dial(to)) else {
            return;
        };
        let conn = self
            .conns
            .iter_mut()
            .find(|c| c.id == id)
            .expect("a route names an open connection");
        if conn.backlog() + frame.len() > MAX_BACKLOG {
            self.fabric.metrics.backlog_drops.incr();
            self.retire(id);
            return;
        }
        conn.out.extend_from_slice(frame);
        self.fabric.metrics.frames_tx.incr();
    }

    /// Dials `to` unless it has no listener or is backing off; the new
    /// connection opens with this node's `Hello`.
    fn dial(&mut self, to: NodeId) -> Option<u64> {
        let addr = self.book.get(to)?;
        let peer = self.peers.entry(to.0).or_default();
        if peer.retry_at.is_some_and(|at| Instant::now() < at) {
            return None;
        }
        let dialed = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .and_then(|stream| stream.set_nonblocking(true).map(|()| stream));
        let Ok(stream) = dialed else {
            let backoff = peer.backoff.unwrap_or(BACKOFF_FLOOR);
            peer.retry_at = Some(Instant::now() + backoff);
            peer.backoff = Some((backoff * 2).min(BACKOFF_CAP));
            return None;
        };
        let metrics = &self.fabric.metrics;
        if peer.ever_connected {
            metrics.reconnects.incr();
        } else {
            metrics.connects.incr();
        }
        peer.ever_connected = true;
        metrics.frames_tx.incr(); // the hello
        let id = self.open(stream, self.hello.clone());
        self.adopt(to, id);
        Some(id)
    }

    /// Registers `stream` (already non-blocking) as an open connection
    /// that still has `out` to write.
    fn open(&mut self, stream: TcpStream, out: Vec<u8>) -> u64 {
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.push(Conn {
            id,
            stream,
            frames: FrameReader::new(),
            out,
            sent: 0,
        });
        id
    }

    /// Makes connection `id` the one written for `peer`. Whatever socket
    /// was written before stays open and readable until its own EOF: when
    /// two nodes dial each other at once, closing the older socket would
    /// be each side killing the other's dial.
    fn adopt(&mut self, peer: NodeId, id: u64) {
        let slot = self.peers.entry(peer.0).or_default();
        slot.route = Some(id);
        slot.retry_at = None;
        slot.backoff = None;
        self.note_routes();
    }

    fn note_routes(&self) {
        let live = self.peers.values().filter(|p| p.route.is_some()).count();
        self.fabric.metrics.pool_size.set(live as u64);
    }

    /// Closes connection `id` and forgets any route over it, so the next
    /// frame for that peer re-dials instead of vanishing into a dead
    /// socket.
    fn retire(&mut self, id: u64) {
        self.conns.retain(|c| c.id != id);
        for peer in self.peers.values_mut() {
            if peer.route == Some(id) {
                peer.route = None;
            }
        }
        self.note_routes();
    }

    /// Writes every connection's pending output, once each: whatever was
    /// posted to one peer since the last turn leaves in one `write`. A
    /// short write keeps the rest for when `poll` reports `POLLOUT`.
    fn flush(&mut self) {
        let mut dead = Vec::new();
        for conn in &mut self.conns {
            if conn.backlog() == 0 {
                continue;
            }
            match conn.stream.write(&conn.out[conn.sent..]) {
                Ok(n) => conn.sent += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => dead.push(conn.id),
            }
            if conn.backlog() == 0 {
                conn.out.clear();
                conn.out.shrink_to(READ_CHUNK);
                conn.sent = 0;
            }
        }
        for id in dead {
            self.retire(id);
        }
    }

    /// Takes every pending connection off the listener.
    fn accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.open(stream, Vec::new());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock`: none left. Anything else (a connection
                // reset in the queue, descriptors exhausted) is not worth
                // spinning on: `poll` reports the listener again.
                Err(_) => break,
            }
        }
    }

    /// Reads connection `i` once and handles every frame that completes.
    /// `false` when the connection is finished: EOF, a socket error, or
    /// lost framing.
    fn read_conn(&mut self, i: usize) -> bool {
        let n = match self.conns[i].stream.read(&mut self.buf) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) => return matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        };
        self.conns[i].frames.feed(&self.buf[..n]);
        loop {
            let Conn { id, frames, .. } = &mut self.conns[i];
            let conn = *id;
            // Decoded where it was read: the payload is a slice of the
            // connection's buffer, which the next read compacts.
            let inbound = match frames.next_frame() {
                Ok(None) => return true,
                Ok(Some(frame)) => decode(&self.fabric, frame),
                Err(_) => {
                    // Framing lost: there is no way to resynchronize a
                    // byte stream whose boundaries are gone. Count and
                    // drop the connection; the peer will re-dial.
                    self.fabric.metrics.decode_errors.incr();
                    return false;
                }
            };
            match inbound {
                // The dialer's socket becomes our route back to it: replies
                // multiplex over the connection the requests arrive on.
                Ok(Inbound::Hello(peer)) => self.adopt(peer, conn),
                Ok(Inbound::Event(event)) => self.ready.push_back(event),
                Err(_) => self.fabric.metrics.decode_errors.incr(),
            }
        }
    }
}

/// What one frame asks of the node.
enum Inbound {
    /// A dialer named itself.
    Hello(NodeId),
    /// Something to hand out.
    Event(Event<Msg>),
}

/// Decodes one reassembled frame, counting it.
fn decode(fabric: &WireFabric, frame: Frame<'_>) -> Result<Inbound, codec::CodecError> {
    fabric.metrics.frames_rx.incr();
    let payload = frame.payload;
    let event = match frame.kind {
        FrameKind::Hello => return codec::decode_hello(payload).map(Inbound::Hello),
        FrameKind::Msg => codec::decode_msg(payload).map(|(from, msg)| {
            msg.record_span(
                &fabric.spans,
                SpanKind::Deliver,
                from,
                fabric.me,
                fabric.now(),
            );
            Event::Msg { from, msg }
        }),
        FrameKind::TraceRequest => {
            codec::decode_trace_request(payload).map(|from| Event::TraceRequest { from })
        }
        FrameKind::TraceReply => {
            codec::decode_trace_reply(payload).map(|(from, text)| Event::TraceReply { from, text })
        }
    };
    event.map(Inbound::Event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmc_core::protocol::{ClientOp, Reply};

    type Nic = (Arc<WireFabric>, WireInbox);

    const SOON: Duration = Duration::from_secs(5);

    /// A fabric for node `me` over `book`, all on one registry.
    fn nic(
        me: NodeId,
        book: &AddressBook,
        listener: Option<TcpListener>,
        registry: &MetricsRegistry,
    ) -> Nic {
        WireFabric::start(FabricConfig {
            me,
            book: book.clone(),
            listener,
            registry: registry.clone(),
            spans: SpanRecorder::default(),
            clock: Arc::new(WallClock::new()),
        })
    }

    /// `n` loopback listeners and the book naming them `NodeId(0..n)`.
    fn listeners(n: usize) -> (Vec<TcpListener>, AddressBook) {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs = listeners
            .iter()
            .map(|l| Some(l.local_addr().expect("addr")))
            .collect();
        (listeners, AddressBook::new(addrs))
    }

    /// A listening server `NodeId(0)` and a dial-only client `client_id`
    /// on one registry.
    fn pair_with_client(client_id: NodeId) -> (Nic, Nic) {
        let (mut listeners, book) = listeners(1);
        let registry = MetricsRegistry::new();
        let server = nic(NodeId(0), &book, listeners.pop(), &registry);
        (server, nic(client_id, &book, None, &registry))
    }

    fn loopback_pair() -> (Nic, Nic) {
        pair_with_client(NodeId(1))
    }

    /// The next event of `inbox`, while also turning `other`'s loop: two
    /// fabrics driven from one thread only move while both are pumped.
    fn recv_from(inbox: &mut WireInbox, other: &mut WireInbox) -> Event<Msg> {
        let until = Instant::now() + SOON;
        loop {
            other.turn(Some(Instant::now()));
            match inbox.recv(Duration::from_millis(1)) {
                Ok(event) => return event,
                Err(e) => assert!(Instant::now() < until, "nothing arrived: {e:?}"),
            }
        }
    }

    /// Pumps both loops until `done` holds.
    fn pump_until(
        a: &mut WireInbox,
        b: &mut WireInbox,
        mut done: impl FnMut(&WireInbox, &WireInbox) -> bool,
    ) {
        let until = Instant::now() + SOON;
        while !done(a, b) {
            assert!(Instant::now() < until, "never got there");
            a.turn(Some(Instant::now()));
            b.turn(Some(Instant::now() + Duration::from_millis(1)));
        }
    }

    /// Turns `inbox`'s loop alone until `done` holds.
    fn turn_until(inbox: &mut WireInbox, mut done: impl FnMut(&WireInbox) -> bool) {
        let until = Instant::now() + SOON;
        while !done(inbox) {
            assert!(Instant::now() < until, "never got there");
            inbox.turn(Some(Instant::now() + Duration::from_millis(1)));
        }
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .expect("own fd list")
            .count()
    }

    #[test]
    fn request_and_reply_multiplex_over_one_dialed_connection() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.post(NodeId(0), Msg::StatsRequest, SimDuration::ZERO);
        match recv_from(&mut server_rx, &mut client_rx) {
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
        match recv_from(&mut client_rx, &mut server_rx) {
            Event::Msg {
                from,
                msg: Msg::StatsReply { stats },
            } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(stats, vec![("x".to_owned(), 7)]);
            }
            other => panic!("unexpected inbound {other:?}"),
        }
        let registry = server.registry();
        assert_eq!(registry.get("wire.connects"), 1);
        // Hello + request one way, the reply the other.
        assert_eq!(registry.get("wire.frames_tx"), 3);
        assert_eq!(registry.get("wire.frames_rx"), 3);
        assert_eq!((client_rx.conns.len(), server_rx.conns.len()), (1, 1));
    }

    #[test]
    fn trace_request_round_trips() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.send_trace_request(NodeId(0));
        match recv_from(&mut server_rx, &mut client_rx) {
            Event::TraceRequest { from } => {
                assert_eq!(from, NodeId(1));
                server.send_trace_reply(from, "trace dump text");
            }
            other => panic!("unexpected inbound {other:?}"),
        }
        match recv_from(&mut client_rx, &mut server_rx) {
            Event::TraceReply { from, text } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(text, "trace dump text");
            }
            other => panic!("unexpected inbound {other:?}"),
        }
    }

    /// A node answers the Trace RPC with its whole span recorder: at the
    /// default capacity, with the widest ids and stamps there are, the
    /// dump still fits one frame and arrives whole.
    #[test]
    fn a_full_span_dump_crosses_in_one_trace_reply() {
        let spans = SpanRecorder::default();
        for i in 0..70_000 {
            let at = u64::MAX - i;
            spans.record(
                (u64::MAX, at),
                SpanKind::Deliver,
                "replicate_ack",
                usize::MAX,
                0,
                at,
            );
        }
        let dump = spans.render();
        assert!(dump.len() < MAX_PAYLOAD, "{} bytes", dump.len());
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.send_trace_request(NodeId(0));
        match recv_from(&mut server_rx, &mut client_rx) {
            Event::TraceRequest { from } => server.send_trace_reply(from, &dump),
            other => panic!("unexpected inbound {other:?}"),
        }
        match recv_from(&mut client_rx, &mut server_rx) {
            Event::TraceReply { text, .. } => assert!(text == dump, "the dump was cut"),
            other => panic!("unexpected inbound {other:?}"),
        }
    }

    #[test]
    fn send_after_rides_the_delay_line() {
        let ((_server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        let start = Instant::now();
        client.post(NodeId(0), Msg::MapRequest, SimDuration::from_millis(40));
        match recv_from(&mut server_rx, &mut client_rx) {
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
    }

    /// The delay line's release is a foreign writer: it wakes an owner
    /// that is blocked in `poll` with nothing else to wake it.
    #[test]
    fn a_delayed_post_wakes_its_blocked_owner() {
        let ((_server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.post(NodeId(0), Msg::MapRequest, SimDuration::from_millis(20));
        let owner = std::thread::spawn(move || {
            let _ = client_rx.recv(SOON);
            client_rx
        });
        let until = Instant::now() + SOON;
        let got = loop {
            match server_rx.recv(Duration::from_millis(5)) {
                Ok(event) => break event,
                Err(_) => assert!(Instant::now() < until, "the release never woke the owner"),
            }
        };
        assert!(matches!(
            got,
            Event::Msg {
                msg: Msg::MapRequest,
                ..
            }
        ));
        client.deliver(Event::Shutdown);
        let _ = owner.join().expect("owner thread");
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
        let ((server, mut server_rx), (client, mut client_rx)) = pair_with_client(NodeId(777));
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        let _ = recv_from(&mut server_rx, &mut client_rx);
        assert!(
            !has_delay_thread(),
            "idle fabric must not own a delay thread"
        );
        client.post(NodeId(0), Msg::MapRequest, SimDuration::from_millis(1));
        let _ = recv_from(&mut server_rx, &mut client_rx);
        assert!(has_delay_thread());
        client.shutdown();
        assert!(!has_delay_thread(), "shutdown joins the delay thread");
        server.shutdown();
    }

    #[test]
    fn spans_stamp_wire_send_and_deliver() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.post(
            NodeId(0),
            Msg::Request {
                seq: 1,
                op: ClientOp::Get { key: b"k".to_vec() },
            },
            SimDuration::ZERO,
        );
        let _ = recv_from(&mut server_rx, &mut client_rx);
        server.post(
            NodeId(1),
            Msg::Response {
                seq: 1,
                reply: Reply::Value(None),
            },
            SimDuration::ZERO,
        );
        let _ = recv_from(&mut client_rx, &mut server_rx);
        let stamped = |fabric: &WireFabric| -> Vec<(SpanKind, &str)> {
            let spans = fabric.spans();
            let events = spans.events();
            events.iter().map(|e| (e.kind, e.label)).collect()
        };
        assert_eq!(
            stamped(&client),
            [(SpanKind::Send, "request"), (SpanKind::Deliver, "response")]
        );
        assert_eq!(
            stamped(&server),
            [(SpanKind::Deliver, "request"), (SpanKind::Send, "response")]
        );
    }

    /// Shutdown reaches an owner blocked in `poll`: it hands out what was
    /// delivered first, closes every socket, and then reports the fabric
    /// gone.
    #[test]
    fn shutdown_closes_the_sockets_and_disconnects_the_inbox() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        let _ = recv_from(&mut server_rx, &mut client_rx);
        server.deliver(Event::Kill);
        server.shutdown();
        assert!(matches!(server_rx.recv(SOON), Ok(Event::Kill)));
        assert!(matches!(
            server_rx.recv(SOON),
            Err(RecvTimeoutError::Disconnected)
        ));
        assert!(server_rx.conns.is_empty() && server_rx.listener.is_none());
        // The client reads the EOF and forgets the route.
        pump_until(&mut client_rx, &mut server_rx, |c, _| c.conns.is_empty());
        assert_eq!(client_rx.peers[&0].route, None);
    }

    /// A reconnect releases everything the old connection held: nothing
    /// per-connection (a descriptor, a thread, a table entry) outlives its
    /// socket.
    #[cfg(target_os = "linux")]
    #[test]
    fn reconnects_leak_no_descriptor() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        let round = |client_rx: &mut WireInbox, server_rx: &mut WireInbox| {
            client.drop_connections();
            client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
            let _ = recv_from(server_rx, client_rx);
            // The server reads the old socket's EOF at its own pace.
            pump_until(client_rx, server_rx, |_, s| s.conns.len() == 1);
        };
        round(&mut client_rx, &mut server_rx);
        let before = open_fds();
        for _ in 0..50 {
            round(&mut client_rx, &mut server_rx);
        }
        // Other tests of this process open and close descriptors too: a
        // leak of one per round is what must not hide in the slack.
        assert!(
            open_fds() < before + 25,
            "descriptors grew from {before} to {} over 50 reconnects",
            open_fds()
        );
        assert_eq!((client_rx.conns.len(), server_rx.conns.len()), (1, 1));
        assert_eq!(server.registry().get("wire.reconnects"), 50);
    }

    /// The loop that reads a socket's EOF retires its route there and then,
    /// so the *first* message after a peer died re-dials instead of being
    /// written into the dead socket.
    #[test]
    fn the_first_post_after_a_peer_dies_redials() {
        let (mut listeners, book) = listeners(1);
        let registry = MetricsRegistry::new();
        let (_server, mut server_rx) = nic(NodeId(0), &book, listeners.pop(), &registry);
        let (client, mut client_rx) = nic(NodeId(1), &book, None, &MetricsRegistry::new());
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        let _ = recv_from(&mut server_rx, &mut client_rx);

        // The server process dies and comes back on the same port.
        let addr = book.get(NodeId(0)).expect("server address");
        drop(server_rx);
        turn_until(&mut client_rx, |c| c.conns.is_empty());
        let listener = TcpListener::bind(addr).expect("rebind");
        let (_server, mut server_rx) = nic(NodeId(0), &book, Some(listener), &registry);

        client.post(NodeId(0), Msg::StatsRequest, SimDuration::ZERO);
        assert!(matches!(
            recv_from(&mut server_rx, &mut client_rx),
            Event::Msg {
                msg: Msg::StatsRequest,
                ..
            }
        ));
        assert_eq!(client.registry().get("wire.reconnects"), 1);
        assert_eq!(client.registry().get("wire.connects"), 1);
    }

    /// Two listening nodes with no connection yet post to each other and
    /// both dial before either accepts. Adoption must only re-point the
    /// route: every message arrives exactly once, before and after, over
    /// at most one socket per direction.
    #[test]
    fn simultaneous_dials_lose_no_message() {
        for round in 0..200u64 {
            let (mut listeners, book) = listeners(2);
            let registry = MetricsRegistry::new();
            let (b, mut b_rx) = nic(NodeId(1), &book, listeners.pop(), &registry);
            let (a, mut a_rx) = nic(NodeId(0), &book, listeners.pop(), &registry);
            let say = |seq| Msg::Request {
                seq,
                op: ClientOp::Get { key: b"k".to_vec() },
            };
            let heard = |inbox: &mut WireInbox| -> Vec<u64> {
                std::iter::from_fn(|| inbox.ready.pop_front())
                    .map(|event| match event {
                        Event::Msg {
                            msg: Msg::Request { seq, .. },
                            ..
                        } => seq,
                        other => panic!("unexpected inbound {other:?}"),
                    })
                    .collect()
            };
            a.post(NodeId(1), say(round), SimDuration::ZERO);
            b.post(NodeId(0), say(round), SimDuration::ZERO);
            // Each side's first turn dials; the kernel completes both
            // handshakes against the listen queues before anyone accepts.
            if round % 2 == 0 {
                a_rx.turn(Some(Instant::now()));
                b_rx.turn(Some(Instant::now()));
            } else {
                b_rx.turn(Some(Instant::now()));
                a_rx.turn(Some(Instant::now()));
            }
            assert_eq!(registry.get("wire.connects"), 2, "both sides dialed");
            pump_until(&mut a_rx, &mut b_rx, |a, b| {
                !a.ready.is_empty() && !b.ready.is_empty()
            });
            // Both have adopted by now; the second exchange rides the
            // adopted routes.
            a.post(NodeId(1), say(round + 1), SimDuration::ZERO);
            b.post(NodeId(0), say(round + 1), SimDuration::ZERO);
            pump_until(&mut a_rx, &mut b_rx, |a, b| {
                a.ready.len() >= 2 && b.ready.len() >= 2
            });
            for _ in 0..3 {
                a_rx.turn(Some(Instant::now()));
                b_rx.turn(Some(Instant::now()));
            }
            assert_eq!(heard(&mut a_rx), [round, round + 1]);
            assert_eq!(heard(&mut b_rx), [round, round + 1]);
            assert_eq!((a_rx.conns.len(), b_rx.conns.len()), (2, 2));
            assert_eq!(registry.get("wire.reconnects"), 0);
        }
    }

    /// `post` is the owner's call wherever the owner currently runs: a
    /// handle that posts on one thread and receives on another (the
    /// benchmark loads on one and measures on another) still flushes, and
    /// an owner's post spends no wake-up on itself.
    #[test]
    fn a_client_handle_moved_to_another_thread_still_flushes_on_recv() {
        let ((server, mut server_rx), (client, mut client_rx)) = loopback_pair();
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        let mut sink = [0u8; 8];
        assert_eq!(
            client_rx.waker.read(&mut sink).map_err(|e| e.kind()),
            Err(ErrorKind::WouldBlock),
            "an owner's post must not write a waker byte"
        );
        let echo = std::thread::spawn(move || {
            let got = server_rx.recv(SOON);
            server.post(NodeId(1), Msg::MapRequest, SimDuration::ZERO);
            let _ = server_rx.recv(Duration::from_millis(50));
            got
        });
        let reply = std::thread::spawn(move || client_rx.recv(SOON))
            .join()
            .expect("receiving thread");
        assert!(matches!(
            echo.join().expect("server thread"),
            Ok(Event::Msg { .. })
        ));
        assert!(matches!(reply, Ok(Event::Msg { .. })));
    }

    fn segment_data(bytes: usize) -> Msg {
        Msg::SegmentData {
            crashed: 2,
            segments: vec![(9, vec![0xAB; bytes])],
        }
    }

    /// Two recovery masters shipping each other more than any socket
    /// buffer holds, before either reads: with a blocking write this
    /// single thread would deadlock in the first flush.
    #[test]
    fn eight_mib_each_way_completes() {
        const BYTES: usize = 8 << 20;
        let (mut listeners, book) = listeners(2);
        let registry = MetricsRegistry::new();
        let (b, mut b_rx) = nic(NodeId(1), &book, listeners.pop(), &registry);
        let (a, mut a_rx) = nic(NodeId(0), &book, listeners.pop(), &registry);
        a.post(NodeId(1), segment_data(BYTES), SimDuration::ZERO);
        b.post(NodeId(0), segment_data(BYTES), SimDuration::ZERO);
        for got in [
            recv_from(&mut a_rx, &mut b_rx),
            recv_from(&mut b_rx, &mut a_rx),
        ] {
            match got {
                Event::Msg {
                    msg: Msg::SegmentData { segments, .. },
                    ..
                } => assert_eq!(segments[0].1.len(), BYTES),
                other => panic!("unexpected inbound {other:?}"),
            }
        }
        assert_eq!(registry.get("wire.backlog_drops"), 0);
        assert_eq!(registry.get("wire.decode_errors"), 0);
    }

    /// A peer that accepts and then never reads: its connection is dropped
    /// once [`MAX_BACKLOG`] unsent bytes have piled up — counted — and the
    /// sender's loop keeps turning throughout.
    #[test]
    fn a_peer_that_never_reads_costs_one_connection_not_a_stalled_loop() {
        const BYTES: usize = 8 << 20;
        let (listeners, book) = listeners(1);
        let (client, mut client_rx) = nic(NodeId(1), &book, None, &MetricsRegistry::new());
        let metrics = client.registry();
        let mut stuck = None;
        for sent in 1..=MAX_BACKLOG / BYTES + 1 {
            assert_eq!(metrics.get("wire.backlog_drops"), 0, "after {}", sent - 1);
            client.post(NodeId(0), segment_data(BYTES), SimDuration::ZERO);
            let t0 = Instant::now();
            assert!(client_rx.recv(Duration::from_millis(5)).is_err());
            assert!(t0.elapsed() < Duration::from_secs(1), "the loop stalled");
            stuck = stuck.or_else(|| listeners[0].accept().ok());
        }
        assert_eq!(metrics.get("wire.backlog_drops"), 1);
        assert!(client_rx.conns.is_empty());
        assert_eq!(client_rx.peers[&0].route, None);
        // The next post starts over on a fresh connection.
        client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
        client_rx.turn(Some(Instant::now()));
        assert_eq!(metrics.get("wire.reconnects"), 1);
        assert_eq!(client_rx.conns.len(), 1);
    }

    #[test]
    fn a_dead_peer_backs_off_instead_of_being_hammered() {
        // Reserve a port and close it so dials fail fast.
        let (listeners, book) = listeners(1);
        drop(listeners);
        let (client, mut client_rx) = nic(NodeId(1), &book, None, &MetricsRegistry::new());
        let start = Instant::now();
        let mut attempts = 0;
        while start.elapsed() < Duration::from_millis(60) {
            client.post(NodeId(0), Msg::MapRequest, SimDuration::ZERO);
            client_rx.turn(Some(Instant::now()));
            attempts += 1;
        }
        assert!(attempts > 10, "sends should not block");
        // 10 ms, then 20 ms, then 40 ms of backoff fit in the window.
        let peer = &client_rx.peers[&0];
        assert!(
            peer.backoff >= Some(BACKOFF_FLOOR * 2) && peer.backoff <= Some(BACKOFF_FLOOR * 16)
        );
        assert_eq!(client.registry().get("wire.connects"), 0);
        assert_eq!(client.registry().get("wire.frames_tx"), 0);
    }

    #[test]
    fn a_peer_without_an_address_drops_silently() {
        let (_listeners, book) = listeners(1);
        let (client, mut client_rx) = nic(NodeId(1), &book, None, &MetricsRegistry::new());
        client.post(NodeId(5), Msg::MapRequest, SimDuration::ZERO);
        client_rx.turn(Some(Instant::now()));
        assert_eq!(client.registry().get("wire.frames_tx"), 0);
        assert!(client_rx.conns.is_empty());
    }

    /// A stream that loses framing costs its connection and one counted
    /// error; the listener keeps serving others.
    #[test]
    fn a_garbage_stream_is_counted_and_dropped() {
        let (mut listeners, book) = listeners(1);
        let (server, mut server_rx) =
            nic(NodeId(0), &book, listeners.pop(), &MetricsRegistry::new());
        let mut raw = TcpStream::connect(book.get(NodeId(0)).expect("addr")).expect("connect");
        raw.write_all(b"JUNKJUNKJUNK").expect("write junk");
        turn_until(&mut server_rx, |_| {
            server.registry().get("wire.decode_errors") == 1
        });
        assert!(server_rx.conns.is_empty());
        assert_eq!(raw.read(&mut [0u8; 1]).expect("EOF, not an error"), 0);
    }
}
