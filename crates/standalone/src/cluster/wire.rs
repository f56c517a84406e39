//! `rmc_wire::WireFabric` as a cluster [`Fabric`]: every coordinator and
//! server owns a loopback TCP listener, and every message crosses a real
//! socket.
//!
//! No epoch stamps here. Killing a node shuts its fabric down — its loop
//! closes the listener and every connection on its way out — so traffic in
//! flight toward the dead
//! incarnation dies with its sockets, peers' later sends fail into
//! reconnect backoff exactly as against a killed process, and a restarted
//! incarnation listens on the *same* port (peers' address books still
//! point there) with nothing but fresh connections.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use rmc_core::protocol::{client_id, Msg, ProtocolConfig};
use rmc_obs::span::SpanRecorder;
use rmc_runtime::{Event, MetricsRegistry, NodeId, SimDuration, SimTime, WallClock};
use rmc_wire::{AddressBook, FabricConfig, WireFabric, WireInbox};

use super::{Client, Fabric};

/// What the fabrics of an in-process socket cluster share.
#[derive(Debug)]
pub struct WireNet {
    book: AddressBook,
    /// Bound up front so the address book is complete before any node can
    /// speak (no port races); each is taken by its node's first fabric.
    listeners: Vec<Option<TcpListener>>,
    registry: MetricsRegistry,
    spans: SpanRecorder,
    clock: Arc<WallClock>,
}

/// Listens again where a killed incarnation did. `SO_REUSEADDR` (set by
/// the standard library on Unix listeners) makes the rebind immediate
/// despite TIME_WAIT remnants; retry briefly to absorb scheduler lag on
/// the old listener's close.
fn rebind(addr: SocketAddr) -> TcpListener {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return listener,
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("rebinding {addr} for a restarted server: {e}"),
        }
    }
}

impl Fabric for WireFabric {
    type Net = WireNet;
    type Inbox = WireInbox;

    fn build(total: usize, listening: usize) -> WireNet {
        let listeners: Vec<Option<TcpListener>> = (0..total)
            .map(|i| {
                (i < listening)
                    .then(|| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            })
            .collect();
        let addrs = listeners
            .iter()
            .map(|l| l.as_ref().map(|l| l.local_addr().expect("listener addr")))
            .collect();
        WireNet {
            book: AddressBook::new(addrs),
            listeners,
            registry: MetricsRegistry::new(),
            spans: SpanRecorder::default(),
            clock: Arc::new(WallClock::new()),
        }
    }

    fn attach(net: &mut WireNet, id: NodeId, _epoch: u64) -> (Arc<Self>, Self::Inbox) {
        let listener = net.listeners[id.0]
            .take()
            .or_else(|| net.book.get(id).map(rebind));
        WireFabric::start(FabricConfig {
            me: id,
            book: net.book.clone(),
            listener,
            registry: net.registry.clone(),
            spans: net.spans.clone(),
            clock: Arc::clone(&net.clock),
        })
    }

    fn sever(&self) {
        self.shutdown();
    }

    fn me(&self) -> NodeId {
        WireFabric::me(self)
    }

    fn post(&self, to: NodeId, msg: Msg, extra: SimDuration) {
        WireFabric::post(self, to, msg, extra);
    }

    fn deliver(&self, event: Event<Msg>) {
        WireFabric::deliver(self, event);
    }

    fn recv(inbox: &mut WireInbox, timeout: Duration) -> Result<Event<Msg>, RecvTimeoutError> {
        inbox.recv(timeout)
    }

    /// Sends back every span event this fabric's recorder holds, so a
    /// remote `kvshell` can pull a live node's spans over the wire.
    fn answer_trace(&self, to: NodeId) {
        self.send_trace_reply(to, &WireFabric::spans(self).render());
    }

    fn now(&self) -> SimTime {
        WireFabric::now(self)
    }

    fn registry(&self) -> &MetricsRegistry {
        WireFabric::registry(self)
    }

    fn spans(&self) -> SpanRecorder {
        WireFabric::spans(self)
    }
}

impl Client<WireFabric> {
    /// Dials into a live cluster (in-process or `rmcd` processes) given
    /// its address book: index `i` of `book` is the listen address of
    /// `NodeId(i)` — `0` the coordinator, `1..=servers` the servers.
    /// `index` must be unique among concurrently connected clients: it
    /// determines the RIFL client identity `client_id(servers, index)`
    /// that servers dedup requests by.
    pub fn connect(cfg: ProtocolConfig, index: usize, book: AddressBook) -> Self {
        let (fabric, inbox) = WireFabric::start(FabricConfig {
            me: client_id(cfg.servers, index),
            book,
            listener: None,
            registry: MetricsRegistry::new(),
            spans: SpanRecorder::default(),
            clock: Arc::new(WallClock::new()),
        });
        let mut client = Client::new(cfg, fabric, inbox);
        client.owns_fabric = true;
        client
    }

    /// Pulls the rendered spans of the process behind `target` over the
    /// wire (`SpanRecorder::render`: one line per event, then the drop
    /// count), retrying under the usual schedule.
    pub fn node_trace(&mut self, target: NodeId) -> Result<String, String> {
        self.ask(
            "trace",
            target,
            |fabric| fabric.send_trace_request(target),
            |event| match event {
                Event::TraceReply { from, text } if from == target => Some(text),
                _ => None,
            },
        )
    }
}
