//! [`ChannelFabric`]: nodes as threads exchanging [`Event`]s over crossbeam
//! channels, one per node.
//!
//! A node's channel outlives the node: traffic toward a killed server
//! queues up exactly like packets to a dead NIC, and a restarted server
//! drains the same channel. So every delivery carries the destination
//! incarnation the sender addressed, stamped at send time, and the inbox
//! drops — and counts as `net.epoch_mismatch` — anything stamped for
//! another life, mirroring the simulated engine's semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rmc_core::protocol::Msg;
use rmc_obs::span::{SpanKind, SpanRecorder};
use rmc_runtime::{
    CounterHandle, DelayLine, Event, MetricsRegistry, NodeId, SimDuration, SimTime, WallClock,
};

use super::Fabric;

/// An event and the destination incarnation it was addressed to.
type Stamped = (u64, Event<Msg>);

/// What every node of a channel cluster shares.
#[derive(Debug)]
pub struct ChannelNet {
    peers: Vec<Sender<Stamped>>,
    /// One receiver per channel, so a killed node's queue survives until
    /// (and across) a restart.
    keepalive: Vec<Receiver<Stamped>>,
    incarnations: Vec<AtomicU64>,
    registry: MetricsRegistry,
    clock: WallClock,
    spans: SpanRecorder,
    delay: DelayLine<(usize, Stamped)>,
}

impl Drop for ChannelNet {
    fn drop(&mut self) {
        self.delay.close();
    }
}

/// One incarnation of one node on the channel fabric.
#[derive(Debug)]
pub struct ChannelFabric {
    me: NodeId,
    epoch: u64,
    net: Arc<ChannelNet>,
}

/// The receiving end of one incarnation's channel.
#[derive(Debug)]
pub struct ChannelInbox {
    rx: Receiver<Stamped>,
    fabric: Arc<ChannelFabric>,
    stale: CounterHandle,
}

impl Fabric for ChannelFabric {
    type Net = Arc<ChannelNet>;
    type Inbox = ChannelInbox;

    fn build(total: usize, _listening: usize) -> Arc<ChannelNet> {
        let (peers, keepalive): (Vec<_>, Vec<_>) = (0..total).map(|_| unbounded()).unzip();
        let release = peers.clone();
        Arc::new(ChannelNet {
            delay: DelayLine::new("mini-delay-line", move |(to, stamped): (usize, _)| {
                let _ = release[to].send(stamped);
            }),
            peers,
            keepalive,
            incarnations: (0..total).map(|_| AtomicU64::new(0)).collect(),
            registry: MetricsRegistry::new(),
            clock: WallClock::new(),
            spans: SpanRecorder::default(),
        })
    }

    fn attach(net: &mut Arc<ChannelNet>, id: NodeId, epoch: u64) -> (Arc<Self>, ChannelInbox) {
        // From here on senders stamp the new incarnation: everything still
        // queued or parked for the previous one is orphaned.
        net.incarnations[id.0].store(epoch, Ordering::SeqCst);
        let fabric = Arc::new(ChannelFabric {
            me: id,
            epoch,
            net: Arc::clone(net),
        });
        let inbox = ChannelInbox {
            rx: net.keepalive[id.0].clone(),
            fabric: Arc::clone(&fabric),
            stale: net.registry.counter("net.epoch_mismatch"),
        };
        (fabric, inbox)
    }

    /// Nothing to cut: the channel stays open, and the epoch stamp is what
    /// keeps a dead incarnation's traffic from the next one.
    fn sever(&self) {}

    fn me(&self) -> NodeId {
        self.me
    }

    fn post(&self, to: NodeId, msg: Msg, extra: SimDuration) {
        let Some(tx) = self.net.peers.get(to.0) else {
            return;
        };
        msg.record_span(&self.net.spans, SpanKind::Send, self.me, to, self.now());
        let dst_epoch = self.net.incarnations[to.0].load(Ordering::SeqCst);
        let stamped = (dst_epoch, Event::Msg { from: self.me, msg });
        if extra.is_zero() {
            let _ = tx.send(stamped);
        } else {
            let delay = Duration::from_nanos(extra.as_nanos());
            self.net.delay.send_after(delay, (to.0, stamped));
        }
    }

    fn deliver(&self, event: Event<Msg>) {
        let _ = self.net.peers[self.me.0].send((self.epoch, event));
    }

    fn recv(inbox: &mut ChannelInbox, timeout: Duration) -> Result<Event<Msg>, RecvTimeoutError> {
        // `None`: `timeout` is past what the clock can express — no limit.
        let (me, until) = (&inbox.fabric, Instant::now().checked_add(timeout));
        let mut left = timeout;
        loop {
            let (epoch, event) = inbox.rx.recv_timeout(left)?;
            if epoch != me.epoch {
                // In flight across a restart: it belongs to a previous
                // incarnation and must never reach this one.
                inbox.stale.incr();
                left = until.map_or(timeout, |t| t.saturating_duration_since(Instant::now()));
                continue;
            }
            if let Event::Msg { from, msg } = &event {
                msg.record_span(&me.net.spans, SpanKind::Deliver, *from, me.me, me.now());
            }
            return Ok(event);
        }
    }

    fn now(&self) -> SimTime {
        self.net.clock.now()
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.net.registry
    }

    fn spans(&self) -> SpanRecorder {
        self.net.spans.clone()
    }
}
