//! The [`Runtime`] trait: clock + transport + timer, the whole surface a
//! protocol node may touch.
//!
//! The replication/recovery protocol in `rmc-core` is written as message
//! handlers that are generic over `R: Runtime`. A handler may read the
//! clock, send messages to other named nodes, and arm its own timer —
//! nothing else. That confinement is what lets the *same* handler code run
//! under two engines:
//!
//! - a deterministic simulated engine, where `send` schedules a delivery
//!   event on the discrete-event queue and `set_timer` moves the node's one
//!   timer deadline, or
//! - a threaded engine, where `send` pushes onto the destination node's
//!   channel and `set_timer` bounds the node loop's `recv_timeout`.

use crate::time::{SimDuration, SimTime};

/// A node address inside one cluster: coordinator, servers, and clients all
/// live in a single flat id space so any node can message any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Everything a protocol node may do to the outside world.
///
/// One `Runtime` value is the *context of one node while it handles one
/// message*: it knows who "self" is, what time it is, and how to reach the
/// other nodes. Handlers never see channels, schedulers, or threads.
pub trait Runtime {
    /// The message type exchanged between nodes.
    type Msg;

    /// The handling node's own address.
    fn node(&self) -> NodeId;

    /// The current instant (simulated or wall-clock).
    fn now(&self) -> SimTime;

    /// Sends `msg` to `to`. Delivery is asynchronous and may silently fail
    /// if the destination is dead — exactly the guarantee a NIC gives, and
    /// why the protocol carries its own acks and retries.
    ///
    /// Takes `&self`: a real NIC transmits concurrently, and forcing
    /// exclusive access here would serialize every socket writer behind
    /// one `&mut` borrow. Engines that buffer sends use interior
    /// mutability for their outbox.
    fn send(&self, to: NodeId, msg: Self::Msg);

    /// Arms this node's timer to fire no later than `after` from now. The
    /// engine will invoke the node's timer handler at (or after) that
    /// point; re-arming before expiry moves the deadline to the earlier of
    /// the two. Every engine keeps exactly one deadline per node — the
    /// simulated one, its cost layer and both wall-clock fabrics — so a
    /// node that re-arms on every event still fires once per deadline, not
    /// once per arm. The timer is genuinely per-node state, so unlike
    /// [`Runtime::send`] it keeps the exclusive receiver.
    fn set_timer(&mut self, after: SimDuration);

    /// Sends `msg` to `to`, asking the engine to hold it for an extra
    /// `delay` before delivery. Engines that cannot schedule a deferred
    /// send — or that model latency elsewhere — may deliver immediately;
    /// the default does exactly that. Fault-injection layers use this to
    /// express message *delay* and *reorder* without owning a scheduler.
    fn send_after(&self, delay: SimDuration, to: NodeId, msg: Self::Msg) {
        let _ = delay;
        self.send(to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy runtime proving the trait is implementable without an engine.
    /// The `RefCell` outbox is the pattern buffering engines use now that
    /// `send` takes `&self`.
    struct Recorder {
        node: NodeId,
        now: SimTime,
        sent: std::cell::RefCell<Vec<(NodeId, u32)>>,
        timer: Option<SimDuration>,
    }

    impl Runtime for Recorder {
        type Msg = u32;
        fn node(&self) -> NodeId {
            self.node
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&self, to: NodeId, msg: u32) {
            self.sent.borrow_mut().push((to, msg));
        }
        fn set_timer(&mut self, after: SimDuration) {
            self.timer = Some(match self.timer {
                Some(t) => t.min(after),
                None => after,
            });
        }
    }

    fn ping<R: Runtime<Msg = u32>>(rt: &mut R, peer: NodeId) {
        rt.send(peer, rt.now().as_nanos() as u32);
        rt.set_timer(SimDuration::from_millis(10));
    }

    #[test]
    fn handlers_generic_over_runtime() {
        let mut rt = Recorder {
            node: NodeId(1),
            now: SimTime::from_nanos(7),
            sent: std::cell::RefCell::new(Vec::new()),
            timer: None,
        };
        ping(&mut rt, NodeId(2));
        rt.set_timer(SimDuration::from_millis(3));
        assert_eq!(*rt.sent.borrow(), vec![(NodeId(2), 7)]);
        assert_eq!(rt.timer, Some(SimDuration::from_millis(3)));
    }

    #[test]
    fn send_after_defaults_to_immediate_send() {
        let rt = Recorder {
            node: NodeId(0),
            now: SimTime::ZERO,
            sent: std::cell::RefCell::new(Vec::new()),
            timer: None,
        };
        rt.send_after(SimDuration::from_millis(50), NodeId(3), 42);
        assert_eq!(*rt.sent.borrow(), vec![(NodeId(3), 42)]);
    }
}
