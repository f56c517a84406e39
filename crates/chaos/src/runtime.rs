//! [`FaultRuntime`]: wrap any [`Runtime`] so every outgoing message passes
//! through a [`FaultState`] judge.
//!
//! This is the whole point of the four-op `Runtime` boundary: protocol
//! handlers only ever talk to a `Runtime`, so interposing here injects
//! drops, duplicates, delays, and partitions into *both* engines without
//! either engine or the protocol knowing. Delay and reorder ride on
//! [`Runtime::send_after`]; an engine whose default `send_after` delivers
//! immediately simply degrades delays to reorder-free delivery while drops,
//! duplicates, and partitions keep their exact semantics.

use std::cell::RefCell;

use rmc_runtime::{NodeId, Runtime, SimDuration, SimTime};

use crate::fault::{FaultState, MsgClass};

/// A fault-injecting view over an inner runtime, scoped — like the inner
/// runtime itself — to one node handling one event.
///
/// The judge sits behind a `RefCell` because [`Runtime::send`] takes
/// `&self` while every judged message consumes RNG draws; the wrapper is
/// single-threaded by construction (it borrows one node's runtime for one
/// event), so the interior mutability can never contend.
#[derive(Debug)]
pub struct FaultRuntime<'a, R: Runtime> {
    inner: &'a mut R,
    faults: RefCell<&'a mut FaultState>,
    classify: fn(&R::Msg) -> MsgClass,
}

impl<'a, R: Runtime> FaultRuntime<'a, R> {
    /// Wraps `inner`; `classify` buckets messages for class-specific
    /// faults (backup-write failures).
    pub fn new(
        inner: &'a mut R,
        faults: &'a mut FaultState,
        classify: fn(&R::Msg) -> MsgClass,
    ) -> Self {
        FaultRuntime {
            inner,
            faults: RefCell::new(faults),
            classify,
        }
    }

    /// Delivers `msg` once per fate, cloning only for the extra copies a
    /// duplicate fate demands — the common single-fate case moves the
    /// message straight through to the engine.
    fn deliver_fates(&self, base: SimDuration, to: NodeId, msg: R::Msg, mut fates: Vec<SimDuration>)
    where
        R::Msg: Clone,
    {
        let Some(last) = fates.pop() else {
            return; // dropped
        };
        for extra in fates {
            self.inner
                .send_after(base.saturating_add(extra), to, msg.clone());
        }
        let total = base.saturating_add(last);
        if total.is_zero() {
            self.inner.send(to, msg);
        } else {
            self.inner.send_after(total, to, msg);
        }
    }
}

impl<R: Runtime> Runtime for FaultRuntime<'_, R>
where
    R::Msg: Clone,
{
    type Msg = R::Msg;

    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn send(&self, to: NodeId, msg: R::Msg) {
        let now = self.inner.now();
        let from = self.inner.node();
        let fates = self
            .faults
            .borrow_mut()
            .judge(now, from, to, (self.classify)(&msg));
        self.deliver_fates(SimDuration::ZERO, to, msg, fates);
    }

    fn set_timer(&mut self, after: SimDuration) {
        self.inner.set_timer(after);
    }

    fn send_after(&self, delay: SimDuration, to: NodeId, msg: R::Msg) {
        // A deferred send is still one message on the wire: judge it now
        // (deterministically, at the caller's instant) and stack the fault
        // delay on top of the requested one.
        let now = self.inner.now();
        let from = self.inner.node();
        let fates = self
            .faults
            .borrow_mut()
            .judge(now, from, to, (self.classify)(&msg));
        self.deliver_fates(delay, to, msg, fates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    /// Minimal engine: records sends with their requested delays.
    struct Recorder {
        node: NodeId,
        now: SimTime,
        sent: RefCell<Vec<(NodeId, u32, SimDuration)>>,
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
            self.sent.borrow_mut().push((to, msg, SimDuration::ZERO));
        }
        fn set_timer(&mut self, after: SimDuration) {
            self.timer = Some(after);
        }
        fn send_after(&self, delay: SimDuration, to: NodeId, msg: u32) {
            self.sent.borrow_mut().push((to, msg, delay));
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            node: NodeId(0),
            now: SimTime::from_millis(1),
            sent: RefCell::new(Vec::new()),
            timer: None,
        }
    }

    fn classify(_: &u32) -> MsgClass {
        MsgClass::Other
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut inner = recorder();
        let mut faults = FaultState::new(FaultPlan::quiet());
        let mut rt = FaultRuntime::new(&mut inner, &mut faults, classify);
        rt.send(NodeId(2), 7);
        rt.set_timer(SimDuration::from_millis(3));
        assert_eq!(
            *inner.sent.borrow(),
            vec![(NodeId(2), 7, SimDuration::ZERO)]
        );
        assert_eq!(inner.timer, Some(SimDuration::from_millis(3)));
    }

    #[test]
    fn drop_everything_plan_sends_nothing() {
        let mut plan = FaultPlan::quiet();
        plan.drop_prob = 1.0;
        plan.quiesce_at = SimTime::from_secs(10);
        let mut inner = recorder();
        let mut faults = FaultState::new(plan);
        let rt = FaultRuntime::new(&mut inner, &mut faults, classify);
        for i in 0..20 {
            rt.send(NodeId(1), i);
        }
        assert!(inner.sent.borrow().is_empty());
        assert_eq!(faults.stats.random_drops, 20);
    }

    #[test]
    fn duplicates_and_delays_ride_send_after() {
        let mut plan = FaultPlan::quiet();
        plan.dup_prob = 1.0;
        plan.delay_prob = 1.0;
        plan.max_delay = SimDuration::from_millis(4);
        plan.quiesce_at = SimTime::from_secs(10);
        let mut inner = recorder();
        let mut faults = FaultState::new(plan);
        let rt = FaultRuntime::new(&mut inner, &mut faults, classify);
        rt.send(NodeId(3), 42);
        assert_eq!(inner.sent.borrow().len(), 2, "original + duplicate");
        assert!(inner
            .sent
            .borrow()
            .iter()
            .all(|&(to, m, _)| to == NodeId(3) && m == 42));
        assert!(faults.stats.duplicated == 1 && faults.stats.delayed == 1);
    }
}
