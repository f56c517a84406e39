//! The simulated-time engine binding: the **only** module in `rmc-core`
//! that talks to the `rmc_sim` event queue.
//!
//! Protocol logic ([`Cluster`](crate::Cluster) and the shared state
//! machines in [`protocol`](crate::protocol)) never holds an
//! `rmc_sim::Scheduler` directly; it receives a [`SimRuntime`], which wraps
//! the scheduler one closure deep. Each wrapped event unwraps back into a
//! fresh `SimRuntime` before invoking the protocol callback, so event
//! `(time, sequence)` ordering — and therefore same-seed determinism — is
//! bit-identical to scheduling on the engine directly.
//!
//! The wall-clock counterpart is the node runtime inside
//! `rmc_standalone::cluster`, which runs the same shared protocol over
//! real threads on a channel or TCP fabric.

use rmc_runtime::{SimDuration, SimTime};
use rmc_sim::{EventId, Scheduler, Simulation};

/// A borrowed handle on the discrete-event engine, scoped to one event.
///
/// `S` is the simulation state (for the cluster model, [`crate::Cluster`]).
/// Callbacks scheduled through a `SimRuntime` receive `(&mut S, &mut
/// SimRuntime<'_, S>)`, mirroring the engine's own closure shape without
/// exposing the engine type.
#[derive(Debug)]
pub struct SimRuntime<'a, S> {
    sched: &'a mut Scheduler<S>,
}

impl<'a, S> SimRuntime<'a, S> {
    /// Wraps a raw scheduler handle (used by tests and harnesses that build
    /// their own `rmc_sim::Simulation`).
    pub fn new(sched: &'a mut Scheduler<S>) -> Self {
        SimRuntime { sched }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Schedules `f` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (the engine cannot travel backwards).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut S, &mut SimRuntime<'_, S>) + 'static,
    {
        self.sched
            .schedule_at(at, move |state: &mut S, sched: &mut Scheduler<S>| {
                f(state, &mut SimRuntime::new(sched));
            })
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut S, &mut SimRuntime<'_, S>) + 'static,
    {
        let at = self.now().saturating_add(delay);
        self.schedule_at(at, f)
    }

    /// Cancels a pending event; unknown or already-run ids are a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.sched.cancel(id);
    }
}

/// Runs a complete simulation of `state`: `init` schedules the initial
/// events (at simulated time zero), the event loop runs until the queue
/// drains, and the final state is returned together with the time of the
/// last executed event.
pub fn drive<S, F>(state: S, init: F) -> (S, SimTime)
where
    F: FnOnce(&mut SimRuntime<'_, S>),
{
    let mut sim = Simulation::new(state);
    init(&mut SimRuntime::new(sim.scheduler_mut()));
    sim.run();
    let end = sim.now();
    (sim.into_state(), end)
}

/// Like [`drive`], but stops at `deadline` even if events remain — for
/// systems with self-re-arming timers (heartbeats) that never drain the
/// queue on their own.
pub fn drive_until<S, F>(state: S, deadline: SimTime, init: F) -> S
where
    F: FnOnce(&mut SimRuntime<'_, S>),
{
    let mut sim = Simulation::new(state);
    init(&mut SimRuntime::new(sim.scheduler_mut()));
    sim.run_until(deadline);
    sim.into_state()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wrapped scheduling preserves the engine's (time, seq) order: events
    /// scheduled through `SimRuntime` at equal times run in submission
    /// order, interleaved correctly with re-entrant scheduling.
    #[test]
    fn wrapped_events_preserve_order() {
        let (trace, end) = drive(Vec::<u32>::new(), |rt| {
            rt.schedule_at(SimTime::from_millis(5), |t: &mut Vec<u32>, rt| {
                t.push(1);
                rt.schedule_after(SimDuration::ZERO, |t: &mut Vec<u32>, _| t.push(2));
                rt.schedule_at(SimTime::from_millis(7), |t: &mut Vec<u32>, _| t.push(4));
            });
            rt.schedule_at(SimTime::from_millis(5), |t: &mut Vec<u32>, _| t.push(3));
        });
        assert_eq!(trace, vec![1, 3, 2, 4]);
        assert_eq!(end, SimTime::from_millis(7));
    }

    #[test]
    fn cancel_through_wrapper() {
        let (fired, _) = drive(false, |rt| {
            let id = rt.schedule_at(SimTime::from_millis(1), |f: &mut bool, _| *f = true);
            rt.cancel(id);
        });
        assert!(!fired);
    }
}
