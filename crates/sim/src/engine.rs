//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns user state `S` and a [`Scheduler`]. Events are boxed
//! closures `FnOnce(&mut S, &mut Scheduler<S>)` ordered by `(time, sequence)`
//! so that same-instant events run in scheduling order (FIFO), which keeps
//! runs deterministic. Handlers receive the scheduler and may schedule
//! further events.
//!
//! # Examples
//!
//! ```
//! use rmc_sim::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new(0u32);
//! sim.scheduler_mut().schedule_after(SimDuration::from_secs(1), |count, sched| {
//!     *count += 1;
//!     sched.schedule_after(SimDuration::from_secs(1), |count, _| *count += 10);
//! });
//! sim.run();
//! assert_eq!(*sim.state(), 11);
//! assert_eq!(sim.now().as_secs_f64(), 2.0);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rmc_runtime::{SimDuration, SimTime};

type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

// Ordering intentionally ignores the closure: `(at, seq)` is a total order
// because `seq` is unique.
impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Schedules events; tracks the current simulated instant.
///
/// Obtained from [`Simulation::scheduler_mut`] or passed into event handlers.
pub struct Scheduler<S> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<S>>>,
    next_seq: u64,
}

impl<S> fmt::Debug for Scheduler<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<S> Scheduler<S> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant: the simulator
    /// cannot travel backwards.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            run: Box::new(f),
        }));
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, f)
    }

    /// The time of the next event, if any.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(ev)| ev.at)
    }
}

/// A discrete-event simulation over user state `S`.
pub struct Simulation<S> {
    state: S,
    sched: Scheduler<S>,
}

impl<S: fmt::Debug> fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("state", &self.state)
            .field("sched", &self.sched)
            .finish()
    }
}

impl<S> Simulation<S> {
    /// Creates a simulation at time zero with the given initial state.
    pub fn new(state: S) -> Self {
        Simulation {
            state,
            sched: Scheduler::new(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Shared access to the user state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the scheduler, e.g. for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<S> {
        &mut self.sched
    }

    /// Executes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some(Reverse(ev)) => {
                debug_assert!(ev.at >= self.sched.now);
                self.sched.now = ev.at;
                (ev.run)(&mut self.state, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Returns the final instant.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.sched.now
    }

    /// Runs events strictly before `deadline`, then advances the clock to
    /// `deadline` (if it is later than the last event). Events at or after
    /// `deadline` stay queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.sched.peek_next_time() {
                Some(t) if t < deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
    }

    /// Consumes the simulation and returns the final user state.
    pub fn into_state(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let s = sim.scheduler_mut();
        s.schedule_at(SimTime::from_secs(3), |v: &mut Vec<u32>, _| v.push(3));
        s.schedule_at(SimTime::from_secs(1), |v, _| v.push(1));
        s.schedule_at(SimTime::from_secs(2), |v, _| v.push(2));
        sim.run();
        assert_eq!(sim.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_events_run_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.scheduler_mut()
                .schedule_at(t, move |v: &mut Vec<u32>, _| v.push(i));
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(0u64);
        fn tick(count: &mut u64, sched: &mut Scheduler<u64>) {
            *count += 1;
            if *count < 5 {
                sched.schedule_after(SimDuration::from_millis(10), tick);
            }
        }
        sim.scheduler_mut().schedule_at(SimTime::ZERO, tick);
        sim.run();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), |_, sched| {
                sched.schedule_at(SimTime::from_secs(1), |_, _| {});
            });
        sim.run();
    }

    #[test]
    fn run_until_stops_before_deadline_events() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), |c: &mut u32, _| *c += 1);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(3), |c, _| *c += 10);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.run();
        assert_eq!(*sim.state(), 11);
    }

    #[test]
    fn run_until_deadline_exclusive() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), |c: &mut u32, _| *c += 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            *sim.state(),
            0,
            "event exactly at the deadline must not run"
        );
    }

    #[test]
    fn drop_of_unrun_closures_is_clean() {
        // Closures capturing Rc must drop when the simulation drops.
        let marker = Rc::new(RefCell::new(0));
        {
            let mut sim = Simulation::new(());
            let m = Rc::clone(&marker);
            sim.scheduler_mut()
                .schedule_at(SimTime::from_secs(1), move |_, _| {
                    *m.borrow_mut() += 1;
                });
        }
        assert_eq!(*marker.borrow(), 0);
        assert_eq!(Rc::strong_count(&marker), 1);
    }
}
