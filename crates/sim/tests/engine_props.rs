//! Property tests for the simulation kernel: causal ordering and
//! determinism hold for arbitrary event schedules.

use proptest::prelude::*;
use rmc_sim::{SimRng, SimTime, Simulation};

proptest! {
    /// Events always execute in non-decreasing time order, with FIFO
    /// tie-breaking among equal timestamps.
    #[test]
    fn execution_order_is_causal(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
        for (seq, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule_at(
                SimTime::from_micros(t),
                move |log: &mut Vec<(u64, usize)>, _| log.push((t, seq)),
            );
        }
        sim.run();
        let log = sim.into_state();
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated among equal times: {:?}", w);
            }
        }
    }

    /// Chained handlers observe a monotone clock.
    #[test]
    fn nested_scheduling_is_monotone(seed in any::<u64>()) {
        struct S {
            rng: SimRng,
            last: SimTime,
            count: u32,
            violations: u32,
        }
        let mut sim = Simulation::new(S {
            rng: SimRng::seed_from_u64(seed),
            last: SimTime::ZERO,
            count: 0,
            violations: 0,
        });
        fn step(s: &mut S, sched: &mut rmc_sim::Scheduler<S>) {
            let now = sched.now();
            if now < s.last {
                s.violations += 1;
            }
            s.last = now;
            s.count += 1;
            if s.count < 300 {
                let d = s.rng.gen_below(1_000);
                sched.schedule_after(rmc_sim::SimDuration::from_nanos(d), step);
            }
        }
        sim.scheduler_mut().schedule_at(SimTime::ZERO, step);
        sim.run();
        prop_assert_eq!(sim.state().violations, 0);
        prop_assert_eq!(sim.state().count, 300);
    }

}
