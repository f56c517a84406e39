//! # rmc-sim — deterministic discrete-event simulation kernel
//!
//! Substrate for the reproduction of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (ICDCS 2017). The paper
//! measured a real 131-node Grid'5000 cluster; this workspace reproduces the
//! study on a simulated cluster, and `rmc-sim` provides the clock, the event
//! queue, deterministic randomness, and measurement primitives everything
//! else builds on.
//!
//! ## Example
//!
//! ```
//! use rmc_sim::{Simulation, SimDuration, SimRng};
//!
//! struct World {
//!     rng: SimRng,
//!     arrivals: u32,
//! }
//!
//! let mut sim = Simulation::new(World { rng: SimRng::seed_from_u64(1), arrivals: 0 });
//!
//! fn arrival(w: &mut World, sched: &mut rmc_sim::Scheduler<World>) {
//!     w.arrivals += 1;
//!     if w.arrivals < 100 {
//!         let gap = SimDuration::from_micros(w.rng.gen_range(10, 50));
//!         sched.schedule_after(gap, arrival);
//!     }
//! }
//!
//! sim.scheduler_mut().schedule_after(SimDuration::ZERO, arrival);
//! sim.run();
//! assert_eq!(sim.state().arrivals, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;

pub use engine::{Scheduler, Simulation};
// Time, randomness, and measurement primitives live in `rmc-runtime` (they
// are shared with the threaded engine); re-exported here so simulator-facing
// code keeps importing them from `rmc_sim`.
pub use rmc_runtime::{BinnedUsage, Histogram, RateMeter, SimDuration, SimRng, SimTime, Summary};
