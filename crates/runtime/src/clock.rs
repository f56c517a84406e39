//! [`WallClock`]: where "now" comes from on the wall-clock engines.
//!
//! Everything above the engines measures time as [`SimTime`] — a nanosecond
//! count since some origin. In the simulator that origin is the start of the
//! simulation and time advances only when events fire; on real threads it is
//! the moment the [`WallClock`] was created and time advances by itself.

use std::time::Instant;

use crate::time::SimTime;

/// Real time: nanoseconds elapsed since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn wall_clock_is_monotonic_and_moves() {
        let c = WallClock::new();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        assert!((b - a) >= SimDuration::from_millis(2));
    }
}
