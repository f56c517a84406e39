//! # rmc-obs — always-on observability for the RAMCloud reproduction
//!
//! The source paper is a *characterization* study: its value is attributing
//! where time and energy go. This crate is the instrumentation layer that
//! makes such attribution possible on a live system without distorting it:
//!
//! - [`span`] — the one trace instrument, RPC span propagation: the
//!   existing RIFL `(client, seq)` ids double as trace ids, and every
//!   engine stamps send/deliver events at the `Runtime` boundary, so one
//!   client operation yields a cross-node timeline (client → master
//!   dispatch → store append → backup ack → reply). Deterministic under the
//!   simulator, wall-clock under threads; a live `rmcd` serves its spans
//!   over the Trace RPC.
//! - [`stats`] — the stats plane: snapshot a
//!   [`rmc_runtime::MetricsRegistry`] and render it as text for the
//!   `kvshell` `stats` command.
//! - [`Sampler`] — 1-in-N gate for hot-path timing so sub-microsecond
//!   operations pay a branch, not two clock reads, on the common path.
//!
//! One global kill switch ([`set_enabled`]) turns every record point into a
//! single relaxed load — that disabled configuration is the baseline the
//! `obs_overhead` bench compares against to prove the ≤ 3 % overhead budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod span;
pub mod stats;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global instrumentation switch, on by default ("always-on").
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is instrumentation currently enabled? A single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns all instrumentation on or off process-wide.
///
/// Disabling reduces every span record and every [`Sampler::tick`] to one
/// relaxed load + branch; the `obs_overhead` ablation measures exactly this
/// configuration as its baseline.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A 1-in-N sampling gate for hot-path timing.
///
/// Timing a 0.5 µs read with two `Instant::now()` calls costs ~10 % — far
/// over the 3 % budget. Sampling one operation in N keeps the histogram
/// statistically faithful while the common path pays a thread-local
/// pseudo-random draw and a branch.
///
/// The draw is random, not a count, for two reasons. A counter shared by
/// every thread is a cache line each of them writes on every operation. A
/// counter per thread taken mod N phase-locks with any periodic pattern in
/// the caller's own loop — a benchmark that times every 16th read sees the
/// sampler fire on the same reads, which then pay for two timers at once.
///
/// # Examples
///
/// ```
/// use rmc_obs::Sampler;
///
/// let sampler = Sampler::new(32);
/// let hits = (0..32_000).filter(|_| sampler.tick()).count();
/// assert!((800..1200).contains(&hits), "{hits}");
/// ```
#[derive(Debug)]
pub struct Sampler {
    /// `period - 1`; the period is a power of two so the gate is a mask,
    /// not a hardware divide (a 64-bit `div` alone would cost ~2 % of a
    /// sub-microsecond read).
    mask: u64,
}

impl Sampler {
    /// A sampler firing on one tick in `every`, at random. `every` is
    /// rounded up to the next power of two.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "sampling period must be positive");
        Sampler {
            mask: every.next_power_of_two() - 1,
        }
    }

    /// Advances the gate; `true` when this tick should be measured.
    /// Always `false` while instrumentation is disabled.
    ///
    /// The draw is SplitMix64 over a per-thread Weyl sequence: nothing
    /// shared is written, and consecutive draws are independent of the
    /// caller's loop.
    #[inline]
    pub fn tick(&self) -> bool {
        thread_local! {
            static WEYL: Cell<u64> = const { Cell::new(0) };
        }
        if !enabled() {
            return false;
        }
        let x = WEYL.with(|w| {
            let x = w.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
            w.set(x);
            x
        });
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & self.mask == 0
    }
}
