//! Client-side request generation and throttling.
//!
//! The paper runs one YCSB client process per client machine; each client is
//! a closed loop — one outstanding request, next request issued when the
//! previous response arrives. [`RequestGenerator`] produces the operation
//! stream; [`Throttle`] implements the client-side rate limiting the paper
//! evaluates in Fig 13.

use rmc_runtime::{SimDuration, SimRng, SimTime};

use crate::distribution::KeyChooser;
use crate::workload::{OpKind, WorkloadSpec};

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The operation kind.
    pub kind: OpKind,
    /// Target record index.
    pub key_index: u64,
}

/// Deterministic stream of requests for one client.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    spec: WorkloadSpec,
    chooser: KeyChooser,
    rng: SimRng,
    issued: u64,
}

impl RequestGenerator {
    /// Creates a generator; `seed` individualizes the client's stream.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let chooser = KeyChooser::new(spec.distribution, spec.record_count);
        RequestGenerator {
            spec,
            chooser,
            rng: SimRng::seed_from_u64(seed),
            issued: 0,
        }
    }

    /// The workload specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Produces the next request, or `None` when the client's quota
    /// (`ops_per_client`) is exhausted.
    pub fn next_request(&mut self) -> Option<Request> {
        if self.issued >= self.spec.ops_per_client {
            return None;
        }
        self.issued += 1;
        let kind = self.spec.mix.sample(&mut self.rng);
        let key_index = self.chooser.next(&mut self.rng);
        Some(Request { kind, key_index })
    }

    /// The key bytes for a record index.
    pub fn key_for(&self, index: u64) -> Vec<u8> {
        self.spec.key_for(index)
    }

    /// A deterministic value payload for a write to `index` (contents vary
    /// by version so overwrites are observable).
    pub fn value_for(&mut self, index: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.spec.value_bytes];
        let tag = self.rng.next_u64() ^ index;
        let tag_bytes = tag.to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = tag_bytes[i % 8].wrapping_add(i as u8);
        }
        v
    }
}

/// Client-side rate limiter (Fig 13: clients capped at 200 or 500 req/s).
///
/// Deterministic fixed-interval pacing: request `i` may not leave before
/// `start + i/rate`.
#[derive(Debug, Clone)]
pub struct Throttle {
    interval: SimDuration,
    next_allowed: SimTime,
}

impl Throttle {
    /// Creates a limiter of `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Throttle {
            interval: SimDuration::from_secs_f64(1.0 / rate),
            next_allowed: SimTime::ZERO,
        }
    }

    /// Returns the earliest instant (≥ `now`) the next request may be sent,
    /// and reserves that slot.
    pub fn reserve(&mut self, now: SimTime) -> SimTime {
        let at = now.max(self.next_allowed);
        self.next_allowed = at + self.interval;
        at
    }

    /// The pacing interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::StandardWorkload;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::standard(StandardWorkload::A).with_ops_per_client(1000)
    }

    #[test]
    fn generator_respects_quota() {
        let mut g = RequestGenerator::new(spec(), 1);
        let mut n = 0;
        while g.next_request().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
        assert!(g.next_request().is_none());
    }

    #[test]
    fn generator_mix_roughly_half_updates() {
        let mut g = RequestGenerator::new(spec(), 2);
        let mut updates = 0;
        while let Some(r) = g.next_request() {
            if r.kind == OpKind::Update {
                updates += 1;
            }
        }
        assert!((400..600).contains(&updates), "updates={updates}");
    }

    #[test]
    fn generator_keys_in_range() {
        let mut g = RequestGenerator::new(spec(), 3);
        while let Some(r) = g.next_request() {
            assert!(r.key_index < 100_000);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = RequestGenerator::new(spec(), 9);
        let mut b = RequestGenerator::new(spec(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RequestGenerator::new(spec(), 1);
        let mut b = RequestGenerator::new(spec(), 2);
        let same = (0..100)
            .filter(|_| a.next_request() == b.next_request())
            .count();
        assert!(same < 50, "streams too correlated: {same}");
    }

    #[test]
    fn values_have_requested_size() {
        let mut g = RequestGenerator::new(spec(), 5);
        assert_eq!(g.value_for(3).len(), 1024);
    }

    #[test]
    fn throttle_paces_at_rate() {
        let mut t = Throttle::new(200.0);
        let first = t.reserve(SimTime::ZERO);
        assert_eq!(first, SimTime::ZERO);
        let second = t.reserve(SimTime::ZERO);
        assert_eq!(second - first, SimDuration::from_millis(5));
        // 200 reservations = 1 second of budget.
        let mut last = second;
        for _ in 0..199 {
            last = t.reserve(SimTime::ZERO);
        }
        assert_eq!(last, SimTime::from_millis(5 * 200));
    }

    #[test]
    fn throttle_does_not_bank_idle_time() {
        let mut t = Throttle::new(100.0);
        t.reserve(SimTime::ZERO);
        // Arrive late: no burst allowance, next slot starts from now.
        let at = t.reserve(SimTime::from_secs(10));
        assert_eq!(at, SimTime::from_secs(10));
        let next = t.reserve(SimTime::from_secs(10));
        assert_eq!(next, SimTime::from_secs(10) + SimDuration::from_millis(10));
    }
}
