//! Property tests for the workload generator.

use proptest::prelude::*;
use rmc_runtime::{SimRng, SimTime};
use rmc_ycsb::{Distribution, KeyChooser, Mix, Throttle};

proptest! {
    /// Any valid mix's empirical proportions converge to the specification.
    #[test]
    fn mix_sampling_converges(read_w in 0u32..10, update_w in 0u32..10) {
        prop_assume!(read_w + update_w > 0);
        let total = (read_w + update_w) as f64;
        let mix = Mix {
            read: read_w as f64 / total,
            update: update_w as f64 / total,
        };
        let mut rng = SimRng::seed_from_u64(9);
        let n = 40_000;
        let mut counts = [0u32; 2];
        for _ in 0..n {
            match mix.sample(&mut rng) {
                rmc_ycsb::OpKind::Read => counts[0] += 1,
                rmc_ycsb::OpKind::Update => counts[1] += 1,
            }
        }
        for (got, want) in counts.iter().zip([mix.read, mix.update]) {
            let frac = *got as f64 / n as f64;
            prop_assert!((frac - want).abs() < 0.02, "frac {frac} vs want {want}");
        }
    }

    /// Every distribution only ever samples inside the key space.
    #[test]
    fn distributions_stay_in_range(
        records in 1u64..100_000,
        seed in any::<u64>(),
        theta_pct in 1u32..99,
    ) {
        let theta = theta_pct as f64 / 100.0;
        for dist in [
            Distribution::Uniform,
            Distribution::Zipfian { theta },
        ] {
            let mut kc = KeyChooser::new(dist, records);
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..200 {
                prop_assert!(kc.next(&mut rng) < records);
            }
        }
    }

    /// The throttle never grants more than `rate` sends in any aligned
    /// one-second window.
    #[test]
    fn throttle_caps_rate(rate in 10.0f64..2_000.0, arrivals in proptest::collection::vec(0u64..2_000, 1..300)) {
        let mut t = Throttle::new(rate);
        let mut clock = 0u64;
        let mut grants: Vec<u64> = Vec::new();
        for gap in arrivals {
            clock += gap;
            let at = t.reserve(SimTime::from_micros(clock));
            grants.push(at.as_nanos());
        }
        grants.sort_unstable();
        let window = 1_000_000_000u64;
        let cap = rate.ceil() as usize + 1;
        for (i, &start) in grants.iter().enumerate() {
            let in_window = grants[i..]
                .iter()
                .take_while(|&&g| g < start + window)
                .count();
            prop_assert!(
                in_window <= cap,
                "{} grants in one second exceeds rate {}",
                in_window,
                rate
            );
        }
    }
}
