//! Property tests for the energy substrate.

use proptest::prelude::*;
use rmc_energy::{NodeActivity, PduSampler, PowerProfile};
use rmc_runtime::SimTime;

proptest! {
    /// Unsmoothed energy equals Σ sample × dt exactly, for arbitrary
    /// irregular sample trains.
    #[test]
    fn energy_is_time_weighted_sum(
        samples in proptest::collection::vec((1u64..30, 10.0f64..200.0), 1..50)
    ) {
        let mut pdu = PduSampler::new(1, 0.0);
        let mut clock = 0u64;
        let mut expect = 0.0;
        let mut first = true;
        for (dt, watts) in samples {
            clock += dt;
            pdu.sample(0, SimTime::from_secs(clock), watts);
            expect += watts * if first { 1.0 } else { dt as f64 };
            first = false;
        }
        prop_assert!((pdu.cluster_energy() - expect).abs() < 1e-6);
    }

    /// A smoothed reading always lies within the range of inputs seen so
    /// far (the filter is a convex combination). Samples are 1 s apart, so
    /// a reading is the energy its sample adds.
    #[test]
    fn smoothing_is_bounded(
        tau in 0.5f64..10.0,
        samples in proptest::collection::vec(10.0f64..200.0, 2..40)
    ) {
        let mut pdu = PduSampler::new(1, tau);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &w) in samples.iter().enumerate() {
            lo = lo.min(w);
            hi = hi.max(w);
            let before = pdu.cluster_energy();
            pdu.sample(0, SimTime::from_secs(i as u64 + 1), w);
            let reading = pdu.cluster_energy() - before;
            prop_assert!(
                reading >= lo - 1e-9 && reading <= hi + 1e-9,
                "reading {reading} outside [{lo}, {hi}]"
            );
        }
    }

    /// Power is monotone in every activity dimension and bounded below by
    /// base power.
    #[test]
    fn power_monotone(
        cpu in 0.0f64..1.0,
        disk in 0.0f64..1.0,
        mem in 0.0f64..2.0,
        nic in 0.0f64..2.0,
        bump in 0.01f64..0.5,
    ) {
        let p = PowerProfile::grid5000_nancy();
        let base = NodeActivity { cpu, disk, mem_write_gbps: mem, nic_gbps: nic };
        let w0 = p.power(base);
        prop_assert!(w0 >= p.base_watts);
        for delta in [
            NodeActivity { cpu: (cpu + bump).min(1.0), ..base },
            NodeActivity { disk: (disk + bump).min(1.0), ..base },
            NodeActivity { mem_write_gbps: mem + bump, ..base },
            NodeActivity { nic_gbps: nic + bump, ..base },
        ] {
            prop_assert!(p.power(delta) >= w0 - 1e-9);
        }
    }
}
