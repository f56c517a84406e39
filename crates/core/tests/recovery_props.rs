//! Property-based crash-recovery test: for arbitrary cluster shapes,
//! replication factors, victims, and seeds, a single crash of the paper's
//! cluster (the protocol under the cost layer) never loses data and always
//! ends with the victim owning nothing.

use proptest::prelude::*;
use rmc_core::{cost, ClusterConfig};
use rmc_sim::{SimDuration, SimTime};
use rmc_ycsb::{StandardWorkload, WorkloadSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn single_crash_never_loses_data(
        servers in 3usize..6,
        replication in 1u32..3,
        records in 100u64..400,
        seed in 0u64..1000,
        victim_pick in 0usize..6,
    ) {
        prop_assume!((replication as usize) < servers);
        let victim = victim_pick % servers;
        let workload = WorkloadSpec::standard(StandardWorkload::C)
            .with_record_count(records)
            .with_ops_per_client(0);
        let cfg = ClusterConfig::new(servers, 1, workload.clone())
            .with_replication(replication)
            .with_seed(seed);
        let kill = Some((SimTime::from_millis(5), victim));
        let run = cost::run(&cfg, kill, SimDuration::ZERO, false);

        prop_assert!(!run.net.recovery_pending());
        prop_assert!(run.report.recovery.is_some());
        let live = run.net.live_map();
        let missing: Vec<u64> = (0..records)
            .filter(|&i| !live.contains_key(&workload.key_for(i)))
            .collect();
        prop_assert!(
            missing.is_empty(),
            "lost {} of {} records (servers={}, R={}, victim={}, seed={})",
            missing.len(), records, servers, replication, victim, seed
        );
        prop_assert!(run.net.owners().iter().all(|&o| o != victim));
    }
}
