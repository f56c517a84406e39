//! Property-based crash-recovery test: for arbitrary cluster shapes,
//! replication factors, victims, and seeds, a single crash never loses
//! data and always ends with the victim owning nothing.

use proptest::prelude::*;
use rmc_core::{Cluster, ClusterConfig};
use rmc_sim::{SimTime, Simulation};
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
        let mut cluster = Cluster::new(cfg);
        cluster.preload();

        let mut sim = Simulation::new(cluster);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(5), move |cl: &mut Cluster, s| {
                cl.kill_server_now(victim, s);
            });
        sim.run();
        let cluster = sim.into_state();

        prop_assert!(cluster.coordinator().recovery.is_none());
        prop_assert_eq!(cluster.coordinator().completed_recoveries.len(), 1);
        let mut missing = Vec::new();
        for i in 0..records {
            let key = workload.key_for(i);
            if cluster.peek(&key).is_none() {
                missing.push(i);
            }
        }
        prop_assert!(
            missing.is_empty(),
            "lost {} of {} records (servers={}, R={}, victim={}, seed={})",
            missing.len(), records, servers, replication, victim, seed
        );
        for b in 0..cluster.coordinator().buckets() {
            prop_assert_ne!(cluster.coordinator().owner_of_bucket(b), victim);
        }
    }
}
