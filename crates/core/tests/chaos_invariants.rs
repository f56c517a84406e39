//! Chaos property suite: committed-write invariants under hundreds of
//! seeded fault plans.
//!
//! Each case generates a [`FaultPlan`] from a proptest-drawn seed, runs the
//! scripted protocol cluster under it in the deterministic engine, and
//! checks the recorded client histories against the converged live state:
//!
//! * acknowledged writes are durable (no lost updates),
//! * versions are monotone per key (no regressions),
//! * retried and duplicated operations apply exactly once (RIFL),
//! * once faults cease, the cluster converges and every script finishes.
//!
//! The vendored proptest shim does not shrink, so a failing seed is fed
//! through [`minimize`] to produce a minimal reproducing plan before
//! panicking; the panic message carries the seed, the violations, and the
//! minimal plan.

use proptest::prelude::*;
use rmc_chaos::{check_histories, minimize, Crash, FaultPlan, PlanShape, Violation};
use rmc_core::proto_sim::run_plan;
use rmc_core::protocol::{server_id, ClientOp, ProtocolConfig};
use rmc_runtime::{SimDuration, SimTime};

const SERVERS: usize = 4;
const CLIENTS: usize = 2;
const REPLICATION: usize = 2;
const OPS_PER_CLIENT: usize = 24;

fn shape() -> PlanShape {
    PlanShape::new((0..SERVERS).map(server_id).collect(), REPLICATION)
}

/// Per-client scripts over disjoint key namespaces (the checker treats each
/// key as single-writer): fresh puts, overwrites, deletes, re-creates, and
/// reads interleaved so every invariant has something to bite on.
fn scripts() -> Vec<Vec<ClientOp>> {
    (0..CLIENTS)
        .map(|c| {
            let key = |i: usize| format!("c{c}k{i:03}").into_bytes();
            let mut s = Vec::new();
            for i in 0..OPS_PER_CLIENT {
                s.push(ClientOp::Put {
                    key: key(i),
                    value: format!("c{c}v{i}").into_bytes(),
                });
                if i % 3 == 0 {
                    s.push(ClientOp::Get { key: key(i) });
                }
                if i % 4 == 3 {
                    s.push(ClientOp::Put {
                        key: key(i - 1),
                        value: format!("c{c}w{i}").into_bytes(),
                    });
                }
                if i % 5 == 4 {
                    s.push(ClientOp::Del { key: key(i - 2) });
                    s.push(ClientOp::Get { key: key(i - 2) });
                }
            }
            s
        })
        .collect()
}

struct Outcome {
    violations: Vec<Violation>,
    converged: bool,
}

fn run_and_check(plan: &FaultPlan) -> Outcome {
    let cfg = ProtocolConfig::new(SERVERS, CLIENTS, REPLICATION);
    let horizon = plan.quiesce_at.saturating_add(SimDuration::from_secs(30));
    let net = run_plan(&cfg, scripts(), plan, horizon);
    let converged = net.clients_done() && !net.recovery_pending();
    let violations = check_histories(&net.histories(), &net.live_map_versioned(), converged);
    Outcome {
        violations,
        converged,
    }
}

fn fails(plan: &FaultPlan) -> bool {
    let o = run_and_check(plan);
    !o.violations.is_empty() || !o.converged
}

/// Runs one seed end to end; on failure, minimizes the plan and panics with
/// everything needed to replay it.
fn check_seed(seed: u64) {
    let plan = FaultPlan::generate(seed, &shape());
    let outcome = run_and_check(&plan);
    if outcome.violations.is_empty() && outcome.converged {
        return;
    }
    let minimal = minimize(&plan, fails);
    let replay = run_and_check(&minimal);
    panic!(
        "seed {seed:#018x}: violations={:?} converged={}\n\
         minimal failing plan: {minimal:#?}\n\
         minimal outcome: violations={:?} converged={}",
        outcome.violations, outcome.converged, replay.violations, replay.converged,
    );
}

fn cases() -> u32 {
    std::env::var("RMC_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn generated_fault_plans_preserve_committed_writes(seed in any::<u64>()) {
        check_seed(seed);
    }
}

/// The pinned regression seeds the CI `chaos-smoke` job replays in release
/// mode. Override with `RMC_CHAOS_SEEDS=1,2,3` (comma-separated u64s,
/// `0x`-prefixed hex accepted). The last seven lost an acked write: the
/// first two while re-replication images were fire-and-forget (a recovery
/// reported done before its images were staged, and they were lost), the
/// other five while a recovery master measured its replay against its own
/// stale copy of the buckets it recovered (a write it had applied and never
/// had acked before it was declared dead).
const PINNED_SEEDS: [u64; 27] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_002a,
    0x0000_0000_dead_beef,
    0x0000_0000_d15e_a5e5,
    0x0123_4567_89ab_cdef,
    0x0bad_c0ff_ee00_0001,
    0x1111_1111_1111_1111,
    0x2222_2222_2222_2222,
    0x3141_5926_5358_9793,
    0x4242_4242_4242_4242,
    0x5555_5555_5555_5555,
    0x6180_3398_8749_8948,
    0x7777_7777_7777_7777,
    0x8000_0000_0000_0000,
    0x9e37_79b9_7f4a_7c15,
    0xaaaa_aaaa_aaaa_aaaa,
    0xcafe_f00d_cafe_f00d,
    0xdddd_dddd_dddd_dddd,
    0xfeed_face_feed_face,
    0xffff_ffff_ffff_ffff,
    0xa20f_191a_054a_8dbc,
    0xa4a1_bc14_8715_72d6,
    0x4d1c_bf2c_220c_665a,
    0x945b_0ae9_ee11_eae2,
    0xa246_27a7_4043_58a1,
    0x58be_a1ab_4113_2be3,
    0x6405_9d6e_366d_b535,
];

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[test]
fn pinned_seeds_preserve_committed_writes() {
    let seeds: Vec<u64> = match std::env::var("RMC_CHAOS_SEEDS") {
        Ok(v) => v.split(',').filter_map(parse_seed).collect(),
        Err(_) => PINNED_SEEDS.to_vec(),
    };
    assert!(!seeds.is_empty(), "no usable seeds in RMC_CHAOS_SEEDS");
    for seed in seeds {
        check_seed(seed);
    }
}

/// Satellite scenario: a backup dies mid-replication, its masters image
/// their logs onto fresh targets, and a later crash of one of those masters
/// still recovers the full live set — acked writes survive losing first a
/// replica and then the master itself.
#[test]
fn backup_death_then_master_crash_loses_nothing() {
    // In a 4-server ring with R=2, master 1 replicates to {2, 3}. Crash
    // server 2 (a backup of 1) early, then crash master 1 after it has
    // re-targeted onto {3, 0}.
    let mut plan = FaultPlan::quiet();
    plan.crashes.push(Crash {
        at: SimTime::ZERO.saturating_add(SimDuration::from_millis(30)),
        server: 2,
        restart_after: None,
    });
    plan.crashes.push(Crash {
        at: SimTime::ZERO.saturating_add(SimDuration::from_millis(200)),
        server: 1,
        restart_after: None,
    });
    plan.quiesce_at = SimTime::ZERO.saturating_add(SimDuration::from_millis(250));

    let cfg = ProtocolConfig::new(SERVERS, CLIENTS, REPLICATION);
    let horizon = plan.quiesce_at.saturating_add(SimDuration::from_secs(30));
    let net = run_plan(&cfg, scripts(), &plan, horizon);

    assert!(net.clients_done(), "scripts did not finish");
    assert!(!net.recovery_pending(), "recovery stuck");
    // Master 0 also replicated to the dead backup ({1, 2} -> {1, 3}), so a
    // surviving master must have imaged its log.
    let survivor = net.server(0).expect("server 0 alive");
    assert!(
        survivor.counters.reseeds > 0,
        "backup death did not trigger re-replication"
    );
    let violations = check_histories(&net.histories(), &net.live_map_versioned(), true);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Regression: the minimal plan (shrunk by [`minimize`] from generated
/// seed `0x2407f72017ce0115`) that exposed the duplicated-`TakeOverDone`
/// bug. A symmetric partition of server 2 triggers its recovery; the
/// network duplicates one recovery master's `TakeOverDone`, and a
/// completion *count* (instead of a per-master set) let the coordinator
/// finish the recovery with a third master's buckets never replayed —
/// silently losing acked writes.
#[test]
fn duplicated_takeover_done_must_not_complete_recovery_early() {
    use rmc_chaos::Partition;
    use rmc_runtime::NodeId;

    let mut plan = FaultPlan::quiet();
    plan.seed = 2596315427412771093;
    plan.drop_prob = 0.0380529347834536;
    plan.dup_prob = 0.02220562773121262;
    plan.delay_prob = 0.02365717010132351;
    plan.max_delay = SimDuration::from_nanos(9924000);
    plan.partitions.push(Partition {
        start: SimTime::ZERO.saturating_add(SimDuration::from_nanos(155341138)),
        heal: SimTime::ZERO.saturating_add(SimDuration::from_nanos(322923796)),
        group: vec![NodeId(3)],
        symmetric: true,
    });
    plan.backup_write_fail_prob = 0.018438799596644732;
    plan.quiesce_at = SimTime::ZERO.saturating_add(SimDuration::from_nanos(757670458));

    let outcome = run_and_check(&plan);
    assert!(outcome.converged, "cluster did not converge");
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}
