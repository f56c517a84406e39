//! The headline durability test: SIGKILL an entire `rmcd` fleet mid
//! write-burst with `--fsync per_write`, cold-restart every process on the
//! same addresses and data dirs, and prove via `check_histories` that no
//! acked write was lost — every acknowledged put reads back with exactly
//! the bytes that were acked.
//!
//! This drives real OS processes over real TCP, so it is `#[ignore]`d from
//! the default `cargo test` sweep; CI's recovery-smoke job runs it with
//! `cargo test --release -p rmc-standalone --test kill9_recovery -- --ignored`
//! (the release `rmcd` binary must exist first — `rmcd_sibling_path` finds
//! it next to the test runner).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rmc_chaos::{check_histories, OpKind, OpRecord};
use rmc_core::protocol::{coordinator_id, server_id, ProtocolConfig};
use rmc_runtime::SimDuration;
use rmc_standalone::{reserve_addrs, rmcd_sibling_path, FleetConfig, NetClient, RmcdFleet};
use rmc_wire::AddressBook;

const SERVERS: usize = 3;
const REPLICATION: usize = 2;
/// Acked writes required before the axe falls — enough to span several
/// 64 KiB segments across every server's buckets.
const MIN_ACKED: usize = 120;

fn client_cfg() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(SERVERS, 2, REPLICATION);
    cfg.retry_timeout = SimDuration::from_millis(50);
    cfg
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

#[test]
#[ignore = "spawns an rmcd process fleet; build rmcd, then run with -- --ignored"]
fn kill9_whole_fleet_mid_burst_loses_no_acked_write() {
    let bin = rmcd_sibling_path().expect("rmcd binary");
    let addrs = reserve_addrs(1 + SERVERS).expect("reserve ports");
    let base = std::env::temp_dir().join(format!("rmc-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Vec<PathBuf> = (0..SERVERS).map(|i| base.join(format!("s{i}"))).collect();

    let mut fleet_cfg = FleetConfig::new(bin, addrs.clone(), SERVERS, REPLICATION);
    fleet_cfg.data_dirs = Some(dirs);
    fleet_cfg.fsync = Some("per_write".into()); // every ack durable
    fleet_cfg.heartbeat_ms = Some(15);
    fleet_cfg.failure_ms = Some(300);
    fleet_cfg.retry_ms = Some(50);
    let mut fleet = RmcdFleet::spawn(fleet_cfg).expect("spawn fleet");
    let book: Vec<Option<SocketAddr>> = addrs.iter().copied().map(Some).collect();

    // Sequential single-writer burst: each op retried until acked before
    // the next is issued (the discipline `check_histories` assumes), so at
    // most the final op — the one the SIGKILL lands on — is unacked.
    let history: Arc<Mutex<Vec<OpRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let writer = {
        let history = Arc::clone(&history);
        let book = book.clone();
        std::thread::spawn(move || {
            let mut client = NetClient::connect(client_cfg(), 0, AddressBook::new(book));
            client.set_op_budget(Duration::from_secs(3));
            for i in 0u64.. {
                let key = format!("k9_{i:06}").into_bytes();
                let value = format!("v{i:06}.{}", "payload".repeat(64)).into_bytes();
                match client.put_versioned(&key, &value) {
                    Ok(version) => history.lock().unwrap().push(OpRecord {
                        key,
                        kind: OpKind::Put(value),
                        acked: true,
                        version,
                        read: None,
                        retries: 0,
                    }),
                    Err(_) => {
                        // The fleet died under this op: it may or may not
                        // have applied. Record it unacked and stop.
                        history.lock().unwrap().push(OpRecord {
                            key,
                            kind: OpKind::Put(value),
                            acked: false,
                            version: 0,
                            read: None,
                            retries: 0,
                        });
                        break;
                    }
                }
            }
        })
    };

    // Let the burst land, then SIGKILL every process — coordinator and all
    // servers — with a write in flight. Nothing flushes; what survives is
    // exactly what per-write fsync made durable before each ack.
    let burst_deadline = Instant::now() + Duration::from_secs(60);
    while history.lock().unwrap().iter().filter(|o| o.acked).count() < MIN_ACKED {
        assert!(
            Instant::now() < burst_deadline,
            "write burst never reached {MIN_ACKED} acked ops"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    fleet.kill_all();
    writer.join().expect("writer thread");
    let histories = vec![history.lock().unwrap().clone()];
    let acked: Vec<&OpRecord> = histories[0].iter().filter(|o| o.acked).collect();
    assert!(acked.len() >= MIN_ACKED);

    // Cold restart: same addresses, same data dirs. Each server bumps its
    // persisted epoch and rejoins with its staged segments recovered from
    // disk; the fresh coordinator's restart detection declares every old
    // incarnation dead (deferring the last until survivors are readmitted)
    // and replays their data from the other servers' recovered replicas.
    fleet.restart_coordinator().expect("restart coordinator");
    for i in 0..SERVERS {
        fleet.restart(i).expect("restart server");
    }

    let mut client = NetClient::connect(client_cfg(), 1, AddressBook::new(book));
    client.set_op_budget(Duration::from_secs(10));
    let quiesce_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.node_stats(coordinator_id()).unwrap_or_default();
        if stat(&stats, "restarts_detected") >= SERVERS as u64
            && stat(&stats, "recoveries_pending") == 0
        {
            break;
        }
        assert!(
            Instant::now() < quiesce_deadline,
            "restart recovery never quiesced: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Final live map over the wire. `Reply::Value` carries no version, so
    // the live version is taken from the put's own ack — value loss and
    // value corruption are what the wire can prove, and they are exactly
    // the acceptance bar ("every acked write readable as acked").
    //
    // The map may still be propagating right after the recovery quiesced,
    // so absent keys are read again until one deadline, shared by the whole
    // read-back, passes; a key still absent then is lost. A lost partition
    // therefore fails within the deadline instead of waiting once per key.
    let mut live: BTreeMap<Vec<u8>, (Vec<u8>, u64)> = BTreeMap::new();
    let mut absent = acked.clone();
    let read_deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut still_absent = Vec::new();
        for op in absent {
            match client.get(&op.key).expect("post-restart read") {
                Some(value) => {
                    live.insert(op.key.clone(), (value, op.version));
                }
                None => still_absent.push(op),
            }
        }
        absent = still_absent;
        if absent.is_empty() || Instant::now() >= read_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let violations = check_histories(&histories, &live, false);
    if !violations.is_empty() {
        let lost: Vec<String> = absent
            .iter()
            .map(|op| String::from_utf8_lossy(&op.key).into_owned())
            .collect();
        let coordinator = client.node_stats(coordinator_id());
        let staged: Vec<String> = (0..SERVERS)
            .map(|i| match client.node_stats(server_id(i)) {
                Ok(stats) => format!(
                    "server {i}: staged_segments {}",
                    stat(&stats, "staged_segments")
                ),
                Err(e) => format!("server {i}: no stats ({e})"),
            })
            .collect();
        panic!(
            "acked writes lost or corrupted across kill-9 + cold restart:\n{}\n\
             {} keys absent after the read-back deadline: {lost:?}\n\
             coordinator stats: {coordinator:?}\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
            lost.len(),
            staged.join("\n"),
        );
    }

    fleet
        .shutdown(Duration::from_secs(10))
        .expect("graceful shutdown after the test");
    let _ = std::fs::remove_dir_all(&base);
}
