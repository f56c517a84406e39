//! The hop trace: where a wire operation's latency goes, hop by hop, from
//! instruments the system already has.
//!
//! The `rmcd` fleet stamps RIFL-keyed send/deliver spans in each process's
//! own recorder, out of the harness's reach. An in-process [`NetCluster`]
//! runs the same nodes over the same loopback TCP with *one* recorder and
//! one clock, so a short burst of the workload there yields every hop of
//! every op on a common timeline. Client-observed latency minus the span
//! from request-send to response-deliver is what no instrument covers
//! (`client.unattributed_us_p50`).

use std::collections::HashMap;
use std::time::Instant;

use rmc_obs::span::{SpanEvent, SpanKind};
use rmc_standalone::{NetClient, NetCluster};
use rmc_ycsb::{OpKind, StandardWorkload};

use crate::metrics::Report;
use crate::stats::quantile;
use crate::values::{fill_value, Tag};
use crate::wire::{protocol_config, stream, REPLICATION, VALUE_BYTES};
use crate::Scale;

/// One traced client op: its RIFL trace id and what the client saw.
struct Observed {
    trace: (u64, u64),
    update: bool,
    latency_ns: u64,
}

/// Per-hop durations (ns) gathered over all complete timelines.
#[derive(Default)]
struct Hops {
    request: Vec<f64>,
    response: Vec<f64>,
    replicate: Vec<f64>,
    ack: Vec<f64>,
    read_turnaround: Vec<f64>,
    update_fanout: Vec<f64>,
    backup_turnaround: Vec<f64>,
    ack_to_response: Vec<f64>,
    unattributed: Vec<f64>,
}

/// Splits one op's events into hops. Timelines with a retry or a missing
/// stamp (anything but one send and one deliver per message) are skipped:
/// `None`.
fn decompose(events: &[&SpanEvent], op: &Observed, hops: &mut Hops) -> Option<()> {
    let stamps = |label: &str, kind: SpanKind| -> Vec<&SpanEvent> {
        events
            .iter()
            .copied()
            .filter(|e| e.label == label && e.kind == kind)
            .collect()
    };
    let one = |label: &str, kind: SpanKind| -> Option<u64> {
        match stamps(label, kind)[..] {
            [e] => Some(e.at_ns),
            _ => None,
        }
    };
    let ns = |from: u64, to: u64| to.saturating_sub(from) as f64;
    let req_send = one("request", SpanKind::Send)?;
    let req_deliver = one("request", SpanKind::Deliver)?;
    let resp_send = one("response", SpanKind::Send)?;
    let resp_deliver = one("response", SpanKind::Deliver)?;

    if op.update {
        let rep_send = stamps("replicate", SpanKind::Send);
        let rep_deliver = stamps("replicate", SpanKind::Deliver);
        let ack_send = stamps("replicate_ack", SpanKind::Send);
        let ack_deliver = stamps("replicate_ack", SpanKind::Deliver);
        if [&rep_send, &rep_deliver, &ack_send, &ack_deliver]
            .iter()
            .any(|v| v.len() != REPLICATION)
        {
            return None;
        }
        let first_fanout = rep_send.iter().map(|e| e.at_ns).min()?;
        let last_ack = ack_deliver.iter().map(|e| e.at_ns).max()?;
        hops.update_fanout.push(ns(req_deliver, first_fanout));
        hops.ack_to_response.push(ns(last_ack, resp_send));
        // Pair the four stamps of each backup by its node id.
        for sent in &rep_send {
            let backup = sent.to;
            let at = |v: &[&SpanEvent], by_from: bool| {
                v.iter()
                    .find(|e| if by_from { e.from } else { e.to } == backup)
                    .map(|e| e.at_ns)
            };
            let delivered = at(&rep_deliver, false)?;
            let acked = at(&ack_send, true)?;
            let ack_arrived = at(&ack_deliver, true)?;
            hops.replicate.push(ns(sent.at_ns, delivered));
            hops.backup_turnaround.push(ns(delivered, acked));
            hops.ack.push(ns(acked, ack_arrived));
        }
    } else {
        hops.read_turnaround.push(ns(req_deliver, resp_send));
    }
    hops.request.push(ns(req_send, req_deliver));
    hops.response.push(ns(resp_send, resp_deliver));
    hops.unattributed
        .push(op.latency_ns as f64 - ns(req_send, resp_deliver));
    Some(())
}

/// Loads an in-process cluster (tracing off), then traces
/// `scale.hop_ops_per_client` ops of `workload` on each of the clients and
/// returns the per-hop p50s.
pub fn trace(workload: StandardWorkload, seed: u64, scale: &Scale) -> Result<Report, String> {
    let clients = scale.wire_clients;
    let records = scale.wire_records;
    let (cluster, handles) = NetCluster::start(protocol_config(clients));

    // One client's share of the load, then of the traced burst. `seq`
    // mirrors the client's private RIFL sequence: one per request.
    let drive = |c: usize, client: &mut NetClient, seq: &mut u64, traced: bool| {
        let mut value = vec![0u8; VALUE_BYTES];
        let mut observed = Vec::new();
        let node = client.node().0 as u64;
        let mut gen = stream(workload, records, seed + c as u64);
        if !traced {
            for key_index in (c as u64..records).step_by(clients) {
                let key = gen.key_for(key_index);
                fill_value(
                    &mut value,
                    Tag {
                        writer: c as u64,
                        counter: *seq,
                    },
                    key_index,
                );
                *seq += 1;
                client.put(&key, &value)?;
            }
            return Ok::<_, String>(observed);
        }
        for _ in 0..scale.hop_ops_per_client {
            let req = gen.next_request().expect("unbounded stream");
            let key = gen.key_for(req.key_index);
            let update = req.kind != OpKind::Read;
            *seq += 1;
            let t0 = Instant::now();
            if update {
                fill_value(
                    &mut value,
                    Tag {
                        writer: c as u64,
                        counter: *seq,
                    },
                    req.key_index,
                );
                client.put(&key, &value)?;
            } else {
                client.get(&key)?;
            }
            observed.push(Observed {
                trace: (node, *seq),
                update,
                latency_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        Ok(observed)
    };
    let mut state: Vec<(NetClient, u64)> = handles.into_iter().map(|c| (c, 0u64)).collect();
    let mut phase = |traced: bool| -> Result<Vec<Observed>, String> {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = state
                .iter_mut()
                .enumerate()
                .map(|(c, (client, seq))| scope.spawn(move || drive(c, client, seq, traced)))
                .collect();
            let mut all = Vec::new();
            for h in spawned {
                all.extend(h.join().expect("hop-trace client")?);
            }
            Ok(all)
        })
    };
    // The recorder holds 65 536 events; the load alone would fill it.
    rmc_obs::set_enabled(false);
    let loaded = phase(false);
    rmc_obs::set_enabled(true);
    loaded?;
    let observed = phase(true)?;
    drop(state);
    let events = cluster.spans().events();
    let _ = cluster.shutdown();

    let mut by_trace: HashMap<(u64, u64), Vec<&SpanEvent>> = HashMap::new();
    for e in &events {
        by_trace.entry(e.trace).or_default().push(e);
    }
    let mut hops = Hops::default();
    let complete = observed
        .iter()
        .filter(|op| {
            by_trace
                .get(&op.trace)
                .and_then(|events| decompose(events, op, &mut hops))
                .is_some()
        })
        .count();
    if complete * 2 < observed.len() {
        return Err(format!(
            "hop trace: only {complete} of {} ops have a complete timeline",
            observed.len()
        ));
    }
    let mut report = Report::default();
    let mut p50_us = |name: &'static str, ns: &mut [f64]| {
        report.set(name, quantile(ns, 50.0) / 1e3);
    };
    p50_us("wire.hop_request_us_p50", &mut hops.request);
    p50_us("wire.hop_response_us_p50", &mut hops.response);
    p50_us("wire.hop_replicate_us_p50", &mut hops.replicate);
    p50_us("wire.hop_ack_us_p50", &mut hops.ack);
    p50_us(
        "core.node_read_turnaround_us_p50",
        &mut hops.read_turnaround,
    );
    p50_us("core.node_update_fanout_us_p50", &mut hops.update_fanout);
    p50_us("core.backup_turnaround_us_p50", &mut hops.backup_turnaround);
    p50_us("core.ack_to_response_us_p50", &mut hops.ack_to_response);
    p50_us("client.unattributed_us_p50", &mut hops.unattributed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &'static str, kind: SpanKind, from: usize, to: usize, at_ns: u64) -> SpanEvent {
        SpanEvent {
            trace: (4, 1),
            kind,
            label,
            from,
            to,
            at_ns,
        }
    }

    #[test]
    fn update_timeline_splits_into_hops_that_sum() {
        use SpanKind::{Deliver, Send};
        // Client 4 → master 1 → backups 2 and 3 → master → client.
        let events = [
            ev("request", Send, 4, 1, 1_000),
            ev("request", Deliver, 4, 1, 1_100),
            ev("replicate", Send, 1, 2, 1_150),
            ev("replicate", Send, 1, 3, 1_160),
            ev("replicate", Deliver, 1, 3, 1_260),
            ev("replicate", Deliver, 1, 2, 1_300),
            ev("replicate_ack", Send, 3, 1, 1_280),
            ev("replicate_ack", Send, 2, 1, 1_330),
            ev("replicate_ack", Deliver, 3, 1, 1_380),
            ev("replicate_ack", Deliver, 2, 1, 1_450),
            ev("response", Send, 1, 4, 1_470),
            ev("response", Deliver, 1, 4, 1_570),
        ];
        let refs: Vec<&SpanEvent> = events.iter().collect();
        let op = Observed {
            trace: (4, 1),
            update: true,
            latency_ns: 600,
        };
        let mut hops = Hops::default();
        decompose(&refs, &op, &mut hops).expect("complete timeline");
        assert_eq!(hops.request, [100.0]);
        assert_eq!(hops.update_fanout, [50.0]);
        assert_eq!(hops.replicate, [150.0, 100.0]);
        assert_eq!(hops.backup_turnaround, [30.0, 20.0]);
        assert_eq!(hops.ack, [120.0, 100.0]);
        assert_eq!(hops.ack_to_response, [20.0]);
        assert_eq!(hops.response, [100.0]);
        // 600 observed − 570 between first send and last deliver.
        assert_eq!(hops.unattributed, [30.0]);
        // The slow backup's chain plus the master's own steps is the whole
        // request-send → response-deliver interval.
        let chain = 100.0 + 50.0 + 150.0 + 30.0 + 120.0 + 20.0 + 100.0;
        assert_eq!(chain, 570.0);

        // A retried request has two sends: not a clean timeline.
        let mut retried = refs.clone();
        let dup = ev("request", Send, 4, 1, 1_050);
        retried.push(&dup);
        assert!(decompose(&retried, &op, &mut Hops::default()).is_none());
    }
}
