//! RPC span propagation over the existing RIFL ids.
//!
//! Every client request already carries an exactly-once RIFL id
//! `(client, seq)`; that pair *is* the trace id — no new wire fields. Both
//! engines stamp a [`SpanEvent`] at their single send chokepoint and their
//! single deliver chokepoint (`proto_sim::dispatch`/`deliver` under the
//! simulator, `Fabric::post`/`node_loop` under threads), so one client
//! operation yields a cross-node timeline: client send → master deliver →
//! replicate send → backup deliver → ack → reply. Under the simulator the
//! stamps are virtual time, making timelines bit-identical across replays
//! of the same seed.
//!
//! The recorder is owned by the engine instance (a `SimNet`, a cluster's
//! fabrics, one `rmcd` process), not global state, so concurrent tests
//! never see each other's spans. It is the repo's one trace instrument: a
//! node answers the Trace RPC with [`SpanRecorder::render`], so `kvshell
//! --connect … trace` pulls every node's spans from a live fleet.

use std::fmt::Write;
use std::sync::{Arc, Mutex};

/// A trace id: the RIFL `(client node id, sequence number)` pair.
pub type TraceId = (u64, u64);

/// Which side of the `Runtime` boundary stamped the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The message left its sender (`Runtime::send`).
    Send,
    /// The message reached its destination's handler.
    Deliver,
}

/// One stamped point in a request's cross-node timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The RIFL id of the client operation this message serves.
    pub trace: TraceId,
    /// Send or deliver side.
    pub kind: SpanKind,
    /// Message-variant label (`"request"`, `"replicate"`, …).
    pub label: &'static str,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Timestamp: virtual ns under the simulator, wall ns under threads.
    pub at_ns: u64,
}

#[derive(Debug, Default)]
struct SpanInner {
    events: Vec<SpanEvent>,
    dropped: u64,
}

/// Collects span events for one engine instance. Cheap to clone (shared).
///
/// Capacity-bounded: once full, further events are counted as dropped
/// rather than growing without limit under long benches.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    inner: Arc<Mutex<SpanInner>>,
    capacity: usize,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new(65_536)
    }
}

impl SpanRecorder {
    /// A recorder keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            inner: Arc::new(Mutex::new(SpanInner::default())),
            capacity,
        }
    }

    /// Stamps one event (no-op once the capacity is reached or
    /// instrumentation is globally disabled).
    pub fn record(
        &self,
        trace: TraceId,
        kind: SpanKind,
        label: &'static str,
        from: usize,
        to: usize,
        at_ns: u64,
    ) {
        if !crate::enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("span recorder poisoned");
        if inner.events.len() >= self.capacity {
            inner.dropped += 1;
            return;
        }
        inner.events.push(SpanEvent {
            trace,
            kind,
            label,
            from,
            to,
            at_ns,
        });
    }

    /// Every recorded event in arrival order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .events
            .clone()
    }

    /// Events dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("span recorder poisoned").dropped
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .events
            .len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The timeline of one trace id, ordered by timestamp (stable on ties,
    /// so a send at the same stamp as its deliver keeps arrival order).
    pub fn timeline(&self, trace: TraceId) -> Vec<SpanEvent> {
        let mut events: Vec<SpanEvent> = self
            .inner
            .lock()
            .expect("span recorder poisoned")
            .events
            .iter()
            .filter(|e| e.trace == trace)
            .cloned()
            .collect();
        events.sort_by_key(|e| e.at_ns);
        events
    }

    /// The distinct trace ids seen, in first-arrival order.
    pub fn traces(&self) -> Vec<TraceId> {
        let inner = self.inner.lock().expect("span recorder poisoned");
        let mut seen = Vec::new();
        for e in &inner.events {
            if !seen.contains(&e.trace) {
                seen.push(e.trace);
            }
        }
        seen
    }

    /// Renders one trace's timeline as text: one line per hop, in the
    /// format of [`SpanRecorder::render`].
    pub fn render_timeline(&self, trace: TraceId) -> String {
        render_events(&self.timeline(trace))
    }

    /// Renders every recorded event, one line each in arrival order (oldest
    /// first), then the count of events dropped after the capacity filled.
    /// This is the text a node answers the Trace RPC with. Linear in the
    /// number of events; the lock is held only to copy them.
    pub fn render(&self) -> String {
        let (events, dropped) = {
            let inner = self.inner.lock().expect("span recorder poisoned");
            (inner.events.clone(), inner.dropped)
        };
        let mut out = render_events(&events);
        let _ = writeln!(out, "({} events, {dropped} dropped)", events.len());
        out
    }
}

/// The one line format of span dumps: absolute stamp, signed delta from
/// the line before (arrival order may interleave threads), side, label,
/// hop and trace id.
fn render_events(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    let mut prev = events.first().map_or(0, |e| e.at_ns);
    for e in events {
        let side = match e.kind {
            SpanKind::Send => "send   ",
            SpanKind::Deliver => "deliver",
        };
        let _ = writeln!(
            out,
            "  {:>10.1} us ({:>+9.3} us) {side} {:<13} {} -> {}  ({}, {})",
            e.at_ns as f64 / 1_000.0,
            (e.at_ns as f64 - prev as f64) / 1_000.0,
            e.label,
            e.from,
            e.to,
            e.trace.0,
            e.trace.1,
        );
        prev = e.at_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_filters_and_orders_one_trace() {
        let rec = SpanRecorder::new(16);
        rec.record((9, 1), SpanKind::Send, "request", 9, 1, 100);
        rec.record((9, 2), SpanKind::Send, "request", 9, 1, 150);
        rec.record((9, 1), SpanKind::Deliver, "request", 9, 1, 300);
        rec.record((9, 1), SpanKind::Send, "replicate", 1, 2, 350);
        let tl = rec.timeline((9, 1));
        assert_eq!(tl.len(), 3);
        assert!(tl.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(tl.iter().all(|e| e.trace == (9, 1)));
        assert_eq!(rec.traces(), vec![(9, 1), (9, 2)]);
        let dump = rec.render_timeline((9, 1));
        assert_eq!(dump.lines().count(), 3, "{dump}");
        assert!(dump.contains("replicate"), "{dump}");
        assert!(dump.lines().all(|l| l.ends_with("(9, 1)")), "{dump}");
    }

    #[test]
    fn render_lists_every_event_in_arrival_order_then_the_drops() {
        let rec = SpanRecorder::new(3);
        rec.record((9, 1), SpanKind::Send, "request", 9, 1, 2_000);
        rec.record((9, 2), SpanKind::Send, "request", 9, 1, 1_500);
        rec.record((9, 1), SpanKind::Deliver, "request", 9, 1, 3_000);
        rec.record((9, 3), SpanKind::Send, "request", 9, 1, 4_000);
        let dump = rec.render();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "{dump}");
        assert!(
            lines[0].ends_with("send    request       9 -> 1  (9, 1)"),
            "{dump}"
        );
        assert!(lines[1].contains("(   -0.500 us)"), "{dump}");
        assert!(lines[2].contains(" deliver request "), "{dump}");
        assert_eq!(lines[3], "(3 events, 1 dropped)");
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        for i in 0..5 {
            rec.record((1, i), SpanKind::Send, "request", 0, 1, i);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn clones_share_the_event_store() {
        let rec = SpanRecorder::default();
        let clone = rec.clone();
        clone.record((1, 1), SpanKind::Send, "request", 0, 1, 10);
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
    }
}
