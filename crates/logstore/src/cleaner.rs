//! The log cleaner: two levels, runnable concurrently with readers.
//!
//! RAMCloud's log-structured memory reclaims dead space by *cleaning*: pick
//! closed segments with little live data, relocate the live entries, update
//! the index, and recycle the segments. This module implements cleaning at
//! two levels, mirroring RAMCloud's design:
//!
//! - **In-memory compaction** ([`CleanKind::Compact`]) squeezes the dead
//!   bytes out of a *single* segment by copying its live entries into a
//!   tightly packed survivor that charges the memory budget only its
//!   seglet-rounded length. Cheap (one segment of work) and it frees bytes,
//!   but never whole segment slots and never tombstones.
//! - **Combined cleaning** ([`CleanKind::Combined`]) merges several victims
//!   chosen by the classic LFS cost-benefit score
//!
//!   ```text
//!   benefit / cost = (1 − u) · (age + 1) / (1 + u)
//!   ```
//!
//!   (`u` = live fraction, age = head rolls since creation) into survivor
//!   segments, dropping expired tombstones along the way and freeing whole
//!   slots.
//!
//! A balancer ([`Store::clean_pressure`]) picks the level from free-slot
//! pressure and the write rate since the last pass.
//!
//! # The concurrent protocol
//!
//! Cleaning is split into three phases so that a background thread can do
//! the expensive byte-copying without stalling service threads:
//!
//! 1. [`Store::prepare_clean`] (`&self`, brief shared lock): select victims,
//!    snapshot them, pre-filter entry liveness against the index, and
//!    reserve survivor segment ids.
//! 2. [`CleanPlan::build`] (no lock at all): memcpy the live entries into
//!    survivor segments.
//! 3. [`Store::apply_clean`] (`&mut self`, brief exclusive lock): re-verify
//!    each relocation against the index (entries may have died in the
//!    meantime), atomically swing the index, install the survivors, retire
//!    the victims into an epoch-stamped limbo list, and reclaim whatever
//!    the epoch scheme (see [`crate::epoch`]) already allows.
//!
//! The phases are the only cleaner there is; what differs is who drives
//! them. A background thread takes the locks phase by phase;
//! [`Store::clean_step`] runs all three back-to-back under one borrow (the
//! deterministic driver of the simulated engine); and a store nobody drives
//! cleans when it is full: the write path, finding no room for an append,
//! runs combined passes under its own borrow until [`TARGET_FREE_SLOTS`] is
//! met. Survivors are built outside the log, so a pass needs no free slot
//! to start from.
//!
//! The paper's workloads were deliberately sized *not* to trigger the
//! cleaner (Section III-C) — the cleaner comparison recorded in
//! EXPERIMENTS.md measured exactly what the paper avoided.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::entry::LogEntry;
use crate::segbuf::SegmentArena;
use crate::segment::Segment;
use crate::store::Store;
use crate::types::{key_hash, KeyHash, LogPosition, SegmentId};

/// The hard reserve: at or below this many free segment slots the balancer
/// asks for combined cleaning (above it, for compaction).
const MIN_FREE_SLOTS: usize = 2;

/// Cleaning continues until this many slots are free (or no candidate
/// remains). A log must have more slots than this: the head always occupies
/// one, so a log of `TARGET_FREE_SLOTS` slots could never reach the target
/// and its cleaner would spin forever.
pub const TARGET_FREE_SLOTS: usize = 4;

/// Segments with a live fraction above this are never cleaned: cleaning one
/// costs almost a full segment of writes for almost no gain.
const MAX_CANDIDATE_UTILIZATION: f64 = 0.97;

/// Most victims merged by one combined pass.
const MAX_VICTIMS: usize = 8;

// A pass that stops short of its own trigger would spin forever.
const _: () = assert!(MIN_FREE_SLOTS <= TARGET_FREE_SLOTS);
// A combined pass must be able to pick a victim.
const _: () = assert!(MAX_VICTIMS >= 1);
// A live fraction, and one that admits some candidate.
const _: () = assert!(MAX_CANDIDATE_UTILIZATION > 0.0 && MAX_CANDIDATE_UTILIZATION <= 1.0);

/// Which cleaning level a pass runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanKind {
    /// In-memory compaction: one victim, frees bytes but no slots.
    Compact,
    /// Combined cost-benefit cleaning: multiple victims, frees whole slots
    /// and drops expired tombstones.
    Combined,
}

/// What one cleaning invocation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanOutcome {
    /// Segments whose memory was actually reclaimed (epoch-safe).
    pub segments_freed: u64,
    /// Live bytes copied into survivors.
    pub bytes_relocated: u64,
    /// Tombstones found safe to drop.
    pub tombstones_dropped: u64,
    /// Victims processed by the in-memory compaction level.
    pub segments_compacted: u64,
    /// Bytes of survivor segments installed.
    pub survivor_bytes: u64,
}

/// One entry scheduled for relocation, located inside a snapshotted victim.
#[derive(Debug, Clone, Copy)]
struct PlannedItem {
    victim_idx: usize,
    offset: u32,
    len: usize,
    /// Index entry to swing for a live object; `None` for a kept tombstone
    /// or completion record (neither has an index entry).
    swing: Option<KeyHash>,
}

/// Phase-1 output: victims snapshotted, liveness pre-filtered, survivor ids
/// reserved. Owns everything it needs, so [`CleanPlan::build`] runs with no
/// reference to the store at all.
#[derive(Debug)]
pub struct CleanPlan {
    kind: CleanKind,
    victims: Vec<SegmentId>,
    victim_segments: Vec<Segment>,
    survivor_ids: Vec<SegmentId>,
    /// The log's arena, which the survivors take their slots from.
    arena: Arc<SegmentArena>,
    items: Vec<PlannedItem>,
    tombstones_droppable: u64,
}

impl CleanPlan {
    /// The selected victim segments (for tests and diagnostics).
    pub fn victims(&self) -> &[SegmentId] {
        &self.victims
    }

    /// Phase 2: copies every planned entry into tightly packed survivor
    /// segments. Pure computation over the snapshot — run it without any
    /// lock held.
    pub fn build(self) -> PreparedClean {
        let CleanPlan {
            kind,
            victims,
            victim_segments,
            survivor_ids,
            arena,
            items,
            tombstones_droppable,
        } = self;
        let mut ids = survivor_ids.into_iter();
        let mut survivors: Vec<Segment> = Vec::new();
        let mut current: Option<Segment> = None;
        let mut relocations = Vec::new();
        let mut kept = Vec::new();
        let mut bytes_relocated = 0u64;
        for item in items {
            let src = victim_segments[item.victim_idx].as_bytes();
            let raw = &src[item.offset as usize..item.offset as usize + item.len];
            loop {
                let seg = current.get_or_insert_with(|| {
                    Segment::new(ids.next().expect("survivor ids are over-reserved"), &arena)
                });
                match seg.append_raw(raw) {
                    Ok(off) => {
                        let new = LogPosition {
                            segment: seg.id(),
                            offset: off,
                        };
                        let old = LogPosition {
                            segment: victims[item.victim_idx],
                            offset: item.offset,
                        };
                        match item.swing {
                            Some(hash) => relocations.push(Relocation {
                                hash,
                                old,
                                new,
                                size: item.len,
                            }),
                            None => kept.push((new, item.len)),
                        }
                        bytes_relocated += item.len as u64;
                        break;
                    }
                    Err(_) => {
                        let mut full = current.take().expect("just inserted");
                        full.close();
                        survivors.push(full);
                    }
                }
            }
        }
        if let Some(mut last) = current {
            last.close();
            if !last.is_empty() {
                survivors.push(last);
            }
        }
        PreparedClean {
            kind,
            victims,
            survivors,
            relocations,
            kept,
            tombstones_dropped: tombstones_droppable,
            bytes_relocated,
        }
    }
}

/// One index swing scheduled by the cleaner: the entry at `old` was copied
/// to `new`; the swing commits only if the index still points at `old`.
#[derive(Debug, Clone, Copy)]
struct Relocation {
    hash: KeyHash,
    old: LogPosition,
    new: LogPosition,
    size: usize,
}

/// Phase-2 output: survivor segments fully built, awaiting the brief
/// exclusive [`Store::apply_clean`].
#[derive(Debug)]
pub struct PreparedClean {
    kind: CleanKind,
    victims: Vec<SegmentId>,
    survivors: Vec<Segment>,
    relocations: Vec<Relocation>,
    /// Copied entries with no index entry: needed tombstones and kept
    /// completion records.
    kept: Vec<(LogPosition, usize)>,
    tombstones_dropped: u64,
    bytes_relocated: u64,
}

impl Store {
    /// Scores a candidate segment; higher is better to clean.
    fn cost_benefit(&self, id: SegmentId) -> Option<f64> {
        let u = self.log.segment_utilization(id)?;
        if u > MAX_CANDIDATE_UTILIZATION {
            return None;
        }
        let age = self.log.segment_age(id)? as f64;
        Some((1.0 - u) * (age + 1.0) / (1.0 + u))
    }

    /// The balancer: decides whether cleaning is warranted right now and at
    /// which level. `None` means no pressure.
    ///
    /// Policy: no cleaning at or above [`TARGET_FREE_SLOTS`] free slots. At
    /// or below the hard reserve (`MIN_FREE_SLOTS`), combined cleaning —
    /// only it frees whole slots and drops tombstones. In between, the
    /// cheap in-memory compaction level squeezes dead bytes out of a
    /// single segment *if* one has decayed enough to be worth copying
    /// (see [`Store::prepare_clean`]); otherwise the balancer deliberately
    /// waits — cleaning a segment later always costs less, because more of
    /// it has died. The recent write rate does not move the trigger (it
    /// would chase the free-slot count one-for-one and fire on every
    /// segment close); it deepens each combined pass instead, so a fast
    /// writer gets more slots per pass rather than earlier, younger
    /// victims.
    pub fn clean_pressure(&self) -> Option<CleanKind> {
        let free = self.log.free_segment_slots();
        if free >= TARGET_FREE_SLOTS {
            return None;
        }
        if free <= MIN_FREE_SLOTS {
            return Some(CleanKind::Combined);
        }
        Some(CleanKind::Compact)
    }

    /// Phase 1 of a concurrent clean: pick victims, snapshot them,
    /// pre-filter liveness, reserve survivor ids. Runs under `&self` — a
    /// shared lock suffices. Returns `None` when no victim qualifies.
    ///
    /// A tombstone is kept while its key stays deleted: older versions of
    /// the key — overwritten records the cleaner has not reached yet, and
    /// completion records it keeps — may sit anywhere in the log, and an
    /// image of the log must not hand them to a replay without it. Once the
    /// key is written again, the tombstone is kept only while the dead
    /// object's segment is. Droppability is decided here, which is safe
    /// even though the store keeps mutating: segment ids are never reused,
    /// so "the dead object's segment is gone (or is a victim of this very
    /// pass)" can only become *more* true by apply time, and a key deleted
    /// again by then has a newer tombstone of its own.
    ///
    /// A pass also keeps each overwritten object record that is still its
    /// client's latest RIFL completion: a replica of the log must still
    /// answer that client's retry.
    pub fn prepare_clean(&self, kind: CleanKind) -> Option<CleanPlan> {
        let segment_bytes = self.log.config().segment_bytes;
        let victims: Vec<SegmentId> = match kind {
            CleanKind::Compact => {
                // The single closed segment whose seglet-rounded live bytes
                // undercut its current charge the most. Compacting copies
                // the victim's whole live set, so demand a gain of at least
                // half a segment: that bounds the copy at one byte written
                // per byte reclaimed. A lower bar re-copies mostly-live
                // segments for seglet crumbs, and the churn costs more than
                // the bytes it returns.
                let seglet = self.log.seglet_bytes();
                let min_gain = seglet.max(segment_bytes / 2);
                self.log
                    .closed_segment_ids()
                    .into_iter()
                    .filter_map(|id| {
                        let charge = self.log.segment_charged_bytes(id)?;
                        let live = self.log.live_bytes(id);
                        let packed = live.div_ceil(seglet).saturating_mul(seglet);
                        let gain = charge.checked_sub(packed)?;
                        (gain >= min_gain).then_some((id, gain))
                    })
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .map(|(id, _)| vec![id])
                    .unwrap_or_default()
            }
            CleanKind::Combined => {
                let mut scored: Vec<(SegmentId, f64)> = self
                    .log
                    .closed_segment_ids()
                    .into_iter()
                    .filter_map(|id| self.cost_benefit(id).map(|s| (id, s)))
                    .collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                // Take the fewest victims (best score first) whose projected
                // byte gain covers the free-slot deficit. Cleaning deeper
                // into the candidate list than the deficit demands copies
                // nearly-live segments for marginal returns — the dominant
                // write-amplification cost at high memory utilization. The
                // write rate enters here (not in the trigger): a fast writer
                // since the last pass widens the deficit, buying more slots
                // per pass instead of starting passes earlier.
                let seglet = self.log.seglet_bytes();
                let burst_slots = ((self.log.total_appended_bytes() - self.last_clean_appended)
                    / segment_bytes.max(1) as u64) as usize;
                let deficit_bytes = TARGET_FREE_SLOTS
                    .saturating_sub(self.log.free_segment_slots())
                    .max(1)
                    .saturating_add(burst_slots.min(2))
                    .saturating_mul(segment_bytes);
                let mut victims = Vec::new();
                let mut gain = 0usize;
                for (id, _) in scored {
                    if victims.len() >= MAX_VICTIMS || gain >= deficit_bytes {
                        break;
                    }
                    let charge = self.log.segment_charged_bytes(id).unwrap_or(segment_bytes);
                    let live = self.log.live_bytes(id);
                    let packed = live.div_ceil(seglet).saturating_mul(seglet);
                    gain += charge.saturating_sub(packed);
                    victims.push(id);
                }
                victims
            }
        };
        if victims.is_empty() {
            return None;
        }
        let victim_segments: Vec<Segment> = victims
            .iter()
            .map(|&id| self.log.segment(id).expect("victim is allocated").clone())
            .collect();
        let mut items = Vec::new();
        let mut tombstones_droppable = 0u64;
        let mut copy_bytes = 0usize;
        for (vi, seg) in victim_segments.iter().enumerate() {
            let victim = victims[vi];
            for (offset, entry) in seg.iter() {
                let pos = LogPosition {
                    segment: victim,
                    offset,
                };
                // What to copy, and the index entry to swing for it (none for
                // a tombstone, nor for an overwritten object that is still its
                // client's latest completion).
                let keep = match entry {
                    LogEntry::Object(ref o) => {
                        let hash = key_hash(o.table, &o.key);
                        if self.index.candidates(hash).any(|p| p == pos) {
                            Some(Some(hash))
                        } else {
                            let latest = o.completion.is_some_and(|c| {
                                self.completions.get(&c.client) == Some(&(c.seq, o.version))
                            });
                            latest.then_some(None)
                        }
                    }
                    LogEntry::Tombstone(ref t) => {
                        let key_deleted = self
                            .dead_versions
                            .get(&key_hash(t.table, &t.key).0)
                            .is_some_and(|&floor| floor >= t.version);
                        let droppable = !key_deleted
                            && (victims.contains(&t.dead_segment)
                                || !self.log.contains_segment(t.dead_segment));
                        tombstones_droppable += u64::from(droppable);
                        (!droppable).then_some(None)
                    }
                };
                if let Some(swing) = keep {
                    let len = entry.serialized_len();
                    items.push(PlannedItem {
                        victim_idx: vi,
                        offset,
                        len,
                        swing,
                    });
                    copy_bytes += len;
                }
            }
        }
        // Over-reserve survivor ids for the worst first-fit packing (every
        // closed survivor at least half full). Unused ids are simply never
        // minted into segments; ids are cheap and never reused anyway.
        let n_ids = copy_bytes.div_ceil(segment_bytes) * 2 + 2;
        let survivor_ids = (0..n_ids).map(|_| self.log.reserve_segment_id()).collect();
        Some(CleanPlan {
            kind,
            victims,
            victim_segments,
            survivor_ids,
            arena: Arc::clone(self.log.arena()),
            items,
            tombstones_droppable,
        })
    }

    /// Phase 3 of a concurrent clean: re-verify and swing the index,
    /// install survivors, retire victims into epoch limbo, and reclaim
    /// whatever is already epoch-safe. Brief — no byte copying happens
    /// here.
    ///
    /// Returns `None` (a clean no-op) when a victim vanished between
    /// prepare and apply — a full log made the write path clean for itself,
    /// and its pass already relocated the victim's live entries.
    pub fn apply_clean(&mut self, prepared: PreparedClean) -> Option<CleanOutcome> {
        if prepared
            .victims
            .iter()
            .any(|&v| !self.log.contains_segment(v))
        {
            return None;
        }
        let PreparedClean {
            kind,
            victims,
            survivors,
            relocations,
            kept,
            tombstones_dropped,
            bytes_relocated,
        } = prepared;
        // Verified-live bytes per survivor — a read-only pass. An entry that
        // died between prepare and apply (overwritten or deleted by a
        // service thread) no longer has its old position in the index, and
        // its survivor copy is dead on arrival. Nothing can change between
        // this check and the swings below: we hold `&mut self`.
        let mut live: BTreeMap<SegmentId, usize> = BTreeMap::new();
        for r in &relocations {
            if self.index.candidates(r.hash).any(|p| p == r.old) {
                *live.entry(r.new.segment).or_default() += r.size;
            }
        }
        for &(pos, size) in &kept {
            *live.entry(pos.segment).or_default() += size;
        }
        // Install (and thereby publish in the lock-free segment map) every
        // surviving segment BEFORE swinging a single index entry: a
        // lock-free reader that picks up a swung position must be able to
        // resolve the survivor's buffer, or it would burn its whole retry
        // budget on a position the map cannot serve yet.
        let mut survivor_bytes = 0u64;
        for seg in survivors {
            let live_bytes = live.get(&seg.id()).copied().unwrap_or(0);
            if live_bytes == 0 {
                // Nothing live landed here (every relocation died and no
                // tombstone was kept): no index entry will reference the
                // survivor, so drop it instead of installing garbage.
                continue;
            }
            survivor_bytes += seg.len() as u64;
            self.log.install_survivor(seg, live_bytes);
        }
        for r in &relocations {
            // Swings for dead entries fail harmlessly (the old position is
            // gone from the index).
            let _ = self.index.update(r.hash, r.old, r.new);
        }
        let epoch_now = self.epoch.current();
        for &v in &victims {
            self.log.retire_segment(v, epoch_now);
        }
        // Flip the epoch twice. Lock-free readers pin epochs (the shard
        // write lock this runs under does NOT exclude them), so a reader
        // mid-probe defers both the advance and the reclaim to a later
        // pass; an outstanding zero-copy value view likewise holds its
        // victim in limbo through the buffer refcount. That deferral is
        // the whole point.
        self.epoch.try_advance();
        self.epoch.try_advance();
        let reclaimed = self.log.reclaim_retired(self.epoch.safe_epoch());
        let outcome = CleanOutcome {
            segments_freed: reclaimed as u64,
            bytes_relocated,
            tombstones_dropped,
            segments_compacted: if kind == CleanKind::Compact {
                victims.len() as u64
            } else {
                0
            },
            survivor_bytes,
        };
        self.stats.cleanings += 1;
        self.stats.segments_freed += outcome.segments_freed;
        self.stats.bytes_relocated += outcome.bytes_relocated;
        self.stats.tombstones_dropped += outcome.tombstones_dropped;
        self.stats.segments_compacted += outcome.segments_compacted;
        self.stats.survivor_bytes += outcome.survivor_bytes;
        self.last_clean_appended = self.log.total_appended_bytes();
        Some(outcome)
    }

    /// Advances the reclamation epoch as far as pinned readers allow and
    /// reclaims every limbo segment that became safe, without waiting for
    /// pinned readers.
    pub fn reclaim_now(&mut self) -> usize {
        self.epoch.try_advance();
        self.epoch.try_advance();
        let n = self.log.reclaim_retired(self.epoch.safe_epoch());
        self.stats.segments_freed += n as u64;
        n
    }

    /// Runs at most one full cleaning pass (prepare → build → apply under a
    /// single borrow) if the balancer sees pressure, reclaiming any
    /// previously deferred limbo segments first. Deterministic: a pure
    /// function of store state, which is what lets the simulated engine
    /// drive cleaning per-event and stay bit-identical across runs.
    pub fn clean_step(&mut self) -> Option<CleanOutcome> {
        let reclaimed = if self.log.limbo_segments() > 0 {
            self.reclaim_now() as u64
        } else {
            0
        };
        // No fallback from Compact to Combined here: if no segment has
        // decayed enough to be worth compacting, waiting is the right move —
        // combined cleaning kicks in on its own once free slots reach the
        // hard reserve, and by then the victims are deader and cheaper.
        let stepped = self.clean_pressure().and_then(|kind| {
            let plan = self.prepare_clean(kind)?;
            self.apply_clean(plan.build())
        });
        match (stepped, reclaimed) {
            (Some(mut out), r) => {
                out.segments_freed += r;
                Some(out)
            }
            (None, 0) => None,
            (None, r) => Some(CleanOutcome {
                segments_freed: r,
                ..CleanOutcome::default()
            }),
        }
    }

    /// Reclaims limbo segments like [`Store::reclaim_now`], but waits out
    /// concurrently pinned lock-free readers instead of giving up when the
    /// epoch cannot flip yet. A pin lasts microseconds of CPU (one validated
    /// probe plus one parse) but as long as the scheduler likes when its
    /// reader is preempted mid-probe, so the wait is bounded by time, not by
    /// spins; the alternative — this runs on a write that found the log
    /// full — is failing a write whose memory is moments from being free.
    /// Only outstanding [`crate::ValueView`]s can legitimately outlast the
    /// wait: then the memory truly is pinned, the loop sees that and stops
    /// at once, and the out-of-memory error stands.
    pub(crate) fn reclaim_waiting(&mut self) {
        /// Longer than a preempted reader waits for a CPU on a loaded host.
        const MAX_WAIT: Duration = Duration::from_millis(500);
        let start = Instant::now();
        loop {
            self.reclaim_now();
            // Whatever remains in limbo past its epoch is view-held;
            // waiting longer cannot free it.
            let view_held = self.log.limbo_held_by_views(self.epoch.safe_epoch());
            if self.log.limbo_segments() <= view_held || start.elapsed() >= MAX_WAIT {
                break;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::types::TableId;

    const T: TableId = TableId(1);

    fn churn_store(max_segments: usize) -> Store {
        Store::new(LogConfig {
            segment_bytes: 512,
            max_segments,
            ordered_index: false,
        })
    }

    /// A store rebuilt by replaying every segment image of `s`'s log: what
    /// recovery finds on a backup adopted after `s` cleaned.
    fn replayed(s: &Store) -> Store {
        let mut fresh = churn_store(s.log().config().max_segments);
        for id in s.log().segment_ids() {
            for (_, entry) in s.log().segment(id).unwrap().iter() {
                match entry {
                    LogEntry::Object(o) => fresh.replay_object(&o).map(drop),
                    LogEntry::Tombstone(t) => fresh.replay_tombstone(&t).map(drop),
                }
                .unwrap();
            }
        }
        fresh
    }

    /// Runs combined passes until the log no longer holds `segment`.
    fn clean_away(s: &mut Store, segment: SegmentId) {
        while s.log().contains_segment(segment) {
            let plan = s.prepare_clean(CleanKind::Combined).expect("a victim");
            s.apply_clean(plan.build());
        }
    }

    /// 16 segments × 512 B ≈ 8 KB of log, 40× that volume churned over a
    /// small key set. `step_driven` plays an external driver (the simulator,
    /// a background thread) with one `clean_step` a round; without it the
    /// write path alone makes room, when the log is full.
    fn churn_in_bounded_memory(step_driven: bool) {
        let mut s = churn_store(16);
        for round in 0..400 {
            for k in 0..8 {
                s.write(
                    T,
                    format!("key{k}").as_bytes(),
                    format!("value-{round}").as_bytes(),
                )
                .unwrap();
                assert!(
                    s.log().charged_bytes() <= s.log().budget_bytes(),
                    "memory stays within budget"
                );
            }
            if step_driven {
                let _ = s.clean_step();
            }
        }
        for k in 0..8 {
            let got = s.read(T, format!("key{k}").as_bytes()).unwrap();
            assert_eq!(&got.value[..], b"value-399");
        }
        let stats = s.stats();
        assert!(stats.cleanings > 0, "cleaner must have run");
        assert!(stats.segments_freed > 0);
        assert_eq!(
            s.log().limbo_segments(),
            0,
            "with no pinned readers every pass reclaims its own victims"
        );
    }

    #[test]
    fn overwrite_churn_survives_in_bounded_memory() {
        churn_in_bounded_memory(false);
    }

    #[test]
    fn step_cleaning_bounds_memory_under_churn() {
        churn_in_bounded_memory(true);
    }

    #[test]
    fn a_half_dead_log_makes_room_for_the_next_write() {
        // 30 cold keys interleaved with 30 versions of one hot key leave
        // every closed segment half dead: 48 % of the budget is live when
        // the log fills. Relocating survivors into the log head had nowhere
        // to copy to at that point and failed the write; a pass that builds
        // its survivors outside the log does not need a free slot.
        let mut s = churn_store(12);
        for round in 0..400 {
            if round < 30 {
                s.write(T, format!("cold{round}").as_bytes(), &[7u8; 60])
                    .unwrap();
            }
            s.write(T, b"hot", &[round as u8; 60])
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        for i in 0..30 {
            assert!(s.read(T, format!("cold{i}").as_bytes()).is_some());
        }
        assert_eq!(&s.read(T, b"hot").unwrap().value[..], &[143u8; 60]);
    }

    #[test]
    fn cleaning_preserves_live_data_and_versions() {
        let mut s = churn_store(16);
        for i in 0..20 {
            s.write(T, format!("stable{i}").as_bytes(), b"keep-me")
                .unwrap();
        }
        // Churn other keys to force cleaning.
        for round in 0..300 {
            s.write(T, b"hot", format!("{round}").as_bytes()).unwrap();
        }
        assert!(s.stats().segments_freed > 0);
        for i in 0..20 {
            let got = s.read(T, format!("stable{i}").as_bytes()).unwrap();
            assert_eq!(&got.value[..], b"keep-me");
            assert_eq!(got.version, crate::types::Version::FIRST);
        }
        assert_eq!(&s.read(T, b"hot").unwrap().value[..], b"299");
    }

    #[test]
    fn cleaning_keeps_each_clients_latest_completion_in_the_log() {
        use crate::entry::CompletionId;
        let mut s = churn_store(32);
        let c = CompletionId { client: 1, seq: 7 };
        let d = CompletionId { client: 2, seq: 3 };
        let v1 = s.write_with(T, b"k", b"from c", Some(c)).unwrap();
        let v2 = s.write_with(T, b"k", b"from d", Some(d)).unwrap();
        for round in 0..40 {
            s.write(T, b"filler", format!("value-{round:080}").as_bytes())
                .unwrap();
        }
        clean_away(&mut s, v1.position.segment);
        // C's record is dead (D overwrote the key) but is C's latest
        // completion: a retry is still answered, with C's own record.
        let appended = s.log().total_appended_bytes();
        let dup = s.write_with(T, b"k", b"from c", Some(c)).unwrap();
        assert_eq!(s.log().total_appended_bytes(), appended);
        assert_eq!(dup.version, v1.version);
        assert_ne!(dup.position.segment, v1.position.segment, "relocated");
        // A store rebuilt from images of the cleaned log — all a backup
        // adopted after the cleaning holds — answers the retry too.
        let fresh = replayed(&s);
        assert_eq!(fresh.last_completion(1), Some((7, v1.version)));
        assert_eq!(fresh.last_completion(2), Some((3, v2.version)));
        assert_eq!(&fresh.read(T, b"k").unwrap().value[..], b"from d");
        // Once C moves on, its old record is dropped like any dead one (a
        // kept record counts as live where it lands, like a kept tombstone:
        // here it goes when D's version beside it dies too).
        let c2 = CompletionId { client: 1, seq: 8 };
        s.write_with(T, b"other", b"x", Some(c2)).unwrap();
        s.write(T, b"k", b"from d, again").unwrap();
        let kept = dup.position.segment;
        for round in 0..40 {
            s.write(T, b"filler", format!("again-{round:080}").as_bytes())
                .unwrap();
        }
        clean_away(&mut s, kept);
        let carried = |s: &Store| {
            s.log().segment_ids().into_iter().any(|id| {
                s.log()
                    .segment(id)
                    .unwrap()
                    .iter()
                    .any(|(_, e)| matches!(e, LogEntry::Object(o) if o.completion == Some(c)))
            })
        };
        assert!(!carried(&s), "an outdated completion is not kept");
    }

    #[test]
    fn cleaning_keeps_the_tombstone_of_a_completion_it_keeps() {
        use crate::entry::CompletionId;
        let mut s = churn_store(32);
        let c = CompletionId { client: 1, seq: 7 };
        let v1 = s.write_with(T, b"k", b"from c", Some(c)).unwrap();
        s.delete(T, b"k").unwrap();
        for round in 0..40 {
            s.write(T, b"filler", format!("value-{round:080}").as_bytes())
                .unwrap();
        }
        clean_away(&mut s, v1.position.segment);
        // C's record is kept for its completion; its tombstone goes with it.
        let fresh = replayed(&s);
        assert!(fresh.read(T, b"k").is_none(), "k stays deleted");
        assert_eq!(fresh.last_completion(1), Some((7, v1.version)));
    }

    #[test]
    fn an_image_of_the_cleaned_log_keeps_a_deleted_key_deleted() {
        let mut s = churn_store(32);
        // v1 shares its segment with records that stay live, so the cleaner
        // leaves that segment alone; v2 and its tombstone land in the next.
        let v1 = s.write(T, b"k", b"first").unwrap();
        let mut cold = 0;
        loop {
            let key = format!("cold{cold}");
            cold += 1;
            let out = s.write(T, key.as_bytes(), &[b'c'; 40]).unwrap();
            if out.position.segment != v1.position.segment {
                break;
            }
        }
        let v2 = s.write(T, b"k", b"second").unwrap();
        s.delete(T, b"k").unwrap();
        assert_ne!(v2.position.segment, v1.position.segment);
        for round in 0..40 {
            s.write(T, b"filler", format!("value-{round:080}").as_bytes())
                .unwrap();
        }
        clean_away(&mut s, v2.position.segment);
        assert!(
            s.log().contains_segment(v1.position.segment),
            "the overwritten v1 is still in the log"
        );
        let fresh = replayed(&s);
        assert!(fresh.read(T, b"k").is_none(), "k stays deleted");
        for i in 0..cold {
            assert!(fresh.read(T, format!("cold{i}").as_bytes()).is_some());
        }
    }

    #[test]
    fn cleaning_does_not_resurrect_deleted_keys() {
        let mut s = churn_store(16);
        for i in 0..30 {
            s.write(T, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..15 {
            s.delete(T, format!("k{i}").as_bytes()).unwrap();
        }
        for round in 0..300 {
            s.write(T, b"churn", format!("{round}").as_bytes()).unwrap();
        }
        for i in 0..15 {
            assert!(
                s.read(T, format!("k{i}").as_bytes()).is_none(),
                "k{i} must stay deleted after cleaning"
            );
        }
        for i in 15..30 {
            assert!(s.read(T, format!("k{i}").as_bytes()).is_some());
        }
    }

    #[test]
    fn tombstones_eventually_dropped() {
        let mut s = churn_store(16);
        for i in 0..50 {
            s.write(T, format!("k{i}").as_bytes(), b"v").unwrap();
            s.delete(T, format!("k{i}").as_bytes()).unwrap();
        }
        // Half the keys are written again: their tombstones may expire. The
        // rest stay deleted, and their tombstones stay in the log.
        for i in 0..25 {
            s.write(T, format!("k{i}").as_bytes(), b"again").unwrap();
        }
        for round in 0..400 {
            s.write(T, b"churn", format!("{round}").as_bytes()).unwrap();
        }
        assert!(
            s.stats().tombstones_dropped > 0,
            "churn must let some tombstones expire"
        );
        let fresh = replayed(&s);
        for i in 0..50 {
            let live = fresh.read(T, format!("k{i}").as_bytes()).is_some();
            assert_eq!(live, i < 25, "k{i}");
        }
    }

    #[test]
    fn fully_live_log_reports_out_of_memory() {
        // Distinct keys, no dead data: the cleaner cannot help.
        let mut s = churn_store(6);
        let val = vec![7u8; 128];
        let mut result = Ok(());
        for i in 0..40 {
            if let Err(e) = s.write(T, format!("unique-{i}").as_bytes(), &val) {
                result = Err(e);
                break;
            }
        }
        assert_eq!(result, Err(crate::store::StoreError::OutOfMemory));
    }

    #[test]
    fn cost_benefit_prefers_emptier_segments() {
        let mut s = churn_store(32);
        // Fill several segments, then kill everything in the early ones.
        for i in 0..60 {
            s.write(T, format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
        }
        for i in 0..30 {
            s.delete(T, format!("k{i}").as_bytes()).unwrap();
        }
        let ids = s.log().closed_segment_ids();
        let (mut best_id, mut best_score) = (None, f64::MIN);
        for id in ids {
            if let Some(score) = s.cost_benefit(id) {
                if score > best_score {
                    best_score = score;
                    best_id = Some(id);
                }
            }
        }
        let best_id = best_id.expect("some candidate");
        let u = s.log().segment_utilization(best_id).unwrap();
        assert!(u < 0.6, "best candidate should be mostly dead, u={u}");
    }

    #[test]
    #[should_panic(expected = "is too small")]
    fn degenerate_config_panics_at_store_construction() {
        // TARGET_FREE_SLOTS is not below max_segments: the cleaner could
        // never reach its target and would spin forever.
        let _ = churn_store(TARGET_FREE_SLOTS);
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        // The boundary of the one run-time check: a log of exactly
        // TARGET_FREE_SLOTS slots is refused, one slot more is accepted.
        assert!(std::panic::catch_unwind(|| churn_store(TARGET_FREE_SLOTS)).is_err());
        let s = churn_store(TARGET_FREE_SLOTS + 1);
        assert_eq!(s.log().free_segment_slots(), TARGET_FREE_SLOTS);
        assert_eq!(s.clean_pressure(), None);
    }

    #[test]
    fn balancer_levels_track_pressure_and_write_rate() {
        let mut s = churn_store(16);
        assert_eq!(s.clean_pressure(), None, "fresh store: no pressure");
        // Fill until free slots dip just below the target: modest pressure
        // picks the cheap compaction level.
        let mut i = 0u64;
        while s.log().free_segment_slots() >= TARGET_FREE_SLOTS {
            s.write(T, format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
            i += 1;
        }
        assert_eq!(s.clean_pressure(), Some(CleanKind::Compact));
        // At the hard reserve, only combined cleaning frees whole slots.
        while s.log().free_segment_slots() > MIN_FREE_SLOTS {
            s.write(T, format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
            i += 1;
        }
        assert_eq!(s.clean_pressure(), Some(CleanKind::Combined));
        // The write rate widens the combined pass instead of moving the
        // trigger: a burst since the last pass plans more victims.
        s.last_clean_appended = s.log().total_appended_bytes();
        let quiet = s
            .prepare_clean(CleanKind::Combined)
            .map(|p| p.victims.len());
        s.last_clean_appended = 0;
        let bursty = s
            .prepare_clean(CleanKind::Combined)
            .map(|p| p.victims.len());
        assert!(
            bursty >= quiet,
            "a write burst must not shrink the pass: quiet={quiet:?} bursty={bursty:?}"
        );
    }

    #[test]
    fn compaction_step_frees_bytes_but_not_slots() {
        let mut s = churn_store(16);
        for i in 0..40 {
            s.write(T, format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
        }
        // Delete every other key so no segment is fully dead: the compact
        // victim must copy its surviving entries into a survivor segment.
        for i in (0..40).step_by(2) {
            s.delete(T, format!("k{i}").as_bytes()).unwrap();
        }
        let charged_before = s.log().charged_bytes();
        let plan = s
            .prepare_clean(CleanKind::Compact)
            .expect("deleted keys left dead bytes to squeeze");
        assert_eq!(plan.victims().len(), 1, "compaction takes a single victim");
        let out = s.apply_clean(plan.build()).expect("no competing cleaner");
        assert_eq!(out.segments_compacted, 1);
        assert!(out.survivor_bytes > 0);
        assert!(
            s.log().charged_bytes() < charged_before,
            "compaction must return bytes to the budget"
        );
        // Every key still reads back correctly.
        for i in 0..40 {
            let got = s.read(T, format!("k{i}").as_bytes());
            if i % 2 == 0 {
                assert!(got.is_none());
            } else {
                assert!(got.is_some());
            }
        }
    }

    #[test]
    fn apply_aborts_when_a_victim_vanished() {
        let mut s = churn_store(16);
        for round in 0..40 {
            for k in 0..8 {
                s.write(
                    T,
                    format!("key{k}").as_bytes(),
                    format!("v{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        let plan = s.prepare_clean(CleanKind::Combined).expect("candidates");
        let victim = plan.victims()[0];
        // Simulate a writer that found the log full winning the race.
        s.log.retire_segment(victim, 0);
        let cleanings_before = s.stats().cleanings;
        assert!(
            s.apply_clean(plan.build()).is_none(),
            "stale plan must be discarded, not applied"
        );
        assert_eq!(s.stats().cleanings, cleanings_before);
    }

    #[test]
    fn pinned_readers_delay_segment_reclamation() {
        let mut s = churn_store(16);
        for round in 0..100 {
            for k in 0..8 {
                s.write(
                    T,
                    format!("key{k}").as_bytes(),
                    format!("v{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        // A reader mid-lookup: pin through a clone of the tracker handle,
        // exactly as an observer outside the store borrow would.
        let epochs = std::sync::Arc::clone(&s.epoch);
        let guard = epochs.pin();
        let plan = s.prepare_clean(CleanKind::Combined).expect("candidates");
        let n_victims = plan.victims().len();
        let out = s.apply_clean(plan.build()).expect("victims intact");
        assert_eq!(
            out.segments_freed, 0,
            "a pinned reader must hold reclamation back"
        );
        assert_eq!(s.log().limbo_segments(), n_victims);
        assert!(s.reclamation_lag() >= 1);
        drop(guard);
        assert_eq!(s.reclaim_now(), n_victims);
        assert_eq!(s.log().limbo_segments(), 0);
        assert_eq!(s.reclamation_lag(), 0);
    }
}
