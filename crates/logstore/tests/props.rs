//! Property-based tests: the store behaves like a hash map, no matter what
//! sequence of writes, deletes, and cleanings runs; serialization round-trips
//! arbitrary bytes; the hash table behaves like a model multimap.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;
use proptest::prelude::*;
use rmc_logstore::{
    key_hash, CompletionId, HashTable, KeyHash, LogConfig, LogEntry, LogPosition, ObjectRecord,
    SegmentId, Store, TableId, TombstoneRecord, Version,
};

const T: TableId = TableId(1);

#[derive(Debug, Clone)]
enum Op {
    Write(u8, Vec<u8>),
    Delete(u8),
    /// Recovery replay of the key's next version.
    Replay(u8, Vec<u8>),
    /// One externally driven `clean_step`.
    Clean,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Write(k % 24, v)),
        2 => any::<u8>().prop_map(|k| Op::Delete(k % 24)),
        1 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Replay(k % 24, v)),
        1 => Just(Op::Clean),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

/// A log small enough that a 200-op case fills it several times over: the
/// write path makes room for itself in between the `Op::Clean` steps.
fn small_store() -> Store {
    Store::new(LogConfig {
        segment_bytes: 512,
        max_segments: 12,
        ordered_index: false,
    })
}

/// The full live state — key → (value, version) — as cleaning must
/// preserve it, bit for bit.
fn live_map(store: &Store) -> BTreeMap<Vec<u8>, (Vec<u8>, u64)> {
    store
        .live_objects()
        .map(|o| (o.key.to_vec(), (o.value.to_vec(), o.version.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store agrees with a HashMap model after every operation, under
    /// bounded memory: writes, deletes and recovery replays that clean when
    /// they find the log full, and cleaner steps an external driver adds in
    /// between, each of which must leave the live key/value/version map
    /// exactly as it found it.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut store = small_store();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut versions: HashMap<Vec<u8>, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Write(k, v) => {
                    let key = key_bytes(k);
                    let out = store.write(T, &key, &v).unwrap();
                    // Versions are monotone per key — even across a
                    // delete/recreate, the chain continues past the
                    // tombstone (so recovery replay is order-independent).
                    let prev = versions.insert(key.clone(), out.version.0);
                    prop_assert_eq!(out.version.0, prev.unwrap_or(0) + 1);
                    if !model.contains_key(&key) && prev.is_none() {
                        prop_assert_eq!(out.version, Version::FIRST);
                    }
                    model.insert(key, v);
                }
                Op::Delete(k) => {
                    let key = key_bytes(k);
                    let deleted = store.delete(T, &key).unwrap();
                    prop_assert_eq!(deleted.is_some(), model.remove(&key).is_some());
                    // `versions` is deliberately NOT cleared: it models the
                    // per-key version floor surviving the delete.
                }
                Op::Replay(k, v) => {
                    let key = key_bytes(k);
                    let version = versions.entry(key.clone()).or_insert(0);
                    *version += 1;
                    let rec = ObjectRecord {
                        table: T,
                        key: Bytes::from(key.clone()),
                        value: Bytes::from(v.clone()),
                        version: Version(*version),
                        completion: None,
                    };
                    prop_assert!(store.replay_object(&rec).unwrap());
                    prop_assert_eq!(store.read(T, &key), Some(rec));
                    model.insert(key, v);
                }
                Op::Clean => {
                    let before = live_map(&store);
                    store.clean_step();
                    prop_assert_eq!(before, live_map(&store));
                }
            }
            prop_assert_eq!(store.object_count(), model.len());
            prop_assert!(store.log().charged_bytes() <= store.log().budget_bytes());
        }

        // Drain the cleaner completely, then check full final-state
        // equality, versions included.
        for _ in 0..64 {
            if store.clean_step().is_none() {
                break;
            }
        }
        let want: BTreeMap<_, _> = model
            .iter()
            .map(|(k, v)| (k.clone(), (v.clone(), versions[k])))
            .collect();
        prop_assert_eq!(live_map(&store), want);
        for (key, val) in &model {
            let got = store.read(T, key);
            prop_assert!(got.is_some(), "missing key {:?}", key);
            prop_assert_eq!(&got.unwrap().value[..], &val[..]);
        }
    }

    /// The lock-free read handle agrees with the locked store — value,
    /// version, hit and miss alike — after every operation of an arbitrary
    /// write/delete/clean interleaving. This pins the seqlock-published
    /// index and the segment map to the same semantics as the locked path
    /// they shadow.
    #[test]
    fn lockfree_reads_match_locked_store(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut store = small_store();
        let handle = store.read_handle();
        for op in ops {
            match op {
                // (No version model here: a replay is just another write.)
                Op::Write(k, v) | Op::Replay(k, v) => {
                    store.write(T, &key_bytes(k), &v).unwrap();
                }
                Op::Delete(k) => { store.delete(T, &key_bytes(k)).unwrap(); }
                Op::Clean => { store.clean_step(); }
            }
            // With no writer active mid-probe the lock-free path must never
            // report contention, and must agree with the locked read exactly.
            for k in 0..24u8 {
                let key = key_bytes(k);
                let locked = store.read(T, &key);
                let lockfree = handle.try_read(T, &key)
                    .expect("probe cannot be contended without a concurrent writer");
                match (locked, lockfree) {
                    (None, None) => {}
                    (Some(rec), Some(view)) => {
                        prop_assert_eq!(view.version, rec.version);
                        prop_assert_eq!(view.value.as_slice(), &rec.value[..]);
                    }
                    (locked, lockfree) => prop_assert!(
                        false,
                        "paths disagree on {:?}: locked hit={} lock-free hit={}",
                        key, locked.is_some(), lockfree.is_some()
                    ),
                }
            }
        }
    }

    /// Object entries round-trip arbitrary tables, keys, values, versions,
    /// and optional RIFL completion records.
    #[test]
    fn object_entry_roundtrip(
        table in any::<u64>(),
        key in proptest::collection::vec(any::<u8>(), 0..128),
        value in proptest::collection::vec(any::<u8>(), 0..512),
        version in 1u64..u64::MAX,
        completion in proptest::option::of((any::<u64>(), any::<u64>())),
    ) {
        let entry = LogEntry::Object(ObjectRecord {
            table: TableId(table),
            key: Bytes::from(key),
            value: Bytes::from(value),
            version: Version(version),
            completion: completion.map(|(client, seq)| CompletionId { client, seq }),
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        prop_assert_eq!(buf.len(), entry.serialized_len());
        let (parsed, consumed) = LogEntry::parse(&buf).unwrap();
        prop_assert_eq!(parsed, entry);
        prop_assert_eq!(consumed, buf.len());
    }

    /// Tombstone entries round-trip.
    #[test]
    fn tombstone_entry_roundtrip(
        table in any::<u64>(),
        key in proptest::collection::vec(any::<u8>(), 0..128),
        version in any::<u64>(),
        dead in any::<u64>(),
    ) {
        let entry = LogEntry::Tombstone(TombstoneRecord {
            table: TableId(table),
            key: Bytes::from(key),
            version: Version(version),
            dead_segment: SegmentId(dead),
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        let (parsed, _) = LogEntry::parse(&buf).unwrap();
        prop_assert_eq!(parsed, entry);
    }

    /// Any single-bit flip in a serialized entry is detected.
    #[test]
    fn bit_flips_detected(
        value in proptest::collection::vec(any::<u8>(), 1..64),
        flip_bit in 0usize..64,
    ) {
        let entry = LogEntry::Object(ObjectRecord {
            table: TableId(3),
            key: Bytes::from_static(b"victim"),
            value: Bytes::from(value),
            version: Version(9),
            completion: None,
        });
        let mut buf = Vec::new();
        entry.serialize_into(&mut buf);
        let bit = flip_bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        // Either the parse fails, or — if the flip hit the length fields in a
        // way that still checksums — the parsed entry must differ. A silent
        // identical parse would be a checksum hole.
        match LogEntry::parse(&buf) {
            Err(_) => {}
            Ok((parsed, _)) => prop_assert_ne!(parsed, entry),
        }
    }

    /// The hash table behaves like a model multimap under inserts, removes,
    /// and updates.
    #[test]
    fn hashtable_matches_model(ops in proptest::collection::vec(
        (0u64..32, any::<u32>(), 0u8..3), 1..300)
    ) {
        let mut ht = HashTable::new();
        let mut model: HashMap<u64, HashSet<(u64, u32)>> = HashMap::new();
        for (hash, val, kind) in ops {
            let pos = LogPosition { segment: SegmentId(val as u64 % 8), offset: val % 1024 };
            let h = KeyHash(hash);
            match kind {
                0 => {
                    // Insert only if the model doesn't already hold this
                    // exact mapping (the table is a multiset otherwise).
                    if model.entry(hash).or_default().insert((pos.segment.0, pos.offset)) {
                        ht.insert(h, pos);
                    }
                }
                1 => {
                    let removed_model = model
                        .get_mut(&hash)
                        .is_some_and(|s| s.remove(&(pos.segment.0, pos.offset)));
                    let removed = ht.remove(h, pos);
                    prop_assert_eq!(removed, removed_model);
                }
                _ => {
                    let new_pos = LogPosition { segment: SegmentId(99), offset: val };
                    let model_set = model.entry(hash).or_default();
                    let had = model_set.remove(&(pos.segment.0, pos.offset));
                    let expect_update = had && model_set.insert((99, val));
                    if had && !expect_update {
                        model_set.insert((pos.segment.0, pos.offset)); // rollback dup
                    }
                    let updated = ht.update(h, pos, new_pos);
                    prop_assert_eq!(updated, had);
                    if updated && !expect_update {
                        // Table allowed a duplicate the model collapses;
                        // remove the extra to stay in sync.
                        ht.remove(h, new_pos);
                    }
                }
            }
            let total: usize = model.values().map(|s| s.len()).sum();
            prop_assert_eq!(ht.len(), total);
        }
        // Final: candidates match model sets.
        for (hash, set) in &model {
            let got: HashSet<(u64, u32)> = ht
                .candidates(KeyHash(*hash))
                .map(|p| (p.segment.0, p.offset))
                .collect();
            prop_assert_eq!(&got, set);
        }
    }

    /// key_hash is deterministic and spreads tables.
    #[test]
    fn key_hash_deterministic(table in any::<u64>(), key in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(key_hash(TableId(table), &key), key_hash(TableId(table), &key));
    }
}
