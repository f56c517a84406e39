//! The committed-write invariant checker: replay each client's recorded
//! operation history against the cluster's final live map and prove the
//! four chaos invariants.
//!
//! The checker assumes the harness discipline the chaos tests follow:
//! clients own **disjoint key spaces** (single writer per key) and issue
//! operations **sequentially** — an op is retried until acknowledged before
//! the next op is issued, so at most the *final* op of a history may be
//! unacknowledged. Under those rules the acked prefix of each key's history
//! fully determines the key's final state, and the checker verifies:
//!
//! 1. **No acked-write loss** — the final live value/version of every key
//!    equals the state after its last acked mutation (modulo a possibly
//!    applied unacked final op).
//! 2. **Version monotonicity** — acked versions per key strictly increase,
//!    across deletes and recoveries.
//! 3. **Exactly-once apply** — a retried or duplicated put is applied once:
//!    the final version equals the acked version, never above it.
//! 4. **Read consistency** — every acked read returns the value of the
//!    last acked put before it (reads are linearized by the sequential,
//!    single-writer discipline).

use std::collections::BTreeMap;

/// What one client operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Write `value` to the key.
    Put(Vec<u8>),
    /// Delete the key.
    Del,
    /// Read the key.
    Get,
}

/// One recorded client operation, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Target key.
    pub key: Vec<u8>,
    /// Operation.
    pub kind: OpKind,
    /// Did the client receive an acknowledgment?
    pub acked: bool,
    /// Version carried by the ack: the assigned version for a put, the
    /// deleted version for a del (0 when the key was absent), 0 for gets.
    pub version: u64,
    /// For gets: the value read (`None` = key absent). Unset for writes.
    pub read: Option<Option<Vec<u8>>>,
    /// How many times the request was (re)sent.
    pub retries: u64,
}

/// A detected invariant violation. `Display` includes enough context to
/// reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An acked write's effect is missing or wrong in the final live map.
    AckedWriteLost {
        /// The key.
        key: Vec<u8>,
        /// Expected final value (`None` = deleted).
        expected: Option<Vec<u8>>,
        /// Found final value.
        found: Option<Vec<u8>>,
    },
    /// Acked versions did not strictly increase.
    VersionRegression {
        /// The key.
        key: Vec<u8>,
        /// Earlier acked version.
        prev: u64,
        /// The non-increasing acked version that followed.
        next: u64,
    },
    /// Final live version exceeds the last acked version with no
    /// unacked op to explain it — a retry applied twice.
    DoubleApply {
        /// The key.
        key: Vec<u8>,
        /// Last acked version.
        acked: u64,
        /// Live version found.
        live: u64,
    },
    /// An acked read returned something other than the last acked put.
    StaleRead {
        /// The key.
        key: Vec<u8>,
        /// Expected value at that point.
        expected: Option<Vec<u8>>,
        /// Value the read returned.
        got: Option<Vec<u8>>,
    },
    /// The live map holds a key no history ever wrote.
    PhantomKey {
        /// The key.
        key: Vec<u8>,
    },
    /// Two histories wrote the same key — a harness bug, the checker's
    /// single-writer assumption is void.
    SharedKey {
        /// The key.
        key: Vec<u8>,
    },
    /// An unacked op was followed by more ops — the harness violated the
    /// retry-until-acked discipline.
    UnackedMidHistory {
        /// The key.
        key: Vec<u8>,
    },
}

/// A value as a violation message shows it: whole up to 32 bytes, else its
/// first 16 bytes and its length, so a lost partition of kilobyte values
/// prints one short line per key.
fn show_value(value: &Option<Vec<u8>>) -> String {
    match value.as_deref() {
        Some(v) if v.len() > 32 => {
            format!(
                "Some({:?}… ({} bytes))",
                String::from_utf8_lossy(&v[..16]),
                v.len()
            )
        }
        v => format!("{:?}", v.map(String::from_utf8_lossy)),
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = |key: &[u8]| String::from_utf8_lossy(key).into_owned();
        match self {
            Violation::AckedWriteLost {
                key,
                expected,
                found,
            } => write!(
                f,
                "acked write lost on {:?}: expected {}, found {}",
                k(key),
                show_value(expected),
                show_value(found),
            ),
            Violation::VersionRegression { key, prev, next } => {
                write!(f, "version regression on {:?}: {prev} then {next}", k(key))
            }
            Violation::DoubleApply { key, acked, live } => write!(
                f,
                "double apply on {:?}: acked version {acked}, live version {live}",
                k(key)
            ),
            Violation::StaleRead { key, expected, got } => write!(
                f,
                "stale read on {:?}: expected {}, got {}",
                k(key),
                show_value(expected),
                show_value(got),
            ),
            Violation::PhantomKey { key } => write!(f, "phantom key {:?}", k(key)),
            Violation::SharedKey { key } => write!(f, "key {:?} written by two histories", k(key)),
            Violation::UnackedMidHistory { key } => {
                write!(f, "unacked op mid-history on {:?}", k(key))
            }
        }
    }
}

/// Final expected state of one key derived from its history.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyExpectation {
    /// Value after the last acked mutation (`None` = absent).
    value: Option<Vec<u8>>,
    /// Version of the last acked mutation (0 = never mutated).
    version: u64,
    /// A trailing unacked mutation that may or may not have applied.
    pending: Option<OpKind>,
}

/// Checks every history against the final live map (`key → (value,
/// version)`). Returns all violations found (empty = all invariants hold).
///
/// `require_all_acked` asserts convergence: with faults quiesced and
/// clients run to completion, every op must have been acked and no
/// `pending` candidates are tolerated.
pub fn check_histories(
    histories: &[Vec<OpRecord>],
    live: &BTreeMap<Vec<u8>, (Vec<u8>, u64)>,
    require_all_acked: bool,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut expectations: BTreeMap<Vec<u8>, KeyExpectation> = BTreeMap::new();
    let mut owner: BTreeMap<Vec<u8>, usize> = BTreeMap::new();

    for (client, history) in histories.iter().enumerate() {
        // Per-key state while walking this client's program order.
        let mut states: BTreeMap<Vec<u8>, KeyExpectation> = BTreeMap::new();
        let last_idx = history.len().wrapping_sub(1);
        for (i, op) in history.iter().enumerate() {
            match owner.entry(op.key.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(client);
                }
                std::collections::btree_map::Entry::Occupied(e) => {
                    if *e.get() != client {
                        violations.push(Violation::SharedKey {
                            key: op.key.clone(),
                        });
                        continue;
                    }
                }
            }
            let state = states.entry(op.key.clone()).or_insert(KeyExpectation {
                value: None,
                version: 0,
                pending: None,
            });
            if !op.acked {
                if i != last_idx || require_all_acked {
                    violations.push(Violation::UnackedMidHistory {
                        key: op.key.clone(),
                    });
                } else if matches!(op.kind, OpKind::Put(_) | OpKind::Del) {
                    state.pending = Some(op.kind.clone());
                }
                continue;
            }
            match &op.kind {
                OpKind::Put(v) => {
                    if op.version <= state.version {
                        violations.push(Violation::VersionRegression {
                            key: op.key.clone(),
                            prev: state.version,
                            next: op.version,
                        });
                    }
                    state.value = Some(v.clone());
                    state.version = state.version.max(op.version);
                }
                OpKind::Del => {
                    // A del of an absent key acks version 0; of a live key,
                    // the deleted version, which must not regress.
                    if op.version != 0 && op.version < state.version {
                        violations.push(Violation::VersionRegression {
                            key: op.key.clone(),
                            prev: state.version,
                            next: op.version,
                        });
                    }
                    state.value = None;
                    state.version = state.version.max(op.version);
                }
                OpKind::Get => {
                    let got = op.read.clone().unwrap_or(None);
                    if got != state.value {
                        violations.push(Violation::StaleRead {
                            key: op.key.clone(),
                            expected: state.value.clone(),
                            got,
                        });
                    }
                }
            }
        }
        for (key, st) in states {
            expectations.insert(key, st);
        }
    }

    // Compare the final live map against each key's expectation.
    for (key, exp) in &expectations {
        let found = live.get(key);
        let found_value = found.map(|(v, _)| v.clone());
        let matches_acked = found_value == exp.value;
        let matches_pending = match &exp.pending {
            Some(OpKind::Put(v)) => found_value.as_ref() == Some(v),
            Some(OpKind::Del) => found_value.is_none(),
            _ => false,
        };
        if !matches_acked && !matches_pending {
            violations.push(Violation::AckedWriteLost {
                key: key.clone(),
                expected: exp.value.clone(),
                found: found_value,
            });
            continue;
        }
        if let Some((_, live_version)) = found {
            if matches_acked && exp.pending.is_none() {
                // Nothing unacked can explain a higher live version: a
                // retry must have applied twice.
                if *live_version > exp.version && exp.value.is_some() {
                    violations.push(Violation::DoubleApply {
                        key: key.clone(),
                        acked: exp.version,
                        live: *live_version,
                    });
                }
                if *live_version < exp.version && exp.value.is_some() {
                    violations.push(Violation::VersionRegression {
                        key: key.clone(),
                        prev: exp.version,
                        next: *live_version,
                    });
                }
            }
        }
    }

    // Keys no history wrote must not appear in the live map.
    for key in live.keys() {
        if !expectations.contains_key(key) {
            violations.push(Violation::PhantomKey { key: key.clone() });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: &str, value: &str, version: u64) -> OpRecord {
        OpRecord {
            key: key.as_bytes().to_vec(),
            kind: OpKind::Put(value.as_bytes().to_vec()),
            acked: true,
            version,
            read: None,
            retries: 0,
        }
    }

    fn del(key: &str, version: u64) -> OpRecord {
        OpRecord {
            key: key.as_bytes().to_vec(),
            kind: OpKind::Del,
            acked: true,
            version,
            read: None,
            retries: 0,
        }
    }

    fn get(key: &str, read: Option<&str>) -> OpRecord {
        OpRecord {
            key: key.as_bytes().to_vec(),
            kind: OpKind::Get,
            acked: true,
            version: 0,
            read: Some(read.map(|v| v.as_bytes().to_vec())),
            retries: 0,
        }
    }

    fn live(entries: &[(&str, &str, u64)]) -> BTreeMap<Vec<u8>, (Vec<u8>, u64)> {
        entries
            .iter()
            .map(|(k, v, ver)| (k.as_bytes().to_vec(), (v.as_bytes().to_vec(), *ver)))
            .collect()
    }

    #[test]
    fn clean_history_passes() {
        let h = vec![vec![
            put("a", "1", 1),
            get("a", Some("1")),
            put("a", "2", 2),
            put("b", "x", 1),
            del("b", 1),
        ]];
        let l = live(&[("a", "2", 2)]);
        assert_eq!(check_histories(&h, &l, true), Vec::new());
    }

    #[test]
    fn lost_acked_write_detected() {
        let h = vec![vec![put("a", "1", 1)]];
        let l = BTreeMap::new();
        let v = check_histories(&h, &l, true);
        assert!(matches!(v[0], Violation::AckedWriteLost { .. }), "{v:?}");
    }

    #[test]
    fn long_values_print_as_a_prefix_and_a_length() {
        let long = "0123456789abcdef".repeat(35);
        let lost = Violation::AckedWriteLost {
            key: b"user7".to_vec(),
            expected: Some(long.clone().into_bytes()),
            found: None,
        };
        assert_eq!(
            lost.to_string(),
            r#"acked write lost on "user7": expected Some("0123456789abcdef"… (560 bytes)), found None"#
        );
        let stale = Violation::StaleRead {
            key: b"k".to_vec(),
            expected: Some(b"v1".to_vec()),
            got: Some(long.as_bytes()[..33].to_vec()),
        };
        assert_eq!(
            stale.to_string(),
            r#"stale read on "k": expected Some("v1"), got Some("0123456789abcdef"… (33 bytes))"#
        );
        // Up to 32 bytes a value prints whole, as before.
        let whole = Violation::StaleRead {
            key: b"k".to_vec(),
            expected: None,
            got: Some(long.as_bytes()[..32].to_vec()),
        };
        assert_eq!(
            whole.to_string(),
            format!(
                r#"stale read on "k": expected None, got Some({:?})"#,
                &long[..32]
            )
        );
    }

    #[test]
    fn lost_acked_delete_detected() {
        let h = vec![vec![put("a", "1", 1), del("a", 1)]];
        let l = live(&[("a", "1", 1)]);
        let v = check_histories(&h, &l, true);
        assert!(matches!(v[0], Violation::AckedWriteLost { .. }), "{v:?}");
    }

    #[test]
    fn version_regression_detected() {
        let h = vec![vec![put("a", "1", 5), put("a", "2", 5)]];
        let l = live(&[("a", "2", 5)]);
        let v = check_histories(&h, &l, true);
        assert!(
            matches!(
                v[0],
                Violation::VersionRegression {
                    prev: 5,
                    next: 5,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn double_apply_detected() {
        // Acked at version 1 but live at version 2 with nothing pending:
        // the retry must have applied twice.
        let h = vec![vec![put("a", "1", 1)]];
        let l = live(&[("a", "1", 2)]);
        let v = check_histories(&h, &l, true);
        assert!(
            matches!(
                v[0],
                Violation::DoubleApply {
                    acked: 1,
                    live: 2,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn stale_read_detected() {
        let h = vec![vec![put("a", "new", 1), get("a", Some("old"))]];
        let l = live(&[("a", "new", 1)]);
        let v = check_histories(&h, &l, true);
        assert!(matches!(v[0], Violation::StaleRead { .. }), "{v:?}");
    }

    #[test]
    fn phantom_and_shared_keys_detected() {
        let h = vec![vec![put("a", "1", 1)], vec![put("a", "2", 1)]];
        let l = live(&[("a", "2", 1), ("ghost", "?", 1)]);
        let v = check_histories(&h, &l, true);
        assert!(v.iter().any(|x| matches!(x, Violation::SharedKey { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::PhantomKey { .. })));
    }

    #[test]
    fn trailing_unacked_put_is_a_candidate_state() {
        let mut pending = put("a", "maybe", 0);
        pending.acked = false;
        let h = vec![vec![put("a", "sure", 1), pending]];
        // Both "applied" and "not applied" finals pass when convergence is
        // not required…
        assert_eq!(
            check_histories(&h, &live(&[("a", "sure", 1)]), false),
            Vec::new()
        );
        assert_eq!(
            check_histories(&h, &live(&[("a", "maybe", 2)]), false),
            Vec::new()
        );
        // …any third value fails…
        assert!(!check_histories(&h, &live(&[("a", "other", 2)]), false).is_empty());
        // …and requiring convergence rejects the unacked tail outright.
        assert!(!check_histories(&h, &live(&[("a", "sure", 1)]), true).is_empty());
    }

    #[test]
    fn unacked_mid_history_is_a_harness_bug() {
        let mut bad = put("a", "x", 0);
        bad.acked = false;
        let h = vec![vec![bad, put("a", "y", 1)]];
        let v = check_histories(&h, &live(&[("a", "y", 1)]), false);
        assert!(matches!(v[0], Violation::UnackedMidHistory { .. }), "{v:?}");
    }
}
