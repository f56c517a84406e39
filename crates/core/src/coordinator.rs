//! The coordinator's tablet map and wills (the protocol's `CoordinatorNode`
//! wraps it).
//!
//! RAMCloud's coordinator tracks which master owns which tablet and
//! orchestrates crash recovery. Here tablets are fixed-size hash buckets
//! over the key space; data is distributed uniformly across masters
//! (the paper sets `ServerSpan` to the number of servers for the same
//! effect).

use rmc_logstore::{key_hash, KeyHash, TableId};

/// The hash bucket `key` falls into among `buckets` tablets.
///
/// Free function so every routing decision — coordinator, masters, and
/// clients, under either engine — shares one hash.
pub fn bucket_for(table: TableId, key: &[u8], buckets: usize) -> usize {
    bucket_of(key_hash(table, key), buckets)
}

/// The hash bucket of a key whose hash is `hash`, among `buckets` tablets.
pub(crate) fn bucket_of(hash: KeyHash, buckets: usize) -> usize {
    (hash.0 % buckets as u64) as usize
}

/// Cluster metadata service.
#[derive(Debug, Clone)]
pub struct Coordinator {
    tablet_owner: Vec<usize>,
    alive: Vec<bool>,
}

impl Coordinator {
    /// Creates a coordinator over `servers` masters with `buckets` tablets
    /// assigned round-robin (uniform distribution, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `servers` or `buckets` is zero.
    pub fn new(servers: usize, buckets: usize) -> Self {
        assert!(servers > 0 && buckets > 0);
        Coordinator {
            tablet_owner: (0..buckets).map(|b| b % servers).collect(),
            alive: vec![true; servers],
        }
    }

    /// Snapshot of the tablet map as `bucket -> owner` (broadcast to nodes
    /// by the runtime-based protocol after recovery reassignments).
    pub fn owners_snapshot(&self) -> Vec<usize> {
        self.tablet_owner.clone()
    }

    /// The master owning a bucket.
    pub fn owner_of_bucket(&self, bucket: usize) -> usize {
        self.tablet_owner[bucket]
    }

    /// The master owning a key.
    pub fn owner_of(&self, table: TableId, key: &[u8]) -> usize {
        self.owner_of_bucket(bucket_for(table, key, self.tablet_owner.len()))
    }

    /// Whether a server is alive.
    pub fn is_alive(&self, server: usize) -> bool {
        self.alive[server]
    }

    /// Alive server ids.
    pub fn alive_servers(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&s| self.alive[s]).collect()
    }

    /// Marks a server alive again (readmission after a restart recovery or
    /// a healed partition). It owns whatever the tablet map currently says
    /// — typically nothing, until buckets are explicitly reassigned.
    pub fn mark_alive(&mut self, server: usize) {
        self.alive[server] = true;
    }

    /// Marks a server dead. Returns the buckets it owned.
    pub fn mark_dead(&mut self, server: usize) -> Vec<usize> {
        self.alive[server] = false;
        self.tablet_owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == server)
            .map(|(b, _)| b)
            .collect()
    }

    /// Computes the crashed master's *will*: its buckets spread round-robin
    /// over the surviving masters so every machine participates in recovery
    /// (the paper's Section II-B description).
    pub fn partition_will(&self, crashed: usize) -> Vec<(usize, usize)> {
        let survivors = self.alive_servers();
        let buckets: Vec<usize> = self
            .tablet_owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == crashed)
            .map(|(b, _)| b)
            .collect();
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, b)| (b, survivors[i % survivors.len()]))
            .collect()
    }

    /// Applies bucket reassignments (recovery completion).
    pub fn reassign(&mut self, new_owners: &[(usize, usize)]) {
        for &(bucket, owner) in new_owners {
            self.tablet_owner[bucket] = owner;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_distributed_uniformly() {
        let c = Coordinator::new(4, 1024);
        let mut counts = [0usize; 4];
        for b in 0..1024 {
            counts[c.owner_of_bucket(b)] += 1;
        }
        assert!(counts.iter().all(|&n| n == 256), "{counts:?}");
    }

    #[test]
    fn owner_lookup_consistent() {
        let c = Coordinator::new(5, 100);
        let t = TableId(1);
        let o1 = c.owner_of(t, b"some-key");
        let o2 = c.owner_of(t, b"some-key");
        assert_eq!(o1, o2);
        assert!(o1 < 5);
    }

    #[test]
    fn mark_dead_returns_owned_buckets() {
        let mut c = Coordinator::new(3, 9);
        let buckets = c.mark_dead(1);
        assert_eq!(buckets, vec![1, 4, 7]);
        assert!(!c.is_alive(1));
        assert_eq!(c.alive_servers(), vec![0, 2]);
    }

    #[test]
    fn will_spreads_over_survivors() {
        let mut c = Coordinator::new(4, 16);
        c.mark_dead(0);
        let will = c.partition_will(0);
        assert_eq!(will.len(), 4); // buckets 0,4,8,12
        let owners: Vec<usize> = will.iter().map(|&(_, o)| o).collect();
        assert!(owners.iter().all(|&o| o != 0), "dead master excluded");
        // Round-robin across 3 survivors: at least 2 distinct owners here.
        let mut distinct = owners.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn reassign_restores_availability() {
        let mut c = Coordinator::new(2, 4);
        c.mark_dead(0);
        assert!(!c.is_alive(c.owner_of_bucket(0)), "bucket 0 is down");
        assert!(c.is_alive(c.owner_of_bucket(1)));
        let will = c.partition_will(0);
        c.reassign(&will);
        assert!(c.is_alive(c.owner_of_bucket(0)), "bucket 0 is back");
        assert_eq!(c.owner_of_bucket(0), 1);
    }
}
