//! The global established-connections hash table.
//!
//! §2.1/§5.2: Linux keeps one global hash table for established
//! connections, with fine-grained (per-bucket) locking; the paper leaves it
//! in place for all listen-socket implementations. Every incoming packet
//! performs a lookup here, and insert/remove on connection setup/teardown
//! write the bucket chains — the residual cross-core sharing that remains
//! even under Affinity-Accept.

use crate::conn::ConnId;
use mem::{CacheModel, DataType, ObjId};
use metrics::lockstat::LockClass;
use nic::FlowTuple;
use sim::lock::TimelineLock;
use sim::topology::CoreId;

struct Bucket {
    lock: TimelineLock,
    head: ObjId,
    items: Vec<(FlowTuple, ConnId)>,
}

// `EST_TABLE_BUCKETS` (65,536) per run: every byte here is 64 KiB of host
// memory.
const _: () = assert!(std::mem::size_of::<Bucket>() == 48);

/// The established-connections table.
pub struct EstTable {
    buckets: Vec<Bucket>,
    mask: usize,
    len: usize,
}

impl std::fmt::Debug for EstTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstTable")
            .field("buckets", &self.buckets.len())
            .field("len", &self.len)
            .finish()
    }
}

impl EstTable {
    /// Creates a table with `n_buckets` (rounded up to a power of two).
    pub fn new(n_buckets: usize, cache: &mut CacheModel) -> Self {
        let n = n_buckets.next_power_of_two();
        let buckets = (0..n)
            .map(|_| Bucket {
                lock: TimelineLock::new(LockClass::EstablishedBucket),
                head: cache.alloc(DataType::HashBucket, CoreId(0)),
                items: Vec::new(),
            })
            .collect();
        Self {
            buckets,
            mask: n - 1,
            len: 0,
        }
    }

    /// Established connections currently in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, tuple: &FlowTuple) -> usize {
        (tuple.hash() as usize) & self.mask
    }

    /// The bucket lock guarding `tuple`'s chain.
    pub fn bucket_lock(&mut self, tuple: &FlowTuple) -> &mut TimelineLock {
        let b = self.bucket_of(tuple);
        &mut self.buckets[b].lock
    }

    /// The bucket head object (touched on every per-packet lookup).
    #[must_use]
    pub fn bucket_head(&self, tuple: &FlowTuple) -> ObjId {
        self.buckets[self.bucket_of(tuple)].head
    }

    /// Inserts an established connection.
    pub fn insert(&mut self, tuple: FlowTuple, conn: ConnId) {
        let b = self.bucket_of(&tuple);
        debug_assert!(!self.buckets[b].items.iter().any(|(t, _)| *t == tuple));
        self.buckets[b].items.push((tuple, conn));
        self.len += 1;
    }

    /// Per-packet lookup.
    #[must_use]
    pub fn lookup(&self, tuple: &FlowTuple) -> Option<ConnId> {
        let b = self.bucket_of(tuple);
        self.buckets[b]
            .items
            .iter()
            .find(|(t, _)| t == tuple)
            .map(|(_, c)| *c)
    }

    /// Another connection in `tuple`'s bucket chain, if any — hash-chain
    /// insertion and removal write the *neighbour's* linkage fields, which
    /// is the residual cross-core sharing that remains even under perfect
    /// connection affinity (§6.4: "the kernel adds `tcp_sock` objects to
    /// global lists; multiple cores manipulate these lists").
    #[must_use]
    pub fn chain_neighbor(&self, tuple: &FlowTuple, not: ConnId) -> Option<ConnId> {
        let b = self.bucket_of(tuple);
        self.buckets[b]
            .items
            .iter()
            .find(|(_, c)| *c != not)
            .map(|(_, c)| *c)
    }

    /// Removes a connection at teardown; returns whether it was present.
    pub fn remove(&mut self, tuple: &FlowTuple) -> bool {
        let b = self.bucket_of(tuple);
        let before = self.buckets[b].items.len();
        self.buckets[b].items.retain(|(t, _)| t != tuple);
        let removed = self.buckets[b].items.len() < before;
        if removed {
            self.len -= 1;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    fn setup() -> (EstTable, CacheModel) {
        let mut cache = CacheModel::new(Machine::amd48());
        let t = EstTable::new(4096, &mut cache);
        (t, cache)
    }

    #[test]
    fn insert_lookup_remove() {
        let (mut t, _c) = setup();
        let tuple = FlowTuple::client(1, 5555, 80);
        t.insert(tuple, ConnId(9));
        assert_eq!(t.lookup(&tuple), Some(ConnId(9)));
        assert_eq!(t.len(), 1);
        assert!(t.remove(&tuple));
        assert!(!t.remove(&tuple));
        assert!(t.is_empty());
        assert_eq!(t.lookup(&tuple), None);
    }

    #[test]
    fn many_connections_coexist() {
        let (mut t, _c) = setup();
        for port in 0..1000u16 {
            t.insert(FlowTuple::client(2, port, 80), ConnId(u64::from(port)));
        }
        assert_eq!(t.len(), 1000);
        for port in (0..1000u16).step_by(7) {
            assert_eq!(
                t.lookup(&FlowTuple::client(2, port, 80)),
                Some(ConnId(u64::from(port)))
            );
        }
    }

    #[test]
    fn bucket_head_is_stable() {
        let (t, _c) = setup();
        let tuple = FlowTuple::client(2, 3, 80);
        assert_eq!(t.bucket_head(&tuple), t.bucket_head(&tuple));
    }
}
