//! The global established-connections hash table.
//!
//! §2.1/§5.2: Linux keeps one global hash table for established
//! connections, with fine-grained (per-bucket) locking; the paper leaves it
//! in place for all listen-socket implementations. Every incoming packet
//! performs a lookup here, and insert/remove on connection setup/teardown
//! write the bucket chains — the residual cross-core sharing that remains
//! even under Affinity-Accept.
//!
//! Each bucket keeps its chain as a [`List`] whose nodes, one per
//! connection with its [`FlowTuple`], share the table's one [`FifoSlab`];
//! a lookup walks the chain's nodes and probes no map.

use crate::conn::ConnId;
use crate::fifo::{FifoSlab, List};
use mem::{CacheModel, DataType, ObjId};
use metrics::lockstat::LockClass;
use nic::FlowTuple;
use sim::lock::TimelineLock;
use sim::topology::CoreId;

struct Bucket {
    lock: TimelineLock,
    head: ObjId,
    chain: List,
}

// `EST_TABLE_BUCKETS` (65,536) per run: every byte here is 64 KiB of host
// memory.
const _: () = assert!(std::mem::size_of::<Bucket>() == 32);

/// The established-connections table.
pub struct EstTable {
    buckets: Vec<Bucket>,
    chains: FifoSlab<(FlowTuple, ConnId)>,
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
                chain: List::EMPTY,
            })
            .collect();
        Self {
            buckets,
            chains: FifoSlab::new(),
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

    /// The chain of `tuple`'s bucket, oldest connection first.
    fn chain(&self, tuple: &FlowTuple) -> impl Iterator<Item = &(FlowTuple, ConnId)> + '_ {
        self.chains.iter(self.buckets[self.bucket_of(tuple)].chain)
    }

    /// Inserts an established connection at the tail of its chain.
    pub fn insert(&mut self, tuple: FlowTuple, conn: ConnId) {
        debug_assert!(!self.chain(&tuple).any(|(t, _)| *t == tuple));
        let b = self.bucket_of(&tuple);
        self.chains
            .push_back(&mut self.buckets[b].chain, (tuple, conn));
        self.len += 1;
    }

    /// Per-packet lookup.
    #[must_use]
    pub fn lookup(&self, tuple: &FlowTuple) -> Option<ConnId> {
        self.chain(tuple).find(|(t, _)| t == tuple).map(|(_, c)| *c)
    }

    /// Another connection in `tuple`'s bucket chain, if any — hash-chain
    /// insertion and removal write the *neighbour's* linkage fields, which
    /// is the residual cross-core sharing that remains even under perfect
    /// connection affinity (§6.4: "the kernel adds `tcp_sock` objects to
    /// global lists; multiple cores manipulate these lists").
    #[must_use]
    pub fn chain_neighbor(&self, tuple: &FlowTuple, not: ConnId) -> Option<ConnId> {
        self.chain(tuple).find(|(_, c)| *c != not).map(|(_, c)| *c)
    }

    /// Removes a connection at teardown; returns whether it was present.
    pub fn remove(&mut self, tuple: &FlowTuple) -> bool {
        let b = self.bucket_of(tuple);
        let removed = self
            .chains
            .remove_first(&mut self.buckets[b].chain, |(t, _)| t == tuple)
            .is_some();
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
    fn one_chain_keeps_insertion_order_across_removals() {
        // One bucket: every connection shares a chain, as colliding flows
        // do in the full-size table.
        let mut cache = CacheModel::new(Machine::amd48());
        let mut t = EstTable::new(1, &mut cache);
        let tuple = |port| FlowTuple::client(4, port, 80);
        for port in 1..=4u16 {
            t.insert(tuple(port), ConnId(u64::from(port)));
        }
        // The neighbour is the oldest other connection on the chain.
        assert_eq!(t.chain_neighbor(&tuple(3), ConnId(3)), Some(ConnId(1)));
        assert_eq!(t.chain_neighbor(&tuple(1), ConnId(1)), Some(ConnId(2)));
        assert!(t.remove(&tuple(1)));
        assert!(t.remove(&tuple(3)));
        assert_eq!(t.chain_neighbor(&tuple(2), ConnId(2)), Some(ConnId(4)));
        t.insert(tuple(5), ConnId(5));
        assert_eq!(t.lookup(&tuple(5)), Some(ConnId(5)));
        assert_eq!(t.lookup(&tuple(3)), None);
        assert!(t.remove(&tuple(2)));
        assert!(t.remove(&tuple(4)));
        assert_eq!(t.chain_neighbor(&tuple(5), ConnId(5)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bucket_head_is_stable() {
        let (t, _c) = setup();
        let tuple = FlowTuple::client(2, 3, 80);
        assert_eq!(t.bucket_head(&tuple), t.bucket_head(&tuple));
    }
}
