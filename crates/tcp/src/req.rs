//! The request (SYN) hash table.
//!
//! §5.2: a per-core request table breaks when flow groups migrate (a SYN's
//! request socket would be in one core's table while the ACK arrives on
//! another core), so the design keeps **one** request hash table shared by
//! all listen-socket clones, with **per-bucket locks** to avoid contention;
//! the paper measured at most a 2 % penalty versus per-core tables.
//!
//! Stock-Accept uses the same structure but serializes every operation
//! under the single listen-socket lock instead of the bucket locks.
//!
//! Each bucket keeps its chain as a [`List`] whose nodes, one per request
//! with its [`FlowTuple`], share the table's one [`FifoSlab`]: a lookup by
//! tuple walks the chain's nodes, and only the request it finds is read
//! from the id-keyed map.

use crate::conn::ConnId;
use crate::fifo::{FifoSlab, List};
use mem::{CacheModel, DataType, ObjId};
use metrics::lockstat::LockClass;
use nic::FlowTuple;
use serde::{Deserialize, Serialize};
use sim::fastmap::FastMap;
use sim::lock::TimelineLock;
use sim::topology::CoreId;

/// Identifies a pending connection request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ReqId(pub u64);

/// A pending request: the `tcp_request_sock` object plus, once the
/// handshake completes, the child connection it points at (Linux keeps the
/// request socket on the accept queue as the handle to the child).
#[derive(Debug)]
pub struct ReqSock {
    /// Stable id.
    pub id: ReqId,
    /// The flow that sent the SYN.
    pub tuple: FlowTuple,
    /// The `tcp_request_sock` object.
    pub obj: ObjId,
    /// The established child connection, set when the ACK arrives.
    pub child: Option<ConnId>,
}

struct Bucket {
    lock: TimelineLock,
    head: ObjId,
    chain: List,
}

/// The shared request hash table with per-bucket locks.
pub struct ReqTable {
    buckets: Vec<Bucket>,
    chains: FifoSlab<(FlowTuple, ReqId)>,
    reqs: FastMap<u64, ReqSock>,
    next: u64,
    mask: usize,
}

impl std::fmt::Debug for ReqTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReqTable")
            .field("buckets", &self.buckets.len())
            .field("pending", &self.reqs.len())
            .finish()
    }
}

impl ReqTable {
    /// Creates a table with `n_buckets` (rounded up to a power of two)
    /// bucket heads allocated in the cache model.
    pub fn new(n_buckets: usize, cache: &mut CacheModel) -> Self {
        let n = n_buckets.next_power_of_two();
        let buckets = (0..n)
            .map(|_| Bucket {
                lock: TimelineLock::new(LockClass::RequestBucket),
                head: cache.alloc(DataType::HashBucket, CoreId(0)),
                chain: List::EMPTY,
            })
            .collect();
        Self {
            buckets,
            chains: FifoSlab::new(),
            reqs: FastMap::default(),
            next: 1,
            mask: n - 1,
        }
    }

    /// Number of pending requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Total requests ever inserted (never decremented; the conservation
    /// audit balances this against establishes + drops + residual).
    #[must_use]
    pub fn created(&self) -> u64 {
        self.next - 1
    }

    /// Whether no requests are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    fn bucket_of(&self, tuple: &FlowTuple) -> usize {
        (tuple.hash() as usize) & self.mask
    }

    /// The bucket lock guarding `tuple`'s chain (callers acquire it when
    /// running with fine-grained locking).
    pub fn bucket_lock(&mut self, tuple: &FlowTuple) -> &mut TimelineLock {
        let b = self.bucket_of(tuple);
        &mut self.buckets[b].lock
    }

    /// The bucket head object for `tuple` (touched on every chain walk).
    #[must_use]
    pub fn bucket_head(&self, tuple: &FlowTuple) -> ObjId {
        self.buckets[self.bucket_of(tuple)].head
    }

    /// Inserts a new request for `tuple` backed by `obj`.
    pub fn insert(&mut self, tuple: FlowTuple, obj: ObjId) -> ReqId {
        let id = ReqId(self.next);
        self.next += 1;
        let b = self.bucket_of(&tuple);
        self.chains
            .push_back(&mut self.buckets[b].chain, (tuple, id));
        self.reqs.insert(
            id.0,
            ReqSock {
                id,
                tuple,
                obj,
                child: None,
            },
        );
        id
    }

    /// Finds the pending request for `tuple`.
    #[must_use]
    pub fn lookup(&self, tuple: &FlowTuple) -> Option<ReqId> {
        let b = self.bucket_of(tuple);
        self.chains
            .iter(self.buckets[b].chain)
            .find(|(t, _)| t == tuple)
            .map(|(_, id)| *id)
    }

    /// Removes a request from its chain and returns it (ACK processing:
    /// the request leaves the table and, in Linux, moves to the accept
    /// queue pointing at the child socket).
    pub fn remove(&mut self, id: ReqId) -> Option<ReqSock> {
        let req = self.reqs.remove(&id.0)?;
        let b = self.bucket_of(&req.tuple);
        self.chains
            .remove_first(&mut self.buckets[b].chain, |(_, r)| *r == id);
        Some(req)
    }

    /// Immutable access to a pending request.
    #[must_use]
    pub fn get(&self, id: ReqId) -> Option<&ReqSock> {
        self.reqs.get(&id.0)
    }

    /// Mutable access to a pending request.
    pub fn get_mut(&mut self, id: ReqId) -> Option<&mut ReqSock> {
        self.reqs.get_mut(&id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    fn setup() -> (ReqTable, CacheModel) {
        let mut cache = CacheModel::new(Machine::amd48());
        let t = ReqTable::new(1024, &mut cache);
        (t, cache)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let (mut t, mut cache) = setup();
        let tuple = FlowTuple::client(7, 4242, 80);
        let obj = cache.alloc(DataType::TcpRequestSock, CoreId(0));
        let id = t.insert(tuple, obj);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&tuple), Some(id));
        let req = t.remove(id).expect("present");
        assert_eq!(req.tuple, tuple);
        assert_eq!(req.obj, obj);
        assert!(t.is_empty());
        // Removal does not un-create: the counter is monotone.
        assert_eq!(t.created(), 1);
        assert_eq!(t.lookup(&tuple), None);
    }

    #[test]
    fn lookup_distinguishes_tuples_in_same_bucket() {
        let (mut t, mut cache) = setup();
        // Force potential collisions by using many tuples.
        let mut ids = Vec::new();
        for port in 0..200u16 {
            let tuple = FlowTuple::client(1, port, 80);
            let obj = cache.alloc(DataType::TcpRequestSock, CoreId(0));
            ids.push((tuple, t.insert(tuple, obj)));
        }
        for (tuple, id) in ids {
            assert_eq!(t.lookup(&tuple), Some(id));
        }
    }

    #[test]
    fn child_assignment() {
        let (mut t, mut cache) = setup();
        let tuple = FlowTuple::client(9, 1, 80);
        let obj = cache.alloc(DataType::TcpRequestSock, CoreId(0));
        let id = t.insert(tuple, obj);
        t.get_mut(id).unwrap().child = Some(ConnId(77));
        assert_eq!(t.get(id).unwrap().child, Some(ConnId(77)));
    }

    #[test]
    fn bucket_head_stable_for_tuple() {
        let (mut t, _cache) = setup();
        let tuple = FlowTuple::client(3, 33, 80);
        let h1 = t.bucket_head(&tuple);
        let h2 = t.bucket_head(&tuple);
        assert_eq!(h1, h2);
        let _ = t.bucket_lock(&tuple);
    }

    #[test]
    fn remove_missing_is_none() {
        let (mut t, _cache) = setup();
        assert!(t.remove(ReqId(999)).is_none());
    }
}
