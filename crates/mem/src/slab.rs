//! Per-core slab object pools.
//!
//! §2.2: "The kernel allocates buffers to hold packets out of a per-core
//! pool. The kernel allocates a buffer on the core that initially receives
//! the packet from the RX DMA ring, and deallocates a buffer on the core
//! that calls `recvmsg()`. With a single core processing a connection, both
//! allocation and deallocation are fast because they access the same local
//! pool. With multiple cores performance suffers because remote
//! deallocation is slower."
//!
//! The model: each core keeps a free list per data type. `free` pushes onto
//! the *freeing* core's list and writes the object's first line (the
//! freelist link) — if the object's lines live dirty in another core's
//! cache, that write is a remote miss, which is exactly the remote-
//! deallocation penalty. A subsequent `alloc` on this core hands out the
//! recycled object, whose lines may still be remote — the locality poison
//! spreads. Under Affinity-Accept alloc and free happen on the same core
//! and everything stays local.

use crate::cache::{Access, CacheModel, ObjId};
use crate::types::DataType;
use sim::topology::CoreId;

/// Per-core, per-type object pools layered over the [`CacheModel`].
///
/// Layout follows access affinity (the dprof-v2 analysis applied to the
/// simulator's own structs): the pool table — dereferenced on every
/// alloc and free — leads the header, with the accounting counters
/// behind it, and `repr(C)` pins that order.
#[derive(Debug)]
#[repr(C)]
pub struct SlabAllocator {
    /// `free[core][type_index]` is that core's free list.
    free: Vec<Vec<Vec<ObjId>>>,
    /// Fresh allocations (cold objects) per type, for accounting.
    pub fresh_allocs: u64,
    /// Recycled allocations per type, for accounting.
    pub recycled_allocs: u64,
    /// Frees observed.
    pub frees: u64,
}

// The whole header must fit one host cache line, pool table first.
const _: () = assert!(std::mem::size_of::<SlabAllocator>() <= 64);
const _: () = assert!(std::mem::offset_of!(SlabAllocator, free) == 0);

fn type_index(ty: DataType) -> usize {
    ty.index()
}

impl SlabAllocator {
    /// Creates pools for `n_cores` cores.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        Self {
            free: vec![vec![Vec::new(); DataType::ALL.len()]; n_cores],
            fresh_allocs: 0,
            recycled_allocs: 0,
            frees: 0,
        }
    }

    /// Allocates an object of `ty` on `core`, preferring the local pool.
    ///
    /// Returns the object and the memory-access cost of the allocation
    /// (touching the freelist link in the object's first line).
    pub fn alloc(&mut self, core: CoreId, ty: DataType, cache: &mut CacheModel) -> (ObjId, Access) {
        let pool = &mut self.free[core.index()][type_index(ty)];
        if let Some(id) = pool.pop() {
            self.recycled_allocs += 1;
            // Popping writes the freelist head stored in the object: if the
            // object's memory is cached remotely this is the slow path.
            let cost = cache.access_field(core, id, 0, true);
            (id, cost)
        } else {
            self.fresh_allocs += 1;
            let id = cache.alloc(ty, core);
            let cost = cache.access_field(core, id, 0, true);
            (id, cost)
        }
    }

    /// Frees an object onto `core`'s pool (the core that calls the freeing
    /// path, per the paper — not the allocating core). Folds the object's
    /// DProf profile for this incarnation.
    pub fn free(&mut self, core: CoreId, id: ObjId, cache: &mut CacheModel) -> Access {
        self.frees += 1;
        let ty = cache.type_of(id);
        // Writing the freelist link: remote if the object is hot elsewhere.
        let cost = cache.access_field(core, id, 0, true);
        cache.recycle(id);
        self.free[core.index()][type_index(ty)].push(id);
        cost
    }

    /// Number of pooled objects of `ty` on `core`.
    #[must_use]
    pub fn pooled(&self, core: CoreId, ty: DataType) -> usize {
        self.free[core.index()][type_index(ty)].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    const C0: CoreId = CoreId(0);
    const C6: CoreId = CoreId(6); // other chip on AMD

    fn setup() -> (SlabAllocator, CacheModel) {
        (SlabAllocator::new(48), CacheModel::new(Machine::amd48()))
    }

    #[test]
    fn alloc_free_alloc_recycles_locally() {
        let (mut slab, mut cache) = setup();
        let (a, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        slab.free(C0, a, &mut cache);
        assert_eq!(slab.pooled(C0, DataType::SkBuff), 1);
        let (b, cost) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        assert_eq!(a, b, "recycled the same object");
        // Local reuse is an L1 hit on the freelist line.
        assert_eq!(cost.latency, Machine::amd48().lat.l1);
        assert_eq!(slab.recycled_allocs, 1);
        assert_eq!(slab.fresh_allocs, 1);
    }

    #[test]
    fn remote_free_is_slower_than_local_free() {
        let (mut slab, mut cache) = setup();
        let (a, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        let (b, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        let local = slab.free(C0, a, &mut cache);
        let remote = slab.free(C6, b, &mut cache);
        assert!(
            remote.latency > 10 * local.latency,
            "remote {} local {}",
            remote.latency,
            local.latency
        );
        // The object now sits in the *remote* core's pool.
        assert_eq!(slab.pooled(C6, DataType::SkBuff), 1);
        assert_eq!(slab.pooled(C0, DataType::SkBuff), 1);
    }

    #[test]
    fn pools_are_per_type() {
        let (mut slab, mut cache) = setup();
        let (a, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        slab.free(C0, a, &mut cache);
        let (b, _) = slab.alloc(C0, DataType::TcpSock, &mut cache);
        assert_ne!(a, b);
        assert_eq!(slab.pooled(C0, DataType::SkBuff), 1);
        assert_eq!(slab.pooled(C0, DataType::TcpSock), 0);
    }

    #[test]
    fn empty_pool_allocates_fresh() {
        let (mut slab, mut cache) = setup();
        let (_, cost) = slab.alloc(C0, DataType::TcpSock, &mut cache);
        assert_eq!(cost.latency, Machine::amd48().lat.ram);
        assert_eq!(slab.fresh_allocs, 1);
    }

    #[test]
    fn free_counts() {
        let (mut slab, mut cache) = setup();
        let (a, _) = slab.alloc(C0, DataType::Slab128, &mut cache);
        slab.free(C0, a, &mut cache);
        assert_eq!(slab.frees, 1);
    }

    /// A local alloc/free/alloc cycle through the slab shows up in the
    /// dprof-v2 ledger as one fill: the recycled object's line is still
    /// resident, so its reuse is no second fetch.
    #[cfg(not(feature = "fast"))]
    #[test]
    fn local_recycling_records_no_second_fill_in_v2() {
        let (mut slab, mut cache) = setup();
        cache.dprof.enable_v2();
        let (a, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        slab.free(C0, a, &mut cache); // recycle: settles the generation
        let (b, _) = slab.alloc(C0, DataType::SkBuff, &mut cache);
        assert_eq!(a, b);
        cache.fold_all_live();
        let t = cache.dprof.cacheline_stats().totals();
        assert_eq!(t.bytes_touched + t.bytes_wasted, t.bytes_fetched);
        assert_eq!(t.fills, 1, "local reuse must not re-fetch");
        assert_eq!(t.bytes_fetched, 64);
        assert!(t.touches > t.fills, "the reuse touched the line");
    }
}
