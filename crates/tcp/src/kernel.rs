//! The per-run kernel context.
//!
//! One [`Kernel`] instance bundles everything a simulated kernel run needs:
//! the cache-coherence model, the slab allocator, the lock profiler, the
//! performance counters, the connection table, and the global request and
//! established hash tables. The listen-socket implementations and the
//! application runner operate on `&mut Kernel`.
//!
//! The kernel also owns the two node slabs that hold every connection's
//! queues: received segments in `rx_segs`, and in-flight send chunks and
//! transmit `sk_buff`s in `tx_bufs`. A connection keeps only its lists'
//! ends, so the data-path ops reach the slabs through [`KernelParts`], and
//! a connection must be closed (its lists drained) before it is removed.

use crate::conn::{Conn, ConnId, RxSegment};
use crate::costs::EntryCost;
use crate::est::EstTable;
use crate::fifo::FifoSlab;
use crate::req::ReqTable;
use mem::cache::Access;
use mem::{CacheModel, DataType, ObjId, SlabAllocator};
use metrics::lockstat::LockStat;
use metrics::PerfCounters;
use nic::FlowTuple;
use sim::fastmap::FastMap;
use sim::time::Cycles;
use sim::topology::{CoreId, Machine};

/// Cache-model objects backing one application task (process or thread):
/// its `task_struct` and its kernel stack.
#[derive(Debug, Clone, Copy)]
pub struct TaskObjs {
    /// The `task_struct`.
    pub ts: ObjId,
    /// The kernel stack (`slab:size-16384`).
    pub stack: ObjId,
    /// The task's poll wait-queue entry (`slab:size-192`).
    pub waitq: ObjId,
}

/// Default bucket counts for the global hash tables.
pub const REQ_TABLE_BUCKETS: usize = 4096;
/// Established table buckets (Linux sizes this from memory; 64K chains
/// keep lookups O(1) at the paper's connection counts).
pub const EST_TABLE_BUCKETS: usize = 65_536;

/// The simulated kernel.
#[derive(Debug)]
pub struct Kernel {
    /// Machine topology and latencies.
    pub machine: Machine,
    /// The coherence cost model (owns DProf).
    pub cache: CacheModel,
    /// Per-core object pools.
    pub slab: SlabAllocator,
    /// The `lock_stat` profiler (disabled unless Table 2 is being run).
    pub lockstat: LockStat,
    /// Per-entry performance counters (Table 3).
    pub perf: PerfCounters,
    /// The global established-connections table.
    pub est: EstTable,
    /// The shared request hash table.
    pub reqs: ReqTable,
    conns: FastMap<u64, Conn>,
    /// Every connection's received segments awaiting `read()`.
    pub(crate) rx_segs: FifoSlab<RxSegment>,
    /// Every connection's unacknowledged send chunks and transmit
    /// `sk_buff`s.
    pub(crate) tx_bufs: FifoSlab<ObjId>,
    next_conn: u64,
    conns_removed: u64,
    /// Static-content `file` objects (the served file set).
    pub files: Vec<ObjId>,
    /// Total user-space cycles spent (application request processing).
    pub user_cycles: u64,
}

impl Kernel {
    /// Creates a kernel for `machine` with empty tables.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        let n_cores = machine.n_cores;
        let mut cache = CacheModel::new(machine.clone());
        let est = EstTable::new(EST_TABLE_BUCKETS, &mut cache);
        let reqs = ReqTable::new(REQ_TABLE_BUCKETS, &mut cache);
        Self {
            machine,
            cache,
            slab: SlabAllocator::new(n_cores),
            lockstat: LockStat::disabled(),
            perf: PerfCounters::new(),
            est,
            reqs,
            conns: FastMap::default(),
            rx_segs: FifoSlab::new(),
            tx_bufs: FifoSlab::new(),
            next_conn: 1,
            conns_removed: 0,
            files: Vec::new(),
            user_cycles: 0,
        }
    }

    /// Enables the `lock_stat` profiler (Table 2 runs).
    pub fn enable_lockstat(&mut self) {
        self.lockstat = LockStat::enabled();
    }

    /// Enables the DProf profiler (Table 3/4, Figure 4 runs).
    pub fn enable_dprof(&mut self) {
        self.cache.dprof = mem::DProf::enabled();
    }

    /// Enables the dprof-v2 per-cacheline ledger (wasted-bytes reports).
    /// Independent of [`Kernel::enable_dprof`]; both may be on at once.
    pub fn enable_dprof_v2(&mut self) {
        self.cache.dprof.enable_v2();
    }

    /// Allocates the static file set served by the web server, spread
    /// round-robin over the machine's cores (and hence DRAM nodes).
    pub fn init_files(&mut self, n: usize) {
        self.files = (0..n)
            .map(|i| {
                let core = CoreId((i % self.machine.n_cores) as u16);
                self.cache.alloc(DataType::File, core)
            })
            .collect();
    }

    /// Allocates the cache-model objects for one application task homed on
    /// `core`.
    pub fn new_task_objs(&mut self, core: CoreId) -> TaskObjs {
        TaskObjs {
            ts: self.cache.alloc(DataType::TaskStruct, core),
            stack: self.cache.alloc(DataType::Slab16384, core),
            waitq: self.cache.alloc(DataType::Slab192, core),
        }
    }

    /// Registers a new established connection.
    pub fn new_conn(&mut self, tuple: FlowTuple, sock: ObjId, rx_core: CoreId) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(id.0, Conn::new(tuple, sock, rx_core));
        id
    }

    /// Immutable access to a connection.
    ///
    /// # Panics
    ///
    /// Panics if the connection does not exist.
    #[must_use]
    pub fn conn(&self, id: ConnId) -> &Conn {
        &self.conns[&id.0]
    }

    /// Mutable access to a connection.
    ///
    /// # Panics
    ///
    /// Panics if the connection does not exist.
    pub fn conn_mut(&mut self, id: ConnId) -> &mut Conn {
        self.conns.get_mut(&id.0).expect("live connection")
    }

    /// Whether a connection is still registered.
    #[must_use]
    pub fn has_conn(&self, id: ConnId) -> bool {
        self.conns.contains_key(&id.0)
    }

    /// Removes a closed connection from the table.
    pub fn remove_conn(&mut self, id: ConnId) -> Option<Conn> {
        let removed = self.conns.remove(&id.0);
        if let Some(c) = &removed {
            // `sys_close` drains the lists; nodes left on them would leak.
            debug_assert!(
                c.rcv_queue.is_empty() && c.tx_chunks.is_empty() && c.tx_skbs.is_empty(),
                "{id:?} removed with queued buffers"
            );
            self.conns_removed += 1;
        }
        removed
    }

    /// Number of live connections.
    #[must_use]
    pub fn live_conns(&self) -> usize {
        self.conns.len()
    }

    /// Total connections ever registered via [`Kernel::new_conn`]; the
    /// conservation audit balances this against removals + live.
    #[must_use]
    pub fn conns_created(&self) -> u64 {
        self.next_conn - 1
    }

    /// Total connections ever removed via [`Kernel::remove_conn`].
    #[must_use]
    pub fn conns_removed(&self) -> u64 {
        self.conns_removed
    }

    /// Split-borrow helper used by the data-path ops: the connection map
    /// and the rest of the kernel, simultaneously mutable.
    pub fn split(&mut self) -> (&mut FastMap<u64, Conn>, KernelParts<'_>) {
        (
            &mut self.conns,
            KernelParts {
                machine: &self.machine,
                cache: &mut self.cache,
                slab: &mut self.slab,
                lockstat: &mut self.lockstat,
                perf: &mut self.perf,
                est: &mut self.est,
                reqs: &mut self.reqs,
                rx_segs: &mut self.rx_segs,
                tx_bufs: &mut self.tx_bufs,
                user_cycles: &mut self.user_cycles,
            },
        )
    }

    /// Charges one entry-point invocation with the given tracked-access
    /// cost; returns the invocation's total cycles.
    pub fn charge(&mut self, ec: EntryCost, tracked: Access) -> Cycles {
        charge_parts(&self.machine, &mut self.perf, ec, tracked)
    }

    /// Resets measurement state (counters, lock stats, user cycles) while
    /// keeping connections and caches warm — called between the warmup and
    /// measurement phases of a run.
    pub fn reset_measurement(&mut self) {
        self.perf = PerfCounters::new();
        self.lockstat.clear();
        self.user_cycles = 0;
    }
}

/// Mutable views of the kernel's parts minus the connection table (see
/// [`Kernel::split`]).
#[derive(Debug)]
pub struct KernelParts<'a> {
    /// Machine topology.
    pub machine: &'a Machine,
    /// Cache model.
    pub cache: &'a mut CacheModel,
    /// Slab pools.
    pub slab: &'a mut SlabAllocator,
    /// Lock profiler.
    pub lockstat: &'a mut LockStat,
    /// Perf counters.
    pub perf: &'a mut PerfCounters,
    /// Established table.
    pub est: &'a mut EstTable,
    /// Request table.
    pub reqs: &'a mut ReqTable,
    /// Received-segment slab.
    pub(crate) rx_segs: &'a mut FifoSlab<RxSegment>,
    /// Transmit-buffer slab.
    pub(crate) tx_bufs: &'a mut FifoSlab<ObjId>,
    /// User-cycle accumulator.
    pub user_cycles: &'a mut u64,
}

/// Charges an entry invocation against explicit parts (used by the ops
/// layer under split borrows).
pub fn charge_parts(
    machine: &Machine,
    perf: &mut PerfCounters,
    ec: EntryCost,
    tracked: Access,
) -> Cycles {
    let cycles = ec.instr + ec.extra_cycles + ec.base_misses * machine.lat.ram + tracked.latency;
    perf.charge(
        ec.entry,
        cycles,
        ec.instr,
        ec.base_misses + tracked.l2_misses,
    );
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use metrics::perf::KernelEntry;

    #[test]
    fn charge_accumulates_counters() {
        let mut k = Kernel::new(Machine::amd48());
        let tracked = Access {
            latency: 920,
            l2_misses: 2,
        };
        let cyc = k.charge(costs::SYS_READ, tracked);
        assert_eq!(
            cyc,
            costs::SYS_READ.instr
                + costs::SYS_READ.extra_cycles
                + costs::SYS_READ.base_misses * 120
                + 920
        );
        let e = k.perf.entry(KernelEntry::SysRead);
        assert_eq!(e.calls, 1);
        assert_eq!(e.l2_misses, costs::SYS_READ.base_misses + 2);
    }

    #[test]
    fn conn_registry_roundtrip() {
        let mut k = Kernel::new(Machine::amd48());
        let sock = k.cache.alloc(DataType::TcpSock, CoreId(0));
        let id = k.new_conn(FlowTuple::client(1, 2, 80), sock, CoreId(0));
        assert!(k.has_conn(id));
        assert_eq!(k.live_conns(), 1);
        k.conn_mut(id).app_core = Some(CoreId(0));
        assert!(k.conn(id).has_affinity());
        assert!(k.remove_conn(id).is_some());
        assert!(!k.has_conn(id));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "removed with queued buffers")]
    fn removing_a_connection_with_queued_buffers_panics() {
        use crate::ops;
        let mut k = Kernel::new(Machine::amd48());
        let tuple = FlowTuple::client(1, 2, 80);
        let (_, req) = ops::syn(&mut k, CoreId(0), 0, tuple, true);
        let (_, id, _) = ops::ack_establish(&mut k, CoreId(0), 0, req, true).expect("established");
        ops::data_rx(&mut k, CoreId(0), 0, id, 300, 0, None);
        // No `sys_close`: the received segment is still queued.
        k.remove_conn(id);
    }

    #[test]
    fn init_files_allocates_tracked_objects() {
        let mut k = Kernel::new(Machine::amd48());
        let before = k.cache.live_objects();
        k.init_files(100);
        assert_eq!(k.files.len(), 100);
        assert_eq!(k.cache.live_objects(), before + 100);
    }

    #[test]
    fn reset_measurement_clears_counters_keeps_conns() {
        let mut k = Kernel::new(Machine::amd48());
        let sock = k.cache.alloc(DataType::TcpSock, CoreId(0));
        let id = k.new_conn(FlowTuple::client(1, 2, 80), sock, CoreId(0));
        k.charge(costs::SYS_READ, Access::default());
        k.user_cycles = 5;
        k.reset_measurement();
        assert_eq!(k.perf.entry(KernelEntry::SysRead).calls, 0);
        assert_eq!(k.user_cycles, 0);
        assert!(k.has_conn(id));
    }
}
