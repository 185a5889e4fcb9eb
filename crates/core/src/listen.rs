//! The listen-socket interface and shared machinery.
//!
//! A listen socket mediates three flows (§2.1, Figure 1): SYN packets
//! create request sockets; handshake-completing ACKs promote them to
//! established connections on an accept queue; `accept()` hands them to
//! the application. The three implementations differ in how these paths
//! are partitioned and locked, and in which core `accept()` prefers.

use mem::layout::FieldTag;
use mem::{DataType, ObjId};
use metrics::lockstat::LockClass;
use nic::FlowTuple;
use sim::lock::TimelineLock;
use sim::time::{ms, Cycles};
use sim::topology::CoreId;
use std::collections::VecDeque;
use tcp::{ConnId, Kernel};

/// A connection ready for `accept()`: in Linux the accept queue holds the
/// request socket, which points at the established child socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptItem {
    /// The established connection.
    pub conn: ConnId,
    /// The request socket `accept()` reads and frees.
    pub req_obj: ObjId,
}

/// Outcome of an ACK completing a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// Queued on `queue_core`'s accept queue.
    Enqueued {
        /// The connection created.
        conn: ConnId,
        /// The core whose queue holds it.
        queue_core: CoreId,
    },
    /// The accept queue was full; the connection was dropped (the client
    /// will time out and retry or give up — §3.3's motivating failure).
    DroppedOverflow,
}

/// Outcome of one `accept()` attempt.
///
/// `resume_at` is when the caller actually starts executing `cycles` of
/// work: under stock's mutex-mode socket lock the task sleeps (idle, not
/// spinning) until its FIFO turn on the lock; the fine-grained
/// implementations resume immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// A connection was dequeued.
    Accepted {
        /// What was accepted.
        item: AcceptItem,
        /// Cycles the attempt took once running.
        cycles: Cycles,
        /// Whether it came from another core's queue (stolen).
        stolen: bool,
        /// When the work starts (≥ the call time).
        resume_at: Cycles,
    },
    /// No connection available anywhere this implementation looks.
    Empty {
        /// Cycles the (failed) scan took.
        cycles: Cycles,
        /// When the scan ran.
        resume_at: Cycles,
    },
}

/// Configuration shared by the listen-socket implementations.
#[derive(Debug, Clone, Copy)]
pub struct ListenConfig {
    /// Cores participating in the run.
    pub n_cores: usize,
    /// The `listen()` backlog; Affinity-Accept splits it evenly across
    /// cores (§3.3.1). The paper finds 64–256 per core works well at 48
    /// cores; the default gives 128 per core on the AMD machine.
    pub max_backlog: usize,
    /// Local accepts per stolen accept in the proportional-share
    /// scheduler (the paper's 5:1).
    pub steal_ratio_local: u32,
    /// Busy high watermark as a fraction of the max local queue length.
    pub high_watermark: f64,
    /// Non-busy low watermark as a fraction of the max local queue length.
    pub low_watermark: f64,
    /// Flow-group migration interval (§3.3.2: 100 ms).
    pub migrate_interval: Cycles,
    /// Connection stealing enabled (§6.5 disables it for comparison).
    pub stealing: bool,
    /// Flow-group migration enabled (§6.5 disables it for comparison).
    pub migration: bool,
}

impl ListenConfig {
    /// The paper's configuration for `n_cores` active cores.
    #[must_use]
    pub fn paper(n_cores: usize) -> Self {
        Self {
            n_cores,
            max_backlog: 128 * n_cores,
            steal_ratio_local: 5,
            high_watermark: 0.75,
            low_watermark: 0.10,
            migrate_interval: ms(100),
            stealing: true,
            migration: true,
        }
    }

    /// Maximum local accept queue length (the backlog split per core).
    #[must_use]
    pub fn max_local_queue(&self) -> usize {
        (self.max_backlog / self.n_cores.max(1)).max(1)
    }
}

/// One accept queue (a listen-socket clone): the queue, its lock, and the
/// cache-model object whose lines enqueue/dequeue touch.
#[derive(Debug)]
pub struct CloneQueue {
    /// Pending accepted-but-not-`accept()`ed connections.
    pub items: VecDeque<AcceptItem>,
    /// The queue lock.
    pub lock: TimelineLock,
    /// The clone's `listen_sock` object.
    pub sock: ObjId,
}

impl CloneQueue {
    /// Creates an empty queue homed on `core`.
    pub fn new(k: &mut Kernel, core: CoreId) -> Self {
        Self {
            items: VecDeque::new(),
            lock: TimelineLock::new(LockClass::AcceptQueue),
            sock: k.cache.alloc(DataType::ListenSock, core),
        }
    }

    /// Cache cost of linking an item at the tail (producer side).
    pub fn enqueue_access(&self, k: &mut Kernel, core: CoreId) -> mem::cache::Access {
        let mut a = k
            .cache
            .access_tagged(core, self.sock, FieldTag::BothRwByRx, true);
        a.add(
            k.cache
                .access_tagged(core, self.sock, FieldTag::BothRo, false),
        );
        a
    }

    /// Cache cost of unlinking an item at the head (consumer side).
    pub fn dequeue_access(&self, k: &mut Kernel, core: CoreId) -> mem::cache::Access {
        let mut a = k
            .cache
            .access_tagged(core, self.sock, FieldTag::BothRwByRx, false);
        a.add(
            k.cache
                .access_tagged(core, self.sock, FieldTag::BothRwByApp, true),
        );
        a
    }
}

/// Counters every implementation maintains.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListenStats {
    /// Connections enqueued to an accept queue.
    pub enqueued: u64,
    /// Connections dropped on queue overflow.
    pub dropped_overflow: u64,
    /// Accepts served from the caller's own queue.
    pub accepts_local: u64,
    /// Accepts served from another core's queue.
    pub accepts_stolen: u64,
    /// Flow groups migrated (§3.3.2).
    pub flow_migrations: u64,
}

/// The listen-socket abstraction the runner and the benchmarks drive.
pub trait ListenSocket {
    /// Implementation name as printed by the harness.
    fn name(&self) -> &'static str;

    /// A SYN arrived on `core` (softirq context). Returns the duration.
    fn on_syn(&mut self, k: &mut Kernel, core: CoreId, at: Cycles, tuple: FlowTuple) -> Cycles;

    /// The handshake-completing ACK arrived on `core` (softirq context).
    fn on_ack(
        &mut self,
        k: &mut Kernel,
        core: CoreId,
        at: Cycles,
        tuple: FlowTuple,
    ) -> (Cycles, AckOutcome);

    /// An application thread on `core` attempts to accept at time `at`.
    fn try_accept(&mut self, k: &mut Kernel, core: CoreId, at: Cycles) -> AcceptOutcome;

    /// Preference-ordered cores whose sleeping acceptors should be woken
    /// after an enqueue on `queue_core`.
    fn wake_candidates(&mut self, queue_core: CoreId, out: &mut Vec<CoreId>);

    /// Whether waking `poll()`ers suffers the thundering herd (§4.1):
    /// stock and Fine wake every poller; Affinity-Accept wakes only the
    /// local core's.
    fn wakes_all_pollers(&self) -> bool {
        true
    }

    /// Pending connections on `core`'s queue (or the global queue).
    fn queued_on(&self, core: CoreId) -> usize;

    /// Total pending connections.
    fn total_queued(&self) -> usize;

    /// Periodic load-balancer tick (§3.3.2). Implementations without one
    /// do nothing. Returns per-core cycles charged for FDir reprogramming.
    fn balance_tick(
        &mut self,
        _k: &mut Kernel,
        _groups: &mut nic::FlowGroupTable,
        _now: Cycles,
    ) -> Vec<(CoreId, Cycles)> {
        Vec::new()
    }

    /// Counter snapshot.
    fn stats(&self) -> ListenStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    #[test]
    fn paper_config_splits_backlog() {
        let cfg = ListenConfig::paper(48);
        assert_eq!(cfg.max_local_queue(), 128);
        assert_eq!(cfg.steal_ratio_local, 5);
        assert_eq!(cfg.migrate_interval, ms(100));
    }

    #[test]
    fn max_local_queue_never_zero() {
        let mut cfg = ListenConfig::paper(48);
        cfg.max_backlog = 10;
        assert_eq!(cfg.max_local_queue(), 1);
    }

    #[test]
    fn clone_queue_accesses_cost_cycles() {
        let mut k = Kernel::new(Machine::amd48());
        let q = CloneQueue::new(&mut k, CoreId(0));
        let a = q.enqueue_access(&mut k, CoreId(0));
        assert!(a.latency > 0);
        let d = q.dequeue_access(&mut k, CoreId(0));
        assert!(d.latency > 0);
    }

    #[test]
    fn cross_core_dequeue_costs_more() {
        let mut k = Kernel::new(Machine::amd48());
        let q = CloneQueue::new(&mut k, CoreId(0));
        // Warm up producer side on core 0.
        q.enqueue_access(&mut k, CoreId(0));
        let local = q.dequeue_access(&mut k, CoreId(0)).latency;
        q.enqueue_access(&mut k, CoreId(0));
        let remote = q.dequeue_access(&mut k, CoreId(12)).latency;
        assert!(remote > local, "remote {remote} local {local}");
    }
}
