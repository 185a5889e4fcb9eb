//! Stock-Accept: the unmodified Linux listen socket (§2.1).
//!
//! One request hash table and one accept queue, both protected by a single
//! per-port socket lock. Softirq-context users (SYN and ACK processing)
//! spin for the lock; syscall-context users (`accept()`) sleep on it
//! ("mutex mode"). Only one core at a time can make progress on incoming
//! connections for the port — the scalability collapse of Figure 2.

use crate::listen::{
    AcceptItem, AcceptOutcome, AckOutcome, CloneQueue, ListenConfig, ListenSocket, ListenStats,
};
use mem::layout::FieldTag;
use metrics::lockstat::LockClass;
use nic::FlowTuple;
use sim::lock::TimelineLock;
use sim::time::Cycles;
use sim::topology::CoreId;
use tcp::{ops, Kernel};

/// Hold time of the listen lock for the dequeue part of `accept()`.
const ACCEPT_DEQUEUE_HOLD: Cycles = 2_500;
/// Longest mutex-mode wait an `accept()` will reserve before giving up
/// and going back to sleep (a later enqueue re-wakes it). An unbounded
/// reservation would mark the sleeping task's core busy arbitrarily far
/// into the future.
const MUTEX_WAIT_CAP: Cycles = 240_000; // 100 us
/// Cycles spent discovering an empty queue under the lock.
const EMPTY_SCAN_COST: Cycles = 600;

/// The stock Linux listen socket.
#[derive(Debug)]
pub struct StockAccept {
    cfg: ListenConfig,
    queue: CloneQueue,
    lock: TimelineLock,
    stats: ListenStats,
    /// FIFO wait-queue cursor: successive wakeups rotate through cores.
    wake_rr: usize,
}

impl StockAccept {
    /// Creates the socket with its single queue homed on core 0.
    pub fn new(k: &mut Kernel, cfg: ListenConfig) -> Self {
        Self {
            cfg,
            queue: CloneQueue::new(k, CoreId(0)),
            lock: TimelineLock::new(LockClass::ListenSocket),
            stats: ListenStats::default(),
            wake_rr: 0,
        }
    }

    /// The lock-word line bounces between every core that takes the lock.
    fn touch_lock_word(&self, k: &mut Kernel, core: CoreId) -> mem::cache::Access {
        k.cache
            .access_tagged(core, self.queue.sock, FieldTag::GlobalNode, true)
    }
}

impl ListenSocket for StockAccept {
    fn name(&self) -> &'static str {
        "stock"
    }

    fn on_syn(&mut self, k: &mut Kernel, core: CoreId, at: Cycles, tuple: FlowTuple) -> Cycles {
        // Softirq context: spin for the socket lock, then do all request
        // processing under it.
        let lock_word = self.touch_lock_word(k, core);
        let acq = self.lock.lock_spin(at);
        let (work, _req) = ops::syn(k, core, acq.entry, tuple, false);
        let hold = work + lock_word.latency;
        self.lock.unlock(acq, hold, 0, &mut k.lockstat);
        acq.spin_wait + hold + k.lockstat.op_overhead()
    }

    fn on_ack(
        &mut self,
        k: &mut Kernel,
        core: CoreId,
        at: Cycles,
        tuple: FlowTuple,
    ) -> (Cycles, AckOutcome) {
        let lock_word = self.touch_lock_word(k, core);
        let acq = self.lock.lock_spin(at);
        let Some(req) = k.reqs.lookup(&tuple) else {
            self.lock.unlock(acq, EMPTY_SCAN_COST, 0, &mut k.lockstat);
            return (acq.spin_wait + EMPTY_SCAN_COST, AckOutcome::DroppedOverflow);
        };
        if self.queue.items.len() >= self.cfg.max_backlog {
            // Queue overflow: Linux drops the ACK; the request eventually
            // times out. We reclaim it immediately.
            if let Some(r) = k.reqs.remove(req) {
                k.slab.free(core, r.obj, &mut k.cache);
            }
            self.stats.dropped_overflow += 1;
            self.lock.unlock(acq, EMPTY_SCAN_COST, 0, &mut k.lockstat);
            return (acq.spin_wait + EMPTY_SCAN_COST, AckOutcome::DroppedOverflow);
        }
        let (work, conn, req_obj) =
            ops::ack_establish(k, core, acq.entry, req, false).expect("request present");
        let enq = self.queue.enqueue_access(k, core);
        self.queue.items.push_back(AcceptItem { conn, req_obj });
        self.stats.enqueued += 1;
        let hold = work + lock_word.latency + enq.latency;
        self.lock.unlock(acq, hold, 0, &mut k.lockstat);
        (
            acq.spin_wait + hold + k.lockstat.op_overhead(),
            AckOutcome::Enqueued {
                conn,
                queue_core: CoreId(0),
            },
        )
    }

    fn try_accept(&mut self, k: &mut Kernel, core: CoreId, at: Cycles) -> AcceptOutcome {
        // Syscall context takes the lock in mutex mode: the task sleeps
        // (idle) until its FIFO turn, then runs its critical section.
        let lock_word = self.touch_lock_word(k, core);
        let reservation = self.lock.lock_spin(at);
        let mutex_wait = reservation.spin_wait;
        let resume_at = reservation.entry;
        if mutex_wait > MUTEX_WAIT_CAP {
            // Give the slot back (zero hold leaves the timeline unchanged)
            // and report empty; the task sleeps and a later wakeup retries.
            let acq = sim::lock::Acquired {
                entry: resume_at,
                spin_wait: 0,
            };
            self.lock
                .unlock(acq, 0, mutex_wait.min(MUTEX_WAIT_CAP), &mut k.lockstat);
            return AcceptOutcome::Empty {
                cycles: lock_word.latency + k.lockstat.op_overhead(),
                resume_at: at,
            };
        }
        let acq = sim::lock::Acquired {
            entry: resume_at,
            spin_wait: 0,
        };
        if let Some(item) = self.queue.items.pop_front() {
            let deq = self.queue.dequeue_access(k, core);
            let hold = ACCEPT_DEQUEUE_HOLD + deq.latency + lock_word.latency;
            self.lock.unlock(acq, hold, mutex_wait, &mut k.lockstat);
            self.stats.accepts_local += 1;
            AcceptOutcome::Accepted {
                item,
                cycles: hold + k.lockstat.op_overhead(),
                stolen: false,
                resume_at,
            }
        } else {
            self.lock
                .unlock(acq, EMPTY_SCAN_COST, mutex_wait, &mut k.lockstat);
            AcceptOutcome::Empty {
                cycles: EMPTY_SCAN_COST + lock_word.latency,
                resume_at,
            }
        }
    }

    fn wake_candidates(&mut self, queue_core: CoreId, out: &mut Vec<CoreId>) {
        // One global queue with a FIFO wait queue: successive wakeups hit
        // whichever waiter has slept longest — effectively rotating
        // through the cores, with no locality preference.
        let _ = queue_core;
        out.clear();
        let n = self.cfg.n_cores;
        self.wake_rr = (self.wake_rr + 1) % n;
        for i in 0..n {
            out.push(CoreId(((self.wake_rr + i) % n) as u16));
        }
    }

    fn queued_on(&self, _core: CoreId) -> usize {
        self.queue.items.len()
    }

    fn total_queued(&self) -> usize {
        self.queue.items.len()
    }

    fn stats(&self) -> ListenStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    fn setup(n_cores: usize) -> (StockAccept, Kernel) {
        let mut k = Kernel::new(Machine::amd48());
        let s = StockAccept::new(&mut k, ListenConfig::paper(n_cores));
        (s, k)
    }

    fn tuple(port: u16) -> FlowTuple {
        FlowTuple::client(1, port, 80)
    }

    #[test]
    fn handshake_and_accept() {
        let (mut s, mut k) = setup(4);
        s.on_syn(&mut k, CoreId(0), 0, tuple(1));
        let (_, out) = s.on_ack(&mut k, CoreId(0), 10_000, tuple(1));
        let AckOutcome::Enqueued { conn, queue_core } = out else {
            panic!("expected enqueue");
        };
        assert_eq!(queue_core, CoreId(0));
        assert_eq!(s.total_queued(), 1);
        match s.try_accept(&mut k, CoreId(2), 20_000_000) {
            AcceptOutcome::Accepted { item, stolen, .. } => {
                assert_eq!(item.conn, conn);
                assert!(!stolen);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.total_queued(), 0);
    }

    #[test]
    fn concurrent_syns_serialize_on_the_lock() {
        let (mut s, mut k) = setup(8);
        // Eight cores all receive SYNs at t = 0: waits stack up.
        let durations: Vec<Cycles> = (0..8)
            .map(|i| s.on_syn(&mut k, CoreId(i), 0, tuple(i)))
            .collect();
        for w in durations.windows(2) {
            assert!(w[1] > w[0], "later SYNs wait longer: {durations:?}");
        }
        // The last core waited for seven predecessors.
        assert!(durations[7] > durations[0] * 5);
    }

    #[test]
    fn accept_sleeps_in_mutex_mode_while_lock_held() {
        let (mut s, mut k) = setup(4);
        s.on_syn(&mut k, CoreId(0), 0, tuple(1));
        // The SYN processing holds the lock for tens of kcycles; an accept
        // arriving mid-hold sleeps until its FIFO turn (idle, not spin).
        match s.try_accept(&mut k, CoreId(1), 10) {
            AcceptOutcome::Empty { resume_at, .. } => assert!(resume_at > 10),
            other => panic!("unexpected {other:?}"),
        }
        // The wait was recorded as mutex-mode (idle) time, not spin.
        k.enable_lockstat();
        s.on_syn(&mut k, CoreId(0), 50_000_000, tuple(2));
        match s.try_accept(&mut k, CoreId(1), 50_000_010) {
            AcceptOutcome::Empty { resume_at, .. } => assert!(resume_at > 50_000_010),
            other => panic!("unexpected {other:?}"),
        }
        if metrics::lockstat::ENABLED {
            let st = k.lockstat.class(metrics::lockstat::LockClass::ListenSocket);
            assert!(st.wait_mutex_cycles > 0);
            assert_eq!(st.wait_spin_cycles, 0);
        }
    }

    #[test]
    fn empty_queue_reports_empty() {
        let (mut s, mut k) = setup(4);
        match s.try_accept(&mut k, CoreId(0), 1_000_000) {
            AcceptOutcome::Empty { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overflow_drops() {
        let mut k = Kernel::new(Machine::amd48());
        let mut cfg = ListenConfig::paper(1);
        cfg.max_backlog = 2;
        let mut s = StockAccept::new(&mut k, cfg);
        let mut t = 0;
        for port in 0..3u16 {
            s.on_syn(&mut k, CoreId(0), t, tuple(port));
            t += 1_000_000;
        }
        let mut outcomes = Vec::new();
        for port in 0..3u16 {
            let (_, out) = s.on_ack(&mut k, CoreId(0), t, tuple(port));
            outcomes.push(out);
            t += 1_000_000;
        }
        assert!(matches!(outcomes[0], AckOutcome::Enqueued { .. }));
        assert!(matches!(outcomes[1], AckOutcome::Enqueued { .. }));
        assert_eq!(outcomes[2], AckOutcome::DroppedOverflow);
        assert_eq!(s.stats().dropped_overflow, 1);
        // The dropped request must not leak.
        assert!(k.reqs.is_empty());
    }

    #[test]
    fn wake_candidates_rotate_through_cores() {
        let (mut s, _k) = setup(4);
        let mut v = Vec::new();
        s.wake_candidates(CoreId(0), &mut v);
        assert_eq!(v, vec![CoreId(1), CoreId(2), CoreId(3), CoreId(0)]);
        // Successive wakeups start at successive cores (FIFO waiters),
        // regardless of the enqueuing core.
        s.wake_candidates(CoreId(0), &mut v);
        assert_eq!(v[0], CoreId(2));
        s.wake_candidates(CoreId(3), &mut v);
        assert_eq!(v[0], CoreId(3));
    }
}
