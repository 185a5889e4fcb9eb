//! Affinity-Accept (§3): local accepts, connection stealing, and
//! flow-group migration.
//!
//! `accept()` preferentially returns connections from the caller's own
//! core's queue, so — since the NIC keeps steering the flow to that same
//! core — all processing for a connection stays local. Two mechanisms
//! counter load imbalance:
//!
//! * **Connection stealing** (§3.3.1): non-busy cores steal from busy
//!   cores, with a 5:1 proportional share between local and stolen
//!   accepts and round-robin victim selection; busy cores never steal.
//! * **Flow-group migration** (§3.3.2): every 100 ms each non-busy core
//!   takes one flow group in the NIC's FDir table from the core it stole
//!   the most connections from, converting sustained stealing back into
//!   local processing.

use crate::busy::BusyTracker;
use crate::listen::{
    AcceptItem, AcceptOutcome, AckOutcome, CloneQueue, ListenConfig, ListenSocket, ListenStats,
};
use nic::packet::RingId;
use nic::FlowTuple;
use sim::time::Cycles;
use sim::topology::CoreId;
use tcp::{ops, Kernel};

/// Hold time of a clone-queue lock for one enqueue/dequeue.
const QUEUE_LOCK_HOLD: Cycles = 700;
/// Cost of scanning an empty queue.
const EMPTY_SCAN_COST: Cycles = 250;
/// Driver-call overhead of one FDir reprogramming beyond the table write.
const MIGRATE_DRIVER_COST: Cycles = 2_000;

/// The affinity-aware listen socket.
#[derive(Debug)]
pub struct AffinityAccept {
    cfg: ListenConfig,
    queues: Vec<CloneQueue>,
    busy: BusyTracker,
    /// Per-core accept counter driving the 5:1 proportional share.
    share_ctr: Vec<u32>,
    /// Per-core round-robin cursor over steal victims.
    last_victim: Vec<usize>,
    /// `steals[stealer][victim]` since the last balance tick.
    steals: Vec<Vec<u64>>,
    /// Rotates which of a victim's flow groups migrates.
    migrate_rotor: usize,
    stats: ListenStats,
}

impl AffinityAccept {
    /// Creates one clone per active core plus the busy tracker.
    pub fn new(k: &mut Kernel, cfg: ListenConfig) -> Self {
        let n = cfg.n_cores;
        let queues = (0..n)
            .map(|i| CloneQueue::new(k, CoreId(i as u16)))
            .collect();
        let busy = BusyTracker::new(
            k,
            n,
            cfg.max_local_queue(),
            cfg.high_watermark,
            cfg.low_watermark,
        );
        Self {
            cfg,
            queues,
            busy,
            share_ctr: vec![0; n],
            last_victim: vec![0; n],
            steals: vec![vec![0; n]; n],
            migrate_rotor: 0,
            stats: ListenStats::default(),
        }
    }

    /// The busy tracker (exposed for tests and diagnostics).
    #[must_use]
    pub fn busy_tracker(&self) -> &BusyTracker {
        &self.busy
    }

    fn dequeue_from(
        &mut self,
        k: &mut Kernel,
        qi: usize,
        core: CoreId,
        at: Cycles,
    ) -> (AcceptItem, Cycles) {
        let deq = self.queues[qi].dequeue_access(k, core);
        let (_, spin) =
            self.queues[qi]
                .lock
                .run_locked(at, QUEUE_LOCK_HOLD + deq.latency, &mut k.lockstat);
        let item = self.queues[qi].items.pop_front().expect("non-empty");
        let len = self.queues[qi].items.len();
        self.busy.reconsider(k, CoreId(qi as u16), len);
        (
            item,
            spin + QUEUE_LOCK_HOLD + deq.latency + k.lockstat.op_overhead(),
        )
    }

    /// Finds the next busy victim with a non-empty queue, round-robin from
    /// this core's cursor (§3.3.1: deterministic order, start one past the
    /// last victim).
    fn next_victim(&self, core: CoreId) -> Option<usize> {
        let n = self.cfg.n_cores;
        let start = (self.last_victim[core.index()] + 1) % n;
        (0..n).map(|i| (start + i) % n).find(|&v| {
            v != core.index()
                && self.busy.is_busy(CoreId(v as u16))
                && !self.queues[v].items.is_empty()
        })
    }

    /// Polling fallback (§3.3.1 "Polling"): before sleeping, scan remote
    /// queues — busy cores first, then non-busy ones. A non-busy victim is
    /// only raided when its queue is clearly backlogged (its own acceptor
    /// would have taken a freshly enqueued connection within one wakeup);
    /// raiding every transiently non-empty queue would destroy the very
    /// affinity the design exists to preserve.
    fn any_remote(&self, core: CoreId) -> Option<usize> {
        let n = self.cfg.n_cores;
        let backlog = (self.cfg.max_local_queue() / 4).max(2);
        let busy_first = (0..n).filter(|&v| {
            v != core.index()
                && self.busy.is_busy(CoreId(v as u16))
                && !self.queues[v].items.is_empty()
        });
        let nonbusy = (0..n).filter(|&v| {
            v != core.index()
                && !self.busy.is_busy(CoreId(v as u16))
                && self.queues[v].items.len() >= backlog
        });
        busy_first.chain(nonbusy).next()
    }
}

impl ListenSocket for AffinityAccept {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn on_syn(&mut self, k: &mut Kernel, core: CoreId, at: Cycles, tuple: FlowTuple) -> Cycles {
        let (cycles, _req) = ops::syn(k, core, at, tuple, true);
        cycles
    }

    fn on_ack(
        &mut self,
        k: &mut Kernel,
        core: CoreId,
        at: Cycles,
        tuple: FlowTuple,
    ) -> (Cycles, AckOutcome) {
        let Some(req) = k.reqs.lookup(&tuple) else {
            return (EMPTY_SCAN_COST, AckOutcome::DroppedOverflow);
        };
        // Enforce the local split *and* the socket-wide backlog: the
        // per-core cap rounds up (`max(1)`), so with more cores than
        // backlog slots the local checks alone would over-admit.
        if self.queues[core.index()].items.len() >= self.cfg.max_local_queue()
            || self.total_queued() >= self.cfg.max_backlog
        {
            if let Some(r) = k.reqs.remove(req) {
                k.slab.free(core, r.obj, &mut k.cache);
            }
            self.stats.dropped_overflow += 1;
            return (EMPTY_SCAN_COST, AckOutcome::DroppedOverflow);
        }
        let (work, conn, req_obj) =
            ops::ack_establish(k, core, at, req, true).expect("request present");
        let enq = self.queues[core.index()].enqueue_access(k, core);
        let (_, spin) = self.queues[core.index()].lock.run_locked(
            at + work,
            QUEUE_LOCK_HOLD + enq.latency,
            &mut k.lockstat,
        );
        self.queues[core.index()]
            .items
            .push_back(AcceptItem { conn, req_obj });
        let len = self.queues[core.index()].items.len();
        self.busy.on_enqueue(k, core, len);
        self.stats.enqueued += 1;
        (
            work + spin + QUEUE_LOCK_HOLD + enq.latency + k.lockstat.op_overhead(),
            AckOutcome::Enqueued {
                conn,
                queue_core: core,
            },
        )
    }

    fn try_accept(&mut self, k: &mut Kernel, core: CoreId, at: Cycles) -> AcceptOutcome {
        let me = core.index();
        // One read of the busy bit vector tells us every core's status.
        let bitmap_cost = self.busy.read_access(k, core).latency;
        let self_busy = self.busy.is_busy(core);
        let local_len = self.queues[me].items.len();

        // Proportional share: when both local work and busy victims
        // exist, every (ratio+1)-th accept goes remote.
        let ratio = self.cfg.steal_ratio_local;
        if !self_busy && self.cfg.stealing {
            let steal_due = local_len == 0 || self.share_ctr[me] % (ratio + 1) == ratio;
            if steal_due {
                if let Some(v) = self.next_victim(core) {
                    self.last_victim[me] = v;
                    self.share_ctr[me] = self.share_ctr[me].wrapping_add(1);
                    self.steals[me][v] += 1;
                    self.stats.accepts_stolen += 1;
                    let (item, cycles) = self.dequeue_from(k, v, core, at);
                    return AcceptOutcome::Accepted {
                        item,
                        cycles: cycles + bitmap_cost,
                        stolen: true,
                        resume_at: at,
                    };
                }
            }
        }
        if local_len > 0 {
            self.share_ctr[me] = self.share_ctr[me].wrapping_add(1);
            self.stats.accepts_local += 1;
            let (item, cycles) = self.dequeue_from(k, me, core, at);
            return AcceptOutcome::Accepted {
                item,
                cycles: cycles + bitmap_cost,
                stolen: false,
                resume_at: at,
            };
        }
        // Local queue empty: a non-busy core polls the other queues
        // before sleeping (busy cores never steal).
        if !self_busy && self.cfg.stealing {
            if let Some(v) = self.any_remote(core) {
                self.last_victim[me] = v;
                self.steals[me][v] += 1;
                self.stats.accepts_stolen += 1;
                let (item, cycles) = self.dequeue_from(k, v, core, at);
                return AcceptOutcome::Accepted {
                    item,
                    cycles: cycles + bitmap_cost,
                    stolen: true,
                    resume_at: at,
                };
            }
        }
        AcceptOutcome::Empty {
            cycles: EMPTY_SCAN_COST + bitmap_cost,
            resume_at: at,
        }
    }

    fn wake_candidates(&mut self, queue_core: CoreId, out: &mut Vec<CoreId>) {
        // Local waiters first; otherwise any *non-busy* remote (§3.3.1).
        out.clear();
        out.push(queue_core);
        for i in 0..self.cfg.n_cores {
            let c = CoreId(i as u16);
            if c != queue_core && !self.busy.is_busy(c) {
                out.push(c);
            }
        }
    }

    fn wakes_all_pollers(&self) -> bool {
        // Affinity-Accept only wakes threads polling on the local core.
        false
    }

    fn queued_on(&self, core: CoreId) -> usize {
        self.queues[core.index()].items.len()
    }

    fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.items.len()).sum()
    }

    fn balance_tick(
        &mut self,
        _k: &mut Kernel,
        groups: &mut nic::FlowGroupTable,
        _now: Cycles,
    ) -> Vec<(CoreId, Cycles)> {
        if !self.cfg.migration {
            for row in &mut self.steals {
                row.iter_mut().for_each(|c| *c = 0);
            }
            return Vec::new();
        }
        let n = self.cfg.n_cores;
        let mut charged = Vec::new();
        for me in 0..n {
            if self.busy.is_busy(CoreId(me as u16)) {
                // Busy cores do not migrate additional groups to themselves.
                continue;
            }
            let Some((victim, count)) = self.steals[me]
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(v, c)| (v, *c))
            else {
                continue;
            };
            if count == 0 {
                continue;
            }
            let victim_groups = groups.groups_of(RingId(victim as u16));
            if victim_groups.is_empty() {
                continue;
            }
            let g = victim_groups[self.migrate_rotor % victim_groups.len()];
            self.migrate_rotor = self.migrate_rotor.wrapping_add(1);
            let cost = groups.migrate(g, RingId(me as u16)) + MIGRATE_DRIVER_COST;
            self.stats.flow_migrations += 1;
            charged.push((CoreId(me as u16), cost));
        }
        for row in &mut self.steals {
            row.iter_mut().for_each(|c| *c = 0);
        }
        charged
    }

    fn stats(&self) -> ListenStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    fn setup(n: usize) -> (AffinityAccept, Kernel) {
        let mut k = Kernel::new(Machine::amd48());
        let s = AffinityAccept::new(&mut k, ListenConfig::paper(n));
        (s, k)
    }

    fn tuple(port: u16) -> FlowTuple {
        FlowTuple::client(1, port, 80)
    }

    fn establish(s: &mut AffinityAccept, k: &mut Kernel, core: CoreId, port: u16, at: Cycles) {
        s.on_syn(k, core, at, tuple(port));
        let (_, out) = s.on_ack(k, core, at + 1000, tuple(port));
        assert!(matches!(out, AckOutcome::Enqueued { .. }), "{out:?}");
    }

    #[test]
    fn accept_prefers_local_queue() {
        let (mut s, mut k) = setup(4);
        establish(&mut s, &mut k, CoreId(1), 1, 0);
        establish(&mut s, &mut k, CoreId(2), 2, 10_000);
        // Core 2 accepts its own connection even though core 1 has one.
        match s.try_accept(&mut k, CoreId(2), 1_000_000) {
            AcceptOutcome::Accepted { item, stolen, .. } => {
                assert!(!stolen);
                assert_eq!(k.conn(item.conn).rx_core, CoreId(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_share_stealing_from_non_busy_victims() {
        // With local work available, the proportional-share steal path
        // only fires for *busy* victims; a core with its own work never
        // steals from a non-busy one, even after many accepts.
        let (mut s, mut k) = setup(4);
        let mut at = 0u64;
        for p in 0..30u16 {
            establish(&mut s, &mut k, CoreId(0), p, at);
            at += 50_000;
        }
        for p in 100..130u16 {
            establish(&mut s, &mut k, CoreId(3), p, at);
            at += 50_000;
        }
        assert!(!s.busy_tracker().is_busy(CoreId(0)));
        for _ in 0..30 {
            at += 50_000;
            match s.try_accept(&mut k, CoreId(3), at) {
                AcceptOutcome::Accepted { stolen, .. } => assert!(!stolen),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_local_polls_backlogged_remote_queues() {
        // The polling path: local empty, a remote (non-busy) queue is
        // clearly backlogged — take from it rather than sleeping.
        let mut k = Kernel::new(Machine::amd48());
        let mut cfg = ListenConfig::paper(4);
        cfg.max_backlog = 32; // max local 8, backlog threshold 2
        let mut s = AffinityAccept::new(&mut k, cfg);
        establish(&mut s, &mut k, CoreId(0), 9, 0);
        // One pending connection on a non-busy core is NOT raided…
        match s.try_accept(&mut k, CoreId(3), 1_000_000) {
            AcceptOutcome::Empty { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // …but a backlog is.
        establish(&mut s, &mut k, CoreId(0), 10, 10_000);
        establish(&mut s, &mut k, CoreId(0), 11, 20_000);
        match s.try_accept(&mut k, CoreId(3), 2_000_000) {
            AcceptOutcome::Accepted { stolen, .. } => assert!(stolen),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn proportional_share_is_5_to_1_under_busy_victim() {
        let mut k = Kernel::new(Machine::amd48());
        let mut cfg = ListenConfig::paper(2);
        cfg.max_backlog = 16; // max local queue 8, high watermark 6
        let mut s = AffinityAccept::new(&mut k, cfg);
        let mut at = 0u64;
        let mut port = 0u16;
        fn fill(s: &mut AffinityAccept, k: &mut Kernel, port: &mut u16, at: &mut u64) {
            // Keep both queues topped up; core 1 over its high watermark.
            while s.queued_on(CoreId(1)) < 7 {
                establish(s, k, CoreId(1), *port, *at);
                *port += 1;
                *at += 100_000;
            }
            while s.queued_on(CoreId(0)) < 4 {
                establish(s, k, CoreId(0), *port, *at);
                *port += 1;
                *at += 100_000;
            }
        }
        fill(&mut s, &mut k, &mut port, &mut at);
        assert!(s.busy_tracker().is_busy(CoreId(1)));
        let (mut local, mut stolen) = (0u32, 0u32);
        for _ in 0..60 {
            fill(&mut s, &mut k, &mut port, &mut at);
            at += 100_000;
            match s.try_accept(&mut k, CoreId(0), at) {
                AcceptOutcome::Accepted { stolen: st, .. } => {
                    if st {
                        stolen += 1;
                    } else {
                        local += 1;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(local, 50);
        assert_eq!(stolen, 10);
    }

    #[test]
    fn busy_cores_never_steal() {
        let mut k = Kernel::new(Machine::amd48());
        let mut cfg = ListenConfig::paper(2);
        cfg.max_backlog = 8; // max local 4, high watermark 3
        let mut s = AffinityAccept::new(&mut k, cfg);
        // Make both cores busy.
        let mut at = 0;
        let mut port = 0;
        for c in 0..2u16 {
            for _ in 0..4 {
                establish(&mut s, &mut k, CoreId(c), port, at);
                port += 1;
                at += 10_000;
            }
        }
        assert!(s.busy_tracker().is_busy(CoreId(0)));
        // Drain core 0's local queue; once empty it must NOT steal from
        // busy core 1.
        for _ in 0..4 {
            match s.try_accept(&mut k, CoreId(0), at) {
                AcceptOutcome::Accepted { stolen, .. } => assert!(!stolen),
                other => panic!("unexpected {other:?}"),
            }
            at += 10_000;
        }
        assert!(s.busy_tracker().is_busy(CoreId(0)), "EWMA keeps it busy");
        match s.try_accept(&mut k, CoreId(0), at) {
            AcceptOutcome::Empty { .. } => {}
            other => panic!("busy core stole: {other:?}"),
        }
    }

    #[test]
    fn conservation_no_connection_lost_or_duplicated() {
        let (mut s, mut k) = setup(4);
        let mut at = 0;
        for p in 0..40u16 {
            establish(&mut s, &mut k, CoreId(p % 4), p, at);
            at += 50_000;
        }
        let mut accepted = std::collections::BTreeSet::new();
        loop {
            let mut progress = false;
            for c in 0..4u16 {
                if let AcceptOutcome::Accepted { item, .. } = s.try_accept(&mut k, CoreId(c), at) {
                    assert!(accepted.insert(item.conn), "duplicate {:?}", item.conn);
                    progress = true;
                }
                at += 10_000;
            }
            if !progress {
                break;
            }
        }
        assert_eq!(accepted.len(), 40);
        assert_eq!(s.total_queued(), 0);
    }

    #[test]
    fn flow_group_migration_moves_one_group_per_tick() {
        let mut k = Kernel::new(Machine::amd48());
        let mut cfg = ListenConfig::paper(2);
        cfg.max_backlog = 16;
        let mut s = AffinityAccept::new(&mut k, cfg);
        let mut groups = nic::FlowGroupTable::new(2, 64);
        // Core 1 busy, core 0 steals a few times.
        let mut at = 0;
        for port in 0..7u16 {
            establish(&mut s, &mut k, CoreId(1), port, at);
            at += 10_000;
        }
        assert!(s.busy_tracker().is_busy(CoreId(1)));
        for _ in 0..3 {
            match s.try_accept(&mut k, CoreId(0), at) {
                AcceptOutcome::Accepted { stolen, .. } => assert!(stolen),
                other => panic!("unexpected {other:?}"),
            }
            at += 10_000;
        }
        let before = groups.group_counts(2);
        let charged = s.balance_tick(&mut k, &mut groups, at);
        assert_eq!(charged.len(), 1);
        assert_eq!(charged[0].0, CoreId(0));
        let after = groups.group_counts(2);
        assert_eq!(after[0], before[0] + 1);
        assert_eq!(after[1], before[1] - 1);
        assert_eq!(s.stats().flow_migrations, 1);
        // Steal counts reset: a second tick with no new steals migrates
        // nothing.
        assert!(s.balance_tick(&mut k, &mut groups, at).is_empty());
    }

    #[test]
    fn wake_candidates_local_then_non_busy() {
        let (mut s, _k) = setup(4);
        let mut v = Vec::new();
        s.wake_candidates(CoreId(2), &mut v);
        assert_eq!(v[0], CoreId(2));
        assert_eq!(v.len(), 4); // all non-busy initially
        assert!(!s.wakes_all_pollers());
    }
}
