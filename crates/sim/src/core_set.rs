//! Per-core execution state.
//!
//! Each simulated core is a serial resource: it executes one piece of work
//! at a time and is busy until `busy_until`. Work arriving earlier is
//! delayed; the gap between completed work accumulates as idle time
//! (Table 2's third column). Each core also carries a FIFO run queue of
//! task ids used by the process scheduler ([`crate::sched`]).

use crate::time::Cycles;
use crate::topology::CoreId;
use std::collections::VecDeque;

/// Identifies a schedulable task (a simulated process or thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// State of one core.
#[derive(Debug, Clone, Default)]
pub struct CoreState {
    /// Time until which the core is executing already-scheduled work.
    pub busy_until: Cycles,
    /// Total cycles spent executing work (for idle-time accounting).
    pub busy_cycles: Cycles,
    /// Runnable tasks waiting for the core.
    pub run_queue: VecDeque<TaskId>,
}

/// The set of cores participating in a run.
#[derive(Debug, Clone)]
pub struct CoreSet {
    cores: Vec<CoreState>,
}

impl CoreSet {
    /// Creates `n` idle cores.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            cores: vec![CoreState::default(); n],
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Immutable access to one core.
    #[must_use]
    pub fn core(&self, id: CoreId) -> &CoreState {
        &self.cores[id.index()]
    }

    /// Mutable access to one core.
    pub fn core_mut(&mut self, id: CoreId) -> &mut CoreState {
        &mut self.cores[id.index()]
    }

    /// Earliest time at which `core` can start new work arriving at `now`.
    #[must_use]
    pub fn start_time(&self, core: CoreId, now: Cycles) -> Cycles {
        now.max(self.core(core).busy_until)
    }

    /// Runs `duration` cycles of work on `core` starting no earlier than
    /// `now`; returns the completion time.
    pub fn run(&mut self, core: CoreId, now: Cycles, duration: Cycles) -> Cycles {
        let start = self.start_time(core, now);
        let end = start + duration;
        let c = self.core_mut(core);
        c.busy_until = end;
        c.busy_cycles += duration;
        end
    }

    /// Enqueues a runnable task on `core`'s run queue.
    pub fn enqueue(&mut self, core: CoreId, task: TaskId) {
        self.core_mut(core).run_queue.push_back(task);
    }

    /// Pops the next runnable task from `core`'s run queue.
    pub fn dequeue(&mut self, core: CoreId) -> Option<TaskId> {
        self.core_mut(core).run_queue.pop_front()
    }

    /// Removes a specific task from a core's run queue (for migration);
    /// returns whether it was present.
    pub fn remove(&mut self, core: CoreId, task: TaskId) -> bool {
        let q = &mut self.core_mut(core).run_queue;
        if let Some(pos) = q.iter().position(|t| *t == task) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Run-queue length of `core` (the scheduler's load signal).
    #[must_use]
    pub fn load(&self, core: CoreId) -> usize {
        self.core(core).run_queue.len()
    }

    /// Aggregate idle fraction over a window that started at 0 and ended at
    /// `window_end`, across `active` cores.
    #[must_use]
    pub fn idle_fraction(&self, window_end: Cycles, active: usize) -> f64 {
        if window_end == 0 || active == 0 {
            return 0.0;
        }
        let capacity = window_end as f64 * active as f64;
        let busy: f64 = self
            .cores
            .iter()
            .take(active)
            .map(|c| c.busy_cycles.min(window_end) as f64)
            .sum();
        ((capacity - busy) / capacity).max(0.0)
    }

    /// Resets busy accounting (used between warmup and measurement phases).
    pub fn reset_accounting(&mut self) {
        for c in &mut self.cores {
            c.busy_cycles = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn run_serializes_work() {
        let mut cs = CoreSet::new(2);
        let end1 = cs.run(C0, 0, 100);
        assert_eq!(end1, 100);
        // Work arriving at t=50 must wait for the core.
        let end2 = cs.run(C0, 50, 30);
        assert_eq!(end2, 130);
        // The other core is independent.
        let end3 = cs.run(C1, 50, 30);
        assert_eq!(end3, 80);
    }

    #[test]
    fn busy_accounting_counts_only_work() {
        let mut cs = CoreSet::new(1);
        cs.run(C0, 0, 100);
        cs.run(C0, 500, 100); // 400 idle cycles in between
        assert_eq!(cs.core(C0).busy_cycles, 200);
        assert_eq!(cs.core(C0).busy_until, 600);
    }

    #[test]
    fn idle_fraction_half_busy() {
        let mut cs = CoreSet::new(1);
        cs.run(C0, 0, 500);
        let idle = cs.idle_fraction(1000, 1);
        assert!((idle - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_queue_fifo() {
        let mut cs = CoreSet::new(1);
        cs.enqueue(C0, TaskId(1));
        cs.enqueue(C0, TaskId(2));
        assert_eq!(cs.load(C0), 2);
        assert_eq!(cs.dequeue(C0), Some(TaskId(1)));
        assert_eq!(cs.dequeue(C0), Some(TaskId(2)));
        assert_eq!(cs.dequeue(C0), None);
    }

    #[test]
    fn remove_specific_task() {
        let mut cs = CoreSet::new(1);
        cs.enqueue(C0, TaskId(1));
        cs.enqueue(C0, TaskId(2));
        cs.enqueue(C0, TaskId(3));
        assert!(cs.remove(C0, TaskId(2)));
        assert!(!cs.remove(C0, TaskId(2)));
        assert_eq!(cs.dequeue(C0), Some(TaskId(1)));
        assert_eq!(cs.dequeue(C0), Some(TaskId(3)));
    }

    #[test]
    fn reset_accounting_clears_busy() {
        let mut cs = CoreSet::new(1);
        cs.run(C0, 0, 100);
        cs.reset_accounting();
        assert_eq!(cs.core(C0).busy_cycles, 0);
        // busy_until is preserved: the core is still occupied.
        assert_eq!(cs.core(C0).busy_until, 100);
    }
}
