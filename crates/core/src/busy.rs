//! Busy-core tracking (§3.3.1).
//!
//! Each core's busy status is derived from its local accept queue: the
//! instantaneous length crossing the **high watermark** (75 % of the max
//! local queue length) marks it busy; because applications accept in
//! bursts, the status is cleared more cautiously — only when an EWMA of
//! the queue length (α = 1 / (2·max-local-length)) drops below the **low
//! watermark** (10 %).
//!
//! The statuses live in a per-listen-socket bit vector occupying one cache
//! line, so a prospective stealer learns every core's status with a single
//! read; when nothing changes the line stays shared in every core's cache.

use mem::layout::FieldTag;
use mem::{DataType, ObjId};
use metrics::Ewma;
use sim::topology::CoreId;
use tcp::Kernel;

/// Per-core queue-length statistics.
#[derive(Debug, Clone)]
struct CoreBusy {
    ewma: Ewma,
    busy: bool,
}

/// The busy-status tracker for one listen socket.
#[derive(Debug)]
pub struct BusyTracker {
    cores: Vec<CoreBusy>,
    bitmap: u128,
    /// The shared bit-vector cache line.
    pub bitmap_obj: ObjId,
    high: f64,
    low: f64,
    /// Busy-status transitions (for diagnostics).
    pub transitions: u64,
}

impl BusyTracker {
    /// Creates a tracker for `n_cores` cores with the given watermark
    /// fractions of `max_local_queue`.
    pub fn new(
        k: &mut Kernel,
        n_cores: usize,
        max_local_queue: usize,
        high_frac: f64,
        low_frac: f64,
    ) -> Self {
        let max = max_local_queue.max(1) as f64;
        Self {
            cores: vec![
                CoreBusy {
                    ewma: Ewma::for_accept_queue(max_local_queue),
                    busy: false,
                };
                n_cores
            ],
            bitmap: 0,
            bitmap_obj: k.cache.alloc(DataType::BusyBitmap, CoreId(0)),
            high: high_frac * max,
            low: low_frac * max,
            transitions: 0,
        }
    }

    /// Whether `core` is currently marked busy.
    #[must_use]
    pub fn is_busy(&self, core: CoreId) -> bool {
        self.cores[core.index()].busy
    }

    /// The busy bit vector (one read tells a stealer everything).
    #[must_use]
    pub fn bitmap(&self) -> u128 {
        self.bitmap
    }

    /// Busy cores other than `me`, in deterministic core order.
    #[must_use]
    pub fn busy_remotes(&self, me: CoreId) -> Vec<CoreId> {
        (0..self.cores.len())
            .filter(|i| *i != me.index() && self.cores[*i].busy)
            .map(|i| CoreId(i as u16))
            .collect()
    }

    /// Cache cost of consulting the bit vector from `core`.
    pub fn read_access(&self, k: &mut Kernel, core: CoreId) -> mem::cache::Access {
        k.cache
            .access_tagged(core, self.bitmap_obj, FieldTag::GlobalNode, false)
    }

    fn set_busy(&mut self, k: &mut Kernel, core: CoreId, busy: bool) {
        let c = &mut self.cores[core.index()];
        if c.busy != busy {
            c.busy = busy;
            self.transitions += 1;
            if busy {
                self.bitmap |= 1 << core.index();
            } else {
                self.bitmap &= !(1 << core.index());
            }
            // A status change writes the shared line, invalidating the
            // copies every non-busy core holds.
            k.cache
                .access_tagged(core, self.bitmap_obj, FieldTag::GlobalNode, true);
        }
    }

    /// Records a connection being added to `core`'s queue, which now has
    /// `queue_len` entries (§3.3.1 updates the EWMA on each enqueue).
    pub fn on_enqueue(&mut self, k: &mut Kernel, core: CoreId, queue_len: usize) {
        self.cores[core.index()].ewma.update(queue_len as f64);
        if queue_len as f64 > self.high {
            self.set_busy(k, core, true);
        }
    }

    /// Re-evaluates the non-busy condition for `core` (called on dequeue
    /// and by the work stealer): the EWMA must be below the low watermark.
    pub fn reconsider(&mut self, k: &mut Kernel, core: CoreId, queue_len: usize) {
        let c = &self.cores[core.index()];
        if c.busy && c.ewma.value() < self.low && (queue_len as f64) < self.high {
            self.set_busy(k, core, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::topology::Machine;

    fn setup(max_local: usize) -> (BusyTracker, Kernel) {
        let mut k = Kernel::new(Machine::amd48());
        let t = BusyTracker::new(&mut k, 8, max_local, 0.75, 0.10);
        (t, k)
    }

    #[test]
    fn starts_non_busy() {
        let (t, _k) = setup(64);
        assert_eq!(t.bitmap(), 0);
        assert!(!t.is_busy(CoreId(3)));
        assert!(t.busy_remotes(CoreId(0)).is_empty());
    }

    #[test]
    fn crossing_high_watermark_marks_busy() {
        let (mut t, mut k) = setup(64);
        t.on_enqueue(&mut k, CoreId(2), 49); // > 48 = 0.75 * 64
        assert!(t.is_busy(CoreId(2)));
        assert_eq!(t.bitmap(), 0b100);
        assert_eq!(t.busy_remotes(CoreId(0)), vec![CoreId(2)]);
        // A busy core is not its own remote.
        assert!(t.busy_remotes(CoreId(2)).is_empty());
    }

    #[test]
    fn instantaneous_drop_does_not_clear_busy() {
        let (mut t, mut k) = setup(64);
        // Drive the EWMA high, then observe a single empty-queue moment.
        for _ in 0..200 {
            t.on_enqueue(&mut k, CoreId(1), 50);
        }
        assert!(t.is_busy(CoreId(1)));
        t.reconsider(&mut k, CoreId(1), 0);
        // EWMA is still ~50: stays busy despite the instantaneous 0.
        assert!(t.is_busy(CoreId(1)));
    }

    #[test]
    fn sustained_low_queue_clears_busy() {
        let (mut t, mut k) = setup(64);
        for _ in 0..200 {
            t.on_enqueue(&mut k, CoreId(1), 50);
        }
        assert!(t.is_busy(CoreId(1)));
        // Long quiet period: enqueues with near-empty queue drag the EWMA
        // below the low watermark (6.4).
        for _ in 0..2000 {
            t.on_enqueue(&mut k, CoreId(1), 1);
            t.reconsider(&mut k, CoreId(1), 1);
        }
        assert!(!t.is_busy(CoreId(1)));
    }

    #[test]
    fn hysteresis_counts_transitions() {
        let (mut t, mut k) = setup(64);
        for _ in 0..200 {
            t.on_enqueue(&mut k, CoreId(0), 60);
        }
        for _ in 0..3000 {
            t.on_enqueue(&mut k, CoreId(0), 0);
            t.reconsider(&mut k, CoreId(0), 0);
        }
        assert_eq!(t.transitions, 2); // busy, then non-busy
    }

    #[test]
    fn bitmap_read_is_cheap_when_stable() {
        let (t, mut k) = setup(64);
        let c0 = CoreId(0);
        t.read_access(&mut k, c0);
        // Second read from the same core hits L1.
        let a = t.read_access(&mut k, c0);
        assert_eq!(a.latency, Machine::amd48().lat.l1);
    }
}
