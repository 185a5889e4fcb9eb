//! The timeline lock model.
//!
//! In a discrete-event simulation a lock is a *resource with a time
//! horizon*: it is free again at `free_at`. A core that reaches a lock at
//! time `now`:
//!
//! * **spinlock mode** — busy-waits until `max(now, free_at)`; the wait is
//!   charged as busy CPU time (this is how Linux's socket lock behaves when
//!   the holder is in softirq context, and where Table 2's 82 µs of spin
//!   wait comes from);
//! * **mutex mode** — goes to sleep and is rescheduled at `free_at`; the
//!   wait is charged as idle time (Table 2 reports up to 320 µs of it).
//!
//! Because the simulation processes work in nondecreasing time order,
//! pushing `free_at` forward at each acquisition yields FIFO queuing and
//! causally consistent waits.

use crate::time::Cycles;
use metrics::lockstat::{LockClass, LockStat};

/// A lock acquisition in progress: when the lock was actually obtained and
/// how long the acquirer spun for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Simulated time at which the lock was obtained.
    pub entry: Cycles,
    /// Cycles spent spinning before `entry`.
    pub spin_wait: Cycles,
}

/// A lock modelled as a timeline resource. See the module docs.
#[derive(Debug, Clone)]
pub struct TimelineLock {
    class: LockClass,
    free_at: Cycles,
}

// Embedded in every established-table bucket, request bucket and
// connection: a class byte and the horizon, two words.
const _: () = assert!(std::mem::size_of::<TimelineLock>() == 16);

impl TimelineLock {
    /// Creates a free lock of the given class.
    #[must_use]
    pub fn new(class: LockClass) -> Self {
        Self { class, free_at: 0 }
    }

    /// The lock's class, for profiling.
    #[must_use]
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Time at which the lock becomes (or became) free.
    #[must_use]
    pub fn free_at(&self) -> Cycles {
        self.free_at
    }

    /// Whether the lock is held at time `now`.
    #[must_use]
    pub fn is_held_at(&self, now: Cycles) -> bool {
        self.free_at > now
    }

    /// Spin-acquires at `now`, busy-waiting until the lock is free.
    pub fn lock_spin(&mut self, now: Cycles) -> Acquired {
        let entry = now.max(self.free_at);
        Acquired {
            entry,
            spin_wait: entry - now,
        }
    }

    /// Attempts to acquire without waiting.
    ///
    /// # Errors
    ///
    /// Returns `Err(free_at)` when the lock is held at `now`; a mutex-mode
    /// caller should sleep until then and retry.
    pub fn try_lock(&mut self, now: Cycles) -> Result<Acquired, Cycles> {
        if self.is_held_at(now) {
            Err(self.free_at)
        } else {
            Ok(Acquired {
                entry: now,
                spin_wait: 0,
            })
        }
    }

    /// Releases after a critical section of `hold` cycles starting at the
    /// acquisition's entry time, recording wait/hold into `lockstat`.
    ///
    /// `slept` is any mutex-mode (idle) wait the caller incurred before the
    /// acquisition, so Table 2 can separate spin wait from idle wait.
    pub fn unlock(&mut self, acq: Acquired, hold: Cycles, slept: Cycles, lockstat: &mut LockStat) {
        let release_at = acq.entry + hold;
        debug_assert!(
            release_at >= self.free_at,
            "lock released earlier than a prior holder"
        );
        self.free_at = release_at;
        lockstat.record(self.class, acq.spin_wait, slept, hold);
    }

    /// Convenience: spin-acquire at `now`, hold for `hold`, release, and
    /// record. Returns `(end_time, spin_wait)` where `end_time` is when the
    /// caller leaves the critical section.
    pub fn run_locked(
        &mut self,
        now: Cycles,
        hold: Cycles,
        lockstat: &mut LockStat,
    ) -> (Cycles, Cycles) {
        let acq = self.lock_spin(now);
        let spin = acq.spin_wait;
        let end = acq.entry + hold;
        self.unlock(acq, hold, 0, lockstat);
        (end, spin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls() -> LockStat {
        LockStat::enabled()
    }

    #[test]
    fn uncontended_acquire_has_no_wait() {
        let mut l = TimelineLock::new(LockClass::ListenSocket);
        let mut s = ls();
        let (end, spin) = l.run_locked(100, 50, &mut s);
        assert_eq!(end, 150);
        assert_eq!(spin, 0);
        assert_eq!(l.free_at(), 150);
    }

    #[test]
    fn contended_acquire_spins_until_free() {
        let mut l = TimelineLock::new(LockClass::ListenSocket);
        let mut s = ls();
        l.run_locked(0, 100, &mut s);
        let (end, spin) = l.run_locked(40, 10, &mut s);
        assert_eq!(spin, 60);
        assert_eq!(end, 110);
        if metrics::lockstat::ENABLED {
            let st = s.class(LockClass::ListenSocket);
            assert_eq!(st.acquisitions, 2);
            assert_eq!(st.contended, 1);
            assert_eq!(st.wait_spin_cycles, 60);
            assert_eq!(st.hold_cycles, 110);
        }
    }

    #[test]
    fn fifo_queueing_accumulates_waits() {
        let mut l = TimelineLock::new(LockClass::AcceptQueue);
        let mut s = ls();
        // Three cores all arrive at t=0 with 100-cycle sections.
        let mut waits = Vec::new();
        for _ in 0..3 {
            let (_, spin) = l.run_locked(0, 100, &mut s);
            waits.push(spin);
        }
        assert_eq!(waits, vec![0, 100, 200]);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let mut l = TimelineLock::new(LockClass::Connection);
        let mut s = ls();
        let acq = l.lock_spin(10);
        l.unlock(acq, 90, 0, &mut s);
        assert_eq!(l.try_lock(50), Err(100));
        assert!(l.try_lock(100).is_ok());
    }

    #[test]
    fn mutex_sleep_recorded_as_idle_wait() {
        let mut l = TimelineLock::new(LockClass::ListenSocket);
        let mut s = ls();
        l.run_locked(0, 1000, &mut s);
        // A mutex-mode caller slept 1000 cycles and then acquired.
        let acq = l.try_lock(1000).expect("free at 1000");
        l.unlock(acq, 10, 1000, &mut s);
        if metrics::lockstat::ENABLED {
            let st = s.class(LockClass::ListenSocket);
            assert_eq!(st.wait_mutex_cycles, 1000);
        }
    }

    #[test]
    fn is_held_at_boundaries() {
        let mut l = TimelineLock::new(LockClass::SlabPool);
        let mut s = ls();
        l.run_locked(5, 10, &mut s);
        assert!(l.is_held_at(14));
        assert!(!l.is_held_at(15));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Critical sections never overlap: replaying any time-ordered
        /// arrival sequence yields disjoint [entry, entry+hold) windows.
        #[test]
        fn critical_sections_disjoint(
            arrivals in proptest::collection::vec((0u64..10_000, 1u64..500), 1..50),
        ) {
            let mut sorted = arrivals.clone();
            sorted.sort();
            let mut l = TimelineLock::new(LockClass::ListenSocket);
            let mut s = LockStat::enabled();
            let mut last_end = 0u64;
            for (now, hold) in sorted {
                let acq = l.lock_spin(now);
                prop_assert!(acq.entry >= last_end);
                let end = acq.entry + hold;
                l.unlock(acq, hold, 0, &mut s);
                last_end = end;
            }
        }
    }
}
