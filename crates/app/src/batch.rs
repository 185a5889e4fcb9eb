//! The background batch job of §6.5: a parallel `make` of the Linux
//! kernel, restricted to half of the cores with `sched_setaffinity()`.
//!
//! The paper describes the compile as "two parallel phases separated by a
//! multi-second serial process"; during the serial gap the web server's
//! flow groups migrate back onto the make cores, and migrate away again
//! when the second parallel phase starts — the 5-second overhead it
//! measures. The model reproduces that structure: each phase has a work
//! pool (in cycles) that the hogged cores drain in fixed slices; serial
//! phases are drained by a single core.

use sim::time::Cycles;
use sim::topology::CoreId;

/// CPU-slice length the job runs between scheduler boundaries.
pub const SLICE: Cycles = sim::time::ms(1);

/// One phase of the job.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Total CPU work in the phase.
    pub work: Cycles,
    /// Whether all assigned cores may drain it (vs. one).
    pub parallel: bool,
}

/// The batch job.
#[derive(Debug, Clone)]
pub struct BatchJob {
    phases: Vec<Phase>,
    cores: Vec<CoreId>,
    cur: usize,
    remaining: Cycles,
    /// When the job finished, if it has.
    pub finished_at: Option<Cycles>,
    /// When the job started.
    pub started_at: Cycles,
}

impl BatchJob {
    /// A job with explicit phases, confined to `cores`.
    #[must_use]
    pub fn new(phases: Vec<Phase>, cores: Vec<CoreId>, start: Cycles) -> Self {
        assert!(!phases.is_empty() && !cores.is_empty());
        let remaining = phases[0].work;
        Self {
            phases,
            cores,
            cur: 0,
            remaining,
            finished_at: None,
            started_at: start,
        }
    }

    /// The §6.5 kernel-compile shape: two parallel phases around a short
    /// serial one, sized so an undisturbed run on `cores` takes about
    /// `wall_target` — 48 % + 48 % of the wall in the parallel phases and
    /// 4 % in the serial one (the paper's compile spends a few of its 125
    /// seconds in a single-threaded stretch).
    #[must_use]
    pub fn kernel_make(wall_target: Cycles, cores: Vec<CoreId>, start: Cycles) -> Self {
        let n = cores.len() as u64;
        // A job too large for the clock is capped, not wrapped: it never
        // finishes.
        let p = (wall_target.saturating_mul(48) / 100).saturating_mul(n);
        let s = wall_target.saturating_mul(4) / 100;
        Self::new(
            vec![
                Phase {
                    work: p,
                    parallel: true,
                },
                Phase {
                    work: s.max(1),
                    parallel: false,
                },
                Phase {
                    work: p,
                    parallel: true,
                },
            ],
            cores,
            start,
        )
    }

    /// The cores the job is confined to.
    #[must_use]
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Whether `core` can currently pull work (parallel phase: any
    /// assigned core; serial phase: only the first).
    #[must_use]
    pub fn runnable_on(&self, core: CoreId) -> bool {
        if self.finished_at.is_some() {
            return false;
        }
        let assigned = self.cores.contains(&core);
        if !assigned {
            return false;
        }
        self.phases[self.cur].parallel || core == self.cores[0]
    }

    /// Pulls up to [`SLICE`] of work for `core` at time `now`; returns the
    /// slice granted (0 when none). Advances phases as pools drain.
    pub fn pull(&mut self, core: CoreId, now: Cycles) -> Cycles {
        if !self.runnable_on(core) {
            return 0;
        }
        let slice = SLICE.min(self.remaining);
        self.remaining -= slice;
        if self.remaining == 0 {
            self.cur += 1;
            if self.cur >= self.phases.len() {
                self.finished_at = Some(now + slice);
            } else {
                self.remaining = self.phases[self.cur].work;
            }
        }
        slice
    }

    /// Credits `amount` of make progress earned by time-slicing with web
    /// work on `core` (the make threads run in the gaps the scheduler
    /// gives them while the web side executes).
    pub fn credit(&mut self, core: CoreId, amount: Cycles, now: Cycles) {
        if !self.runnable_on(core) || amount == 0 {
            return;
        }
        let take = amount.min(self.remaining);
        self.remaining -= take;
        if self.remaining == 0 {
            self.cur += 1;
            if self.cur >= self.phases.len() {
                self.finished_at = Some(now);
            } else {
                self.remaining = self.phases[self.cur].work;
            }
        }
    }

    /// Whether the job is done.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Runtime so far (or total once finished).
    #[must_use]
    pub fn runtime(&self, now: Cycles) -> Cycles {
        self.finished_at
            .unwrap_or(now)
            .saturating_sub(self.started_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::time::ms;

    fn cores(n: u16) -> Vec<CoreId> {
        (0..n).map(CoreId).collect()
    }

    #[test]
    fn serial_phase_runs_on_first_core_only() {
        let mut j = BatchJob::new(
            vec![Phase {
                work: ms(10),
                parallel: false,
            }],
            cores(4),
            0,
        );
        assert!(j.runnable_on(CoreId(0)));
        assert!(!j.runnable_on(CoreId(1)));
        assert_eq!(j.pull(CoreId(1), 0), 0);
        assert_eq!(j.pull(CoreId(0), 0), SLICE);
    }

    #[test]
    fn unassigned_cores_get_nothing() {
        let mut j = BatchJob::kernel_make(ms(100), cores(2), 0);
        assert!(!j.runnable_on(CoreId(5)));
        assert_eq!(j.pull(CoreId(5), 0), 0);
    }

    #[test]
    fn phases_advance_and_finish() {
        let mut j = BatchJob::new(
            vec![
                Phase {
                    work: ms(2),
                    parallel: true,
                },
                Phase {
                    work: ms(1),
                    parallel: false,
                },
            ],
            cores(2),
            0,
        );
        let mut now = 0;
        let mut pulled = 0;
        while !j.is_finished() {
            for c in 0..2u16 {
                let s = j.pull(CoreId(c), now);
                pulled += s;
            }
            now += SLICE;
            assert!(now < ms(100), "terminates");
        }
        assert_eq!(pulled, ms(3));
    }

    #[test]
    fn ideal_parallel_runtime_scales_with_cores() {
        // Drain a purely parallel job with 1 vs 4 cores.
        let drain = |n: u16| {
            let mut j = BatchJob::new(
                vec![Phase {
                    work: ms(40),
                    parallel: true,
                }],
                cores(n),
                0,
            );
            let mut now = 0;
            while !j.is_finished() {
                for c in 0..n {
                    j.pull(CoreId(c), now);
                }
                now += SLICE;
            }
            j.finished_at.unwrap()
        };
        let t1 = drain(1);
        let t4 = drain(4);
        assert!(t1 >= 3 * t4, "t1 {t1} t4 {t4}");
    }

    #[test]
    fn kernel_make_wall_target_is_honoured_undisturbed() {
        let n = 24u16;
        let mut j = BatchJob::kernel_make(ms(100), cores(n), 0);
        assert_eq!(j.phases.len(), 3);
        assert!(j.phases[0].parallel);
        assert!(!j.phases[1].parallel);
        assert!(j.phases[2].parallel);
        // Drain with all cores continuously available: wall ≈ target.
        let mut now = 0;
        while !j.is_finished() {
            for c in 0..n {
                j.pull(CoreId(c), now);
            }
            now += SLICE;
            assert!(now < ms(300));
        }
        let wall = j.finished_at.unwrap();
        assert!(
            (wall as f64 - ms(100) as f64).abs() / (ms(100) as f64) < 0.1,
            "wall {wall}"
        );
        let huge = BatchJob::kernel_make(u64::MAX, cores(n), 0);
        assert!(huge.phases.iter().all(|p| p.work >= u64::MAX / 100));
    }
}
