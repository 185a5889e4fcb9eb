//! Feature-matrix equivalence: a `--features fast` build must walk the
//! exact same simulated schedule as the instrumented build.
//!
//! The `fast` feature compiles the *collection* planes out (fingerprint
//! folding, lock_stat recording, DProf, audit violation reporting) but
//! must never touch the *semantic* planes (the timeline, lock overhead
//! perturbation, scheduling). The witness: end-state metrics recorded
//! here on the instrumented build are asserted as exact constants, and
//! this test file runs unchanged under both builds — CI executes it with
//! and without `--features fast`, so a fast build that drifts by a single
//! event fails the same assertions the instrumented build passes.
//!
//! Fingerprints are the one deliberate difference: the instrumented build
//! must match the golden hash, the fast build must report exactly 0.
//!
//! The work pins of `common::GOLDEN` hold in both modes too, including
//! the heap allocations of a warm run and its peak of live heap bytes,
//! which this file measures with its own global allocator.

mod common;

use affinity_accept_repro::prelude::*;
use common::{paper_base, pin, Work, GOLDEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations and live requested bytes per thread, so tests
/// running in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(layout: Layout) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    let live = LIVE.with(|l| {
        l.set(l.get().wrapping_add(layout.size() as u64));
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: `alloc`, `alloc_zeroed` and `dealloc` forward their arguments to
// `System`, which upholds the `GlobalAlloc` contract. The counts live in
// const-initialised thread-locals without destructors, so updating them
// never allocates. `realloc` keeps the trait's default (allocate, copy,
// free), so every buffer growth counts as an allocation and the peak
// counts its old and new blocks together.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get().wrapping_sub(layout.size() as u64)));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Runs `listen`'s `paper_base` config twice on a fresh thread and returns
/// the second run's work: its events and kernel counts, the heap
/// allocations it made and its high-water mark of live requested heap
/// bytes above what the thread held when it began, building its config
/// included. The first run fills the thread's event-queue pool (and pays
/// the process's one-time set-up if it is the first), so only the warm
/// run's counts are stable.
fn warm_run(listen: ListenKind) -> (RunResult, Work) {
    std::thread::spawn(move || {
        let _cold = Runner::new(paper_base(listen)).run();
        let allocs = ALLOCS.with(Cell::get);
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        let r = Runner::new(paper_base(listen)).run();
        let work = Work::of(
            &r,
            ALLOCS.with(Cell::get) - allocs,
            PEAK.with(Cell::get) - live,
        );
        (r, work)
    })
    .join()
    .expect("warm run")
}

/// Every integer end-state metric a run produces that must be identical
/// across instrumentation modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EndState {
    served: u64,
    timeouts: u64,
    drops_overflow: u64,
    drops_nic: u64,
    migrations: u64,
    events_executed: u64,
    conns_completed: u64,
    audit_served: u64,
    client_started: u64,
    client_completed: u64,
    kernel_created: u64,
    kernel_removed: u64,
    enqueued: u64,
    accepts_local: u64,
    accepts_stolen: u64,
    flow_migrations: u64,
}

impl EndState {
    fn of(r: &RunResult) -> Self {
        Self {
            served: r.served,
            timeouts: r.timeouts,
            drops_overflow: r.drops_overflow,
            drops_nic: r.drops_nic,
            migrations: r.migrations,
            events_executed: r.events_executed,
            conns_completed: r.conns_completed,
            audit_served: r.audit.served,
            client_started: r.audit.client.started,
            client_completed: r.audit.client.completed,
            kernel_created: r.audit.kernel.created,
            kernel_removed: r.audit.kernel.removed,
            enqueued: r.listen_stats.enqueued,
            accepts_local: r.listen_stats.accepts_local,
            accepts_stolen: r.listen_stats.accepts_stolen,
            flow_migrations: r.listen_stats.flow_migrations,
        }
    }
}

/// End states recorded on the instrumented (default-feature) build at
/// the `paper_base` point. The fast build must reproduce every field
/// exactly.
const END_STATE: [(ListenKind, EndState); 2] = [
    (
        ListenKind::Affinity,
        EndState {
            served: 7266,
            timeouts: 0,
            drops_overflow: 0,
            drops_nic: 0,
            migrations: 0,
            events_executed: 79_449,
            conns_completed: 1205,
            audit_served: 7266,
            client_started: 2435,
            client_completed: 1205,
            kernel_created: 2435,
            kernel_removed: 1204,
            enqueued: 1218,
            accepts_local: 1219,
            accepts_stolen: 0,
            flow_migrations: 0,
        },
    ),
    (
        ListenKind::Stock,
        EndState {
            served: 7262,
            timeouts: 0,
            drops_overflow: 0,
            drops_nic: 0,
            migrations: 0,
            events_executed: 80_853,
            conns_completed: 1202,
            audit_served: 7262,
            client_started: 2435,
            client_completed: 1202,
            kernel_created: 2435,
            kernel_removed: 1202,
            enqueued: 1218,
            accepts_local: 1218,
            accepts_stolen: 0,
            flow_migrations: 0,
        },
    ),
];

#[test]
fn end_state_is_identical_across_instrumentation_modes() {
    for (listen, golden) in END_STATE {
        let r = Runner::new(paper_base(listen)).run();
        assert_eq!(
            EndState::of(&r),
            golden,
            "{listen:?}: this build (fast={}) diverged from the \
             instrumented-build golden end state",
            cfg!(feature = "fast")
        );
    }
}

#[test]
fn fingerprint_matches_the_mode() {
    for (listen, _) in END_STATE {
        let r = Runner::new(paper_base(listen)).run();
        if sim::fingerprint::ENABLED {
            assert_eq!(
                r.fingerprint,
                pin(listen).fingerprint,
                "{listen:?}: instrumented fingerprint diverged"
            );
        } else {
            assert_eq!(
                r.fingerprint, 0,
                "{listen:?}: fast builds must carry no fingerprint"
            );
        }
    }
}

/// The work pins hold in this build, whichever mode it is: the same
/// events, cascades, kernel-entry calls, L2 misses, warm-run heap
/// allocations and peak live heap bytes for every listen kind.
#[test]
fn work_matches_the_pins() {
    for p in GOLDEN {
        let (_, work) = warm_run(p.kind);
        assert_eq!(
            work,
            p.work,
            "{:?}: the work of a paper_base run moved (fast={})",
            p.kind,
            cfg!(feature = "fast")
        );
    }
}

/// A run advanced in slices reproduces the straight run: 20 `run_until`
/// slices over the window, one bound past its end (which must stop at
/// the end), then `run()`. Only simbench slices runs outside this test.
#[test]
fn sliced_runs_match_the_pins() {
    for p in GOLDEN {
        let cfg = paper_base(p.kind);
        let span = cfg.warmup + cfg.measure;
        let mut runner = Runner::new(cfg);
        for i in 1..=20 {
            runner.run_until(span * i / 20);
        }
        runner.run_until(span + sim::time::ms(10));
        let r = runner.run();
        assert_eq!(
            (r.events_executed, r.served),
            (p.work.events, p.served),
            "{:?}: a sliced run diverged from the straight run",
            p.kind
        );
        if sim::fingerprint::ENABLED {
            assert_eq!(
                r.fingerprint, p.fingerprint,
                "{:?}: sliced fingerprint",
                p.kind
            );
        }
    }
}

#[test]
fn the_comparison_has_teeth() {
    // Corrupt each golden field in turn and check the comparison notices:
    // a metric accidentally dropped from `EndState` or `Work` (or an
    // assert reduced to a subset) would silently weaken every test above.
    let (listen, golden) = END_STATE[0];
    let (r, work) = warm_run(listen);
    let actual = EndState::of(&r);
    assert_eq!(actual, golden);
    let corruptions = [
        EndState {
            served: golden.served + 1,
            ..golden
        },
        EndState {
            timeouts: golden.timeouts + 1,
            ..golden
        },
        EndState {
            drops_overflow: golden.drops_overflow + 1,
            ..golden
        },
        EndState {
            drops_nic: golden.drops_nic + 1,
            ..golden
        },
        EndState {
            migrations: golden.migrations + 1,
            ..golden
        },
        EndState {
            events_executed: golden.events_executed + 1,
            ..golden
        },
        EndState {
            conns_completed: golden.conns_completed + 1,
            ..golden
        },
        EndState {
            audit_served: golden.audit_served + 1,
            ..golden
        },
        EndState {
            client_started: golden.client_started + 1,
            ..golden
        },
        EndState {
            client_completed: golden.client_completed + 1,
            ..golden
        },
        EndState {
            kernel_created: golden.kernel_created + 1,
            ..golden
        },
        EndState {
            kernel_removed: golden.kernel_removed + 1,
            ..golden
        },
        EndState {
            enqueued: golden.enqueued + 1,
            ..golden
        },
        EndState {
            accepts_local: golden.accepts_local + 1,
            ..golden
        },
        EndState {
            accepts_stolen: golden.accepts_stolen + 1,
            ..golden
        },
        EndState {
            flow_migrations: golden.flow_migrations + 1,
            ..golden
        },
    ];
    for (i, bad) in corruptions.iter().enumerate() {
        assert_ne!(actual, *bad, "corrupted field #{i} went undetected");
    }

    let golden = pin(listen).work;
    assert_eq!(work, golden);
    let corruptions = [
        Work {
            events: golden.events + 1,
            ..golden
        },
        Work {
            cascaded: golden.cascaded + 1,
            ..golden
        },
        Work {
            kernel_calls: golden.kernel_calls + 1,
            ..golden
        },
        Work {
            l2_misses: golden.l2_misses + 1,
            ..golden
        },
        Work {
            allocs: golden.allocs + 1,
            ..golden
        },
        Work {
            peak_heap: golden.peak_heap + 1,
            ..golden
        },
    ];
    for (i, bad) in corruptions.iter().enumerate() {
        assert_ne!(work, *bad, "corrupted work field #{i} went undetected");
    }
}

#[test]
fn end_state_is_seed_sensitive() {
    // The golden constants above pin a real schedule, not a fixed point:
    // a different seed must produce a different end state, or the
    // equivalence tests would pass vacuously.
    let (listen, golden) = END_STATE[0];
    let mut cfg = paper_base(listen);
    cfg.seed += 1;
    let r = Runner::new(cfg).run();
    assert_ne!(
        EndState::of(&r),
        golden,
        "{listen:?}: reseeded run reproduced the golden end state"
    );
}
