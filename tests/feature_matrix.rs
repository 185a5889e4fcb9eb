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

use affinity_accept_repro::prelude::*;
use sim::time::ms;

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

/// End states recorded on the instrumented (default-feature) build with
/// the quick 8-core apache config at 6000 conns/sec. The fast build must
/// reproduce every field exactly.
const GOLDEN: [(ListenKind, u64, EndState); 2] = [
    (
        ListenKind::Affinity,
        0x5fc6bb89978ee39c,
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
        0x6b30b1fe5417a104,
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

fn quick(listen: ListenKind) -> RunConfig {
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        8,
        listen,
        ServerKind::apache(),
        Workload::base(),
        6_000.0,
    );
    cfg.warmup = ms(200);
    cfg.measure = ms(200);
    cfg.tracked_files = 200;
    cfg
}

#[test]
fn end_state_is_identical_across_instrumentation_modes() {
    for (listen, _, golden) in GOLDEN {
        let r = Runner::new(quick(listen)).run();
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
    for (listen, fp, _) in GOLDEN {
        let r = Runner::new(quick(listen)).run();
        if sim::fingerprint::ENABLED {
            assert_eq!(
                r.fingerprint, fp,
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

#[test]
fn the_comparison_has_teeth() {
    // Corrupt each golden field in turn and check the comparison notices:
    // a metric accidentally dropped from `EndState` (or an assert reduced
    // to a subset) would silently weaken every test above.
    let (listen, _, golden) = GOLDEN[0];
    let r = Runner::new(quick(listen)).run();
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
}

#[test]
fn end_state_is_seed_sensitive() {
    // The golden constants above pin a real schedule, not a fixed point:
    // a different seed must produce a different end state, or the
    // equivalence tests would pass vacuously.
    let (listen, _, golden) = GOLDEN[0];
    let mut cfg = quick(listen);
    cfg.seed += 1;
    let r = Runner::new(cfg).run();
    assert_ne!(
        EndState::of(&r),
        golden,
        "{listen:?}: reseeded run reproduced the golden end state"
    );
}
