//! Golden determinism tests: identical configs must replay to identical
//! event streams (same fingerprint) and identical counters, and every
//! run must satisfy the conservation audits.

// Fingerprints and audit violations only exist in instrumented builds;
// `tests/feature_matrix.rs` covers the `fast` side of the matrix.
#![cfg(not(feature = "fast"))]

use affinity_accept_repro::prelude::*;
use sim::time::ms;

fn quick(listen: ListenKind, cores: usize, rate: f64) -> RunConfig {
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        cores,
        listen,
        ServerKind::apache(),
        Workload::base(),
        rate,
    );
    cfg.warmup = ms(200);
    cfg.measure = ms(200);
    cfg.tracked_files = 200;
    cfg
}

#[test]
fn identical_configs_produce_identical_fingerprints() {
    for listen in ListenKind::ALL {
        let a = Runner::new(quick(listen, 8, 6_000.0)).run();
        let b = Runner::new(quick(listen, 8, 6_000.0)).run();
        assert_ne!(a.fingerprint, 0, "{listen:?}: fingerprint must be folded");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{listen:?}: replay diverged: {:#018x} vs {:#018x}",
            a.fingerprint, b.fingerprint
        );
        assert_eq!(a.served, b.served, "{listen:?}: served diverged");
        assert_eq!(
            a.drops_overflow, b.drops_overflow,
            "{listen:?}: drops_overflow diverged"
        );
        assert_eq!(a.drops_nic, b.drops_nic, "{listen:?}: drops_nic diverged");
        assert_eq!(
            a.migrations, b.migrations,
            "{listen:?}: migrations diverged"
        );
        assert_eq!(a.timeouts, b.timeouts, "{listen:?}: timeouts diverged");
    }
}

#[test]
fn fingerprints_distinguish_configs_and_seeds() {
    let base = Runner::new(quick(ListenKind::Affinity, 4, 3_000.0)).run();

    let mut reseeded = quick(ListenKind::Affinity, 4, 3_000.0);
    reseeded.seed = base_seed() + 1;
    let other_seed = Runner::new(reseeded).run();
    assert_ne!(
        base.fingerprint, other_seed.fingerprint,
        "different seeds must walk different event streams"
    );

    let other_kind = Runner::new(quick(ListenKind::Fine, 4, 3_000.0)).run();
    assert_ne!(
        base.fingerprint, other_kind.fingerprint,
        "different listen kinds must walk different event streams"
    );
}

fn base_seed() -> u64 {
    quick(ListenKind::Affinity, 4, 3_000.0).seed
}

#[test]
fn conservation_audits_hold_across_kinds_and_loads() {
    // Light load, saturating load, and heavy-overload for each listen
    // kind: the conservation laws must hold everywhere, including when
    // drops and timeouts are nonzero.
    for listen in ListenKind::ALL {
        for (cores, rate) in [(2, 1_000.0), (4, 12_000.0), (2, 80_000.0)] {
            let r = Runner::new(quick(listen, cores, rate)).run();
            let v = r.audit.violations();
            assert!(
                v.is_empty(),
                "{listen:?} cores={cores} rate={rate}: audit violations:\n  {}",
                v.join("\n  ")
            );
        }
    }
}

#[test]
fn audit_counters_are_self_consistent_with_results() {
    let r = Runner::new(quick(ListenKind::Affinity, 4, 5_000.0)).run();
    assert_eq!(r.audit.served, r.served);
    assert_eq!(r.audit.perf_requests, r.perf.requests);
    assert!(r.audit.client.started >= r.audit.client.completed);
    assert!(r.audit.kernel.created >= r.audit.kernel.removed);
}

// ------------------------------------------------------- scheduler goldens

/// Golden fingerprints for the quick 8-core apache configs, captured on the
/// binary-heap scheduler before the timer-wheel event queue landed. The
/// wheel (and every hot-path change since) must reproduce the heap's event
/// stream bit-for-bit; if one of these values ever changes, scheduling
/// order changed and every recorded experiment is invalidated.
/// The Twenty and BusyPoll entries were captured when those kinds became
/// first-class (they are younger than the heap scheduler); they pin the
/// same property from their birth revision onward.
const GOLDEN: [(ListenKind, u64, u64); 5] = [
    (ListenKind::Stock, 0x6b30b1fe5417a104, 7262),
    (ListenKind::Fine, 0xcac2e2fd90382a59, 7262),
    (ListenKind::Affinity, 0x5fc6bb89978ee39c, 7266),
    (ListenKind::Twenty, 0x3832bc3dab6a43a7, 7271),
    (ListenKind::BusyPoll, 0x41ddb9fb3487a26e, 7271),
];

#[test]
fn golden_fingerprints_match_heap_scheduler_seed() {
    for (listen, fp, served) in GOLDEN {
        let r = Runner::new(quick(listen, 8, 6_000.0)).run();
        assert_eq!(
            r.fingerprint, fp,
            "{listen:?}: fingerprint {:#018x} != golden {fp:#018x} — \
             the event schedule changed",
            r.fingerprint
        );
        assert_eq!(r.served, served, "{listen:?}: served diverged from golden");
        assert_eq!(
            r.timeouts, 0,
            "{listen:?}: goldens were captured timeout-free"
        );
    }
}
