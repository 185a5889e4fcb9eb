//! Golden determinism tests: identical configs must replay to identical
//! event streams (same fingerprint) and identical counters, and every
//! run must satisfy the conservation audits.

// Fingerprints and audit violations only exist in instrumented builds;
// `tests/feature_matrix.rs` covers the `fast` side of the matrix.
#![cfg(not(feature = "fast"))]

mod common;

use affinity_accept_repro::prelude::*;
use common::{paper_base, quick, GOLDEN};

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

/// The fingerprints and served counts of `common::GOLDEN`, whose doc
/// states where they come from and the re-pin rule.
#[test]
fn golden_fingerprints_match_heap_scheduler_seed() {
    for pin in GOLDEN {
        let listen = pin.kind;
        let r = Runner::new(paper_base(listen)).run();
        assert_eq!(
            r.fingerprint, pin.fingerprint,
            "{listen:?}: fingerprint {:#018x} != golden {:#018x} — \
             the event schedule changed",
            r.fingerprint, pin.fingerprint
        );
        assert_eq!(
            r.served, pin.served,
            "{listen:?}: served diverged from golden"
        );
        assert_eq!(
            r.timeouts, 0,
            "{listen:?}: goldens were captured timeout-free"
        );
    }
}
