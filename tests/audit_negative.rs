//! Negative tests for the conservation audits: take one real, clean run,
//! corrupt each audited counter in turn, and assert the audit catches it
//! with the right violation. A law that cannot fail is not a law — these
//! tests keep [`app::RunAudit::violations`] honest as counters are added.

// Fingerprints and audit violations only exist in instrumented builds;
// `tests/feature_matrix.rs` covers the `fast` side of the matrix.
#![cfg(not(feature = "fast"))]

use std::sync::OnceLock;

use affinity_accept_repro::prelude::*;
use app::RunAudit;
use sim::time::ms;

/// One clean audit from a real run, shared across tests (runs are the
/// expensive part; corruption is cheap).
fn clean_audit() -> &'static RunAudit {
    static AUDIT: OnceLock<RunAudit> = OnceLock::new();
    AUDIT.get_or_init(|| {
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            4,
            ListenKind::Affinity,
            ServerKind::apache(),
            Workload::base(),
            8_000.0,
        );
        cfg.warmup = ms(150);
        cfg.measure = ms(150);
        cfg.tracked_files = 200;
        let r = Runner::new(cfg).run();
        assert!(
            r.audit.is_ok(),
            "baseline run dirty: {:?}",
            r.audit.violations()
        );
        // The corruptions below perturb counters by +1; a degenerate
        // all-zero audit would let some laws hold by accident.
        assert!(r.audit.client.started > 0 && r.audit.packets.offered > 0);
        r.audit
    })
}

/// One clean audit from a dprof-v2-instrumented run (same point as
/// [`clean_audit`] with the ledger recording): the cacheline teeth need
/// real nonzero ledger totals to corrupt.
fn v2_audit() -> &'static RunAudit {
    static AUDIT: OnceLock<RunAudit> = OnceLock::new();
    AUDIT.get_or_init(|| {
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            4,
            ListenKind::Affinity,
            ServerKind::apache(),
            Workload::base(),
            8_000.0,
        );
        cfg.warmup = ms(150);
        cfg.measure = ms(150);
        cfg.tracked_files = 200;
        cfg.dprof_v2 = true;
        let r = Runner::new(cfg).run();
        assert!(
            r.audit.is_ok(),
            "v2 baseline run dirty: {:?}",
            r.audit.violations()
        );
        assert!(
            r.audit.cacheline_active && r.audit.cacheline.fills > 0,
            "v2 baseline recorded nothing"
        );
        r.audit
    })
}

/// Applies `corrupt` to a clean audit and asserts the audit now fails
/// with a violation mentioning `expect`.
fn assert_caught(corrupt: impl FnOnce(&mut RunAudit), expect: &str) {
    let mut a = clean_audit().clone();
    corrupt(&mut a);
    let v = a.violations();
    assert!(
        v.iter().any(|m| m.contains(expect)),
        "corruption went uncaught: wanted a violation containing {expect:?}, got {v:?}"
    );
}

/// [`assert_caught`] against the dprof-v2-instrumented baseline.
fn assert_caught_v2(corrupt: impl FnOnce(&mut RunAudit), expect: &str) {
    let mut a = v2_audit().clone();
    corrupt(&mut a);
    let v = a.violations();
    assert!(
        v.iter().any(|m| m.contains(expect)),
        "corruption went uncaught: wanted a violation containing {expect:?}, got {v:?}"
    );
}

#[test]
fn client_counters_are_audited() {
    assert_caught(|a| a.client.started += 1, "client conservation");
    assert_caught(|a| a.client.completed += 1, "client conservation");
    assert_caught(|a| a.client.timed_out += 1, "client conservation");
    assert_caught(|a| a.client.live += 1, "client conservation");
}

#[test]
fn listen_counters_are_audited() {
    assert_caught(|a| a.listen.enqueued += 1, "listen conservation");
    assert_caught(|a| a.listen.accepts_local += 1, "listen conservation");
    assert_caught(|a| a.listen.accepts_stolen += 1, "listen conservation");
    assert_caught(|a| a.listen.queued_residual += 1, "listen conservation");
    assert_caught(|a| a.listen.runner_accepts += 1, "accept accounting");
}

#[test]
fn kernel_counters_are_audited() {
    assert_caught(|a| a.kernel.created += 1, "kernel conn conservation");
    assert_caught(|a| a.kernel.removed += 1, "kernel conn conservation");
    assert_caught(
        |a| a.kernel.live = a.kernel.est_len.wrapping_sub(1),
        "kernel",
    );
    assert_caught(|a| a.kernel.est_len = a.kernel.live + 1, "est table");
    // created is also cross-checked against the listen socket's enqueues,
    // so bumping both sides of the kernel law still trips a wire.
    assert_caught(
        |a| {
            a.kernel.created += 1;
            a.kernel.live += 1;
        },
        "handshake accounting",
    );
}

#[test]
fn packet_counters_are_audited() {
    assert_caught(|a| a.packets.offered += 1, "NIC RX conservation");
    assert_caught(|a| a.packets.drops_ring_full += 1, "NIC RX conservation");
    assert_caught(|a| a.packets.drops_flush += 1, "NIC RX conservation");
    assert_caught(|a| a.packets.residual += 1, "ring conservation");
    assert_caught(|a| a.packets.dispatched += 1, "softirq accounting");
    // enqueued feeds both the NIC-RX and the ring law.
    assert_caught(|a| a.packets.enqueued += 1, "NIC RX conservation");
    assert_caught(|a| a.packets.enqueued += 1, "ring conservation");
    // dequeued feeds both the ring and the softirq law.
    assert_caught(|a| a.packets.dequeued += 1, "ring conservation");
    assert_caught(|a| a.packets.dequeued += 1, "softirq accounting");
}

#[test]
fn per_ring_counters_are_audited() {
    assert!(!clean_audit().packets.rings.is_empty(), "no rings audited");
    assert_caught(|a| a.packets.rings[0].enqueued += 1, "ring 0 conservation");
    assert_caught(|a| a.packets.rings[0].dequeued += 1, "ring 0 conservation");
    assert_caught(|a| a.packets.rings[0].residual += 1, "ring 0 conservation");
    let last = clean_audit().packets.rings.len() - 1;
    assert_caught(
        move |a| a.packets.rings[last].enqueued += 1,
        &format!("ring {last} conservation"),
    );
}

#[test]
fn cycle_counters_are_audited() {
    assert_caught(
        |a| a.cycles.busy_window = a.cycles.cores * a.cycles.window + 1,
        "exceeds capacity",
    );
    assert_caught(
        |a| a.cycles.busy_max_core = a.cycles.span + app::audit::BUSY_OVERHANG_ALLOWANCE + 1,
        "overhang allowance",
    );
    // Shrinking the claimed window capacity must also trip the law.
    assert_caught(|a| a.cycles.window = 0, "exceeds capacity");
}

#[test]
fn request_counters_are_audited() {
    assert_caught(|a| a.served += 1, "request accounting");
    assert_caught(|a| a.perf_requests += 1, "request accounting");
}

#[test]
fn half_open_request_counters_are_audited() {
    // A request created and then lost (neither established, dropped at
    // the accept queue, nor still half-open) breaks the request ledger, as
    // does a phantom half-open request or overflow drop.
    assert_caught(|a| a.reqs_created += 1, "request conservation");
    assert_caught(|a| a.reqs_residual += 1, "request conservation");
    assert_caught(|a| a.listen.dropped_overflow += 1, "request conservation");
}

#[test]
fn cacheline_ledger_is_inert_when_disabled() {
    // The baseline run keeps dprof-v2 off, so every ledger counter bumped
    // on it — all five — must trip the inert-plane law.
    assert!(!clean_audit().cacheline_active);
    assert!(clean_audit().cacheline.is_zero());
    let inert = "cacheline ledger recorded while disabled";
    assert_caught(|a| a.cacheline.fills += 1, inert);
    assert_caught(|a| a.cacheline.bytes_fetched += 1, inert);
    assert_caught(|a| a.cacheline.bytes_touched += 1, inert);
    assert_caught(|a| a.cacheline.bytes_wasted += 1, inert);
    assert_caught(|a| a.cacheline.touches += 1, inert);
    // An enabled ledger that recorded nothing is legal — flipping the
    // flag alone must NOT violate.
    let mut a = clean_audit().clone();
    a.cacheline_active = true;
    assert!(a.is_ok(), "{:?}", a.violations());
}

#[test]
fn cacheline_counters_are_audited() {
    // Byte conservation: touched + wasted == fetched.
    assert_caught_v2(
        |a| a.cacheline.bytes_wasted += 1,
        "cacheline byte conservation",
    );
    assert_caught_v2(
        |a| a.cacheline.bytes_touched += 1,
        "cacheline byte conservation",
    );
    assert_caught_v2(
        |a| a.cacheline.bytes_fetched += 64,
        "cacheline byte conservation",
    );
    // Fill accounting: fetched == 64 * fills. Bumping fetched by a whole
    // line (keeping byte conservation satisfiable) still trips it, as
    // does a phantom fill.
    assert_caught_v2(
        |a| a.cacheline.bytes_fetched += 64,
        "cacheline fill accounting",
    );
    assert_caught_v2(|a| a.cacheline.fills += 1, "cacheline fill accounting");
    // Claiming the ledger was off while its counters are real must trip
    // the inert-plane law.
    assert_caught_v2(
        |a| a.cacheline_active = false,
        "cacheline ledger recorded while disabled",
    );
}
