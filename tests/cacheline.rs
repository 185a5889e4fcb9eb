//! dprof-v2 satellite tests: the per-cacheline ledger and the original
//! DProf plane must be pure observers (schedule fingerprints never move
//! when they record, in either feature mode), and the ledger's independent
//! sharing columns must agree with the DProf Table-4 plane.

mod common;

use affinity_accept_repro::prelude::*;
use common::{paper_base, Ledger, GOLDEN};

/// The `paper_base` point with both DProf planes (`dprof` and the
/// `dprof_v2` ledger) on or off.
fn quick(listen: ListenKind, dprof: bool) -> RunConfig {
    let mut cfg = paper_base(listen);
    cfg.dprof = dprof;
    cfg.dprof_v2 = dprof;
    cfg
}

/// Toggling DProf and the ledger never moves the schedule — in
/// instrumented builds the goldens pin the exact fingerprints and what the
/// ledger records; under `fast` both runs read zero and the equality still
/// must hold (the knobs are no-ops there).
#[test]
fn ledger_never_moves_the_schedule() {
    for pin in GOLDEN {
        let listen = pin.kind;
        let off = Runner::new(quick(listen, false)).run();
        let on = Runner::new(quick(listen, true)).run();
        assert_eq!(
            off.fingerprint, on.fingerprint,
            "{listen:?}: dprof or dprof-v2 moved the schedule"
        );
        assert_eq!(off.served, on.served, "{listen:?}: served diverged");
        if cfg!(feature = "fast") {
            assert!(
                !on.cacheline.enabled,
                "{listen:?}: fast must compile the ledger out"
            );
            assert!(on.cacheline.totals().is_zero());
        } else {
            assert_eq!(
                on.fingerprint, pin.fingerprint,
                "{listen:?}: ledger-on fingerprint {:#018x} != golden {:#018x}",
                on.fingerprint, pin.fingerprint
            );
            assert_eq!(on.served, pin.served, "{listen:?}: served != golden");
            assert!(on.cacheline.enabled, "{listen:?}: ledger did not record");
            let ledger = Ledger::of(&on);
            assert_eq!(ledger, pin.ledger, "{listen:?}: the ledger's counts moved");
            // Teeth: each field alone must break the comparison.
            let g = pin.ledger;
            for bad in [
                Ledger {
                    touches: g.touches + 1,
                    ..g
                },
                Ledger {
                    fills: g.fills + 1,
                    ..g
                },
                Ledger {
                    wasted_bytes: g.wasted_bytes + 1,
                    ..g
                },
            ] {
                assert_ne!(
                    ledger, bad,
                    "{listen:?}: a corrupted ledger pin went undetected"
                );
            }
            assert!(
                !off.cacheline.enabled && off.cacheline.totals().is_zero(),
                "{listen:?}: disabled run must carry an empty report"
            );
        }
    }
}

/// Cross-validation of the ledger's independent sharing columns against
/// the original DProf plane (Table 4): both measure cross-core sharing
/// per object, by different bookkeeping — v1 folds per-field reader and
/// writer masks at incarnation end, v2 folds per-line toucher masks. On
/// the connection-path types they must tell the same story at the
/// paper_base Fine point.
#[cfg(not(feature = "fast"))]
#[test]
fn ledger_sharing_columns_agree_with_table4() {
    let r = Runner::new(quick(ListenKind::Fine, true)).run();
    for ty in [
        DataType::TcpSock,
        DataType::SkBuff,
        DataType::TcpRequestSock,
    ] {
        let row = r.kernel.cache.dprof.table4_row(ty, r.served);
        let agg = *r.cacheline.agg(ty).expect("ledger recorded the type");
        let inst = agg.instances.max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let v2_lines = 100.0 * agg.shared_lines as f64 / (inst * ty.lines() as f64);
        #[allow(clippy::cast_precision_loss)]
        let v2_bytes = 100.0 * agg.shared_bytes as f64 / (inst * ty.size() as f64);
        println!(
            "{}: lines v1={:.1}% v2={:.1}%  bytes v1={:.1}% v2={:.1}%",
            ty.label(),
            row.lines_shared_pct,
            v2_lines,
            row.bytes_shared_pct,
            v2_bytes
        );
        // The lines columns count the same thing (lines touched by >= 2
        // cores per incarnation) and agree exactly; the bytes columns
        // differ by construction (v1 sums whole field sizes for shared
        // fields, v2 counts the distinct bytes a non-first core touched)
        // so they get a band. Measured at this point: tcp_sock 25.4% vs
        // 33.8%, sk_buff 14.2% vs 14.2%, tcp_request_sock 19.1% vs 19.1%.
        assert!(
            (v2_lines - row.lines_shared_pct).abs() <= 0.5,
            "{}: shared-lines disagree: v1 {:.1}% vs v2 {v2_lines:.1}%",
            ty.label(),
            row.lines_shared_pct
        );
        assert!(
            (v2_bytes - row.bytes_shared_pct).abs() <= 10.0,
            "{}: shared-bytes disagree: v1 {:.1}% vs v2 {v2_bytes:.1}%",
            ty.label(),
            row.bytes_shared_pct
        );
    }
}
