//! The two DProf planes at the `paper_base` point: the dprof-v2 waste
//! ledger and the Table 4 plane must be pure observers (schedule
//! fingerprints never move when they record, in either feature mode), and
//! what each records is pinned exactly.

mod common;

use affinity_accept_repro::prelude::*;
use common::{paper_base, Ledger, GOLDEN};
use metrics::perf::KernelEntry;

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
        // What Figure 2 and Table 3 read off a run that Table 4 and
        // Figure 4 made with DProf on.
        assert_eq!(off.rps.to_bits(), on.rps.to_bits(), "{listen:?}: rps");
        assert_eq!(
            off.idle_frac.to_bits(),
            on.idle_frac.to_bits(),
            "{listen:?}: idle"
        );
        for e in KernelEntry::ALL {
            assert_eq!(off.perf.entry(e), on.perf.entry(e), "{listen:?}: {e:?}");
        }
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

/// DProf's raw Table 4 inputs at `paper_base`, exact, for the two kinds
/// Table 4 compares: per type, instances, shared lines, shared bytes,
/// shared read-write bytes, cycles on the shared-under-Fine fields and
/// their latency samples.
#[cfg(not(feature = "fast"))]
#[test]
fn table4_inputs_match_the_pins() {
    use common::{pin, table4_inputs, TABLE4_GOLDEN};
    for (listen, rows) in TABLE4_GOLDEN {
        let r = Runner::new(quick(listen, true)).run();
        assert_eq!(r.fingerprint, pin(listen).fingerprint, "{listen:?}");
        for (ty, want) in DataType::TABLE4.into_iter().zip(rows) {
            let got = table4_inputs(&r, ty);
            assert_eq!(got, want, "{listen:?} {}: Table 4 inputs moved", ty.label());
            // Teeth: each field alone must break the comparison.
            for i in 0..want.len() {
                let mut bad = want;
                bad[i] += 1;
                assert_ne!(got, bad, "{listen:?} {}: field {i} unchecked", ty.label());
            }
        }
    }
}
