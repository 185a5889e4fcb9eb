//! The quick configuration and the `paper_base` pins, shared by the
//! determinism, cache-line, feature-matrix and scenario tests.

// Each test binary compiles its own copy and uses a different part.
#![allow(dead_code)]

use affinity_accept_repro::prelude::*;
use metrics::KernelEntry;
use sim::time::ms;

/// The quick apache config: 200 ms warmup, 200 ms measured, 200 tracked
/// files on the AMD machine.
pub fn quick(listen: ListenKind, cores: usize, rate: f64) -> RunConfig {
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

/// The `paper_base` point (`scenarios/paper_base.json`): the quick config
/// on 8 cores at 6,000 conns/s.
pub fn paper_base(listen: ListenKind) -> RunConfig {
    quick(listen, 8, 6_000.0)
}

/// What a `paper_base` run costs, in counts that do not depend on the
/// host. Identical in debug, release and `fast` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Events the run loop dispatched.
    pub events: u64,
    /// Timer-wheel entries moved out of a level-1+ slot by cascades.
    pub cascaded: u64,
    /// Kernel-entry invocations charged to `PerfCounters`.
    pub kernel_calls: u64,
    /// L2 misses charged to `PerfCounters`.
    pub l2_misses: u64,
    /// Heap allocations of a warm run: the second run on one thread, so
    /// the event-queue pool and one-time set-up are already paid for.
    pub allocs: u64,
    /// The warm run's high-water mark of live requested heap bytes, above
    /// what its thread held before it: the run's host memory, without
    /// allocator overhead.
    pub peak_heap: u64,
}

impl Work {
    pub fn of(r: &RunResult, allocs: u64, peak_heap: u64) -> Self {
        Self {
            events: r.events_executed,
            cascaded: r.cascaded,
            kernel_calls: KernelEntry::ALL
                .iter()
                .map(|&e| r.perf.entry(e).calls)
                .sum(),
            l2_misses: r.perf.total_l2_misses(),
            allocs,
            peak_heap,
        }
    }
}

/// What the dprof-v2 ledger records on a `paper_base` run (instrumented
/// builds only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub touches: u64,
    pub fills: u64,
    pub wasted_bytes: u64,
}

impl Ledger {
    pub fn of(r: &RunResult) -> Self {
        let t = r.cacheline.totals();
        Self {
            touches: t.touches,
            fills: t.fills,
            wasted_bytes: t.bytes_wasted,
        }
    }
}

/// DProf's raw Table 4 inputs for one data type on a run, zero for a
/// type it never saw: `[instances, shared_lines, shared_bytes,
/// shared_rw_bytes, cycles_on_shared, latency_samples]`. Every
/// `DProf::table4_row` column and Figure 4's CDF derive from these.
pub fn table4_inputs(r: &RunResult, ty: DataType) -> [u64; 6] {
    r.kernel.cache.dprof.agg(ty).map_or([0; 6], |a| {
        [
            a.instances,
            a.shared_lines,
            a.shared_bytes,
            a.shared_rw_bytes,
            a.cycles_on_shared,
            a.lat_hist.count(),
        ]
    })
}

/// [`table4_inputs`] at `paper_base` for the two kinds Table 4 compares,
/// one row per `DataType::TABLE4` type in its order, exact (instrumented
/// builds only). Fine shares connection lines; Affinity shares almost
/// none. Re-pinning needs a CHANGES.md line that says why.
pub const TABLE4_GOLDEN: [(ListenKind, [[u64; 6]; 11]); 2] = [
    (
        ListenKind::Fine,
        [
            [2435, 43624, 1030240, 723520, 60203788, 891410], // tcp_sock
            [22746, 84939, 1648686, 1648686, 34500711, 240196], // sk_buff
            [2435, 4260, 59640, 31950, 1421121, 19480],       // tcp_request_sock
            [1301, 4800, 62400, 62400, 16118076, 88184],      // slab:size-16384
            [2435, 4260, 25560, 25560, 1845154, 14610],       // slab:size-128
            [15129, 78906, 552342, 552342, 34007354, 211589], // slab:size-1024
            [9708, 42375, 169500, 169500, 18147129, 116496],  // slab:size-4096
            [2435, 0, 0, 0, 174297, 6073],                    // socket_fd
            [1342, 1200, 16800, 16800, 4004128, 40134],       // slab:size-192
            [1342, 9600, 124800, 124800, 34526120, 254032],   // task_struct
            [200, 600, 3000, 3000, 5459832, 29124],           // file
        ],
    ),
    (
        ListenKind::Affinity,
        [
            [2435, 114, 1140, 1140, 6161956, 891727], // tcp_sock
            [22759, 0, 0, 0, 758919, 240298],         // sk_buff
            [2435, 0, 0, 0, 61131, 19480],            // tcp_request_sock
            [1310, 16, 208, 208, 1001816, 87704],     // slab:size-16384
            [2435, 0, 0, 0, 47808, 14610],            // slab:size-128
            [15131, 0, 0, 0, 759702, 211582],         // slab:size-1024
            [9711, 0, 0, 0, 368316, 116532],          // slab:size-4096
            [2435, 0, 0, 0, 174651, 6074],            // socket_fd
            [1345, 4, 56, 56, 461207, 40096],         // slab:size-192
            [1345, 32, 416, 416, 2269456, 253096],    // task_struct
            [200, 600, 3000, 3000, 5524284, 29133],   // file
        ],
    ),
];

/// One listen kind's `paper_base` pins.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub kind: ListenKind,
    pub fingerprint: u64,
    pub served: u64,
    pub work: Work,
    pub ledger: Ledger,
}

/// The `paper_base` pins, exact, with zero tolerance.
///
/// The fingerprints of Stock, Fine and Affinity were captured on the
/// binary-heap scheduler before the timer wheel landed; Twenty and
/// BusyPoll's date from when those kinds became first-class. The wheel and
/// every hot-path change since must reproduce them bit for bit: if one
/// moves, scheduling order changed and every recorded experiment is
/// invalidated. The work and ledger counts fail any change that adds
/// simulated work, queue work or allocations per run, even when the
/// schedule holds.
///
/// `scenarios/paper_base.json` carries the same fingerprints and served
/// counts. Re-pinning any value here needs a CHANGES.md line that says
/// why; a toolchain upgrade alone can move `allocs`.
pub const GOLDEN: [Pin; 5] = [
    Pin {
        kind: ListenKind::Stock,
        fingerprint: 0x6b30_b1fe_5417_a104,
        served: 7262,
        work: Work {
            events: 80_853,
            cascaded: 32_155,
            kernel_calls: 74_359,
            l2_misses: 3_195_229,
            allocs: 26_641,
            peak_heap: 5_557_503,
        },
        ledger: Ledger {
            touches: 2_388_855,
            fills: 862_929,
            wasted_bytes: 31_336_315,
        },
    },
    Pin {
        kind: ListenKind::Fine,
        fingerprint: 0xcac2_e2fd_9038_2a59,
        served: 7262,
        work: Work {
            events: 79_638,
            cascaded: 31_611,
            kernel_calls: 73_969,
            l2_misses: 3_170_716,
            allocs: 26_671,
            peak_heap: 5_561_375,
        },
        ledger: Ledger {
            touches: 2_375_575,
            fills: 842_659,
            wasted_bytes: 30_504_290,
        },
    },
    Pin {
        kind: ListenKind::Affinity,
        fingerprint: 0x5fc6_bb89_978e_e39c,
        served: 7266,
        work: Work {
            events: 79_449,
            cascaded: 30_233,
            kernel_calls: 73_931,
            l2_misses: 2_373_132,
            allocs: 26_571,
            peak_heap: 5_158_135,
        },
        ledger: Ledger {
            touches: 2_379_538,
            fills: 85_968,
            wasted_bytes: 3_331_847,
        },
    },
    Pin {
        kind: ListenKind::Twenty,
        fingerprint: 0x3832_bc3d_ab6a_43a7,
        served: 7271,
        work: Work {
            events: 80_804,
            cascaded: 32_044,
            kernel_calls: 74_372,
            l2_misses: 3_200_675,
            allocs: 26_658,
            peak_heap: 6_699_999,
        },
        ledger: Ledger {
            touches: 2_392_502,
            fills: 869_960,
            wasted_bytes: 31_561_694,
        },
    },
    Pin {
        kind: ListenKind::BusyPoll,
        fingerprint: 0x41dd_b9fb_3487_a26e,
        served: 7271,
        work: Work {
            events: 143_582,
            cascaded: 44_754,
            kernel_calls: 73_962,
            l2_misses: 2_374_095,
            allocs: 26_582,
            peak_heap: 5_158_135,
        },
        ledger: Ledger {
            touches: 2_379_958,
            fills: 85_617,
            wasted_bytes: 3_316_513,
        },
    },
];

/// The pins of one listen kind.
pub fn pin(kind: ListenKind) -> Pin {
    *GOLDEN
        .iter()
        .find(|p| p.kind == kind)
        .expect("every listen kind is pinned")
}
