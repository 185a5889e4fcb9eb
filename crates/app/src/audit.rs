//! End-of-run conservation audits.
//!
//! A [`RunAudit`] is assembled by the runner when a run finishes and is
//! carried in [`crate::RunResult`]. It captures the counters on both
//! sides of every conservation law the simulation must obey, and
//! [`RunAudit::violations`] re-checks the laws, returning one message per
//! broken equality:
//!
//! * **client lifecycle** — every connection the client fleet ever opened
//!   either completed, timed out, or is still live;
//! * **listen socket** — every connection enqueued on an accept queue was
//!   accepted (locally or stolen) or is still queued; overflow drops are
//!   counted separately and never enqueue;
//! * **kernel connections** — every `tcp_sock` ever created was removed
//!   or is still in the connection table, and the established-table size
//!   never exceeds the live population;
//! * **packets** — every packet offered to the NIC was enqueued on
//!   exactly one RX ring or dropped (ring-full / FDir flush); every
//!   enqueued packet was dispatched by a softirq or still sits in its
//!   ring — checked per ring and in aggregate;
//! * **cycles** — window busy time never exceeds `cores × span` of the
//!   time the run actually covered (plus a bounded in-flight overhang),
//!   so busy + idle accounting sums to the window capacity;
//! * **half-open requests** — every request socket ever created either
//!   established a connection, was dropped at a full accept queue, or is
//!   still half-open;
//! * **bookkeeping** — the perf-counter request count mirrors `served`.
//!
//! The audits are cheap (a handful of integer reads at end of run) and
//! always on; `scenario --fuzz` and the `paper` driver (through
//! `bench::audited`) fail loudly when any law breaks.

use mem::LineAgg;
use sim::time::{ms, Cycles};

/// Window busy time may legitimately overrun the measurement span by
/// work that was scheduled before the window closed and completes after
/// it: at most one task batch plus the run-ahead horizon per core. This
/// bounds that overhang; exceeding it means cycles were double-charged.
pub const BUSY_OVERHANG_ALLOWANCE: Cycles = ms(25);

/// Client-fleet connection lifecycle over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientAudit {
    /// Connections ever opened.
    pub started: u64,
    /// Connections that completed normally.
    pub completed: u64,
    /// Connections abandoned at the client timeout.
    pub timed_out: u64,
    /// Connections still live when the run ended.
    pub live: u64,
}

/// Listen-socket accept-queue conservation over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenAudit {
    /// Connections enqueued onto an accept queue.
    pub enqueued: u64,
    /// Accepts served from the caller's own queue.
    pub accepts_local: u64,
    /// Accepts served from another core's queue.
    pub accepts_stolen: u64,
    /// Handshakes dropped on queue overflow (never enqueued).
    pub dropped_overflow: u64,
    /// Connections still sitting in accept queues at end of run.
    pub queued_residual: u64,
    /// Accepted outcomes the runner observed (must equal local + stolen).
    pub runner_accepts: u64,
}

/// Kernel connection-table conservation over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelAudit {
    /// `tcp_sock`s ever created (handshakes completed).
    pub created: u64,
    /// `tcp_sock`s ever removed (connections fully closed).
    pub removed: u64,
    /// Connections still in the table at end of run.
    pub live: u64,
    /// Established-hash-table entries at end of run.
    pub est_len: u64,
}

/// Packet conservation for one RX ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingAudit {
    /// Packets DMAed into the ring.
    pub enqueued: u64,
    /// Packets drained by the softirq side.
    pub dequeued: u64,
    /// Packets still queued at end of run.
    pub residual: u64,
    /// Packets dropped because this ring was full.
    pub dropped: u64,
}

/// NIC-level packet conservation over the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketAudit {
    /// Packets offered to the NIC RX path.
    pub offered: u64,
    /// Packets enqueued across all rings.
    pub enqueued: u64,
    /// Packets dequeued across all rings.
    pub dequeued: u64,
    /// Packets still queued across all rings.
    pub residual: u64,
    /// Packets dropped on a full ring.
    pub drops_ring_full: u64,
    /// Packets dropped during an FDir flush stall.
    pub drops_flush: u64,
    /// Packets the softirq path dispatched into the kernel.
    pub dispatched: u64,
    /// Per-ring breakdown.
    pub rings: Vec<RingAudit>,
}

/// Busy/idle cycle accounting over the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAudit {
    /// Active cores.
    pub cores: u64,
    /// Measurement window length (cycles).
    pub window: u64,
    /// Simulated time from window start to when the run actually ended
    /// (≥ `window`; hog-job runs continue past the window).
    pub span: u64,
    /// Per-core busy cycles since window start, clamped to the window and
    /// summed (what the idle fraction is computed from).
    pub busy_window: u64,
    /// Unclamped per-core busy cycles since window start, summed.
    pub busy_total: u64,
    /// Largest single-core unclamped busy time since window start.
    pub busy_max_core: u64,
}

/// The full end-of-run audit carried in [`crate::RunResult`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunAudit {
    /// Client lifecycle conservation.
    pub client: ClientAudit,
    /// Accept-queue conservation.
    pub listen: ListenAudit,
    /// Kernel connection-table conservation.
    pub kernel: KernelAudit,
    /// Packet conservation.
    pub packets: PacketAudit,
    /// Cycle accounting.
    pub cycles: CycleAudit,
    /// Requests served in the window (runner's counter).
    pub served: u64,
    /// Requests the perf subsystem counted (must equal `served`).
    pub perf_requests: u64,
    /// Events still pending when the run ended (informational).
    pub events_pending: u64,
    /// Request-table entries ever created (half-open handshakes).
    pub reqs_created: u64,
    /// Request-table entries still half-open at end of run.
    pub reqs_residual: u64,
    /// dprof-v2 cacheline-ledger totals (every counter zero when the
    /// ledger is off); the byte-conservation and fill laws below are
    /// re-derived from this.
    pub cacheline: LineAgg,
    /// Whether the run enabled the dprof-v2 ledger; when false, every
    /// cacheline counter must be zero (the plane is inert when disabled).
    pub cacheline_active: bool,
}

impl RunAudit {
    /// Re-checks every conservation law; returns one message per
    /// violation, empty when the run is internally consistent.
    ///
    /// Under the `fast` feature the checks compile to an empty vector:
    /// the counters themselves are still assembled (they double as run
    /// metrics and cost nothing beyond bookkeeping the runner does
    /// anyway), but the audit plane stops re-deriving the conservation
    /// laws. The instrumented build remains the verification oracle.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if cfg!(feature = "fast") {
            return v;
        }
        let mut check = |ok: bool, msg: String| {
            if !ok {
                v.push(msg);
            }
        };

        let c = &self.client;
        check(
            c.started == c.completed + c.timed_out + c.live,
            format!(
                "client conservation: started {} != completed {} + timed_out {} + live {}",
                c.started, c.completed, c.timed_out, c.live
            ),
        );

        let l = &self.listen;
        check(
            l.enqueued == l.accepts_local + l.accepts_stolen + l.queued_residual,
            format!(
                "listen conservation: enqueued {} != accepts_local {} + accepts_stolen {} + queued {}",
                l.enqueued, l.accepts_local, l.accepts_stolen, l.queued_residual
            ),
        );
        check(
            l.runner_accepts == l.accepts_local + l.accepts_stolen,
            format!(
                "accept accounting: runner saw {} accepts, listen socket counted {}",
                l.runner_accepts,
                l.accepts_local + l.accepts_stolen
            ),
        );

        let k = &self.kernel;
        check(
            k.created == k.removed + k.live,
            format!(
                "kernel conn conservation: created {} != removed {} + live {}",
                k.created, k.removed, k.live
            ),
        );
        check(
            k.est_len <= k.live,
            format!(
                "est table larger than live population: {} > {}",
                k.est_len, k.live
            ),
        );
        // Overflow drops happen *before* `ack_establish`, so a dropped
        // handshake never creates a `tcp_sock`; conversely every created
        // sock is enqueued in the same critical section.
        check(
            self.listen.enqueued == k.created,
            format!(
                "handshake accounting: enqueued {} != socks created {}",
                self.listen.enqueued, k.created
            ),
        );

        let p = &self.packets;
        check(
            p.offered == p.enqueued + p.drops_ring_full + p.drops_flush,
            format!(
                "NIC RX conservation: offered {} != enqueued {} + ring_full {} + flush {}",
                p.offered, p.enqueued, p.drops_ring_full, p.drops_flush
            ),
        );
        check(
            p.enqueued == p.dequeued + p.residual,
            format!(
                "ring conservation: enqueued {} != dequeued {} + residual {}",
                p.enqueued, p.dequeued, p.residual
            ),
        );
        check(
            p.dequeued == p.dispatched,
            format!(
                "softirq accounting: dequeued {} != dispatched {}",
                p.dequeued, p.dispatched
            ),
        );
        for (i, r) in p.rings.iter().enumerate() {
            check(
                r.enqueued == r.dequeued + r.residual,
                format!(
                    "ring {i} conservation: enqueued {} != dequeued {} + residual {}",
                    r.enqueued, r.dequeued, r.residual
                ),
            );
        }

        let cy = &self.cycles;
        check(
            cy.busy_window <= cy.cores * cy.window,
            format!(
                "window busy {} exceeds capacity {} ({} cores x {} cycles)",
                cy.busy_window,
                cy.cores * cy.window,
                cy.cores,
                cy.window
            ),
        );
        check(
            cy.busy_max_core <= cy.span + BUSY_OVERHANG_ALLOWANCE,
            format!(
                "core busy time {} exceeds run span {} + overhang allowance {}",
                cy.busy_max_core, cy.span, BUSY_OVERHANG_ALLOWANCE
            ),
        );

        check(
            self.served == self.perf_requests,
            format!(
                "request accounting: served {} != perf.requests {}",
                self.served, self.perf_requests
            ),
        );

        // Every half-open request ever created either established a
        // connection, was dropped at a full accept queue, or is still
        // half-open.
        check(
            self.reqs_created == k.created + l.dropped_overflow + self.reqs_residual,
            format!(
                "request conservation: created {} != socks {} + overflow {} + half_open {}",
                self.reqs_created, k.created, l.dropped_overflow, self.reqs_residual
            ),
        );

        // dprof-v2 cacheline-ledger laws (DESIGN.md §13): the ledger is
        // inert when disabled, every fetched byte is either touched or
        // wasted, and a fill pulls exactly one 64-byte line.
        let cl = &self.cacheline;
        check(
            self.cacheline_active || cl.is_zero(),
            format!("cacheline ledger recorded while disabled: {cl:?}"),
        );
        check(
            cl.bytes_touched + cl.bytes_wasted == cl.bytes_fetched,
            format!(
                "cacheline byte conservation: touched {} + wasted {} != fetched {}",
                cl.bytes_touched, cl.bytes_wasted, cl.bytes_fetched
            ),
        );
        check(
            cl.bytes_fetched == 64 * cl.fills,
            format!(
                "cacheline fill accounting: fetched {} != 64 x fills {}",
                cl.bytes_fetched, cl.fills
            ),
        );
        v
    }

    /// Whether every conservation law holds.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations().is_empty()
    }
}

// Violation reporting only exists in instrumented builds (the audit plane is compiled out under `fast`).
#[cfg(all(test, not(feature = "fast")))]
mod tests {
    use super::*;

    fn consistent() -> RunAudit {
        RunAudit {
            client: ClientAudit {
                started: 10,
                completed: 7,
                timed_out: 1,
                live: 2,
            },
            listen: ListenAudit {
                enqueued: 9,
                accepts_local: 8,
                accepts_stolen: 1,
                dropped_overflow: 1,
                queued_residual: 0,
                runner_accepts: 9,
            },
            kernel: KernelAudit {
                created: 9,
                removed: 7,
                live: 2,
                est_len: 2,
            },
            packets: PacketAudit {
                offered: 100,
                enqueued: 97,
                dequeued: 95,
                residual: 2,
                drops_ring_full: 2,
                drops_flush: 1,
                dispatched: 95,
                rings: vec![RingAudit {
                    enqueued: 97,
                    dequeued: 95,
                    residual: 2,
                    dropped: 2,
                }],
            },
            cycles: CycleAudit {
                cores: 4,
                window: 1_000_000,
                span: 1_000_000,
                busy_window: 3_600_000,
                busy_total: 3_700_000,
                busy_max_core: 1_002_000,
            },
            served: 42,
            perf_requests: 42,
            events_pending: 5,
            // 9 established + 1 overflow-dropped, nothing left half-open.
            reqs_created: 10,
            reqs_residual: 0,
            cacheline: LineAgg::default(),
            cacheline_active: false,
        }
    }

    /// A fixture with the dprof-v2 ledger active and internally
    /// consistent totals (2 fills, both settled).
    fn consistent_v2() -> RunAudit {
        let mut a = consistent();
        a.cacheline_active = true;
        a.cacheline = LineAgg {
            fills: 2,
            bytes_fetched: 128,
            bytes_touched: 48,
            bytes_wasted: 80,
            touches: 7,
        };
        a
    }

    #[test]
    fn consistent_v2_audit_passes() {
        let a = consistent_v2();
        assert!(a.is_ok(), "{:?}", a.violations());
    }

    #[test]
    fn inactive_cacheline_ledger_must_be_silent() {
        let mut a = consistent_v2();
        a.cacheline_active = false;
        assert!(a
            .violations()
            .iter()
            .any(|m| m.contains("cacheline ledger recorded while disabled")));
        // Flipping the flag alone (no counters) is legal: a v2 run that
        // recorded nothing still audits clean.
        let mut a = consistent();
        a.cacheline_active = true;
        assert!(a.is_ok(), "{:?}", a.violations());
    }

    type CorruptCase = (&'static str, fn(&mut LineAgg), &'static str);

    #[test]
    fn each_corrupted_cacheline_counter_is_reported() {
        // Every balanced counter, corrupted one at a time, must trip a law.
        let cases: [CorruptCase; 4] = [
            ("bytes_wasted", |c| c.bytes_wasted += 1, "byte conservation"),
            (
                "bytes_touched",
                |c| c.bytes_touched += 1,
                "byte conservation",
            ),
            ("bytes_fetched", |c| c.bytes_fetched += 1, "cacheline"),
            ("fills", |c| c.fills += 1, "cacheline"),
        ];
        for (name, corrupt, expect) in cases {
            let mut a = consistent_v2();
            corrupt(&mut a.cacheline);
            assert!(
                a.violations().iter().any(|m| m.contains(expect)),
                "corrupting {name} tripped no {expect} law: {:?}",
                a.violations()
            );
        }
    }

    #[test]
    fn consistent_audit_passes() {
        let a = consistent();
        assert!(a.is_ok(), "{:?}", a.violations());
    }

    #[test]
    fn each_broken_law_is_reported() {
        let mut a = consistent();
        a.client.live = 99;
        assert!(a.violations().iter().any(|m| m.contains("client")));

        let mut a = consistent();
        a.listen.accepts_local = 2;
        assert!(!a.is_ok());

        let mut a = consistent();
        a.kernel.removed = 0;
        assert!(a.violations().iter().any(|m| m.contains("kernel")));

        let mut a = consistent();
        a.packets.dispatched = 1;
        assert!(a.violations().iter().any(|m| m.contains("softirq")));

        let mut a = consistent();
        a.packets.rings[0].dequeued = 0;
        assert!(a.violations().iter().any(|m| m.contains("ring 0")));

        let mut a = consistent();
        a.cycles.busy_window = u64::MAX;
        assert!(a.violations().iter().any(|m| m.contains("capacity")));

        let mut a = consistent();
        a.perf_requests = 0;
        assert!(a
            .violations()
            .iter()
            .any(|m| m.contains("request accounting")));

        let mut a = consistent();
        a.reqs_created += 1;
        assert!(a
            .violations()
            .iter()
            .any(|m| m.contains("request conservation")));
    }
}
