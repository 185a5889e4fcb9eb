//! Cross-crate invariant tests: conservation laws that must hold for any
//! configuration, checked over full simulated runs and with property
//! tests over the building blocks.

use affinity_accept_repro::prelude::*;
use proptest::prelude::*;
use sim::time::ms;
use sim::topology::CoreId;

fn run(listen: ListenKind, cores: usize, rate: f64, seed: u64) -> RunResult {
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        cores,
        listen,
        ServerKind::apache(),
        Workload::base(),
        rate,
    );
    cfg.warmup = ms(150);
    cfg.measure = ms(150);
    cfg.seed = seed;
    cfg.tracked_files = 50;
    cfg.let_run()
}

trait RunExt {
    fn let_run(self) -> RunResult;
}
impl RunExt for RunConfig {
    fn let_run(self) -> RunResult {
        Runner::new(self).run()
    }
}

#[test]
fn accounting_is_consistent() {
    for listen in [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity] {
        let r = run(listen, 4, 2_500.0, 3);
        // Perf request counter mirrors served.
        assert_eq!(r.perf.requests, r.served, "{}", listen.label());
        // Fractions are fractions.
        assert!((0.0..=1.0).contains(&r.idle_frac));
        assert!((0.0..=1.0).contains(&r.affinity_frac));
        assert!((0.0..=1.0).contains(&r.wire_util));
        // Accepts account for every enqueued connection that left a queue.
        let s = r.listen_stats;
        assert!(
            s.accepts_local + s.accepts_stolen <= s.enqueued + 1_000,
            "accepts {} > enqueued {}",
            s.accepts_local + s.accepts_stolen,
            s.enqueued
        );
    }
}

#[test]
fn served_requests_bounded_by_offered() {
    let r = run(ListenKind::Affinity, 4, 2_000.0, 7);
    // 2000 conn/s * 6 req * 0.15s window, with generous slack for
    // connections started during warmup finishing inside the window.
    assert!(r.served <= 4_000, "served {}", r.served);
    assert!(r.served >= 1_000, "served {}", r.served);
}

#[test]
fn kernel_objects_do_not_leak_across_connection_lifecycle() {
    // With a short run and everything closed, live connections should be
    // bounded by the in-flight population, not grow with total conns.
    let r = run(ListenKind::Affinity, 2, 1_500.0, 5);
    let live = r.kernel.live_conns();
    // In-flight population ≈ rate × lifetime (~0.25s) ≈ 375.
    assert!(live < 900, "live connections {live}");
    assert!(r.kernel.est.len() <= live, "est table consistent");
    assert!(r.kernel.reqs.len() < 200, "request table drains");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any (cores, rate, seed) combination conserves connections: nothing
    /// is served twice, nothing vanishes while unaccounted.
    #[test]
    fn conservation_over_random_configs(
        cores in 1usize..6,
        rate in 500f64..4_000.0,
        seed in 1u64..1_000,
        listen_pick in 0usize..3,
    ) {
        let listen = [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity][listen_pick];
        let r = run(listen, cores, rate, seed);
        let s = r.listen_stats;
        prop_assert!(s.accepts_local + s.accepts_stolen <= s.enqueued + 2_000);
        prop_assert!(r.served as f64 <= rate * 6.0 * 0.15 * 2.5 + 500.0);
        prop_assert!(r.timeouts == 0, "no timeouts in a short unsaturated run");
    }

    /// No listen-socket implementation ever holds more than `max_backlog`
    /// pending connections in total, however handshakes, their completing
    /// ACKs and accepts interleave.
    #[test]
    fn backlog_cap_holds_across_kinds(
        cores in 1usize..6,
        max_backlog in 4usize..40,
        seed in 1u64..10_000,
    ) {
        for kind in [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity] {
            let mut k = Kernel::new(Machine::amd48());
            let mut lcfg = ListenConfig::paper(cores);
            lcfg.max_backlog = max_backlog;
            let mut sock: Box<dyn ListenSocket> = match kind {
                ListenKind::Stock => Box::new(StockAccept::new(&mut k, lcfg)),
                ListenKind::Fine => Box::new(FineAccept::new(&mut k, lcfg)),
                _ => Box::new(AffinityAccept::new(&mut k, lcfg)),
            };
            let mut rng = SimRng::new(seed);
            let mut pending: Vec<FlowTuple> = Vec::new();
            let mut port = 1u16;
            let mut now = 0;
            for _ in 0..300 {
                now += 100;
                let core = CoreId(rng.below(cores as u64) as u16);
                match rng.below(5) {
                    0 | 1 => {
                        // SYN, later completed by its ACK (half of them
                        // immediately, so queues actually fill).
                        let t = FlowTuple::client(1, port, 80);
                        port = port.wrapping_add(1);
                        sock.on_syn(&mut k, core, now, t);
                        if rng.chance(0.5) {
                            let _ = sock.on_ack(&mut k, core, now + 10, t);
                        } else {
                            pending.push(t);
                        }
                    }
                    2 | 3 if !pending.is_empty() => {
                        let t = pending.swap_remove(rng.index(pending.len()));
                        let _ = sock.on_ack(&mut k, core, now, t);
                    }
                    _ => {
                        let _ = sock.try_accept(&mut k, core, now);
                    }
                }
                let total = sock.total_queued();
                prop_assert!(
                    total <= max_backlog,
                    "{:?} holds {} pending > max_backlog {}",
                    kind, total, max_backlog
                );
            }
        }
    }
}
