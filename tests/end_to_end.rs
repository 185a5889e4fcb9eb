//! End-to-end integration tests: whole simulated runs across every crate.

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
    cfg.warmup = ms(250);
    cfg.measure = ms(200);
    cfg.tracked_files = 200;
    cfg
}

#[test]
fn implementations_rank_as_in_the_paper() {
    // At 16 cores under saturating load: Affinity > Fine > Stock.
    let sat = |l: ListenKind, rate: f64| {
        let r = Runner::new(quick(l, 16, rate)).run();
        r.rps
    };
    let stock = sat(ListenKind::Stock, 40_000.0);
    let fine = sat(ListenKind::Fine, 30_000.0);
    let affinity = sat(ListenKind::Affinity, 30_000.0);
    assert!(
        affinity > fine,
        "affinity {affinity:.0} must beat fine {fine:.0}"
    );
    assert!(fine > 1.5 * stock, "fine {fine:.0} vs stock {stock:.0}");
}

#[test]
fn affinity_preserves_locality_fine_destroys_it() {
    let aff = Runner::new(quick(ListenKind::Affinity, 8, 6_000.0)).run();
    let fine = Runner::new(quick(ListenKind::Fine, 8, 6_000.0)).run();
    assert!(aff.affinity_frac > 0.95, "affinity {}", aff.affinity_frac);
    assert!(fine.affinity_frac < 0.35, "fine {}", fine.affinity_frac);
}

#[test]
fn fine_pays_more_network_stack_cycles_than_affinity() {
    let aff = Runner::new(quick(ListenKind::Affinity, 16, 30_000.0)).run();
    let fine = Runner::new(quick(ListenKind::Fine, 16, 27_000.0)).run();
    let a = aff.perf.network_stack_cycles_per_request();
    let f = fine.perf.network_stack_cycles_per_request();
    assert!(
        f > 1.15 * a,
        "fine stack {f:.0} should exceed affinity {a:.0} by >15%"
    );
    // Both execute approximately the same number of instructions.
    let ai: f64 = metrics::perf::KernelEntry::ALL
        .iter()
        .map(|e| aff.perf.per_request(*e).1)
        .sum();
    let fi: f64 = metrics::perf::KernelEntry::ALL
        .iter()
        .map(|e| fine.perf.per_request(*e).1)
        .sum();
    assert!(
        (fi - ai).abs() / ai < 0.25,
        "instr fine {fi:.0} vs aff {ai:.0}"
    );
}

#[test]
fn runs_are_deterministic() {
    let a = Runner::new(quick(ListenKind::Affinity, 4, 3_000.0)).run();
    let b = Runner::new(quick(ListenKind::Affinity, 4, 3_000.0)).run();
    assert_eq!(a.served, b.served);
    assert_eq!(a.conns_completed, b.conns_completed);
    assert_eq!(a.drops_overflow, b.drops_overflow);
    assert_eq!(
        a.perf
            .entry(metrics::perf::KernelEntry::SoftirqNetRx)
            .cycles,
        b.perf
            .entry(metrics::perf::KernelEntry::SoftirqNetRx)
            .cycles,
    );
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let mut c1 = quick(ListenKind::Affinity, 4, 3_000.0);
    let mut c2 = quick(ListenKind::Affinity, 4, 3_000.0);
    c1.seed = 11;
    c2.seed = 22;
    let a = Runner::new(c1).run();
    let b = Runner::new(c2).run();
    assert_ne!(a.served, b.served, "different seeds take different paths");
    let rel = (a.rps - b.rps).abs() / a.rps;
    assert!(rel < 0.1, "throughput should agree within 10%: {rel}");
}

#[test]
fn lighttpd_and_apache_both_work_on_both_machines() {
    for machine in [Machine::amd48(), Machine::intel80()] {
        for server in [ServerKind::apache(), ServerKind::lighttpd()] {
            let mut cfg = RunConfig::new(
                machine.clone(),
                4,
                ListenKind::Affinity,
                server,
                Workload::base(),
                2_000.0,
            );
            cfg.app_cycles = server.app_cycles();
            cfg.warmup = ms(200);
            cfg.measure = ms(150);
            cfg.tracked_files = 100;
            let r = Runner::new(cfg).run();
            assert!(
                r.served > 500,
                "{} {} served {}",
                machine.name,
                server.label(),
                r.served
            );
            assert!(r.affinity_frac > 0.9);
        }
    }
}

#[test]
fn overload_degrades_gracefully_with_drops_not_crashes() {
    let r = Runner::new(quick(ListenKind::Affinity, 2, 200_000.0)).run();
    assert!(r.served > 0);
    assert!(r.drops_overflow + r.drops_nic > 0);
    assert!(r.idle_frac < 0.2, "overloaded machine is busy");
}

#[test]
fn twenty_policy_runs_and_updates_fdir_at_high_reuse() {
    let mut cfg = quick(ListenKind::Twenty, 4, 60.0);
    cfg.workload = Workload::with_requests_per_conn(200);
    cfg.warmup = ms(300);
    cfg.measure = ms(300);
    let r = Runner::new(cfg).run();
    assert!(r.served > 1_000, "served {}", r.served);
}
