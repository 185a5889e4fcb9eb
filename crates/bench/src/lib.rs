//! The experiment harness.
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index); this library holds what they share: standard run
//! configurations, the parallel sweep executor and CLI scaffolding
//! ([`sweep`]), the declarative scenario catalog ([`scenario`]) the
//! `scenario` driver binary and `tests/scenarios.rs` run, and the fuzzer
//! over scenario values behind `scenario --fuzz` ([`fuzz`]).
//!
//! All binaries print plain-text tables via [`metrics::table`] so their
//! output can be diffed against EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use app::{ListenKind, RunConfig, RunResult, ServerKind, Workload};
use sim::time::ms;
use sim::topology::Machine;

pub mod fuzz;
pub mod lb;
pub mod scenario;
pub mod sweep;

pub use sweep::{
    audited, default_workers, par_map, sweep_saturation, write_artifact, write_file, Args,
};

/// The three listen-socket implementations every figure compares.
pub const IMPLS: [ListenKind; 3] = [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity];

/// Core counts swept on the AMD machine (Figures 2, 3).
#[must_use]
pub fn amd_core_counts() -> Vec<usize> {
    vec![1, 8, 16, 24, 32, 40, 48]
}

/// Core counts swept on the Intel machine (Figures 5, 6).
#[must_use]
pub fn intel_core_counts() -> Vec<usize> {
    vec![1, 16, 32, 48, 64, 80]
}

/// A calibrated initial guess for the saturating connection rate, so the
/// search converges in few runs.
#[must_use]
pub fn rate_guess(listen: ListenKind, server: ServerKind, cores: usize) -> f64 {
    let per_core_rps: f64 = match (listen, server.poll_based()) {
        // Twenty shares stock's single accept lock, so it saturates there.
        (ListenKind::Stock | ListenKind::Twenty, _) => (160_000.0 / cores as f64).min(12_500.0),
        (ListenKind::Fine, false) => 8_700.0,
        (ListenKind::Affinity | ListenKind::BusyPoll, false) => 9_800.0,
        (ListenKind::Fine, true) => 13_500.0,
        (ListenKind::Affinity | ListenKind::BusyPoll, true) => 15_500.0,
    };
    let rps = per_core_rps * cores as f64;
    // Cap near the wire's capacity for large responses.
    rps / 6.0
}

/// A baseline configuration for the given machine/implementation/server.
#[must_use]
pub fn base_config(
    machine: Machine,
    cores: usize,
    listen: ListenKind,
    server: ServerKind,
) -> RunConfig {
    // The initial rate guess scales with cores; the saturation search
    // ramps from here.
    let guess = rate_guess(listen, server, cores);
    let mut cfg = RunConfig::new(machine, cores, listen, server, Workload::base(), guess);
    cfg.warmup = ms(450);
    cfg.measure = ms(300);
    cfg
}

/// Formats a per-core throughput series as the figures print it.
#[must_use]
pub fn throughput_series(name: &str, xs: &[usize], results: &[RunResult]) -> String {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(results)
        .map(|(x, r)| (*x as f64, r.rps_per_core))
        .collect();
    metrics::table::series(name, "cores", "requests/sec/core", &pts)
}

/// Prints a standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("  (Affinity-Accept reproduction; simulated hardware — compare");
    println!("   shapes and ratios with the paper, not absolute numbers)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_and_parallelizes() {
        let cfgs: Vec<RunConfig> = [1usize, 2]
            .iter()
            .map(|c| {
                let mut cfg = base_config(
                    Machine::amd48(),
                    *c,
                    ListenKind::Affinity,
                    ServerKind::apache(),
                );
                cfg.warmup = ms(30);
                cfg.measure = ms(60);
                cfg.conn_rate = 500.0;
                cfg.tracked_files = 50;
                cfg
            })
            .collect();
        let rs = par_map(cfgs, default_workers(), |cfg| app::Runner::new(cfg).run());
        assert_eq!(rs.len(), 2);
        // Both served roughly the same offered load; per-core differs ~2x.
        assert!(rs[0].served > 0 && rs[1].served > 0);
    }

    #[test]
    fn core_count_lists() {
        assert_eq!(amd_core_counts().last(), Some(&48));
        assert_eq!(intel_core_counts().last(), Some(&80));
    }
}
