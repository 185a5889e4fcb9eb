//! §6.5, first experiment: client-perceived connection latency when half
//! the cores suddenly lose capacity to a parallel `make`, with and
//! without the connection load balancer.
//!
//! The web server is offered ~50 % of machine capacity; a kernel-compile
//! batch job occupies the upper 24 cores. Expected shape: without
//! stealing, connections landing on make cores time out (median latency
//! jumps to the client timeout); with the load balancer the median
//! returns to ~230 ms (the two 100 ms think times plus service under
//! full utilization of the remaining cores).
//!
//! The client timeout is scaled from the paper's 10 s to 2.5 s to keep
//! the simulation window tractable; the effect (median = timeout without
//! balancing) is unchanged.

use app::{ListenKind, RunConfig, Runner, ServerKind, Workload};
use metrics::table::Table;
use sim::time::{ms, secs, to_ms};
use sim::topology::Machine;

fn config(hog: bool, stealing: bool, migration: bool) -> RunConfig {
    let mut wl = Workload::base();
    wl.timeout = ms(2_500);
    // ~50% of the measured Affinity capacity at 48 cores.
    let rate = 0.5 * 10_300.0 * 48.0 / 6.0;
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        48,
        ListenKind::Affinity,
        ServerKind::lighttpd(),
        wl,
        rate,
    );
    cfg.app_cycles = cfg.server.app_cycles();
    cfg.warmup = ms(800);
    cfg.measure = secs(3);
    cfg.hog_work = hog.then_some(secs(40)); // still running at window end
    cfg.steal_enabled = stealing;
    cfg.migrate_enabled = migration;
    cfg
}

fn main() {
    bench::header(
        "lb_latency",
        "connection latency under a background make on half the cores (§6.5)",
    );
    let cases = [
        ("web server alone", config(false, true, true)),
        ("make, no balancer", config(true, false, false)),
        ("make, stealing only", config(true, true, false)),
        ("make, full balancer", config(true, true, true)),
    ];
    let mut t = Table::new(&[
        "configuration",
        "median (ms)",
        "90th pct (ms)",
        "timeouts",
        "completed",
        "stolen",
        "migrations",
    ]);
    for (name, cfg) in cases {
        let r = bench::audited(&cfg, Runner::new(cfg.clone()).run());
        t.row_owned(vec![
            name.into(),
            format!("{:.0}", to_ms(r.latency.median())),
            format!("{:.0}", to_ms(r.latency.percentile(90.0))),
            r.timeouts.to_string(),
            r.conns_completed.to_string(),
            r.listen_stats.accepts_stolen.to_string(),
            r.migrations.to_string(),
        ]);
        eprintln!("# lb_latency: {name} done");
    }
    print!("{}", t.render());
    println!("\npaper (§6.5): alone 200ms median/90th; make without balancer");
    println!("  10s median+90th (timeouts); with balancer 230ms median, 480ms 90th");
}
