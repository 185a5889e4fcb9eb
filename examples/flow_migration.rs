//! Flow-group migration (§3.3.2): sustained stealing reprograms the NIC.
//!
//! A full simulated run with a CPU-hogging batch job on half the cores:
//! the connection load balancer first steals connections from the hogged
//! cores, then — every 100 ms — migrates one flow group per stealing core
//! away from its most-raided victim, moving packet processing off the
//! busy cores entirely.
//!
//! ```sh
//! cargo run --release --example flow_migration
//! ```

use affinity_accept_repro::prelude::*;

fn run(migration: bool) -> RunResult {
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        8,
        ListenKind::Affinity,
        ServerKind::lighttpd(),
        Workload::base(),
        6_000.0,
    );
    cfg.warmup = sim::time::ms(300);
    cfg.measure = sim::time::ms(600);
    cfg.hog_work = Some(sim::time::secs(10)); // runs throughout
    cfg.migrate_enabled = migration;
    // Compressed time scale: migrate proportionally faster than the
    // paper's 100 ms so the short demo run reaches the steady state.
    cfg.migrate_interval = sim::time::ms(5);
    cfg.measure = sim::time::ms(900);
    Runner::new(cfg).run()
}

fn main() {
    println!("8 cores; a batch job occupies cores 4-7; web load wants ~60% of the machine\n");
    for migration in [false, true] {
        let r = run(migration);
        println!(
            "migration {}: {:>6.0} req/s/core, {:>5} stolen accepts, {:>3} flow groups migrated, median latency {:.0} ms",
            if migration { "on " } else { "off" },
            r.rps_per_core,
            r.listen_stats.accepts_stolen,
            r.migrations,
            sim::time::to_ms(r.latency.median()),
        );
    }
    println!(
        "\nWith migration enabled the FDir table is reprogrammed so the hogged\n\
         cores stop receiving the web server's packets; stealing becomes\n\
         unnecessary and every connection is local again."
    );
}
