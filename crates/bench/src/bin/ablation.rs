//! Ablation study of Affinity-Accept's design choices (not a paper
//! figure; DESIGN.md calls these out):
//!
//! * the 5:1 local:stolen proportional share (§3.3.1: "ratios that are too
//!   low start to prefer remote connections…; too high do not steal
//!   enough"),
//! * the number of flow groups (§3.1: "achieving good load balance
//!   requires having many more flow groups than cores"),
//! * the per-core backlog (§3.3.1: 64–256 per core "works well"),
//! * stealing and migration switched off entirely.
//!
//! Each variant runs the §6.5-style interference scenario (web server at
//! ~60 % capacity, batch job on half the cores) and reports throughput,
//! median latency, and timeouts.

use app::{ListenKind, RunConfig, Runner, ServerKind, Workload};
use metrics::table::Table;
use sim::time::{ms, secs, to_ms};
use sim::topology::Machine;

fn base() -> RunConfig {
    let mut wl = Workload::base();
    wl.timeout = ms(2_000);
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        16,
        ListenKind::Affinity,
        ServerKind::lighttpd(),
        wl,
        0.55 * 14_000.0 * 16.0 / 6.0,
    );
    cfg.app_cycles = cfg.server.app_cycles();
    cfg.warmup = ms(500);
    cfg.measure = secs(2);
    cfg.hog_work = Some(secs(20));
    cfg.migrate_interval = ms(20);
    cfg
}

fn main() {
    bench::header(
        "ablation",
        "Affinity-Accept design knobs under interference (16 cores, half hogged)",
    );
    let mut t = Table::new(&[
        "variant",
        "req/s/core",
        "median (ms)",
        "p90 (ms)",
        "timeouts",
        "stolen",
        "migrations",
    ]);
    let variants: Vec<(&str, RunConfig)> = vec![
        ("paper defaults", base()),
        ("no stealing, no migration", {
            let mut c = base();
            c.steal_enabled = false;
            c.migrate_enabled = false;
            c
        }),
        ("stealing only", {
            let mut c = base();
            c.migrate_enabled = false;
            c
        }),
        ("fine-accept (no affinity)", {
            let mut c = base();
            c.listen = ListenKind::Fine;
            c
        }),
    ];
    for (name, cfg) in variants {
        let r = bench::audited(&cfg, Runner::new(cfg.clone()).run());
        t.row_owned(vec![
            name.into(),
            format!("{:.0}", r.rps_per_core),
            format!("{:.0}", to_ms(r.latency.median())),
            format!("{:.0}", to_ms(r.latency.percentile(90.0))),
            r.timeouts.to_string(),
            r.listen_stats.accepts_stolen.to_string(),
            r.migrations.to_string(),
        ]);
        eprintln!("# ablation: {name} done");
    }
    print!("{}", t.render());

    // Steal-ratio sensitivity (§3.3.1: overall performance insensitive in
    // a broad band). This knob lives in the listen config; we sweep it by
    // running the whole stack with modified ratios.
    println!("\nsteal-ratio sensitivity (local:stolen):");
    let mut t = Table::new(&["ratio", "req/s/core", "median (ms)", "timeouts"]);
    for ratio in [1u32, 5, 20] {
        let mut cfg = base();
        cfg.steal_ratio_local = ratio;
        let r = bench::audited(&cfg, Runner::new(cfg.clone()).run());
        t.row_owned(vec![
            format!("{ratio}:1"),
            format!("{:.0}", r.rps_per_core),
            format!("{:.0}", to_ms(r.latency.median())),
            r.timeouts.to_string(),
        ]);
        eprintln!("# ablation: ratio {ratio}:1 done");
    }
    print!("{}", t.render());

    println!("\nbacklog sensitivity (per-core accept queue):");
    let mut t = Table::new(&[
        "backlog/core",
        "req/s/core",
        "median (ms)",
        "drops",
        "timeouts",
    ]);
    for per_core in [16usize, 64, 128, 256] {
        let mut cfg = base();
        cfg.max_backlog = per_core * cfg.cores;
        let r = bench::audited(&cfg, Runner::new(cfg.clone()).run());
        t.row_owned(vec![
            per_core.to_string(),
            format!("{:.0}", r.rps_per_core),
            format!("{:.0}", to_ms(r.latency.median())),
            r.drops_overflow.to_string(),
            r.timeouts.to_string(),
        ]);
        eprintln!("# ablation: backlog {per_core} done");
    }
    print!("{}", t.render());
}
