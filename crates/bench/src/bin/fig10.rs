//! Figure 10: Figure 7 plus "Twenty-Policy" — stock Linux with hardware
//! per-flow steering, the IXGBE driver's FDir update on every 20th
//! transmitted packet (§7.1).
//!
//! Expected shape: at low connection reuse Twenty-Policy tracks Stock
//! (short flows never reach 20 packets and the lock dominates anyway); at
//! moderate reuse FDir table maintenance (10k-cycle inserts, stall-the-
//! card flushes) holds it below Affinity; only at very high reuse does it
//! approach Affinity-Accept.

use app::{ListenKind, RunConfig, ServerKind, Workload};
use bench::IMPLS;
use metrics::table::Table;
use sim::topology::Machine;

/// Requests-per-connection values swept.
pub const REUSE: [u32; 6] = [1, 6, 20, 100, 500, 1000];

fn config_for(listen: ListenKind, n: u32, twenty: bool) -> RunConfig {
    let mut cfg = bench::base_config(Machine::amd48(), 48, listen, ServerKind::apache());
    cfg.workload = Workload::with_requests_per_conn(n);
    cfg.twenty_policy = twenty;
    let per_req = match listen {
        ListenKind::Stock | ListenKind::Twenty if twenty => 230_000.0 + 1_300_000.0 / f64::from(n),
        ListenKind::Stock | ListenKind::Twenty => 240_000.0 + 1_300_000.0 / f64::from(n),
        ListenKind::Fine => 210_000.0 + 380_000.0 / f64::from(n),
        ListenKind::Affinity | ListenKind::BusyPoll => 175_000.0 + 330_000.0 / f64::from(n),
    };
    let rps = 48.0 * 2.4e9 / per_req;
    cfg.conn_rate = rps / f64::from(n);
    cfg
}

fn main() {
    bench::header(
        "fig10",
        "connection reuse sweep incl. hardware flow steering (Twenty-Policy)",
    );
    let mut t = Table::new(&["req/conn", "stock", "fine", "affinity", "twenty-policy"]);
    for n in REUSE {
        let mut row = vec![n.to_string()];
        for listen in IMPLS {
            let cfg = config_for(listen, n, false);
            let r = bench::audited(&cfg, app::find_saturation_budgeted(&cfg, 3));
            row.push(format!("{:.0}", r.rps_per_core));
        }
        let cfg = config_for(ListenKind::Stock, n, true);
        let r = bench::audited(&cfg, app::find_saturation_budgeted(&cfg, 3));
        row.push(format!("{:.0}", r.rps_per_core));
        t.row_owned(row);
        eprintln!("# fig10: req/conn {n} done");
    }
    print!("{}", t.render());
    println!("\npaper (Figure 10): Twenty-Policy only matches Affinity near 1000");
    println!("  req/conn; table maintenance hurts at ~500; lock contention below 100");
}
