//! Figure 7: the effect of TCP connection reuse (requests per connection)
//! on Apache throughput (AMD, 48 cores).
//!
//! Expected shape: all implementations improve with reuse (less
//! setup/teardown); Affinity > Fine at every point; Stock converges to
//! Fine at very high reuse, where the listen lock is no longer touched
//! often enough to matter.

use app::{ListenKind, RunConfig, ServerKind, Workload};
use bench::{base_config, IMPLS};
use metrics::table::Table;
use sim::topology::Machine;

/// Requests-per-connection values swept.
pub const REUSE: [u32; 6] = [1, 6, 20, 100, 500, 1000];

fn config_for(listen: ListenKind, n: u32) -> RunConfig {
    let mut cfg = base_config(Machine::amd48(), 48, listen, ServerKind::apache());
    cfg.workload = Workload::with_requests_per_conn(n);
    // Per-request cost shrinks as per-connection overhead amortizes; the
    // guess accounts for that so the search converges quickly.
    let per_req = match listen {
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
        "fig7",
        "Apache throughput vs requests per connection (AMD, 48 cores)",
    );
    let mut t = Table::new(&["req/conn", "stock", "fine", "affinity"]);
    for n in REUSE {
        let mut row = vec![n.to_string()];
        for listen in IMPLS {
            let cfg = config_for(listen, n);
            let r = bench::audited(&cfg, app::find_saturation_budgeted(&cfg, 4));
            row.push(format!("{:.0}", r.rps_per_core));
        }
        t.row_owned(row);
        eprintln!("# fig7: req/conn {n} done");
    }
    print!("{}", t.render());
    println!("\npaper (Figure 7): affinity above fine everywhere; stock matches");
    println!("  fine above ~5000 req/conn; all rise with reuse");
}
