//! Figure 9: the effect of average served file size on Apache throughput
//! (AMD, 48 cores). All file sizes scale proportionally.
//!
//! Expected shape: above ~1 KB average file size the NIC's 10 Gb/s link
//! saturates for Fine and Affinity and their request rates fall together;
//! Stock stays lock-bound (CPU-limited) until much larger files.

use app::{ListenKind, RunConfig, ServerKind, Workload};
use bench::{rate_guess, IMPLS};
use metrics::table::Table;
use sim::topology::Machine;

/// Average file sizes swept (bytes); the base mix averages ~700.
pub const AVG_SIZES: [f64; 6] = [10.0, 100.0, 700.0, 1_000.0, 3_000.0, 10_000.0];

fn config_for(listen: ListenKind, avg: f64) -> RunConfig {
    let scale = avg / 700.0;
    let mut cfg = bench::base_config(Machine::amd48(), 48, listen, ServerKind::apache());
    cfg.workload = Workload::with_file_scale(scale);
    // Wire-capacity-aware guess: ~1.25 GB/s over ~ (request + response +
    // framing) bytes per request.
    let per_req_bytes = 300.0 + 250.0 + avg + 4.0 * 78.0;
    let wire_rps = 1.25e9 / per_req_bytes;
    let cpu_rps = rate_guess(listen, ServerKind::apache(), 48) * 6.0;
    cfg.conn_rate = cpu_rps.min(wire_rps) / 6.0;
    cfg
}

fn main() {
    bench::header(
        "fig9",
        "Apache throughput vs average file size (AMD, 48 cores)",
    );
    let mut t = Table::new(&[
        "avg file (B)",
        "stock",
        "fine",
        "affinity",
        "wire util (affinity)",
    ]);
    for avg in AVG_SIZES {
        let mut row = vec![format!("{avg:.0}")];
        let mut wire = 0.0;
        for listen in IMPLS {
            let cfg = config_for(listen, avg);
            let r = bench::audited(&cfg, app::find_saturation_budgeted(&cfg, 4));
            row.push(format!("{:.0}", r.rps_per_core));
            if listen == ListenKind::Affinity {
                wire = r.wire_util;
            }
        }
        row.push(format!("{:.0}%", wire * 100.0));
        t.row_owned(row);
        eprintln!("# fig9: avg size {avg} done");
    }
    print!("{}", t.render());
    println!("\npaper (Figure 9): NIC saturates fine+affinity above ~1KB; stock");
    println!("  too slow to saturate it until ~10KB");
}
