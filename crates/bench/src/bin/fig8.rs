//! Figure 8: the effect of client think time on Apache throughput (AMD,
//! 48 cores), with connection reuse held constant at 6 requests.
//!
//! Longer thinks mean more concurrently active connections the server
//! must track (the paper reaches >300,000 at 1 s). Expected shape:
//! Affinity and Fine sustain roughly constant throughput across think
//! times with Affinity ahead; Stock stays collapsed throughout.

use app::{ListenKind, RunConfig, ServerKind, Workload};
use bench::{rate_guess, IMPLS};
use metrics::table::Table;
use sim::time::{ms, ms_f, Cycles};
use sim::topology::Machine;

/// Think times swept, in milliseconds.
pub const THINKS_MS: [f64; 5] = [0.1, 1.0, 10.0, 100.0, 1000.0];

fn config_for(listen: ListenKind, think: Cycles) -> RunConfig {
    let wl = Workload::with_think(think);
    // Session duration: 5 thinks plus service time.
    let lifetime = 5 * think + ms(60);
    let guess = rate_guess(listen, ServerKind::apache(), 48);
    // Apache needs one worker per concurrently active connection.
    let concurrency_per_core =
        (guess * 6.0 / 48.0 * sim::time::to_secs(lifetime) * 1.4).max(1024.0) as usize;
    let server = ServerKind::ApacheWorker {
        workers_per_core: concurrency_per_core,
    };
    let mut cfg = RunConfig::new(Machine::amd48(), 48, listen, server, wl, guess);
    cfg.warmup = lifetime + ms(300);
    cfg.measure = ms(300);
    cfg
}

fn main() {
    bench::header(
        "fig8",
        "Apache throughput vs client think time (AMD, 48 cores, 6 req/conn)",
    );
    let mut t = Table::new(&[
        "think (ms)",
        "stock",
        "fine",
        "affinity",
        "live conns (affinity)",
    ]);
    for think_ms in THINKS_MS {
        let think = ms_f(think_ms);
        let mut row = vec![format!("{think_ms}")];
        let mut live = 0;
        for listen in IMPLS {
            let cfg = config_for(listen, think);
            let r = bench::audited(&cfg, app::find_saturation_budgeted(&cfg, 3));
            row.push(format!("{:.0}", r.rps_per_core));
            if listen == ListenKind::Affinity {
                live = r.kernel.live_conns();
            }
        }
        row.push(live.to_string());
        t.row_owned(row);
        eprintln!("# fig8: think {think_ms}ms done");
    }
    print!("{}", t.render());
    println!("\npaper (Figure 8): fine and affinity flat across think times,");
    println!("  affinity ahead; >50k active connections at 100ms, >300k at 1s");
}
