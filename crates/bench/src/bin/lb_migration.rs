//! §6.5, second experiment: flow-group migration returns CPU to a
//! co-located batch job.
//!
//! The paper: a kernel compile on 24 of the 48 cores takes 125 s alone;
//! adding the web server (stealing on, migration off) stretches it to
//! 168 s; enabling flow-group migration recovers it to 130 s, because
//! packet processing for the web server's flow groups moves off the make
//! cores (twice — the compile's serial phase lets groups drift back).
//!
//! The job is scaled down ~100× so the simulation completes quickly;
//! compare the runtime *ratios*.

use app::Runner;
use metrics::table::Table;
use sim::time::to_ms;

fn main() {
    bench::header(
        "lb_migration",
        "batch-job runtime with and without flow-group migration (§6.5)",
    );
    // The full (config, seed) set is pinned in `bench::lb` so the
    // recorded table in EXPERIMENTS.md regenerates exactly.
    let cases = bench::lb::lb_migration_cases();
    let mut runtimes = Vec::new();
    let mut t = Table::new(&[
        "configuration",
        "make runtime (ms)",
        "vs alone",
        "migrations",
    ]);
    let mut base = None;
    for (name, cfg) in cases {
        let r = bench::audited(&cfg, Runner::new(cfg.clone()).run());
        let rt = r.batch_runtime.expect("job ran");
        if base.is_none() {
            base = Some(rt as f64);
        }
        runtimes.push(rt);
        t.row_owned(vec![
            name.into(),
            format!("{:.0}", to_ms(rt)),
            format!("{:.2}x", rt as f64 / base.unwrap()),
            r.migrations.to_string(),
        ]);
        eprintln!("# lb_migration: {name} done (runtime {:.0} ms)", to_ms(rt));
    }
    print!("{}", t.render());
    println!("\npaper (§6.5): 125s alone -> 168s with web (1.34x) -> 130s with");
    println!("  migration (1.04x); shapes, not absolute times, are comparable");
}
