//! Figure 6: lighttpd throughput per core vs. cores on the 80-core Intel
//! machine.
//!
//! Since the scenario catalog landed this binary is a thin wrapper over
//! `scenarios/fig6.json`: the sweep's machine, core counts, kinds,
//! windows and search mode all come from the scenario file, and
//! `tests/scenarios.rs` proves the derived configs are bit-identical to
//! the `bench::base_config` ones this binary used to build by hand.

use bench::scenario::{catalog_path, load_file};
use bench::{sweep_saturation, throughput_series};

fn main() {
    let sc = load_file(&catalog_path("scenarios/fig6.json")).expect("load fig6 scenario");
    bench::header(
        "fig6",
        "lighttpd, Intel machine: requests/sec/core vs cores",
    );
    let points = sc.points().expect("fig6 sweep points validate");
    let xs: Vec<usize> = points.iter().map(|p| p.cores).collect();
    for &listen in &sc.kinds {
        let cfgs = points.iter().map(|p| p.config(listen)).collect();
        let rs = sweep_saturation(cfgs);
        println!();
        print!("{}", throughput_series(listen.label(), &xs, &rs));
        if let Some(last) = rs.last() {
            println!(
                "# {} at 80 cores: wire utilization {:.0}%",
                listen.label(),
                last.wire_util * 100.0
            );
        }
    }
}
