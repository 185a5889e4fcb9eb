//! Table 3: performance counters by kernel entry point, Fine-Accept vs
//! Affinity-Accept (Apache, AMD machine, 48 cores).
//!
//! Expected shape: both implementations execute approximately the same
//! number of instructions; Fine incurs roughly double the L2 misses and
//! ~30–40 % more cycles in `softirq net rx`, with the summed network-stack
//! cycles about 1.3× Affinity's.

use app::{ListenKind, ServerKind};
use bench::{base_config, sweep_saturation};
use metrics::perf::KernelEntry;
use metrics::table::{kfmt, Table};
use sim::topology::Machine;

fn main() {
    bench::header(
        "table3",
        "perf counters per kernel entry, Fine vs Affinity (48 cores)",
    );
    let impls = [ListenKind::Fine, ListenKind::Affinity];
    let cfgs = impls
        .iter()
        .map(|l| base_config(Machine::amd48(), 48, *l, ServerKind::apache()))
        .collect();
    let rs = sweep_saturation(cfgs);
    let (fine, aff) = (&rs[0], &rs[1]);

    let mut t = Table::new(&[
        "kernel entry",
        "cycles (F/A)",
        "cyc delta",
        "instr (F/A)",
        "instr delta",
        "l2 miss (F/A)",
        "miss delta",
    ]);
    for e in KernelEntry::ALL {
        let (fc, fi, fm) = fine.perf.per_request(e);
        let (ac, ai, am) = aff.perf.per_request(e);
        if fc == 0.0 && ac == 0.0 {
            continue;
        }
        t.row_owned(vec![
            e.label().into(),
            format!("{} / {}", kfmt(fc), kfmt(ac)),
            kfmt(fc - ac),
            format!("{} / {}", kfmt(fi), kfmt(ai)),
            format!("{:.0}", fi - ai),
            format!("{fm:.0} / {am:.0}"),
            format!("{:.0}", fm - am),
        ]);
    }
    print!("{}", t.render());
    let f_stack = fine.perf.network_stack_cycles_per_request();
    let a_stack = aff.perf.network_stack_cycles_per_request();
    println!();
    println!(
        "network-stack cycles/request: fine {} vs affinity {}  ({:.0}% reduction; paper: 30%)",
        kfmt(f_stack),
        kfmt(a_stack),
        100.0 * (f_stack - a_stack) / f_stack,
    );
    println!(
        "total L2 misses/request: fine {:.0} vs affinity {:.0} (paper: roughly 2x)",
        fine.perf.total_l2_misses() as f64 / fine.served.max(1) as f64,
        aff.perf.total_l2_misses() as f64 / aff.served.max(1) as f64,
    );
    println!(
        "throughput: fine {:.0} vs affinity {:.0} req/s/core ({:.0}% improvement; paper: 24%)",
        fine.rps_per_core,
        aff.rps_per_core,
        100.0 * (aff.rps - fine.rps) / fine.rps,
    );
}
