//! The cache-line bouncing effect the paper is built around (§2.2),
//! demonstrated directly on the coherence model.
//!
//! A `tcp_sock`'s packet-side fields are written by the softirq core and
//! read by the application core. When those are different cores on
//! different chips (Fine-Accept's situation), every direction switch
//! re-fetches the lines across the interconnect at 460+ cycles; on one
//! core everything comes from L1 at 3 cycles.
//!
//! ```sh
//! cargo run --release --example cache_bounce
//! ```

use affinity_accept_repro::prelude::*;
use mem::layout::FieldTag;
use sim::topology::CoreId;

fn simulate_requests(cache: &mut CacheModel, rx: CoreId, app: CoreId, n: u32) -> u64 {
    let sock = cache.alloc(DataType::TcpSock, rx);
    let mut cycles = 0;
    for _ in 0..n {
        // Packet side: write receive state, read send state.
        cycles += cache
            .access_tagged(rx, sock, FieldTag::BothRwByRx, true)
            .latency;
        cycles += cache
            .access_tagged(rx, sock, FieldTag::BothRwByApp, false)
            .latency;
        // Application side: read receive state, write send state.
        cycles += cache
            .access_tagged(app, sock, FieldTag::BothRwByRx, false)
            .latency;
        cycles += cache
            .access_tagged(app, sock, FieldTag::BothRwByApp, true)
            .latency;
    }
    cycles
}

fn main() {
    let machine = Machine::amd48();
    let mut cache = CacheModel::new(machine);
    const N: u32 = 1000;

    let local = simulate_requests(&mut cache, CoreId(0), CoreId(0), N);
    let same_chip = simulate_requests(&mut cache, CoreId(0), CoreId(1), N);
    let cross_chip = simulate_requests(&mut cache, CoreId(0), CoreId(12), N);

    println!("cycles spent on tcp_sock state for {N} request round-trips:");
    println!(
        "  same core (Affinity-Accept):   {:>9}  ({:.1} cyc/request)",
        local,
        local as f64 / f64::from(N)
    );
    println!(
        "  same chip, different core:     {:>9}  ({:.1} cyc/request)",
        same_chip,
        same_chip as f64 / f64::from(N)
    );
    println!(
        "  different chips (Fine-Accept): {:>9}  ({:.1} cyc/request)",
        cross_chip,
        cross_chip as f64 / f64::from(N)
    );
    println!(
        "\ncross-chip is {:.0}x the single-core cost — the paper's Table 4\n\
         measures exactly this bouncing on the production workload",
        cross_chip as f64 / local as f64
    );
    assert!(cross_chip > 10 * local);
}
