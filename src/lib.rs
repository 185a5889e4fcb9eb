//! # affinity-accept-repro
//!
//! A full reproduction of **Affinity-Accept** (Pesterev, Strauss,
//! Zeldovich, Morris: *Improving Network Connection Locality on Multicore
//! Systems*, EuroSys 2012) as a deterministic discrete-event simulation.
//!
//! The paper modifies the Linux TCP listen socket so that all processing
//! for a connection — packet delivery, kernel TCP work, and the
//! application — happens on one core. This workspace rebuilds every layer
//! that result depends on:
//!
//! * [`sim`] — the multicore machines of §6.1 (48-core AMD, 80-core
//!   Intel), a cycle-granularity event engine, and timeline locks.
//! * [`mem`] — a MESI-flavoured cache-coherence cost model with
//!   field-granular layouts of the kernel objects in Table 4, the slab
//!   allocator, and the DProf profiler.
//! * [`nic`] — an Intel-82599-style NIC: per-core DMA rings, RSS, FDir in
//!   flow-group and per-flow modes, and a 10 Gb/s wire.
//! * [`tcp`] — the Linux-structured connection path: request and
//!   established hash tables, `tcp_sock` lifecycle, and the kernel entry
//!   points of Table 3 with calibrated costs.
//! * [`affinity_accept`] — the paper's contribution: the Stock, Fine, and
//!   Affinity listen sockets, busy tracking, connection stealing,
//!   flow-group migration, and the Twenty-Policy baseline.
//! * [`app`] — Apache-worker and lighttpd server models, the httperf-like
//!   client fleet, the §6.5 batch job, and the full benchmark runner.
//!
//! ## Quick start
//!
//! ```
//! use affinity_accept_repro::prelude::*;
//!
//! let mut cfg = RunConfig::new(
//!     Machine::amd48(),
//!     4,                       // active cores
//!     ListenKind::Affinity,    // the paper's design
//!     ServerKind::apache(),
//!     Workload::base(),        // 6 requests/conn, 100 ms thinks
//!     2_000.0,                 // offered connections/second
//! );
//! cfg.warmup = sim::time::ms(40);
//! cfg.measure = sim::time::ms(80);
//! let result = Runner::new(cfg).run();
//! assert!(result.served > 0);
//! assert!(result.affinity_frac > 0.9); // connections stay local
//! ```
//!
//! See `examples/` for runnable scenarios and the `bench` crate for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use affinity_accept;
pub use app;
pub use mem;
pub use metrics;
pub use nic;
pub use sim;
pub use tcp;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use affinity_accept::{
        AcceptOutcome, AffinityAccept, FineAccept, ListenConfig, ListenSocket, StockAccept,
        TwentyPolicy,
    };
    pub use app::{
        find_saturation, find_saturation_budgeted, ListenKind, RunConfig, RunResult, Runner,
        ServerKind, Workload,
    };
    pub use mem::{CacheModel, DataType};
    pub use nic::{FlowTuple, Nic, Packet, PacketKind, Steering};
    pub use sim::topology::Machine;
    pub use sim::SimRng;
    pub use tcp::{ConnId, Kernel};
}
