//! Measurement substrate for the Affinity-Accept reproduction.
//!
//! The paper's evaluation (§6) relies on three measurement tools, all of
//! which this crate models:
//!
//! * **Performance counters** attributed to kernel entry points (Table 3):
//!   [`perf::PerfCounters`] tracks cycles, instructions, and L2 misses per
//!   [`perf::KernelEntry`].
//! * **`lock_stat`**, the Linux kernel lock profiler (Table 2):
//!   [`lockstat::LockStat`] records wait and hold times per lock class and
//!   models the profiler's own accounting overhead, which the paper notes
//!   depresses throughput.
//! * **Latency distributions** (Figure 4, §6.5): [`hist::Histogram`] is a
//!   log-bucketed histogram with percentile and CDF extraction.
//!
//! It also provides the [`ewma::Ewma`] filter used by Affinity-Accept's
//! busy-core tracking (§3.3.1) and plain-text table/series formatting used
//! by the benchmark harness ([`table`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ewma;
pub mod hist;
pub mod json;
pub mod lockstat;
pub mod perf;
pub mod table;

pub use ewma::Ewma;
pub use hist::Histogram;
pub use json::Json;
pub use lockstat::{LockClass, LockStat};
pub use perf::{EntryCounters, KernelEntry, PerfCounters};
