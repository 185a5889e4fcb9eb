//! Memory-system model: cache coherence costs, kernel object layouts, the
//! per-core slab allocator, and the DProf data-structure profiler.
//!
//! §2.2 of the paper locates the residual scalability problem (after lock
//! splitting) in *shared cache lines*: a connection's `tcp_sock`, `sk_buff`s
//! and related objects are touched both by the core receiving packets from
//! the NIC and by the core running the application, so their cache lines
//! bounce between cores at remote-access latencies (Table 1). This crate
//! models exactly that:
//!
//! * [`types`] — the kernel data types of Table 4, with their real sizes.
//! * [`layout`] — field-granularity layouts for each type, annotated with
//!   which side (packet processing vs application syscalls) reads and
//!   writes them; the annotations, not hard-coded percentages, produce
//!   Table 4's sharing profile. Each layout is compiled once into the line
//!   runs the cache model walks.
//! * [`cache`] — a MESI-flavoured coherence cost model: each tracked cache
//!   line knows, in 12 bytes, its sharer set and whether it is dirty (a
//!   dirty line's one sharer is its owner), and an access is served from
//!   local L1/L2, the chip-local L3, a remote chip's cache, or DRAM
//!   accordingly, at Table 1 latencies. An object id says where the
//!   object's lines are, so an access reads nothing but them.
//! * [`slab`] — the per-core object pools (§2.2's packet-buffer allocation
//!   problem: remote frees are slower and poison locality).
//! * [`dprof`] — a model of DProf [Pesterev et al., EuroSys 2010], which
//!   the paper uses to attribute sharing to data types (Table 4) and to
//!   collect the shared-access latency CDF (Figure 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dprof;
pub mod layout;
pub mod slab;
pub mod types;

pub use cache::{CacheModel, ObjId, ServiceLevel};
pub use dprof::{CachelineStats, DProf, LineAgg};
pub use layout::{Field, FieldTag};
pub use slab::SlabAllocator;
pub use types::DataType;
