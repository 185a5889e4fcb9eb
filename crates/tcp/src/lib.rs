//! A Linux-structured model of kernel TCP connection processing.
//!
//! This crate reproduces the *structure* of the Linux 2.6.35 connection
//! path the paper modifies (§2): which data structures exist, which locks
//! guard them, and which cache lines each kernel entry point touches on
//! which core. It does not move real bytes; it moves costs:
//!
//! * [`kernel::Kernel`] — the per-run kernel context: the cache model, the
//!   slab allocator, `lock_stat`, performance counters, the connection
//!   table, the global established/request hash tables, and the shared
//!   node slabs that hold every connection's buffer queues.
//! * [`costs`] — per-entry instruction budgets and fixed miss counts,
//!   calibrated so that an Affinity-Accept run lands near Table 3's
//!   per-request counters; the *differences* between implementations are
//!   emergent from the cache model, not tabulated.
//! * [`ops`] — the data-path operations (softirq packet processing,
//!   `read`, `writev`, `poll`, `shutdown`, `close`, wakeups), each
//!   charging its entry's counters and touching its fields of the
//!   connection's objects on the executing core.
//! * [`req`] — the request (SYN) hash table, one instance shared by all
//!   listen-socket clones with per-bucket locks (§5.2).
//! * [`est`] — the global established-connections hash table with
//!   per-bucket locks.
//! * [`conn`] — connection state: the `tcp_sock` object, receive queue,
//!   in-flight transmit buffers, and core assignments.
//! * [`fifo`] — FIFO lists in one shared node slab, which hold the
//!   connections' queues and the hash tables' chains without a heap block
//!   per connection or per bucket.
//!
//! The listen-socket implementations themselves (Stock, Fine, Affinity)
//! live in the `affinity-accept` crate and compose these primitives under
//! their respective locking policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod costs;
pub mod est;
pub mod fifo;
pub mod kernel;
pub mod ops;
pub mod req;

pub use conn::{Conn, ConnId, ConnState};
pub use kernel::Kernel;
pub use req::{ReqId, ReqTable};
