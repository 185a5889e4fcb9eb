//! Discrete-event multicore machine simulator.
//!
//! The Affinity-Accept paper measures a patched Linux kernel on a 48-core
//! AMD and an 80-core Intel machine. This crate provides the simulated
//! equivalents of those machines and the execution machinery the rest of
//! the reproduction runs on:
//!
//! * [`time`] — the cycle-granularity simulated clock (2.4 GHz cores on
//!   both of the paper's machines).
//! * [`topology`] — chip/core layout and the memory-hierarchy latencies of
//!   Table 1 ([`topology::Machine::amd48`], [`topology::Machine::intel80`]).
//! * [`events`] — the deterministic time-ordered event queue: the
//!   hierarchical timer wheel of [`wheel`], differentially tested against
//!   a binary-heap reference.
//! * [`fingerprint`] — order-sensitive FNV-1a hashes folded over the
//!   executed event stream; equal configs and seeds must yield equal
//!   fingerprints, making any lost determinism loud.
//! * [`rng`] — a seeded, dependency-free PRNG so a `(config, seed)` pair
//!   reproduces a run event-for-event.
//! * [`lock`] — the timeline lock model: locks are resources with a
//!   `free_at` horizon; acquisitions either spin (charged as busy cycles)
//!   or sleep (charged as idle time, Linux's socket-lock "mutex mode"),
//!   with wait/hold accounting wired to [`metrics::lockstat`].
//! * [`core_set`] — per-core execution state: `busy_until` horizons and
//!   idle accounting.
//!
//! The process load balancer that §4.2 and §6.5 depend on (Linux moving
//! unpinned lighttpd processes off cores a batch job holds) is modelled
//! in the runner, `app::runner`'s `SchedBalance` event; this crate has no
//! run queues or wait queues.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core_set;
pub mod events;
pub mod fastmap;
pub mod fingerprint;
pub mod lock;
pub mod rng;
pub mod time;
pub mod topology;
pub mod wheel;

pub use core_set::CoreSet;
pub use events::EventQueue;
pub use fastmap::FastMap;
pub use fingerprint::Fingerprint;
pub use lock::TimelineLock;
pub use rng::SimRng;
pub use time::Cycles;
pub use topology::{CoreId, Machine};
