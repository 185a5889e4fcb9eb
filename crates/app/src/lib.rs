//! Application layer: simulated web servers, the httperf-style client
//! fleet, the background batch job, and the full benchmark runner.
//!
//! §6.2 fixes the workload this crate reproduces: static content inspired
//! by SpecWeb's static parts (30,000 files of 30–5,670 bytes), 25 client
//! machines running httperf, 6 requests per connection issued in batches
//! of 1, 2, and 3 with 100 ms of client think time between batches, and a
//! saturation search for the offered rate.
//!
//! * [`files`] — the served file set.
//! * [`workload`] — the knobs §6.6 sweeps (requests/connection, think
//!   time, file-size scale).
//! * [`client`] — the open-loop client fleet with per-connection state
//!   machines, latency recording, and the §6.5 10-second timeout.
//! * [`server`] — the two application architectures of §4.2: an
//!   Apache-worker-style server (per-core pinned acceptor + worker
//!   threads) and a lighttpd-style server (multiple event-loop processes
//!   per core, unpinned).
//! * [`batch`] — the §6.5 background `make` job (two parallel phases
//!   around a serial one).
//! * [`evpool`] — packet interning and lazy timer cancellation keeping
//!   the runner's event entries small.
//! * [`runner`] — the discrete-event loop tying the machine, NIC, TCP
//!   stack, listen socket, servers, and clients together.
//! * [`search`] — the offered-rate saturation search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod client;
pub mod evpool;
pub mod files;
pub mod runner;
pub mod search;
pub mod server;
pub mod workload;

pub use audit::RunAudit;
pub use runner::{ListenKind, RunConfig, RunResult, Runner};
pub use search::{find_saturation, find_saturation_budgeted};
pub use server::ServerKind;
pub use workload::Workload;
