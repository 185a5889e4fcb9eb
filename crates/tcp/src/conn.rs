//! Connection state.
//!
//! A [`Conn`] is the simulated counterpart of an established Linux TCP
//! connection: a `tcp_sock` object in the cache model, a receive queue of
//! `sk_buff`s awaiting `read()`, in-flight transmit buffers awaiting their
//! acknowledgment, the per-connection lock, and — the quantity this whole
//! paper is about — the pair of cores that touch it: the core the NIC's
//! steering delivers its packets to (`rx_core`) and the core whose
//! application thread accepted it (`app_core`).
//!
//! The three queues are [`List`]s: a connection keeps only their ends,
//! and their items live in node slabs that the
//! [`Kernel`](crate::Kernel) shares among all connections, so a `Conn` is
//! one fixed-size record with no heap block of its own.

use crate::fifo::List;
use mem::ObjId;
use nic::FlowTuple;
use serde::{Deserialize, Serialize};
use sim::lock::TimelineLock;
use sim::topology::CoreId;

/// Identifies one connection for the lifetime of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConnId(pub u64);

/// Lifecycle state of a server-side connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Handshake finished; sitting in an accept queue or being served.
    Established,
    /// FIN seen / shutdown issued.
    Closing,
    /// Fully closed (kept briefly for accounting).
    Closed,
}

/// One received, not-yet-`read()` data segment.
#[derive(Debug, Clone, Copy)]
pub struct RxSegment {
    /// The `sk_buff` holding the packet.
    pub skb: ObjId,
    /// The page-sized data buffer.
    pub page: ObjId,
    /// Payload bytes.
    pub payload: u32,
    /// Application tag carried by the packet (the requested file index).
    pub tag: u32,
}

/// An established connection.
#[derive(Debug)]
pub struct Conn {
    /// The flow five-tuple.
    pub tuple: FlowTuple,
    /// The `tcp_sock` object in the cache model.
    pub sock: ObjId,
    /// The socket's file-descriptor object, created at `accept()`.
    pub fd: Option<ObjId>,
    /// Small per-connection metadata block (`slab:size-128`), created
    /// packet-side at establishment and consumed by `accept()`.
    pub meta: Option<ObjId>,
    /// Core currently receiving this flow's packets from the NIC.
    pub rx_core: CoreId,
    /// Core whose application thread owns the connection (set at accept).
    pub app_core: Option<CoreId>,
    /// Lifecycle state.
    pub state: ConnState,
    /// Received segments awaiting `read()`, in the kernel's `rx_segs`.
    pub rcv_queue: List,
    /// Send-buffer chunks (`slab:size-1024`) awaiting their
    /// acknowledgment, in the kernel's `tx_bufs`.
    pub tx_chunks: List,
    /// Transmit `sk_buff`s awaiting completion or acknowledgment, in the
    /// kernel's `tx_bufs`.
    pub tx_skbs: List,
    /// The per-connection (`sock`) lock.
    pub lock: TimelineLock,
}

// One per live connection: about 400k at Figure 8's 1 s think time.
const _: () = assert!(std::mem::size_of::<Conn>() == 104);

impl Conn {
    /// Creates an established connection whose packets arrive on `rx_core`.
    #[must_use]
    pub fn new(tuple: FlowTuple, sock: ObjId, rx_core: CoreId) -> Self {
        Self {
            tuple,
            sock,
            fd: None,
            meta: None,
            rx_core,
            app_core: None,
            state: ConnState::Established,
            rcv_queue: List::EMPTY,
            tx_chunks: List::EMPTY,
            tx_skbs: List::EMPTY,
            lock: TimelineLock::new(metrics::lockstat::LockClass::Connection),
        }
    }

    /// Whether packet processing and application processing currently run
    /// on the same core — the paper's definition of connection affinity.
    #[must_use]
    pub fn has_affinity(&self) -> bool {
        self.app_core == Some(self.rx_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Conn {
        Conn::new(FlowTuple::client(1, 1000, 80), ObjId(42), CoreId(3))
    }

    #[test]
    fn new_connection_is_established_and_unowned() {
        let c = conn();
        assert_eq!(c.state, ConnState::Established);
        assert!(c.app_core.is_none());
        assert!(!c.has_affinity());
        assert!(c.rcv_queue.is_empty());
    }

    #[test]
    fn affinity_requires_matching_cores() {
        let mut c = conn();
        c.app_core = Some(CoreId(5));
        assert!(!c.has_affinity());
        c.app_core = Some(CoreId(3));
        assert!(c.has_affinity());
        // Flow-group migration moves the rx side: affinity breaks.
        c.rx_core = CoreId(9);
        assert!(!c.has_affinity());
    }
}
