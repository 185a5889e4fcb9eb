//! A model of a multi-queue 10 GbE NIC in the style of Intel's 82599
//! ("IXGBE"), the card both evaluation machines use (§3.1, §7.1).
//!
//! The modelled capabilities — and, critically, the modelled *limits* —
//! are the ones Affinity-Accept's design hinges on:
//!
//! * up to 64 hardware RX/TX DMA ring pairs per port ([`rings`]);
//! * **RSS**: a 128-entry indirection table of 4-bit ring ids, i.e. at most
//!   16 distinct rings ([`steering::RssTable`]), the per-flow mode's
//!   fallback for flows without an FDir entry;
//! * **FDir** in flow-group mode: the paper reprograms the card to hash
//!   only the low 12 bits of the source port, yielding 4,096 *flow groups*
//!   that are mapped to rings through the FDir table
//!   ([`steering::FlowGroupTable`]) — this is Affinity-Accept's mode;
//! * **FDir** in per-flow mode: a bounded (8K–32K entry) hash table with a
//!   ~10,000-cycle insertion cost and a stop-the-world flush when it
//!   overflows ([`steering::PerFlowTable`]) — the mode behind the
//!   "Twenty-Policy" comparison of §7.1 and Figure 10;
//! * a shared 10 Gb/s link with per-packet framing overhead ([`wire`]).
//!
//! [`catalog`] reproduces Table 5's comparison of contemporary NICs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod packet;
pub mod rings;
pub mod steering;
pub mod wire;

pub use packet::{FlowTuple, Packet, PacketKind, RingId};
pub use rings::RxRing;
pub use steering::{FlowGroupTable, PerFlowTable, RssTable, Steering};
pub use wire::Wire;

use sim::time::Cycles;
use sim::topology::CoreId;

/// Outcome of offering a packet to the NIC's receive path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Queued in a ring at the given time.
    Delivered {
        /// Ring the packet was placed in.
        ring: RingId,
        /// Time the DMA completed.
        at: Cycles,
    },
    /// Dropped: the target ring was full.
    DroppedRingFull,
    /// Dropped: the card was stalled by an FDir table flush (§7.1).
    DroppedFlush,
}

/// The NIC: steering, rings, and the wire.
#[derive(Debug)]
pub struct Nic {
    /// Flow-steering configuration.
    pub steering: Steering,
    rings: Vec<RxRing>,
    /// The 10 Gb/s link.
    pub wire: Wire,
    /// Packets dropped because a ring was full.
    pub drops_ring_full: u64,
    /// Packets dropped during an FDir flush stall.
    pub drops_flush: u64,
    /// Total packets ever offered to [`Nic::rx`] (delivered or dropped);
    /// the conservation audit balances this against ring enqueues + drops.
    pub rx_offered: u64,
}

impl Nic {
    /// Creates a NIC with `n_rings` active RX rings and the given steering.
    #[must_use]
    pub fn new(n_rings: usize, steering: Steering) -> Self {
        Self {
            steering,
            rings: (0..n_rings)
                .map(|_| RxRing::new(rings::DEFAULT_RING_CAPACITY))
                .collect(),
            wire: Wire::new(),
            drops_ring_full: 0,
            drops_flush: 0,
            rx_offered: 0,
        }
    }

    /// Number of active rings.
    #[must_use]
    pub fn n_rings(&self) -> usize {
        self.rings.len()
    }

    /// The core that services a ring: ring *i*'s interrupt is affinitized
    /// to core *i* (§6.2: "we configure interrupts so that each core
    /// processes its own DMA ring").
    #[must_use]
    pub fn ring_core(&self, ring: RingId) -> CoreId {
        CoreId(ring.0)
    }

    /// Offers a packet arriving from the wire at `now`.
    pub fn rx(&mut self, now: Cycles, pkt: Packet) -> RxOutcome {
        self.rx_offered += 1;
        if self.steering.rx_stalled_at(now) {
            self.drops_flush += 1;
            return RxOutcome::DroppedFlush;
        }
        let at = self.wire.transfer(now, pkt.wire_bytes());
        let ring = self.steering.route(&pkt.tuple, self.rings.len());
        if self.rings[ring.0 as usize].push(pkt, at) {
            RxOutcome::Delivered { ring, at }
        } else {
            self.drops_ring_full += 1;
            RxOutcome::DroppedRingFull
        }
    }

    /// Transmits `bytes` of response data at `now`; returns when the last
    /// byte leaves the wire (TX may additionally be halted by an FDir
    /// flush in per-flow mode).
    pub fn tx(&mut self, now: Cycles, wire_bytes: u64) -> Cycles {
        let start = now.max(self.steering.tx_halted_until());
        self.wire.transfer(start, wire_bytes)
    }

    /// Mutable access to a ring (the softirq side drains it).
    pub fn ring_mut(&mut self, ring: RingId) -> &mut RxRing {
        &mut self.rings[ring.0 as usize]
    }

    /// Immutable access to a ring.
    #[must_use]
    pub fn ring(&self, ring: RingId) -> &RxRing {
        &self.rings[ring.0 as usize]
    }

    /// Total packets currently queued across rings.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.rings.iter().map(RxRing::len).sum()
    }

    /// Iterates over the active rings (for the conservation audit).
    pub fn rings(&self) -> impl Iterator<Item = &RxRing> {
        self.rings.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src_port: u16) -> Packet {
        Packet::new(
            FlowTuple::client(0x0a00_0001, src_port, 80),
            PacketKind::Syn,
            0,
        )
    }

    #[test]
    fn rx_routes_by_flow_group() {
        let mut nic = Nic::new(4, Steering::flow_groups(4, 4096));
        let out = nic.rx(0, pkt(1234));
        match out {
            RxOutcome::Delivered { ring, .. } => {
                // Same flow always lands on the same ring.
                for _ in 0..10 {
                    match nic.rx(0, pkt(1234)) {
                        RxOutcome::Delivered { ring: r2, .. } => assert_eq!(r2, ring),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ring_full_drops() {
        let mut nic = Nic::new(1, Steering::flow_groups(1, 4096));
        for _ in 0..rings::DEFAULT_RING_CAPACITY {
            assert!(matches!(nic.rx(0, pkt(7)), RxOutcome::Delivered { .. }));
        }
        assert_eq!(nic.rx(0, pkt(7)), RxOutcome::DroppedRingFull);
        assert_eq!(nic.drops_ring_full, 1);
    }

    #[test]
    fn ring_core_identity_mapping() {
        let nic = Nic::new(8, Steering::flow_groups(8, 4096));
        assert_eq!(nic.ring_core(RingId(3)), CoreId(3));
    }
}
