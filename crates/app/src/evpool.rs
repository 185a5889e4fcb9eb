//! Allocation support for the event loop's hot path.
//!
//! The event queue moves millions of entries per run, so the runner keeps
//! its `Ev` enum at most 16 bytes. The payload that does not fit, the
//! 24-byte [`Packet`] carried by in-flight wire events, is interned in a
//! [`PktSlab`] and referenced by a `u32` handle.

use nic::Packet;

/// A free-list slab of in-flight packets.
///
/// Every packet event holds exactly one slab slot from push to pop, so
/// the slab's high-water mark is the peak number of in-flight packet
/// events and slots recycle for the whole run after the first ramp-up.
#[derive(Debug, Default)]
pub struct PktSlab {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Debug-only occupancy tracking: catches double-takes and stale
    /// handles, which would silently alias packets in release builds.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PktSlab {
    /// Stores `pkt` and returns its handle.
    pub fn intern(&mut self, pkt: Packet) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = pkt;
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.live[i as usize]);
                self.live[i as usize] = true;
            }
            i
        } else {
            let i = u32::try_from(self.slots.len()).expect("packet slab overflow");
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.live.push(true);
            i
        }
    }

    /// Reads the packet behind `handle` without releasing the slot.
    #[must_use]
    pub fn get(&self, handle: u32) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "stale packet handle");
        &self.slots[handle as usize]
    }

    /// Removes and returns the packet behind `handle`, freeing the slot.
    pub fn take(&mut self, handle: u32) -> Packet {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[handle as usize], "double take");
            self.live[handle as usize] = false;
        }
        self.free.push(handle);
        self.slots[handle as usize]
    }

    /// Packets currently interned.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Empties the slab, retaining capacity for the next run.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        #[cfg(debug_assertions)]
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nic::{FlowTuple, PacketKind};

    fn pkt(payload: u32) -> Packet {
        Packet::new(FlowTuple::client(1, 2, 3), PacketKind::Data, payload)
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = PktSlab::default();
        let a = slab.intern(pkt(1));
        let b = slab.intern(pkt(2));
        assert_eq!(slab.get(a).payload, 1);
        assert_eq!(slab.take(a).payload, 1);
        assert_eq!(slab.live(), 1);
        let c = slab.intern(pkt(3));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.get(b).payload, 2);
        assert_eq!(slab.get(c).payload, 3);
        slab.reset();
        assert_eq!(slab.live(), 0);
    }
}
