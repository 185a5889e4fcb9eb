//! Flow steering: RSS, FDir flow-group mode, and FDir per-flow mode.
//!
//! The IXGBE card maps a packet's flow hash to an RX ring through one of
//! two mechanisms (§3.1):
//!
//! * **RSS** — a 128-entry indirection table of 4-bit ring ids; at most 16
//!   distinct rings, a real limitation of this card.
//! * **FDir** — a hash table in NIC memory holding 8K–32K entries of 6-bit
//!   ring ids (64 rings).
//!
//! Affinity-Accept cannot give every connection an FDir entry (too many
//! connections, too slow to update), so it reprograms the hash to the low
//! 12 bits of the source port and installs one FDir entry per resulting
//! *flow group* — 4,096 entries, installed once, migrated rarely
//! ([`FlowGroupTable`]).
//!
//! The driver's historical alternative — "Twenty-Policy", updating a
//! per-flow FDir entry on every 20th transmitted packet — needs
//! [`PerFlowTable`], which models the measured costs from §7.1: a
//! 10,000-cycle insertion (hash computation dominates; the table write is
//! ~600 cycles), no per-entry removal, and a stop-the-world flush on
//! overflow (~80,000 cycles to schedule + ~70,000 to run) during which
//! transmissions halt and received packets are missed.

use crate::packet::{FlowTuple, RingId};
use sim::time::Cycles;

/// Cycles to insert one per-flow FDir entry (§7.1).
pub const FDIR_INSERT_CYCLES: u64 = 10_000;
/// Of which the actual table write is this much; the rest is computing the
/// hash (§7.1).
pub const FDIR_TABLE_WRITE_CYCLES: u64 = 600;
/// Cycles to get the flush work scheduled (§7.1: "up to 80,000 cycles").
pub const FDIR_FLUSH_SCHEDULE_CYCLES: u64 = 80_000;
/// Cycles the flush itself takes, with transmissions halted (§7.1).
pub const FDIR_FLUSH_RUN_CYCLES: u64 = 70_000;
/// Default per-flow table capacity (§3.1: 8K–32K; we default to the top).
pub const FDIR_DEFAULT_CAPACITY: usize = 32 * 1024;
/// RSS indirection table size on the 82599.
pub const RSS_TABLE_SIZE: usize = 128;
/// Max distinct rings RSS can address (4-bit entries).
pub const RSS_MAX_RINGS: usize = 16;
/// Flow groups the paper configures (low 12 bits of the source port).
pub const DEFAULT_FLOW_GROUPS: u16 = 4096;

/// The RSS indirection table.
#[derive(Debug, Clone)]
pub struct RssTable {
    entries: [u8; RSS_TABLE_SIZE],
}

impl RssTable {
    /// Builds the default even distribution over `min(n_rings, 16)` rings.
    #[must_use]
    pub fn new(n_rings: usize) -> Self {
        let usable = n_rings.clamp(1, RSS_MAX_RINGS);
        let mut entries = [0u8; RSS_TABLE_SIZE];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = (i % usable) as u8;
        }
        Self { entries }
    }

    /// Routes a flow hash.
    #[must_use]
    pub fn route(&self, hash: u64) -> RingId {
        RingId(u16::from(self.entries[(hash as usize) % RSS_TABLE_SIZE]))
    }

    /// Number of distinct rings currently addressed.
    #[must_use]
    pub fn distinct_rings(&self) -> usize {
        let mut seen = [false; 256];
        let mut n = 0;
        for &e in &self.entries {
            if !seen[e as usize] {
                seen[e as usize] = true;
                n += 1;
            }
        }
        n
    }
}

/// The FDir table in flow-group mode: a total map from the 4,096 flow
/// groups to rings. This is Affinity-Accept's configuration; the
/// connection load balancer migrates groups between rings (§3.3.2).
#[derive(Debug, Clone)]
pub struct FlowGroupTable {
    map: Vec<RingId>,
    /// Entry rewrites performed (each costs [`FDIR_TABLE_WRITE_CYCLES`]).
    pub reprograms: u64,
}

impl FlowGroupTable {
    /// Maps `n_groups` groups round-robin over `n_rings` rings.
    ///
    /// A single 82599 port's FDir addresses 64 rings; the Intel machine
    /// provisions a second port beyond 64 cores (§6.1), so up to 128 rings
    /// are accepted here (two striped per-port tables).
    #[must_use]
    pub fn new(n_rings: usize, n_groups: u16) -> Self {
        assert!(
            n_rings > 0 && n_rings <= 128,
            "FDir addresses 64 rings/port x 2 ports"
        );
        let map = (0..n_groups)
            .map(|g| RingId((g as usize % n_rings) as u16))
            .collect();
        Self { map, reprograms: 0 }
    }

    /// Number of flow groups.
    #[must_use]
    pub fn n_groups(&self) -> u16 {
        self.map.len() as u16
    }

    /// Ring currently assigned to a group.
    #[must_use]
    pub fn ring_of(&self, group: u16) -> RingId {
        self.map[group as usize]
    }

    /// Routes a flow tuple via its group.
    #[must_use]
    pub fn route(&self, tuple: &FlowTuple) -> RingId {
        self.ring_of(tuple.flow_group(self.n_groups()))
    }

    /// Reassigns one group to another ring (one FDir entry rewrite);
    /// returns the cycles the operation costs the reprogramming core.
    pub fn migrate(&mut self, group: u16, to: RingId) -> Cycles {
        self.map[group as usize] = to;
        self.reprograms += 1;
        FDIR_TABLE_WRITE_CYCLES
    }

    /// All groups currently mapped to `ring`.
    #[must_use]
    pub fn groups_of(&self, ring: RingId) -> Vec<u16> {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == ring)
            .map(|(g, _)| g as u16)
            .collect()
    }

    /// Number of groups per ring, for balance diagnostics.
    #[must_use]
    pub fn group_counts(&self, n_rings: usize) -> Vec<usize> {
        let mut counts = vec![0; n_rings];
        for r in &self.map {
            counts[r.0 as usize] += 1;
        }
        counts
    }
}

/// The FDir table in per-flow mode (Twenty-Policy / aRFS-style steering).
#[derive(Debug)]
pub struct PerFlowTable {
    capacity: usize,
    map: sim::fastmap::FastMap<u64, RingId>,
    fallback: RssTable,
    stall_until: Cycles,
    /// Successful insertions.
    pub inserts: u64,
    /// Whole-table flushes triggered by overflow.
    pub flushes: u64,
}

impl PerFlowTable {
    /// Creates a table with the given capacity and an RSS fallback for
    /// flows without an entry.
    #[must_use]
    pub fn new(n_rings: usize, capacity: usize) -> Self {
        Self {
            capacity,
            map: sim::fastmap::FastMap::with_capacity_and_hasher(capacity, Default::default()),
            fallback: RssTable::new(n_rings),
            stall_until: 0,
            inserts: 0,
            flushes: 0,
        }
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the card is mid-flush at `now` (RX missed, TX halted).
    #[must_use]
    pub fn stalled_at(&self, now: Cycles) -> bool {
        now < self.stall_until
    }

    /// Time until which transmissions are halted.
    #[must_use]
    pub fn tx_halted_until(&self) -> Cycles {
        self.stall_until
    }

    /// Inserts (or refreshes) a per-flow entry at `now`. Returns the CPU
    /// cycles the driver spends. Overflow clears the table via a flush,
    /// stalling the card.
    pub fn insert(&mut self, now: Cycles, hash: u64, ring: RingId) -> Cycles {
        if self.map.len() >= self.capacity && !self.map.contains_key(&hash) {
            // The driver cannot remove individual entries (it does not
            // know which connections died), so it flushes everything.
            self.map.clear();
            self.flushes += 1;
            self.stall_until = now + FDIR_FLUSH_SCHEDULE_CYCLES + FDIR_FLUSH_RUN_CYCLES;
        }
        self.map.insert(hash, ring);
        self.inserts += 1;
        FDIR_INSERT_CYCLES
    }

    /// Routes a flow: table hit, or the RSS fallback.
    #[must_use]
    pub fn route(&self, tuple: &FlowTuple) -> RingId {
        let h = tuple.hash();
        self.map
            .get(&h)
            .copied()
            .unwrap_or_else(|| self.fallback.route(h))
    }
}

/// The NIC's active steering configuration.
#[derive(Debug)]
pub enum Steering {
    /// FDir flow-group mode — Affinity-Accept's configuration.
    Groups(FlowGroupTable),
    /// FDir per-flow mode — Twenty-Policy's configuration.
    PerFlow(PerFlowTable),
}

impl Steering {
    /// FDir flow-group steering over `n_rings` rings.
    #[must_use]
    pub fn flow_groups(n_rings: usize, n_groups: u16) -> Self {
        Steering::Groups(FlowGroupTable::new(n_rings, n_groups))
    }

    /// Per-flow FDir steering with an RSS fallback.
    #[must_use]
    pub fn per_flow(n_rings: usize, capacity: usize) -> Self {
        Steering::PerFlow(PerFlowTable::new(n_rings, capacity))
    }

    /// Routes a packet's tuple to a ring.
    #[must_use]
    pub fn route(&self, tuple: &FlowTuple, n_rings: usize) -> RingId {
        let ring = match self {
            Steering::Groups(t) => t.route(tuple),
            Steering::PerFlow(t) => t.route(tuple),
        };
        debug_assert!((ring.0 as usize) < n_rings);
        ring
    }

    /// Whether RX is stalled by a flush at `now`.
    #[must_use]
    pub fn rx_stalled_at(&self, now: Cycles) -> bool {
        match self {
            Steering::PerFlow(t) => t.stalled_at(now),
            _ => false,
        }
    }

    /// Time until which TX is halted by a flush.
    #[must_use]
    pub fn tx_halted_until(&self) -> Cycles {
        match self {
            Steering::PerFlow(t) => t.tx_halted_until(),
            _ => 0,
        }
    }

    /// The flow-group table, if in group mode.
    pub fn groups_mut(&mut self) -> Option<&mut FlowGroupTable> {
        match self {
            Steering::Groups(t) => Some(t),
            _ => None,
        }
    }

    /// The per-flow table, if in per-flow mode.
    pub fn per_flow_mut(&mut self) -> Option<&mut PerFlowTable> {
        match self {
            Steering::PerFlow(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_limited_to_16_rings() {
        let t = RssTable::new(64);
        assert_eq!(t.distinct_rings(), 16);
        for h in 0..1000u64 {
            assert!(t.route(h).0 < 16);
        }
    }

    #[test]
    fn rss_small_ring_counts() {
        let t = RssTable::new(4);
        assert_eq!(t.distinct_rings(), 4);
    }

    #[test]
    fn flow_groups_round_robin_initially() {
        let t = FlowGroupTable::new(48, 4096);
        let counts = t.group_counts(48);
        // 4096 / 48 = 85.33: every ring gets 85 or 86 groups.
        assert!(counts.iter().all(|c| *c == 85 || *c == 86), "{counts:?}");
    }

    #[test]
    fn migrate_moves_group() {
        let mut t = FlowGroupTable::new(4, 16);
        let g = 5u16;
        assert_eq!(t.ring_of(g), RingId(1));
        let cost = t.migrate(g, RingId(3));
        assert_eq!(cost, FDIR_TABLE_WRITE_CYCLES);
        assert_eq!(t.ring_of(g), RingId(3));
        assert_eq!(t.reprograms, 1);
        assert!(t.groups_of(RingId(3)).contains(&g));
    }

    #[test]
    fn per_flow_insert_then_route_hits() {
        let mut t = PerFlowTable::new(16, 100);
        let tuple = FlowTuple::client(1, 777, 80);
        let cost = t.insert(0, tuple.hash(), RingId(9));
        assert_eq!(cost, FDIR_INSERT_CYCLES);
        assert_eq!(t.route(&tuple), RingId(9));
    }

    #[test]
    fn per_flow_fallback_via_rss() {
        let t = PerFlowTable::new(16, 100);
        let tuple = FlowTuple::client(1, 777, 80);
        assert!(t.route(&tuple).0 < 16);
    }

    #[test]
    fn per_flow_overflow_flushes_and_stalls() {
        let mut t = PerFlowTable::new(16, 4);
        for i in 0..4u64 {
            t.insert(0, i, RingId(0));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.flushes, 0);
        t.insert(1000, 99, RingId(1));
        assert_eq!(t.flushes, 1);
        // Everything but the new entry is gone.
        assert_eq!(t.len(), 1);
        assert!(t.stalled_at(1000 + 1));
        assert!(t.stalled_at(1000 + FDIR_FLUSH_SCHEDULE_CYCLES + FDIR_FLUSH_RUN_CYCLES - 1));
        assert!(!t.stalled_at(1000 + FDIR_FLUSH_SCHEDULE_CYCLES + FDIR_FLUSH_RUN_CYCLES));
    }

    #[test]
    fn refresh_of_existing_entry_never_flushes() {
        let mut t = PerFlowTable::new(16, 2);
        t.insert(0, 1, RingId(0));
        t.insert(0, 2, RingId(0));
        t.insert(0, 1, RingId(1)); // refresh
        assert_eq!(t.flushes, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn steering_enum_dispatch() {
        let mut s = Steering::flow_groups(8, 64);
        let tuple = FlowTuple::client(5, 100, 80);
        let r1 = s.route(&tuple, 8);
        assert!(r1.0 < 8);
        assert!(s.groups_mut().is_some());
        assert!(s.per_flow_mut().is_none());
        assert!(!s.rx_stalled_at(0));
        assert_eq!(s.tx_halted_until(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The flow-group table is total: every possible tuple routes to a
        /// valid ring, always the same one for the same tuple.
        #[test]
        fn group_routing_total_and_stable(
            src_ip in any::<u32>(),
            src_port in any::<u16>(),
        ) {
            let t = FlowGroupTable::new(48, 4096);
            let tuple = FlowTuple::client(src_ip, src_port, 80);
            let r = t.route(&tuple);
            prop_assert!((r.0 as usize) < 48);
            prop_assert_eq!(t.route(&tuple), r);
        }

        /// The per-flow table never exceeds its capacity.
        #[test]
        fn per_flow_capacity_respected(hashes in proptest::collection::vec(any::<u64>(), 1..500)) {
            let mut t = PerFlowTable::new(8, 64);
            for (i, h) in hashes.iter().enumerate() {
                t.insert(i as u64 * 100, *h, RingId((i % 8) as u16));
                prop_assert!(t.len() <= 64);
            }
        }
    }
}
