//! The cache-coherence cost model.
//!
//! Tracked kernel objects are split into 64-byte lines; each line carries a
//! MESI-flavoured state: the set of cores holding a copy, the most recent
//! toucher, and a dirty bit. The owner needs no field of its own: a dirty
//! line has exactly one holder, its last writer. An access is served — at
//! the Table 1 latency — from:
//!
//! * **L1** if this core touched the line most recently,
//! * **L2** if this core still holds a valid copy,
//! * **L3** if a core on the same chip holds it,
//! * **remote L3** if a core on another chip holds it modified (a
//!   cache-to-cache transfer across the interconnect — the expensive case
//!   §2.2 describes),
//! * **local or remote DRAM** otherwise, depending on the line's home node.
//!
//! Writes invalidate all other copies, which is what makes ping-ponged
//! connection state expensive: every direction switch between the packet
//! side and the application side re-fetches the line from a remote cache.
//!
//! An access beyond L2 counts as an L2 miss (Table 3's third counter).
//!
//! An access reads only the line states it touches: a line state is 12
//! bytes, an [`ObjId`] carries the object's type, home chip and the arena
//! index of its first line, and each type's fields are compiled once into
//! line runs (`layout::plans`).

use crate::dprof::{DProf, LineAgg};
use crate::layout::{self, Plan, Run};
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use sim::topology::{CoreId, Machine};

/// Identifies one tracked object instance, and says where its lines are:
/// bits 0..32 hold the arena index of its first line, bits 32..36 its
/// [`DataType::index`], bits 36..40 its home chip, and bits 40..64 its
/// allocation ordinal, which indexes the profilers' side table. The
/// ordinal is the top field, so ids compare in allocation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjId(pub u64);

const _: () = assert!(DataType::ALL.len() <= 16);

impl ObjId {
    const TYPE_SHIFT: u32 = 32;
    const CHIP_SHIFT: u32 = 36;
    const ORDINAL_SHIFT: u32 = 40;

    fn new(first: usize, ty: DataType, home_chip: u16, ordinal: usize) -> Self {
        let first = u32::try_from(first).expect("line arena index fits 32 bits");
        assert!(home_chip < 16, "home chip {home_chip} does not fit 4 bits");
        assert!(
            ordinal < 1 << 24,
            "allocation ordinal {ordinal} does not fit 24 bits"
        );
        Self(
            u64::from(first)
                | (ty.index() as u64) << Self::TYPE_SHIFT
                | u64::from(home_chip) << Self::CHIP_SHIFT
                | (ordinal as u64) << Self::ORDINAL_SHIFT,
        )
    }

    fn first_line(self) -> usize {
        self.0 as u32 as usize
    }

    fn type_index(self) -> usize {
        (self.0 >> Self::TYPE_SHIFT) as usize & 0xf
    }

    fn ty(self) -> DataType {
        DataType::from_index(self.type_index())
    }

    fn home_chip(self) -> u16 {
        (self.0 >> Self::CHIP_SHIFT) as u16 & 0xf
    }

    fn ordinal(self) -> usize {
        (self.0 >> Self::ORDINAL_SHIFT) as usize
    }
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ServiceLevel {
    L1,
    L2,
    L3,
    Ram,
    RemoteL3,
    RemoteRam,
}

impl ServiceLevel {
    /// Whether this access missed the private L1/L2 hierarchy.
    #[must_use]
    pub fn is_l2_miss(self) -> bool {
        !matches!(self, ServiceLevel::L1 | ServiceLevel::L2)
    }
}

/// Cost summary of one (possibly multi-line) access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Access {
    /// Total latency in cycles.
    pub latency: u64,
    /// Number of line touches that missed L2.
    pub l2_misses: u64,
}

impl Access {
    /// Accumulates another access into this one.
    pub fn add(&mut self, other: Access) {
        self.latency += other.latency;
        self.l2_misses += other.l2_misses;
    }
}

/// Cores a line's sharer mask can name.
const MAX_CORES: usize = 88;

/// Lines per arena chunk: 384 KiB of line state. A constant, so the chunks
/// one model frees are reused whole by the next model built in the process.
const CHUNK_LINES: usize = 32_768;

/// One line's coherence state in 12 bytes: the sharer mask in bits 0..88,
/// the most recent toucher (the L1 heuristic) in the next 7 bits, and the
/// dirty flag in bit 95. Two invariants make a fuller state redundant:
///
/// * a dirty line has exactly one holder, its last writer, so the owner is
///   the mask's lowest set bit;
/// * a line that was cached once never returns to zero holders, so an empty
///   mask means the line was never fetched.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(4))]
struct LineState {
    /// Bits 0..64.
    lo: u64,
    /// Bits 64..96.
    hi: u32,
}

const _: () = assert!(std::mem::size_of::<LineState>() == 12);

impl LineState {
    const SHARERS: u128 = (1 << MAX_CORES) - 1;
    const DIRTY: u128 = 1 << 95;

    fn new(sharers: u128, last: usize, dirty: bool) -> Self {
        let bits = sharers | (last as u128) << MAX_CORES | u128::from(dirty) << 95;
        Self {
            lo: bits as u64,
            hi: (bits >> 64) as u32,
        }
    }

    fn bits(self) -> u128 {
        u128::from(self.lo) | u128::from(self.hi) << 64
    }

    fn sharers(self) -> u128 {
        self.bits() & Self::SHARERS
    }

    fn last(self) -> usize {
        (self.bits() >> MAX_CORES) as usize & 0x7f
    }

    fn dirty(self) -> bool {
        self.bits() & Self::DIRTY != 0
    }
}

/// Serves one access by core `c` (on `my_chip`) to line `ls` of an object
/// homed on `home_chip`, and applies the coherence transition.
#[inline]
fn touch_one(
    chip_of: &[u16],
    chip_mask: &[u128],
    home_chip: u16,
    ls: &mut LineState,
    c: usize,
    my_chip: u16,
    write: bool,
) -> ServiceLevel {
    let me = 1u128 << c;
    let sharers = ls.sharers();
    let level = if sharers & me != 0 {
        if write && sharers != me {
            // Upgrade: invalidate other sharers.
            let others = sharers & !me;
            if others & chip_mask[my_chip as usize] == others {
                ServiceLevel::L3
            } else {
                ServiceLevel::RemoteL3
            }
        } else if ls.last() == c {
            ServiceLevel::L1
        } else {
            ServiceLevel::L2
        }
    } else if sharers == 0 {
        // Cold lines are charged local DRAM: they are brought in by the
        // allocating core whose chip is the home node.
        ServiceLevel::Ram
    } else if ls.dirty() {
        // The one holder of a dirty line is its last writer.
        let owner = sharers.trailing_zeros() as usize;
        if chip_of[owner] == my_chip {
            ServiceLevel::L3
        } else {
            ServiceLevel::RemoteL3
        }
    } else if sharers & chip_mask[my_chip as usize] != 0 {
        ServiceLevel::L3
    } else if home_chip == my_chip {
        ServiceLevel::Ram
    } else {
        ServiceLevel::RemoteRam
    };
    *ls = if write {
        LineState::new(me, c, true)
    } else {
        // A read by another core downgrades Modified to Shared (the
        // owner's copy is written back).
        LineState::new(sharers | me, c, ls.dirty() && sharers & me != 0)
    };
    level
}

/// DProf's state for one object. Each part is `None` until its profiler is
/// on at the object's alloc or at a later recycle.
#[derive(Debug)]
struct ObjProf {
    ty: DataType,
    /// Per-field core masks (Table 4): the readers of every field, then
    /// the writers.
    masks: Option<Box<[u128]>>,
    /// dprof-v2 ledger, one entry per modeled line: the bytes touched
    /// since the line's last fill, 0 when no filled generation is open.
    ledger: Option<Box<[u64]>>,
}

impl ObjProf {
    fn new(ty: DataType) -> Self {
        Self {
            ty,
            masks: None,
            ledger: None,
        }
    }

    /// Starts tracking every part whose profiler is on.
    fn start(&mut self, n_lines: usize, dprof: &DProf) {
        if self.masks.is_none() && dprof.is_enabled() {
            self.masks = Some(vec![0; 2 * layout::fields(self.ty).len()].into());
        }
        if self.ledger.is_none() && dprof.is_v2_enabled() {
            self.ledger = Some(vec![0; n_lines].into());
        }
    }

    /// Folds this incarnation into DProf and resets for the next one.
    fn fold(&mut self, dprof: &mut DProf) {
        if let Some(masks) = self.masks.as_mut() {
            let (readers, writers) = masks.split_at(masks.len() / 2);
            dprof.fold_instance(self.ty, readers, writers);
            masks.fill(0);
        }
        if let Some(ledger) = self.ledger.as_mut() {
            let mut delta = LineAgg::default();
            for line in ledger.iter_mut() {
                delta.settle(line);
            }
            dprof.v2_fold(&delta);
        }
    }
}

/// The machine-wide coherence model. See the module docs.
///
/// Objects are never freed, only recycled through the slab pools, so their
/// line states live in an arena without holes: back to back in fixed
/// chunks of [`CHUNK_LINES`] that no object straddles. An [`ObjId`] holds
/// everything needed to reach them, so the model keeps no per-object table.
#[derive(Debug)]
pub struct CacheModel {
    machine: Machine,
    /// Table 1 latencies, indexed by `ServiceLevel as usize`.
    lat: [u64; 6],
    /// Every type's compiled fields, `layout::plans()`.
    plans: &'static [Plan],
    chip_of: Vec<u16>,
    chip_mask: Vec<u128>,
    chunks: Vec<Box<[LineState]>>,
    /// Lines used in the last chunk.
    fill: usize,
    /// Objects allocated so far: the next allocation ordinal.
    live: usize,
    /// Profiler state, indexed by allocation ordinal; empty until a
    /// profiler is on at an alloc or recycle.
    profs: Vec<Option<ObjProf>>,
    /// The DProf profiler; enable before a run to collect Table 4 /
    /// Figure 4 data.
    pub dprof: DProf,
}

impl CacheModel {
    /// Creates a model for the given machine.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        assert!(machine.n_cores <= MAX_CORES, "core masks are 88 bits");
        let chip_of: Vec<u16> = (0..machine.n_cores)
            .map(|i| machine.chip_of(CoreId(i as u16)).0)
            .collect();
        let n_chips = machine.n_chips();
        let mut chip_mask = vec![0u128; n_chips];
        for (core, chip) in chip_of.iter().enumerate() {
            chip_mask[*chip as usize] |= 1u128 << core;
        }
        let l = machine.lat;
        Self {
            lat: [l.l1, l.l2, l.l3, l.ram, l.remote_l3, l.remote_ram],
            machine,
            plans: layout::plans(),
            chip_of,
            chip_mask,
            chunks: Vec::new(),
            // Full, so the first alloc opens a chunk.
            fill: CHUNK_LINES,
            live: 0,
            profs: Vec::new(),
            dprof: DProf::disabled(),
        }
    }

    /// The machine this model simulates.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of live tracked objects.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.live
    }

    /// Allocates a fresh object of `ty`, homed on `core`'s chip. All its
    /// lines start uncached (first accesses are compulsory misses).
    ///
    /// # Panics
    ///
    /// Panics if a part of the new [`ObjId`] overflows its bits.
    pub fn alloc(&mut self, ty: DataType, core: CoreId) -> ObjId {
        // Only the hot prefix is materialized; cold LocalOnly tails are
        // never touched by the data path.
        let n_lines = usize::from(self.plans[ty.index()].hot_lines);
        if self.fill + n_lines > CHUNK_LINES {
            self.chunks
                .push(vec![LineState::default(); CHUNK_LINES].into());
            self.fill = 0;
        }
        let first = (self.chunks.len() - 1) * CHUNK_LINES + self.fill;
        self.fill += n_lines;
        let ordinal = self.live;
        let id = ObjId::new(first, ty, self.chip_of[core.index()], ordinal);
        self.live += 1;
        if self.dprof.is_enabled() || self.dprof.is_v2_enabled() {
            self.profs.resize_with(ordinal, || None);
            let mut p = ObjProf::new(ty);
            p.start(n_lines, &self.dprof);
            self.profs.push(Some(p));
        }
        id
    }

    /// The type `id` was allocated with.
    #[must_use]
    pub fn type_of(&self, id: ObjId) -> DataType {
        id.ty()
    }

    /// Recycles an object for slab reuse: folds and resets its sharing
    /// profile but **keeps the line coherence state**, because reusing
    /// memory freed by another core starts from that core's cached lines.
    /// An object allocated before a profiler was on starts being tracked
    /// here.
    pub fn recycle(&mut self, id: ObjId) {
        let ord = id.ordinal();
        if (self.dprof.is_enabled() || self.dprof.is_v2_enabled()) && self.profs.len() <= ord {
            self.profs.resize_with(ord + 1, || None);
        }
        if let Some(slot) = self.profs.get_mut(ord) {
            let p = slot.get_or_insert_with(|| ObjProf::new(id.ty()));
            p.fold(&mut self.dprof);
            p.start(
                usize::from(self.plans[id.type_index()].hot_lines),
                &self.dprof,
            );
        }
    }

    /// Folds all live objects' profiles into DProf (end of a measured run).
    pub fn fold_all_live(&mut self) {
        for p in self.profs.iter_mut().flatten() {
            p.fold(&mut self.dprof);
        }
    }

    /// Touches the lines of `runs` in object `id` from `core`, and records
    /// the accesses with the profilers tracking the object.
    #[inline]
    fn access(&mut self, core: CoreId, id: ObjId, runs: &[Run], write: bool) -> Access {
        let c = core.index();
        let my_chip = self.chip_of[c];
        let home_chip = id.home_chip();
        let (chunk, span) = self.span(id);
        let lines = &mut self.chunks[chunk][span];
        let dprof_on = self.dprof.is_enabled();
        let v2_on = self.dprof.is_v2_enabled();
        let (mut masks, mut ledger) = match self.profs.get_mut(id.ordinal()) {
            Some(Some(p)) => (
                p.masks.as_deref_mut().filter(|_| dprof_on),
                p.ledger.as_deref_mut().filter(|_| v2_on),
            ),
            _ => (None, None),
        };
        let mut acc = Access::default();
        let mut delta = LineAgg::default();
        for run in runs {
            let mut latency = 0;
            for line in run.lines() {
                let ls = &mut lines[line];
                // A fill is an access by a core holding no copy — computed
                // before `touch_one` mutates the sharer set.
                let filled = (ls.sharers() >> c) & 1 == 0;
                let level = touch_one(
                    &self.chip_of,
                    &self.chip_mask,
                    home_chip,
                    ls,
                    c,
                    my_chip,
                    write,
                );
                latency += self.lat[level as usize];
                acc.l2_misses += u64::from(level.is_l2_miss());
                if let Some(ledger) = ledger.as_deref_mut() {
                    delta.touch(&mut ledger[line], filled, run.byte_mask(line));
                }
            }
            if dprof_on {
                if let Some(masks) = masks.as_deref_mut() {
                    let writers = if write { masks.len() / 2 } else { 0 };
                    masks[writers + usize::from(run.field)] |= 1u128 << c;
                }
                if run.tag.shared_under_fine() {
                    self.dprof.record_shared_access(id.ty(), latency);
                }
            }
            acc.latency += latency;
        }
        if v2_on {
            self.dprof.v2_fold(&delta);
        }
        acc
    }

    /// Accesses one field of an object; returns the total cost.
    ///
    /// # Panics
    ///
    /// Panics if the field index is out of range or the field lies in the
    /// type's unmodeled cold tail.
    pub fn access_field(
        &mut self,
        core: CoreId,
        id: ObjId,
        field_idx: usize,
        write: bool,
    ) -> Access {
        let plans = self.plans;
        let run = &plans[id.type_index()].fields[field_idx];
        self.access(core, id, std::slice::from_ref(run), write)
    }

    /// Accesses every field of `id` carrying `tag`, in field order. Fields
    /// in the type's unmodeled cold tail (`LocalOnly` past
    /// `layout::hot_lines`) are not touched.
    pub fn access_tagged(
        &mut self,
        core: CoreId,
        id: ObjId,
        tag: layout::FieldTag,
        write: bool,
    ) -> Access {
        let plans = self.plans;
        self.access(core, id, plans[id.type_index()].tagged(tag), write)
    }

    /// [`Self::access_tagged`] over only the first `n` of those fields (all
    /// of them if fewer carry `tag`).
    pub fn access_tagged_first(
        &mut self,
        core: CoreId,
        id: ObjId,
        tag: layout::FieldTag,
        write: bool,
        n: usize,
    ) -> Access {
        let plans = self.plans;
        let runs = plans[id.type_index()].tagged(tag);
        self.access(core, id, &runs[..n.min(runs.len())], write)
    }

    /// The chunk holding an object's lines, and their range in it.
    fn span(&self, id: ObjId) -> (usize, std::ops::Range<usize>) {
        let first = id.first_line();
        let off = first % CHUNK_LINES;
        let hot = usize::from(self.plans[id.type_index()].hot_lines);
        (first / CHUNK_LINES, off..off + hot)
    }

    fn line(&self, id: ObjId, line: usize) -> LineState {
        let (chunk, span) = self.span(id);
        self.chunks[chunk][span][line]
    }

    /// Whether the given line of an object is currently dirty in some cache.
    #[must_use]
    pub fn line_dirty(&self, id: ObjId, line: usize) -> bool {
        self.line(id, line).dirty()
    }

    /// Sharer count of a line (for invariants and tests).
    #[must_use]
    pub fn line_sharers(&self, id: ObjId, line: usize) -> u32 {
        self.line(id, line).sharers().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0); // chip 0
    const C1: CoreId = CoreId(1); // chip 0
    const C6: CoreId = CoreId(6); // chip 1 (AMD: 6 cores per chip)

    fn model() -> CacheModel {
        CacheModel::new(Machine::amd48())
    }

    fn first_field(m: &CacheModel, id: ObjId) -> usize {
        let _ = m;
        let _ = id;
        0
    }

    #[test]
    fn first_access_is_compulsory_ram_miss() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        let f = first_field(&m, id);
        let a = m.access_field(C0, id, f, true);
        assert!(a.l2_misses >= 1);
        assert_eq!(a.latency, Machine::amd48().lat.ram);
    }

    #[test]
    fn repeated_local_access_hits_l1() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true);
        let a = m.access_field(C0, id, 0, false);
        assert_eq!(a.latency, Machine::amd48().lat.l1);
        assert_eq!(a.l2_misses, 0);
    }

    #[test]
    fn cross_chip_dirty_read_costs_remote_l3() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true);
        let a = m.access_field(C6, id, 0, false);
        assert_eq!(a.latency, Machine::amd48().lat.remote_l3);
        assert!(a.l2_misses >= 1);
    }

    #[test]
    fn same_chip_dirty_read_costs_l3() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true);
        let a = m.access_field(C1, id, 0, false);
        assert_eq!(a.latency, Machine::amd48().lat.l3);
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true);
        m.access_field(C6, id, 0, false);
        assert_eq!(m.line_sharers(id, 0), 2);
        // C0 writes again: upgrade invalidates C6's copy.
        let a = m.access_field(C0, id, 0, true);
        assert_eq!(m.line_sharers(id, 0), 1);
        assert_eq!(a.latency, Machine::amd48().lat.remote_l3);
        // C6 must now re-fetch remotely.
        let b = m.access_field(C6, id, 0, false);
        assert_eq!(b.latency, Machine::amd48().lat.remote_l3);
    }

    #[test]
    fn ping_pong_is_expensive_local_reuse_is_cheap() {
        // The paper's core claim in miniature: alternate writer cores pay
        // remote latencies every access; a single core pays L1.
        let mut m = model();
        let shared = m.alloc(DataType::TcpRequestSock, C0);
        let local = m.alloc(DataType::TcpRequestSock, C0);
        let mut shared_cost = 0;
        let mut local_cost = 0;
        for i in 0..10 {
            let c = if i % 2 == 0 { C0 } else { C6 };
            shared_cost += m.access_field(c, shared, 0, true).latency;
            local_cost += m.access_field(C0, local, 0, true).latency;
        }
        assert!(
            shared_cost > 5 * local_cost,
            "{shared_cost} vs {local_cost}"
        );
    }

    #[test]
    fn clean_remote_ram_for_cross_chip_home() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        // Warm the line and let it be "evicted" logically by writing from
        // home, then reading cleanly from a remote chip after invalidation.
        m.access_field(C0, id, 0, true);
        m.access_field(C6, id, 0, false); // remote_l3, now shared clean
                                          // A third chip reads a clean line: same-chip? no; dirty? no; so it
                                          // comes from the home node's DRAM (remote for chip 2).
        let c12 = CoreId(12);
        let a = m.access_field(c12, id, 0, false);
        // Clean data with a sharer on another chip: served from home DRAM.
        assert_eq!(a.latency, Machine::amd48().lat.remote_ram);
    }

    #[test]
    fn recycle_keeps_line_state() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C6);
        m.access_field(C6, id, 0, true);
        m.recycle(id);
        // Reused on C0: the line is still dirty in C6's cache — remote miss.
        let a = m.access_field(C0, id, 0, true);
        assert_eq!(a.latency, Machine::amd48().lat.remote_l3);
    }

    #[test]
    fn access_tagged_touches_all_tagged_fields() {
        let mut m = model();
        let id = m.alloc(DataType::TcpSock, C0);
        let a = m.access_tagged(C0, id, layout::FieldTag::GlobalNode, true);
        let n_globals =
            layout::fields_with_tag(DataType::TcpSock, layout::FieldTag::GlobalNode).len();
        assert_eq!(a.l2_misses as usize, n_globals); // all cold
    }

    #[test]
    fn dprof_disabled_by_default_costs_nothing_extra() {
        let m = model();
        assert!(!m.dprof.is_enabled());
        assert!(!m.dprof.is_v2_enabled());
        assert!(!m.dprof.cacheline_stats().enabled);
    }

    /// The v2 audit laws, checked straight off the cache model: byte
    /// conservation and 64 bytes per fill.
    #[cfg(not(feature = "fast"))]
    fn v2_totals(m: &CacheModel) -> LineAgg {
        let t = m.dprof.cacheline_stats().totals();
        assert_eq!(t.bytes_touched + t.bytes_wasted, t.bytes_fetched);
        assert_eq!(t.bytes_fetched, 64 * t.fills);
        t
    }

    #[cfg(not(feature = "fast"))]
    #[test]
    fn v2_ledger_conserves_bytes_across_fills() {
        let mut m = model();
        m.dprof.enable_v2();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true); // fill
        m.access_field(C0, id, 0, false); // reuse, same generation
        m.access_field(C6, id, 0, false); // fill on C6 (new generation)
        m.access_field(C0, id, 0, true); // upgrade: C0 still holds a copy
        m.fold_all_live();
        let t = v2_totals(&m);
        assert_eq!(t.touches, 4);
        // C0's compulsory miss and C6's fetch are the only fills: the final
        // write is an upgrade on a line C0 still shares.
        assert_eq!(t.fills, 2);
        assert!(t.bytes_wasted > 0, "a lone field never fills its line");
    }

    #[cfg(not(feature = "fast"))]
    #[test]
    fn v2_touch_of_a_resident_line_after_recycle_is_no_fill() {
        let mut m = model();
        m.dprof.enable_v2();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true);
        m.recycle(id); // settles the open generation
        m.access_field(C0, id, 0, false); // line still resident: no fetch
        m.fold_all_live();
        let t = v2_totals(&m);
        assert_eq!((t.fills, t.touches), (1, 2));
    }

    #[cfg(not(feature = "fast"))]
    #[test]
    fn v2_enabled_after_alloc_starts_tracking_on_recycle() {
        let mut m = model();
        let id = m.alloc(DataType::TcpRequestSock, C0);
        m.access_field(C0, id, 0, true); // before v2: not recorded
        m.dprof.enable_v2();
        m.recycle(id);
        m.access_field(C0, id, 0, false);
        m.fold_all_live();
        let t = v2_totals(&m);
        assert_eq!((t.fills, t.touches, t.bytes_fetched), (0, 1, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::layout::FieldTag;
    use crate::types::CACHE_LINE;
    use proptest::prelude::*;
    use sim::topology::LatencyProfile;

    /// The explicit-field line state that [`LineState`] packs into 12
    /// bytes, kept as the reference for the differential test below.
    #[derive(Debug, Clone, Copy, Default)]
    struct RefLine {
        sharers: u128,
        /// Last writer.
        owner: u16,
        last: u16,
        dirty: bool,
        /// Whether the line has ever been cached.
        warm: bool,
        /// Bytes touched since the line's last fill; `None` when no fill
        /// opened a generation.
        fill: Option<u64>,
    }

    /// One object's reference for both profilers: its lines, and the
    /// reader and writer core sets of each field.
    #[derive(Debug, Clone)]
    struct RefObj {
        home_chip: u16,
        lines: Vec<RefLine>,
        readers: Vec<u128>,
        writers: Vec<u128>,
    }

    /// What the profilers should have recorded: the ledger's run total
    /// and, per type index, DProf's `[instances, shared_lines,
    /// shared_bytes, shared_rw_bytes, cycles_on_shared, latency_samples]`.
    #[derive(Debug, Default)]
    struct RefProfile {
        ledger: LineAgg,
        table4: [[u64; 6]; DataType::ALL.len()],
    }

    impl RefProfile {
        /// Closes a line's generation, if one is open.
        fn settle(&mut self, line: &mut RefLine) {
            if let Some(mask) = line.fill.take() {
                let touched = u64::from(mask.count_ones());
                self.ledger.bytes_fetched += 64;
                self.ledger.bytes_touched += touched;
                self.ledger.bytes_wasted += 64 - touched;
            }
        }

        /// Folds an object's incarnation: settles its lines, and counts
        /// its sharing the way Table 4 defines it if any field was touched.
        fn fold(&mut self, ty: DataType, obj: &mut RefObj) {
            for line in &mut obj.lines {
                self.settle(line);
            }
            let fields = layout::fields(ty);
            let t = &mut self.table4[ty.index()];
            let cores = |fi: usize| obj.readers[fi] | obj.writers[fi];
            if (0..fields.len()).any(|fi| cores(fi) != 0) {
                t[0] += 1;
                for l in 0..ty.lines() {
                    let on_line = (0..fields.len())
                        .filter(|&fi| fields[fi].lines().any(|fl| fl == l))
                        .fold(0, |m, fi| m | cores(fi));
                    t[1] += u64::from(on_line.count_ones() >= 2);
                }
                for (fi, f) in fields.iter().enumerate() {
                    if cores(fi).count_ones() >= 2 {
                        t[2] += f.len as u64;
                        if obj.writers[fi] != 0 {
                            t[3] += f.len as u64;
                        }
                    }
                }
            }
            obj.readers.fill(0);
            obj.writers.fill(0);
        }
    }

    /// The bytes of line `l` that field `f` covers, one bit per byte.
    fn ref_byte_mask(f: &layout::Field, l: usize) -> u64 {
        (f.off..f.off + f.len)
            .filter(|b| b / CACHE_LINE == l)
            .fold(0, |m, b| m | 1 << (b % CACHE_LINE))
    }

    /// [`touch_one`] over the explicit fields, as the model computed it
    /// before `owner` and `warm` became implied.
    fn ref_touch_one(
        chip_of: &[u16],
        chip_mask: &[u128],
        home_chip: u16,
        ls: &mut RefLine,
        c: usize,
        my_chip: u16,
        write: bool,
    ) -> ServiceLevel {
        let me = 1u128 << c;
        let level;
        if ls.sharers & me != 0 {
            if write && ls.sharers != me {
                let others = ls.sharers & !me;
                let same_chip = others & chip_mask[my_chip as usize] == others;
                level = if same_chip {
                    ServiceLevel::L3
                } else {
                    ServiceLevel::RemoteL3
                };
            } else {
                level = if ls.last == c as u16 {
                    ServiceLevel::L1
                } else {
                    ServiceLevel::L2
                };
            }
        } else if ls.sharers == 0 {
            level = if !ls.warm || home_chip == my_chip {
                ServiceLevel::Ram
            } else {
                ServiceLevel::RemoteRam
            };
        } else if ls.dirty {
            let owner_chip = chip_of[ls.owner as usize];
            level = if owner_chip == my_chip {
                ServiceLevel::L3
            } else {
                ServiceLevel::RemoteL3
            };
        } else if ls.sharers & chip_mask[my_chip as usize] != 0 {
            level = ServiceLevel::L3;
        } else {
            level = if home_chip == my_chip {
                ServiceLevel::Ram
            } else {
                ServiceLevel::RemoteRam
            };
        }
        if write {
            ls.sharers = me;
            ls.dirty = true;
            ls.owner = c as u16;
        } else {
            if ls.dirty && ls.owner != c as u16 {
                ls.dirty = false;
            }
            ls.sharers |= me;
        }
        ls.last = c as u16;
        ls.warm = true;
        level
    }

    /// A level's Table 1 latency, matched out field by field.
    fn ref_cycles(level: ServiceLevel, lat: &LatencyProfile) -> u64 {
        match level {
            ServiceLevel::L1 => lat.l1,
            ServiceLevel::L2 => lat.l2,
            ServiceLevel::L3 => lat.l3,
            ServiceLevel::Ram => lat.ram,
            ServiceLevel::RemoteL3 => lat.remote_l3,
            ServiceLevel::RemoteRam => lat.remote_ram,
        }
    }

    const TAGS: [FieldTag; 7] = [
        FieldTag::RxOnly,
        FieldTag::AppOnly,
        FieldTag::BothRwByRx,
        FieldTag::BothRwByApp,
        FieldTag::BothRo,
        FieldTag::GlobalNode,
        FieldTag::LocalOnly,
    ];

    proptest! {
        /// Coherence invariant: a dirty line has exactly one sharer; the
        /// owner of a dirty line is always in the sharer set.
        #[test]
        fn dirty_implies_exclusive(ops in proptest::collection::vec((0usize..48, any::<bool>()), 1..200)) {
            let mut m = CacheModel::new(Machine::amd48());
            let id = m.alloc(DataType::TcpRequestSock, CoreId(0));
            for (core, write) in ops {
                m.access_field(CoreId(core as u16), id, 0, write);
                if m.line_dirty(id, 0) {
                    prop_assert_eq!(m.line_sharers(id, 0), 1);
                }
                prop_assert!(m.line_sharers(id, 0) >= 1);
            }
        }

        /// The packed line state and compiled runs against the
        /// explicit-field reference walked over `layout::fields`: the same
        /// random reads and writes, of one field, of every field with a
        /// tag and of the first n of them, and recycles, on objects of
        /// every type spread over three arena chunks, cost the same and
        /// leave the same sharers and dirty bits, on both machines and
        /// with the profilers on or off. Every id decodes to the type,
        /// home chip and first line it was allocated with. With the
        /// profilers on, the ledger's totals and DProf's per-type folds
        /// equal a reference that keeps each line's fill mask and each
        /// field's reader and writer cores.
        #[test]
        fn packed_lines_match_the_explicit_reference(
            intel in any::<bool>(),
            profiled in any::<bool>(),
            steps in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>(), 0u8..7), 1..300),
        ) {
            let machine = if intel { Machine::intel80() } else { Machine::amd48() };
            let n_cores = machine.n_cores;
            let mut m = CacheModel::new(machine.clone());
            if profiled {
                m.dprof = DProf::enabled();
                m.dprof.enable_v2();
            }
            let chip_of = m.chip_of.clone();
            let chip_mask = m.chip_mask.clone();
            let recording = profiled && cfg!(not(feature = "fast"));
            let mut profile = RefProfile::default();
            let mut reference: Vec<RefObj> = Vec::new();
            let mut ids = Vec::new();
            for k in 0.. {
                if m.chunks.len() == 3 && m.fill > CHUNK_LINES / 2 {
                    break;
                }
                let ty = DataType::ALL[k % DataType::ALL.len()];
                let core = CoreId((k % n_cores) as u16);
                ids.push(m.alloc(ty, core));
                let nf = layout::fields(ty).len();
                reference.push(RefObj {
                    home_chip: chip_of[core.index()],
                    lines: vec![RefLine::default(); layout::hot_lines(ty)],
                    readers: vec![0; nf],
                    writers: vec![0; nf],
                });
            }
            prop_assert_eq!(m.live_objects(), ids.len());
            // The arena's rule: objects back to back, none straddling a
            // chunk.
            let mut expect_first = 0;
            for (k, &id) in ids.iter().enumerate() {
                let ty = DataType::ALL[k % DataType::ALL.len()];
                let hot = layout::hot_lines(ty);
                if expect_first % CHUNK_LINES + hot > CHUNK_LINES {
                    expect_first = expect_first.next_multiple_of(CHUNK_LINES);
                }
                prop_assert_eq!(m.type_of(id), ty);
                prop_assert_eq!(id.home_chip(), reference[k].home_chip);
                prop_assert_eq!(id.first_line(), expect_first, "{:?} #{}", ty, k);
                prop_assert_eq!(id.ordinal(), k);
                expect_first += hot;
            }
            // A working set with the objects on both sides of each chunk
            // boundary, and a spread of others.
            let chunk_of = |i: usize| ids[i].first_line() / CHUNK_LINES;
            let set: Vec<usize> = (0..ids.len())
                .filter(|&i| {
                    i % 997 == 0
                        || i + 1 == ids.len()
                        || (i > 0 && chunk_of(i) != chunk_of(i - 1))
                        || (i + 1 < ids.len() && chunk_of(i) != chunk_of(i + 1))
                })
                .collect();
            for (obj, core, pick, op) in steps {
                let i = set[obj % set.len()];
                let id = ids[i];
                let ty = m.type_of(id);
                let obj = &mut reference[i];
                if op == 0 {
                    m.recycle(id);
                    profile.fold(ty, obj);
                } else {
                    let c = core % n_cores;
                    let write = op % 2 == 0;
                    let fields = layout::fields(ty);
                    let hot = layout::hot_lines(ty);
                    let modeled: Vec<usize> = (0..fields.len())
                        .filter(|&fi| fields[fi].lines().all(|l| l < hot))
                        .collect();
                    let tag = TAGS[pick % TAGS.len()];
                    let tagged = modeled.iter().copied().filter(|&fi| fields[fi].tag == tag);
                    let core_id = CoreId(c as u16);
                    let (got, fis): (Access, Vec<usize>) = match op {
                        1 | 2 => {
                            let fi = modeled[pick % modeled.len()];
                            (m.access_field(core_id, id, fi, write), vec![fi])
                        }
                        3 | 4 => (m.access_tagged(core_id, id, tag, write), tagged.collect()),
                        _ => {
                            let n = pick / TAGS.len() % 5;
                            (m.access_tagged_first(core_id, id, tag, write, n), tagged.take(n).collect())
                        }
                    };
                    let mut want = Access::default();
                    for &fi in &fis {
                        let mut latency = 0;
                        for l in fields[fi].lines() {
                            let line = &mut obj.lines[l];
                            let filled = (line.sharers >> c) & 1 == 0;
                            let level = ref_touch_one(&chip_of, &chip_mask, obj.home_chip, line, c, chip_of[c], write);
                            latency += ref_cycles(level, &machine.lat);
                            want.l2_misses += u64::from(level.is_l2_miss());
                            let mask = ref_byte_mask(&fields[fi], l);
                            profile.ledger.touches += 1;
                            if filled {
                                profile.settle(line);
                                profile.ledger.fills += 1;
                                line.fill = Some(mask);
                            } else if let Some(open) = line.fill.as_mut() {
                                *open |= mask;
                            }
                        }
                        want.latency += latency;
                        let cores = if write { &mut obj.writers } else { &mut obj.readers };
                        cores[fi] |= 1 << c;
                        if fields[fi].tag.shared_under_fine() {
                            let t = &mut profile.table4[ty.index()];
                            t[4] += latency;
                            t[5] += 1;
                        }
                    }
                    prop_assert_eq!(got, want, "{:?} op {} fields {:?} core {} write {}", ty, op, fis, c, write);
                }
                for (l, r) in obj.lines.iter().enumerate() {
                    prop_assert_eq!(m.line_dirty(id, l), r.dirty, "{:?} line {} dirty", ty, l);
                    prop_assert_eq!(m.line_sharers(id, l), r.sharers.count_ones(), "{:?} line {} sharers", ty, l);
                    prop_assert_eq!(m.line(id, l).sharers(), r.sharers);
                }
            }
            m.fold_all_live();
            let totals = m.dprof.cacheline_stats().totals();
            if recording {
                for &i in &set {
                    profile.fold(m.type_of(ids[i]), &mut reference[i]);
                }
                prop_assert_eq!(totals, profile.ledger);
                for ty in DataType::ALL {
                    let got = m.dprof.agg(ty).map_or([0; 6], |a| {
                        [a.instances, a.shared_lines, a.shared_bytes, a.shared_rw_bytes, a.cycles_on_shared, a.lat_hist.count()]
                    });
                    prop_assert_eq!(got, profile.table4[ty.index()], "{:?}", ty);
                }
            } else {
                prop_assert!(totals.is_zero());
            }
        }

        /// Latency is always one of the six Table 1 values.
        #[test]
        fn latency_in_profile(ops in proptest::collection::vec((0usize..48, any::<bool>()), 1..100)) {
            let mut m = CacheModel::new(Machine::amd48());
            let id = m.alloc(DataType::TcpRequestSock, CoreId(3));
            let lat = Machine::amd48().lat;
            let valid = [lat.l1, lat.l2, lat.l3, lat.ram, lat.remote_l3, lat.remote_ram];
            for (core, write) in ops {
                let a = m.access_field(CoreId(core as u16), id, 0, write);
                prop_assert!(valid.contains(&a.latency), "latency {}", a.latency);
            }
        }
    }
}
