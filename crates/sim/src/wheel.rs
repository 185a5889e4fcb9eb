//! A hierarchical timer wheel (calendar queue) for the event scheduler,
//! sized to the simulator's near future.
//!
//! The discrete-event loop pushes and pops millions of events per run,
//! and most of them are due a few hundred microseconds ahead: on
//! `fig6_fine`, 91 % of pushes land 2^15–2^19 cycles past the current
//! time (IRQ latency, propagation, run-ahead). The geometry follows from
//! that:
//!
//! * A level-0 slot spans one *quantum* of 2^[`QUANTUM_BITS`] cycles, so
//!   the 256 level-0 slots cover 2^19 cycles and the common event is
//!   written once and never cascaded. Each level above is 256× coarser;
//!   7 levels of 8 bits cover the whole 53-bit quantum index, so no
//!   overflow list is needed.
//! * An event is parked at the level of the highest bit where its quantum
//!   differs from the current quantum. As the wheel reaches a coarse
//!   slot's window the slot **cascades**: its entries move down to the
//!   level their quantum now selects.
//! * When a level-0 slot is reached its entries move to the ready queue,
//!   sorted by `(time, seq)`. A push into the quantum being delivered is
//!   merged into the ready queue directly, after every entry with a time
//!   at or before its own.
//! * Every parked entry lives in one node slab with a free list; each
//!   slot is an intrusive FIFO list (`u32` head and tail), so a cascade
//!   relinks a node rather than copying it, and a slot keeps no capacity
//!   of its own. The slab's capacity tracks the peak number of pending
//!   events, not the busiest slot's history.
//! * Occupancy bitmaps (`[u64; 4]` per level) make "next non-empty slot"
//!   a handful of word scans, so a sparse queue skips idle time without
//!   stepping slot by slot.
//!
//! # Ordering contract
//!
//! Pops are globally ordered by `(time, seq)` where `seq` is the push
//! sequence number — the exact FIFO tie-break of the binary-heap
//! reference implementation (kept in [`crate::events`]'s tests), which
//! run fingerprints depend on. Every pending entry of the quantum being
//! delivered is in the ready queue, and every parked entry is in a later
//! quantum, so the ready queue's head is always the earliest event.
//!
//! Pushing an event earlier than the last delivered time would break that
//! invariant. This is a caller bug, and the wheel clamps such times to the
//! last delivered time exactly (with a debug assertion) rather than
//! corrupting order.

use crate::time::Cycles;
use std::collections::VecDeque;

/// log2 of the cycles one level-0 slot spans. Chosen by measurement on
/// `fig6_fine` (DESIGN.md §8): 10 / 11 / 12 / 13 give 621k / 344k / 202k /
/// 117k cascades, and 12 and 13 ran no faster than 11.
const QUANTUM_BITS: u32 = 11;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels: 7 levels × 8 bits cover the 53-bit quantum index of any
/// `u64` time.
const LEVELS: usize = (u64::BITS - QUANTUM_BITS).div_ceil(SLOT_BITS) as usize;
/// Slot index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Words in a level's occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;
/// End of a node list.
const NIL: u32 = u32::MAX;

/// One ready event. `repr(C)` pins the `(time, seq)` ordering key at the
/// struct head: the drain's sort and the ready-queue merge read only the
/// first 16 bytes, so they touch the fewest host cache lines possible
/// when `E` is large.
#[derive(Debug)]
#[repr(C)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

// The sort key must stay at the head and a payload-free entry must stay
// exactly two words — growth here multiplies across every ready event.
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 16);
const _: () = assert!(std::mem::offset_of!(Entry<()>, time) == 0);
const _: () = assert!(std::mem::offset_of!(Entry<()>, seq) == 8);

/// One parked event in the node slab. A node on the free list holds no
/// event and links to the next free node.
#[derive(Debug)]
struct Node<E> {
    time: Cycles,
    seq: u64,
    next: u32,
    event: Option<E>,
}

// Three words of key and link ahead of the payload; a payload with a
// niche (the runner's `Ev`) keeps `Option` free.
const _: () = assert!(std::mem::size_of::<Node<()>>() == 24);

/// A slot's FIFO list of nodes.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// One wheel level. The occupancy bitmap leads the struct: "next
/// non-empty slot" scans read only `occ`'s 32 bytes.
#[derive(Debug)]
#[repr(C)]
struct Level {
    occ: [u64; OCC_WORDS],
    lists: [List; SLOTS],
}

const _: () = assert!(std::mem::offset_of!(Level, occ) == 0);
const _: () = assert!(std::mem::size_of::<Level>() == 32 + 8 * SLOTS);

impl Level {
    const NEW: Self = Self {
        occ: [0; OCC_WORDS],
        lists: [EMPTY; SLOTS],
    };

    /// The lowest occupied slot, if any.
    fn first(&self) -> Option<usize> {
        self.occ
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(w, word)| (w << 6) + word.trailing_zeros() as usize)
    }
}

/// A hierarchical timer wheel with the [`crate::events`] ordering
/// contract: pops come back sorted by `(time, push-sequence)`.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// Lazily allocated on the first parked push so an empty wheel is
    /// cheap.
    levels: Vec<Level>,
    /// The node slab: every parked entry, and the free list.
    nodes: Vec<Node<E>>,
    /// Head of the slab's free list.
    free: u32,
    /// The quantum being delivered: its pending entries are all in
    /// `ready`, and every parked entry is in a later quantum.
    quantum: u64,
    /// The last delivered time, raised to the start of `quantum` when the
    /// wheel advances; a push before it is clamped.
    floor: Cycles,
    /// Pending entries of `quantum`, in final `(time, seq)` order.
    ready: VecDeque<Entry<E>>,
    len: usize,
    seq: u64,
    /// Entries moved out of a level-1+ slot by cascades since the last
    /// reset.
    cascaded: u64,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel.
    #[must_use]
    pub fn new() -> Self {
        Self {
            levels: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            quantum: 0,
            floor: 0,
            ready: VecDeque::new(),
            len: 0,
            seq: 0,
            cascaded: 0,
        }
    }

    /// Schedules `event` at simulated time `at`.
    pub fn push(&mut self, at: Cycles, event: E) {
        debug_assert!(
            at >= self.floor,
            "event scheduled before the last delivered time"
        );
        let time = at.max(self.floor);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let q = time >> QUANTUM_BITS;
        if q == self.quantum {
            // Sequence numbers only grow, so the new entry goes after
            // every ready entry at or before its time.
            let e = Entry { time, seq, event };
            if self.ready.back().is_none_or(|b| b.time <= time) {
                self.ready.push_back(e);
            } else {
                let i = self.ready.partition_point(|r| r.time <= time);
                self.ready.insert(i, e);
            }
            return;
        }
        if self.levels.is_empty() {
            self.levels = (0..LEVELS).map(|_| Level::NEW).collect();
        }
        let node = Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("pending events fit a u32 node index");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        self.link(i, q);
    }

    /// Removes and returns the earliest `(time, event)`, ties in push
    /// order.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.fill_ready();
        }
        self.deliver()
    }

    /// Time of the earliest pending event, if any. `&mut` because the
    /// wheel may need to cascade to locate it (the result is cached in
    /// the ready queue, so a following `pop` is free).
    pub fn peek_time(&mut self) -> Option<Cycles> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.fill_ready();
        }
        self.ready.front().map(|e| e.time)
    }

    /// Like [`Self::pop`], but only delivers events strictly before
    /// `bound`, and never advances the wheel to a quantum that starts at
    /// or past `bound` while searching. After a `None` return, pushes at
    /// any time `>= bound` are therefore still valid.
    ///
    /// A `bound` of `Cycles::MAX` is treated as "no bound" so an event
    /// parked at the maximum representable time is never stranded.
    pub fn pop_before(&mut self, bound: Cycles) -> Option<(Cycles, E)> {
        self.peek_time_before(bound)?;
        self.deliver()
    }

    /// Time of the earliest pending event strictly before `bound`, if
    /// any, with the same guarantee as [`Self::pop_before`].
    ///
    /// The wheel advances only to a quantum that starts before `bound`,
    /// so after a `None` return pushes at any time `>= bound` remain
    /// valid; a push into that quantum is merged into the ready queue. An
    /// incrementally driven loop (the runner's `run_until` slices, which
    /// simbench steps through) must use this: an unbounded peek could
    /// advance the wheel past a later push's time and clamp it.
    pub fn peek_time_before(&mut self, bound: Cycles) -> Option<Cycles> {
        let bound = (bound != Cycles::MAX).then_some(bound);
        if self.ready.is_empty() && (self.len == 0 || !self.fill_ready_bounded(bound)) {
            return None;
        }
        let t = self.ready.front().map(|e| e.time)?;
        match bound {
            Some(b) if t >= b => None,
            _ => Some(t),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries moved out of a level-1 or higher slot by cascades since
    /// creation or the last [`Self::reset`]: the wheel's own work beyond
    /// one insert and one delivery per event. Deterministic for a given
    /// push/pop sequence.
    #[must_use]
    pub fn cascaded(&self) -> u64 {
        self.cascaded
    }

    /// Empties the wheel and rewinds time to zero, keeping the node slab,
    /// the ready queue and the levels allocated so a pooled wheel starts
    /// the next run warm.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            for (w, word) in level.occ.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    level.lists[(w << 6) + bits.trailing_zeros() as usize] = EMPTY;
                    bits &= bits - 1;
                }
                *word = 0;
            }
        }
        self.nodes.clear();
        self.free = NIL;
        self.ready.clear();
        self.quantum = 0;
        self.floor = 0;
        self.len = 0;
        self.seq = 0;
        self.cascaded = 0;
    }

    /// Pops the ready queue's head, which the caller has filled.
    #[inline]
    fn deliver(&mut self) -> Option<(Cycles, E)> {
        let e = self.ready.pop_front()?;
        self.len -= 1;
        self.floor = e.time;
        Some((e.time, e.event))
    }

    /// Appends node `i`, due in quantum `q > self.quantum`, to its slot:
    /// the level of the highest bit where `q` differs from the current
    /// quantum. Every slot of that level holding entries is thus ahead of
    /// the current quantum's slot within one 256-slot window, so the
    /// lowest occupied level's lowest slot is always the next due.
    #[inline]
    fn link(&mut self, i: u32, q: u64) {
        debug_assert!(q > self.quantum, "parked entry not in a later quantum");
        let level = ((63 - (q ^ self.quantum).leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((q >> (level as u32 * SLOT_BITS)) & MASK) as usize;
        let lv = &mut self.levels[level];
        let list = &mut lv.lists[slot];
        if list.tail == NIL {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
        lv.occ[slot >> 6] |= 1 << (slot & 63);
    }

    /// Empties `slot` at `level`, whose window the current quantum has
    /// just reached: entries of the current quantum move to the ready
    /// queue (unsorted) and free their nodes, the rest relink one or more
    /// levels down.
    fn cascade(&mut self, level: usize, slot: usize) {
        let lv = &mut self.levels[level];
        lv.occ[slot >> 6] &= !(1 << (slot & 63));
        let mut i = std::mem::replace(&mut lv.lists[slot], EMPTY).head;
        let mut moved = 0;
        while i != NIL {
            let node = &mut self.nodes[i as usize];
            let next = std::mem::replace(&mut node.next, NIL);
            let q = node.time >> QUANTUM_BITS;
            if q == self.quantum {
                let event = node.event.take().expect("a linked node holds an event");
                self.ready.push_back(Entry {
                    time: node.time,
                    seq: node.seq,
                    event,
                });
                node.next = self.free;
                self.free = i;
            } else {
                self.link(i, q);
            }
            moved += 1;
            i = next;
        }
        if level > 0 {
            self.cascaded += moved;
        }
    }

    /// Advances to the next pending quantum and moves its entries into
    /// `ready`. Requires `len > 0` and an empty ready queue.
    fn fill_ready(&mut self) {
        let filled = self.fill_ready_bounded(None);
        debug_assert!(filled, "len > 0 but nothing delivered");
    }

    /// [`Self::fill_ready`], stopping short of `bound`: returns `false`
    /// — without having advanced to a quantum that starts at or past
    /// `bound` — when every pending event is at `bound` or later.
    /// Requires `len > 0` and an empty ready queue.
    fn fill_ready_bounded(&mut self, bound: Option<Cycles>) -> bool {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        loop {
            // The earliest pending entry is in the lowest occupied level's
            // lowest slot; everything parked is in a later quantum, so its
            // window starts past the current quantum.
            let (level, slot) = self
                .levels
                .iter()
                .enumerate()
                .find_map(|(l, lv)| lv.first().map(|s| (l, s)))
                .expect("len > 0 but no occupied slot");
            let shift = level as u32 * SLOT_BITS;
            let start = (((self.quantum >> shift) & !MASK) | slot as u64) << shift;
            debug_assert!(start > self.quantum, "occupied slot behind the wheel");
            let at = start << QUANTUM_BITS;
            if bound.is_some_and(|b| at >= b) {
                // Every pending event is at `at` or later; stop with the
                // wheel still short of `bound`.
                return false;
            }
            // No event lives in [quantum, start), so the jump is safe.
            self.quantum = start;
            self.floor = self.floor.max(at);
            self.cascade(level, slot);
            if !self.ready.is_empty() {
                self.ready
                    .make_contiguous()
                    .sort_unstable_by_key(|e| (e.time, e.seq));
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::{ms, secs};

    /// Cycles one level-0 slot spans.
    const QUANTUM: u64 = 1 << QUANTUM_BITS;

    #[test]
    fn orders_by_time() {
        let mut w = TimerWheel::new();
        w.push(30, 3);
        w.push(10, 1);
        w.push(20, 2);
        assert_eq!(w.pop(), Some((10, 1)));
        assert_eq!(w.pop(), Some((20, 2)));
        assert_eq!(w.pop(), Some((30, 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut w = TimerWheel::new();
        for i in 0..100 {
            w.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(w.pop(), Some((5, i)));
        }
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut w = TimerWheel::new();
        // One event per level boundary, pushed out of order.
        let times = [
            1u64 << 40,
            3,
            1 << 16,
            (1 << 32) + 7,
            1 << 8,
            (1 << 56) + 123,
            1 << 24,
            (1 << 48) + 1,
        ];
        for (i, t) in times.iter().enumerate() {
            w.push(*t, i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        for t in sorted {
            let (pt, _) = w.pop().expect("event");
            assert_eq!(pt, t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn cascaded_ties_keep_push_order() {
        // The same far-future time, pushed while it is parked at level 2
        // (and later cascaded straight into the ready queue) and after the
        // wheel reached its quantum (merged into that queue): delivery
        // follows push order.
        let mut w = TimerWheel::new();
        let t = (1 << 30) + 5;
        w.push(t, "first");
        w.push(1, "early");
        w.push(t, "second");
        assert_eq!(w.pop(), Some((1, "early")));
        w.push(t, "third");
        assert_eq!(w.pop(), Some((t, "first")));
        w.push(t, "fourth");
        assert_eq!(w.pop(), Some((t, "second")));
        assert_eq!(w.pop(), Some((t, "third")));
        assert_eq!(w.pop(), Some((t, "fourth")));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut w = TimerWheel::new();
        w.push(10, 'a');
        w.push(5_000_000, 'e');
        assert_eq!(w.pop(), Some((10, 'a')));
        w.push(20, 'b');
        w.push(3_000, 'c');
        assert_eq!(w.pop(), Some((20, 'b')));
        w.push(4_000_000, 'd');
        assert_eq!(w.pop(), Some((3_000, 'c')));
        assert_eq!(w.pop(), Some((4_000_000, 'd')));
        assert_eq!(w.pop(), Some((5_000_000, 'e')));
    }

    #[test]
    fn push_at_last_delivered_time_is_delivered() {
        let mut w = TimerWheel::new();
        w.push(100, 1);
        assert_eq!(w.pop(), Some((100, 1)));
        // 100 was delivered last; an event at exactly 100 must still come
        // out.
        w.push(100, 2);
        assert_eq!(w.pop(), Some((100, 2)));
    }

    #[test]
    fn pushes_into_the_delivered_quantum_merge_into_ready() {
        // The quantum [2Q, 3Q) is being delivered: pushes into it land
        // before, between, tied with and after the entries already in the
        // ready queue, and every one comes out in (time, seq) order.
        let base = 2 * QUANTUM;
        let mut w = TimerWheel::new();
        for (t, id) in [(base + 10, 0), (base + 500, 1), (base + 900, 2)] {
            w.push(t, id);
        }
        w.push(base + 3 * QUANTUM, 99);
        assert_eq!(w.pop(), Some((base + 10, 0)));
        w.push(base + 10, 3); // tie with the last delivered time
        w.push(base + 200, 4); // before every ready entry
        w.push(base + 500, 5); // tie with a ready entry: goes after it
        w.push(base + QUANTUM - 1, 6); // after every ready entry
        w.push(base + 700, 7); // between two ready entries
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            order,
            [
                (base + 10, 3),
                (base + 200, 4),
                (base + 500, 1),
                (base + 500, 5),
                (base + 700, 7),
                (base + 900, 2),
                (base + QUANTUM - 1, 6),
                (base + 3 * QUANTUM, 99),
            ]
        );
    }

    #[test]
    fn push_into_a_drained_quantum_after_its_last_pop() {
        // The ready queue ran dry but the wheel is still in the same
        // quantum; a later push into it must precede a parked event of the
        // next quantum.
        let mut w = TimerWheel::new();
        w.push(QUANTUM + 5, 'a');
        w.push(2 * QUANTUM, 'c');
        assert_eq!(w.pop(), Some((QUANTUM + 5, 'a')));
        w.push(QUANTUM + 6, 'b');
        assert_eq!(w.pop(), Some((QUANTUM + 6, 'b')));
        assert_eq!(w.pop(), Some((2 * QUANTUM, 'c')));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "before the last delivered time")
    )]
    fn push_before_the_last_delivered_time_is_clamped_to_it() {
        // The clamp is at the exact delivered time, not at the start of
        // its quantum (release builds; debug builds assert instead).
        let mut w = TimerWheel::new();
        w.push(QUANTUM + 700, 1);
        w.push(QUANTUM + 900, 2);
        assert_eq!(w.pop(), Some((QUANTUM + 700, 1)));
        w.push(QUANTUM + 100, 3);
        assert_eq!(w.pop(), Some((QUANTUM + 700, 3)));
        assert_eq!(w.pop(), Some((QUANTUM + 900, 2)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut w = TimerWheel::new();
        w.push(7, ());
        assert_eq!(w.peek_time(), Some(7));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn reset_rewinds_and_reuses() {
        let mut w = TimerWheel::new();
        w.push(1 << 33, 1);
        w.push(5, 2);
        assert_eq!(w.pop(), Some((5, 2)));
        assert_eq!(w.cascaded(), 0);
        // Locating the far event moves it from level 2 straight into the
        // ready queue.
        assert_eq!(w.peek_time(), Some(1 << 33));
        assert_eq!(w.cascaded(), 1);
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.cascaded(), 0);
        assert_eq!(w.pop(), None);
        // Times from before the reset are valid again.
        w.push(3, 10);
        w.push(3, 11);
        assert_eq!(w.pop(), Some((3, 10)));
        assert_eq!(w.pop(), Some((3, 11)));
    }

    #[test]
    fn near_future_pushes_do_not_cascade() {
        // Everything due within the current 256-quantum window is filed
        // at level 0 and delivered without a cascade.
        let mut w = TimerWheel::new();
        for i in 1..256u64 {
            w.push(i * QUANTUM + i, i);
        }
        for i in 1..256u64 {
            assert_eq!(w.pop(), Some((i * QUANTUM + i, i)));
        }
        assert_eq!(w.cascaded(), 0);
    }

    /// Each level's first rollover, as seen from `origin`: the times where
    /// the quantum's highest differing bit moves up a level.
    fn level_boundaries(origin: Cycles) -> Vec<Cycles> {
        let mut times = Vec::new();
        for k in 0..LEVELS as u32 {
            let b = origin + (1u64 << (QUANTUM_BITS + k * SLOT_BITS));
            times.extend([b - 1, b, b + 1]);
        }
        times
    }

    #[test]
    fn events_at_exact_level_boundaries() {
        // 2^(11+8k) is the first time whose quantum differs from quantum 0
        // at level k. Each boundary, its predecessor, and its successor
        // must all deliver in strict time order.
        let mut w = TimerWheel::new();
        let mut times = level_boundaries(0);
        // Push in a scrambled order so placement can't ride insertion
        // order.
        for (i, t) in times.iter().rev().enumerate() {
            w.push(*t, i);
        }
        times.sort_unstable();
        for t in times {
            assert_eq!(w.pop().map(|(pt, _)| pt), Some(t), "boundary {t:#x}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn boundaries_relative_to_a_mid_window_position() {
        // Placement is relative to the current quantum (highest differing
        // bit), so the interesting rollovers move with it. Park the wheel
        // at an awkward position, then exercise every level boundary from
        // there.
        let mut w = TimerWheel::new();
        let origin = (3u64 << 27) + (5 << 19) + 257 * QUANTUM + 1_000;
        w.push(origin, usize::MAX);
        assert_eq!(w.pop(), Some((origin, usize::MAX)));
        let mut times = level_boundaries(origin);
        for (i, t) in times.iter().enumerate() {
            w.push(*t, i);
        }
        times.sort_unstable();
        for t in times {
            assert_eq!(w.pop().map(|(pt, _)| pt), Some(t), "boundary {t:#x}");
        }
    }

    #[test]
    fn dense_run_straddling_a_rollover() {
        // Every tick across the first level-1 rollover: the low half
        // lives in level 0's last slot, the high half in level 1 until
        // the wheel reaches its window; the seam must not reorder or drop
        // anything.
        let b = 1u64 << (QUANTUM_BITS + SLOT_BITS);
        let mut w = TimerWheel::new();
        for t in (b - 3_000)..(b + 3_000) {
            w.push(t, t);
        }
        for t in (b - 3_000)..(b + 3_000) {
            assert_eq!(w.pop(), Some((t, t)), "tick {t:#x}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_across_boundary_keeps_fifo() {
        // Ties in quantum 5 of the first level-2 window, reaching it by
        // three routes: parked at level 2 and cascaded to level 0, filed
        // at level 0 directly once the wheel is inside that window, and
        // merged into the ready queue once the wheel is in that quantum.
        // Delivery must still follow global push order.
        let window = 1u64 << (QUANTUM_BITS + 2 * SLOT_BITS);
        let t = window + 5 * QUANTUM;
        let mut w = TimerWheel::new();
        w.push(t, "a");
        w.push(window + QUANTUM, "advance");
        assert_eq!(w.pop(), Some((window + QUANTUM, "advance")));
        assert_eq!(w.cascaded(), 2);
        w.push(t, "b");
        assert_eq!(w.pop(), Some((t, "a")));
        w.push(t, "c");
        assert_eq!(w.pop(), Some((t, "b")));
        assert_eq!(w.pop(), Some((t, "c")));
        assert!(w.is_empty());
        assert_eq!(w.cascaded(), 2);
    }

    #[test]
    fn rollover_from_mid_quantum_position() {
        // From a mid-quantum delivery (2,000), an event 100 ticks ahead
        // (2,100) crosses into the next quantum and parks at level 0,
        // while a nearer event merges into the ready queue.
        let mut w = TimerWheel::new();
        w.push(2_000, "at-2000");
        assert_eq!(w.pop(), Some((2_000, "at-2000")));
        w.push(2_100, "next-quantum");
        w.push(2_010, "same-quantum");
        assert_eq!(w.pop(), Some((2_010, "same-quantum")));
        assert_eq!(w.pop(), Some((2_100, "next-quantum")));
    }

    #[test]
    fn pop_before_respects_the_bound() {
        let mut w = TimerWheel::new();
        w.push(10, 'a');
        w.push(99, 'b');
        w.push(100, 'c');
        w.push(5_000_000, 'd');
        assert_eq!(w.pop_before(100), Some((10, 'a')));
        assert_eq!(w.pop_before(100), Some((99, 'b')));
        assert_eq!(w.pop_before(100), None);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop_before(101), Some((100, 'c')));
        assert_eq!(w.pop_before(101), None);
        assert_eq!(w.pop(), Some((5_000_000, 'd')));
    }

    #[test]
    fn failed_pop_before_leaves_pushes_at_the_bound_valid() {
        // The bounded-drain contract: after `pop_before(bound)` returns
        // None, a push at exactly `bound` must neither assert nor be
        // clamped forward — even when the next pending event is far past
        // the bound (the search must not advance the wheel to it).
        let mut w = TimerWheel::new();
        w.push(10, 0);
        w.push(1 << 30, 1);
        assert_eq!(w.pop_before(10_000), Some((10, 0)));
        assert_eq!(w.pop_before(10_000), None);
        w.push(10_000, 2); // would trip the debug_assert if overshot
        w.push(15_000, 3);
        assert_eq!(w.pop_before(20_000), Some((10_000, 2)));
        assert_eq!(w.pop_before(20_000), Some((15_000, 3)));
        assert_eq!(w.pop_before(20_000), None);
        assert_eq!(w.pop(), Some((1 << 30, 1)));
        assert!(w.is_empty());
    }

    #[test]
    fn bound_inside_a_quantum_keeps_earlier_pushes_valid() {
        // The wheel may move a quantum that straddles the bound into the
        // ready queue, but a push at the bound — before the entries it
        // moved — must still come out first.
        let mut w = TimerWheel::new();
        let bound = 5 * QUANTUM + 300;
        w.push(5 * QUANTUM + 900, 'b');
        assert_eq!(w.peek_time_before(bound), None);
        w.push(bound, 'a');
        assert_eq!(w.peek_time_before(bound), None);
        assert_eq!(w.pop_before(bound + 1), Some((bound, 'a')));
        assert_eq!(w.pop_before(bound + 1), None);
        assert_eq!(w.pop(), Some((5 * QUANTUM + 900, 'b')));
    }

    #[test]
    fn peek_before_is_nondestructive() {
        let mut w = TimerWheel::new();
        w.push(50, ());
        assert_eq!(w.peek_time_before(50), None);
        assert_eq!(w.peek_time_before(51), Some(50));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((50, ())));
    }

    #[test]
    fn pop_before_max_is_unbounded() {
        // Cycles::MAX means "no bound", so an event parked at the last
        // representable tick still drains.
        let mut w = TimerWheel::new();
        w.push(Cycles::MAX, 1);
        w.push(7, 0);
        assert_eq!(w.pop_before(Cycles::MAX), Some((7, 0)));
        assert_eq!(w.pop_before(Cycles::MAX), Some((Cycles::MAX, 1)));
        w.push(Cycles::MAX, 2);
        assert_eq!(w.pop(), Some((Cycles::MAX, 2)));
    }

    #[test]
    fn bounded_and_unbounded_pops_interleave() {
        let mut w = TimerWheel::new();
        for t in [3u64, 7_000, 700_000, 70_000_000] {
            w.push(t, t);
        }
        assert_eq!(w.pop_before(7_000), Some((3, 3)));
        assert_eq!(w.pop_before(7_000), None);
        assert_eq!(w.pop(), Some((7_000, 7_000)));
        assert_eq!(w.peek_time_before(700_001), Some(700_000));
        assert_eq!(w.pop_before(u64::MAX), Some((700_000, 700_000)));
        assert_eq!(w.pop_before(70_000_000), None);
        assert_eq!(w.pop_before(70_000_001), Some((70_000_000, 70_000_000)));
        assert!(w.is_empty());
    }

    #[test]
    fn sparse_far_jumps_with_dense_clusters() {
        let mut w = TimerWheel::new();
        let mut expect = Vec::new();
        for cluster in 0..5u64 {
            let base = cluster * 10_000_000;
            for i in 0..50u64 {
                w.push(base + i * 3, (cluster, i));
                expect.push(base + i * 3);
            }
        }
        for t in expect {
            assert_eq!(w.pop().map(|(pt, _)| pt), Some(t));
        }
        assert!(w.is_empty());
    }

    /// One pass of a fig6-shaped event stream: 1,024 chains, each popped
    /// event pushing its successor 2^15–2^19 cycles ahead, 4 % of them
    /// 100 ms ahead instead, and 2.5 % of pops also pushing a 10 s event
    /// that never fires. Runs to 300 ms simulated; returns the peak
    /// pending count and the events popped.
    fn fig6_shaped_pass(w: &mut TimerWheel<u32>) -> (usize, u64) {
        let mut rng = SimRng::new(6);
        for id in 0..1024 {
            w.push(rng.range(1 << 15, 1 << 19), id);
        }
        let (mut peak, mut popped) = (w.len(), 0);
        while let Some((t, id)) = w.pop_before(ms(300)) {
            popped += 1;
            let roll = rng.below(1_000);
            let delta = if roll < 40 {
                ms(100) + rng.below(1 << 15)
            } else {
                rng.range(1 << 15, (1 << 19) - 1)
            };
            w.push(t + delta, id);
            if roll >= 975 {
                w.push(t + secs(10), u32::MAX);
            }
            peak = peak.max(w.len());
        }
        (peak, popped)
    }

    #[test]
    fn node_storage_tracks_pending_events() {
        let mut w = TimerWheel::new();
        let (peak, popped) = fig6_shaped_pass(&mut w);
        assert!(popped > 50_000, "the stream runs long enough: {popped}");
        assert!(w.cascaded() > 0, "far events cascade");
        let nodes = w.nodes.capacity();
        assert!(
            nodes <= 2 * peak,
            "node slab keeps {nodes} nodes for a peak of {peak} pending events"
        );
        let ready = w.ready.capacity();
        // A second pass after a reset reuses the warm storage, no more.
        w.reset();
        assert_eq!(fig6_shaped_pass(&mut w), (peak, popped));
        assert_eq!(w.nodes.capacity(), nodes, "node slab grew on a warm pass");
        assert_eq!(w.ready.capacity(), ready, "ready queue grew on a warm pass");
    }
}
