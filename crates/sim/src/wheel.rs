//! A hierarchical timer wheel (calendar queue) for the event scheduler.
//!
//! The discrete-event loop pushes and pops millions of events per run;
//! the binary heap's O(log n) sift churn is the dominant scheduler cost
//! on large runs. This wheel buckets events by their absolute `Cycles`
//! timestamp into 8 levels of 256 slots (8 bits per level, covering the
//! full `u64` time domain), giving O(1) amortized push and pop:
//!
//! * Level 0 buckets hold a single timestamp each (the low 8 bits select
//!   the slot); levels above hold progressively coarser 256× windows.
//! * A far-future event is parked at the level of its highest bit that
//!   differs from the current cursor; as the cursor reaches its window
//!   the bucket **cascades** down one or more levels, and by the time it
//!   is delivered it sits in a single-timestamp level-0 bucket.
//! * Occupancy bitmaps (`[u64; 4]` per level) make "next non-empty
//!   bucket" a handful of trailing-zero scans, so a sparse queue skips
//!   idle time without stepping slot by slot.
//!
//! # Ordering contract
//!
//! Pops are globally ordered by `(time, seq)` where `seq` is the push
//! sequence number — the exact FIFO tie-break of the binary-heap
//! reference implementation (kept in [`crate::events`]'s tests), which
//! run fingerprints depend on. Cascading can append a lower-`seq` entry
//! to a bucket after a higher-`seq` one, so a level-0 bucket is sorted by
//! `seq` (all entries share one timestamp) as it is drained into the
//! ready queue.
//!
//! Pushing an event earlier than the cursor — the last popped or peeked
//! time — would break the monotonicity the cursor relies on. This is a
//! caller bug, and the wheel clamps such times to the cursor (with a
//! debug assertion) rather than corrupting order.

use crate::time::Cycles;
use std::collections::VecDeque;

/// log2 of the slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; 8 levels × 8 bits cover the whole `u64` time domain, so no
/// overflow list is needed.
const LEVELS: usize = (u64::BITS / SLOT_BITS) as usize;
/// Slot index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Words in a level's occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// One queued event. `repr(C)` pins the `(time, seq)` ordering key at the
/// struct head: bucket sorting and ready-queue merging read only the first
/// 16 bytes, so a drain touches the fewest host cache lines possible when
/// `E` is large (access-affinity layout, per the dprof-v2 analysis).
#[derive(Debug)]
#[repr(C)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

// The sort key must stay at the head and a payload-free entry must stay
// exactly two words — growth here multiplies across every queued event.
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 16);
const _: () = assert!(std::mem::offset_of!(Entry<()>, time) == 0);
const _: () = assert!(std::mem::offset_of!(Entry<()>, seq) == 8);

/// One wheel level. The occupancy bitmap leads the struct: "next
/// non-empty slot" scans (the common sparse-queue operation) read only
/// `occ`'s 32 bytes and never fault in the slot-vector header.
#[derive(Debug)]
#[repr(C)]
struct Level<E> {
    occ: [u64; OCC_WORDS],
    slots: Vec<Vec<Entry<E>>>,
}

const _: () = assert!(std::mem::offset_of!(Level<()>, occ) == 0);

impl<E> Level<E> {
    fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
        }
    }
}

#[inline]
fn set_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot >> 6] |= 1 << (slot & 63);
}

#[inline]
fn clear_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot >> 6] &= !(1 << (slot & 63));
}

#[inline]
fn test_bit(occ: &[u64; OCC_WORDS], slot: usize) -> bool {
    occ[slot >> 6] & (1 << (slot & 63)) != 0
}

/// Ring distance from `start` (inclusive) to the first set bit, if any.
fn next_occupied(occ: &[u64; OCC_WORDS], start: usize) -> Option<usize> {
    let w0 = start >> 6;
    let b = start & 63;
    let masked = (occ[w0] >> b) << b;
    if masked != 0 {
        return Some((w0 << 6) + masked.trailing_zeros() as usize - start);
    }
    for (w, word) in occ.iter().enumerate().skip(w0 + 1) {
        if *word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize - start);
        }
    }
    // Wrapped around: bits strictly below `start`.
    for (w, word) in occ.iter().enumerate().take(w0 + 1) {
        let masked = if w == w0 {
            if b == 0 {
                0
            } else {
                word & ((1u64 << b) - 1)
            }
        } else {
            *word
        };
        if masked != 0 {
            return Some(SLOTS - start + (w << 6) + masked.trailing_zeros() as usize);
        }
    }
    None
}

/// A hierarchical timer wheel with the [`crate::events`] ordering
/// contract: pops come back sorted by `(time, push-sequence)`.
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// Lazily allocated on first push so an empty wheel is cheap.
    levels: Vec<Level<E>>,
    /// Current time position; no pending event is earlier.
    cursor: Cycles,
    /// Drained level-0 bucket awaiting delivery, already in final order.
    ready: VecDeque<Entry<E>>,
    len: usize,
    seq: u64,
    /// Entries moved down a level by cascades since the last reset.
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
            cursor: 0,
            ready: VecDeque::new(),
            len: 0,
            seq: 0,
            cascaded: 0,
        }
    }

    /// Schedules `event` at simulated time `at`.
    pub fn push(&mut self, at: Cycles, event: E) {
        debug_assert!(at >= self.cursor, "event scheduled before the cursor");
        let time = at.max(self.cursor);
        let seq = self.seq;
        self.seq += 1;
        if self.levels.is_empty() {
            self.levels = (0..LEVELS).map(|_| Level::new()).collect();
        }
        self.insert(Entry { time, seq, event });
        self.len += 1;
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
        let e = self.ready.pop_front()?;
        self.len -= 1;
        Some((e.time, e.event))
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
    /// `bound`, and never advances the cursor to or past `bound` while
    /// searching. After a `None` return, pushes at any time `>= bound`
    /// are therefore still valid (the cursor monotonicity the wheel
    /// relies on is intact).
    ///
    /// A `bound` of `Cycles::MAX` is treated as "no bound" so an event
    /// parked at the maximum representable time is never stranded.
    pub fn pop_before(&mut self, bound: Cycles) -> Option<(Cycles, E)> {
        self.peek_time_before(bound)?;
        let e = self.ready.pop_front().expect("peek filled the ready queue");
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event strictly before `bound`, if
    /// any, with the same cursor guarantee as [`Self::pop_before`].
    ///
    /// Unlike [`Self::peek_time`], this never advances the cursor to or
    /// past `bound`, so after a `None` return pushes at any time
    /// `>= bound` remain valid. An incrementally driven loop (the
    /// runner's `run_until` slices, which simbench steps through) must
    /// use this: an unbounded peek would park the cursor on a far-future
    /// event and silently clamp every later push scheduled before it.
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

    /// Entries moved down a level by cascades since creation or the last
    /// [`Self::reset`]: the wheel's own work beyond one insert and one
    /// delivery per event. Deterministic for a given push/pop sequence.
    #[must_use]
    pub fn cascaded(&self) -> u64 {
        self.cascaded
    }

    /// Empties the wheel and rewinds time to zero, retaining all slot
    /// allocations so a pooled wheel starts the next run warm.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            for (w, word) in level.occ.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let slot = (w << 6) + bits.trailing_zeros() as usize;
                    level.slots[slot].clear();
                    bits &= bits - 1;
                }
                *word = 0;
            }
        }
        self.ready.clear();
        self.cursor = 0;
        self.len = 0;
        self.seq = 0;
        self.cascaded = 0;
    }

    /// Level and slot for `time`, relative to the cursor: the level of
    /// the highest bit where `time` differs from the cursor. This keeps
    /// every bucket within 256 slots ahead of the cursor's slot at its
    /// level, so ring distances are unambiguous and cascades strictly
    /// descend.
    #[inline]
    fn place(&self, time: Cycles) -> (usize, usize) {
        let diff = time ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / SLOT_BITS as usize
        };
        let slot = ((time >> (level as u32 * SLOT_BITS)) & MASK) as usize;
        (level, slot)
    }

    #[inline]
    fn insert(&mut self, e: Entry<E>) {
        let (level, slot) = self.place(e.time);
        let lv = &mut self.levels[level];
        lv.slots[slot].push(e);
        set_bit(&mut lv.occ, slot);
    }

    /// Moves every entry of `slot` at `level` down to its new (strictly
    /// lower) level relative to the current cursor.
    fn cascade(&mut self, level: usize, slot: usize) {
        clear_bit(&mut self.levels[level].occ, slot);
        let mut bucket = std::mem::take(&mut self.levels[level].slots[slot]);
        self.cascaded += bucket.len() as u64;
        for e in bucket.drain(..) {
            debug_assert!(self.place(e.time).0 < level, "cascade must descend");
            self.insert(e);
        }
        // Hand the emptied Vec back so its capacity is reused.
        self.levels[level].slots[slot] = bucket;
    }

    /// Advances the cursor to the next pending timestamp and drains that
    /// level-0 bucket into `ready`. Requires `len > 0`.
    fn fill_ready(&mut self) {
        let filled = self.fill_ready_bounded(None);
        debug_assert!(filled, "len > 0 but nothing delivered");
    }

    /// [`Self::fill_ready`], stopping short of `bound`: returns `false`
    /// — without having moved the cursor to or past `bound` — when the
    /// earliest pending event is at `bound` or later. Requires `len > 0`
    /// and an empty ready queue.
    fn fill_ready_bounded(&mut self, bound: Option<Cycles>) -> bool {
        loop {
            // 1. Cascade any due overflow buckets: at each level, the slot
            //    the cursor currently points into may have become reachable
            //    since the last advance.
            for level in (1..LEVELS).rev() {
                let slot = ((self.cursor >> (level as u32 * SLOT_BITS)) & MASK) as usize;
                if test_bit(&self.levels[level].occ, slot) {
                    self.cascade(level, slot);
                }
            }
            // 2. Deliver the next occupied level-0 bucket. Level-0 entries
            //    are always within 256 cycles of the cursor, so the ring
            //    distance is the time delta.
            let c0 = (self.cursor & MASK) as usize;
            if let Some(d) = next_occupied(&self.levels[0].occ, c0) {
                if bound.is_some_and(|b| self.cursor + d as u64 >= b) {
                    return false;
                }
                self.cursor += d as u64;
                let slot = (c0 + d) & (SLOTS - 1);
                clear_bit(&mut self.levels[0].occ, slot);
                let mut bucket = std::mem::take(&mut self.levels[0].slots[slot]);
                // One timestamp per level-0 bucket; cascades may have
                // appended out of push order.
                bucket.sort_unstable_by_key(|e| e.seq);
                debug_assert!(bucket.iter().all(|e| e.time == self.cursor));
                self.ready.extend(bucket.drain(..));
                self.levels[0].slots[slot] = bucket;
                return true;
            }
            // 3. Nothing this window: jump to the earliest occupied bucket
            //    across the upper levels and cascade it. A coarser level
            //    can hold an earlier bucket than a finer one (windows are
            //    cursor-relative), so take the minimum start time.
            let mut best: Option<(Cycles, usize, usize)> = None;
            for level in 1..LEVELS {
                let shift = level as u32 * SLOT_BITS;
                let cl = ((self.cursor >> shift) & MASK) as usize;
                if let Some(d) = next_occupied(&self.levels[level].occ, cl) {
                    debug_assert!(d > 0, "due bucket survived step 1");
                    let start = ((self.cursor >> shift) + d as u64) << shift;
                    if best.is_none_or(|(s, _, _)| start < s) {
                        best = Some((start, level, (cl + d) & (SLOTS - 1)));
                    }
                }
            }
            let (start, level, slot) = best.expect("len > 0 but no occupied bucket");
            if bound.is_some_and(|b| start >= b) {
                // Every pending event is at `start` or later; stop with
                // the cursor still short of `bound`.
                return false;
            }
            // No event lives in [cursor, start), so the jump is safe.
            self.cursor = start;
            self.cascade(level, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut w = TimerWheel::new();
        // Same far-future timestamp via different cursor positions: pop
        // an early event first so the second push lands at a different
        // level than the first, then check tie order on delivery.
        let t = (1 << 20) + 5;
        w.push(t, "first");
        w.push(1, "early");
        w.push(t, "second");
        assert_eq!(w.pop(), Some((1, "early")));
        w.push(t, "third");
        assert_eq!(w.pop(), Some((t, "first")));
        assert_eq!(w.pop(), Some((t, "second")));
        assert_eq!(w.pop(), Some((t, "third")));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut w = TimerWheel::new();
        w.push(10, 'a');
        w.push(50_000, 'e');
        assert_eq!(w.pop(), Some((10, 'a')));
        w.push(20, 'b');
        w.push(300, 'c');
        assert_eq!(w.pop(), Some((20, 'b')));
        w.push(40_000, 'd');
        assert_eq!(w.pop(), Some((300, 'c')));
        assert_eq!(w.pop(), Some((40_000, 'd')));
        assert_eq!(w.pop(), Some((50_000, 'e')));
    }

    #[test]
    fn push_at_cursor_time_is_delivered() {
        let mut w = TimerWheel::new();
        w.push(100, 1);
        assert_eq!(w.pop(), Some((100, 1)));
        // Cursor is now 100; an event at exactly 100 must still come out.
        w.push(100, 2);
        assert_eq!(w.pop(), Some((100, 2)));
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
        // Locating the far event moves it from level 4 straight to level 0.
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
    fn events_at_exact_level_boundaries() {
        // 256^k is the first timestamp that rolls level k-1 over into
        // level k: bit k*8 is the highest differing bit from cursor 0.
        // Each boundary, its predecessor, and its successor must all
        // deliver in strict time order.
        let mut w = TimerWheel::new();
        let mut times = Vec::new();
        for k in 1..LEVELS as u32 {
            let b = 1u64 << (k * SLOT_BITS);
            times.extend([b - 1, b, b + 1]);
        }
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
    fn boundaries_relative_to_nonzero_cursor() {
        // Placement is cursor-relative (highest differing bit), so the
        // interesting rollovers move with the cursor. Park the cursor at
        // an awkward position, then exercise every level boundary from
        // there.
        let mut w = TimerWheel::new();
        let cursor = (3u64 << 16) + 257;
        w.push(cursor, usize::MAX);
        assert_eq!(w.pop(), Some((cursor, usize::MAX)));
        let mut times = Vec::new();
        for k in 1..LEVELS as u32 {
            let b = cursor + (1u64 << (k * SLOT_BITS));
            times.extend([b - 1, b, b + 1]);
        }
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
        // Every tick across the 256^2 rollover: the low half lives in
        // level 1, the high half in level 2 until the cursor reaches its
        // window; the seam must not reorder or drop anything.
        let b = 1u64 << (2 * SLOT_BITS);
        let mut w = TimerWheel::new();
        for t in (b - 300)..(b + 300) {
            w.push(t, t);
        }
        for t in (b - 300)..(b + 300) {
            assert_eq!(w.pop(), Some((t, t)), "tick {t:#x}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_across_boundary_keeps_fifo() {
        // Ties at an exact level boundary, pushed from cursor positions
        // that park them at *different* levels (direct level-2 insert vs
        // level-1 insert after the cursor advanced past the low window).
        // Delivery must still follow global push order — the sort the
        // level-0 drain performs.
        let t = 1u64 << (2 * SLOT_BITS);
        let mut w = TimerWheel::new();
        w.push(t, "a"); // cursor 0: highest differing bit 16 -> level 2
        w.push(300, "advance");
        w.push(t, "b");
        assert_eq!(w.pop(), Some((300, "advance")));
        // Cursor 300: t ^ 300 still differs at bit 16, but a cascade of
        // the level-2 bucket now lands entries straight into level 1/0.
        w.push(t, "c");
        assert_eq!(w.pop(), Some((t, "a")));
        assert_eq!(w.pop(), Some((t, "b")));
        assert_eq!(w.pop(), Some((t, "c")));
        assert!(w.is_empty());
    }

    #[test]
    fn rollover_from_mid_window_cursor() {
        // From a mid-window cursor (200), an event 100 ticks ahead (300)
        // crosses the 256-boundary: bit 8 differs, so it parks at level 1
        // even though it is nearer than a same-window event would be, and
        // must cascade back down ahead of delivery.
        let mut w = TimerWheel::new();
        w.push(200, "at-200");
        assert_eq!(w.pop(), Some((200, "at-200")));
        w.push(300, "next-window");
        w.push(210, "same-window");
        assert_eq!(w.pop(), Some((210, "same-window")));
        assert_eq!(w.pop(), Some((300, "next-window")));
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
        // The bounded-drain cursor-safety contract: after
        // `pop_before(bound)` returns None, a push at exactly `bound`
        // must neither assert nor be clamped forward — even when the
        // next pending event is far past the bound (the search must not
        // park the cursor on it).
        let mut w = TimerWheel::new();
        w.push(10, 0);
        w.push(1 << 30, 1);
        assert_eq!(w.pop_before(1_000), Some((10, 0)));
        assert_eq!(w.pop_before(1_000), None);
        w.push(1_000, 2); // would trip the cursor debug_assert if overshot
        w.push(1_500, 3);
        assert_eq!(w.pop_before(2_000), Some((1_000, 2)));
        assert_eq!(w.pop_before(2_000), Some((1_500, 3)));
        assert_eq!(w.pop_before(2_000), None);
        assert_eq!(w.pop(), Some((1 << 30, 1)));
        assert!(w.is_empty());
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
        assert_eq!(w.pop_before(Cycles::MAX), Some((Cycles::MAX, 1)));
    }

    #[test]
    fn bounded_and_unbounded_pops_interleave() {
        let mut w = TimerWheel::new();
        for t in [3u64, 700, 70_000, 7_000_000] {
            w.push(t, t);
        }
        assert_eq!(w.pop_before(700), Some((3, 3)));
        assert_eq!(w.pop_before(700), None);
        assert_eq!(w.pop(), Some((700, 700)));
        assert_eq!(w.peek_time_before(70_001), Some(70_000));
        assert_eq!(w.pop_before(u64::MAX), Some((70_000, 70_000)));
        assert_eq!(w.pop_before(7_000_000), None);
        assert_eq!(w.pop_before(7_000_001), Some((7_000_000, 7_000_000)));
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
}
