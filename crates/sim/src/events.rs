//! Deterministic time-ordered event queue.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is
//! assigned at push time; ties in simulated time therefore resolve in
//! insertion order, keeping runs reproducible regardless of scheduler
//! internals.
//!
//! [`EventQueue`] is the hierarchical timer wheel of [`crate::wheel`]
//! (O(1) amortized push and pop, level-0 slots one 2^11-cycle quantum
//! wide, every parked event in one node slab), so the run loop pushes and
//! pops through one concrete type. The original `BinaryHeap` scheduler
//! survives only as the test reference below: the differential proptest
//! holds the wheel to its `(time, seq, event)` stream for any
//! interleaving of pushes (ties, the quantum being delivered, every level
//! up to `Cycles::MAX`), pops and bounded peeks and pops, and the golden
//! fingerprints in the root tests were captured on it.

/// A min-queue of `(time, event)` pairs with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// let mut q = sim::EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub type EventQueue<E> = crate::wheel::TimerWheel<E>;

#[cfg(test)]
mod proptests {
    use super::EventQueue;
    use crate::time::Cycles;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The binary-heap scheduler: the straightforward implementation of
    /// the ordering contract, against which the wheel is differentially
    /// tested. Sequence numbers are unique, so the event id never decides
    /// the order.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(Cycles, u64, usize)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: Cycles, event: usize) {
            self.heap.push(Reverse((at, self.seq, event)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Cycles, usize)> {
            let Reverse((t, _, event)) = self.heap.pop()?;
            Some((t, event))
        }

        fn peek_time_before(&self, bound: Cycles) -> Option<Cycles> {
            self.heap
                .peek()
                .map(|Reverse((t, _, _))| *t)
                .filter(|&t| bound == Cycles::MAX || t < bound)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    proptest! {
        #[test]
        fn pops_are_globally_time_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(*t, i);
            }
            let mut last = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn all_events_come_back(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(*t, i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, i)) = q.pop() {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
            prop_assert!(seen.iter().all(|s| *s));
        }
    }

    /// Cycles one level-0 wheel slot spans (2^11).
    const QUANTUM: Cycles = 1 << 11;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The differential test the wheel hangs on: for any interleaving
        /// of pushes, pops and bounded peeks and pops, the wheel and the
        /// heap produce identical `(time, event)` streams — which, with
        /// distinct event ids, pins the `(time, seq)` order. The pushes
        /// cover same-time ties, the quantum being delivered (before,
        /// between and after entries already in the ready queue), deltas
        /// of 2^0–2^40 cycles (every level and its cascades) and
        /// `Cycles::MAX`; the bounds fall inside quanta as well as on and
        /// across their edges.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec((0u8..12, 0u64..1_000, 0u32..41), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::default();
            let mut now = 0u64;
            let mut next_id = 0usize;
            let mut push = |t: Cycles, wheel: &mut EventQueue<usize>, heap: &mut HeapQueue| {
                wheel.push(t, next_id);
                heap.push(t, next_id);
                next_id += 1;
            };
            for (op, x, k) in ops {
                match op {
                    // Pop from both; streams must match step for step.
                    0 | 1 => {
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                    // Same-time tie at the current clock.
                    2 => push(now, &mut wheel, &mut heap),
                    // Within a quantum of the clock: mostly into the quantum
                    // being delivered, ahead of, among or behind what its
                    // ready queue holds.
                    3 => push(now.saturating_add(x % QUANTUM), &mut wheel, &mut heap),
                    // 2^k cycles ahead, k in 0..=40: every level.
                    4 => push(now.saturating_add((1 << k) + x % 7), &mut wheel, &mut heap),
                    // The last representable tick (rarely), else near.
                    5 => {
                        let t = if x < 50 { Cycles::MAX } else { now.saturating_add(x) };
                        push(t, &mut wheel, &mut heap);
                    }
                    // Bounded peek, then pushes at and just past the bound:
                    // the contract `Runner::run_until` relies on. Like that
                    // loop, the caller's clock moves to the peeked event, or
                    // to the bound when nothing is left before it. A peek
                    // that advanced the wheel past the bound would clamp
                    // these pushes forward and reorder the stream. Bounds
                    // land near the clock (6), far ahead (7), inside the
                    // next quantum (8) or 2^k ahead (9).
                    6..=9 => {
                        let bound = match op {
                            6 => now.saturating_add(x),
                            7 => now.saturating_add(x * 7_777_777),
                            8 => (now | (QUANTUM - 1)).saturating_add(1 + x % QUANTUM),
                            _ => now.saturating_add(1 << k),
                        };
                        let peeked = wheel.peek_time_before(bound);
                        prop_assert_eq!(peeked, heap.peek_time_before(bound));
                        now = peeked.unwrap_or(bound);
                        push(bound, &mut wheel, &mut heap);
                        push(bound.saturating_add(x % 5), &mut wheel, &mut heap);
                    }
                    // Bounded pop: delivers only what the peek would report.
                    10 => {
                        let bound = now.saturating_add(x * 997);
                        let expect = heap.peek_time_before(bound).and_then(|_| heap.pop());
                        let got = wheel.pop_before(bound);
                        prop_assert_eq!(got, expect);
                        now = got.map_or(bound, |(t, _)| t);
                    }
                    // Near future.
                    _ => push(now.saturating_add(x), &mut wheel, &mut heap),
                }
                prop_assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
