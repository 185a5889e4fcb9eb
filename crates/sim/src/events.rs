//! Deterministic time-ordered event queue.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is
//! assigned at push time; ties in simulated time therefore resolve in
//! insertion order, keeping runs reproducible regardless of scheduler
//! internals.
//!
//! [`EventQueue`] is the hierarchical timer wheel of [`crate::wheel`]
//! (O(1) amortized push and pop), so the run loop pushes and pops through
//! one concrete type. The original `BinaryHeap` scheduler survives only
//! as the test reference below: the differential proptest holds the
//! wheel to its `(time, seq, event)` stream for any interleaving of
//! pushes, pops and bounded peeks, and the golden fingerprints in the
//! root tests were captured on it.

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

        /// The differential test the wheel hangs on: for any interleaving
        /// of pushes (near-future, same-time ties, and far-future cascades
        /// across several wheel levels), pops and bounded peeks, the wheel
        /// and the heap produce identical `(time, event)` streams — which,
        /// with distinct event ids, pins the `(time, seq)` order.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec((0u8..8, 0u64..1_000), 1..300),
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
            for (op, x) in ops {
                match op {
                    // Pop from both; streams must match step for step.
                    0 => {
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                    // Same-time tie at the current clock.
                    1 => push(now, &mut wheel, &mut heap),
                    // Far future: forces multi-level parking + cascades.
                    2 => push(now + 1 + x * 77_777_777, &mut wheel, &mut heap),
                    // Bounded peek (near or far bound), then pushes at and
                    // just past the bound: the cursor contract
                    // `Runner::run_until` relies on. Like that loop, the
                    // caller's clock moves to the peeked event, or to the
                    // bound when nothing is left before it. A peek that
                    // parked the cursor on a later event would clamp these
                    // pushes forward and reorder the stream.
                    6 | 7 => {
                        let bound = if op == 6 { now + x } else { now + x * 7_777_777 };
                        let peeked = wheel.peek_time_before(bound);
                        prop_assert_eq!(peeked, heap.peek_time_before(bound));
                        now = peeked.unwrap_or(bound);
                        push(bound, &mut wheel, &mut heap);
                        push(bound + x % 5, &mut wheel, &mut heap);
                    }
                    // Near future (level 0/1).
                    _ => push(now + x, &mut wheel, &mut heap),
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
