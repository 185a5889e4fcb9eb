//! FIFO lists that share one node slab.
//!
//! Linux threads its socket queues and established-hash chains through
//! the objects themselves (the "global lists" of §6.4), so a connection
//! costs no container of its own. [`FifoSlab`] gives the simulator the
//! same shape: every list of one kind (each connection's receive queue,
//! each hash bucket's chain) keeps its nodes in one shared slab with a
//! free list, and the list itself is a [`List`], a `u32` head and tail
//! that its owner keeps. A drained list holds no storage, a freed node is
//! reused before the slab grows, and so the slab's node count never
//! exceeds the peak number of items live in all of its lists at once.
//!
//! Appends go to the tail and removal keeps the rest of a list in order,
//! so a list walks in insertion order: the order in which the data-path
//! ops touch a connection's buffers and find a chain's neighbour.

/// End of a list, and of the free list.
const NIL: u32 = u32::MAX;

/// One FIFO list's ends in a [`FifoSlab`]. Its owner keeps it and passes
/// it to the slab that holds its nodes; an empty list holds no node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// A list with no items.
    pub const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
    };

    /// Whether the list holds no item.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// One item and its successor. A node on the free list keeps its stale
/// item and links to the next free node.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
}

/// The nodes of many FIFO lists, and a free list of released nodes.
pub struct FifoSlab<T> {
    nodes: Vec<Node<T>>,
    free: u32,
}

impl<T> std::fmt::Debug for FifoSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FifoSlab")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl<T> Default for FifoSlab<T> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Copy> FifoSlab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `item` to the tail of `list`.
    ///
    /// # Panics
    ///
    /// Panics if the slab would hold `u32::MAX` nodes.
    pub fn push_back(&mut self, list: &mut List, item: T) {
        let node = Node { item, next: NIL };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("live list items fit a u32 node index");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        if list.tail == NIL {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// Removes and returns the head of `list`.
    pub fn pop_front(&mut self, list: &mut List) -> Option<T> {
        if list.head == NIL {
            return None;
        }
        let i = list.head;
        let node = self.nodes[i as usize];
        list.head = node.next;
        if list.head == NIL {
            list.tail = NIL;
        }
        self.release(i);
        Some(node.item)
    }

    /// Removes and returns the first item of `list` that `pred` accepts;
    /// the items around it keep their order.
    pub fn remove_first(&mut self, list: &mut List, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let (mut prev, mut i) = (NIL, list.head);
        while i != NIL {
            let node = self.nodes[i as usize];
            if pred(&node.item) {
                if prev == NIL {
                    list.head = node.next;
                } else {
                    self.nodes[prev as usize].next = node.next;
                }
                if list.tail == i {
                    list.tail = prev;
                }
                self.release(i);
                return Some(node.item);
            }
            (prev, i) = (i, node.next);
        }
        None
    }

    /// The items of `list`, head first.
    pub fn iter(&self, list: List) -> impl Iterator<Item = &T> + '_ {
        let mut i = list.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(i as usize)?;
            i = node.next;
            Some(&node.item)
        })
    }

    fn release(&mut self, i: u32) {
        self.nodes[i as usize].next = self.free;
        self.free = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Six lists in one slab behave as one `VecDeque` each, whatever
        /// the interleaving of pushes, pops and removals at the head, in
        /// the middle and at the tail, and freed nodes are reused first:
        /// the slab never holds more nodes than the peak number of live
        /// items.
        #[test]
        fn lists_match_one_vecdeque_each(
            ops in proptest::collection::vec((0u8..6, 0usize..6, any::<u32>()), 1..400),
        ) {
            let mut slab = FifoSlab::new();
            let mut lists = [List::EMPTY; 6];
            let mut model: [VecDeque<u32>; 6] = Default::default();
            let mut peak = 0;
            for (op, l, x) in ops {
                let (list, m) = (&mut lists[l], &mut model[l]);
                match op {
                    0..=2 => {
                        slab.push_back(list, x);
                        m.push_back(x);
                    }
                    3 => prop_assert_eq!(slab.pop_front(list), m.pop_front()),
                    // Remove by position `x % len`, counted as the slab's
                    // walk reaches each item.
                    _ => {
                        let at = (!m.is_empty()).then(|| x as usize % m.len());
                        let mut seen = 0;
                        let got = slab.remove_first(list, |_| {
                            seen += 1;
                            Some(seen - 1) == at
                        });
                        prop_assert_eq!(got, at.and_then(|at| m.remove(at)));
                    }
                }
                peak = peak.max(model.iter().map(VecDeque::len).sum());
                prop_assert!(slab.nodes.len() <= peak, "{} nodes, peak {peak}", slab.nodes.len());
                for (list, m) in lists.iter().zip(&model) {
                    prop_assert_eq!(list.is_empty(), m.is_empty());
                    prop_assert!(slab.iter(*list).eq(m.iter()));
                }
            }
        }
    }

    /// A connection-shaped churn: 2,000 lists take up to 8 items each per
    /// round and every third one drains, for 50 rounds. The slab ends at
    /// the peak number of live items, a fraction of all it was handed.
    #[test]
    fn node_storage_tracks_peak_live_items() {
        let mut slab = FifoSlab::new();
        let mut lists = vec![List::EMPTY; 2_000];
        let (mut live, mut peak, mut pushed) = (0usize, 0usize, 0usize);
        for round in 0..50u32 {
            for (i, list) in (0u32..).zip(lists.iter_mut()) {
                if (i + round) % 3 == 0 {
                    while slab.pop_front(list).is_some() {
                        live -= 1;
                    }
                } else {
                    for x in 0..(i + round) % 8 + 1 {
                        slab.push_back(list, x);
                        live += 1;
                        pushed += 1;
                    }
                }
                peak = peak.max(live);
                assert!(slab.nodes.len() <= peak);
            }
        }
        assert_eq!(slab.nodes.len(), peak, "the slab grows only at a new peak");
        assert!(pushed > 10 * peak, "{pushed} pushes, peak {peak}");
    }
}
