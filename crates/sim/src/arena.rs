//! A slab arena of intrusive FIFO chains: one `Vec` of singly linked
//! nodes with a free list. It grows to the run's peak of live nodes and
//! then reuses them, so a steady state that links and frees nodes
//! allocates nothing. Any number of chains share one slab; a chain is
//! the index of its head node, plus that of its tail where something
//! appends to it. The event queue keeps its buckets in one
//! ([`crate::EventQueue`]), the swarm simulator its mailboxes and
//! per-link reorder buffers.
//!
//! # Examples
//!
//! ```
//! use p2p_sim::{ChainSlab, NIL};
//!
//! let mut slab = ChainSlab::with_capacity(2);
//! let head = slab.alloc('a', NIL);
//! let tail = slab.alloc('b', NIL);
//! slab.set_next(head, tail);
//! assert_eq!(slab.take(head), ('a', tail));
//! assert_eq!(slab.take(tail), ('b', NIL));
//! assert!(slab.is_empty());
//! // The last freed node is the first reused.
//! assert_eq!(slab.alloc('c', NIL), tail);
//! ```

/// The index of no node: the end of a chain.
pub const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    /// `None` while the node is free.
    item: Option<T>,
    /// The next node of its chain, or of the free list.
    next: u32,
}

/// A slab of chain nodes (see module docs). A freed node holds no item,
/// so every method given a free node panics ("chain node is free")
/// instead of silently reaching into the chain that reuses it later.
#[derive(Debug, Clone)]
pub struct ChainSlab<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list, threaded through the free nodes' `next`.
    free: u32,
    live: usize,
}

impl<T> ChainSlab<T> {
    /// An empty slab with room for `nodes` nodes before it grows.
    pub fn with_capacity(nodes: usize) -> Self {
        ChainSlab { nodes: Vec::with_capacity(nodes), free: NIL, live: 0 }
    }

    /// Number of live (allocated, not yet taken) nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no node is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stores `item` in a node whose successor is `next`, the last freed
    /// node if there is one, and returns the node's index.
    #[inline]
    pub fn alloc(&mut self, item: T, next: u32) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let index = self.free;
            let node = &mut self.nodes[index as usize];
            self.free = node.next;
            *node = Node { item: Some(item), next };
            return index;
        }
        let index = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("chain slab overflow");
        self.nodes.push(Node { item: Some(item), next });
        index
    }

    /// The item in a live node.
    #[inline]
    pub fn get(&self, node: u32) -> &T {
        self.nodes[node as usize].item.as_ref().expect("chain node is free")
    }

    /// The successor of a live node ([`NIL`] at the end of its chain).
    #[inline]
    pub fn next(&self, node: u32) -> u32 {
        let node = &self.nodes[node as usize];
        assert!(node.item.is_some(), "chain node is free");
        node.next
    }

    /// Makes `next` the successor of a live node.
    #[inline]
    pub fn set_next(&mut self, node: u32, next: u32) {
        let node = &mut self.nodes[node as usize];
        assert!(node.item.is_some(), "chain node is free");
        node.next = next;
    }

    /// Frees a live node, returning its item and its successor.
    #[inline]
    pub fn take(&mut self, node: u32) -> (T, u32) {
        let slot = &mut self.nodes[node as usize];
        let item = slot.item.take().expect("chain node is free");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = node;
        self.live -= 1;
        (item, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates `items` as one chain and returns its head.
    fn chain<T: Copy>(slab: &mut ChainSlab<T>, items: &[T]) -> u32 {
        items.iter().rev().fold(NIL, |next, &item| slab.alloc(item, next))
    }

    /// Frees a whole chain, returning its items in order.
    fn drain<T>(slab: &mut ChainSlab<T>, mut node: u32) -> Vec<T> {
        let mut out = Vec::new();
        while node != NIL {
            let (item, next) = slab.take(node);
            out.push(item);
            node = next;
        }
        out
    }

    #[test]
    fn push_take_recycle_roundtrip() {
        let mut slab = ChainSlab::with_capacity(0);
        let head = slab.alloc("a", NIL);
        let tail = slab.alloc("b", NIL);
        slab.set_next(head, tail);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(head), &"a");
        assert_eq!(slab.next(head), tail);
        assert_eq!(drain(&mut slab, head), vec!["a", "b"]);
        assert!(slab.is_empty());
    }

    #[test]
    fn recycled_nodes_are_reused() {
        let mut slab = ChainSlab::with_capacity(0);
        let first = slab.alloc(1, NIL);
        slab.take(first);
        let second = slab.alloc(2, NIL);
        assert_eq!(second, first, "the freed node comes back");
        assert_eq!(slab.get(second), &2);
    }

    #[test]
    fn recycled_nodes_keep_the_slab_at_its_peak() {
        let mut slab = ChainSlab::with_capacity(0);
        let head = chain(&mut slab, &(0..64).collect::<Vec<u64>>());
        drain(&mut slab, head);
        for round in 0..4 {
            let head = chain(&mut slab, &(0..64).map(|i| i + round).collect::<Vec<_>>());
            let mut node = head;
            while node != NIL {
                assert!(node < 64, "refilling to the peak must reuse the first 64 nodes");
                node = slab.next(node);
            }
            drain(&mut slab, head);
        }
    }

    #[test]
    fn live_nodes_are_never_reallocated() {
        let mut slab = ChainSlab::with_capacity(0);
        let live = slab.alloc(9u8, NIL);
        let freed = slab.alloc(8, NIL);
        slab.take(freed);
        let a = slab.alloc(7, NIL);
        let b = slab.alloc(6, NIL);
        assert_eq!(a, freed);
        assert!(b != live && b != a, "an allocation must not alias a live node");
        assert_eq!(slab.get(live), &9);
    }

    #[test]
    #[should_panic(expected = "chain node is free")]
    fn stale_key_panics() {
        let mut slab = ChainSlab::with_capacity(0);
        let node = slab.alloc(1u8, NIL);
        slab.take(node);
        slab.get(node);
    }

    #[test]
    #[should_panic(expected = "chain node is free")]
    fn pushing_while_batch_is_out_panics() {
        let mut slab = ChainSlab::with_capacity(0);
        let tail = slab.alloc(1u8, NIL);
        // The batch pops: its nodes are freed, so appending to it is a bug.
        slab.take(tail);
        slab.set_next(tail, NIL);
    }

    #[test]
    #[should_panic(expected = "chain node is free")]
    fn double_take_panics() {
        let mut slab = ChainSlab::with_capacity(0);
        let node = slab.alloc(1u8, NIL);
        slab.take(node);
        slab.take(node);
    }

    #[test]
    fn many_slots_interleave() {
        let mut slab = ChainSlab::with_capacity(0);
        // Eight chains built round-robin, so their nodes interleave.
        let mut ends = [(NIL, NIL); 8];
        for i in 0..32 {
            let (head, tail) = &mut ends[i % 8];
            let node = slab.alloc(i, NIL);
            if *head == NIL {
                *head = node;
            } else {
                slab.set_next(*tail, node);
            }
            *tail = node;
        }
        assert_eq!(slab.len(), 32);
        // Drain out of order; each chain keeps its own FIFO order.
        for (c, &(head, _)) in ends.iter().enumerate().rev() {
            assert_eq!(drain(&mut slab, head), vec![c, c + 8, c + 16, c + 24]);
        }
        assert!(slab.is_empty());
    }
}
