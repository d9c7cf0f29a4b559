//! Time-ordered event queue with stable FIFO tie-breaking.

use crate::arena::{ChainSlab, NIL};
use p2p_types::SimTime;

/// One bucket: a head/tail chain in the slab and its smallest key.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    min: u64,
}

const EMPTY: Bucket = Bucket { head: NIL, tail: NIL, min: u64::MAX };

/// Bucket 0 plus one bucket per bit of a `u64` key.
const BUCKETS: usize = 65;

/// The bucket of `key` relative to the last popped key: 0 if equal, else
/// one more than the index of the highest bit in which they differ.
#[inline]
fn bucket_of(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// A min-priority queue of `(SimTime, E)` pairs with FIFO order among
/// equal-time entries, for monotone use: a push may not precede the last
/// popped time, as no event of a simulation schedules into its past.
///
/// It is a radix heap over virtual microseconds whose buckets are chains
/// in one [`ChainSlab`]. Bucket 0 holds the keys equal to `last`, the
/// last popped key, and bucket `i ≥ 1` those whose highest bit differing
/// from `last` is bit `i − 1`, so every key in a bucket is smaller than
/// every key in the next. When bucket 0 is empty, a pop first makes the
/// lowest non-empty bucket's smallest key the new `last` and relinks that
/// bucket's nodes into lower buckets. Equal keys always share a bucket
/// and every link appends, so they pop in push order.
///
/// # Examples
///
/// ```
/// use p2p_sim::EventQueue;
/// use p2p_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(2.0), "late");
/// q.push(SimTime::from_secs_f64(1.0), "early");
/// q.push(SimTime::from_secs_f64(1.0), "tied");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "tied");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slab: ChainSlab<(SimTime, E)>,
    buckets: [Bucket; BUCKETS],
    /// Bit `i` is set while bucket `i` holds a node.
    occupied: u128,
    /// The last popped key, in microseconds.
    last: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with space for `capacity` events: swarm runs
    /// schedule one per peer up front, so they skip the slab's regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slab: ChainSlab::with_capacity(capacity),
            buckets: [EMPTY; BUCKETS],
            occupied: 0,
            last: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Enqueues an event at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last popped time.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = at.as_micros();
        assert!(key >= self.last, "cannot schedule into the past");
        let node = self.slab.alloc((at, event), NIL);
        self.link(bucket_of(key, self.last), node, key);
    }

    /// Dequeues the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.buckets[0].head == NIL {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let bucket = &mut self.buckets[0];
        let (entry, next) = self.slab.take(bucket.head);
        bucket.head = next;
        if next == NIL {
            *bucket = EMPTY;
            self.occupied &= !1;
        }
        Some(entry)
    }

    /// Time stamp of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        match self.occupied.trailing_zeros() {
            0 => Some(SimTime::from_micros(self.last)),
            128 => None,
            b => Some(SimTime::from_micros(self.buckets[b as usize].min)),
        }
    }

    /// Appends `node` (key `key`) to bucket `b`.
    #[inline]
    fn link(&mut self, b: usize, node: u32, key: u64) {
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            bucket.head = node;
            self.occupied |= 1 << b;
        } else {
            self.slab.set_next(bucket.tail, node);
        }
        bucket.tail = node;
        bucket.min = bucket.min.min(key);
    }

    /// With bucket 0 empty and another bucket not: advances `last` to the
    /// smallest pending key and relinks the lowest non-empty bucket into
    /// lower ones, that key's nodes into bucket 0.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        let Bucket { head, min, .. } = std::mem::replace(&mut self.buckets[b], EMPTY);
        self.occupied &= !(1 << b);
        self.last = min;
        let mut node = head;
        while node != NIL {
            let next = self.slab.next(node);
            let key = self.slab.get(node).0.as_micros();
            self.slab.set_next(node, NIL);
            self.link(bucket_of(key, min), node, key);
            node = next;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(5.0, 'e'), (1.0, 'a'), (3.0, 'c'), (2.0, 'b'), (4.0, 'd')] {
            q.push(SimTime::from_secs_f64(t), v);
        }
        let mut out = String::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, "abcde");
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn next_time_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        q.push(SimTime::from_secs_f64(7.0), ());
        q.push(SimTime::from_secs_f64(3.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(SimTime::from_secs_f64(3.0)));
        q.pop();
        assert_eq!(q.next_time(), Some(SimTime::from_secs_f64(7.0)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(1.0), 1);
        q.push(SimTime::from_secs_f64(3.0), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs_f64(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}
