//! The auctioneer side: bandwidth allocation at an upstream peer.
//!
//! "Bandwidth Allocation at Peer u" (Sec. IV-B): peer `u` maintains an
//! assignment set of at most `B(u)` winning requests. A bid `b ≤ λ_u` is
//! rejected; otherwise it is admitted, evicting the lowest bid when the set
//! is full; whenever the set is full, `λ_u` equals the smallest admitted
//! bid and the new price is announced to the neighbors.

use crate::instance::RequestIdx;
use crate::OrdF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of offering a bid to an [`Auctioneer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BidOutcome {
    /// The bid did not exceed the current price (stale knowledge at the
    /// bidder); the current price is returned so the bidder can retry.
    Rejected {
        /// The auctioneer's current price `λ_u`.
        price: f64,
    },
    /// The bid was admitted to the assignment set.
    Accepted {
        /// A previously admitted request that was evicted to make room.
        evicted: Option<RequestIdx>,
        /// The new price, if admission changed it (set became/stayed full).
        new_price: Option<f64>,
    },
}

/// Auctioneer state machine for one provider.
///
/// # Examples
///
/// ```
/// use p2p_core::auctioneer::{Auctioneer, BidOutcome};
///
/// let mut a = Auctioneer::new(1);
/// assert_eq!(a.price(), 0.0);
/// // First bid fills the single unit: price rises to the smallest (only) bid.
/// assert_eq!(a.handle_bid(0, 2.0), BidOutcome::Accepted { evicted: None, new_price: Some(2.0) });
/// // A higher bid evicts request 0 and lifts the price.
/// assert_eq!(a.handle_bid(1, 3.0), BidOutcome::Accepted { evicted: Some(0), new_price: Some(3.0) });
/// // A bid at or below the price is rejected.
/// assert_eq!(a.handle_bid(2, 3.0), BidOutcome::Rejected { price: 3.0 });
/// ```
#[derive(Debug, Clone)]
pub struct Auctioneer {
    capacity: u32,
    price: f64,
    /// Min-heap of (bid, admission sequence, request): the root is the
    /// eviction candidate. FIFO tie-break on equal bids keeps engines
    /// deterministic.
    set: BinaryHeap<Reverse<(OrdF64, u64, RequestIdx)>>,
    seq: u64,
}

impl Auctioneer {
    /// Creates an auctioneer with `capacity` bandwidth units at price 0.
    pub fn new(capacity: u32) -> Self {
        Auctioneer { capacity, price: 0.0, set: BinaryHeap::new(), seq: 0 }
    }

    /// The capacity `B(u)`.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The current unit bandwidth price `λ_u`.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// Number of admitted requests.
    pub fn assigned_len(&self) -> usize {
        self.set.len()
    }

    /// Whether every bandwidth unit is allocated.
    pub fn is_full(&self) -> bool {
        self.set.len() as u64 >= u64::from(self.capacity)
    }

    /// The admitted `(request, bid)` pairs, in arbitrary order.
    pub fn assigned(&self) -> impl Iterator<Item = (RequestIdx, f64)> + '_ {
        self.set.iter().map(|Reverse((bid, _, req))| (*req, bid.0))
    }

    /// Releases a previously admitted request (its downstream peer
    /// departed, Sec. IV-C). Returns the new price if the release changed
    /// it: freeing a unit re-opens competition, so the price drops back to
    /// zero when the set is no longer full — the one deliberate exception
    /// to price monotonicity, confined to departures.
    pub fn release(&mut self, request: RequestIdx) -> Option<f64> {
        let before = self.set.len();
        let mut entries: Vec<_> = std::mem::take(&mut self.set).into_vec();
        entries.retain(|Reverse((_, _, r))| *r != request);
        let removed = entries.len() < before;
        self.set = entries.into();
        if removed && !self.is_full() && self.price != 0.0 {
            self.price = 0.0;
            Some(0.0)
        } else {
            None
        }
    }

    /// Empties the assignment set (the auctioneer itself departs),
    /// returning the evicted requests.
    pub fn take_all(&mut self) -> Vec<RequestIdx> {
        let out = self.set.iter().map(|Reverse((_, _, r))| *r).collect();
        self.set.clear();
        out
    }

    /// Processes one bid per the paper's allocation rule.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is not finite (bids derive from validated finite
    /// valuations/costs/prices).
    pub fn handle_bid(&mut self, request: RequestIdx, amount: f64) -> BidOutcome {
        assert!(amount.is_finite(), "bid must be finite");
        if self.capacity == 0 || amount <= self.price {
            return BidOutcome::Rejected { price: self.price };
        }
        let mut evicted = None;
        if self.is_full() {
            let Reverse((_, _, loser)) = self.set.pop().expect("full set is non-empty");
            evicted = Some(loser);
        }
        self.set.push(Reverse((OrdF64(amount), self.seq, request)));
        self.seq += 1;
        let mut new_price = None;
        if self.is_full() {
            let Reverse((min_bid, _, _)) = self.set.peek().expect("set is non-empty");
            if min_bid.0 != self.price {
                self.price = min_bid.0;
                new_price = Some(self.price);
            }
        }
        BidOutcome::Accepted { evicted, new_price }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_full_without_price_change() {
        let mut a = Auctioneer::new(3);
        assert_eq!(a.handle_bid(0, 5.0), BidOutcome::Accepted { evicted: None, new_price: None });
        assert_eq!(a.handle_bid(1, 4.0), BidOutcome::Accepted { evicted: None, new_price: None });
        assert_eq!(a.price(), 0.0);
        // Third bid fills the set: price = min(5,4,2) = 2.
        assert_eq!(
            a.handle_bid(2, 2.0),
            BidOutcome::Accepted { evicted: None, new_price: Some(2.0) }
        );
        assert!(a.is_full());
        assert_eq!(a.assigned_len(), 3);
    }

    #[test]
    fn eviction_removes_lowest_bid() {
        let mut a = Auctioneer::new(2);
        a.handle_bid(0, 1.0);
        a.handle_bid(1, 3.0);
        assert_eq!(a.price(), 1.0);
        let out = a.handle_bid(2, 2.0);
        assert_eq!(out, BidOutcome::Accepted { evicted: Some(0), new_price: Some(2.0) });
        let mut winners: Vec<_> = a.assigned().map(|(r, _)| r).collect();
        winners.sort_unstable();
        assert_eq!(winners, vec![1, 2]);
    }

    #[test]
    fn rejects_bids_at_or_below_price() {
        let mut a = Auctioneer::new(1);
        a.handle_bid(0, 2.0);
        assert_eq!(a.handle_bid(1, 1.5), BidOutcome::Rejected { price: 2.0 });
        assert_eq!(a.handle_bid(1, 2.0), BidOutcome::Rejected { price: 2.0 });
        // Strictly higher wins.
        assert!(matches!(a.handle_bid(1, 2.1), BidOutcome::Accepted { evicted: Some(0), .. }));
    }

    #[test]
    fn price_is_monotone_nondecreasing() {
        let mut a = Auctioneer::new(2);
        let mut last = a.price();
        for (req, bid) in [(0, 1.0), (1, 0.5), (2, 0.8), (3, 2.0), (4, 3.0), (5, 2.5)] {
            let _ = a.handle_bid(req, bid);
            assert!(a.price() >= last, "price decreased");
            last = a.price();
        }
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut a = Auctioneer::new(0);
        assert_eq!(a.handle_bid(0, 100.0), BidOutcome::Rejected { price: 0.0 });
        assert_eq!(a.assigned_len(), 0);
    }

    #[test]
    fn fifo_eviction_on_equal_bids() {
        let mut a = Auctioneer::new(2);
        a.handle_bid(10, 1.0);
        a.handle_bid(20, 1.0);
        // Equal lowest bids: the earliest admitted (10) is evicted first.
        let out = a.handle_bid(30, 1.5);
        assert!(matches!(out, BidOutcome::Accepted { evicted: Some(10), .. }));
    }

    #[test]
    fn unchanged_price_not_reannounced() {
        let mut a = Auctioneer::new(2);
        a.handle_bid(0, 1.0);
        a.handle_bid(1, 1.0);
        assert_eq!(a.price(), 1.0);
        // Evicting one of the 1.0 bids with a 2.0 bid leaves min = 1.0:
        // no price announcement.
        let out = a.handle_bid(2, 2.0);
        assert_eq!(out, BidOutcome::Accepted { evicted: Some(0), new_price: None });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_bid_panics() {
        let mut a = Auctioneer::new(1);
        let _ = a.handle_bid(0, f64::NAN);
    }

    #[test]
    fn release_frees_a_unit_and_resets_price() {
        let mut a = Auctioneer::new(2);
        a.handle_bid(0, 1.0);
        a.handle_bid(1, 2.0);
        assert_eq!(a.price(), 1.0);
        assert_eq!(a.release(0), Some(0.0));
        assert_eq!(a.price(), 0.0);
        assert_eq!(a.assigned_len(), 1);
        // Releasing an unknown request is a no-op.
        assert_eq!(a.release(42), None);
        assert_eq!(a.assigned_len(), 1);
    }

    #[test]
    fn release_with_zero_price_reports_no_change() {
        let mut a = Auctioneer::new(3);
        a.handle_bid(0, 1.0);
        assert_eq!(a.price(), 0.0);
        assert_eq!(a.release(0), None);
        assert_eq!(a.assigned_len(), 0);
    }

    #[test]
    fn take_all_empties_the_set() {
        let mut a = Auctioneer::new(2);
        a.handle_bid(7, 1.0);
        a.handle_bid(9, 2.0);
        let mut evicted = a.take_all();
        evicted.sort_unstable();
        assert_eq!(evicted, vec![7, 9]);
        assert_eq!(a.assigned_len(), 0);
        // Fresh bids are admitted again.
        assert!(matches!(a.handle_bid(1, 3.0), BidOutcome::Accepted { .. }));
    }
}
