//! Transport-agnostic protocol state machines for the distributed auction.
//!
//! The per-peer bid/price logic lives here once, as two pure state
//! machines — [`BidderNode`] (one per request) and [`AuctioneerNode`] (one
//! per provider) — that know nothing about threads, sockets, wall clocks
//! or event queues. A transport feeds them messages and forwards the
//! messages they emit; *when* and *in what order* those messages arrive is
//! entirely the transport's business.
//!
//! Two transports drive these machines today:
//!
//! * the virtual-time swarm backend ([`crate::swarm`]): logical actors on
//!   the simulator's event queue with cost-derived link latency, a seeded
//!   fault-injecting network model and Sec. IV-C departures — Fig. 2's
//!   price races, reproducibly, at 10⁵ peers in seconds;
//! * the networked runtime (`p2p_net`): a tracker and peer processes over
//!   real TCP sockets — the paper's "one process per peer" emulator style.
//!
//! The split between [`BidderNode::absorb`] (state update only) and
//! [`BidderNode::poll`] (emit a bid if one is due) is what lets one state
//! machine serve both execution styles: reactive transports call
//! [`BidderNode::on_message`] (absorb + poll) so every delivery can trigger
//! a counter-bid immediately, while the synchronous-rounds transports (the
//! swarm's ideal world, the tracker with its peers) absorb deliveries
//! silently, ask each open bidder to [`decide`](BidderNode::decide) once
//! per turn at the live prices, and apply that decision through the one
//! [`Sweep`](crate::Sweep) that [`crate::SyncAuction`] drives — the
//! Gauss–Seidel order, bid for bid, by construction.

use crate::auctioneer::{Auctioneer, BidOutcome};
use crate::bidder::{decide_bid_over, BidDecision, EdgeView};
use crate::instance::{ProviderIdx, RequestIdx};
use crate::messages::AuctionMsg;

/// How a bidder reconciles a newly observed price with what it already
/// knows about a provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnPolicy {
    /// Keep the maximum ever observed. Correct whenever prices are
    /// monotone within a run (no departures), and robust to reordered or
    /// duplicated observations — the swarm's policy for runs without
    /// departures.
    Monotone,
    /// Believe the latest observation. Required when departures can
    /// *reset* prices (Sec. IV-C): a release genuinely lowers λ and the
    /// bidder must believe the decrease. Needs per-link FIFO delivery to
    /// keep observations ordered — the swarm's policy for runs with
    /// departures.
    Latest,
}

/// Bidder protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidderPhase {
    /// Unassigned; free to bid when prices allow.
    Idle,
    /// A bid is in flight; wait for the outcome before bidding again.
    Pending,
    /// Holds a bandwidth unit at the provider.
    Assigned(ProviderIdx),
}

/// The per-request bidder state machine: edge views, locally known prices
/// and the protocol phase. Pure — no threads, no channels, no clocks; it
/// only reacts to the messages a transport feeds it.
#[derive(Debug, Clone)]
pub struct BidderNode {
    request: RequestIdx,
    views: Vec<EdgeView>,
    known: Vec<f64>,
    phase: BidderPhase,
    epsilon: f64,
    policy: LearnPolicy,
    cancelled: bool,
}

impl BidderNode {
    /// Creates the node with initial price knowledge drawn from
    /// `price_of`: `0` for every provider with capacity, since every run
    /// starts from λ = 0, and `+∞` for zero-capacity providers so the
    /// bidder never targets them — the convention every engine shares.
    /// Each provider may appear in `views` once, as instances guarantee.
    pub fn new(
        request: RequestIdx,
        views: Vec<EdgeView>,
        epsilon: f64,
        policy: LearnPolicy,
        price_of: impl Fn(ProviderIdx) -> f64,
    ) -> Self {
        debug_assert!(
            views
                .iter()
                .enumerate()
                .all(|(k, v)| views[..k].iter().all(|w| w.provider != v.provider)),
            "request {request} lists a provider twice"
        );
        let known = views.iter().map(|v| price_of(v.provider)).collect();
        BidderNode {
            request,
            views,
            known,
            phase: BidderPhase::Idle,
            epsilon,
            policy,
            cancelled: false,
        }
    }

    /// The request this node bids for.
    pub fn request(&self) -> RequestIdx {
        self.request
    }

    /// The node's edge views (provider + net utility per candidate edge).
    pub fn views(&self) -> &[EdgeView] {
        &self.views
    }

    /// The current protocol phase.
    pub fn phase(&self) -> BidderPhase {
        self.phase
    }

    /// Whether the request has been cancelled (its downstream peer left).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Cancels the request (Sec. IV-C bidder departure): the node ignores
    /// every further message and never bids again.
    pub fn cancel(&mut self) {
        self.cancelled = true;
    }

    /// Records an observed price for `provider` per the learn policy.
    pub fn learn(&mut self, provider: ProviderIdx, price: f64) {
        if let Some(k) = self.views.iter().position(|v| v.provider == provider) {
            match self.policy {
                LearnPolicy::Latest => self.known[k] = price,
                LearnPolicy::Monotone => {
                    if price > self.known[k] {
                        self.known[k] = price;
                    }
                }
            }
        }
    }

    /// Overwrites the known price of every live candidate from `prices`,
    /// the row's prices in edge order (the `k`-th belongs to `views()[k]`):
    /// what a poll carries on the wire, or what the ideal zero-latency
    /// transport reads off [`Sweep::row_prices`](crate::Sweep::row_prices),
    /// so the bidder sees exact current prices. Entries currently `+∞`
    /// mark zero-capacity providers and stay pinned there.
    ///
    /// # Panics
    ///
    /// Panics unless `prices` holds one price per candidate edge.
    pub fn refresh_prices(&mut self, prices: impl ExactSizeIterator<Item = f64>) {
        assert_eq!(prices.len(), self.views.len(), "one price per candidate edge");
        for (known, p) in self.known.iter_mut().zip(prices) {
            if known.is_finite() {
                *known = p;
            }
        }
    }

    /// Updates state from a delivered message **without** emitting a
    /// counter-bid. Cancelled nodes ignore everything.
    pub fn absorb(&mut self, msg: &AuctionMsg) {
        if self.cancelled {
            return;
        }
        match *msg {
            AuctionMsg::Accepted { provider, .. } => {
                self.phase = BidderPhase::Assigned(provider);
            }
            AuctionMsg::Rejected { provider, price, .. }
            | AuctionMsg::Evicted { provider, price, .. } => {
                // A rejection/eviction may cross an Accepted message in
                // flight; in either order the request must end up Idle
                // with the price learned.
                self.learn(provider, price);
                self.phase = BidderPhase::Idle;
            }
            AuctionMsg::PriceUpdate { provider, price, .. } => {
                self.learn(provider, price);
            }
            AuctionMsg::Bid { .. } => {
                debug_assert!(false, "bidders never receive bids");
            }
        }
    }

    /// Full bid decision over the known prices (Sec. IV-B top-2 rule).
    /// On a `Bid` decision the node transitions to [`BidderPhase::Pending`]
    /// and the transport must deliver the returned message; abstentions
    /// leave the phase untouched and report why (the synchronous-rounds
    /// transport uses the reason to retire priced-out requests).
    pub fn decide(&mut self) -> BidDecision {
        if self.cancelled || self.phase != BidderPhase::Idle {
            return BidDecision::Abstain { reason: crate::bidder::AbstainReason::NoCandidates };
        }
        // `known` is aligned with the edge order, so the scan reads each
        // candidate's price in place.
        let edges = self.views.iter().zip(&self.known).map(|(v, &l)| (v.provider, v.utility, l));
        let decision = decide_bid_over(edges, self.epsilon);
        if let BidDecision::Bid { .. } = decision {
            self.phase = BidderPhase::Pending;
        }
        decision
    }

    /// Lets an idle bidder reconsider; returns the bid message to deliver
    /// if one is due.
    pub fn poll(&mut self) -> Option<AuctionMsg> {
        match self.decide() {
            BidDecision::Bid { edge, provider, amount } => {
                Some(AuctionMsg::Bid { request: self.request, edge, provider, amount })
            }
            BidDecision::Abstain { .. } => None,
        }
    }

    /// Reactive step function: absorb the delivery, then poll — the one
    /// call reactive transports need per delivered message.
    pub fn on_message(&mut self, msg: &AuctionMsg) -> Option<AuctionMsg> {
        self.absorb(msg);
        self.poll()
    }
}

/// Everything an auctioneer says in response to one bid: the direct reply
/// to the bidder, an eviction notice for the displaced loser (if any) and
/// the new price to announce (if it changed). Destinations are implicit in
/// the message fields; how the announcement travels — immediate fan-out,
/// coalesced broadcast, piggy-backed gossip — is the transport's choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidReply {
    /// `Accepted` or `Rejected`, addressed to the bidding request.
    pub reply: AuctionMsg,
    /// `Evicted` notice for the displaced request, if the bid evicted one
    /// (priced at the provider's λ *after* the accept).
    pub evicted: Option<AuctionMsg>,
    /// The provider's new price, if this bid raised it.
    pub price_changed: Option<f64>,
}

/// The per-provider auctioneer state machine: a thin, transport-free shell
/// over [`Auctioneer`] that turns bid outcomes into protocol messages and
/// handles the Sec. IV-C departure protocol.
#[derive(Debug)]
pub struct AuctioneerNode {
    provider: ProviderIdx,
    state: Auctioneer,
    offline: bool,
}

impl AuctioneerNode {
    /// Creates the node for `provider` with `capacity` units at price 0.
    pub fn new(provider: ProviderIdx, capacity: u32) -> Self {
        AuctioneerNode { provider, state: Auctioneer::new(capacity), offline: false }
    }

    /// The provider this node auctions for.
    pub fn provider(&self) -> ProviderIdx {
        self.provider
    }

    /// The current price λ.
    pub fn price(&self) -> f64 {
        self.state.price()
    }

    /// Capacity in units.
    pub fn capacity(&self) -> u32 {
        self.state.capacity()
    }

    /// Whether the provider has departed.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Currently assigned `(request, bid)` pairs.
    pub fn assigned(&self) -> impl Iterator<Item = (RequestIdx, f64)> + '_ {
        self.state.assigned()
    }

    /// Handles one bid, yielding every message the auctioneer owes in
    /// response. An offline auctioneer rejects at price `+∞` so the bidder
    /// looks elsewhere.
    pub fn on_bid(&mut self, request: RequestIdx, amount: f64) -> BidReply {
        let provider = self.provider;
        if self.offline {
            return BidReply {
                reply: AuctionMsg::Rejected { request, provider, price: f64::INFINITY },
                evicted: None,
                price_changed: None,
            };
        }
        match self.state.handle_bid(request, amount) {
            BidOutcome::Rejected { price } => BidReply {
                reply: AuctionMsg::Rejected { request, provider, price },
                evicted: None,
                price_changed: None,
            },
            BidOutcome::Accepted { evicted, new_price } => BidReply {
                reply: AuctionMsg::Accepted { request, provider },
                evicted: evicted.map(|loser| AuctionMsg::Evicted {
                    request: loser,
                    provider,
                    price: self.state.price(),
                }),
                price_changed: new_price,
            },
        }
    }

    /// Releases a departed bidder's unit; returns the reset price if the
    /// provider was full (the transport should then announce it). No-op on
    /// an offline auctioneer.
    pub fn release(&mut self, request: RequestIdx) -> Option<f64> {
        if self.offline {
            return None;
        }
        self.state.release(request)
    }

    /// Takes the provider offline (Sec. IV-C auctioneer departure) and
    /// returns the `Evicted` notice (price `+∞`) owed to every winner. The
    /// transport should follow with a farewell price announcement of `+∞`.
    pub fn go_offline(&mut self) -> Vec<AuctionMsg> {
        self.offline = true;
        let provider = self.provider;
        self.state
            .take_all()
            .into_iter()
            .map(|request| AuctionMsg::Evicted { request, provider, price: f64::INFINITY })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidder::{decide_bid, AbstainReason};
    use proptest::prelude::*;

    fn views() -> Vec<EdgeView> {
        vec![EdgeView { provider: 0, utility: 5.0 }, EdgeView { provider: 1, utility: 3.0 }]
    }

    #[test]
    fn bidder_bids_best_net_utility_and_goes_pending() {
        let mut b = BidderNode::new(7, views(), 0.0, LearnPolicy::Monotone, |_| 0.0);
        let msg = b.poll().expect("profitable request must bid");
        match msg {
            AuctionMsg::Bid { request, provider, amount, .. } => {
                assert_eq!(request, 7);
                assert_eq!(provider, 0);
                assert!(amount > 0.0);
            }
            other => panic!("expected bid, got {other:?}"),
        }
        assert_eq!(b.phase(), BidderPhase::Pending);
        assert!(b.poll().is_none(), "pending bidders never double-bid");
    }

    #[test]
    fn absorb_transitions_follow_the_protocol() {
        let mut b = BidderNode::new(0, views(), 0.0, LearnPolicy::Monotone, |_| 0.0);
        b.poll().unwrap();
        b.absorb(&AuctionMsg::Accepted { request: 0, provider: 0 });
        assert_eq!(b.phase(), BidderPhase::Assigned(0));
        b.absorb(&AuctionMsg::Evicted { request: 0, provider: 0, price: 4.0 });
        assert_eq!(b.phase(), BidderPhase::Idle);
        // The eviction price was learned; the next bid targets provider 1.
        match b.poll().unwrap() {
            AuctionMsg::Bid { provider, .. } => assert_eq!(provider, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn learn_policies_differ_on_decreases() {
        let mut mono = BidderNode::new(0, views(), 0.0, LearnPolicy::Monotone, |_| 0.0);
        let mut latest = BidderNode::new(0, views(), 0.0, LearnPolicy::Latest, |_| 0.0);
        for b in [&mut mono, &mut latest] {
            b.learn(0, 3.0);
            b.learn(0, 1.0);
        }
        assert_eq!(mono.known[0], 3.0, "monotone keeps the max");
        assert_eq!(latest.known[0], 1.0, "latest believes the decrease");
    }

    #[test]
    fn cancelled_bidders_are_inert() {
        let mut b = BidderNode::new(0, views(), 0.0, LearnPolicy::Latest, |_| 0.0);
        b.cancel();
        assert!(b.poll().is_none());
        b.absorb(&AuctionMsg::Accepted { request: 0, provider: 0 });
        assert_eq!(b.phase(), BidderPhase::Idle, "cancelled nodes ignore messages");
    }

    #[test]
    fn zero_capacity_knowledge_survives_refresh() {
        let price_of = |p: ProviderIdx| if p == 1 { f64::INFINITY } else { 0.0 };
        let mut b = BidderNode::new(0, views(), 0.0, LearnPolicy::Monotone, price_of);
        b.refresh_prices([2.5, 1.25].into_iter());
        assert_eq!(b.known[0], 2.5);
        assert_eq!(b.known[1], f64::INFINITY, "zero-capacity entries stay pinned");
    }

    #[test]
    #[should_panic(expected = "one price per candidate edge")]
    fn aligned_refresh_rejects_mismatched_lengths() {
        let mut b = BidderNode::new(0, views(), 0.0, LearnPolicy::Monotone, |_| 0.0);
        b.refresh_prices([1.0].into_iter());
    }

    proptest! {
        /// The edge-order scan decides exactly as the provider lookup it
        /// replaced, over views with distinct providers, learned prices,
        /// exact ties on a half-unit grid and `+∞` zero-capacity pins.
        #[test]
        fn decide_matches_the_provider_lookup(
            edges in prop::collection::vec((0usize..12, 0u8..12), 0..10),
            learned in prop::collection::vec((0usize..12, 0u8..8), 0..12),
            latest in any::<bool>(),
            eps in 0u8..3,
        ) {
            let mut views: Vec<EdgeView> = Vec::new();
            for (provider, u) in edges {
                if views.iter().all(|v| v.provider != provider) {
                    views.push(EdgeView { provider, utility: f64::from(u) * 0.5 - 1.0 });
                }
            }
            let policy = if latest { LearnPolicy::Latest } else { LearnPolicy::Monotone };
            let pin = |p: ProviderIdx| if p % 5 == 4 { f64::INFINITY } else { 0.0 };
            let mut node = BidderNode::new(0, views.clone(), f64::from(eps) * 0.25, policy, pin);
            for (provider, price) in learned {
                node.learn(provider, f64::from(price) * 0.5);
            }
            let known = node.known.clone();
            let oracle = decide_bid(
                &views,
                |p| {
                    views
                        .iter()
                        .position(|v| v.provider == p)
                        .map(|k| known[k])
                        .unwrap_or(f64::INFINITY)
                },
                node.epsilon,
            );
            prop_assert_eq!(node.decide(), oracle);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "request 3 lists a provider twice")]
    fn duplicate_providers_are_rejected() {
        let twice = vec![views()[0], views()[1], views()[0]];
        BidderNode::new(3, twice, 0.0, LearnPolicy::Monotone, |_| 0.0);
    }

    #[test]
    fn unprofitable_abstention_reports_reason() {
        let mut b = BidderNode::new(0, views(), 0.0, LearnPolicy::Monotone, |_| 100.0);
        match b.decide() {
            BidDecision::Abstain { reason } => assert_eq!(reason, AbstainReason::Unprofitable),
            other => panic!("{other:?}"),
        }
        assert_eq!(b.phase(), BidderPhase::Idle);
    }

    #[test]
    fn auctioneer_replies_accept_evict_and_announce() {
        let mut a = AuctioneerNode::new(3, 1);
        let first = a.on_bid(10, 2.0);
        assert_eq!(first.reply, AuctionMsg::Accepted { request: 10, provider: 3 });
        assert!(first.evicted.is_none());
        assert_eq!(first.price_changed, Some(2.0), "full provider prices at the min bid");
        let second = a.on_bid(11, 5.0);
        assert_eq!(second.reply, AuctionMsg::Accepted { request: 11, provider: 3 });
        assert_eq!(
            second.evicted,
            Some(AuctionMsg::Evicted { request: 10, provider: 3, price: 5.0 }),
            "the eviction carries the post-accept price"
        );
        let low = a.on_bid(12, 1.0);
        assert_eq!(low.reply, AuctionMsg::Rejected { request: 12, provider: 3, price: 5.0 });
    }

    #[test]
    fn offline_auctioneer_evicts_all_and_rejects_at_infinity() {
        let mut a = AuctioneerNode::new(0, 2);
        a.on_bid(1, 1.0);
        a.on_bid(2, 2.0);
        let notices = a.go_offline();
        assert_eq!(notices.len(), 2);
        for n in &notices {
            assert!(matches!(n, AuctionMsg::Evicted { price, .. } if price.is_infinite()), "{n:?}");
        }
        let r = a.on_bid(3, 9.0);
        assert!(
            matches!(r.reply, AuctionMsg::Rejected { price, .. } if price.is_infinite()),
            "{:?}",
            r.reply
        );
        assert_eq!(a.release(1), None, "offline releases are no-ops");
    }
}
