//! The bidder side of the auction: pure bid computation.
//!
//! "Bidding of Peer d" (Sec. IV-B): for a chunk `c`, the peer computes the
//! net utility `φ_u = v^{(c)}(d) − w_{u→d} − λ_u` for every neighbor caching
//! `c`, targets the neighbor `u*` with the largest net utility, and bids
//!
//! ```text
//! b(d, c, u*) = λ_{u*} + φ(u*) − φ(û)  =  w_{û→d} − w_{u*→d} + λ_û
//! ```
//!
//! where `û` is the second-best neighbor. If `b == λ_{u*}` the peer does not
//! send the bid and waits for prices to change (the paper's abstention
//! rule). Two refinements make the bidder rational and ε-capable:
//!
//! * the second-best utility is floored at the outside option 0 (never bid
//!   above your own value `v − w`), which coincides with the paper's rule
//!   whenever a profitable second choice exists and with Bertsekas' classic
//!   single-object rule otherwise;
//! * an optional `ε` is added to the bid (Bertsekas ε-complementary
//!   slackness), guaranteeing termination under ties at a welfare loss of
//!   at most `n·ε` — `ε = 0` is the paper-faithful mode.

use crate::instance::ProviderIdx;
use serde::{Deserialize, Serialize};

/// A bidder-visible candidate edge: the provider and the edge's welfare
/// weight `v − w` (price-independent part of the net utility).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeView {
    /// Which provider this edge points at.
    pub provider: ProviderIdx,
    /// The edge's `v − w`.
    pub utility: f64,
}

/// Outcome of one bid computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BidDecision {
    /// Submit `amount` for one bandwidth unit at `provider` (the request's
    /// `edge`-th candidate).
    Bid {
        /// Index of the chosen edge within the request's candidate list.
        edge: usize,
        /// The chosen provider (the `u*` of the paper).
        provider: ProviderIdx,
        /// The bid `b(d, c, u*)`.
        amount: f64,
    },
    /// No profitable strictly-improving bid exists right now.
    Abstain {
        /// Why the bidder stays quiet.
        reason: AbstainReason,
    },
}

/// Why a bidder abstains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbstainReason {
    /// The request has no candidate edges at all.
    NoCandidates,
    /// Every candidate has negative net utility at current prices
    /// (`φ* < 0`): downloading would cost more than it is worth.
    Unprofitable,
    /// The best and second-best utilities tie (`b == λ*`), so the paper's
    /// rule is to wait for a price change.
    ZeroMargin,
}

/// Computes the paper's bid for one request.
///
/// `price_of(p)` must return the bidder's current knowledge of `λ_p`
/// (possibly stale in asynchronous executions — the auctioneer re-validates
/// every bid against its true price). `epsilon ≥ 0` selects the ε-variant.
///
/// Ties between equally good providers break toward the earliest edge in
/// `edges`, making every engine deterministic.
///
/// # Examples
///
/// ```
/// use p2p_core::{BidDecision, EdgeView};
/// use p2p_core::bidder::decide_bid;
///
/// let edges = [
///     EdgeView { provider: 0, utility: 4.0 }, // v - w = 4
///     EdgeView { provider: 1, utility: 1.0 }, // v - w = 1
/// ];
/// // Prices are all zero: best φ = 4 at provider 0, second-best 1.
/// let d = decide_bid(&edges, |_| 0.0, 0.0);
/// assert_eq!(d, BidDecision::Bid { edge: 0, provider: 0, amount: 3.0 });
/// ```
pub fn decide_bid(
    edges: &[EdgeView],
    price_of: impl Fn(ProviderIdx) -> f64,
    epsilon: f64,
) -> BidDecision {
    decide_bid_with_floor(edges, price_of, epsilon, MIN_INCREMENT)
}

/// The default floor under which a bid increment counts as a tie.
///
/// Floating-point arithmetic can leave two structurally tied candidates
/// with a residual margin of a few ULPs; bidding on such a margin creeps
/// the price by ~1e-13 per round and the ε = 0 auction livelocks. Margins
/// below the floor are treated as the exact ties they are, triggering the
/// paper's wait rule.
///
/// The `requests × floor` welfare bound covers only those sub-floor
/// residual margins. An exact top-2 tie also abstains with
/// [`AbstainReason::ZeroMargin`], and if no later price change wakes the
/// request it stays unassigned with positive net utility: on real Sec. V
/// slots at ε = 0 this strands whole requests, far above the floor (see
/// the ε = 0 item in `ROADMAP.md`).
pub const MIN_INCREMENT: f64 = 1e-9;

/// [`decide_bid`] with an explicit tie floor: abstain unless the effective
/// bid increment `margin + ε` reaches `min_increment`.
pub fn decide_bid_with_floor(
    edges: &[EdgeView],
    price_of: impl Fn(ProviderIdx) -> f64,
    epsilon: f64,
    min_increment: f64,
) -> BidDecision {
    decide_bid_over(edges.iter().map(|e| (e.provider, e.utility)), price_of, epsilon, min_increment)
}

/// The top-2 reduction a bid decision is made from: the best candidate
/// (largest `φ`, earliest edge on ties) and the second-largest `φ` counting
/// multiplicity (a duplicate maximum *is* the second-best).
///
/// Both quantities are order-invariant functions of the `(edge, φ)`
/// multiset — they depend only on exact float comparisons, never on the
/// visit order — which is what lets [`crate::csr::kernel`] compute them
/// lane-parallel and still match the sequential scan bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Top2 {
    /// Local index of the best edge within the request's candidate list.
    pub edge: usize,
    /// The best candidate's provider.
    pub provider: ProviderIdx,
    /// The best net utility `φ* = v − w − λ`.
    pub best_phi: f64,
    /// The best candidate's price `λ*` at decision time.
    pub best_lambda: f64,
    /// The second-largest net utility (`−∞` with a single candidate).
    pub second_phi: f64,
}

/// Turns a [`Top2`] reduction into the paper's bid decision — the epilogue
/// shared by both scans (the sequential iterator and the flat engine's
/// kernel lanes), so a decision differs between them only if the
/// reductions differ.
pub(crate) fn decision_from_top2(
    top: Option<Top2>,
    epsilon: f64,
    min_increment: f64,
) -> BidDecision {
    let Some(Top2 { edge, provider, best_phi, best_lambda, second_phi }) = top else {
        return BidDecision::Abstain { reason: AbstainReason::NoCandidates };
    };
    if best_phi < 0.0 {
        return BidDecision::Abstain { reason: AbstainReason::Unprofitable };
    }

    // The outside option (staying unassigned, utility 0) floors the
    // second-best: never bid above own value.
    let reference = second_phi.max(0.0);
    let margin = best_phi - reference;
    debug_assert!(margin >= 0.0);
    if margin + epsilon < min_increment {
        return BidDecision::Abstain { reason: AbstainReason::ZeroMargin };
    }
    let amount = best_lambda + margin + epsilon;
    if amount <= best_lambda {
        return BidDecision::Abstain { reason: AbstainReason::ZeroMargin };
    }
    BidDecision::Bid { edge, provider, amount }
}

/// The sequential edge-at-a-time decision core over a `(provider,
/// utility)` iterator: the bid scan of the nested ([`EdgeView`] slice)
/// engines, and the oracle the flat engine's lane kernel
/// ([`crate::csr::kernel`]) is tested against.
pub(crate) fn decide_bid_over(
    edges: impl Iterator<Item = (ProviderIdx, f64)>,
    price_of: impl Fn(ProviderIdx) -> f64,
    epsilon: f64,
    min_increment: f64,
) -> BidDecision {
    // Single pass: track the best and second-best net utilities.
    let mut best: Option<(usize, f64, f64, ProviderIdx)> = None; // (edge, φ, λ, u)
    let mut second_phi = f64::NEG_INFINITY;
    for (k, (provider, utility)) in edges.enumerate() {
        let lambda = price_of(provider);
        let phi = utility - lambda;
        match best {
            Some((_, best_phi, _, _)) if phi <= best_phi => {
                if phi > second_phi {
                    second_phi = phi;
                }
            }
            Some((_, best_phi, _, _)) => {
                second_phi = best_phi;
                best = Some((k, phi, lambda, provider));
            }
            None => best = Some((k, phi, lambda, provider)),
        }
    }
    let top = best.map(|(edge, best_phi, best_lambda, provider)| Top2 {
        edge,
        provider,
        best_phi,
        best_lambda,
        second_phi,
    });
    decision_from_top2(top, epsilon, min_increment)
}

/// The best achievable net utility `max_u (v − w − λ_u)` for a request, or
/// `None` when it has no candidates. Used for the dual variables
/// `η^{(c)}_d` and the third complementary-slackness condition.
pub fn best_net_utility(edges: &[EdgeView], price_of: impl Fn(ProviderIdx) -> f64) -> Option<f64> {
    edges
        .iter()
        .map(|e| e.utility - price_of(e.provider))
        .fold(None, |acc, phi| Some(acc.map_or(phi, |a: f64| a.max(phi))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prices(p: &[f64]) -> impl Fn(ProviderIdx) -> f64 + '_ {
        move |i| p[i]
    }

    #[test]
    fn paper_bid_formula() {
        // φ0 = 5-1-λ0, φ1 = 5-4-λ1 with λ = (2, 0):
        // φ0 = 2, φ1 = 1 → bid at 0 with amount λ0 + (2-1) = 3
        // = w_hat - w_star + λ_hat = 4 - 1 + 0 = 3 ✓ (the paper's form)
        let edges =
            [EdgeView { provider: 0, utility: 4.0 }, EdgeView { provider: 1, utility: 1.0 }];
        let d = decide_bid(&edges, prices(&[2.0, 0.0]), 0.0);
        assert_eq!(d, BidDecision::Bid { edge: 0, provider: 0, amount: 3.0 });
    }

    #[test]
    fn no_candidates_abstains() {
        assert_eq!(
            decide_bid(&[], |_| 0.0, 0.0),
            BidDecision::Abstain { reason: AbstainReason::NoCandidates }
        );
    }

    #[test]
    fn unprofitable_abstains() {
        let edges = [EdgeView { provider: 0, utility: -2.0 }];
        assert_eq!(
            decide_bid(&edges, |_| 0.0, 0.0),
            BidDecision::Abstain { reason: AbstainReason::Unprofitable }
        );
        // Profitable utility but price pushes φ below zero.
        let edges = [EdgeView { provider: 0, utility: 2.0 }];
        assert_eq!(
            decide_bid(&edges, |_| 3.0, 0.0),
            BidDecision::Abstain { reason: AbstainReason::Unprofitable }
        );
    }

    #[test]
    fn tie_abstains_without_epsilon_but_bids_with_it() {
        let edges =
            [EdgeView { provider: 0, utility: 2.0 }, EdgeView { provider: 1, utility: 2.0 }];
        assert_eq!(
            decide_bid(&edges, |_| 0.0, 0.0),
            BidDecision::Abstain { reason: AbstainReason::ZeroMargin }
        );
        let d = decide_bid(&edges, |_| 0.0, 0.5);
        assert_eq!(d, BidDecision::Bid { edge: 0, provider: 0, amount: 0.5 });
    }

    #[test]
    fn single_candidate_bids_full_value() {
        // No second-best: the outside option (0) is the reference, so the
        // bid rises to the full surplus λ + φ = v − w.
        let edges = [EdgeView { provider: 3, utility: 7.5 }];
        let d = decide_bid(&edges, |_| 1.0, 0.0);
        assert_eq!(d, BidDecision::Bid { edge: 0, provider: 3, amount: 7.5 });
    }

    #[test]
    fn negative_second_best_is_floored_at_outside_option() {
        let edges =
            [EdgeView { provider: 0, utility: 3.0 }, EdgeView { provider: 1, utility: -5.0 }];
        // Without flooring the bid would be λ0 + 3 − (−5) = 8 > value 3.
        let d = decide_bid(&edges, |_| 0.0, 0.0);
        assert_eq!(d, BidDecision::Bid { edge: 0, provider: 0, amount: 3.0 });
    }

    #[test]
    fn deterministic_tie_break_prefers_first_edge() {
        let edges = [
            EdgeView { provider: 5, utility: 2.0 },
            EdgeView { provider: 2, utility: 2.0 },
            EdgeView { provider: 9, utility: 1.0 },
        ];
        // Margin vs second-best (=2): zero → abstain at ε=0; with ε the
        // first maximal edge is chosen.
        let d = decide_bid(&edges, |_| 0.0, 0.1);
        assert!(matches!(d, BidDecision::Bid { edge: 0, provider: 5, .. }));
    }

    #[test]
    fn stale_prices_still_produce_bids() {
        // The bidder believes λ0 = 0 even though the true price is higher;
        // the auctioneer will reject, but the decision itself is valid.
        let edges = [EdgeView { provider: 0, utility: 1.0 }];
        let d = decide_bid(&edges, |_| 0.0, 0.0);
        assert_eq!(d, BidDecision::Bid { edge: 0, provider: 0, amount: 1.0 });
    }

    #[test]
    fn best_net_utility_matches_max() {
        let edges =
            [EdgeView { provider: 0, utility: 4.0 }, EdgeView { provider: 1, utility: 6.0 }];
        let phi = best_net_utility(&edges, prices(&[0.0, 3.0])).unwrap();
        assert_eq!(phi, 4.0);
        assert_eq!(best_net_utility(&[], |_| 0.0), None);
    }
}
