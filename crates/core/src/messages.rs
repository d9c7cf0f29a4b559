//! Protocol messages exchanged by bidders and auctioneers in asynchronous
//! executions (the swarm simulator in [`crate::swarm`] and the networked
//! tracker and peers of the `p2p-net` crate share this vocabulary).

use crate::instance::{ProviderIdx, RequestIdx};
use serde::{Deserialize, Serialize};

/// A wire message of the distributed auction protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AuctionMsg {
    /// Bidder → auctioneer: bid `amount` for one bandwidth unit, on behalf
    /// of `request`, choosing its `edge`-th candidate.
    Bid {
        /// The bidding request.
        request: RequestIdx,
        /// Index of the chosen edge within the request's candidate list.
        edge: usize,
        /// Target provider.
        provider: ProviderIdx,
        /// The bid `b(d, c, u)`.
        amount: f64,
    },
    /// Auctioneer → bidder: the bid was admitted.
    Accepted {
        /// The winning request.
        request: RequestIdx,
        /// The provider that admitted it.
        provider: ProviderIdx,
    },
    /// Auctioneer → bidder: the bid was below the (newer) price.
    Rejected {
        /// The rejected request.
        request: RequestIdx,
        /// The provider that rejected it.
        provider: ProviderIdx,
        /// The provider's current price, refreshing the bidder's knowledge.
        price: f64,
    },
    /// Auctioneer → bidder: a previously admitted request lost its unit to
    /// a higher bid.
    Evicted {
        /// The evicted request.
        request: RequestIdx,
        /// The provider it was evicted from.
        provider: ProviderIdx,
        /// The provider's current price.
        price: f64,
    },
    /// Auctioneer → neighborhood: price announcement ("informs its
    /// neighbors this updated bandwidth price").
    PriceUpdate {
        /// The request being informed (fan-out is per listener).
        listener: RequestIdx,
        /// The provider whose price changed.
        provider: ProviderIdx,
        /// The new price.
        price: f64,
    },
}

impl AuctionMsg {
    /// The provider involved in this message.
    pub fn provider(&self) -> ProviderIdx {
        match self {
            AuctionMsg::Bid { provider, .. }
            | AuctionMsg::Accepted { provider, .. }
            | AuctionMsg::Rejected { provider, .. }
            | AuctionMsg::Evicted { provider, .. }
            | AuctionMsg::PriceUpdate { provider, .. } => *provider,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_accessor_covers_all_variants() {
        let msgs = [
            AuctionMsg::Bid { request: 0, edge: 0, provider: 3, amount: 1.0 },
            AuctionMsg::Accepted { request: 0, provider: 3 },
            AuctionMsg::Rejected { request: 0, provider: 3, price: 1.0 },
            AuctionMsg::Evicted { request: 0, provider: 3, price: 1.0 },
            AuctionMsg::PriceUpdate { listener: 0, provider: 3, price: 1.0 },
        ];
        for m in msgs {
            assert_eq!(m.provider(), 3);
        }
    }
}
