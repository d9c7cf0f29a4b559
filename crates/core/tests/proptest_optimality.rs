//! Property-based verification of Theorem 1: on random (tie-free,
//! continuous-valued) instances the primal-dual auction reaches exactly the
//! optimal social welfare computed by the independent min-cost-flow solver,
//! and its primal/dual pair passes the complementary-slackness certificate.

use p2p_core::bertsekas::solve_via_expansion;
use p2p_core::{
    verify_optimality, AuctionConfig, CostLatency, NetworkModel, SwarmAuction, SwarmConfig,
    SyncAuction, WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use proptest::prelude::*;

/// A randomly generated welfare instance with continuous utilities (ties
/// have probability zero, the regime of the paper's Theorem 1).
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let provider = (1u32..=5).prop_map(|cap| cap); // capacity
    let providers = prop::collection::vec(provider, 1..8);
    providers.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = prop::collection::vec(edge, 0..=p);
        let requests = prop::collection::vec(request, 0..20);
        (Just(caps), requests).prop_map(|(caps, reqs)| {
            let mut b = WelfareInstance::builder();
            for (i, cap) in caps.iter().enumerate() {
                b.add_provider(PeerId::new(1000 + i as u32), *cap);
            }
            for (d, edges) in reqs.into_iter().enumerate() {
                let r = b.add_request(RequestId::new(
                    PeerId::new(d as u32),
                    ChunkId::new(VideoId::new(0), d as u32),
                ));
                let mut seen = std::collections::HashSet::new();
                for (u, v, w) in edges {
                    if seen.insert(u) {
                        b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The ε = 0 auction matches the exact optimum on tie-free instances.
    #[test]
    fn sync_auction_is_socially_optimal(inst in arb_instance()) {
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        prop_assert!(out.converged);
        let exact = inst.optimal_welfare().get();
        let got = out.assignment.welfare(&inst).get();
        prop_assert!((got - exact).abs() < 1e-6,
            "auction {got} vs exact {exact}");
        prop_assert!(out.assignment.validate(&inst).is_ok());
    }

    /// The converged primal/dual pair passes the Theorem 1 certificate.
    #[test]
    fn sync_auction_satisfies_complementary_slackness(inst in arb_instance()) {
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-7);
        prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
    }

    /// Weak duality holds strictly: primal ≤ dual for the reported pair.
    #[test]
    fn weak_duality(inst in arb_instance()) {
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        prop_assert!(out.assignment.welfare(&inst).get()
            <= out.duals.objective(&inst) + 1e-6);
    }

    /// The asynchronous message-level execution (cost-derived link
    /// latencies, stale prices, racing evictions) reaches the same optimum
    /// under the paper's ε = 0 rule.
    #[test]
    fn distributed_execution_matches_exact_optimum(
        inst in arb_instance(),
        base_ms in 0.0f64..20.0,
        ms_per_cost in 1.0f64..150.0,
        seed in 0u64..1000,
    ) {
        let net = NetworkModel::cost_derived(CostLatency { base_ms, ms_per_cost });
        let out = SwarmAuction::new(SwarmConfig::paper(), net).run(&inst, seed).unwrap();
        let exact = inst.optimal_welfare().get();
        prop_assert!((out.assignment.welfare(&inst).get() - exact).abs() < 1e-6);
        prop_assert!(out.assignment.validate(&inst).is_ok());
    }

    /// The ε-auction is within `requests · ε` of optimal (Bertsekas bound).
    #[test]
    fn epsilon_auction_respects_bertsekas_bound(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        let out = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        prop_assert!(out.assignment.welfare(&inst).get() >= exact - bound);
    }

    /// The Fig. 1 expansion + classic assignment auction also reaches the
    /// ε-bound optimum. The auction's running time scales as
    /// value-range/ε (identical duplicated objects trigger ε-step price
    /// wars), so a realistically sized ε is used and the Bertsekas bound
    /// `n·ε` is asserted.
    #[test]
    fn expansion_auction_respects_bound(inst in arb_instance()) {
        let eps = 0.05;
        let a = solve_via_expansion(&inst, eps).unwrap();
        prop_assert!(a.validate(&inst).is_ok());
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        prop_assert!(a.welfare(&inst).get() >= exact - bound);
    }

    /// Final prices are non-negative and every unprofitable request stays
    /// unserved (the auction never forces negative-utility downloads).
    #[test]
    fn no_negative_utility_assignments(inst in arb_instance()) {
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        for l in &out.duals.lambda {
            prop_assert!(*l >= 0.0);
        }
        for (r, req) in inst.requests().enumerate() {
            if let Some(e) = out.assignment.choice(r) {
                prop_assert!(req.edge(e).utility().get() >= 0.0,
                    "assigned a negative-utility edge");
            }
        }
    }
}
