//! Deterministic engine-equivalence smoke test.
//!
//! One fixed, hand-checkable instance; three independent solvers — the
//! synchronous primal-dual auction, the message-level swarm simulator, and
//! the exact transportation-problem solver — must all report the same
//! social welfare, and it must equal the value computed by hand below.
//!
//! This is the regression canary that still runs when the slow property
//! suites are filtered (e.g. `PROPTEST_CASES=1 cargo test equivalence_smoke`):
//! it is fast, seed-free and exact.

use isp_p2p::netflow::solve_max_profit;
use isp_p2p::prelude::*;

/// Two providers, three requests, no ties.
///
/// Utilities (valuation − cost):
///   r0: A → 5.0,  B → 3.0
///   r1: A → 3.5,  B → 3.0
///   r2:           B → 1.75
///
/// A has capacity 1, B has capacity 2. The optimum assigns r0→A, r1→B,
/// r2→B for welfare 5.0 + 3.0 + 1.75 = 9.75 (the alternative r1→A yields
/// only 3.5 + 3.0 + 1.75 = 8.25).
fn fixed_instance() -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let a = b.add_provider(PeerId::new(100), 1);
    let bb = b.add_provider(PeerId::new(101), 2);
    let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
    let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 1)));
    let r2 = b.add_request(RequestId::new(PeerId::new(2), ChunkId::new(VideoId::new(0), 2)));
    b.add_edge(r0, a, Valuation::new(6.0), Cost::new(1.0)).unwrap();
    b.add_edge(r0, bb, Valuation::new(6.0), Cost::new(3.0)).unwrap();
    b.add_edge(r1, a, Valuation::new(4.0), Cost::new(0.5)).unwrap();
    b.add_edge(r1, bb, Valuation::new(4.0), Cost::new(1.0)).unwrap();
    b.add_edge(r2, bb, Valuation::new(2.0), Cost::new(0.25)).unwrap();
    b.build().unwrap()
}

const EXPECTED_WELFARE: f64 = 9.75;

#[test]
fn all_three_solvers_agree_on_the_fixed_instance() {
    let inst = fixed_instance();

    // 1. Exact transportation solver (independent ground truth).
    let exact = solve_max_profit(&inst.to_transportation()).unwrap();
    assert!(
        (exact.total_profit - EXPECTED_WELFARE).abs() < 1e-9,
        "netflow found {} instead of the hand-computed optimum",
        exact.total_profit
    );

    // 2. Synchronous primal-dual auction, certified by Theorem 1.
    let sync = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
    assert!(sync.converged);
    let sync_welfare = sync.assignment.welfare(&inst).get();
    assert!((sync_welfare - EXPECTED_WELFARE).abs() < 1e-9, "sync welfare {sync_welfare}");
    let report = verify_optimality(&inst, &sync.assignment, &sync.duals, 1e-9);
    assert!(report.is_optimal(), "certificate violations: {:?}", report.violations);

    // 3. Message-level auction on the swarm simulator, ε = 0, with link
    //    latencies derived from the edge costs.
    let net = NetworkModel::cost_derived(CostLatency { base_ms: 5.0, ms_per_cost: 10.0 });
    let dist = SwarmAuction::new(SwarmConfig::paper(), net).run(&inst, 0).unwrap();
    let dist_welfare = dist.assignment.welfare(&inst).get();
    assert!((dist_welfare - EXPECTED_WELFARE).abs() < 1e-9, "distributed welfare {dist_welfare}");

    // All three agree with each other, not just with the constant.
    assert!((sync_welfare - exact.total_profit).abs() < 1e-9);
    assert!((dist_welfare - exact.total_profit).abs() < 1e-9);
}

#[test]
fn the_auction_picks_the_hand_computed_assignment() {
    let inst = fixed_instance();
    let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
    // r0 must win provider A (edge 0), r1 and r2 land on B.
    let choices = out.assignment.choices();
    assert_eq!(choices.len(), 3);
    let provider_of = |r: usize| choices[r].map(|e| inst.request(r).edge(e).provider);
    assert_eq!(provider_of(0), Some(0), "r0 should buy from A");
    assert_eq!(provider_of(1), Some(1), "r1 should buy from B");
    assert_eq!(provider_of(2), Some(1), "r2 should buy from B");
}
