//! Property-based verification of the sharded parallel engine: on arbitrary
//! instances and shard counts its welfare matches the synchronous engine
//! within the Bertsekas `n·ε` bound, the Theorem 1 certificate holds, and
//! `shards = 1` is bit-identical to the sequential sweep.

use p2p_core::{
    verify_optimality, AuctionConfig, ShardCount, ShardedAuction, SyncAuction, WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use proptest::prelude::*;

/// A randomly generated welfare instance with continuous utilities (ties
/// have probability zero, the regime of the paper's Theorem 1).
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(1u32..=5, 1..8);
    providers.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = prop::collection::vec(edge, 0..=p);
        let requests = prop::collection::vec(request, 0..24);
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

/// Shard counts exercised per case, as the satellite requires: 1 (the
/// delegation case), 2 and 8.
const SHARDS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For every shard count, welfare is within `n·ε` of the synchronous
    /// engine's (both are within `n·ε` of optimal, asserted against the
    /// exact optimum) and the Theorem 1 certificate holds.
    #[test]
    fn sharded_welfare_matches_sync_within_the_bound(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        let sync = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        prop_assert!(sync.assignment.welfare(&inst).get() >= exact - bound);
        for shards in SHARDS {
            let out = ShardedAuction::new(
                AuctionConfig::with_epsilon(eps),
                ShardCount::Fixed(shards),
            )
            .run(&inst)
            .unwrap();
            let welfare = out.assignment.welfare(&inst).get();
            prop_assert!(
                welfare >= exact - bound,
                "shards={shards}: welfare {welfare} vs exact {exact} (bound {bound})"
            );
            prop_assert!(
                (welfare - sync.assignment.welfare(&inst).get()).abs() <= 2.0 * bound,
                "shards={shards}: strayed from the sync engine"
            );
            prop_assert!(out.assignment.validate(&inst).is_ok());
            let tol = eps * (inst.request_count() as f64 + 1.0);
            let report = verify_optimality(&inst, &out.assignment, &out.duals, tol);
            prop_assert!(report.is_optimal(), "shards={shards}: {:?}", report.violations);
        }
    }

    /// `shards = 1` delegates to the synchronous engine bit-for-bit.
    #[test]
    fn one_shard_equals_the_sync_engine_exactly(
        inst in arb_instance(),
        eps in 0.0f64..0.5,
    ) {
        let sync = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
        let sharded = ShardedAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(1))
            .run(&inst)
            .unwrap();
        prop_assert_eq!(&sharded.assignment, &sync.assignment);
        prop_assert_eq!(&sharded.duals, &sync.duals);
        prop_assert_eq!(sharded.rounds, sync.rounds);
        prop_assert_eq!(sharded.bids_submitted, sync.bids_submitted);
    }

    /// The ε = 0 paper rule on tie-free instances reaches the exact optimum
    /// under sharding, like the synchronous engine.
    #[test]
    fn epsilon_zero_sharded_is_socially_optimal(inst in arb_instance()) {
        let out = ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(8))
            .run(&inst)
            .unwrap();
        let exact = inst.optimal_welfare().get();
        prop_assert!((out.assignment.welfare(&inst).get() - exact).abs() < 1e-6);
        let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-7);
        prop_assert!(report.is_optimal(), "{:?}", report.violations);
    }

    /// The engine is a pure function of (instance, config, shard count):
    /// repeated runs are bit-identical, including with forced worker
    /// threads (thread scheduling must not leak into results).
    #[test]
    fn sharded_outcomes_are_deterministic(inst in arb_instance(), shards in 2usize..9) {
        let engine =
            ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(shards));
        let a = engine.run(&inst).unwrap();
        let b = engine.run(&inst).unwrap();
        let threaded = engine.clone().with_workers(2).run(&inst).unwrap();
        prop_assert_eq!(&a.assignment, &b.assignment);
        prop_assert_eq!(&a.duals, &b.duals);
        prop_assert_eq!(a.bids_submitted, b.bids_submitted);
        prop_assert_eq!(&a.assignment, &threaded.assignment);
        prop_assert_eq!(&a.duals, &threaded.duals);
        prop_assert_eq!(a.bids_submitted, threaded.bids_submitted);
    }
}
