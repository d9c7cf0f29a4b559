//! Property-based verification of the virtual-time swarm simulator: the
//! DES backend must be indistinguishable from the in-process engine under
//! a zero-fault network, and must preserve the paper's correctness
//! guarantees — conservation and the Theorem 1 `n·ε` certificate — under
//! *arbitrary* seeded drop/delay/reorder/duplicate schedules (the model
//! guarantees eventual delivery, so convergence is still due).

use p2p_core::{
    verify_optimality, AuctionConfig, NetworkModel, SwarmAuction, SwarmConfig, SyncAuction,
    WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};
use proptest::prelude::*;

/// A randomly generated welfare instance with continuous utilities (ties
/// have probability zero, the regime of the paper's Theorem 1).
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(1u32..=5, 1..8);
    providers.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = prop::collection::vec(edge, 0..=p);
        let requests = prop::collection::vec(request, 0..16);
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

/// A bid increment over the range the engines run: the paper's ε = 0
/// exactly, or any ε in [0, 0.5).
fn arb_epsilon() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0f64..0.5]
}

/// An arbitrary faulty network: every fault class the model supports, with
/// probabilities high enough to bite on small instances, plus non-trivial
/// latency spread so deliveries genuinely race.
fn arb_faulty_net() -> impl Strategy<Value = NetworkModel> {
    (
        0.0f64..0.4,  // drop
        0.0f64..0.25, // duplicate
        0.0f64..0.4,  // reorder
        1u64..10,     // base latency ms
        0u64..8,      // link spread ms
        0u64..8,      // jitter ms
    )
        .prop_map(|(drop, dup, reorder, base, spread, jitter)| NetworkModel {
            base_latency: SimDuration::from_millis(base),
            link_spread: SimDuration::from_millis(spread),
            jitter: SimDuration::from_millis(jitter),
            drop_prob: drop,
            duplicate_prob: dup,
            reorder_prob: reorder,
            reorder_delay: SimDuration::from_millis(20),
            ..NetworkModel::lossy()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)))]

    /// Zero-fault DES execution is *bit-identical* to the synchronous
    /// in-process engine on arbitrary instances: same assignment, same
    /// duals, same round and bid counts. The ideal swarm polls every idle
    /// bidder while `SyncAuction` retires priced-out requests, so this
    /// also shows retirement changes no outcome.
    #[test]
    fn ideal_swarm_is_bit_identical_to_sync(
        inst in arb_instance(),
        seed in 0u64..1000,
        eps in arb_epsilon(),
    ) {
        let swarm = SwarmAuction::new(SwarmConfig::with_epsilon(eps), NetworkModel::ideal())
            .run(&inst, seed)
            .unwrap();
        let sync = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
        prop_assert_eq!(&swarm.assignment, &sync.assignment);
        prop_assert_eq!(&swarm.duals, &sync.duals);
        prop_assert_eq!(swarm.rounds, sync.rounds);
        prop_assert_eq!(swarm.bids_submitted, sync.bids_submitted);
    }

    /// Warm restarts agree too: priming both engines with the same prior
    /// prices yields the same repaired outcome.
    #[test]
    fn ideal_warm_swarm_matches_sync_warm(
        inst in arb_instance(),
        seed in 0u64..1000,
        eps in arb_epsilon(),
    ) {
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(eps));
        let cold = engine.run(&inst).unwrap();
        let warm_sync = engine.run_warm(&inst, &cold.duals.lambda).unwrap();
        let warm_swarm = SwarmAuction::new(SwarmConfig::with_epsilon(eps), NetworkModel::ideal())
            .run_warm(&inst, &cold.duals.lambda, seed)
            .unwrap();
        prop_assert_eq!(&warm_swarm.assignment, &warm_sync.assignment);
        prop_assert_eq!(&warm_swarm.duals, &warm_sync.duals);
        prop_assert_eq!(warm_swarm.rounds, warm_sync.rounds);
        prop_assert_eq!(warm_swarm.bids_submitted, warm_sync.bids_submitted);
    }

    /// Under an arbitrary fault schedule (drops retried to eventual
    /// delivery, duplicates discarded by sequencing, reorders resequenced)
    /// the swarm still converges to a feasible assignment that passes the
    /// Theorem 1 `n·ε` certificate.
    #[test]
    fn faulty_swarm_conserves_and_certifies(
        inst in arb_instance(),
        net in arb_faulty_net(),
        seed in 0u64..1000,
        eps in 0.01f64..0.2,
    ) {
        let out = SwarmAuction::new(SwarmConfig::with_epsilon(eps), net)
            .run(&inst, seed)
            .unwrap();
        prop_assert!(out.converged, "faulty run must still quiesce");
        prop_assert!(out.assignment.validate(&inst).is_ok(), "conservation");
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(&inst, &out.assignment, &out.duals, tol);
        prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
    }

    /// The fault schedule is a pure function of the seed: replaying the
    /// same (instance, model, seed) triple reproduces the entire run —
    /// trace hash, fault counters, assignment and duals.
    #[test]
    fn same_seed_replays_the_whole_run(
        inst in arb_instance(),
        net in arb_faulty_net(),
        seed in 0u64..1000,
    ) {
        let engine = SwarmAuction::new(SwarmConfig::with_epsilon(0.05), net);
        let a = engine.run(&inst, seed).unwrap();
        let b = engine.run(&inst, seed).unwrap();
        prop_assert_eq!(a.trace_hash, b.trace_hash);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(&a.assignment, &b.assignment);
        prop_assert_eq!(&a.duals.lambda, &b.duals.lambda);
    }
}
