//! Property tests for all schedulers: feasibility on arbitrary instances
//! and the welfare hierarchy (exact ≥ auction ≥ heuristics never violated
//! beyond tolerance).

use p2p_core::WelfareInstance;
use p2p_sched::{
    AuctionScheduler, ChunkScheduler, ExactScheduler, GreedyScheduler, RandomScheduler,
    SimpleLocalityScheduler, SlotProblem,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = SlotProblem> {
    let caps = prop::collection::vec(1u32..5, 1..6);
    caps.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = prop::collection::vec(edge, 1..=p);
        let requests = prop::collection::vec((request, 0u64..20_000_000), 0..15);
        (Just(caps), requests).prop_map(|(caps, reqs)| {
            let mut b = WelfareInstance::builder();
            for (i, c) in caps.iter().enumerate() {
                b.add_provider(PeerId::new(100 + i as u32), *c);
            }
            let mut urgency = Vec::new();
            for (d, (edges, urg)) in reqs.into_iter().enumerate() {
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
                urgency.push(SimDuration::from_micros(urg));
            }
            SlotProblem::new(b.build().unwrap(), urgency).unwrap()
        })
    })
}

fn all_schedulers() -> Vec<Box<dyn ChunkScheduler>> {
    vec![
        Box::new(AuctionScheduler::paper()),
        Box::new(AuctionScheduler::with_epsilon(0.01)),
        Box::new(SimpleLocalityScheduler::new()),
        Box::new(SimpleLocalityScheduler::new().with_max_tries(usize::MAX)),
        Box::new(RandomScheduler::new(7)),
        Box::new(GreedyScheduler::new()),
        Box::new(ExactScheduler::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every scheduler returns a capacity- and index-feasible schedule.
    #[test]
    fn every_scheduler_is_feasible(problem in arb_problem()) {
        for mut s in all_schedulers() {
            let out = s.schedule(&problem).unwrap();
            prop_assert!(out.assignment.validate(&problem.instance).is_ok(),
                "{} produced an infeasible schedule", s.name());
            prop_assert_eq!(out.assignment.choices().len(), problem.request_count());
        }
    }

    /// Nothing beats the exact optimum; the auction matches it.
    #[test]
    fn welfare_hierarchy(problem in arb_problem()) {
        let exact = problem.instance.optimal_welfare().get();
        for mut s in all_schedulers() {
            let w = s.schedule(&problem).unwrap().welfare(&problem).get();
            prop_assert!(w <= exact + 1e-6, "{} beat the optimum", s.name());
        }
        let auction = AuctionScheduler::paper().schedule(&problem).unwrap();
        prop_assert!((auction.welfare(&problem).get() - exact).abs() < 1e-6);
    }

    /// The auction never schedules a transfer that destroys welfare; the
    /// locality baseline has no such guarantee.
    #[test]
    fn auction_never_downloads_at_a_loss(problem in arb_problem()) {
        let out = AuctionScheduler::paper().schedule(&problem).unwrap();
        for (r, choice) in out.assignment.choices().iter().enumerate() {
            if let Some(e) = choice {
                prop_assert!(problem.instance.request(r).edge(*e).utility().get() >= 0.0);
            }
        }
    }

    /// Deterministic schedulers are reproducible.
    #[test]
    fn schedulers_are_deterministic(problem in arb_problem()) {
        let a1 = AuctionScheduler::paper().schedule(&problem).unwrap();
        let a2 = AuctionScheduler::paper().schedule(&problem).unwrap();
        prop_assert_eq!(a1.assignment, a2.assignment);
        let l1 = SimpleLocalityScheduler::new().schedule(&problem).unwrap();
        let l2 = SimpleLocalityScheduler::new().schedule(&problem).unwrap();
        prop_assert_eq!(l1.assignment, l2.assignment);
        let r1 = RandomScheduler::new(3).schedule(&problem).unwrap();
        let r2 = RandomScheduler::new(3).schedule(&problem).unwrap();
        prop_assert_eq!(r1.assignment, r2.assignment);
    }

    /// Giving the locality baseline more retries never reduces its
    /// assignment count (monotone in the retry budget).
    #[test]
    fn locality_retries_are_monotone(problem in arb_problem()) {
        let one = SimpleLocalityScheduler::new()
            .with_max_tries(1)
            .schedule(&problem)
            .unwrap();
        let many = SimpleLocalityScheduler::new()
            .with_max_tries(usize::MAX)
            .schedule(&problem)
            .unwrap();
        prop_assert!(many.assignment.assigned_count() >= one.assignment.assigned_count());
    }
}
