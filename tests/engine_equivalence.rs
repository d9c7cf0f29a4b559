//! Cross-crate integration: the independent solvers — synchronous
//! auction, the message-level swarm simulator, the Fig. 1 expansion and the
//! exact min-cost-flow — agree on the same instances.

use isp_p2p::core::bertsekas::solve_via_expansion;
use isp_p2p::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generic (tie-free w.p. 1) random instance shaped like a slot problem.
fn random_instance(seed: u64, providers: usize, requests: usize) -> WelfareInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WelfareInstance::builder();
    let ps: Vec<_> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(5000 + i as u32), rng.gen_range(1..5)))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        let k = rng.gen_range(1..=providers.min(4));
        let mut used = std::collections::HashSet::new();
        for _ in 0..k {
            let u = ps[rng.gen_range(0..providers)];
            if used.insert(u) {
                b.add_edge(
                    r,
                    u,
                    Valuation::new(rng.gen_range(0.8..8.0)),
                    Cost::new(rng.gen_range(0.0..10.0)),
                )
                .unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn sync_equals_exact_on_many_instances() {
    for seed in 0..25 {
        let inst = random_instance(seed, 6, 30);
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        let exact = inst.optimal_welfare().get();
        assert!(
            (out.assignment.welfare(&inst).get() - exact).abs() < 1e-6,
            "seed {seed}: {} vs {exact}",
            out.assignment.welfare(&inst).get()
        );
        let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-7);
        assert!(report.is_optimal(), "seed {seed}: {:?}", report.violations);
    }
}

#[test]
fn distributed_equals_exact_under_heterogeneous_latency() {
    for seed in 0..10 {
        let inst = random_instance(100 + seed, 5, 25);
        // Costs span [0, 10), so link delays span 3 ms to ~1.2 s.
        let lat = CostLatency { base_ms: 3.0, ms_per_cost: 12.0 * (1 + seed) as f64 };
        let out = SwarmAuction::new(SwarmConfig::paper(), NetworkModel::cost_derived(lat))
            .run(&inst, seed)
            .unwrap();
        let exact = inst.optimal_welfare().get();
        assert!((out.assignment.welfare(&inst).get() - exact).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn fig1_expansion_respects_epsilon_bound() {
    for seed in 0..10 {
        let inst = random_instance(900 + seed, 4, 15);
        let eps = 0.02;
        let a = solve_via_expansion(&inst, eps).unwrap();
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        assert!(a.welfare(&inst).get() >= exact - bound, "seed {seed}");
        assert!(a.validate(&inst).is_ok());
    }
}

#[test]
fn greedy_and_random_never_beat_exact() {
    use isp_p2p::sched::{ChunkScheduler, GreedyScheduler, RandomScheduler, SlotProblem};
    for seed in 0..10 {
        let inst = random_instance(333 + seed, 5, 25);
        let exact = inst.optimal_welfare().get();
        let n = inst.request_count();
        let problem = SlotProblem::new(inst, vec![SimDuration::from_secs(1); n]).unwrap();
        let g = GreedyScheduler::new().schedule(&problem).unwrap();
        let r = RandomScheduler::new(seed).schedule(&problem).unwrap();
        assert!(g.welfare(&problem).get() <= exact + 1e-9);
        assert!(r.welfare(&problem).get() <= exact + 1e-9);
        assert!(g.assignment.validate(&problem.instance).is_ok());
        assert!(r.assignment.validate(&problem.instance).is_ok());
    }
}
