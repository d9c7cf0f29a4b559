//! Property-based certification of the flat CSR engines: on arbitrary
//! instances — and arbitrary *slot chains* run on one reused engine, the
//! engine-level image of scenario event sequences — [`FlatAuction`] is
//! **bit-identical** to the nested engines (prices, assignments, rounds,
//! bids, welfare, and hence the Theorem 1 `n·ε` certificate) at shard
//! counts 1/2/8.
//! The single-run, ε = 0 and chain properties run twice: on small
//! instances and on paper-sized deep-heap instances with frequent equal
//! bids.

use p2p_core::csr::{CsrInstance, FlatAuction};
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, ShardCount, ShardedAuction, SyncAuction,
    WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use proptest::prelude::*;

/// A randomly generated welfare instance with continuous utilities (ties
/// have probability zero, the regime of the paper's Theorem 1).
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(0u32..=5, 1..8);
    providers.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = prop::collection::vec(edge, 0..=p);
        let requests = prop::collection::vec(request, 0..24);
        (Just(caps), requests).prop_map(|(caps, reqs)| build_instance(&caps, reqs))
    })
}

/// A chain of 1–4 slot instances (the engine-level image of a scenario's
/// slot sequence: populations and demand change arbitrarily slot to slot).
fn arb_slot_chain() -> impl Strategy<Value = Vec<WelfareInstance>> {
    prop::collection::vec(arb_instance(), 1..4)
}

/// A paper-sized instance whose auctioneer heaps run deep: 100–600
/// requests over 2–4 providers with capacities up to 300 (some above
/// their in-degree), plus one provider no request can reach (in-degree
/// 0). Valuations and costs sit on a 0.5 grid, so equal bids — the
/// `(bid, seq)` tie-break below the heap root — are common.
fn arb_deep_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(0u32..=300, 2..5);
    (providers, 1u32..=300).prop_flat_map(|(caps, unreachable)| {
        let p = caps.len();
        let edge = (0..p, 4u32..=16, 0u32..=6)
            .prop_map(|(u, v, w)| (u, f64::from(v) * 0.5, f64::from(w) * 0.5));
        let requests = prop::collection::vec(prop::collection::vec(edge, 1..=4), 100..=600);
        (Just(caps), requests).prop_map(move |(mut caps, reqs)| {
            caps.push(unreachable);
            build_instance(&caps, reqs)
        })
    })
}

/// Builds an instance from provider capacities and per-request
/// `(provider, v, w)` edges, keeping each request's first edge to a
/// provider.
fn build_instance(caps: &[u32], requests: Vec<Vec<(usize, f64, f64)>>) -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    for (i, cap) in caps.iter().enumerate() {
        b.add_provider(PeerId::new(1000 + i as u32), *cap);
    }
    for (d, edges) in requests.into_iter().enumerate() {
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
}

/// Shard counts exercised per case, as the satellite requires: 1 (the
/// sequential sweep), 2 and 8.
const SHARDS: [usize; 3] = [1, 2, 8];

/// Cases per deep-heap property: each case runs six engines over up to 600
/// requests.
const DEEP_CASES: u32 = 16;

fn assert_outcomes_identical(label: &str, flat: &AuctionOutcome, nested: &AuctionOutcome) {
    assert_eq!(flat.assignment, nested.assignment, "{label}: assignment");
    assert_eq!(flat.duals, nested.duals, "{label}: duals");
    assert_eq!(flat.rounds, nested.rounds, "{label}: rounds");
    assert_eq!(flat.bids_submitted, nested.bids_submitted, "{label}: bids");
}

/// The nested oracle for a given shard count: the synchronous sweep at 1,
/// the sharded engine otherwise.
fn nested_run(inst: &WelfareInstance, eps: f64, shards: usize) -> AuctionOutcome {
    if shards == 1 {
        SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(inst).unwrap()
    } else {
        ShardedAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(shards))
            .run(inst)
            .unwrap()
    }
}

/// Cold runs are bit-identical to the nested engines at every shard count,
/// and the flat outcome carries the same Theorem 1 certificate.
fn check_cold_runs(inst: &WelfareInstance, eps: f64) {
    let csr = CsrInstance::compile(inst);
    for shards in SHARDS {
        let nested = nested_run(inst, eps, shards);
        let mut flat =
            FlatAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(shards));
        let out = flat.run(&csr).unwrap();
        assert_outcomes_identical(&format!("cold shards={shards}"), &out, &nested);
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(inst, &out.assignment, &out.duals, tol);
        assert!(report.is_optimal(), "shards={shards}: {:?}", report.violations);
    }
}

/// The ε = 0 paper rule: flat and nested agree bit-for-bit there too.
fn check_paper_rule(inst: &WelfareInstance) {
    let csr = CsrInstance::compile(inst);
    for shards in SHARDS {
        let nested = nested_run(inst, 0.0, shards);
        let mut flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(shards));
        let out = flat.run(&csr).unwrap();
        assert_outcomes_identical(&format!("paper shards={shards}"), &out, &nested);
    }
}

/// Slot chains — one engine, its scratch reused across slots of
/// arbitrarily different shapes — stay bit-identical to a fresh nested run
/// and certified at every slot. This is the engine-level image of a
/// scheduler running a scenario event sequence.
fn check_chain(chain: &[WelfareInstance], eps: f64) {
    for shards in SHARDS {
        let mut flat =
            FlatAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(shards));
        for (slot, inst) in chain.iter().enumerate() {
            let out = flat.run(&CsrInstance::compile(inst)).unwrap();
            let nested = nested_run(inst, eps, shards);
            assert_outcomes_identical(&format!("slot {slot} shards={shards}"), &out, &nested);
            let tol = eps * (inst.request_count() as f64 + 1.0);
            let report = verify_optimality(inst, &out.assignment, &out.duals, tol);
            assert!(report.is_optimal(), "slot {slot} shards={shards}: {:?}", report.violations);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_cold_runs_are_bit_identical(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        check_cold_runs(&inst, eps);
    }

    #[test]
    fn flat_paper_rule_is_bit_identical(inst in arb_instance()) {
        check_paper_rule(&inst);
    }

    #[test]
    fn slot_chains_are_bit_identical_and_certified(
        chain in arb_slot_chain(),
        eps in 0.001f64..0.3,
    ) {
        check_chain(&chain, eps);
    }

    /// `shards = auto` resolves identically for both layouts (the adaptive
    /// slot-size rule), so Auto outcomes are bit-identical too.
    #[test]
    fn auto_shard_resolution_is_bit_identical(inst in arb_instance()) {
        let csr = CsrInstance::compile(&inst);
        let nested = ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Auto)
            .run(&inst)
            .unwrap();
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Auto);
        let out = flat.run(&csr).unwrap();
        assert_outcomes_identical("auto", &out, &nested);
    }

    /// Repeated runs of one engine (scratch reused) and a fresh engine are
    /// identical, threaded or not: scratch reuse and worker fan-out never
    /// leak into results.
    #[test]
    fn scratch_reuse_and_threads_never_leak_into_results(
        inst in arb_instance(),
        shards in 2usize..9,
    ) {
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig::with_epsilon(0.01);
        let mut reused = FlatAuction::new(cfg, ShardCount::Fixed(shards));
        let first = reused.run(&csr).unwrap();
        let second = reused.run(&csr).unwrap();
        let threaded =
            FlatAuction::new(cfg, ShardCount::Fixed(shards)).with_workers(2).run(&csr).unwrap();
        assert_outcomes_identical("reused", &second, &first);
        assert_outcomes_identical("threaded", &threaded, &first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DEEP_CASES))]

    #[test]
    fn deep_heap_cold_runs_are_bit_identical(
        inst in arb_deep_instance(),
        eps in 0.001f64..0.5,
    ) {
        check_cold_runs(&inst, eps);
    }

    #[test]
    fn deep_heap_paper_rule_is_bit_identical(inst in arb_deep_instance()) {
        check_paper_rule(&inst);
    }

    #[test]
    fn deep_heap_chains_are_bit_identical_and_certified(
        chain in prop::collection::vec(arb_deep_instance(), 1..3),
        eps in 0.001f64..0.3,
    ) {
        check_chain(&chain, eps);
    }
}
