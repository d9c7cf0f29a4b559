//! Property-based certification of the flat engine's branchless bid
//! kernel against the nested engines, whose bids come from the sequential
//! `decide_bid_over` scan: `SyncAuction` at one shard, `ShardedAuction` at
//! four. On tie-free instances the flat engine's outcome is
//! **bit-identical** to theirs at every row length 0..64 — empty rows,
//! sub-lane rows, exact chunk multiples and ragged tails — and on
//! adversarial all-ties instances (where reduction order is under the most
//! pressure) the kernel still matches the scalar scan bid for bid and its
//! outcome stays within the Theorem 1 `n·ε` certificate.

use p2p_core::csr::{CsrInstance, FlatAuction};
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, ShardCount, ShardedAuction, SyncAuction,
    WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use proptest::prelude::*;

/// Longest row exercised by the exhaustive-length sweep; spans several
/// lane-chunk boundaries of the kernel (`LANES = 4`).
const MAX_ROW: usize = 64;

/// Builds a single-request instance whose row is the first `n` of the
/// given `(valuation, cost)` edges — one provider per edge, so the row
/// length is exactly `n`.
fn row_instance(edges: &[(f64, f64)], n: usize, caps: &[u32]) -> WelfareInstance {
    let mut b = WelfareInstance::builder();
    let providers: Vec<_> = (0..n.max(1))
        .map(|u| b.add_provider(PeerId::new(1000 + u as u32), caps[u % caps.len()]))
        .collect();
    let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
    for (u, &(v, w)) in edges.iter().take(n).enumerate() {
        b.add_edge(r, providers[u], Valuation::new(v), Cost::new(w)).unwrap();
    }
    b.build().unwrap()
}

/// Runs the flat engine (lane kernel) at the given shard count.
fn run(shards: usize, eps: f64, csr: &CsrInstance) -> AuctionOutcome {
    FlatAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(shards)).run(csr).unwrap()
}

/// Runs the nested engine of the same schedule (scalar scan): the
/// sequential sweep at one shard, the sharded schedule otherwise.
fn run_scalar(shards: usize, eps: f64, inst: &WelfareInstance) -> AuctionOutcome {
    let cfg = AuctionConfig::with_epsilon(eps);
    if shards == 1 {
        SyncAuction::new(cfg).run(inst).unwrap()
    } else {
        ShardedAuction::new(cfg, ShardCount::Fixed(shards)).run(inst).unwrap()
    }
}

fn assert_identical(label: &str, lanes: &AuctionOutcome, scalar: &AuctionOutcome) {
    assert_eq!(lanes.assignment, scalar.assignment, "{label}: assignment");
    assert_eq!(lanes.duals, scalar.duals, "{label}: duals");
    assert_eq!(lanes.rounds, scalar.rounds, "{label}: rounds");
    assert_eq!(lanes.bids_submitted, scalar.bids_submitted, "{label}: bids");
}

/// A multi-request instance where *every* utility is the same constant —
/// the adversarial all-ties regime: every comparison in the top-2
/// reduction is an exact tie, so any order-dependence in the kernel would
/// surface here first.
fn arb_all_ties() -> impl Strategy<Value = WelfareInstance> {
    (prop::collection::vec(1u32..=3, 1..6), 1usize..16, 1.0f64..6.0).prop_map(
        |(caps, requests, utility)| {
            let mut b = WelfareInstance::builder();
            let providers: Vec<_> = caps
                .iter()
                .enumerate()
                .map(|(u, &cap)| b.add_provider(PeerId::new(1000 + u as u32), cap))
                .collect();
            for d in 0..requests {
                let r = b.add_request(RequestId::new(
                    PeerId::new(d as u32),
                    ChunkId::new(VideoId::new(0), d as u32),
                ));
                for &u in &providers {
                    // Constant utility on every edge: v − w = `utility`.
                    b.add_edge(r, u, Valuation::new(utility + 1.0), Cost::new(1.0)).unwrap();
                }
            }
            b.build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tie-free rows: the lane kernel bit-matches the scalar scan at every
    /// row length 0..64 — including the empty row (no candidates), rows
    /// shorter than one lane, exact chunk multiples and ragged tails —
    /// for mixed capacities (zero-capacity providers put `φ = −∞` edges
    /// in the lanes) and ε both zero and positive.
    #[test]
    fn kernel_bit_matches_scalar_at_every_row_length(
        edges in prop::collection::vec((0.8f64..8.0, 0.0f64..10.0), MAX_ROW),
        caps in prop::collection::vec(0u32..=3, 1..4),
        eps_idx in 0usize..3,
    ) {
        let eps = [0.0f64, 0.01, 0.25][eps_idx];
        for n in 0..=MAX_ROW {
            let inst = row_instance(&edges, n, &caps);
            let csr = CsrInstance::compile(&inst);
            let lanes = run(1, eps, &csr);
            let scalar = run_scalar(1, eps, &inst);
            assert_identical(&format!("row length {n}"), &lanes, &scalar);
        }
    }

    /// Adversarial all-ties instances: the kernel matches the scalar path
    /// bid for bid (the merge tie-break reproduces the sequential
    /// earliest-edge rule exactly), and with ε > 0 the outcome carries the
    /// Theorem 1 certificate — welfare within `n·ε` of the exact optimum.
    #[test]
    fn all_ties_kernel_stays_within_n_epsilon(
        inst in arb_all_ties(),
        eps in 0.001f64..0.5,
        shards_idx in 0usize..2,
    ) {
        let shards = [1usize, 4][shards_idx];
        let csr = CsrInstance::compile(&inst);
        let lanes = run(shards, eps, &csr);
        let scalar = run_scalar(shards, eps, &inst);
        assert_identical(&format!("all-ties shards={shards}"), &lanes, &scalar);

        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        let welfare = lanes.assignment.welfare(&inst).get();
        prop_assert!(
            welfare >= exact - bound,
            "welfare {welfare} vs exact {exact} (n·ε bound {bound})"
        );
        prop_assert!(lanes.assignment.validate(&inst).is_ok());
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(&inst, &lanes.assignment, &lanes.duals, tol);
        prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
    }

    /// All-ties under the paper's ε = 0 abstain-on-ties rule: the kernel
    /// and the scalar scan abstain identically (no livelock, identical
    /// partial assignment).
    #[test]
    fn all_ties_epsilon_zero_abstains_identically(inst in arb_all_ties()) {
        let csr = CsrInstance::compile(&inst);
        let lanes = run(1, 0.0, &csr);
        let scalar = run_scalar(1, 0.0, &inst);
        assert_identical("all-ties ε=0", &lanes, &scalar);
    }
}
