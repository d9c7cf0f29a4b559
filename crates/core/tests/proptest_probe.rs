//! Property-based certification of the probe seam: on arbitrary
//! instances, every engine — the synchronous sweep, the sharded nested
//! engine, and the flat CSR engine at shard counts 1/2/8 — produces
//! **bit-identical** outcomes (assignments, duals, rounds, bids) whether
//! it runs bare, probed with the no-op [`NoProbe`], or probed with a
//! [`CountingProbe`]; the counting probe's report agrees with the
//! outcome's own counters and the Theorem 1 `n·ε` slack bound; and the
//! ideal swarm reports the synchronous sweep's round counters.

use p2p_core::csr::{CsrInstance, FlatAuction, FlatOutcome};
use p2p_core::{
    AuctionConfig, AuctionOutcome, CountingProbe, NetworkModel, NoProbe, ShardCount,
    ShardedAuction, SwarmAuction, SwarmConfig, SyncAuction, WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cases of `ideal_swarm_cases` whose sweep retired at least one request.
static RETIRING_CASES: AtomicU64 = AtomicU64::new(0);

/// A randomly generated welfare instance with continuous utilities (ties
/// have probability zero, the regime of the paper's Theorem 1).
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(0u32..=5, 1..8);
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

fn assert_outcomes_identical(label: &str, probed: &AuctionOutcome, bare: &AuctionOutcome) {
    assert_eq!(probed.assignment, bare.assignment, "{label}: assignment");
    assert_eq!(probed.duals, bare.duals, "{label}: duals");
    assert_eq!(probed.rounds, bare.rounds, "{label}: rounds");
    assert_eq!(probed.bids_submitted, bare.bids_submitted, "{label}: bids");
}

/// The probe's run-level counters must agree with the outcome's own and
/// the slack must carry the Theorem 1 certificate.
fn assert_report_consistent(
    label: &str,
    probe: &mut CountingProbe,
    out: &AuctionOutcome,
    inst: &WelfareInstance,
    eps: f64,
) {
    let report = probe.take_report();
    assert_eq!(report.runs, 1, "{label}: runs");
    assert_eq!(report.rounds, out.rounds, "{label}: report rounds");
    assert_eq!(report.bids, out.bids_submitted, "{label}: report bids");
    assert_eq!(report.assigned, out.assignment.assigned_count() as u64, "{label}: assigned");
    let tol = eps * (inst.request_count() as f64 + 1.0) + 1e-6;
    assert!(
        report.slack.is_finite() && report.slack <= tol,
        "{label}: slack {} exceeds n·ε bound {tol}",
        report.slack
    );
    // Every bid moved some price, so the delta histogram saw every bid
    // that was not a retirement/abstention no-op; it can never see more
    // events than bids were submitted.
    assert!(report.price_deltas.total() <= report.bids, "{label}: more price deltas than bids");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synchronous sweep is bit-identical bare vs `NoProbe` vs
    /// `CountingProbe`, and the counting report matches the outcome.
    #[test]
    fn sync_probes_never_perturb_outcomes(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(eps));
        let bare = engine.run(&inst).unwrap();
        let noop = engine.run_probed(&inst, &mut NoProbe).unwrap();
        assert_outcomes_identical("sync noop", &noop, &bare);
        let mut probe = CountingProbe::new();
        let counted = engine.run_probed(&inst, &mut probe).unwrap();
        assert_outcomes_identical("sync counted", &counted, &bare);
        assert_report_consistent("sync", &mut probe, &bare, &inst, eps);
    }

    /// The sharded nested engine is bit-identical bare vs probed at
    /// shard counts 2 and 8.
    #[test]
    fn sharded_probes_never_perturb_outcomes(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        for shards in [2usize, 8] {
            let engine = ShardedAuction::new(
                AuctionConfig::with_epsilon(eps),
                ShardCount::Fixed(shards),
            );
            let bare = engine.run(&inst).unwrap();
            let mut probe = CountingProbe::new();
            let counted = engine.run_probed(&inst, &mut probe).unwrap();
            assert_outcomes_identical(&format!("sharded {shards}"), &counted, &bare);
            assert_report_consistent(&format!("sharded {shards}"), &mut probe, &bare, &inst, eps);
        }
    }

    /// The flat CSR engine is bit-identical bare vs `NoProbe` vs
    /// `CountingProbe` at shard counts 1/2/8.
    #[test]
    fn flat_probes_never_perturb_outcomes(
        inst in arb_instance(),
        eps in 0.001f64..0.5,
    ) {
        let csr = CsrInstance::compile(&inst);
        for shards in [1usize, 2, 8] {
            let cfg = AuctionConfig::with_epsilon(eps);
            let mut engine = FlatAuction::new(cfg, ShardCount::Fixed(shards));
            let mut out = FlatOutcome::default();
            engine.run_into(&csr, &mut out).unwrap();
            let bare = out.to_outcome();

            engine.run_into_probed(&csr, &mut out, &mut NoProbe).unwrap();
            assert_outcomes_identical(&format!("flat noop {shards}"), &out.to_outcome(), &bare);

            let mut probe = CountingProbe::new();
            engine.run_into_probed(&csr, &mut out, &mut probe).unwrap();
            assert_outcomes_identical(&format!("flat counted {shards}"), &out.to_outcome(), &bare);
            assert_report_consistent(&format!("flat {shards}"), &mut probe, &bare, &inst, eps);
        }
    }

    /// A probe accumulates across runs and `take_report` drains it: two
    /// probed passes double the counters, and the drained probe reports
    /// empty afterwards.
    #[test]
    fn counting_probe_accumulates_and_drains(inst in arb_instance()) {
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(0.01));
        let bare = engine.run(&inst).unwrap();
        let mut probe = CountingProbe::new();
        engine.run_probed(&inst, &mut probe).unwrap();
        engine.run_probed(&inst, &mut probe).unwrap();
        let report = probe.take_report();
        prop_assert_eq!(report.runs, 2);
        prop_assert_eq!(report.rounds, bare.rounds * 2);
        prop_assert_eq!(report.bids, bare.bids_submitted * 2);
        prop_assert!(probe.take_report().is_empty());
    }

    /// The ideal swarm replays the synchronous sweep, so its probe sees
    /// the same rounds, bids, conflicts and retirements as `SyncAuction`'s
    /// on the same instance and ε. Run (and its retirements checked) by
    /// [`ideal_swarm_round_counters_match_sync`].
    fn ideal_swarm_cases(inst in arb_instance(), eps in 0.001f64..0.5) {
        let mut sync_probe = CountingProbe::new();
        let sync = SyncAuction::new(AuctionConfig::with_epsilon(eps))
            .run_probed(&inst, &mut sync_probe)
            .unwrap();
        let mut swarm_probe = CountingProbe::new();
        let swarm = SwarmAuction::new(SwarmConfig::with_epsilon(eps), NetworkModel::ideal())
            .run_probed(&inst, 7, &mut swarm_probe)
            .unwrap();
        prop_assert_eq!(swarm.assignment, sync.assignment);
        let (s, w) = (sync_probe.take_report(), swarm_probe.take_report());
        prop_assert_eq!(w.rounds, s.rounds, "rounds");
        prop_assert_eq!(w.bids, s.bids, "bids");
        prop_assert_eq!(w.conflicts, s.conflicts, "conflicts");
        prop_assert_eq!(w.retired, s.retired, "retired");
        if s.retired > 0 {
            RETIRING_CASES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn ideal_swarm_round_counters_match_sync() {
    ideal_swarm_cases();
    assert!(
        RETIRING_CASES.load(Ordering::Relaxed) > 0,
        "no case retired a request, so the retirement count went unchecked"
    );
}
