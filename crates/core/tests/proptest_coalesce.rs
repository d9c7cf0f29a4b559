//! Property-based gate for reactive event coalescing: a coalesced run
//! must be **byte-identical** to the one-event-per-message baseline on
//! arbitrary instances under arbitrary seeded fault schedules — same
//! trace hash, same fault counters, same assignment/duals/bid counts,
//! same quiescence time — while still carrying the Theorem 1 `n·ε`
//! certificate. Coalescing is only allowed to change *bookkeeping*
//! (event count, queue depth), never anything a message saw.
//!
//! Two network families stress different regimes: the `lossy`-style
//! continuous models (reorder/duplicate races with jitter) and
//! quantized zero-jitter models whose synchronized latencies and
//! retry-timeout grid make same-timestamp fan-in — the case coalescing
//! actually batches — common instead of measure-zero.

use p2p_core::{
    verify_optimality, NetworkModel, SwarmAuction, SwarmConfig, SwarmOutcome, WelfareInstance,
};
use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, SimTime, Valuation, VideoId};
use proptest::prelude::*;

/// A randomly generated welfare instance with continuous utilities (same
/// generator family as `proptest_swarm`). Requests draw their downstream
/// peer from four, so one peer often owns several requests, as in a
/// streaming slot, and replies to different requests share its mailbox.
fn arb_instance() -> impl Strategy<Value = WelfareInstance> {
    let providers = prop::collection::vec(1u32..=5, 1..8);
    providers.prop_flat_map(|caps| {
        let p = caps.len();
        let edge = (0..p, 0.8f64..8.0, 0.0f64..10.0);
        let request = (0u32..4, prop::collection::vec(edge, 0..=p));
        let requests = prop::collection::vec(request, 0..16);
        (Just(caps), requests).prop_map(|(caps, reqs)| {
            let mut b = WelfareInstance::builder();
            for (i, cap) in caps.iter().enumerate() {
                b.add_provider(PeerId::new(1000 + i as u32), *cap);
            }
            for (d, (peer, edges)) in reqs.into_iter().enumerate() {
                let r = b.add_request(RequestId::new(
                    PeerId::new(peer),
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

/// Continuous faulty models: every fault class with jittered latencies,
/// so deliveries genuinely race (the `lossy` preset's regime).
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

/// Quantized zero-jitter models: uniform latency, drops retried on a
/// fixed timeout grid, optional partition-heal bursts. Arrival times
/// collide constantly, so the coalescing fast path actually executes.
fn arb_quantized_net() -> impl Strategy<Value = NetworkModel> {
    (
        0.0f64..0.4,   // drop
        0.0f64..0.25,  // duplicate
        1u64..6,       // base latency ms
        any::<bool>(), // partition burst?
        1u64..5,       // retry timeout ms
    )
        .prop_map(|(drop, dup, base, split, retry)| {
            let net = NetworkModel {
                base_latency: SimDuration::from_millis(base),
                link_spread: SimDuration::ZERO,
                jitter: SimDuration::ZERO,
                drop_prob: drop,
                duplicate_prob: dup,
                reorder_prob: 0.0,
                reorder_delay: SimDuration::ZERO,
                retry_timeout: SimDuration::from_millis(retry),
                broadcast_window: SimDuration::from_millis(1),
                ..NetworkModel::lossy()
            };
            if split {
                net.with_partition(SimTime::from_micros(500), SimTime::from_micros(40_000))
            } else {
                net
            }
        })
}

fn run_both(
    inst: &WelfareInstance,
    net: &NetworkModel,
    seed: u64,
    eps: f64,
) -> (SwarmOutcome, SwarmOutcome) {
    let on = SwarmConfig::with_epsilon(eps);
    let off = SwarmConfig { coalesce: false, ..on };
    let a = SwarmAuction::new(on, net.clone()).run(inst, seed).unwrap();
    let b = SwarmAuction::new(off, net.clone()).run(inst, seed).unwrap();
    (a, b)
}

/// Everything a message could have observed must match; only event-count
/// bookkeeping (events, peak queue) may differ.
fn assert_byte_identical(a: &SwarmOutcome, b: &SwarmOutcome) {
    assert_eq!(a.trace_hash, b.trace_hash, "delivery order diverged");
    assert_eq!(a.faults, b.faults, "fault schedules diverged");
    assert_eq!(a.messages, b.messages);
    assert_eq!(&a.assignment, &b.assignment);
    assert_eq!(&a.duals.lambda, &b.duals.lambda);
    assert_eq!(a.bids_submitted, b.bids_submitted);
    assert_eq!(a.converged_at, b.converged_at);
    assert_eq!(a.converged, b.converged);
    assert_eq!(b.coalesced_events, 0, "the baseline must not coalesce");
    assert!(a.events <= b.events, "coalescing can only shrink the event count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)))]

    /// Coalesced ≡ uncoalesced under continuous reorder/duplicate races,
    /// and the coalesced outcome still certifies.
    #[test]
    fn coalescing_is_invisible_under_faulty_nets(
        inst in arb_instance(),
        net in arb_faulty_net(),
        seed in 0u64..1000,
        eps in 0.01f64..0.2,
    ) {
        let (a, b) = run_both(&inst, &net, seed, eps);
        assert_byte_identical(&a, &b);
        prop_assert!(a.assignment.validate(&inst).is_ok(), "conservation");
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(&inst, &a.assignment, &a.duals, tol);
        prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
    }

    /// Coalesced ≡ uncoalesced on the quantized grid where same-timestamp
    /// fan-in (and so actual batching) is the common case, not the rare one.
    #[test]
    fn coalescing_is_invisible_under_quantized_nets(
        inst in arb_instance(),
        net in arb_quantized_net(),
        seed in 0u64..1000,
        eps in 0.01f64..0.2,
    ) {
        let (a, b) = run_both(&inst, &net, seed, eps);
        assert_byte_identical(&a, &b);
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(&inst, &a.assignment, &a.duals, tol);
        prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
    }

    /// The `lossy` preset itself — a model the engine gates run.
    #[test]
    fn coalescing_is_invisible_under_the_lossy_preset(
        inst in arb_instance(),
        seed in 0u64..1000,
    ) {
        let (a, b) = run_both(&inst, &NetworkModel::lossy(), seed, 0.05);
        assert_byte_identical(&a, &b);
    }
}

/// Deterministic anchor outside proptest: a partition-heal burst on a
/// zero-jitter net *must* exercise the batching fast path, so the
/// equivalence above is not vacuously comparing two identical code paths.
#[test]
fn quantized_partition_burst_actually_coalesces() {
    let mut b = WelfareInstance::builder();
    let u = b.add_provider(PeerId::new(900), 2);
    let v = b.add_provider(PeerId::new(901), 2);
    for d in 0..10u32 {
        let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), d)));
        b.add_edge(r, u, Valuation::new(3.0 + f64::from(d) * 0.11), Cost::new(0.5)).unwrap();
        b.add_edge(r, v, Valuation::new(2.5 + f64::from(d) * 0.07), Cost::new(0.4)).unwrap();
    }
    let inst = b.build().unwrap();
    let net = NetworkModel {
        base_latency: SimDuration::from_millis(1),
        link_spread: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        drop_prob: 0.2,
        duplicate_prob: 0.1,
        reorder_prob: 0.0,
        retry_timeout: SimDuration::from_millis(2),
        ..NetworkModel::ideal()
    }
    .with_partition(SimTime::from_micros(100), SimTime::from_micros(30_000));
    let out =
        SwarmAuction::new(SwarmConfig::with_epsilon(0.02), net.clone()).run(&inst, 11).unwrap();
    assert!(out.coalesced_events > 0, "synchronized fan-in must batch: {out:?}");
    let off =
        SwarmAuction::new(SwarmConfig { coalesce: false, ..SwarmConfig::with_epsilon(0.02) }, net)
            .run(&inst, 11)
            .unwrap();
    assert_eq!(out.trace_hash, off.trace_hash);
    assert_eq!(out.faults, off.faults);
    assert_eq!(out.assignment, off.assignment);
    assert!(out.events < off.events);
}

/// A same-instant push that is not a delivery closes the open batch. One
/// peer owns two requests; both bid at once for a one-unit provider, which
/// accepts the first (scheduling its price broadcast one 1 ms window
/// later), then accepts the second and evicts the first. The first
/// `Accepted`, the broadcast and the second batch (`Accepted` + `Evicted`)
/// all land at 2 ms. Appending the second batch to the first would process
/// the eviction, and send the evicted request's rebid, before the
/// broadcast sends its price updates, so every later delivery at 3 ms
/// would run in another order.
#[test]
fn a_same_instant_broadcast_closes_the_open_batch() {
    let mut b = WelfareInstance::builder();
    let full = b.add_provider(PeerId::new(100), 1);
    let spare = b.add_provider(PeerId::new(101), 1);
    let owner = PeerId::new(0);
    let first = b.add_request(RequestId::new(owner, ChunkId::new(VideoId::new(0), 0)));
    let second = b.add_request(RequestId::new(owner, ChunkId::new(VideoId::new(0), 1)));
    b.add_edge(first, full, Valuation::new(6.0), Cost::new(1.0)).unwrap();
    b.add_edge(first, spare, Valuation::new(5.0), Cost::new(1.0)).unwrap();
    b.add_edge(second, full, Valuation::new(7.0), Cost::new(1.0)).unwrap();
    let inst = b.build().unwrap();
    let net = NetworkModel {
        base_latency: SimDuration::from_millis(1),
        broadcast_window: SimDuration::from_millis(1),
        ..NetworkModel::ideal()
    };
    let (on, off) = run_both(&inst, &net, 0, 0.01);
    assert!(on.coalesced_events > 0, "the slot must coalesce: {on:?}");
    assert_byte_identical(&on, &off);
    assert_eq!(on.assignment.provider_of(&inst, second), Some(full));
    assert_eq!(on.assignment.provider_of(&inst, first), Some(spare), "the evicted request rebids");
}
