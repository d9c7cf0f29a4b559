//! The engine gates: every execution of one auction must agree. The flat
//! CSR engine reproduces the nested engines bit for bit, the ideal swarm
//! reproduces the flat engine, event coalescing changes no delivery,
//! probes change no outcome, and every run carries the Theorem 1
//! certificate at tolerance ε·(n + 1).
//!
//! The instances are flash-crowd-shaped slots from
//! [`p2p_bench::random_instance`]. The engines get dense ones: one
//! provider per 16 requests and up to 24 candidates a request. The swarm
//! gets sparse ones: one provider per 20 requests and up to 8 candidates,
//! the neighbourhoods a tracker hands out.
//!
//! A debug build checks correctness at small sizes. The full-size rows and
//! the three timing gates need an optimized build, so a debug build
//! ignores them. Run everything with
//! `cargo test --release -p p2p-bench --test engine_gates -- --include-ignored`.

use p2p_bench::random_instance;
use p2p_core::csr::{CsrInstance, FlatAuction, FlatOutcome};
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, CountingProbe, NetworkModel, NoProbe,
    ShardCount, ShardedAuction, SwarmAuction, SwarmConfig, SwarmOutcome, SyncAuction,
    WelfareInstance,
};
use p2p_types::SimDuration;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The ε of every run: large instances carry structural near-ties, and the
/// faulty rows need ε > 0 to bound rebids from stale prices.
const EPSILON: f64 = 0.01;

/// The engine rows' two instance seed families, each XORed with the size.
const ENGINE_SEEDS: [u64; 2] = [0xF1A7, 0xC0FFEE];

/// The shard counts every engine row runs at.
const SHARDS: [ShardCount; 5] = [
    ShardCount::Fixed(1),
    ShardCount::Fixed(2),
    ShardCount::Fixed(4),
    ShardCount::Fixed(8),
    ShardCount::Auto,
];

/// Interleaved timed passes of each probe mode.
const PROBE_PASSES: u64 = 8;

/// How much a live `CountingProbe` may slow the 10⁴-request flat rows.
const MAX_PROBE_OVERHEAD_PCT: f64 = 5.0;

/// Wall budget of the 10⁵-peer ideal swarm row.
const WALL_BUDGET_S: f64 = 10.0;

/// Events/s floor of the 10⁵-peer ideal swarm row: its throughput before
/// the arena mailboxes and event coalescing landed.
const BASELINE_EVENTS_PER_SEC: f64 = 3_259_818.0;

/// Wall budget of the 10⁶-peer ideal swarm row.
const FLASH_BUDGET_S: f64 = 60.0;

/// Timing gates hold this lock for writing and every other test holds it
/// for reading, so no sibling test shares the CPU with a timed run.
static CPU: RwLock<()> = RwLock::new(());

fn shared_cpu() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_cpu() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

fn engine_instance(seed: u64, requests: usize) -> WelfareInstance {
    random_instance(seed ^ requests as u64, (requests / 16).max(4), requests, 8, 24)
}

fn swarm_instance(requests: usize) -> WelfareInstance {
    random_instance(0x51B3 ^ requests as u64, (requests / 20).max(4), requests, 8, 8)
}

fn swarm_seed(requests: usize) -> u64 {
    0xCAFE ^ requests as u64
}

fn certify(instance: &WelfareInstance, outcome: &AuctionOutcome, row: &str) {
    let tol = EPSILON * (instance.request_count() as f64 + 1.0);
    let report = verify_optimality(instance, &outcome.assignment, &outcome.duals, tol);
    assert!(report.is_optimal(), "{row}: certificate failed: {:?}", report.violations);
}

fn assert_same_run(a: &AuctionOutcome, b: &AuctionOutcome, row: &str) {
    assert!(a.assignment == b.assignment, "{row}: the assignments differ");
    assert!(a.duals == b.duals, "{row}: the duals differ");
    assert_eq!(a.rounds, b.rounds, "{row}: the rounds differ");
    assert_eq!(a.bids_submitted, b.bids_submitted, "{row}: the bids differ");
}

/// Runs sync, sharded and flat at every shard count on one instance. The
/// flat engine must equal its nested counterpart: sync at one shard,
/// sharded otherwise. Every run must be certified and lie within 2nε of
/// sync, since each lies within nε of the optimum.
fn check_engines(seed: u64, requests: usize) {
    let instance = engine_instance(seed, requests);
    let csr = CsrInstance::compile(&instance);
    let cfg = AuctionConfig::with_epsilon(EPSILON);
    let sync = SyncAuction::new(cfg).run(&instance).expect("sync converges");
    let sync_welfare = sync.assignment.welfare(&instance).get();
    let band = 2.0 * EPSILON * requests as f64 + 1e-9;
    let check = |outcome: &AuctionOutcome, row: &str| {
        certify(&instance, outcome, row);
        let welfare = outcome.assignment.welfare(&instance).get();
        assert!(
            (welfare - sync_welfare).abs() <= band,
            "{row}: welfare {welfare} strays from sync's {sync_welfare} by more than {band}"
        );
    };
    check(&sync, &format!("sync, {requests} requests, seed {seed:#x}"));
    for shards in SHARDS {
        let row = format!("{shards:?}, {requests} requests, seed {seed:#x}");
        let sharded = ShardedAuction::new(cfg, shards).run(&instance).expect("sharded converges");
        let flat = FlatAuction::new(cfg, shards).run(&csr).expect("flat converges");
        check(&sharded, &format!("sharded at {row}"));
        check(&flat, &format!("flat at {row}"));
        let nested = if shards == ShardCount::Fixed(1) { &sync } else { &sharded };
        assert_same_run(&flat, nested, &format!("flat vs nested at {row}"));
    }
}

#[test]
fn flat_equals_nested_and_every_engine_certifies() {
    let _cpu = shared_cpu();
    for seed in ENGINE_SEEDS {
        for requests in [400, 1_000] {
            check_engines(seed, requests);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size rows: run in a release build")]
fn flat_equals_nested_and_every_engine_certifies_at_full_size() {
    let _cpu = shared_cpu();
    for seed in ENGINE_SEEDS {
        for requests in [3_000, 10_000] {
            check_engines(seed, requests);
        }
    }
}

fn timed(best_ns: &mut u128, run: impl FnOnce() -> p2p_types::Result<()>) {
    let t0 = Instant::now();
    run().expect("the flat engine converges");
    *best_ns = (*best_ns).min(t0.elapsed().as_nanos());
}

/// Runs one flat engine bare, with `NoProbe` and with a `CountingProbe`,
/// interleaved over [`PROBE_PASSES`] passes so clock drift and cache state
/// hit the three modes alike, and returns each mode's best wall time in ns.
/// Every pass must reproduce the warm-up's (welfare, rounds, bids), and the
/// probe must count the bids of all its passes.
fn probe_passes(requests: usize, shards: usize) -> [u128; 3] {
    let row = format!("probes at {shards} shards, {requests} requests");
    let instance = engine_instance(ENGINE_SEEDS[0], requests);
    let csr = CsrInstance::compile(&instance);
    let mut engine =
        FlatAuction::new(AuctionConfig::with_epsilon(EPSILON), ShardCount::Fixed(shards));
    let mut out = FlatOutcome::default();
    engine.run_into(&csr, &mut out).expect("the warm-up converges");
    certify(&instance, &out.to_outcome(), &row);
    let fingerprint = |o: &FlatOutcome| (o.welfare(), o.rounds(), o.bids_submitted());
    let expected = fingerprint(&out);
    let mut probe = CountingProbe::new();
    let [mut bare, mut noprobe, mut probed] = [u128::MAX; 3];
    for _ in 0..PROBE_PASSES {
        timed(&mut bare, || engine.run_into(&csr, &mut out));
        assert_eq!(fingerprint(&out), expected, "{row}: a bare rerun moved");
        timed(&mut noprobe, || engine.run_into_probed(&csr, &mut out, &mut NoProbe));
        assert_eq!(fingerprint(&out), expected, "{row}: NoProbe moved the outcome");
        timed(&mut probed, || engine.run_into_probed(&csr, &mut out, &mut probe));
        assert_eq!(fingerprint(&out), expected, "{row}: CountingProbe moved the outcome");
    }
    let counted = probe.take_report().bids;
    assert_eq!(counted, expected.2 * PROBE_PASSES, "{row}: the probe miscounted bids");
    [bare, noprobe, probed]
}

#[test]
fn probes_change_no_outcome() {
    let _cpu = shared_cpu();
    for requests in [400, 1_000] {
        for shards in [1, 2, 4, 8] {
            probe_passes(requests, shards);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn enabled_probe_costs_at_most_five_percent() {
    let _cpu = exclusive_cpu();
    for shards in [1, 2, 4, 8] {
        probe_passes(3_000, shards);
        let [bare, _, probed] = probe_passes(10_000, shards);
        let pct = 100.0 * (probed as f64 - bare as f64) / bare.max(1) as f64;
        assert!(
            pct <= MAX_PROBE_OVERHEAD_PCT,
            "the enabled probe cost {pct:.2}% (bare {bare} ns, probed {probed} ns) at \
             {shards} shards, 10⁴ requests; the limit is {MAX_PROBE_OVERHEAD_PCT}%"
        );
    }
}

/// Runs the ideal swarm on its row and checks it against the one-shard
/// flat engine (assignment, duals, rounds, bids) and the certificate.
/// Returns the outcome and the swarm run's wall time in seconds.
fn ideal_row(requests: usize) -> (SwarmOutcome, f64) {
    let row = format!("ideal swarm, {requests} peers");
    let instance = swarm_instance(requests);
    let engine = SwarmAuction::new(SwarmConfig::with_epsilon(EPSILON), NetworkModel::ideal());
    let t0 = Instant::now();
    let out = engine.run(&instance, swarm_seed(requests)).expect("the ideal swarm quiesces");
    let wall_s = t0.elapsed().as_secs_f64();
    let flat = FlatAuction::new(AuctionConfig::with_epsilon(EPSILON), ShardCount::Fixed(1))
        .run(&CsrInstance::compile(&instance))
        .expect("flat converges");
    let swarm = out.to_outcome();
    assert_same_run(&swarm, &flat, &row);
    certify(&instance, &swarm, &row);
    (out, wall_s)
}

#[test]
fn ideal_swarm_replays_the_flat_engine() {
    let _cpu = shared_cpu();
    ideal_row(1_000);
    ideal_row(10_000);
    // The 10⁵-peer row is the one the throughput floor is measured on, and
    // that floor is per event: pin the work the row does.
    let (out, _) = ideal_row(100_000);
    let pin = (out.events, out.messages, out.rounds, out.bids_submitted, out.trace_hash);
    assert_eq!(
        pin,
        (728_489, 194_374, 9, 72_263, 0x98a5_1374_fbc9_c04b),
        "the 10⁵-peer ideal row moved: events {}, messages {}, rounds {}, bids {}, \
         trace hash {:#018x}",
        pin.0,
        pin.1,
        pin.2,
        pin.3,
        pin.4
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn ideal_swarm_of_1e5_peers_meets_its_budget_and_floor() {
    let _cpu = exclusive_cpu();
    let (out, wall_s) = ideal_row(100_000);
    let events_per_s = out.events as f64 / wall_s;
    assert!(wall_s <= WALL_BUDGET_S, "the 10⁵-peer row took {wall_s:.2} s");
    assert!(
        events_per_s >= BASELINE_EVENTS_PER_SEC,
        "the 10⁵-peer row ran {} events in {wall_s:.3} s, {events_per_s:.0} events/s; \
         the floor is {BASELINE_EVENTS_PER_SEC:.0}",
        out.events
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn ideal_swarm_of_1e6_peers_meets_its_budget() {
    let _cpu = exclusive_cpu();
    let (_, wall_s) = ideal_row(1_000_000);
    assert!(wall_s <= FLASH_BUDGET_S, "the 10⁶-peer row took {wall_s:.2} s");
}

/// The lossy model's drop and duplicate rates on a 1 ms delivery grid: no
/// per-link spread, jitter or reorder detour. A fan-in then lands several
/// messages on one peer at one instant, so coalescing has events to merge;
/// under `lossy()`'s continuous latencies no two deliveries ever coincide.
fn quantized() -> NetworkModel {
    NetworkModel {
        base_latency: SimDuration::from_millis(1),
        link_spread: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        reorder_prob: 0.0,
        reorder_delay: SimDuration::ZERO,
        ..NetworkModel::lossy()
    }
}

/// Runs a faulty row with event coalescing on and off, checks both against
/// each other, and returns the coalescing run. That run must be certified
/// (conservation included) and see drops; the two runs must deliver the
/// same trace and reach the same outcome, and the run with coalescing off
/// must coalesce nothing.
fn faulty_row(requests: usize, net: &NetworkModel, name: &str) -> SwarmOutcome {
    let row = format!("{name} swarm, {requests} peers");
    let instance = swarm_instance(requests);
    let run = |coalesce| {
        let cfg = SwarmConfig { coalesce, ..SwarmConfig::with_epsilon(EPSILON) };
        SwarmAuction::new(cfg, net.clone())
            .run(&instance, swarm_seed(requests))
            .expect("the faulty swarm quiesces")
    };
    let (on, off) = (run(true), run(false));
    certify(&instance, &on.to_outcome(), &row);
    assert!(on.faults.dropped > 0, "{row}: the model dropped nothing");
    let identity = |o: &SwarmOutcome| {
        (o.trace_hash, o.faults, o.messages, o.bids_submitted, o.converged_at, o.converged)
    };
    assert_eq!(
        identity(&on),
        identity(&off),
        "{row}: coalescing changed (trace hash, faults, messages, bids, converged at, converged)"
    );
    assert!(on.assignment == off.assignment, "{row}: coalescing changed the assignment");
    assert!(on.duals.lambda == off.duals.lambda, "{row}: coalescing changed λ");
    assert_eq!(off.coalesced_events, 0, "{row}: the run with coalescing off coalesced");
    on
}

fn faulty_rows(requests: usize) {
    faulty_row(requests, &NetworkModel::lossy(), "lossy");
    let quantized = faulty_row(requests, &quantized(), "quantized");
    assert!(
        quantized.coalesced_events > 0,
        "the quantized row at {requests} peers coalesced nothing, so coalesced ≡ \
         uncoalesced compared one path with itself"
    );
}

#[test]
fn coalescing_changes_no_delivery() {
    let _cpu = shared_cpu();
    faulty_rows(1_000);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size rows: run in a release build")]
fn coalescing_changes_no_delivery_at_full_size() {
    let _cpu = shared_cpu();
    faulty_rows(10_000);
}
