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
//! the neighbourhoods a tracker hands out. Those values are continuous, so
//! no two bids tie. The tie-heavy rows run on [`p2p_bench::grid_instance`]
//! instead, the regime streaming slots run in: there equal bids collide,
//! and every execution must still agree, the tracker's two wire drivers
//! included.
//!
//! Each swarm row pins its counted work (events, messages, trace hash,
//! peak queue), and each probe row its `CountingProbe` counts, so a change
//! that adds work fails a pin and states the delta. A debug build checks correctness at small sizes. The full-size
//! rows and the three timing gates need an optimized build, so a debug
//! build ignores them. Run everything with
//! `cargo test --release -p p2p-bench --test engine_gates -- --include-ignored`.

use p2p_bench::{grid_instance, random_instance};
use p2p_core::csr::{CsrInstance, FlatAuction, FlatOutcome};
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, CountingProbe, EngineReport, NetworkModel,
    NoProbe, ShardCount, ShardedAuction, SwarmAuction, SwarmConfig, SwarmOutcome, SyncAuction,
    WelfareInstance,
};
use p2p_net::{run_slot_local, NetConfig};
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

/// The probe gate's counted twin: each probe row's `CountingProbe` counts
/// per pass, as `(requests, shards, [rounds, bids, conflicts, retries,
/// retired, price changes])`. Unlike the gate's wall time, code placement
/// and a shared host cannot move them; a change that adds work fails a pin
/// and states the delta.
const PROBE_PINS: [(usize, usize, [u64; 6]); 16] = [
    (400, 1, [5, 385, 292, 0, 307, 317]),
    (400, 2, [1, 487, 394, 7, 307, 270]),
    (400, 4, [1, 466, 373, 6, 307, 281]),
    (400, 8, [1, 453, 360, 7, 307, 300]),
    (1_000, 1, [7, 1_397, 1_096, 0, 699, 1_158]),
    (1_000, 2, [1, 1_891, 1_590, 14, 699, 1_043]),
    (1_000, 4, [1, 1_790, 1_489, 13, 699, 1_073]),
    (1_000, 8, [1, 1_738, 1_437, 13, 699, 1_074]),
    (3_000, 1, [7, 3_963, 3_142, 0, 2_179, 3_329]),
    (3_000, 2, [1, 5_707, 4_886, 14, 2_179, 3_099]),
    (3_000, 4, [1, 5_266, 4_445, 15, 2_179, 3_134]),
    (3_000, 8, [1, 5_071, 4_250, 13, 2_179, 3_197]),
    (10_000, 1, [9, 13_519, 10_801, 0, 7_282, 11_426]),
    (10_000, 2, [1, 19_221, 16_503, 18, 7_282, 10_328]),
    (10_000, 4, [1, 18_044, 15_326, 21, 7_282, 10_695]),
    (10_000, 8, [1, 17_413, 14_695, 23, 7_282, 10_833]),
];

/// Wall limit of the 10⁵-peer ideal swarm row, 223.5 ms: the row was held
/// to a floor of 3,259,818 events/s (its throughput before the arena
/// mailboxes and event coalescing landed) while it ran 728,489 events, and
/// a floor per event would read a change that cuts events as a slowdown.
const IDEAL_1E5_WALL_S: f64 = 728_489.0 / 3_259_818.0;

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
/// hit the three modes alike, and returns each mode's best wall time in ns
/// with the probe's report. Every pass must reproduce the warm-up's
/// (welfare, rounds, bids), and the probe must count the bids of all its
/// passes.
fn probe_passes(requests: usize, shards: usize) -> ([u128; 3], EngineReport) {
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
    let report = probe.take_report();
    assert_eq!(report.bids, expected.2 * PROBE_PASSES, "{row}: the probe miscounted bids");
    ([bare, noprobe, probed], report)
}

/// Checks a probe row's report against its [`PROBE_PINS`] entry: every one
/// of the [`PROBE_PASSES`] runs must add the pinned counts.
fn assert_probe_counts(requests: usize, shards: usize, report: &EngineReport) {
    let row = format!("probe counts at {shards} shards, {requests} requests");
    let pinned = PROBE_PINS
        .iter()
        .find(|&&(n, s, _)| (n, s) == (requests, shards))
        .map(|&(_, _, counts)| counts)
        .unwrap_or_else(|| panic!("{row}: no pin"));
    let changes = report.price_deltas.total() + report.price_deltas.nonfinite();
    let got =
        [report.rounds, report.bids, report.conflicts, report.retries, report.retired, changes];
    assert_eq!(report.runs, PROBE_PASSES, "{row}: runs");
    assert_eq!(
        got,
        pinned.map(|c| c * PROBE_PASSES),
        "{row} moved; per pass [rounds, bids, conflicts, retries, retired, price changes] \
         now read {:?}",
        got.map(|c| c / PROBE_PASSES)
    );
}

#[test]
fn probes_change_no_outcome() {
    let _cpu = shared_cpu();
    for requests in [400, 1_000] {
        for shards in [1, 2, 4, 8] {
            let (_, report) = probe_passes(requests, shards);
            assert_probe_counts(requests, shards, &report);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size rows: run in a release build")]
fn probe_counts_match_their_pins_at_full_size() {
    let _cpu = shared_cpu();
    for requests in [3_000, 10_000] {
        for shards in [1, 2, 4, 8] {
            let (_, report) = probe_passes(requests, shards);
            assert_probe_counts(requests, shards, &report);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn enabled_probe_costs_at_most_five_percent() {
    let _cpu = exclusive_cpu();
    for shards in [1, 2, 4, 8] {
        probe_passes(3_000, shards);
        let ([bare, _, probed], _) = probe_passes(10_000, shards);
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

/// A swarm row's counted work: events, messages, trace hash, peak queue.
fn work(out: &SwarmOutcome) -> (u64, u64, u64, u64) {
    (out.events, out.messages, out.trace_hash, out.peak_queue)
}

fn assert_work(out: &SwarmOutcome, pinned: (u64, u64, u64, u64), row: &str) {
    let got = work(out);
    assert_eq!(
        got, pinned,
        "the {row} moved: events {}, messages {}, trace hash {:#018x}, peak queue {}",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn ideal_swarm_replays_the_flat_engine() {
    let _cpu = shared_cpu();
    ideal_row(1_000);
    ideal_row(10_000);
    let (out, _) = ideal_row(100_000);
    assert_eq!((out.rounds, out.bids_submitted), (9, 72_263), "the 10⁵-peer ideal row moved");
    assert_work(&out, (149_857, 194_374, 0x98a5_1374_fbc9_c04b, 100_001), "10⁵-peer ideal row");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn ideal_swarm_of_1e5_peers_meets_its_budget_and_floor() {
    let _cpu = exclusive_cpu();
    let (_, wall_s) = ideal_row(100_000);
    assert!(
        wall_s <= IDEAL_1E5_WALL_S,
        "the 10⁵-peer row took {:.1} ms; the limit is {:.1} ms",
        wall_s * 1e3,
        IDEAL_1E5_WALL_S * 1e3
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run in a release build")]
fn ideal_swarm_of_1e6_peers_meets_its_budget() {
    let _cpu = exclusive_cpu();
    let (out, wall_s) = ideal_row(1_000_000);
    assert!(wall_s <= FLASH_BUDGET_S, "the 10⁶-peer row took {wall_s:.2} s");
    assert_work(
        &out,
        (1_500_908, 1_952_934, 0x9191_3256_95c8_3b23, 1_000_001),
        "10⁶-peer ideal row",
    );
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
/// each other, and returns the coalescing run. That run must see drops and,
/// at ε > 0, be certified (conservation included); the two runs must
/// deliver the same trace and reach the same outcome, and the run with
/// coalescing off must coalesce nothing.
fn faulty_row(
    instance: &WelfareInstance,
    seed: u64,
    epsilon: f64,
    net: &NetworkModel,
    row: &str,
) -> SwarmOutcome {
    let run = |coalesce| {
        let cfg = SwarmConfig { coalesce, ..SwarmConfig::with_epsilon(epsilon) };
        SwarmAuction::new(cfg, net.clone()).run(instance, seed).expect("the faulty swarm quiesces")
    };
    let (on, off) = (run(true), run(false));
    if epsilon > 0.0 {
        certify(instance, &on.to_outcome(), row);
    }
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

/// Runs the lossy and quantized rows at `requests` peers and returns the
/// lossy one.
fn faulty_rows(requests: usize) -> SwarmOutcome {
    let instance = swarm_instance(requests);
    let seed = swarm_seed(requests);
    let row = |name: &str| format!("{name} swarm, {requests} peers");
    let lossy = faulty_row(&instance, seed, EPSILON, &NetworkModel::lossy(), &row("lossy"));
    let quantized = faulty_row(&instance, seed, EPSILON, &quantized(), &row("quantized"));
    assert!(
        quantized.coalesced_events > 0,
        "the quantized row at {requests} peers coalesced nothing, so coalesced ≡ \
         uncoalesced compared one path with itself"
    );
    lossy
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
    let lossy = faulty_rows(10_000);
    assert_work(&lossy, (508_338, 483_680, 0xb3e3_c0c2_3501_786a, 112_653), "10⁴-peer lossy row");
}

/// The tie-heavy rows' instance seeds.
const GRID_SEEDS: std::ops::Range<u64> = 0..40;

/// One tie-heavy row: a [`grid_instance`] of 30 providers and 120 peers
/// requesting 4 chunks each, run at `epsilon` by every execution. Sync,
/// the ideal swarm and the tracker (batched and per request) must equal
/// the one-shard flat engine; the sharded engine must equal the flat one
/// at 2, 4 and 8 shards; coalescing must change no delivery. At ε > 0
/// every run carries the `n·ε` certificate.
fn check_grid(seed: u64, epsilon: f64) {
    let instance = grid_instance(seed, 30, 120, 4, 8, 6);
    let csr = CsrInstance::compile(&instance);
    let cfg = AuctionConfig::with_epsilon(epsilon);
    let check = |outcome: &AuctionOutcome, reference: &AuctionOutcome, name: &str| {
        let row = format!("{name}, grid seed {seed}, ε = {epsilon}");
        assert_same_run(outcome, reference, &row);
        if epsilon > 0.0 {
            certify(&instance, outcome, &row);
        }
    };
    let flat = FlatAuction::new(cfg, ShardCount::Fixed(1)).run(&csr).expect("flat converges");
    check(&SyncAuction::new(cfg).run(&instance).expect("sync converges"), &flat, "sync");
    let ideal = SwarmAuction::new(SwarmConfig::with_epsilon(epsilon), NetworkModel::ideal())
        .run(&instance, seed)
        .expect("the ideal swarm quiesces");
    check(&ideal.to_outcome(), &flat, "ideal swarm");
    for batch_polls in [true, false] {
        let config = NetConfig { epsilon, batch_polls, ..NetConfig::default() };
        let net = run_slot_local(&instance, 3, &config, &mut NoProbe).expect("the tracker runs");
        check(&net, &flat, &format!("tracker, batch_polls {batch_polls}"));
    }
    for shards in [2, 4, 8] {
        let shards = ShardCount::Fixed(shards);
        let flat = FlatAuction::new(cfg, shards).run(&csr).expect("flat converges");
        let sharded = ShardedAuction::new(cfg, shards).run(&instance).expect("sharded converges");
        check(&sharded, &flat, &format!("sharded vs flat at {shards:?}"));
    }
    let row = format!("quantized swarm, grid seed {seed}, ε = {epsilon}");
    faulty_row(&instance, seed, epsilon, &quantized(), &row);
}

#[test]
fn every_execution_agrees_and_certifies_on_tie_heavy_slots() {
    let _cpu = shared_cpu();
    for seed in GRID_SEEDS {
        check_grid(seed, EPSILON);
    }
}

/// The paper's rule on the same slots. Only agreement is checked: at
/// ε = 0 tied requests abstain and can be stranded short of the optimum.
#[test]
fn every_execution_agrees_on_tie_heavy_slots_at_epsilon_zero() {
    let _cpu = shared_cpu();
    for seed in GRID_SEEDS {
        check_grid(seed, 0.0);
    }
}
