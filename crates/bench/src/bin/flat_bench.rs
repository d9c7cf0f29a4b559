//! EXP-F — the flat CSR engine vs the nested-layout engines on
//! flash-crowd-scale slot instances.
//!
//! Measures per-slot auction latency on 10³–10⁴-request welfare instances
//! for the PR 4 sharded engine ([`p2p_core::ShardedAuction`]) and the flat
//! CSR engine ([`p2p_core::csr::FlatAuction`]) at matching shard counts
//! (plus the sequential sweep and `shards = auto`), checks every outcome
//! against the Theorem 1 `n·ε` certificate and the sync oracle's welfare,
//! and — because the flat engine is the *same* auction over a different
//! memory layout — hard-fails unless each flat run is **bit-identical**
//! (welfare, rounds, bids) to its nested counterpart. Results land in
//! `BENCH_flat.json` at the repo root, comparable row-for-row with
//! `BENCH_parallel.json`.
//!
//! Usage:
//!   `flat_bench [--quick] [--obs] [--out PATH]`
//!
//! `--quick` shrinks instance sizes for CI smoke runs; the committed JSON
//! comes from a full run. The `flat_hot` rows time
//! [`FlatAuction::run_into`] — the zero-allocation steady-state slot path
//! (reused scratch + reused outcome buffers); plain `flat` rows include
//! the owned-outcome conversion so they are directly comparable with the
//! nested engines' rows.
//!
//! `--obs` switches to EXP-O (ISSUE 7): the instrumented steady-state path
//! (`run_into_probed` with a live [`CountingProbe`]) vs the bare
//! `run_into` loop and vs probes-compiled-but-disabled ([`NoProbe`]) on
//! the same engine. Outcomes must be bit-identical in every mode, and the
//! binary hard-fails if the enabled-probe overhead exceeds 5% at the
//! 10⁴-request sweep. Results land in `BENCH_obs.json`.

use p2p_bench::Args;
use p2p_core::csr::{CsrInstance, FlatAuction, FlatOutcome};
use p2p_core::{
    verify_optimality, AuctionConfig, CountingProbe, NoProbe, ShardCount, ShardedAuction,
    SyncAuction, WelfareInstance,
};
use p2p_types::Result;
use std::process::ExitCode;
use std::time::Instant;

/// The ε every engine runs with (matches `shard_bench`): large instances
/// carry structural near-ties, so the deployable ε > 0 configuration is
/// the meaningful comparison.
const EPSILON: f64 = 0.01;

struct EngineRun {
    label: String,
    shards: Option<usize>,
    wall_ns: u128,
    rounds: u64,
    bids: u64,
    welfare: f64,
    /// Nanoseconds of the nested engine this row is compared against
    /// (sync for shards ≤ 1, the sharded engine otherwise); `None` for the
    /// baseline rows themselves.
    baseline_ns: Option<u128>,
}

/// Best-of-four timing around `run`, with one untimed warm-up pass.
fn best_of<T>(mut run: impl FnMut() -> Result<T>) -> Result<(u128, T)> {
    run()?;
    let mut wall_ns = u128::MAX;
    let mut last = None;
    for _ in 0..4 {
        let t0 = Instant::now();
        let out = run()?;
        wall_ns = wall_ns.min(t0.elapsed().as_nanos());
        last = Some(out);
    }
    Ok((wall_ns, last.expect("timed passes ran")))
}

/// A flash-crowd-shaped slot, identical in shape to `shard_bench`'s: total
/// upload capacity ≈ 28% of demand, deep per-provider allocation sets and
/// ~24 candidate edges per request.
fn bench_instance(seed: u64, requests: usize) -> WelfareInstance {
    let providers = (requests / 16).max(4);
    p2p_bench::instances::random_instance(seed, providers, requests, 8, 24)
}

fn certify(instance: &WelfareInstance, outcome: &p2p_core::AuctionOutcome) -> Result<()> {
    let tol = EPSILON * (instance.request_count() as f64 + 1.0);
    let report = verify_optimality(instance, &outcome.assignment, &outcome.duals, tol);
    if !report.is_optimal() {
        return Err(p2p_types::P2pError::MalformedInstance(format!(
            "an engine lost the optimality certificate: {:?}",
            report.violations
        )));
    }
    Ok(())
}

fn run(args: &Args) -> Result<()> {
    let quick = args.has("quick");
    let sizes: &[usize] = if quick { &[400, 1_000] } else { &[1_000, 3_000, 10_000] };
    let shard_counts: [usize; 3] = [2, 4, 8];
    let out_path = args.get_str("out", "BENCH_flat.json");
    let cfg = AuctionConfig::with_epsilon(EPSILON);

    let mut rows = Vec::new();
    println!("cold per-slot auction latency, ε = {EPSILON} (flat = CSR layout + reused scratch):");
    println!(
        "{:<10} {:<16} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "requests", "engine", "wall", "rounds", "bids", "welfare", "vs nested", "certified"
    );
    for &requests in sizes {
        let instance = bench_instance(0xF1A7 ^ requests as u64, requests);
        let csr = CsrInstance::compile(&instance);
        let mut runs: Vec<EngineRun> = Vec::new();

        // Baselines: the sequential sweep and the PR 4 sharded engine.
        let sync_engine = SyncAuction::new(cfg);
        let (sync_ns, sync_out) = best_of(|| sync_engine.run(&instance))?;
        certify(&instance, &sync_out)?;
        let sync_welfare = sync_out.assignment.welfare(&instance).get();
        runs.push(EngineRun {
            label: "sync".into(),
            shards: None,
            wall_ns: sync_ns,
            rounds: sync_out.rounds,
            bids: sync_out.bids_submitted,
            welfare: sync_welfare,
            baseline_ns: None,
        });
        let mut nested_ns = std::collections::HashMap::new();
        let mut nested_fingerprint = std::collections::HashMap::new();
        for &n in &shard_counts {
            let engine = ShardedAuction::new(cfg, ShardCount::Fixed(n));
            let (ns, out) = best_of(|| engine.run(&instance))?;
            certify(&instance, &out)?;
            let welfare = out.assignment.welfare(&instance).get();
            nested_ns.insert(n, ns);
            nested_fingerprint.insert(n, (welfare, out.rounds, out.bids_submitted));
            runs.push(EngineRun {
                label: format!("sharded/{n}"),
                shards: Some(n),
                wall_ns: ns,
                rounds: out.rounds,
                bids: out.bids_submitted,
                welfare,
                baseline_ns: None,
            });
        }

        // The flat engine at matching shard counts (1 compares against the
        // sync sweep), with one persistent engine per row — the scratch
        // reuse the slot loop gets in production.
        for &n in &[1usize, 2, 4, 8] {
            let mut engine = FlatAuction::new(cfg, ShardCount::Fixed(n));
            let (ns, out) = best_of(|| engine.run(&csr))?;
            certify(&instance, &out)?;
            let welfare = out.assignment.welfare(&instance).get();
            let (base_ns, base_print) = if n == 1 {
                (sync_ns, (sync_welfare, sync_out.rounds, sync_out.bids_submitted))
            } else {
                (nested_ns[&n], nested_fingerprint[&n])
            };
            // Bit-equality gate: the flat engine must reproduce its nested
            // counterpart exactly — any drift is a defect, not noise.
            if (welfare, out.rounds, out.bids_submitted) != base_print {
                return Err(p2p_types::P2pError::MalformedInstance(format!(
                    "flat/{n} diverged from its nested counterpart on the \
                     {requests}-request instance: ({welfare}, {}, {}) vs {base_print:?}",
                    out.rounds, out.bids_submitted
                )));
            }
            runs.push(EngineRun {
                label: format!("flat/{n}"),
                shards: Some(n),
                wall_ns: ns,
                rounds: out.rounds,
                bids: out.bids_submitted,
                welfare,
                baseline_ns: Some(base_ns),
            });
            // The zero-allocation steady-state path: reused outcome
            // buffers, no owned-outcome conversion.
            let mut hot = FlatOutcome::default();
            let (hot_ns, _) = best_of(|| engine.run_into(&csr, &mut hot).map(|()| hot.welfare()))?;
            runs.push(EngineRun {
                label: format!("flat_hot/{n}"),
                shards: Some(n),
                wall_ns: hot_ns,
                rounds: hot.rounds(),
                bids: hot.bids_submitted(),
                welfare: hot.welfare(),
                baseline_ns: Some(base_ns),
            });
        }
        // `shards = auto` adapts to the slot size (identical to the nested
        // Auto resolution, so also bit-identical — covered by tests).
        {
            let auto = ShardCount::Auto.resolve_for(requests);
            let mut engine = FlatAuction::new(cfg, ShardCount::Auto);
            let (ns, out) = best_of(|| engine.run(&csr))?;
            certify(&instance, &out)?;
            runs.push(EngineRun {
                label: format!("flat/auto({auto})"),
                shards: Some(auto),
                wall_ns: ns,
                rounds: out.rounds,
                bids: out.bids_submitted,
                welfare: out.assignment.welfare(&instance).get(),
                baseline_ns: None,
            });
        }

        let bound = EPSILON * 2.0 * instance.request_count() as f64 + 1e-9;
        for r in &runs {
            // Every engine is within n·ε of optimal, so within 2·n·ε of
            // the sync oracle; a larger gap means a real defect.
            if (r.welfare - sync_welfare).abs() > bound {
                return Err(p2p_types::P2pError::MalformedInstance(format!(
                    "{} welfare {} strayed from sync welfare {sync_welfare} on the \
                     {requests}-request instance",
                    r.label, r.welfare
                )));
            }
            let speedup = r.baseline_ns.map(|b| b as f64 / r.wall_ns.max(1) as f64);
            println!(
                "{:<10} {:<16} {:>10}µs {:>8} {:>10} {:>12.2} {:>11} {:>10}",
                requests,
                r.label,
                r.wall_ns / 1_000,
                r.rounds,
                r.bids,
                r.welfare,
                speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
                "yes",
            );
            rows.push(format!(
                "    {{\n      \"requests\": {},\n      \"providers\": {},\n      \
                 \"engine\": \"{}\",\n      \"shards\": {},\n      \"wall_ns\": {},\n      \
                 \"rounds\": {},\n      \"bids\": {},\n      \"welfare\": {:.3},\n      \
                 \"speedup_vs_nested\": {},\n      \"certified\": true\n    }}",
                requests,
                instance.provider_count(),
                r.label,
                r.shards.map_or("null".to_string(), |s| s.to_string()),
                r.wall_ns,
                r.rounds,
                r.bids,
                r.welfare,
                speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
            ));
        }
    }

    let cores = p2p_core::available_cores();
    let json = format!(
        "{{\n  \"note\": \"The flat CSR engine (structure-of-arrays instance layout, v-w \
         precomputed once, reusable AuctionScratch: zero hot-loop allocations after \
         warm-up) vs the nested-layout engines on flash-crowd-shaped slot instances \
         (ISSUE 5). flat/N rows are bit-identical in welfare/rounds/bids to their \
         nested counterparts (sync for N=1, sharded/N otherwise) — enforced by this \
         binary — so speedup_vs_nested is pure memory-layout + scratch-reuse win. \
         flat_hot rows time the zero-allocation run_into path the slot loop uses in \
         steady state. Regenerate with `cargo run --release -p p2p-bench --bin \
         flat_bench` (add --quick for CI sizes); expect run-to-run timing noise, the \
         certified/welfare fields are exact.\",\n  \"command\": \"cargo run --release \
         -p p2p-bench --bin flat_bench{}\",\n  \"epsilon\": {},\n  \
         \"machine_cores\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if quick { " -- --quick" } else { "" },
        EPSILON,
        cores,
        rows.join(",\n"),
    );
    std::fs::write(&out_path, json).map_err(|e| {
        p2p_types::P2pError::invalid_config("out", format!("cannot write `{out_path}`: {e}"))
    })?;
    println!("\nwrote {out_path}");
    Ok(())
}

/// EXP-O — probe overhead on the steady-state slot path.
///
/// For each instance size and shard count, times three executions of the
/// identical engine + scratch: the bare `run_into` loop, `run_into_probed`
/// with [`NoProbe`] (the monomorphized probes-off configuration every
/// scheduler uses by default), and `run_into_probed` with a live
/// [`CountingProbe`]. Outcomes must be bit-identical across all three —
/// probes are observers — and at the full 10⁴-request sweep the enabled
/// probe may cost at most 5% wall clock over bare, enforced as a hard
/// failure so the observability layer can never silently tax the hot path.
fn run_obs(args: &Args) -> Result<()> {
    const MAX_OVERHEAD_PCT: f64 = 5.0;
    let quick = args.has("quick");
    let sizes: &[usize] = if quick { &[400, 1_000] } else { &[1_000, 3_000, 10_000] };
    let shard_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let gate_requests = 10_000;
    let out_path = args.get_str("out", "BENCH_obs.json");
    let cfg = AuctionConfig::with_epsilon(EPSILON);

    let mut rows = Vec::new();
    println!("steady-state per-slot latency by probe mode, ε = {EPSILON}:");
    println!(
        "{:<10} {:<16} {:>12} {:>8} {:>10} {:>12} {:>10} {:>8}",
        "requests", "engine", "wall", "rounds", "bids", "welfare", "overhead", "gated"
    );
    for &requests in sizes {
        let instance = bench_instance(0xF1A7 ^ requests as u64, requests);
        let csr = CsrInstance::compile(&instance);
        for &n in shard_counts {
            let mut engine = FlatAuction::new(cfg, ShardCount::Fixed(n));
            let mut hot = FlatOutcome::default();
            engine.run_into(&csr, &mut hot)?; // warm-up: buffers grow here
            let fingerprint = (hot.welfare(), hot.rounds(), hot.bids_submitted());
            certify(&instance, &hot.to_outcome())?;

            // Interleaved best-of: the three modes alternate inside each
            // timed round so clock drift and cache state hit all of them
            // equally. Separate back-to-back blocks can drift by more
            // than the gate itself — `NoProbe` is the bare code, so any
            // "overhead" it shows is pure timing noise.
            const TIMED_ROUNDS: u64 = 8;
            let (mut bare_ns, mut noprobe_ns, mut probed_ns) = (u128::MAX, u128::MAX, u128::MAX);
            let mut probe = CountingProbe::new();
            for _ in 0..TIMED_ROUNDS {
                let t0 = Instant::now();
                engine.run_into(&csr, &mut hot)?;
                bare_ns = bare_ns.min(t0.elapsed().as_nanos());
                let bare_print = (hot.welfare(), hot.rounds(), hot.bids_submitted());
                let t0 = Instant::now();
                engine.run_into_probed(&csr, &mut hot, &mut NoProbe)?;
                noprobe_ns = noprobe_ns.min(t0.elapsed().as_nanos());
                let noprobe_print = (hot.welfare(), hot.rounds(), hot.bids_submitted());
                let t0 = Instant::now();
                engine.run_into_probed(&csr, &mut hot, &mut probe)?;
                probed_ns = probed_ns.min(t0.elapsed().as_nanos());
                let probed_print = (hot.welfare(), hot.rounds(), hot.bids_submitted());
                if bare_print != fingerprint
                    || noprobe_print != fingerprint
                    || probed_print != fingerprint
                {
                    return Err(p2p_types::P2pError::MalformedInstance(format!(
                        "probes perturbed the outcome at shards = {n} on the \
                         {requests}-request instance: warm-up {fingerprint:?}, \
                         bare {bare_print:?}, noprobe {noprobe_print:?}, \
                         probed {probed_print:?}"
                    )));
                }
            }
            let report = probe.take_report();
            // The probe's own view must agree with the engine's counters
            // (it accumulated over the probed pass of every timed round).
            if report.bids != fingerprint.2 * TIMED_ROUNDS {
                return Err(p2p_types::P2pError::MalformedInstance(format!(
                    "the counting probe saw {} bids across {TIMED_ROUNDS} passes of {}",
                    report.bids, fingerprint.2
                )));
            }

            let gated = requests == gate_requests && !quick;
            for (label, ns) in [("bare", bare_ns), ("noprobe", noprobe_ns), ("probed", probed_ns)] {
                let overhead_pct = (label != "bare")
                    .then(|| 100.0 * (ns as f64 - bare_ns as f64) / bare_ns.max(1) as f64);
                if gated && label == "probed" {
                    let pct = overhead_pct.expect("probed rows carry overhead");
                    if pct > MAX_OVERHEAD_PCT {
                        return Err(p2p_types::P2pError::MalformedInstance(format!(
                            "enabled-probe overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}% \
                             at the {requests}-request gate (shards = {n})"
                        )));
                    }
                }
                println!(
                    "{:<10} {:<16} {:>10}µs {:>8} {:>10} {:>12.2} {:>9} {:>8}",
                    requests,
                    format!("{label}/{n}"),
                    ns / 1_000,
                    fingerprint.1,
                    fingerprint.2,
                    fingerprint.0,
                    overhead_pct.map_or("-".to_string(), |p| format!("{p:.2}%")),
                    if gated && label == "probed" { "pass" } else { "-" },
                );
                rows.push(format!(
                    "    {{\n      \"requests\": {},\n      \"providers\": {},\n      \
                     \"engine\": \"{label}/{n}\",\n      \"shards\": {n},\n      \
                     \"wall_ns\": {ns},\n      \"rounds\": {},\n      \"bids\": {},\n      \
                     \"welfare\": {:.3},\n      \"overhead_pct\": {},\n      \
                     \"gate\": {}\n    }}",
                    requests,
                    instance.provider_count(),
                    fingerprint.1,
                    fingerprint.2,
                    fingerprint.0,
                    overhead_pct.map_or("null".to_string(), |p| format!("{p:.3}")),
                    if gated && label == "probed" { "\"pass\"" } else { "null" },
                ));
            }
        }
    }

    let json = format!(
        "{{\n  \"note\": \"Probe overhead on the flat engine's zero-allocation \
         steady-state path. Timings are interleaved best-of-8 (the three modes \
         alternate within each timed round, so clock drift hits them equally). \
         bare times run_into; noprobe times \
         run_into_probed with the monomorphized NoProbe (the probes-off \
         configuration every scheduler uses by default); probed times \
         run_into_probed with a live CountingProbe accumulating per-round bid/ \
         conflict/retirement counters, price-delta histograms and the epsilon-\
         certificate slack. This binary hard-fails unless all three modes produce \
         bit-identical welfare/rounds/bids and the probed overhead stays within 5% \
         at the 10^4-request sweep — observability can never silently tax the hot \
         path. Regenerate with `cargo run --release -p p2p-bench --bin flat_bench \
         -- --obs` (add --quick for CI sizes, which skips the gate); expect \
         run-to-run timing noise, the welfare fields are exact.\",\n  \
         \"command\": \"cargo run --release -p p2p-bench --bin flat_bench -- \
         --obs{}\",\n  \"epsilon\": {},\n  \"max_overhead_pct\": {},\n  \
         \"machine_cores\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if quick { " --quick" } else { "" },
        EPSILON,
        MAX_OVERHEAD_PCT,
        p2p_core::available_cores(),
        rows.join(",\n"),
    );
    std::fs::write(&out_path, json).map_err(|e| {
        p2p_types::P2pError::invalid_config("out", format!("cannot write `{out_path}`: {e}"))
    })?;
    println!("\nwrote {out_path}");
    Ok(())
}

fn main() -> ExitCode {
    let result = Args::from_env(&["out"], &["quick", "obs"]).and_then(|args| {
        if args.has("obs") {
            run_obs(&args)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flat_bench: {e}");
            eprintln!("usage: flat_bench [--quick] [--obs] [--out PATH]");
            ExitCode::FAILURE
        }
    }
}
