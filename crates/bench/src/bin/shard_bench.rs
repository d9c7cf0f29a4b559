//! EXP-P — cold `SyncAuction` vs the sharded parallel engine on large
//! slot-scale instances.
//!
//! Measures per-slot auction latency on 10³–10⁴-request welfare instances
//! for the sequential Gauss–Seidel engine and [`p2p_core::ShardedAuction`]
//! at shard counts 1/2/4/8, and checks every outcome against the Theorem 1
//! `n·ε` certificate plus the sequential engine's welfare (within the
//! Bertsekas bound). Results land in `BENCH_parallel.json` at the repo
//! root. (Warm-start composition is covered by the engine tests and the
//! sharded proptest, not benchmarked here.)
//!
//! Usage:
//!   `shard_bench [--quick] [--out PATH]`
//!
//! `--quick` shrinks instance sizes for CI smoke runs; the committed JSON
//! comes from a full run. Note on reading the numbers: a shard count ≥ 2
//! selects the batched engine (per-slice merges + retirement pruning) and
//! also fixes its merge batching, so each row is deterministic on every
//! machine; worker threads are `min(shards, cores)`, so on a single-core
//! machine the speedup shown is purely algorithmic (retirement + batching)
//! and multi-core hardware adds parallel headroom on top.

use p2p_bench::Args;
use p2p_core::{
    verify_optimality, AuctionConfig, AuctionOutcome, ShardCount, ShardedAuction, SyncAuction,
    WelfareInstance,
};
use p2p_types::Result;
use std::process::ExitCode;
use std::time::Instant;

/// The ε every engine runs with: large instances carry structural near-ties,
/// so the deployable ε > 0 configuration is the meaningful comparison.
const EPSILON: f64 = 0.01;

/// One engine's timing on one instance.
struct EngineRun {
    label: String,
    shards: Option<usize>,
    wall_ns: u128,
    rounds: u64,
    bids: u64,
    welfare: f64,
    certified: bool,
}

fn check(instance: &WelfareInstance, outcome: &AuctionOutcome) -> bool {
    let tol = EPSILON * (instance.request_count() as f64 + 1.0);
    verify_optimality(instance, &outcome.assignment, &outcome.duals, tol).is_optimal()
}

fn time_run(
    label: impl Into<String>,
    shards: Option<usize>,
    instance: &WelfareInstance,
    mut run: impl FnMut() -> Result<AuctionOutcome>,
) -> Result<EngineRun> {
    // One untimed warmup pass (cache/allocator state), then best of four
    // timed passes — deterministic engines, so only the timing varies.
    run()?;
    let mut wall_ns = u128::MAX;
    let mut outcome = None;
    for _ in 0..4 {
        let t0 = Instant::now();
        let o = run()?;
        wall_ns = wall_ns.min(t0.elapsed().as_nanos());
        outcome = Some(o);
    }
    let outcome = outcome.expect("two timed passes ran");
    Ok(EngineRun {
        label: label.into(),
        shards,
        wall_ns,
        rounds: outcome.rounds,
        bids: outcome.bids_submitted,
        welfare: outcome.assignment.welfare(instance).get(),
        certified: check(instance, &outcome),
    })
}

/// A flash-crowd-shaped slot: total upload capacity ≈ 28% of demand (the
/// seed-starved regime of the paper's Sec. V scenarios), deep per-provider
/// allocation sets (up to 8 units, so evictions genuinely churn), and ~24
/// candidate edges per request as in a 30-neighbor swarm. Most of the crowd
/// ends up priced out — exactly where the sharded engine's retirement
/// pruning pays and the synchronous sweep re-scans the losers every round.
fn bench_instance(seed: u64, requests: usize) -> WelfareInstance {
    let providers = (requests / 16).max(4);
    p2p_bench::instances::random_instance(seed, providers, requests, 8, 24)
}

fn run(args: &Args) -> Result<()> {
    let quick = args.has("quick");
    let sizes: &[usize] = if quick { &[400, 1_000] } else { &[1_000, 3_000, 10_000] };
    let shard_counts: [usize; 4] = [1, 2, 4, 8];
    let out_path = args.get_str("out", "BENCH_parallel.json");

    let mut rows = Vec::new();
    println!("cold per-slot auction latency, ε = {EPSILON} (sync = Gauss–Seidel sweep):");
    println!(
        "{:<10} {:<16} {:>12} {:>8} {:>10} {:>12} {:>9} {:>10}",
        "requests", "engine", "wall", "rounds", "bids", "welfare", "speedup", "certified"
    );
    for &requests in sizes {
        let instance = bench_instance(0xC0FFEE ^ requests as u64, requests);
        let sync_engine = SyncAuction::new(AuctionConfig::with_epsilon(EPSILON));
        let mut runs = vec![time_run("sync", None, &instance, || sync_engine.run(&instance))?];
        for &n in &shard_counts {
            let engine =
                ShardedAuction::new(AuctionConfig::with_epsilon(EPSILON), ShardCount::Fixed(n));
            runs.push(time_run(format!("sharded/{n}"), Some(n), &instance, || {
                engine.run(&instance)
            })?);
        }
        let sync_welfare = runs[0].welfare;
        let sync_ns = runs[0].wall_ns;
        let bound = EPSILON * 2.0 * instance.request_count() as f64 + 1e-9;
        for r in &runs {
            // Both engines are within n·ε of optimal, so they are within
            // 2·n·ε of each other; a larger gap means a real defect.
            if (r.welfare - sync_welfare).abs() > bound {
                return Err(p2p_types::P2pError::MalformedInstance(format!(
                    "{} welfare {} strayed from sync welfare {sync_welfare} on the \
                     {requests}-request instance",
                    r.label, r.welfare
                )));
            }
            if !r.certified {
                return Err(p2p_types::P2pError::MalformedInstance(format!(
                    "{} lost the optimality certificate on the {requests}-request instance",
                    r.label
                )));
            }
            let speedup = sync_ns as f64 / r.wall_ns.max(1) as f64;
            println!(
                "{:<10} {:<16} {:>10}µs {:>8} {:>10} {:>12.2} {:>8.2}x {:>10}",
                requests,
                r.label,
                r.wall_ns / 1_000,
                r.rounds,
                r.bids,
                r.welfare,
                speedup,
                "yes",
            );
            rows.push(format!(
                "    {{\n      \"requests\": {},\n      \"providers\": {},\n      \
                 \"engine\": \"{}\",\n      \"shards\": {},\n      \"wall_ns\": {},\n      \
                 \"rounds\": {},\n      \"bids\": {},\n      \"welfare\": {:.3},\n      \
                 \"speedup_vs_sync\": {:.3},\n      \"certified\": true\n    }}",
                requests,
                instance.provider_count(),
                r.label,
                r.shards.map_or("null".to_string(), |s| s.to_string()),
                r.wall_ns,
                r.rounds,
                r.bids,
                r.welfare,
                speedup,
            ));
        }
    }

    let cores = p2p_core::available_cores();
    let json = format!(
        "{{\n  \"note\": \"Cold SyncAuction (Gauss-Seidel sweep) vs the sharded parallel \
         engine (per-slice batched merges, same-round retry passes, permanent \
         retirement of priced-out requests) on flash-crowd-shaped slot instances \
         (ISSUE 4). Each shards=N row is deterministic on every machine: worker \
         threads = min(shards, cores) never change results, so on this 1-core \
         machine the speedup is purely algorithmic and multi-core hardware adds \
         parallel headroom on top. Regenerate with `cargo run --release -p \
         p2p-bench --bin shard_bench` (add --quick for CI sizes); expect \
         run-to-run timing noise, the certified/welfare fields are \
         exact.\",\n  \"command\": \"cargo run --release -p p2p-bench --bin \
         shard_bench{}\",\n  \"epsilon\": {},\n  \"machine_cores\": {},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
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

fn main() -> ExitCode {
    match Args::from_env(&["out"], &["quick"]).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard_bench: {e}");
            eprintln!("usage: shard_bench [--quick] [--out PATH]");
            ExitCode::FAILURE
        }
    }
}
