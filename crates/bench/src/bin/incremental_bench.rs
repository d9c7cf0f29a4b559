//! EXP-I — cold vs incremental vs warm-started slot pipelines.
//!
//! Measures per-slot latency of the three slot-problem pipelines across
//! swarm sizes, verifies the incremental path's bit-equality with the cold
//! oracle on every built-in scenario, reports the slot-to-slot instance
//! overlap that makes the cache pay (via the `p2p-core` diff/patch API),
//! and records everything in `BENCH_incremental.json` at the repo root.
//!
//! Usage:
//!   `incremental [--quick] [--slots N] [--out PATH]`
//!
//! `--quick` shrinks swarm sizes and slot counts for CI smoke runs; the
//! committed JSON comes from a full run.

use p2p_bench::Args;
use p2p_core::InstancePatch;
use p2p_scenario::{builtin, run_scenario, scheduler_by_name, BUILTIN_NAMES};
use p2p_sched::{AuctionScheduler, ChunkScheduler};
use p2p_streaming::{SeedPlacement, SlotBuild, System, SystemConfig};
use p2p_types::{Result, SimDuration};
use std::process::ExitCode;
use std::time::Instant;

/// One pipeline's timings over a swarm run.
struct PipelineRun {
    mode: &'static str,
    prepare_ns: u128,
    schedule_ns: u128,
    slots: u64,
    welfare_bits: Vec<u64>,
    total_welfare: f64,
}

impl PipelineRun {
    fn per_slot_ns(&self) -> u128 {
        (self.prepare_ns + self.schedule_ns) / u128::from(self.slots.max(1))
    }

    fn prepare_per_slot_ns(&self) -> u128 {
        self.prepare_ns / u128::from(self.slots.max(1))
    }
}

/// A flash-crowd swarm mid-startup: every watcher joins early and buffers
/// against scarce seed capacity for the whole measured horizon. This is
/// the regime the incremental cache and price warm-starting target — the
/// prefetch windows are stable (playback has not started), most requests
/// outlive the slot because capacity, not interest, is the bottleneck, and
/// the same providers stay contended so carried prices remain supported.
fn swarm_config(seed: u64, slot_build: SlotBuild) -> SystemConfig {
    let mut config = SystemConfig::small_test().with_seed(seed).with_slot_build(slot_build);
    config.streaming.video_size_bytes = 8_000_000; // 100 s of playback
    config.seeds = SeedPlacement::PerVideoTotal(1);
    config.startup_delay = SimDuration::from_secs(90);
    config.static_stagger = SimDuration::from_secs(5);
    config
}

fn run_pipeline(
    mode: &'static str,
    slot_build: SlotBuild,
    warm: bool,
    peers: usize,
    slots: u64,
) -> Result<PipelineRun> {
    // The system's built-in scheduler is bypassed: the slot loop is driven
    // manually so prepare and schedule can be timed separately.
    let mut sys = System::new(swarm_config(77, slot_build), Box::new(AuctionScheduler::paper()))?;
    let mut scheduler: Box<dyn ChunkScheduler> = if warm {
        Box::new(AuctionScheduler::paper().warm_start())
    } else {
        Box::new(AuctionScheduler::paper())
    };
    sys.add_static_peers(peers)?;
    let mut run = PipelineRun {
        mode,
        prepare_ns: 0,
        schedule_ns: 0,
        slots,
        welfare_bits: Vec::with_capacity(slots as usize),
        total_welfare: 0.0,
    };
    for _ in 0..slots {
        let t0 = Instant::now();
        let problem = sys.prepare_slot()?;
        let t1 = Instant::now();
        let schedule = scheduler.schedule(&problem)?;
        let t2 = Instant::now();
        let metrics = sys.complete_slot(&problem, &schedule)?;
        run.prepare_ns += t1.duration_since(t0).as_nanos();
        run.schedule_ns += t2.duration_since(t1).as_nanos();
        run.welfare_bits.push(metrics.welfare.to_bits());
        run.total_welfare += metrics.welfare;
    }
    Ok(run)
}

/// Mean carried-request fraction between consecutive cold instances — the
/// slot-to-slot overlap the incremental cache exploits.
fn instance_overlap(peers: usize, slots: u64) -> Result<f64> {
    let mut sys =
        System::new(swarm_config(77, SlotBuild::Cold), Box::new(AuctionScheduler::paper()))?;
    let mut scheduler = AuctionScheduler::paper();
    sys.add_static_peers(peers)?;
    let mut prev = None;
    let mut carried = 0.0;
    let mut measured = 0u32;
    for _ in 0..slots {
        let problem = sys.prepare_slot()?;
        if let Some(prev) = &prev {
            let patch = InstancePatch::between(prev, &problem.instance);
            carried += patch.carried_fraction();
            measured += 1;
        }
        let schedule = scheduler.schedule(&problem)?;
        prev = Some(problem.instance.clone());
        sys.complete_slot(&problem, &schedule)?;
    }
    Ok(if measured == 0 { 0.0 } else { carried / f64::from(measured) })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run(args: &Args) -> Result<()> {
    let quick = args.has("quick");
    let slots = args.get_u64("slots", if quick { 8 } else { 14 })?.max(1);
    let sizes: &[usize] = if quick { &[40, 120] } else { &[60, 150, 400] };
    let out_path = args.get_str("out", "BENCH_incremental.json");

    let mut swarm_json = Vec::new();
    println!("per-slot latency, contention-heavy static swarm ({slots} slots):");
    println!(
        "{:<8} {:<18} {:>14} {:>14} {:>14} {:>10}",
        "peers", "mode", "prepare/slot", "schedule/slot", "total/slot", "speedup"
    );
    for &peers in sizes {
        let cold = run_pipeline("cold", SlotBuild::Cold, false, peers, slots)?;
        let incr = run_pipeline("incremental", SlotBuild::Incremental, false, peers, slots)?;
        let warm = run_pipeline("incremental_warm", SlotBuild::Incremental, true, peers, slots)?;
        if cold.welfare_bits != incr.welfare_bits {
            return Err(p2p_types::P2pError::MalformedInstance(format!(
                "incremental diverged from cold on the {peers}-peer swarm"
            )));
        }
        let overlap = instance_overlap(peers, slots)?;
        for run in [&cold, &incr, &warm] {
            let speedup = cold.per_slot_ns() as f64 / run.per_slot_ns().max(1) as f64;
            println!(
                "{:<8} {:<18} {:>12}ns {:>12}ns {:>12}ns {:>9.2}x",
                peers,
                run.mode,
                run.prepare_per_slot_ns(),
                (run.schedule_ns / u128::from(slots)),
                run.per_slot_ns(),
                speedup,
            );
            swarm_json.push(format!(
                "    {{\n      \"peers\": {},\n      \"mode\": \"{}\",\n      \
                 \"prepare_ns_per_slot\": {},\n      \"schedule_ns_per_slot\": {},\n      \
                 \"total_ns_per_slot\": {},\n      \"speedup_vs_cold\": {:.3},\n      \
                 \"total_welfare\": {:.3},\n      \"mean_carried_request_fraction\": {:.4}\n    }}",
                peers,
                run.mode,
                run.prepare_per_slot_ns(),
                run.schedule_ns / u128::from(slots),
                run.per_slot_ns(),
                speedup,
                run.total_welfare,
                overlap,
            ));
        }
        println!("         (slot-to-slot carried-request fraction: {overlap:.3})");
    }

    // Built-in scenarios: the incremental path must reproduce the cold
    // sweep exactly, for every event timeline.
    let mut scenario_json = Vec::new();
    println!("\nbuilt-in scenarios, cold vs incremental sweeps (auction scheduler):");
    for name in BUILTIN_NAMES {
        let base = builtin(name)?;
        let base = if quick { base.quick(8) } else { base };
        let mut timings = Vec::new();
        let mut welfare = Vec::new();
        for mode in [SlotBuild::Cold, SlotBuild::Incremental] {
            let scenario = base.clone().with_slot_build(mode);
            let t0 = Instant::now();
            let report = run_scenario(
                &scenario,
                vec![
                    scheduler_by_name("auction", scenario.seed)?,
                    scheduler_by_name("auction_warm", scenario.seed)?,
                ],
            )?;
            timings.push(t0.elapsed().as_nanos());
            welfare.push(
                report.runs[0]
                    .recorder
                    .slots()
                    .iter()
                    .map(|(_, m)| m.welfare.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        if welfare[0] != welfare[1] {
            return Err(p2p_types::P2pError::MalformedInstance(format!(
                "incremental diverged from cold on scenario `{name}`"
            )));
        }
        println!(
            "  {:<16} cold {:>10}ns  incremental {:>10}ns  (identical welfare series: yes)",
            name, timings[0], timings[1]
        );
        scenario_json.push(format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"cold_sweep_ns\": {},\n      \
             \"incremental_sweep_ns\": {},\n      \"identical_welfare_series\": true\n    }}",
            json_escape(name),
            timings[0],
            timings[1]
        ));
    }

    let json = format!(
        "{{\n  \"note\": \"Cold vs incremental vs warm-started slot pipelines (ISSUE 3). \
         Regenerate with `cargo run --release -p p2p-bench --bin incremental_bench` \
         (add --quick for the CI smoke sizes); expect run-to-run timing noise, the \
         equality fields are exact.\",\n  \"command\": \"cargo run --release -p p2p-bench \
         --bin incremental_bench{}\",\n  \"slots_per_swarm\": {},\n  \"swarms\": [\n{}\n  ],\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        if quick { " -- --quick" } else { "" },
        slots,
        swarm_json.join(",\n"),
        scenario_json.join(",\n"),
    );
    std::fs::write(&out_path, json).map_err(|e| {
        p2p_types::P2pError::invalid_config("out", format!("cannot write `{out_path}`: {e}"))
    })?;
    println!("\nwrote {out_path}");
    Ok(())
}

fn main() -> ExitCode {
    match run(&Args::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("incremental_bench: {e}");
            eprintln!("usage: incremental_bench [--quick] [--slots N] [--out PATH]");
            ExitCode::FAILURE
        }
    }
}
