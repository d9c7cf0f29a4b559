//! EXP-S — the scenario engine CLI: sweep schedulers over a declarative
//! scenario with mid-run topology/workload events and print side-by-side
//! metrics.
//!
//! Usage:
//!   `scenarios --list`
//!     enumerate the built-in scenarios;
//!   `scenarios --scenario flash_crowd [--quick] [--seed S] [--schedulers auction_flat,locality]
//!              [--shards auto|N]`
//!     run a built-in scenario;
//!   `scenarios --scenario flash_crowd --backend sim [--net ideal|lan|lossy]`
//!     run on the virtual-time swarm backend: the default comparison pair
//!     becomes `auction_sim,auction_flat` (DES swarm vs in-process engine)
//!     and `--net` picks the seeded fault-injection preset;
//!   `scenarios --scenario flash_crowd --backend net`
//!     run on the networked runtime (tracker + peer actors over loopback
//!     TCP): the default pair becomes `auction_net,auction_flat`, whose
//!     summaries must be bit-identical;
//!   `scenarios --file scenarios/flash_crowd.toml`
//!     run an external spec file (see `p2p_scenario::spec` for the format,
//!     including `include = "base.toml"` composition);
//!   `scenarios --scenario isp_outage --show`
//!     print a built-in's spec text (a ready-made template for `--file`);
//!   `scenarios --scenario flash_crowd --metrics-out DIR`
//!     additionally run with engine probes on and write the observability
//!     bundle (structured `RunReport` JSON, per-slot CSV, per-event-window
//!     series CSVs, ascii plot) under `DIR`.
//!
//! Output is deterministic: the same seed and scenario produce
//! byte-identical metric summaries across runs (wall-clock phase timings
//! appear only inside the `--metrics-out` run reports). An unknown or
//! repeated flag, a flag without its value, a value after a switch
//! (`--list`, `--show`, `--quick`), a stray argument or an unknown
//! scenario name is an error.

use p2p_bench::{save_csv, Args};
use p2p_metrics::ascii_plot;
use p2p_scenario::{
    builtin, builtin_spec, builtins, event_windows, parse_scenario_file, run_scenario_probed,
    scheduler_for, Scenario, ScenarioReport, SCHEDULER_NAMES,
};
use p2p_sched::ChunkScheduler;
use p2p_types::{P2pError, Result};
use std::path::Path;
use std::process::ExitCode;

/// Every flag the CLI reads that takes a value.
const VALUED: [&str; 8] =
    ["scenario", "file", "seed", "schedulers", "shards", "backend", "net", "metrics-out"];

/// Every flag the CLI reads that takes none.
const SWITCHES: [&str; 3] = ["list", "show", "quick"];

fn load_scenario(args: &Args) -> Result<Scenario> {
    if let Some(path) = args.get_opt_str("file") {
        // File loading resolves `include = "base.toml"` chains relative to
        // the spec's own directory.
        return parse_scenario_file(&path);
    }
    builtin(&args.get_str("scenario", "flash_crowd"))
}

fn run(args: &Args) -> Result<()> {
    if args.has("list") {
        println!("built-in scenarios:");
        for s in builtins() {
            println!("  {:<16} {:>3} slots  {}", s.name, s.slots, s.description);
        }
        println!("\nbackends (--backend):");
        println!("  flat     in-process engines (default)");
        println!("  sim      virtual-time DES swarm; --net picks the fault preset");
        println!("  net      tracker + peer actors over loopback TCP sockets");
        println!("\nnetwork presets for --backend sim (--net): ideal, lan, lossy");
        println!("\nschedulers (--schedulers, comma-separated):");
        for name in SCHEDULER_NAMES {
            println!("  {name}");
        }
        println!("\nrun one with `--scenario <name>`, dump its spec with `--show`,");
        println!("or load your own file with `--file <path>`.");
        return Ok(());
    }
    if args.has("show") {
        let name = args.get_str("scenario", "flash_crowd");
        builtin(&name)?; // an unknown name fails here, listing the built-ins
        print!("{}", builtin_spec(&name).expect("every built-in has a spec"));
        return Ok(());
    }

    let mut scenario = load_scenario(args)?;
    let seed = args.get_u64("seed", scenario.seed)?;
    scenario = scenario.with_seed(seed);
    if args.has("quick") {
        scenario = scenario.quick(8);
    }
    if let Some(shards) = args.get_opt_str("shards") {
        scenario = scenario.with_shards(p2p_streaming::ShardCount::from_name(&shards)?);
    }
    let backend = args.get_str("backend", "flat");
    if !matches!(backend.as_str(), "flat" | "sim" | "net") {
        return Err(P2pError::invalid_config(
            "backend",
            format!("unknown backend `{backend}` (known: flat, sim, net)"),
        ));
    }
    if let Some(net) = args.get_opt_str("net") {
        scenario = scenario.with_net(net);
    }
    scenario.validate()?;

    // The comparison everyone wants first: the registry's default auction
    // execution (`auction_flat` since ISSUE 6) against the locality
    // heuristic baseline. On the sim backend the interesting pair is the
    // virtual-time swarm against the in-process engine it must match.
    let default_pair = match backend.as_str() {
        "sim" => format!("auction_sim,{}", p2p_scenario::DEFAULT_SCHEDULER),
        "net" => format!("auction_net,{}", p2p_scenario::DEFAULT_SCHEDULER),
        _ => format!("{},locality", p2p_scenario::DEFAULT_SCHEDULER),
    };
    let names = args.get_str("schedulers", &default_pair);
    let schedulers: Vec<Box<dyn ChunkScheduler>> =
        names.split(',').map(|n| scheduler_for(&scenario, n.trim())).collect::<Result<_>>()?;
    if schedulers.len() < 2 {
        return Err(p2p_types::P2pError::invalid_config(
            "schedulers",
            "a comparison needs at least two (e.g. --schedulers auction_flat,locality)",
        ));
    }

    let metrics_out = args.get_opt_str("metrics-out");
    let report = run_scenario_probed(&scenario, schedulers, metrics_out.is_some())?;
    print!("{}", report.summary_table());

    let welfare: Vec<_> = report
        .runs
        .iter()
        .map(|r| r.recorder.welfare_series().renamed(&r.summary.scheduler))
        .collect();
    let refs: Vec<_> = welfare.iter().collect();
    println!("\nsocial welfare vs time");
    println!("{}", ascii_plot(&refs, 90, 14));

    for run in &report.runs {
        let stem = format!("scenario_{}_{}", scenario.name, run.summary.scheduler);
        let series = [
            run.recorder.welfare_series(),
            run.recorder.inter_isp_series(),
            run.recorder.miss_rate_series(),
            run.recorder.population_series(),
        ];
        let refs: Vec<_> = series.iter().collect();
        let path = save_csv(&stem, "time_s", &refs);
        println!("wrote {}", path.display());
    }

    if let Some(dir) = metrics_out {
        write_metrics_bundle(Path::new(&dir), &scenario, &report)?;
    }
    Ok(())
}

fn write_file(path: &Path, contents: &[u8]) -> Result<()> {
    std::fs::write(path, contents)
        .map_err(|e| P2pError::invalid_config("metrics-out", format!("{}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Writes the probed sweep's observability bundle under `dir`: per run one
/// structured `RunReport` JSON, the per-slot counter CSV, one
/// recorder-series CSV per before/during/after event window, and an ascii
/// welfare plot.
fn write_metrics_bundle(dir: &Path, scenario: &Scenario, report: &ScenarioReport) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| P2pError::invalid_config("metrics-out", format!("{}: {e}", dir.display())))?;
    let windows = event_windows(scenario);
    for run in &report.runs {
        let Some(rr) = &run.report else { continue };
        let stem = format!("{}_{}", scenario.name, run.summary.scheduler);
        write_file(&dir.join(format!("report_{stem}.json")), rr.to_json().as_bytes())?;
        write_file(&dir.join(format!("slots_{stem}.csv")), rr.slot_csv().as_bytes())?;
        for (name, lo, hi) in &windows {
            let lo_t = *lo as f64 * rr.slot_secs;
            let hi_t = *hi as f64 * rr.slot_secs;
            let series = [
                run.recorder.welfare_series().window(lo_t, hi_t),
                run.recorder.inter_isp_series().window(lo_t, hi_t),
                run.recorder.miss_rate_series().window(lo_t, hi_t),
                run.recorder.population_series().window(lo_t, hi_t),
            ];
            let refs: Vec<_> = series.iter().collect();
            let mut buf = Vec::new();
            p2p_metrics::write_csv(&mut buf, "time_s", &refs)
                .map_err(|e| P2pError::invalid_config("metrics-out", e.to_string()))?;
            write_file(&dir.join(format!("window_{name}_{stem}.csv")), &buf)?;
        }
        let welfare = [run.recorder.welfare_series()];
        let refs: Vec<_> = welfare.iter().collect();
        write_file(&dir.join(format!("plot_{stem}.txt")), ascii_plot(&refs, 90, 14).as_bytes())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match Args::from_env(&VALUED, &SWITCHES).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenarios: {e}");
            eprintln!("usage: scenarios [--list] [--show] [--scenario NAME | --file PATH]");
            eprintln!("                 [--quick] [--seed S] [--schedulers a,b,...]");
            eprintln!("                 [--shards auto|N] [--backend flat|sim|net]");
            eprintln!("                 [--net ideal|lan|lossy] [--metrics-out DIR]");
            ExitCode::FAILURE
        }
    }
}
