//! Sweeps schedulers over a scenario and emits side-by-side metrics.

use crate::timeline::{Scenario, TimedEvent};
use p2p_metrics::{RunReport, SlotRecorder};
use p2p_sched::{
    AuctionScheduler, ChunkScheduler, ExactScheduler, FlatAuctionScheduler, GreedyScheduler,
    NetAuctionScheduler, NetworkModel, RandomScheduler, ShardedAuctionScheduler,
    SimAuctionScheduler, SimpleLocalityScheduler,
};
use p2p_streaming::{ClockMode, ShardCount, System, WorkloadTrace};
use p2p_types::{P2pError, Result};

/// Scheduler names accepted by [`scheduler_by_name`].
pub const SCHEDULER_NAMES: [&str; 14] = [
    "auction",
    "auction_warm",
    "auction_sharded",
    "auction_sharded_warm",
    "auction_flat",
    "auction_flat_warm",
    "auction_sim",
    "auction_sim_warm",
    "auction_net",
    "auction_net_warm",
    "locality",
    "random",
    "greedy",
    "exact",
];

/// The scheduler the registry hands out for the name `default`: the flat
/// CSR auction engine. With its lane bid kernel it is the fastest certified
/// execution of the paper's auction at every measured slot size, and its
/// outcomes are bit-identical to the sequential engine's, so choosing it
/// changes latency only.
pub const DEFAULT_SCHEDULER: &str = "auction_flat";

/// Minimum bid increment the registry gives the sim schedulers on faulty
/// network presets. Under an ideal network they run the paper's ε = 0 rule
/// (and are bit-identical to the in-process engines); with drops and
/// reordering in play, a positive ε bounds the number of rebids a stale
/// price can provoke, keeping lossy runs finite. The resulting welfare
/// carries the usual Theorem 1 `n·ε` certificate.
pub const SIM_FAULTY_EPSILON: f64 = 0.01;

/// Peer-actor count the registry gives the networked schedulers
/// (`auction_net`): enough to exercise the bidder partition without the
/// per-slot socket setup dominating small scenario runs.
pub const NET_DEFAULT_PEERS: usize = 3;

/// Builds a scheduler from its CLI name (`seed` parameterizes the
/// stochastic ones; the sharded auctions follow the machine's cores and the
/// sim schedulers run an ideal network — use [`scheduler_for`] to take the
/// shard count and network preset from a scenario).
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] for unknown names.
pub fn scheduler_by_name(name: &str, seed: u64) -> Result<Box<dyn ChunkScheduler>> {
    build(name, seed, ShardCount::Auto, NetworkModel::ideal())
}

/// Builds a scheduler configured by a scenario: its seed, its `shards`
/// knob (spec key `shards`, CLI `--shards`) for the sharded auction
/// schedulers, and its `net` preset (spec key `net`, CLI `--net`) for the
/// virtual-time sim schedulers. The other schedulers ignore the knobs they
/// have no use for.
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] for unknown names, an invalid shard
/// count or an unknown network preset.
pub fn scheduler_for(scenario: &Scenario, name: &str) -> Result<Box<dyn ChunkScheduler>> {
    build(name, scenario.seed, scenario.shards, scenario_net(scenario)?)
}

/// Resolves a scenario's `net` preset name into a [`NetworkModel`].
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] for unknown preset names.
pub fn scenario_net(scenario: &Scenario) -> Result<NetworkModel> {
    NetworkModel::preset(&scenario.net).ok_or_else(|| {
        P2pError::invalid_config(
            "net",
            format!("unknown network preset `{}` (known: ideal, lan, lossy)", scenario.net),
        )
    })
}

/// The registry behind [`scheduler_by_name`] and [`scheduler_for`]. Every
/// message between the sim schedulers' simulated peers draws its latency
/// and fault fate from `net`, seeded per slot from `seed`.
fn build(
    name: &str,
    seed: u64,
    shards: ShardCount,
    net: NetworkModel,
) -> Result<Box<dyn ChunkScheduler>> {
    shards.validate()?;
    // `default` is a stable alias: callers that don't care which execution
    // of the auction they get follow the registry's promotion decisions.
    let name = if name == "default" { DEFAULT_SCHEDULER } else { name };
    let sim = |warm: bool| {
        let mut s = if net.is_ideal() {
            SimAuctionScheduler::paper(net.clone())
        } else {
            SimAuctionScheduler::with_epsilon(SIM_FAULTY_EPSILON, net.clone())
        }
        .with_seed(seed);
        if warm {
            s = s.warm_start();
        }
        s
    };
    match name {
        "auction" => Ok(Box::new(AuctionScheduler::paper())),
        "auction_warm" => Ok(Box::new(AuctionScheduler::paper().warm_start())),
        "auction_sharded" => Ok(Box::new(ShardedAuctionScheduler::paper(shards))),
        "auction_sharded_warm" => Ok(Box::new(ShardedAuctionScheduler::paper(shards).warm_start())),
        "auction_flat" => Ok(Box::new(FlatAuctionScheduler::paper(shards))),
        "auction_flat_warm" => Ok(Box::new(FlatAuctionScheduler::paper(shards).warm_start())),
        "auction_sim" => Ok(Box::new(sim(false))),
        "auction_sim_warm" => Ok(Box::new(sim(true))),
        "auction_net" => Ok(Box::new(NetAuctionScheduler::paper(NET_DEFAULT_PEERS))),
        "auction_net_warm" => {
            Ok(Box::new(NetAuctionScheduler::paper(NET_DEFAULT_PEERS).warm_start()))
        }
        "locality" | "simple_locality" => Ok(Box::new(SimpleLocalityScheduler::new())),
        "random" => Ok(Box::new(RandomScheduler::new(seed ^ 0x5EED))),
        "greedy" => Ok(Box::new(GreedyScheduler::new())),
        "exact" => Ok(Box::new(ExactScheduler::new())),
        other => Err(P2pError::invalid_config(
            "scheduler",
            format!("unknown scheduler `{other}` (known: {})", SCHEDULER_NAMES.join(", ")),
        )),
    }
}

/// Whole-run aggregates of one scheduler's pass over a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Scheduler name.
    pub scheduler: String,
    /// Total social welfare over the run.
    pub total_welfare: f64,
    /// Mean welfare per slot.
    pub mean_welfare: f64,
    /// Total scheduled transfers.
    pub transfers: u64,
    /// Share of transfers crossing an ISP boundary.
    pub inter_isp_fraction: f64,
    /// Share of due chunks that missed their deadline.
    pub miss_rate: f64,
    /// Peak simultaneous (non-seed) population.
    pub peak_population: u64,
}

impl RunSummary {
    /// Aggregates a recorder into whole-run numbers.
    pub fn from_recorder(scheduler: impl Into<String>, recorder: &SlotRecorder) -> Self {
        let slots = recorder.slots();
        let total_welfare: f64 = slots.iter().map(|(_, m)| m.welfare).sum();
        let transfers: u64 = slots.iter().map(|(_, m)| m.transfers).sum();
        let inter: u64 = slots.iter().map(|(_, m)| m.inter_isp_transfers).sum();
        let due: u64 = slots.iter().map(|(_, m)| m.due_chunks).sum();
        let missed: u64 = slots.iter().map(|(_, m)| m.missed_chunks).sum();
        RunSummary {
            scheduler: scheduler.into(),
            total_welfare,
            mean_welfare: if slots.is_empty() { 0.0 } else { total_welfare / slots.len() as f64 },
            transfers,
            inter_isp_fraction: if transfers == 0 { 0.0 } else { inter as f64 / transfers as f64 },
            miss_rate: if due == 0 { 0.0 } else { missed as f64 / due as f64 },
            peak_population: slots.iter().map(|(_, m)| m.online_peers).max().unwrap_or(0),
        }
    }

    /// One fixed-width table row (deterministic formatting).
    pub fn table_row(&self) -> String {
        format!(
            "{:<16} {:>12.2} {:>9.2} {:>10} {:>9.2}% {:>9.2}% {:>9}",
            self.scheduler,
            self.total_welfare,
            self.mean_welfare,
            self.transfers,
            100.0 * self.inter_isp_fraction,
            100.0 * self.miss_rate,
            self.peak_population,
        )
    }
}

/// One scheduler's full pass over the scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Whole-run aggregates.
    pub summary: RunSummary,
    /// Per-slot metrics (for CSV export and plots).
    pub recorder: SlotRecorder,
    /// Structured run report with per-slot phase timings, engine probe
    /// counters and event-window aggregates (`None` unless the run was
    /// probed — see [`run_scenario_probed`]). The deterministic summary
    /// tables never read from it: wall-clock timings live only here.
    pub report: Option<RunReport>,
}

/// The outcome of sweeping several schedulers over one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that ran (post `--quick` compression, if any).
    pub scenario: Scenario,
    /// One run per scheduler, in sweep order.
    pub runs: Vec<ScenarioRun>,
}

impl ScenarioReport {
    /// A deterministic side-by-side comparison: header, timeline, one row
    /// per scheduler. The same seed and scenario produce byte-identical
    /// output across runs.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario `{}` — {} (profile {}, seed {}, {} slots, {} initial peers{})\n",
            self.scenario.name,
            self.scenario.description,
            self.scenario.profile.name(),
            self.scenario.seed,
            self.scenario.slots,
            self.scenario.initial_peers,
            if self.scenario.churn { ", churn on" } else { "" },
        ));
        out.push_str(&self.scenario.timeline_description());
        out.push_str(&format!(
            "{:<16} {:>12} {:>9} {:>10} {:>10} {:>10} {:>9}\n",
            "scheduler", "welfare", "w/slot", "transfers", "inter-ISP", "miss-rate", "peak-pop",
        ));
        for run in &self.runs {
            out.push_str(&run.summary.table_row());
            out.push('\n');
        }
        out
    }
}

/// Fires every event due at `slot`, in timeline order.
fn apply_due_events(events: &[&TimedEvent], slot: u64, sys: &mut System) -> Result<()> {
    for e in events.iter().filter(|e| e.at_slot == slot) {
        e.event.apply(sys)?;
    }
    Ok(())
}

/// How one run obtains its workload (see [`run_scenario`]'s trace cache).
enum WorkloadHandling<'a> {
    /// Generate live from the scenario seed (the pre-cache behavior).
    Generate,
    /// Generate live and record the admissions into a trace.
    Record,
    /// Replay a previously recorded trace.
    Replay(&'a WorkloadTrace),
}

/// Event-relative aggregation windows over `[0, slots)`: `before` /
/// `during` / `after` the scenario's timeline, or a single `all` window
/// when the scenario has no timed events. Empty ranges (e.g. `before` when
/// the first event fires at slot 0) are dropped by the aggregation.
pub fn event_windows(scenario: &Scenario) -> Vec<(String, u64, u64)> {
    let last_slot = scenario.slots.saturating_sub(1);
    let bounds = scenario
        .events
        .iter()
        .map(|e| e.at_slot.min(last_slot))
        .fold(None, |acc: Option<(u64, u64)>, s| {
            Some(acc.map_or((s, s), |(lo, hi)| (lo.min(s), hi.max(s))))
        });
    match bounds {
        None => vec![("all".into(), 0, last_slot)],
        Some((first, last)) => {
            let mut windows = Vec::new();
            if first > 0 {
                windows.push(("before".into(), 0, first - 1));
            }
            windows.push(("during".into(), first, last));
            if last < last_slot {
                windows.push(("after".into(), last + 1, last_slot));
            }
            windows
        }
    }
}

fn run_one_with(
    scenario: &Scenario,
    scheduler: Box<dyn ChunkScheduler>,
    workload: WorkloadHandling<'_>,
    probes: bool,
) -> Result<(ScenarioRun, Option<WorkloadTrace>)> {
    scenario.validate()?;
    let mut events: Vec<&TimedEvent> = scenario.events.iter().collect();
    events.sort_by_key(|e| e.at_slot);
    let mut config = scenario.base_config();
    // Sim schedulers live on a virtual clock: report their simulated
    // convergence times as the schedule phase instead of sampling
    // `Instant`, so probed reports stay byte-for-byte reproducible.
    if scheduler.name().starts_with("auction_sim") {
        config.clock = ClockMode::Virtual;
    }
    let mut sys = System::new(config, scheduler)?;
    match workload {
        WorkloadHandling::Generate => {}
        WorkloadHandling::Record => sys.record_workload(),
        WorkloadHandling::Replay(trace) => sys.replay_workload(trace.clone()),
    }
    if probes {
        sys.enable_probes();
    }
    let name = sys.scheduler_name();
    if scenario.initial_peers > 0 {
        sys.add_static_peers(scenario.initial_peers)?;
    }
    if scenario.churn {
        sys.enable_poisson_churn()?;
    }
    for slot in 0..scenario.slots {
        apply_due_events(&events, slot, &mut sys)?;
        sys.step_slot()?;
    }
    let trace = sys.take_workload_trace();
    let recorder = sys.recorder().clone();
    let report = sys.take_run_report().map(|mut report| {
        report.scenario = scenario.name.clone();
        let windows = event_windows(scenario);
        let borrowed: Vec<(&str, u64, u64)> =
            windows.iter().map(|(n, lo, hi)| (n.as_str(), *lo, *hi)).collect();
        report.aggregate_windows(&borrowed);
        report
    });
    Ok((
        ScenarioRun { summary: RunSummary::from_recorder(name, &recorder), recorder, report },
        trace,
    ))
}

/// Runs one scheduler over the scenario, generating the workload live from
/// the scenario seed.
///
/// # Errors
///
/// Propagates system-construction, event-application and scheduling
/// errors.
pub fn run_one(scenario: &Scenario, scheduler: Box<dyn ChunkScheduler>) -> Result<ScenarioRun> {
    run_one_with(scenario, scheduler, WorkloadHandling::Generate, false).map(|(run, _)| run)
}

/// Sweeps every scheduler over the scenario, all facing the identical
/// workload and event timeline. The first run records the generated
/// arrival trace and every later run replays it, so the workload is
/// derived once per (scenario, seed) instead of once per scheduler — the
/// summaries are byte-identical to generating it each time (the system RNG
/// only ever feeds workload generation).
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] for an empty scheduler list and
/// propagates per-run errors.
///
/// # Examples
///
/// ```
/// use p2p_scenario::{builtin, run_scenario, scheduler_by_name};
///
/// let scenario = builtin("flash_crowd").unwrap().quick(6);
/// let schedulers = vec![
///     scheduler_by_name("auction", scenario.seed).unwrap(),
///     scheduler_by_name("locality", scenario.seed).unwrap(),
/// ];
/// let report = run_scenario(&scenario, schedulers).unwrap();
/// assert_eq!(report.runs.len(), 2);
/// println!("{}", report.summary_table());
/// ```
pub fn run_scenario(
    scenario: &Scenario,
    schedulers: Vec<Box<dyn ChunkScheduler>>,
) -> Result<ScenarioReport> {
    run_scenario_probed(scenario, schedulers, false)
}

/// [`run_scenario`] with optional run-report collection: with `probes` on,
/// every run carries a [`RunReport`] (phase timings, engine probe counters,
/// HLL uniques, event-window aggregates) in [`ScenarioRun::report`].
/// Probes observe without perturbing — the summary tables and recorders
/// stay byte-identical to an unprobed sweep.
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] for an empty scheduler list and
/// propagates per-run errors.
pub fn run_scenario_probed(
    scenario: &Scenario,
    schedulers: Vec<Box<dyn ChunkScheduler>>,
    probes: bool,
) -> Result<ScenarioReport> {
    if schedulers.is_empty() {
        return Err(P2pError::invalid_config("schedulers", "need at least one"));
    }
    let mut runs = Vec::with_capacity(schedulers.len());
    let mut trace: Option<WorkloadTrace> = None;
    for scheduler in schedulers {
        let handling = match &trace {
            None => WorkloadHandling::Record,
            Some(t) => WorkloadHandling::Replay(t),
        };
        let (run, recorded) = run_one_with(scenario, scheduler, handling, probes)?;
        if trace.is_none() {
            trace = recorded;
        }
        runs.push(run);
    }
    Ok(ScenarioReport { scenario: scenario.clone(), runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::builtin;

    #[test]
    fn scheduler_registry_resolves_all_names() {
        for name in SCHEDULER_NAMES {
            let s = scheduler_by_name(name, 1).unwrap();
            assert!(!s.name().is_empty());
        }
        assert!(scheduler_by_name("warp", 1).is_err());
    }

    #[test]
    fn default_alias_resolves_to_the_flat_auction() {
        assert_eq!(DEFAULT_SCHEDULER, "auction_flat");
        assert!(SCHEDULER_NAMES.contains(&DEFAULT_SCHEDULER));
        let s = scheduler_by_name("default", 1).unwrap();
        assert_eq!(s.name(), scheduler_by_name(DEFAULT_SCHEDULER, 1).unwrap().name());
    }

    #[test]
    fn scenario_shards_knob_configures_sharded_schedulers() {
        let scenario = Scenario::new("x", "d").with_shards(p2p_streaming::ShardCount::Fixed(2));
        let s = scheduler_for(&scenario, "auction_sharded").unwrap();
        assert_eq!(s.name(), "auction_sharded");
        let s = scheduler_for(&scenario, "auction_sharded_warm").unwrap();
        assert_eq!(s.name(), "auction_sharded_warm");
        // The sequential schedulers accept (and ignore) the knob.
        assert_eq!(scheduler_for(&scenario, "auction").unwrap().name(), "auction");
        let zero = scenario.with_shards(p2p_streaming::ShardCount::Fixed(0));
        assert!(scheduler_for(&zero, "auction_sharded").is_err());
    }

    #[test]
    fn sharded_auction_sweeps_builtins_alongside_the_sequential_auction() {
        let scenario = builtin("flash_crowd")
            .unwrap()
            .with_shards(p2p_streaming::ShardCount::Fixed(4))
            .quick(6);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_for(&scenario, "auction").unwrap(),
                scheduler_for(&scenario, "auction_sharded").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(report.runs[1].summary.scheduler, "auction_sharded");
        for run in &report.runs {
            assert_eq!(run.recorder.len() as u64, scenario.slots);
            assert!(run.summary.transfers > 0);
        }
    }

    /// The flat CSR scheduler is the same auction over a different memory
    /// layout: full scenario sweeps are bit-identical to the nested
    /// schedulers at the same shard count (1 ≙ `auction`, ≥ 2 ≙
    /// `auction_sharded`), warm variants included.
    #[test]
    fn flat_scheduler_sweeps_are_bit_identical_to_nested() {
        for (flat, nested, shards) in [
            ("auction_flat", "auction", ShardCount::Fixed(1)),
            ("auction_flat", "auction_sharded", ShardCount::Fixed(4)),
            ("auction_flat_warm", "auction_warm", ShardCount::Fixed(1)),
            ("auction_flat_warm", "auction_sharded_warm", ShardCount::Fixed(4)),
        ] {
            let scenario = builtin("flash_crowd").unwrap().with_shards(shards).quick(6);
            let report = run_scenario(
                &scenario,
                vec![
                    scheduler_for(&scenario, nested).unwrap(),
                    scheduler_for(&scenario, flat).unwrap(),
                ],
            )
            .unwrap();
            assert_eq!(
                report.runs[0].recorder.slots(),
                report.runs[1].recorder.slots(),
                "{flat} vs {nested} at shards {shards:?}"
            );
        }
    }

    /// The engine-equivalence harness: under a zero-fault network the
    /// virtual-time swarm is the *same auction* as the in-process flat
    /// engine — full scenario sweeps (assignments, welfare, transfers,
    /// misses, per-slot metrics) must be bit-identical at one shard, warm
    /// variants included.
    #[test]
    fn sim_scheduler_sweeps_are_bit_identical_to_flat_at_one_shard() {
        for (sim, flat) in
            [("auction_sim", "auction_flat"), ("auction_sim_warm", "auction_flat_warm")]
        {
            let scenario =
                builtin("flash_crowd").unwrap().with_shards(ShardCount::Fixed(1)).quick(6);
            let report = run_scenario(
                &scenario,
                vec![
                    scheduler_for(&scenario, flat).unwrap(),
                    scheduler_for(&scenario, sim).unwrap(),
                ],
            )
            .unwrap();
            assert_eq!(
                report.runs[0].recorder.slots(),
                report.runs[1].recorder.slots(),
                "{sim} vs {flat}"
            );
        }
    }

    /// The networked runtime is the *same auction* over TCP: full scenario
    /// sweeps are bit-identical to the in-process flat engine at one
    /// shard, warm variants included.
    #[test]
    fn net_scheduler_sweeps_are_bit_identical_to_flat_at_one_shard() {
        for (net, flat) in
            [("auction_net", "auction_flat"), ("auction_net_warm", "auction_flat_warm")]
        {
            let scenario =
                builtin("flash_crowd").unwrap().with_shards(ShardCount::Fixed(1)).quick(4);
            let report = run_scenario(
                &scenario,
                vec![
                    scheduler_for(&scenario, flat).unwrap(),
                    scheduler_for(&scenario, net).unwrap(),
                ],
            )
            .unwrap();
            assert_eq!(
                report.runs[0].recorder.slots(),
                report.runs[1].recorder.slots(),
                "{net} vs {flat}"
            );
        }
    }

    /// Faulty presets run the same scenario to completion and still fill
    /// slots; the summary stays deterministic across repeats.
    #[test]
    fn sim_scheduler_handles_faulty_presets_deterministically() {
        let sweep = || {
            let scenario = builtin("flash_crowd").unwrap().with_net("lossy").quick(6);
            let report =
                run_scenario(&scenario, vec![scheduler_for(&scenario, "auction_sim").unwrap()])
                    .unwrap();
            assert!(report.runs[0].summary.transfers > 0);
            report.summary_table()
        };
        assert_eq!(sweep(), sweep());
    }

    /// Probed sim runs report *virtual* phase timings: byte-identical
    /// RunReport JSON across repeats (wall-clock reports never are).
    #[test]
    fn probed_sim_reports_are_byte_identical_across_repeats() {
        let json = || {
            let scenario = builtin("flash_crowd").unwrap().quick(6);
            let report = run_scenario_probed(
                &scenario,
                vec![scheduler_for(&scenario, "auction_sim").unwrap()],
                true,
            )
            .unwrap();
            let run_report = report.runs[0].report.as_ref().unwrap();
            assert!(
                run_report
                    .slots
                    .iter()
                    .all(|s| s.phases.prepare_s == 0.0 && s.phases.complete_s == 0.0),
                "virtual clock: the wall-clock phases report zero"
            );
            assert!(
                run_report.slots.iter().any(|s| s.phases.schedule_s > 0.0),
                "virtual clock: busy slots carry simulated convergence time"
            );
            run_report.to_json()
        };
        assert_eq!(json(), json());
    }

    #[test]
    fn net_presets_resolve_and_reject_unknown_names() {
        let scenario = builtin("flash_crowd").unwrap();
        assert!(scenario_net(&scenario).unwrap().is_ideal());
        assert!(!scenario_net(&scenario.clone().with_net("lossy")).unwrap().is_ideal());
        let bad = scenario.with_net("subspace");
        assert!(scenario_net(&bad).is_err());
        assert!(bad.validate().is_err());
        assert!(scheduler_for(&bad, "auction_sim").is_err());
    }

    #[test]
    fn sweep_produces_side_by_side_runs() {
        let scenario = builtin("flash_crowd").unwrap().quick(8);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_by_name("auction", scenario.seed).unwrap(),
                scheduler_by_name("locality", scenario.seed).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].summary.scheduler, "auction");
        assert_eq!(report.runs[1].summary.scheduler, "simple_locality");
        for run in &report.runs {
            assert_eq!(run.recorder.len() as u64, scenario.slots);
            assert!(run.summary.transfers > 0, "the crowd must download");
        }
        let table = report.summary_table();
        assert!(table.contains("flash_crowd") && table.contains("auction"));
    }

    #[test]
    fn workload_is_identical_across_schedulers() {
        let scenario = builtin("isp_outage").unwrap().quick(10);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_by_name("auction", scenario.seed).unwrap(),
                scheduler_by_name("random", scenario.seed).unwrap(),
            ],
        )
        .unwrap();
        // Scheduling must not perturb the shared workload: both runs see
        // the same population trajectory.
        assert_eq!(
            report.runs[0].recorder.population_series().points(),
            report.runs[1].recorder.population_series().points(),
        );
    }

    #[test]
    fn cached_workload_sweep_matches_uncached_runs() {
        // The sweep records the workload once and replays it; per-scheduler
        // results must be byte-identical to deriving the workload live.
        let scenario = builtin("prime_time").unwrap().quick(10);
        let names = ["auction", "locality", "random"];
        let schedulers =
            names.iter().map(|n| scheduler_by_name(n, scenario.seed).unwrap()).collect();
        let report = run_scenario(&scenario, schedulers).unwrap();
        for (run, name) in report.runs.iter().zip(names) {
            let solo = run_one(&scenario, scheduler_by_name(name, scenario.seed).unwrap()).unwrap();
            assert_eq!(run.summary.table_row(), solo.summary.table_row(), "{name}");
            assert_eq!(run.recorder.slots(), solo.recorder.slots(), "{name}");
        }
    }

    #[test]
    fn reports_are_byte_identical_across_repeats() {
        let table = || {
            let scenario = builtin("prime_time").unwrap().quick(10);
            let report = run_scenario(
                &scenario,
                vec![
                    scheduler_by_name("auction", scenario.seed).unwrap(),
                    scheduler_by_name("locality", scenario.seed).unwrap(),
                ],
            )
            .unwrap();
            report.summary_table()
        };
        assert_eq!(table(), table());
    }

    /// Probed sweeps stitch a [`RunReport`] per run — with event-relative
    /// windows — without perturbing the deterministic summary tables.
    #[test]
    fn probed_sweep_attaches_run_reports_with_event_windows() {
        let scenario = builtin("flash_crowd").unwrap().quick(8);
        let sweep = |probes: bool| {
            run_scenario_probed(
                &scenario,
                vec![
                    scheduler_by_name("auction_flat", scenario.seed).unwrap(),
                    scheduler_by_name("locality", scenario.seed).unwrap(),
                ],
                probes,
            )
            .unwrap()
        };
        let bare = sweep(false);
        let probed = sweep(true);
        assert_eq!(bare.summary_table(), probed.summary_table(), "probes must not perturb");
        assert!(bare.runs.iter().all(|r| r.report.is_none()));
        for run in &probed.runs {
            let report = run.report.as_ref().expect("probed runs carry a report");
            assert_eq!(report.scenario, "flash_crowd");
            assert_eq!(report.slots.len() as u64, scenario.slots);
            assert!(!report.windows.is_empty(), "event windows are aggregated");
            let json = report.to_json();
            assert!(json.contains("\"windows\""));
        }
        // The auction run carries engine counters; the baseline does not.
        let auction = probed.runs[0].report.as_ref().unwrap();
        assert!(auction.slots.iter().any(|s| s.engine.is_some()));
        let locality = probed.runs[1].report.as_ref().unwrap();
        assert!(locality.slots.iter().all(|s| s.engine.is_none()));
    }

    #[test]
    fn event_windows_partition_around_the_timeline() {
        let scenario = builtin("flash_crowd").unwrap().quick(8);
        let windows = event_windows(&scenario);
        assert!(windows.iter().any(|(n, _, _)| n == "during"));
        let covered: u64 = windows.iter().map(|(_, lo, hi)| hi - lo + 1).sum();
        assert_eq!(covered, scenario.slots, "windows must partition the run");
        // No events → one `all` window.
        let plain = Scenario::new("x", "d");
        let all = event_windows(&plain);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "all");
    }

    #[test]
    fn empty_scheduler_list_is_rejected() {
        let scenario = builtin("flash_crowd").unwrap();
        assert!(run_scenario(&scenario, vec![]).is_err());
    }
}
