//! Integration test: the scenario subsystem end to end through the facade —
//! built-in library, spec parsing (including the shipped example file),
//! multi-scheduler sweeps, cross-run determinism, price warm-starting, and
//! the runner's workload-trace cache.

use isp_p2p::prelude::*;
use isp_p2p::scenario::{builtins, run_one, BUILTIN_NAMES};

fn sweep(scenario: &Scenario) -> ScenarioReport {
    run_scenario(
        scenario,
        vec![
            scheduler_by_name("auction", scenario.seed).unwrap(),
            scheduler_by_name("locality", scenario.seed).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn every_builtin_runs_a_two_scheduler_comparison() {
    for name in BUILTIN_NAMES {
        let scenario = builtin(name).unwrap().quick(8);
        let report = sweep(&scenario);
        assert_eq!(report.runs.len(), 2, "{name}");
        for run in &report.runs {
            assert_eq!(run.recorder.len() as u64, scenario.slots, "{name}");
            assert!(
                run.recorder.slots().iter().all(|(_, m)| m.welfare.is_finite()),
                "{name}: welfare must stay finite through every event"
            );
        }
        assert!(report.summary_table().contains(name));
    }
    assert_eq!(builtins().len(), 7);
}

#[test]
fn summaries_are_byte_identical_for_fixed_seed() {
    let table = |seed| {
        let scenario = builtin("seed_starvation").unwrap().with_seed(seed).quick(10);
        sweep(&scenario).summary_table()
    };
    assert_eq!(table(42), table(42), "same seed, same bytes");
    assert_ne!(table(42), table(43), "different seed, different workload");
}

#[test]
fn shipped_example_spec_parses_and_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/flash_crowd.toml");
    let text = std::fs::read_to_string(path).expect("example spec ships with the repo");
    let scenario = parse_scenario(&text).unwrap().quick(6);
    assert_eq!(scenario.name, "flash_crowd_file");
    let report = sweep(&scenario);
    let crowd_effect = report.runs[0].recorder.population_series().y_max().unwrap();
    assert!(crowd_effect > 12.0, "the flash crowd must outnumber the initial 12 watchers");
}

#[test]
fn events_change_outcomes_but_not_the_certificates() {
    // The same base workload with and without an outage: the outage must
    // change the metrics (it is a real event), while both runs keep the
    // auction's accounting invariants.
    let run = |with_outage: bool| {
        let mut scenario = builtin("flash_crowd").unwrap().quick(10);
        if with_outage {
            scenario.events.push(TimedEvent {
                at_slot: 2,
                event: ScenarioEvent::LinkReprice { factor: 40.0 },
            });
        }
        let report = sweep(&scenario);
        report.runs[0].summary.clone()
    };
    let base = run(false);
    let priced = run(true);
    assert!(base.transfers > 0 && priced.transfers > 0);
    assert!(
        priced.inter_isp_fraction < base.inter_isp_fraction,
        "a 40x repricing must localize auction traffic ({} vs {})",
        priced.inter_isp_fraction,
        base.inter_isp_fraction
    );
}

#[test]
fn warm_started_sweep_stays_close_to_cold_welfare() {
    // Warm outcomes are ε-equivalent, not bit-identical: tie-breaks can
    // differ, but total welfare must stay within the certificate's slack.
    let scenario = builtin("flash_crowd").unwrap().quick(10);
    let report = run_scenario(
        &scenario,
        vec![
            scheduler_by_name("auction", scenario.seed).unwrap(),
            scheduler_by_name("auction_warm", scenario.seed).unwrap(),
        ],
    )
    .unwrap();
    assert_eq!(report.runs[0].summary.scheduler, "auction");
    assert_eq!(report.runs[1].summary.scheduler, "auction_warm");
    let cold = report.runs[0].summary.total_welfare;
    let warm = report.runs[1].summary.total_welfare;
    assert!(warm > 0.0, "warm-started runs must schedule transfers");
    // ε = 0 auctions abstain on ties within the 1e-9 floor; across a quick
    // sweep the totals agree to well under one valuation unit.
    assert!((cold - warm).abs() <= 1.0 + 1e-6, "cold {cold} vs warm {warm}");
}

#[test]
fn workload_trace_survives_scenario_and_system_round_trips() {
    // The runner's cached sweep equals per-scheduler live generation.
    let scenario = builtin("isp_outage").unwrap().quick(10);
    let report = run_scenario(
        &scenario,
        vec![
            scheduler_by_name("auction", scenario.seed).unwrap(),
            scheduler_by_name("greedy", scenario.seed).unwrap(),
        ],
    )
    .unwrap();
    for (i, name) in ["auction", "greedy"].iter().enumerate() {
        let solo = run_one(&scenario, scheduler_by_name(name, scenario.seed).unwrap()).unwrap();
        assert_eq!(
            report.runs[i].summary.table_row(),
            solo.summary.table_row(),
            "{name}: cached sweep must be byte-identical to live generation"
        );
    }
    // Direct System-level record/replay through the facade.
    let config = SystemConfig::small_test().with_seed(9);
    let mut recorder = System::new(config.clone(), Box::new(AuctionScheduler::paper())).unwrap();
    recorder.record_workload();
    recorder.add_static_peers(8).unwrap();
    recorder.run_slots(5).unwrap();
    let trace = recorder.take_workload_trace().unwrap();
    assert!(!trace.is_empty());
    let mut replayer = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
    replayer.replay_workload(trace);
    assert!(replayer.is_replaying_workload());
    replayer.add_static_peers(8).unwrap(); // no-op under replay
    replayer.run_slots(5).unwrap();
    assert_eq!(
        recorder.recorder().slots(),
        replayer.recorder().slots(),
        "replayed metrics must equal the recorded run"
    );
}
