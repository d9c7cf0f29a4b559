//! Integration test: the sharded parallel auction end to end through the
//! facade — every built-in scenario scheduled by `auction_sharded`, with
//! chunk-delivery conservation and the Theorem 1 certificate checked on
//! every slot, plus determinism guarantees.

use isp_p2p::prelude::*;
use isp_p2p::scenario::BUILTIN_NAMES;
use isp_p2p::sched::ScheduleStats;

/// Every built-in scenario runs under `auction_sharded` next to `auction`,
/// producing a full metrics series with real transfers.
#[test]
fn every_builtin_runs_under_the_sharded_scheduler() {
    for name in BUILTIN_NAMES {
        let scenario = builtin(name).unwrap().with_shards(ShardCount::Fixed(4)).quick(8);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_for(&scenario, "auction").unwrap(),
                scheduler_for(&scenario, "auction_sharded").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(report.runs.len(), 2, "{name}");
        assert_eq!(report.runs[1].summary.scheduler, "auction_sharded", "{name}");
        for run in &report.runs {
            assert_eq!(run.recorder.len() as u64, scenario.slots, "{name}");
            assert!(run.summary.transfers > 0, "{name}: the swarm must download");
            assert!(
                run.recorder.slots().iter().all(|(_, m)| m.welfare.is_finite()),
                "{name}: welfare must stay finite through every event"
            );
        }
    }
}

/// Conservation + Theorem 1 on every slot of every built-in scenario: the
/// sharded engine's assignment is primal-feasible (each request served at
/// most once, provider capacities respected) and the primal/dual pair
/// passes the complementary-slackness certificate within the ε-auction's
/// `n·ε` tolerance. (Streaming slots carry structural ties, so the ε > 0
/// configuration is the certified one — same caveat as the synchronous
/// engine's scenario suite.)
#[test]
fn sharded_slots_conserve_chunks_and_stay_certified() {
    const EPS: f64 = 1e-2;
    for name in BUILTIN_NAMES {
        let scenario = builtin(name).unwrap().quick(8);
        let mut events: Vec<&TimedEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_slot);
        let mut sys =
            System::new(scenario.base_config(), Box::new(AuctionScheduler::paper())).unwrap();
        if scenario.initial_peers > 0 {
            sys.add_static_peers(scenario.initial_peers).unwrap();
        }
        if scenario.churn {
            sys.enable_poisson_churn().unwrap();
        }
        let engine = ShardedAuction::new(AuctionConfig::with_epsilon(EPS), ShardCount::Fixed(8));
        for slot in 0..scenario.slots {
            for e in events.iter().filter(|e| e.at_slot == slot) {
                e.event.apply(&mut sys).unwrap();
            }
            let problem = sys.prepare_slot().unwrap();
            let outcome = engine.run(&problem.instance).unwrap();
            // Chunk-delivery conservation (primal feasibility).
            assert!(
                outcome.assignment.validate(&problem.instance).is_ok(),
                "{name} slot {slot}: infeasible assignment"
            );
            // Theorem 1: certified optimal within the ε-auction tolerance.
            let tol = EPS * (problem.instance.request_count() as f64 + 1.0);
            let report =
                verify_optimality(&problem.instance, &outcome.assignment, &outcome.duals, tol);
            assert!(report.is_optimal(), "{name} slot {slot}: violations {:?}", report.violations);
            let assigned = outcome.assignment.assigned_count() as u64;
            let metrics = sys
                .complete_slot(
                    &problem,
                    &Schedule { assignment: outcome.assignment, stats: ScheduleStats::default() },
                )
                .unwrap();
            assert_eq!(metrics.transfers, assigned, "{name} slot {slot}");
            assert!(metrics.inter_isp_transfers <= metrics.transfers, "{name} slot {slot}");
            assert!(metrics.missed_chunks <= metrics.due_chunks, "{name} slot {slot}");
        }
    }
}

/// The sharded sweep is deterministic: identical seeds produce byte-equal
/// summary tables.
#[test]
fn sharded_sweeps_are_byte_identical_across_repeats() {
    let table = || {
        let scenario = builtin("flash_crowd").unwrap().with_shards(ShardCount::Fixed(4)).quick(8);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_for(&scenario, "auction_sharded").unwrap(),
                scheduler_for(&scenario, "locality").unwrap(),
            ],
        )
        .unwrap();
        report.summary_table()
    };
    assert_eq!(table(), table());
}
