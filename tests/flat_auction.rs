//! Integration test: the flat CSR auction end to end through the facade —
//! every built-in scenario scheduled by `auction_flat` produces slot
//! metrics **bit-identical** to its nested-layout counterpart (`auction`
//! at shards = 1, `auction_sharded` at shards ≥ 2; warm variants
//! included), and the incremental slot-build path feeds the flat scheduler
//! its cache-emitted CSR.

use isp_p2p::prelude::*;
use isp_p2p::scenario::BUILTIN_NAMES;

/// Every built-in scenario under `auction_flat` is bit-identical, slot by
/// slot, to the nested scheduler with the same shard count — in both
/// slot-build modes, so the cache-emitted CSR path is covered too.
#[test]
fn every_builtin_is_bit_identical_to_the_nested_scheduler() {
    for name in BUILTIN_NAMES {
        for (nested, shards) in
            [("auction", ShardCount::Fixed(1)), ("auction_sharded", ShardCount::Fixed(4))]
        {
            for slot_build in [SlotBuild::Cold, SlotBuild::Incremental] {
                let scenario =
                    builtin(name).unwrap().with_shards(shards).with_slot_build(slot_build).quick(6);
                let report = run_scenario(
                    &scenario,
                    vec![
                        scheduler_for(&scenario, nested).unwrap(),
                        scheduler_for(&scenario, "auction_flat").unwrap(),
                    ],
                )
                .unwrap();
                assert_eq!(report.runs[1].summary.scheduler, "auction_flat");
                assert_eq!(
                    report.runs[0].recorder.slots(),
                    report.runs[1].recorder.slots(),
                    "{name}: auction_flat diverged from {nested} at {shards:?} ({slot_build:?})"
                );
                assert!(report.runs[1].summary.transfers > 0, "{name}: the swarm must download");
            }
        }
    }
}

/// Warm-started flat scheduling composes with the price carry identically
/// to the nested warm schedulers, across scenario event sequences.
#[test]
fn warm_flat_sweeps_match_nested_warm_sweeps() {
    for name in ["flash_crowd", "isp_outage"] {
        let scenario = builtin(name).unwrap().with_shards(ShardCount::Fixed(4)).quick(6);
        let report = run_scenario(
            &scenario,
            vec![
                scheduler_for(&scenario, "auction_sharded_warm").unwrap(),
                scheduler_for(&scenario, "auction_flat_warm").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(
            report.runs[0].recorder.slots(),
            report.runs[1].recorder.slots(),
            "{name}: warm flat diverged from warm sharded"
        );
    }
}

/// `shards = auto` adapts to the live slot size identically for both
/// layouts (the ROADMAP's adaptive-shard follow-on), so the sweeps agree
/// there too.
#[test]
fn auto_shards_sweep_identically() {
    let scenario = builtin("flash_crowd").unwrap().with_shards(ShardCount::Auto).quick(6);
    let report = run_scenario(
        &scenario,
        vec![
            scheduler_for(&scenario, "auction_sharded").unwrap(),
            scheduler_for(&scenario, "auction_flat").unwrap(),
        ],
    )
    .unwrap();
    assert_eq!(report.runs[0].recorder.slots(), report.runs[1].recorder.slots());
}

/// The incremental cache emits the CSR compilation directly: the flat
/// scheduler's problems carry it, and the emitted instance still matches
/// the cold oracle bit for bit.
#[test]
fn incremental_cache_emits_the_csr_compilation_directly() {
    let config = SystemConfig::small_test().with_seed(40).with_slot_build(SlotBuild::Incremental);
    let mut sys = System::new(
        config,
        Box::new(isp_p2p::sched::FlatAuctionScheduler::paper(ShardCount::Fixed(1))),
    )
    .unwrap();
    sys.add_static_peers(10).unwrap();
    for _ in 0..6 {
        let problem = sys.prepare_slot().unwrap();
        let csr = problem.csr.as_ref().expect("incremental builds attach the CSR");
        assert!(csr.matches(&problem.instance), "cache-emitted CSR must match the instance");
        let cold = sys.cold_slot_problem().unwrap();
        assert_eq!(problem, cold, "incremental emit must still match the cold oracle");
        assert!(cold.csr.is_none(), "the cold oracle compiles on demand instead");
        let schedule = isp_p2p::sched::FlatAuctionScheduler::paper(ShardCount::Fixed(1))
            .schedule(&problem)
            .unwrap();
        sys.complete_slot(&problem, &schedule).unwrap();
    }
}
