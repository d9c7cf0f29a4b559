//! Integration test: the flat CSR auction end to end through the facade —
//! every built-in scenario scheduled by `auction_flat` produces slot
//! metrics **bit-identical** to its nested-layout counterpart (`auction`
//! at shards = 1, `auction_sharded` at shards ≥ 2; warm variants
//! included).

use isp_p2p::prelude::*;
use isp_p2p::scenario::BUILTIN_NAMES;

/// Every built-in scenario under `auction_flat` is bit-identical, slot by
/// slot, to the nested scheduler with the same shard count.
#[test]
fn every_builtin_is_bit_identical_to_the_nested_scheduler() {
    for name in BUILTIN_NAMES {
        for (nested, shards) in
            [("auction", ShardCount::Fixed(1)), ("auction_sharded", ShardCount::Fixed(4))]
        {
            let scenario = builtin(name).unwrap().with_shards(shards).quick(6);
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
                "{name}: auction_flat diverged from {nested} at {shards:?}"
            );
            assert!(report.runs[1].summary.transfers > 0, "{name}: the swarm must download");
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
