//! The paper's qualitative claims, asserted end-to-end at reduced scale:
//! every figure's ordering must hold on the same workloads the figure
//! binaries run at full scale.

use isp_p2p::prelude::*;
use isp_p2p::streaming::fig2::run_distributed_slot;

/// Paper configuration at reduced population (fast enough for CI); the
/// figure binaries run the full 500-peer versions.
fn paper_cfg(seed: u64) -> SystemConfig {
    SystemConfig::paper().with_seed(seed)
}

fn run_static(sched: Box<dyn ChunkScheduler>, peers: usize, slots: u64, seed: u64) -> SlotRecorder {
    let mut sys = System::new(paper_cfg(seed), sched).unwrap();
    sys.add_static_peers(peers).unwrap();
    sys.run_slots(slots).unwrap();
    sys.recorder().clone()
}

fn run_dynamic(sched: Box<dyn ChunkScheduler>, slots: u64, seed: u64, depart: f64) -> SlotRecorder {
    let mut sys = System::new(paper_cfg(seed).with_departures(depart), sched).unwrap();
    sys.enable_poisson_churn().unwrap();
    sys.run_slots(slots).unwrap();
    sys.recorder().clone()
}

#[test]
fn fig3_auction_welfare_dominates_locality_and_locality_goes_negative() {
    let a = run_dynamic(Box::new(AuctionScheduler::paper()), 12, 42, 0.0);
    let l = run_dynamic(Box::new(SimpleLocalityScheduler::new()), 12, 42, 0.0);
    let aw = a.welfare_series().mean_y().unwrap();
    let lw = l.welfare_series().mean_y().unwrap();
    assert!(aw > lw, "auction {aw} must beat locality {lw}");
    assert!(
        l.welfare_series().y_min().unwrap() < 0.0,
        "the locality baseline's welfare must dip negative (it ignores valuations)"
    );
    assert!(a.welfare_series().y_min().unwrap() >= 0.0, "auction welfare is never negative");
}

#[test]
fn fig4_auction_is_more_isp_friendly() {
    let a = run_static(Box::new(AuctionScheduler::paper()), 160, 12, 42);
    let l = run_static(Box::new(SimpleLocalityScheduler::new()), 160, 12, 42);
    let at = a.inter_isp_series().mean_y().unwrap();
    let lt = l.inter_isp_series().mean_y().unwrap();
    assert!(at < lt, "auction inter-ISP {at} must be below locality {lt}");
    assert!(at > 0.0, "some inter-ISP traffic must remain (seeds are not everywhere)");
}

#[test]
fn fig5_miss_rates_are_small_for_both() {
    let a = run_static(Box::new(AuctionScheduler::paper()), 160, 12, 42);
    let l = run_static(Box::new(SimpleLocalityScheduler::new()), 160, 12, 42);
    let am = a.miss_rate_series().mean_y().unwrap();
    let lm = l.miss_rate_series().mean_y().unwrap();
    // At reduced scale contention is light, so both are small; the full
    // 500-peer ordering (auction < locality) is asserted by the fig5
    // binary. Here we check the magnitude band the paper reports (< 10 %).
    assert!(am < 0.10, "auction miss {am}");
    assert!(lm < 0.10, "locality miss {lm}");
}

#[test]
fn fig6_orderings_survive_churn() {
    let a = run_dynamic(Box::new(AuctionScheduler::paper()), 12, 42, 0.6);
    let l = run_dynamic(Box::new(SimpleLocalityScheduler::new()), 12, 42, 0.6);
    assert!(a.welfare_series().mean_y().unwrap() > l.welfare_series().mean_y().unwrap());
    assert!(
        a.inter_isp_series().mean_y().unwrap() <= l.inter_isp_series().mean_y().unwrap() + 0.02
    );
}

#[test]
fn fig2_prices_reset_climb_and_converge_within_slot() {
    let mut sys = System::new(paper_cfg(42), Box::new(AuctionScheduler::paper())).unwrap();
    sys.add_static_peers(300).unwrap();
    sys.run_slots(6).unwrap();
    let slot_start = sys.now().as_secs_f64();
    let slot_len = sys.config().slot_len.as_secs_f64();
    let out = run_distributed_slot(&mut sys).unwrap();
    // Convergence strictly inside the slot.
    assert!(out.convergence_secs > slot_start);
    assert!(
        out.convergence_secs < slot_start + slot_len,
        "auction must converge before the slot ends"
    );
    // Per-provider price monotonicity (the paper's Fig. 2 shape).
    for t in &out.traces {
        for w in t.samples.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for &(at, price) in &t.samples {
            assert!(at >= slot_start && at <= slot_start + slot_len);
            assert!(price >= 0.0);
        }
    }
    assert!(out.metrics.transfers > 0);
}

#[test]
fn theorem1_holds_on_a_real_slot_problem() {
    // Build a genuine slot problem from the streaming system and verify the
    // full optimality certificate on it.
    let mut sys = System::new(paper_cfg(7), Box::new(AuctionScheduler::paper())).unwrap();
    sys.add_static_peers(80).unwrap();
    sys.run_slots(3).unwrap();
    let problem = sys.prepare_slot().unwrap();
    assert!(problem.request_count() > 100, "the slot problem must be non-trivial");

    let out = SyncAuction::new(AuctionConfig::paper()).run(&problem.instance).unwrap();
    let exact = problem.instance.optimal_welfare().get();
    let got = out.assignment.welfare(&problem.instance).get();
    assert!((got - exact).abs() < 1e-5, "slot problem: auction {got} vs exact {exact}");
    let report = verify_optimality(&problem.instance, &out.assignment, &out.duals, 1e-6);
    assert!(report.is_optimal(), "{:?}", report.violations.first());
}
