//! Property tests for mid-run mutation invariants: after ANY sequence of
//! scenario events, chunk-delivery conservation holds, Theorem 1 still
//! certifies each slot's auction outcome, and a fixed seed reproduces
//! identical metrics.

use p2p_core::{verify_optimality, AuctionConfig, SyncAuction};
use p2p_scenario::{run_one, scheduler_by_name, Scenario, ScenarioEvent, TimedEvent};
use p2p_sched::{Schedule, ScheduleStats};
use p2p_streaming::System;
use p2p_types::{IspId, VideoId};
use proptest::prelude::*;

const SLOTS: u64 = 6;

/// One arbitrary event, valid for the small profile (2 ISPs, 5 videos).
fn arb_event() -> impl Strategy<Value = TimedEvent> {
    (0u64..SLOTS, 0u8..9, 1u64..25, 0u16..2, 0u32..5, 0.2f64..5.0).prop_map(
        |(at_slot, kind, n, isp, video, factor)| {
            let isp_id = IspId::new(isp);
            let video_id = VideoId::new(video);
            let event = match kind {
                0 => ScenarioEvent::FlashCrowd {
                    peers: n as usize,
                    video: (video % 2 == 0).then_some(video_id),
                    isp: (isp == 0).then_some(isp_id),
                },
                1 => ScenarioEvent::LinkReprice { factor },
                2 => ScenarioEvent::IspOutage { isp: isp_id, factor: factor * 10.0 },
                3 => ScenarioEvent::IspRecovery { isp: isp_id },
                4 => ScenarioEvent::SeedFailure {
                    count: n as usize,
                    video: (video % 2 == 1).then_some(video_id),
                },
                5 => ScenarioEvent::LateSeed {
                    video: video_id,
                    isp: isp_id,
                    count: 1 + n as usize % 2,
                },
                6 => ScenarioEvent::ChurnBurst { rate: factor * 2.0 },
                7 => ScenarioEvent::PopularityShift { alpha: factor, q: 0.5 },
                // Throttle factors are validated into [0, 1]; map the draw
                // into (0.04, 1.0] so hard outages stay a separate case.
                _ => ScenarioEvent::IspThrottle { isp: isp_id, factor: factor / 5.0 },
            };
            TimedEvent { at_slot, event }
        },
    )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1u64..1_000, 0u64..10, prop::collection::vec(arb_event(), 0..6), any::<bool>()).prop_map(
        |(seed, peers, events, churn)| {
            let mut s = Scenario::new("prop", "generated").with_seed(seed);
            s.slots = SLOTS;
            s.initial_peers = peers as usize;
            s.churn = churn;
            s.events = events;
            s
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation + Theorem 1 hold in every slot, for every event
    /// sequence: the slot's assignment is primal-feasible (each request
    /// served at most once, provider capacities respected — chunk-delivery
    /// conservation), and the primal/dual pair passes the complementary
    /// slackness certificate within the ε-auction's `n·ε` tolerance.
    /// (Streaming slots carry structural ties — many chunks share one
    /// peer-pair cost and valuation — so the ε = 0 certificate of the
    /// tie-free regime does not apply; the ε-auction's does.)
    #[test]
    fn mutated_slots_stay_certified(scenario in arb_scenario()) {
        scenario.validate().unwrap();
        let mut events: Vec<&TimedEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_slot);
        let mut sys = System::new(
            scenario.base_config(),
            Box::new(p2p_sched::AuctionScheduler::paper()),
        ).unwrap();
        if scenario.initial_peers > 0 {
            sys.add_static_peers(scenario.initial_peers).unwrap();
        }
        if scenario.churn {
            sys.enable_poisson_churn().unwrap();
        }
        for slot in 0..scenario.slots {
            for e in events.iter().filter(|e| e.at_slot == slot) {
                e.event.apply(&mut sys).unwrap();
            }
            let problem = sys.prepare_slot().unwrap();
            const EPS: f64 = 1e-2;
            let outcome =
                SyncAuction::new(AuctionConfig::with_epsilon(EPS)).run(&problem.instance).unwrap();
            // Chunk-delivery conservation (primal feasibility).
            prop_assert!(outcome.assignment.validate(&problem.instance).is_ok());
            // Theorem 1: the auction outcome is certified optimal within
            // the ε-auction tolerance (tol ≳ n·ε, per the verifier docs).
            let tol = EPS * (problem.instance.request_count() as f64 + 1.0);
            let report = verify_optimality(
                &problem.instance,
                &outcome.assignment,
                &outcome.duals,
                tol,
            );
            prop_assert!(report.is_optimal(), "violations: {:?}", report.violations);
            let assigned = outcome.assignment.assigned_count() as u64;
            let metrics = sys.complete_slot(
                &problem,
                &Schedule { assignment: outcome.assignment, stats: ScheduleStats::default() },
            ).unwrap();
            prop_assert_eq!(metrics.transfers, assigned);
            prop_assert!(metrics.inter_isp_transfers <= metrics.transfers);
            prop_assert!(metrics.missed_chunks <= metrics.due_chunks);
            prop_assert!(metrics.welfare.is_finite());
        }
    }

    /// The same seed + scenario reproduce bit-identical metrics.
    #[test]
    fn fixed_seed_reproduces_identical_metrics(scenario in arb_scenario()) {
        let fingerprint = || {
            let run = run_one(
                &scenario,
                scheduler_by_name("auction", scenario.seed).unwrap(),
            ).unwrap();
            run.recorder
                .slots()
                .iter()
                .map(|(_, m)| (m.welfare.to_bits(), m.transfers, m.missed_chunks, m.online_peers))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(fingerprint(), fingerprint());
    }

    /// Scenario events are part of the workload, not the scheduler: every
    /// scheduler sees the identical population trajectory.
    #[test]
    fn events_do_not_couple_workload_to_scheduler(scenario in arb_scenario()) {
        let pop = |name: &str| {
            run_one(&scenario, scheduler_by_name(name, scenario.seed).unwrap())
                .unwrap()
                .recorder
                .population_series()
                .points()
                .to_vec()
        };
        prop_assert_eq!(pop("auction"), pop("locality"));
    }

    /// Warm-started auctions still satisfy the Theorem 1 certificate
    /// within the ε-auction's `n·ε` tolerance, after ANY event sequence —
    /// carried prices are clamped/repaired, never trusted.
    #[test]
    fn warm_started_slots_stay_certified(scenario in arb_scenario()) {
        let mut events: Vec<&TimedEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_slot);
        let mut sys = System::new(
            scenario.base_config(),
            Box::new(p2p_sched::AuctionScheduler::paper()),
        ).unwrap();
        if scenario.initial_peers > 0 {
            sys.add_static_peers(scenario.initial_peers).unwrap();
        }
        if scenario.churn {
            sys.enable_poisson_churn().unwrap();
        }
        const EPS: f64 = 1e-2;
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(EPS));
        let mut prior: std::collections::HashMap<p2p_types::PeerId, f64> =
            std::collections::HashMap::new();
        for slot in 0..scenario.slots {
            for e in events.iter().filter(|e| e.at_slot == slot) {
                e.event.apply(&mut sys).unwrap();
            }
            let problem = sys.prepare_slot().unwrap();
            let prices: Vec<f64> = problem
                .instance
                .providers()
                .iter()
                .map(|p| prior.get(&p.peer).copied().unwrap_or(0.0))
                .collect();
            let outcome = engine.run_warm(&problem.instance, &prices).unwrap();
            let tol = EPS * (problem.instance.request_count() as f64 + 1.0);
            let report = verify_optimality(
                &problem.instance,
                &outcome.assignment,
                &outcome.duals,
                tol,
            );
            prop_assert!(report.is_optimal(), "slot {}: {:?}", slot, report.violations);
            prior = problem
                .instance
                .providers()
                .iter()
                .zip(&outcome.duals.lambda)
                .map(|(p, &l)| (p.peer, l))
                .collect();
            sys.complete_slot(
                &problem,
                &Schedule { assignment: outcome.assignment, stats: ScheduleStats::default() },
            ).unwrap();
        }
    }
}
