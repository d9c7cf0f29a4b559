//! `stream_flash`: the paper's Sec. V streaming system through the
//! `paper_flash_crowd` scenario, on the default pipeline (cold slot build,
//! flat CSR auction with shards pinned), driven through the public
//! `p2p-streaming` / `p2p-sched` calls.
//!
//! One unit is a full pass over the scenario on a fresh system, so every
//! measured pass replays the warm-up pass slot for slot.

use crate::measure::{time_build, Fnv, Recorder, SlotSample, Workload};
use crate::Scale;
use p2p_core::csr::FlatAuction;
use p2p_core::{verify_optimality, AuctionConfig, ShardCount};
use p2p_scenario::{builtin, Scenario, TimedEvent};
use p2p_sched::{ChunkScheduler, FlatAuctionScheduler, Schedule, SlotProblem};
use p2p_streaming::System;
use std::time::Instant;

/// Auction shards, pinned so outcomes do not depend on the host.
const SHARDS: ShardCount = ShardCount::Fixed(2);

/// ε of the streaming auction. The registry's default, `auction_flat`,
/// runs the paper's ε = 0 rule, but streaming slots carry structural ties
/// (many chunks share one peer pair's cost and valuation), and under
/// ε = 0 a tied request can end the slot unserved with positive utility.
/// Those outcomes fail the n·ε certificate: on the smoke pass, seed 3,
/// slot 2, an ε = 0 schedule's welfare lay 685 below the dual bound of an
/// ε = 0.01 re-run, beyond n·ε = 679. So the flat engine runs here at the
/// ε every other workload uses, and every slot can be certified.
const EPSILON: f64 = 0.01;

/// The scheduler the pipeline runs: the `auction_flat` engine at
/// [`EPSILON`].
fn scheduler() -> FlatAuctionScheduler {
    FlatAuctionScheduler::with_epsilon(EPSILON, SHARDS)
}

/// The system under test: `System::new` plus the initial peers.
fn new_system(scenario: &Scenario) -> Result<System, String> {
    let mut sys =
        System::new(scenario.base_config(), Box::new(scheduler())).map_err(|e| e.to_string())?;
    if scenario.initial_peers > 0 {
        sys.add_static_peers(scenario.initial_peers).map_err(|e| e.to_string())?;
    }
    if scenario.churn {
        sys.enable_poisson_churn().map_err(|e| e.to_string())?;
    }
    Ok(sys)
}

/// The `stream_flash` workload.
pub struct Stream {
    scenario: Scenario,
    events: Vec<TimedEvent>,
}

impl Stream {
    /// Generates the scenario from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut scenario = builtin("paper_flash_crowd")
            .map_err(|e| e.to_string())?
            .with_seed(seed)
            .with_shards(SHARDS);
        if scale == Scale::Smoke {
            scenario = scenario.quick(4);
        }
        scenario.validate().map_err(|e| e.to_string())?;
        let mut events = scenario.events.clone();
        events.sort_by_key(|e| e.at_slot);
        Ok(Stream { scenario, events })
    }

    fn slot(
        &self,
        sys: &mut System,
        sched: &mut FlatAuctionScheduler,
        slot: u64,
        rec: &mut Recorder,
        measured: bool,
    ) -> Result<SlotSample, String> {
        let id = rec.slot_id();
        let due: Vec<&TimedEvent> = self.events.iter().filter(|e| e.at_slot == slot).collect();
        if !due.is_empty() {
            let span = rec.tracer.open("scenario.apply", id, None);
            for e in due {
                e.event.apply(sys).map_err(|e| format!("scenario event: {e}"))?;
            }
            rec.tracer.close(span);
        }

        let t0 = Instant::now();
        let root = rec.tracer.open("slot", id, None);
        let span = rec.tracer.open("streaming.prepare", id, root);
        let problem = sys.prepare_slot().map_err(|e| format!("prepare_slot: {e}"))?;
        rec.tracer.close(span);
        let span = rec.tracer.open("sched.schedule", id, root);
        let schedule = sched.schedule(&problem).map_err(|e| format!("schedule: {e}"))?;
        rec.tracer.close(span);
        let span = rec.tracer.open("streaming.complete", id, root);
        let metrics =
            sys.complete_slot(&problem, &schedule).map_err(|e| format!("complete_slot: {e}"))?;
        rec.tracer.close(span);
        rec.tracer.close(root);
        let wall_s = t0.elapsed().as_secs_f64();

        // Outcome checks, outside the timed region.
        let instance = &problem.instance;
        schedule.assignment.validate(instance).map_err(|e| format!("conservation: {e}"))?;
        if !measured {
            certify(&problem, &schedule)?;
        }
        let mut h = Fnv::new();
        h.choices(schedule.assignment.choices());
        h.word(schedule.stats.rounds);
        h.word(schedule.stats.bids);
        h.word(metrics.welfare.to_bits());
        h.word(metrics.missed_chunks);
        rec.check_replay(measured, slot as usize, h.finish())?;

        Ok(SlotSample {
            wall_s,
            requests: instance.request_count() as u64,
            edges: instance.edge_count() as u64,
            transfers: metrics.transfers,
            inter_isp: metrics.inter_isp_transfers,
            welfare: metrics.welfare,
            rounds: schedule.stats.rounds,
            bids: schedule.stats.bids,
            due: metrics.due_chunks,
            missed: metrics.missed_chunks,
            ..SlotSample::default()
        })
    }
}

/// The n·ε certificate of a streaming slot. `Schedule` carries no duals,
/// so the slot is re-run on the public flat engine at the same shard
/// count: the re-run must reproduce the schedule bit for bit, and its
/// prices must certify it.
fn certify(problem: &SlotProblem, schedule: &Schedule) -> Result<(), String> {
    let out = FlatAuction::new(AuctionConfig::with_epsilon(EPSILON), SHARDS)
        .run(&problem.csr_instance())
        .map_err(|e| format!("certificate re-run: {e}"))?;
    if out.assignment != schedule.assignment {
        return Err("the certificate re-run diverged from the schedule".into());
    }
    let n = problem.instance.request_count();
    let report = verify_optimality(
        &problem.instance,
        &out.assignment,
        &out.duals,
        crate::tolerance(EPSILON, n),
    );
    if !report.is_optimal() {
        return Err(format!("certificate violated: {:?}", report.violations.first()));
    }
    Ok(())
}

impl Workload for Stream {
    fn setup(&mut self) -> Result<f64, String> {
        time_build(|| new_system(&self.scenario))
    }

    fn unit(&mut self, rec: &mut Recorder, measured: bool) {
        let mut sys = match new_system(&self.scenario) {
            Ok(sys) => sys,
            Err(e) => return rec.finish_slot(measured, Err(format!("set-up: {e}"))),
        };
        let mut sched = scheduler();
        for slot in 0..self.scenario.slots {
            let result = self.slot(&mut sys, &mut sched, slot, rec, measured);
            let failed = result.is_err();
            rec.finish_slot(measured, result);
            if failed {
                // The system's state is suspect after a failed slot.
                return;
            }
        }
    }
}
