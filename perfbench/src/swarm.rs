//! `swarm_lossy`: slots on the virtual-time swarm simulator
//! (`p2p_core::swarm` on `p2p-sim`) under `NetworkModel::lossy()`, with
//! coalescing at its default. One unit runs `SwarmAuction::run` once on
//! each of the run's slots, each with its own fixed simulator seed, so
//! every measured slot replays its warm-up slot.

use crate::inputs::{build_run, generate_run, Shape, SlotInputs};
use crate::measure::{time_build, Fnv, Recorder, SlotSample, Workload};
use crate::Scale;
use p2p_core::{verify_optimality, NetworkModel, SwarmAuction, SwarmConfig, WelfareInstance};
use std::time::Instant;

/// ε (as in `sim_bench`): the lossy model relies on ε > 0 to bound rebids
/// from stale prices.
const EPSILON: f64 = 0.01;

/// The `swarm_lossy` workload.
pub struct Swarm {
    inputs: Vec<SlotInputs>,
    instances: Vec<WelfareInstance>,
    engine: SwarmAuction,
    sim_seed: u64,
}

impl Swarm {
    /// Generates the run's slots from `seed` and builds them.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        // 3·10³ peers, not 10⁴: at 10⁴ the slot's queue (~11 entries a
        // peer) leaves the cache, and on a shared 2-vCPU host its median
        // flipped between two modes 30 % apart from run to run (spread
        // 0.23 over ten seeds; 0.15 at 3·10³).
        let requests = match scale {
            Scale::Full => 3_000,
            Scale::Smoke => 500,
        };
        let inputs = generate_run(seed, Shape::swarm(requests));
        let instances = build_run(&inputs).map_err(|e| e.to_string())?;
        Ok(Swarm {
            inputs,
            instances,
            engine: SwarmAuction::new(SwarmConfig::with_epsilon(EPSILON), NetworkModel::lossy()),
            sim_seed: seed ^ 0x5EED_CAFE,
        })
    }

    fn slot(&self, k: usize, rec: &mut Recorder, measured: bool) -> Result<SlotSample, String> {
        let instance = &self.instances[k];
        let id = rec.slot_id();
        let t0 = Instant::now();
        let root = rec.tracer.open("slot", id, None);
        let span = rec.tracer.open("swarm.run", id, root);
        let out = self.engine.run(instance, self.sim_seed.wrapping_add(k as u64));
        rec.tracer.close(span);
        rec.tracer.close(root);
        let wall_s = t0.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("swarm run: {e}"))?;

        out.assignment.validate(instance).map_err(|e| format!("conservation: {e}"))?;
        if !out.converged {
            return Err("the swarm did not reach quiescence".into());
        }
        let tol = crate::tolerance(EPSILON, instance.request_count());
        let report = verify_optimality(instance, &out.assignment, &out.duals, tol);
        if !report.is_optimal() {
            return Err(format!("certificate violated: {:?}", report.violations.first()));
        }
        let mut h = Fnv::new();
        h.choices(out.assignment.choices());
        h.prices(&out.duals.lambda);
        h.prices(&out.duals.eta);
        h.word(out.rounds);
        h.word(out.bids_submitted);
        h.word(out.trace_hash);
        rec.check_replay(measured, k, h.finish())?;

        let inputs = &self.inputs[k];
        let choices = out.assignment.choices();
        let inter_isp = choices
            .iter()
            .enumerate()
            .filter(|(r, c)| c.is_some_and(|e| inputs.is_inter_isp(*r, e)))
            .count();
        Ok(SlotSample {
            wall_s,
            requests: instance.request_count() as u64,
            edges: instance.edge_count() as u64,
            transfers: out.assignment.assigned_count() as u64,
            inter_isp: inter_isp as u64,
            welfare: out.assignment.welfare(instance).get(),
            rounds: out.rounds,
            bids: out.bids_submitted,
            events: out.events,
            messages: out.messages,
            peak_queue: out.peak_queue,
            coalesced: out.coalesced_events,
            dropped: out.faults.dropped,
            duplicates_discarded: out.faults.duplicates_discarded,
            resequenced: out.faults.resequenced,
            virtual_s: out.converged_at.as_secs_f64(),
            ..SlotSample::default()
        })
    }
}

impl Workload for Swarm {
    fn setup(&mut self) -> Result<f64, String> {
        time_build(|| build_run(&self.inputs))
    }

    fn unit(&mut self, rec: &mut Recorder, measured: bool) {
        for k in 0..self.instances.len() {
            let result = self.slot(k, rec, measured);
            rec.finish_slot(measured, result);
        }
    }
}
