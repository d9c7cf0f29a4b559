//! Virtual-time swarm scheduler: each slot's auction runs as a
//! discrete-event simulation of the peer swarm.
//!
//! [`SimAuctionScheduler`] drives [`p2p_core::SwarmAuction`] — one logical
//! actor per peer on the DES event queue, message behavior drawn from a
//! seeded [`NetworkModel`] — instead of the in-process sweep the other
//! auction schedulers use. Under [`NetworkModel::ideal`] the outcome is
//! bit-identical to [`AuctionScheduler`](crate::AuctionScheduler) /
//! `FlatAuctionScheduler` at one shard; under faulty models (`lan`,
//! `lossy`, partitions) it exercises the paper's protocol against drops,
//! delays, reordering and duplication while preserving the `n·ε`
//! optimality certificate through eventual delivery.
//!
//! The scheduler is single-threaded and derives every slot's fault
//! schedule from `derive_seed(seed, slot_index)`, so runs are byte-for-byte
//! reproducible regardless of `P2P_CORES`. It reports the swarm's
//! convergence time through
//! [`ChunkScheduler::take_virtual_elapsed`],
//! which the streaming system uses to report virtual (not wall-clock)
//! schedule-phase durations.

use crate::auction::schedule_of;
use crate::problem::{Schedule, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::{derive_seed, NetworkModel, SwarmAuction, SwarmConfig};
use p2p_metrics::{CountingProbe, EngineReport};
use p2p_types::Result;

/// Schedules each slot by simulating the peer swarm in virtual time.
///
/// # Examples
///
/// ```
/// use p2p_sched::{ChunkScheduler, SimAuctionScheduler, SlotProblem};
/// use p2p_core::{NetworkModel, WelfareInstance};
/// use p2p_types::*;
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(1), 1);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
/// let problem = SlotProblem::new(b.build().unwrap(), vec![SimDuration::from_secs(5)]).unwrap();
///
/// let mut sched = SimAuctionScheduler::paper(NetworkModel::ideal());
/// let schedule = sched.schedule(&problem).unwrap();
/// assert_eq!(schedule.assignment.assigned_count(), 1);
/// assert!(sched.take_virtual_elapsed().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SimAuctionScheduler {
    engine: SwarmAuction,
    probe: Option<CountingProbe>,
    seed: u64,
    slots: u64,
    virtual_elapsed: Option<f64>,
}

impl SimAuctionScheduler {
    /// Swarm auction with the paper's ε = 0 rule on the given network.
    ///
    /// ε = 0 is only safe under [`NetworkModel::ideal`]-like models; lossy
    /// networks should use [`with_epsilon`](Self::with_epsilon) so the
    /// minimum bid increment bounds the message volume.
    pub fn paper(net: NetworkModel) -> Self {
        SimAuctionScheduler {
            engine: SwarmAuction::new(SwarmConfig::paper(), net),
            probe: None,
            seed: 0,
            slots: 0,
            virtual_elapsed: None,
        }
    }

    /// Swarm auction with a minimum bid increment ε > 0.
    pub fn with_epsilon(epsilon: f64, net: NetworkModel) -> Self {
        SimAuctionScheduler {
            engine: SwarmAuction::new(SwarmConfig::with_epsilon(epsilon), net.clone()),
            ..Self::paper(net)
        }
    }

    /// Sets the base seed the per-slot fault schedules derive from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The network model the swarm runs on.
    pub fn net(&self) -> &NetworkModel {
        self.engine.net()
    }
}

impl ChunkScheduler for SimAuctionScheduler {
    fn name(&self) -> &str {
        "auction_sim"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        // One seed stream per slot: replaying a scenario replays every
        // slot's fault schedule, and slot k's faults are independent of
        // how many events slot k-1 happened to process.
        let slot_seed = derive_seed(self.seed, self.slots);
        self.slots += 1;
        let out = match &mut self.probe {
            Some(p) => self.engine.run_probed(&problem.instance, slot_seed, p),
            None => self.engine.run(&problem.instance, slot_seed),
        }?;
        self.virtual_elapsed = Some(out.converged_at.as_secs_f64());
        Ok(schedule_of(out.to_outcome()))
    }

    fn set_probes(&mut self, enabled: bool) {
        self.probe = enabled.then(CountingProbe::new);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.probe.as_mut().map(CountingProbe::take_report)
    }

    fn take_virtual_elapsed(&mut self) -> Option<f64> {
        self.virtual_elapsed.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::tests::problem;
    use crate::AuctionScheduler;

    #[test]
    fn ideal_sim_matches_the_sync_scheduler_slot_by_slot() {
        let mut sim = SimAuctionScheduler::paper(NetworkModel::ideal()).with_seed(7);
        let mut sync = AuctionScheduler::paper();
        for slot in 0..4 {
            let p = problem();
            let a = sim.schedule(&p).unwrap();
            let b = sync.schedule(&p).unwrap();
            assert_eq!(a.assignment, b.assignment, "slot {slot}");
            assert_eq!(a.stats, b.stats, "slot {slot}");
        }
    }

    #[test]
    fn lossy_sim_still_fills_the_slot() {
        let mut sim = SimAuctionScheduler::with_epsilon(0.01, NetworkModel::lossy()).with_seed(11);
        let p = problem();
        let schedule = sim.schedule(&p).unwrap();
        assert!(schedule.assignment.assigned_count() > 0);
        assert!(sim.take_virtual_elapsed().unwrap() > 0.0);
    }

    #[test]
    fn virtual_elapsed_is_taken_once_per_slot() {
        let mut sim = SimAuctionScheduler::paper(NetworkModel::ideal());
        assert!(sim.take_virtual_elapsed().is_none());
        sim.schedule(&problem()).unwrap();
        assert!(sim.take_virtual_elapsed().is_some());
        assert!(sim.take_virtual_elapsed().is_none());
    }

    #[test]
    fn probe_reports_flow_through() {
        let mut sim = SimAuctionScheduler::paper(NetworkModel::ideal());
        sim.set_probes(true);
        sim.schedule(&problem()).unwrap();
        let report = sim.take_probe_report().unwrap();
        assert!(report.rounds > 0);
        assert!(report.bids > 0);
    }

    #[test]
    fn same_seed_same_schedule_distinct_seeds_may_differ() {
        let p = problem();
        let run = |seed: u64| {
            let mut s =
                SimAuctionScheduler::with_epsilon(0.01, NetworkModel::lossy()).with_seed(seed);
            let sched = s.schedule(&p).unwrap();
            (sched.assignment, sched.stats)
        };
        assert_eq!(run(42), run(42));
    }
}
