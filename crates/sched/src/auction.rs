//! The paper's scheduler: the primal-dual auction (sequential and sharded).

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::{
    AuctionConfig, AuctionOutcome, FlatAuction, ShardCount, ShardedAuction, SyncAuction,
};
use p2p_metrics::{CountingProbe, EngineReport};
use p2p_types::Result;

/// A converged outcome as the slot's schedule.
pub(crate) fn schedule_of(outcome: AuctionOutcome) -> Schedule {
    Schedule {
        assignment: outcome.assignment,
        stats: ScheduleStats { rounds: outcome.rounds, bids: outcome.bids_submitted },
    }
}

/// Schedules each slot by running the distributed auction to convergence
/// from λ = 0 (synchronous execution; the message-level execution with
/// latencies is exercised separately by the Fig. 2 harness).
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct AuctionScheduler {
    engine: SyncAuction,
    probe: Option<CountingProbe>,
}

impl AuctionScheduler {
    /// Auction with the paper's ε = 0 rule.
    pub fn paper() -> Self {
        AuctionScheduler { engine: SyncAuction::new(AuctionConfig::paper()), probe: None }
    }

    /// Auction with a positive bid increment ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        AuctionScheduler {
            engine: SyncAuction::new(AuctionConfig::with_epsilon(epsilon)),
            ..Self::paper()
        }
    }

    /// Auction with a custom configuration.
    pub fn with_config(config: AuctionConfig) -> Self {
        AuctionScheduler { engine: SyncAuction::new(config), ..Self::paper() }
    }
}

impl ChunkScheduler for AuctionScheduler {
    fn name(&self) -> &str {
        "auction"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let outcome = match &mut self.probe {
            Some(p) => self.engine.run_probed(&problem.instance, p),
            None => self.engine.run(&problem.instance),
        }?;
        Ok(schedule_of(outcome))
    }

    fn set_probes(&mut self, enabled: bool) {
        self.probe = enabled.then(CountingProbe::new);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.probe.as_mut().map(CountingProbe::take_report)
    }
}

/// Schedules each slot with the sharded parallel auction
/// ([`p2p_core::ShardedAuction`]): per-shard bid batches merged through the
/// unchanged auctioneer logic with permanent retirement of priced-out
/// requests, parallel across cores when the machine has them. The outcome
/// satisfies the same Theorem 1 `n·ε`
/// certificate as [`AuctionScheduler`]; tie-breaks can differ because the
/// bid schedule differs, so welfare is ε-equivalent rather than
/// bit-identical (and exactly identical at `shards = 1`, where the engine
/// delegates to the synchronous sweep).
#[derive(Debug, Clone, Default)]
pub struct ShardedAuctionScheduler {
    engine: ShardedAuction,
    probe: Option<CountingProbe>,
}

impl ShardedAuctionScheduler {
    /// Sharded auction with the paper's ε = 0 rule.
    pub fn paper(shards: ShardCount) -> Self {
        ShardedAuctionScheduler {
            engine: ShardedAuction::new(AuctionConfig::paper(), shards),
            probe: None,
        }
    }

    /// Sharded auction with a positive bid increment ε.
    pub fn with_epsilon(epsilon: f64, shards: ShardCount) -> Self {
        ShardedAuctionScheduler {
            engine: ShardedAuction::new(AuctionConfig::with_epsilon(epsilon), shards),
            ..Self::paper(shards)
        }
    }

    /// The engine's shard count.
    pub fn shards(&self) -> ShardCount {
        self.engine.shards()
    }
}

impl ChunkScheduler for ShardedAuctionScheduler {
    fn name(&self) -> &str {
        "auction_sharded"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let outcome = match &mut self.probe {
            Some(p) => self.engine.run_probed(&problem.instance, p),
            None => self.engine.run(&problem.instance),
        }?;
        Ok(schedule_of(outcome))
    }

    fn set_probes(&mut self, enabled: bool) {
        self.probe = enabled.then(CountingProbe::new);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.probe.as_mut().map(CountingProbe::take_report)
    }
}

/// Schedules each slot with the flat CSR engine
/// ([`p2p_core::csr::FlatAuction`]): the engine reads the instance's own
/// CSR rows and drives the same auction schedules as
/// [`AuctionScheduler`] / [`ShardedAuctionScheduler`] with reusable scratch
/// — zero engine allocations in the hot loop after the first slot.
/// Outcomes are **bit-identical** to the nested-engine schedulers at every
/// shard count (`shards = 1` ≙ `auction`, ≥ 2 ≙ `auction_sharded`,
/// `auto` adapts to the live slot size).
///
/// The engine spawns its slice workers on its first sharded slot and
/// reuses them for every later slot, so a slot loop spawns no threads
/// after warm-up; dropping the scheduler joins them.
#[derive(Debug, Clone, Default)]
pub struct FlatAuctionScheduler {
    engine: FlatAuction,
    /// Reusable engine result: the slot loop runs through `run_into`, so
    /// the only per-slot engine allocation left is the schedule's own
    /// [`Assignment`].
    out: p2p_core::FlatOutcome,
    probe: Option<CountingProbe>,
}

impl FlatAuctionScheduler {
    /// Flat auction with the paper's ε = 0 rule.
    pub fn paper(shards: ShardCount) -> Self {
        FlatAuctionScheduler {
            engine: FlatAuction::new(AuctionConfig::paper(), shards),
            out: p2p_core::FlatOutcome::default(),
            probe: None,
        }
    }

    /// Flat auction with a positive bid increment ε.
    pub fn with_epsilon(epsilon: f64, shards: ShardCount) -> Self {
        FlatAuctionScheduler {
            engine: FlatAuction::new(AuctionConfig::with_epsilon(epsilon), shards),
            ..Self::paper(shards)
        }
    }

    /// The engine's shard count.
    pub fn shards(&self) -> ShardCount {
        self.engine.shards()
    }

    /// Debug-build self-check mirroring the sharded engine's: re-verify
    /// the Theorem 1 certificate after every converged ε > 0 slot.
    fn debug_verify(&self, problem: &SlotProblem) {
        let eps = self.engine.config().epsilon;
        if cfg!(debug_assertions) && eps > 0.0 {
            let outcome = self.out.to_outcome();
            let tol = eps * (problem.instance.request_count() as f64 + 1.0);
            let report = p2p_core::verify_optimality(
                &problem.instance,
                &outcome.assignment,
                &outcome.duals,
                tol,
            );
            debug_assert!(
                report.is_optimal(),
                "flat auction lost its certificate: {:?}",
                report.violations
            );
        }
    }
}

impl ChunkScheduler for FlatAuctionScheduler {
    fn name(&self) -> &str {
        "auction_flat"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let csr = problem.csr_instance();
        match &mut self.probe {
            Some(p) => self.engine.run_into_probed(&csr, &mut self.out, p)?,
            None => self.engine.run_into(&csr, &mut self.out)?,
        }
        self.debug_verify(problem);
        Ok(Schedule {
            assignment: self.out.to_assignment(),
            stats: ScheduleStats { rounds: self.out.rounds(), bids: self.out.bids_submitted() },
        })
    }

    fn set_probes(&mut self, enabled: bool) {
        self.probe = enabled.then(CountingProbe::new);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.probe.as_mut().map(CountingProbe::take_report)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use p2p_core::WelfareInstance;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};

    pub(crate) fn problem() -> SlotProblem {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 1);
        let u1 = b.add_provider(PeerId::new(11), 1);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 0)));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(0.5)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(2.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.0), Cost::new(0.6)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.0), Cost::new(2.2)).unwrap();
        let inst = b.build().unwrap();
        let n = inst.request_count();
        SlotProblem::new(inst, vec![SimDuration::from_secs(3); n]).unwrap()
    }

    #[test]
    fn schedules_to_social_optimum() {
        let p = problem();
        let mut s = AuctionScheduler::paper();
        let out = s.schedule(&p).unwrap();
        assert_eq!(out.welfare(&p), p.instance.optimal_welfare());
        assert!(out.stats.rounds >= 1);
        assert!(out.stats.bids >= 2);
        assert_eq!(s.name(), "auction");
    }

    #[test]
    fn epsilon_variant_schedules() {
        let p = problem();
        let mut s = AuctionScheduler::with_epsilon(0.01);
        let out = s.schedule(&p).unwrap();
        assert!(out.welfare(&p).get() >= p.instance.optimal_welfare().get() - 0.02);
    }

    /// A slot problem with a single provider `peer` at index 0 and one
    /// request from `downstream` worth `v` at cost 0.5.
    pub(crate) fn single_provider_problem(peer: u32, downstream: u32, v: f64) -> SlotProblem {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(peer), 1);
        let chunk = ChunkId::new(VideoId::new(0), downstream);
        let r = b.add_request(RequestId::new(PeerId::new(downstream), chunk));
        b.add_edge(r, u, Valuation::new(v), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        SlotProblem::new(inst, vec![SimDuration::from_secs(3)]).unwrap()
    }

    /// Regression (churn audit): a provider departs and a brand-new peer
    /// takes over its slot order (provider index 0). A reused scheduler
    /// starts every slot from λ = 0, so the newcomer cannot inherit the
    /// departed provider's price.
    #[test]
    fn stale_prices_are_not_misapplied_after_provider_turnover() {
        // Slot 1: provider peer#10 sells out at a high price.
        let slot1 = single_provider_problem(10, 0, 6.0);
        let lambda = SyncAuction::new(AuctionConfig::with_epsilon(0.01))
            .run(&slot1.instance)
            .unwrap()
            .duals
            .lambda[0];
        // Slot 2: peer#10 left; fresh peer#77 occupies provider index 0.
        // Its request is cheap (v−w = 1.5 < slot 1's λ): had slot 1's price
        // leaked in by slot order, the request would have been priced out
        // and welfare lost.
        let slot2 = single_provider_problem(77, 1, 2.0);
        assert!(lambda > 1.5, "slot 1 must leave a price above the newcomer's utility");
        let schedulers: [Box<dyn ChunkScheduler>; 3] = [
            Box::new(AuctionScheduler::with_epsilon(0.01)),
            Box::new(ShardedAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(4))),
            Box::new(FlatAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(4))),
        ];
        for mut s in schedulers {
            s.schedule(&slot1).unwrap();
            let out = s.schedule(&slot2).unwrap();
            assert_eq!(out.assignment.assigned_count(), 1, "{}", s.name());
            assert_eq!(out.welfare(&slot2), slot2.instance.optimal_welfare(), "{}", s.name());
        }
    }

    #[test]
    fn sharded_scheduler_matches_the_optimum_on_a_tiny_slot() {
        let p = problem();
        let mut s = ShardedAuctionScheduler::paper(ShardCount::Fixed(2));
        assert_eq!(s.name(), "auction_sharded");
        assert_eq!(s.shards(), ShardCount::Fixed(2));
        let out = s.schedule(&p).unwrap();
        assert_eq!(out.welfare(&p), p.instance.optimal_welfare());
    }

    #[test]
    fn sharded_scheduler_at_one_shard_equals_the_sequential_scheduler() {
        let p = problem();
        let seq = AuctionScheduler::paper().schedule(&p).unwrap();
        let sharded = ShardedAuctionScheduler::paper(ShardCount::Fixed(1)).schedule(&p).unwrap();
        assert_eq!(seq.assignment, sharded.assignment);
        assert_eq!(seq.stats, sharded.stats);
    }

    #[test]
    fn flat_scheduler_is_bit_identical_to_its_nested_counterparts() {
        let p = problem();
        let seq = AuctionScheduler::paper().schedule(&p).unwrap();
        let mut flat1 = FlatAuctionScheduler::paper(ShardCount::Fixed(1));
        assert_eq!(flat1.name(), "auction_flat");
        assert_eq!(flat1.shards(), ShardCount::Fixed(1));
        let f1 = flat1.schedule(&p).unwrap();
        assert_eq!(f1.assignment, seq.assignment);
        assert_eq!(f1.stats, seq.stats);

        let sharded =
            ShardedAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(2)).schedule(&p).unwrap();
        let f2 =
            FlatAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(2)).schedule(&p).unwrap();
        assert_eq!(f2.assignment, sharded.assignment);
        assert_eq!(f2.stats, sharded.stats);
    }

    /// Probes are an observer: enabling them changes no outcome, and the
    /// taken report agrees with the schedule's own stats.
    #[test]
    fn probes_observe_without_perturbing_the_schedule() {
        let p = problem();
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(2)] {
            let bare = FlatAuctionScheduler::with_epsilon(0.01, shards).schedule(&p).unwrap();
            let mut probed = FlatAuctionScheduler::with_epsilon(0.01, shards);
            probed.set_probes(true);
            let out = probed.schedule(&p).unwrap();
            assert_eq!(out.assignment, bare.assignment);
            assert_eq!(out.stats, bare.stats);
            let report = probed.take_probe_report().expect("probes are on");
            assert_eq!(report.bids, out.stats.bids);
            assert_eq!(report.rounds, out.stats.rounds);
            assert_eq!(report.assigned, out.assignment.assigned_count() as u64);
            assert!(report.slack.abs() <= 0.01 * (p.instance.request_count() as f64 + 1.0));
            // Taking drained the accumulator.
            assert!(probed.take_probe_report().expect("still on").is_empty());
            probed.set_probes(false);
            assert!(probed.take_probe_report().is_none());
        }
        // The nested schedulers expose the same observer contract.
        let mut sync = AuctionScheduler::with_epsilon(0.01);
        sync.set_probes(true);
        let out = sync.schedule(&p).unwrap();
        let report = sync.take_probe_report().expect("probes are on");
        assert_eq!(report.bids, out.stats.bids);
        let mut sharded = ShardedAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(2));
        sharded.set_probes(true);
        let out = sharded.schedule(&p).unwrap();
        let report = sharded.take_probe_report().expect("probes are on");
        assert_eq!(report.bids, out.stats.bids);
    }
}
