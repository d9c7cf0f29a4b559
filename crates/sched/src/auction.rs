//! The paper's scheduler: the primal-dual auction (sequential and sharded).

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::{
    AuctionConfig, AuctionOutcome, FlatAuction, ShardCount, ShardedAuction, SyncAuction,
};
use p2p_metrics::{CountingProbe, EngineReport};
use p2p_types::{PeerId, Result};
use std::collections::HashMap;

/// Slot-to-slot price carry-over for warm-started auction schedulers.
///
/// # Churn audit
///
/// Prices are keyed by **provider peer id**, never by slot index: between
/// slots the provider list can reorder arbitrarily, a provider can leave,
/// and a brand-new peer can take over the departed provider's position in
/// the next slot's provider order. Because seeding looks prices up by
/// `PeerId` (and the map is rebuilt from scratch after every slot, so
/// departed providers' entries do not linger), a new provider always starts
/// at price 0 and can never inherit a stale λ from whoever previously held
/// its slot order — the regression tests below pin this. `p2p-streaming`
/// allocates peer ids monotonically and never recycles one, so id reuse
/// cannot alias either. Should a caller hand-build instances that *do*
/// recycle peer ids, a mis-seeded price is still only a warm hint: the
/// engines' CS 1 repair loop (`run_warm`) zeroes unsupported prices, so the
/// Theorem 1 `n·ε` certificate survives even that abuse.
#[derive(Debug, Clone, Default)]
pub(crate) struct PriceCarry {
    by_peer: HashMap<PeerId, f64>,
}

impl PriceCarry {
    /// Whether any prices were carried from a previous slot.
    pub(crate) fn is_empty(&self) -> bool {
        self.by_peer.is_empty()
    }

    /// The carried price vector for this slot's provider order (unknown
    /// peers start at 0).
    pub(crate) fn seed(&self, problem: &SlotProblem) -> Vec<f64> {
        problem
            .instance
            .providers()
            .map(|p| self.by_peer.get(&p.peer).copied().unwrap_or(0.0))
            .collect()
    }

    /// Replaces the carry with this slot's final prices (full rebuild, so
    /// departed providers are forgotten immediately).
    fn absorb(&mut self, problem: &SlotProblem, outcome: &AuctionOutcome) {
        self.absorb_prices(problem, &outcome.duals.lambda);
    }

    /// [`PriceCarry::absorb`] from a bare price vector (what the flat
    /// scheduler's reusable outcome exposes).
    pub(crate) fn absorb_prices(&mut self, problem: &SlotProblem, lambda: &[f64]) {
        self.by_peer =
            problem.instance.providers().zip(lambda).map(|(p, &l)| (p.peer, l)).collect();
    }

    /// Number of peers with a carried price (test observability).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_peer.len()
    }

    /// The carried price for one peer (test observability).
    #[cfg(test)]
    fn price_of(&self, peer: PeerId) -> Option<f64> {
        self.by_peer.get(&peer).copied()
    }
}

/// The carry protocol shared by both auction schedulers: run cold on the
/// first slot (or with warm-starting off), run warm from the carried
/// prices otherwise, and absorb the slot's final prices back into the
/// carry — keeping the two schedulers' slot-to-slot semantics identical by
/// construction.
pub(crate) fn schedule_with_carry(
    problem: &SlotProblem,
    warm_start: bool,
    prior: &mut PriceCarry,
    probe: &mut Option<CountingProbe>,
    run_cold: impl FnOnce(
        &p2p_core::WelfareInstance,
        &mut Option<CountingProbe>,
    ) -> Result<AuctionOutcome>,
    run_warm: impl FnOnce(
        &p2p_core::WelfareInstance,
        &[f64],
        &mut Option<CountingProbe>,
    ) -> Result<AuctionOutcome>,
) -> Result<Schedule> {
    let instance = &problem.instance;
    let outcome = if warm_start && !prior.is_empty() {
        run_warm(instance, &prior.seed(problem), probe)?
    } else {
        run_cold(instance, probe)?
    };
    if warm_start {
        prior.absorb(problem, &outcome);
    }
    Ok(Schedule {
        assignment: outcome.assignment,
        stats: ScheduleStats { rounds: outcome.rounds, bids: outcome.bids_submitted },
    })
}

/// Schedules each slot by running the distributed auction to convergence
/// (synchronous execution; the message-level execution with latencies is
/// exercised separately by the Fig. 2 harness).
///
/// With [`AuctionScheduler::warm_start`] enabled the scheduler carries the
/// previous slot's final prices across slots via `PriceCarry` and seeds
/// the next auction from them through [`SyncAuction::run_warm`] —
/// locality-aware swarms change little between slots, so most prices are
/// already near equilibrium and convergence needs far fewer bids. The `n·ε`
/// optimality certificate is preserved (see `run_warm`'s repair loop), but
/// tie-breaks can differ from a cold run, so warm outcomes are ε-equivalent
/// rather than bit-identical.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct AuctionScheduler {
    engine: SyncAuction,
    warm_start: bool,
    prior: PriceCarry,
    probe: Option<CountingProbe>,
}

impl AuctionScheduler {
    /// Auction with the paper's ε = 0 rule.
    pub fn paper() -> Self {
        AuctionScheduler {
            engine: SyncAuction::new(AuctionConfig::paper()),
            warm_start: false,
            prior: PriceCarry::default(),
            probe: None,
        }
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

    /// Enables slot-to-slot price warm-starting (builder-style).
    #[must_use]
    pub fn warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Whether warm-starting is enabled.
    pub fn is_warm_start(&self) -> bool {
        self.warm_start
    }
}

impl ChunkScheduler for AuctionScheduler {
    fn name(&self) -> &str {
        if self.warm_start {
            "auction_warm"
        } else {
            "auction"
        }
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let engine = &self.engine;
        schedule_with_carry(
            problem,
            self.warm_start,
            &mut self.prior,
            &mut self.probe,
            |inst, probe| match probe {
                Some(p) => engine.run_probed(inst, p),
                None => engine.run(inst),
            },
            |inst, prices, probe| match probe {
                Some(p) => engine.run_warm_probed(inst, prices, p),
                None => engine.run_warm(inst, prices),
            },
        )
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
///
/// [`ShardedAuctionScheduler::warm_start`] composes sharding with
/// slot-to-slot price carry-over, reusing the identical `PriceCarry` and
/// `run_warm` repair semantics as the sequential scheduler.
#[derive(Debug, Clone, Default)]
pub struct ShardedAuctionScheduler {
    engine: ShardedAuction,
    warm_start: bool,
    prior: PriceCarry,
    probe: Option<CountingProbe>,
}

impl ShardedAuctionScheduler {
    /// Sharded auction with the paper's ε = 0 rule.
    pub fn paper(shards: ShardCount) -> Self {
        ShardedAuctionScheduler {
            engine: ShardedAuction::new(AuctionConfig::paper(), shards),
            warm_start: false,
            prior: PriceCarry::default(),
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

    /// Enables slot-to-slot price warm-starting (builder-style).
    #[must_use]
    pub fn warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Whether warm-starting is enabled.
    pub fn is_warm_start(&self) -> bool {
        self.warm_start
    }
}

impl ChunkScheduler for ShardedAuctionScheduler {
    fn name(&self) -> &str {
        if self.warm_start {
            "auction_sharded_warm"
        } else {
            "auction_sharded"
        }
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let engine = &self.engine;
        schedule_with_carry(
            problem,
            self.warm_start,
            &mut self.prior,
            &mut self.probe,
            |inst, probe| match probe {
                Some(p) => engine.run_probed(inst, p),
                None => engine.run(inst),
            },
            |inst, prices, probe| match probe {
                Some(p) => engine.run_warm_probed(inst, prices, p),
                None => engine.run_warm(inst, prices),
            },
        )
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
/// [`FlatAuctionScheduler::warm_start`] composes with slot-to-slot price
/// carry-over through the same `PriceCarry` as the nested schedulers.
/// The engine spawns its slice workers on its first sharded slot and
/// reuses them for every later slot, so a slot loop spawns no threads
/// after warm-up; dropping the scheduler joins them.
#[derive(Debug, Clone, Default)]
pub struct FlatAuctionScheduler {
    engine: FlatAuction,
    warm_start: bool,
    prior: PriceCarry,
    /// Reusable engine result: the slot loop runs through
    /// `run_into`/`run_warm_into`, so the only per-slot engine allocation
    /// left is the schedule's own [`Assignment`].
    out: p2p_core::FlatOutcome,
    probe: Option<CountingProbe>,
}

impl FlatAuctionScheduler {
    /// Flat auction with the paper's ε = 0 rule.
    pub fn paper(shards: ShardCount) -> Self {
        FlatAuctionScheduler {
            engine: FlatAuction::new(AuctionConfig::paper(), shards),
            warm_start: false,
            prior: PriceCarry::default(),
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

    /// Enables slot-to-slot price warm-starting (builder-style).
    #[must_use]
    pub fn warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Whether warm-starting is enabled.
    pub fn is_warm_start(&self) -> bool {
        self.warm_start
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
        if self.warm_start {
            "auction_flat_warm"
        } else {
            "auction_flat"
        }
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let csr = problem.csr_instance();
        let seed = (self.warm_start && !self.prior.is_empty()).then(|| self.prior.seed(problem));
        match (&mut self.probe, seed) {
            (Some(p), Some(seed)) => {
                self.engine.run_warm_into_probed(&csr, &seed, &mut self.out, p)?;
            }
            (Some(p), None) => self.engine.run_into_probed(&csr, &mut self.out, p)?,
            (None, Some(seed)) => self.engine.run_warm_into(&csr, &seed, &mut self.out)?,
            (None, None) => self.engine.run_into(&csr, &mut self.out)?,
        }
        self.debug_verify(problem);
        if self.warm_start {
            self.prior.absorb_prices(problem, self.out.lambda());
        }
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
        assert!(!s.is_warm_start());
    }

    #[test]
    fn epsilon_variant_schedules() {
        let p = problem();
        let mut s = AuctionScheduler::with_epsilon(0.01);
        let out = s.schedule(&p).unwrap();
        assert!(out.welfare(&p).get() >= p.instance.optimal_welfare().get() - 0.02);
    }

    #[test]
    fn warm_variant_carries_prices_across_slots() {
        let p = problem();
        let mut s = AuctionScheduler::paper().warm_start();
        assert_eq!(s.name(), "auction_warm");
        let first = s.schedule(&p).unwrap();
        assert_eq!(first.welfare(&p), p.instance.optimal_welfare());
        // Re-scheduling the identical slot warm-starts from the converged
        // prices; welfare is unchanged and no extra bids are needed.
        let second = s.schedule(&p).unwrap();
        assert_eq!(second.welfare(&p), p.instance.optimal_welfare());
        assert!(second.stats.bids <= first.stats.bids);
    }

    #[test]
    fn warm_variant_survives_provider_turnover() {
        let mut s = AuctionScheduler::with_epsilon(0.01).warm_start();
        let p = problem();
        s.schedule(&p).unwrap();
        // Next slot: one carried provider, one brand-new peer.
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 1);
        let u2 = b.add_provider(PeerId::new(99), 1);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 1)));
        b.add_edge(r0, u0, Valuation::new(4.0), Cost::new(0.5)).unwrap();
        b.add_edge(r0, u2, Valuation::new(4.0), Cost::new(1.5)).unwrap();
        let inst = b.build().unwrap();
        let next = SlotProblem::new(inst, vec![SimDuration::from_secs(3)]).unwrap();
        let out = s.schedule(&next).unwrap();
        assert!(
            out.welfare(&next).get() >= next.instance.optimal_welfare().get() - 2.0 * 0.01 - 1e-9
        );
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
    /// takes over its slot order (provider index 0). The carry is keyed by
    /// peer id, so the newcomer must start at price 0 — not inherit the
    /// departed provider's λ — and the departed entry must be dropped from
    /// the carry immediately.
    #[test]
    fn stale_prices_are_not_misapplied_after_provider_turnover() {
        let mut s = AuctionScheduler::with_epsilon(0.01).warm_start();
        // Slot 1: provider peer#10 sells out at a high price.
        let slot1 = single_provider_problem(10, 0, 6.0);
        s.schedule(&slot1).unwrap();
        let carried = s.prior.price_of(PeerId::new(10)).unwrap();
        assert!(carried > 0.0, "slot 1 must leave a positive carried price");
        // Slot 2: peer#10 left; fresh peer#77 occupies provider index 0.
        let slot2 = single_provider_problem(77, 1, 2.0);
        assert_eq!(s.prior.seed(&slot2), vec![0.0], "a new peer must not inherit a stale price");
        let out = s.schedule(&slot2).unwrap();
        // The newcomer's request is cheap (v−w = 1.5 < carried λ): had the
        // stale price leaked in by slot order, the request would have been
        // priced out and welfare lost.
        assert_eq!(out.assignment.assigned_count(), 1);
        assert_eq!(out.welfare(&slot2), slot2.instance.optimal_welfare());
        // The departed peer's entry is gone from the carry entirely.
        assert_eq!(s.prior.len(), 1);
        assert!(s.prior.price_of(PeerId::new(10)).is_none());
        assert!(s.prior.price_of(PeerId::new(77)).is_some());
    }

    /// The same turnover guarantee holds for the sharded warm scheduler,
    /// which shares the carry implementation.
    #[test]
    fn sharded_warm_scheduler_survives_provider_turnover() {
        let mut s = ShardedAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(4)).warm_start();
        assert_eq!(s.name(), "auction_sharded_warm");
        let slot1 = single_provider_problem(10, 0, 6.0);
        s.schedule(&slot1).unwrap();
        let slot2 = single_provider_problem(77, 1, 2.0);
        assert_eq!(s.prior.seed(&slot2), vec![0.0]);
        let out = s.schedule(&slot2).unwrap();
        assert_eq!(out.assignment.assigned_count(), 1);
        assert_eq!(out.welfare(&slot2), slot2.instance.optimal_welfare());
    }

    #[test]
    fn sharded_scheduler_matches_the_optimum_on_a_tiny_slot() {
        let p = problem();
        let mut s = ShardedAuctionScheduler::paper(ShardCount::Fixed(2));
        assert_eq!(s.name(), "auction_sharded");
        assert_eq!(s.shards(), ShardCount::Fixed(2));
        assert!(!s.is_warm_start());
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
        assert!(!flat1.is_warm_start());
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

    /// The turnover guarantee holds for the flat warm scheduler, which
    /// shares the carry implementation with the nested schedulers.
    #[test]
    fn flat_warm_scheduler_survives_provider_turnover() {
        let mut s = FlatAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(4)).warm_start();
        assert_eq!(s.name(), "auction_flat_warm");
        assert!(s.is_warm_start());
        let slot1 = single_provider_problem(10, 0, 6.0);
        s.schedule(&slot1).unwrap();
        let slot2 = single_provider_problem(77, 1, 2.0);
        assert_eq!(s.prior.seed(&slot2), vec![0.0]);
        let out = s.schedule(&slot2).unwrap();
        assert_eq!(out.assignment.assigned_count(), 1);
        assert_eq!(out.welfare(&slot2), slot2.instance.optimal_welfare());
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

    /// Warm flat and warm nested schedulers stay bit-identical across a
    /// slot sequence (same carry, same engines).
    #[test]
    fn flat_warm_matches_nested_warm_across_slots() {
        let mut nested =
            ShardedAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(2)).warm_start();
        let mut flat = FlatAuctionScheduler::with_epsilon(0.01, ShardCount::Fixed(2)).warm_start();
        for slot in [problem(), problem(), single_provider_problem(10, 0, 6.0), problem()] {
            let a = nested.schedule(&slot).unwrap();
            let b = flat.schedule(&slot).unwrap();
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.stats, b.stats);
        }
    }
}
