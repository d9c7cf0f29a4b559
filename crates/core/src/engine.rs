//! Synchronous (Gauss–Seidel) execution of the distributed auction.
//!
//! Runs the exact bidder/auctioneer logic of [`crate::bidder`] and
//! [`crate::auctioneer`] in deterministic rounds: each round sweeps the
//! unassigned requests in index order, letting each submit its bid
//! immediately (prices update as the sweep progresses). The auction
//! converges when a full round produces no bids — precisely the paper's
//! "no auctioneer wishes to change its allocation and no bidder wishes to
//! bid again". Prices only rise within a run, so a request that abstains
//! as unprofitable or candidate-less could never bid again: the sweep
//! retires it and stops re-scanning it, which changes no outcome.
//!
//! This is the readable reference oracle the other engines are checked
//! against; the message-level execution with latencies and faults lives
//! in [`crate::swarm`].

use crate::auctioneer::{Auctioneer, BidOutcome};
use crate::bidder::{decide_row_bid, AbstainReason, BidDecision};
use crate::instance::{CsrData, WelfareInstance};
use crate::solution::{Assignment, DualSolution};
use p2p_metrics::{AuctionProbe, NoProbe};
use p2p_types::{P2pError, SimTime};
use serde::{Deserialize, Serialize};

/// Auction engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuctionConfig {
    /// Bid increment ε. `0` is the paper-faithful rule (abstain on ties);
    /// positive values trade ≤ `n·ε` welfare for guaranteed termination.
    pub epsilon: f64,
    /// Safety cap on rounds before declaring divergence.
    pub max_rounds: u64,
}

impl AuctionConfig {
    /// The paper's configuration: ε = 0.
    pub fn paper() -> Self {
        AuctionConfig { epsilon: 0.0, max_rounds: 1_000_000 }
    }

    /// Paper configuration with a positive ε (Bertsekas ε-complementary
    /// slackness).
    pub fn with_epsilon(epsilon: f64) -> Self {
        AuctionConfig { epsilon, ..Self::paper() }
    }
}

impl Default for AuctionConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of a converged auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuctionOutcome {
    /// The binary primal solution (`a^{(c)}_{u→d}`).
    pub assignment: Assignment,
    /// The dual solution (`λ_u`, `η^{(c)}_d`).
    pub duals: DualSolution,
    /// Rounds executed (including the final quiet round).
    pub rounds: u64,
    /// Total bids submitted.
    pub bids_submitted: u64,
    /// Whether the auction reached quiescence (always `true` for outcomes
    /// returned by [`SyncAuction::run`]; kept for symmetry with the
    /// distributed engine).
    pub converged: bool,
}

/// The synchronous auction engine.
///
/// # Examples
///
/// See the crate-level example; `SyncAuction` is the default way to solve a
/// [`WelfareInstance`].
#[derive(Debug, Clone, Default)]
pub struct SyncAuction {
    config: AuctionConfig,
}

impl SyncAuction {
    /// Creates an engine with the given configuration.
    pub fn new(config: AuctionConfig) -> Self {
        SyncAuction { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AuctionConfig {
        &self.config
    }

    /// Runs the auction to convergence on `instance`.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if quiescence is not reached
    /// within `max_rounds` (possible only with adversarial floating-point
    /// patterns; the paper's Theorem 1 guarantees termination under its
    /// sufficiency assumption).
    pub fn run(&self, instance: &WelfareInstance) -> Result<AuctionOutcome, P2pError> {
        self.run_probed(instance, &mut NoProbe)
    }

    /// [`SyncAuction::run`] with an observation probe. The engine is generic
    /// over the probe, so `run` (which passes [`NoProbe`]) monomorphizes to
    /// the uninstrumented loop — outcomes are bit-identical either way
    /// (property-tested).
    pub fn run_probed(
        &self,
        instance: &WelfareInstance,
        probe: &mut impl AuctionProbe,
    ) -> Result<AuctionOutcome, P2pError> {
        let epsilon = self.config.epsilon;
        let (mut auctioneers, mut eff_price) = zero_price_auctioneers(instance);

        let mut assigned: Vec<Option<usize>> = vec![None; instance.request_count()];
        let mut retired: Vec<bool> = vec![false; instance.request_count()];
        let mut rounds = 0u64;
        let mut bids_submitted = 0u64;

        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(P2pError::AuctionDiverged { iterations: rounds - 1 });
            }
            let mut bids_this_round = 0u64;
            let mut conflicts_this_round = 0u64;
            let mut retired_this_round = 0u64;
            for r in 0..instance.request_count() {
                if assigned[r].is_some() || retired[r] {
                    continue;
                }
                match decide_row_bid(instance.request(r), |p| eff_price[p], epsilon) {
                    // Prices are monotone within a run, so an unprofitable
                    // (or candidate-less) request stays so forever and is
                    // never re-scanned. A zero-margin tie can still be
                    // broken by a second-best price rise, so it stays live.
                    BidDecision::Abstain {
                        reason: AbstainReason::Unprofitable | AbstainReason::NoCandidates,
                    } => {
                        retired[r] = true;
                        retired_this_round += 1;
                    }
                    BidDecision::Abstain { reason: AbstainReason::ZeroMargin } => {}
                    BidDecision::Bid { edge, provider, amount } => {
                        bids_this_round += 1;
                        match auctioneers[provider].handle_bid(r, amount) {
                            BidOutcome::Rejected { .. } => {
                                // Unreachable with up-to-date prices: the
                                // bidder only bids strictly above λ.
                                debug_assert!(false, "synchronous bid rejected");
                            }
                            BidOutcome::Accepted { evicted, new_price } => {
                                assigned[r] = Some(edge);
                                if let Some(loser) = evicted {
                                    assigned[loser] = None;
                                    conflicts_this_round += 1;
                                }
                                if let Some(p) = new_price {
                                    probe.price_change(
                                        provider,
                                        eff_price[provider],
                                        p,
                                        SimTime::ZERO,
                                    );
                                    eff_price[provider] = p;
                                }
                            }
                        }
                    }
                }
            }
            bids_submitted += bids_this_round;
            probe.round(rounds, bids_this_round, conflicts_this_round, 0, retired_this_round);
            if bids_this_round == 0 {
                break;
            }
        }

        let lambda =
            final_prices_from(instance, auctioneers.iter().map(Auctioneer::price).collect());
        let outcome = AuctionOutcome {
            assignment: Assignment::new(assigned),
            duals: DualSolution::from_prices(instance, lambda),
            rounds,
            bids_submitted,
            converged: true,
        };
        report_complete(instance, &outcome, probe);
        Ok(outcome)
    }
}

/// The auctioneers of a run, every one at λ = 0, with the bidder-visible
/// prices: +∞ for zero-capacity providers so nobody targets them.
pub(crate) fn zero_price_auctioneers(instance: &WelfareInstance) -> (Vec<Auctioneer>, Vec<f64>) {
    instance
        .providers()
        .map(|p| match p.capacity.chunks_per_slot() {
            0 => (Auctioneer::new(0), f64::INFINITY),
            cap => (Auctioneer::new(cap), 0.0),
        })
        .unzip()
}

/// Emits a converged run's Theorem 1 certificate (the duality gap bounds
/// the welfare loss) to the probe; only computed when someone listens.
pub fn report_complete<P: AuctionProbe>(
    instance: &WelfareInstance,
    outcome: &AuctionOutcome,
    probe: &mut P,
) {
    if probe.enabled() {
        let slack = outcome.duals.objective(instance) - outcome.assignment.welfare(instance).get();
        probe.run_complete(
            outcome.rounds,
            outcome.bids_submitted,
            outcome.assignment.assigned_count() as u64,
            slack,
        );
    }
}

/// Reported final prices from raw λ values: the auctioneers' λ for active
/// providers; for zero-capacity providers (which constrain nothing but
/// still appear in dual constraint (6)), the smallest feasible standalone
/// price `max(0, max incident v−w)`.
pub fn final_prices_from(instance: &WelfareInstance, mut lambda: Vec<f64>) -> Vec<f64> {
    standalone_prices(&instance.data, &mut lambda);
    lambda
}

/// Overwrites each zero-capacity provider's λ with its standalone price
/// `max(0, max incident v − w)`, in one pass over the edges.
pub(crate) fn standalone_prices(data: &CsrData, lambda: &mut [f64]) {
    if !data.capacity.contains(&0) {
        return;
    }
    for (u, &cap) in data.capacity.iter().enumerate() {
        if cap == 0 {
            lambda[u] = 0.0;
        }
    }
    for (&u, &utility) in data.edge_provider.iter().zip(&data.edge_utility) {
        let u = u as usize;
        if data.capacity[u] == 0 && utility > lambda[u] {
            lambda[u] = utility;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Utility, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    /// 2 requests competing for 1 unit at one provider plus a fallback.
    fn competitive_instance() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let cheap = b.add_provider(PeerId::new(100), 1);
        let costly = b.add_provider(PeerId::new(101), 2);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        b.add_edge(r0, cheap, Valuation::new(6.0), Cost::new(1.0)).unwrap(); // 5
        b.add_edge(r0, costly, Valuation::new(6.0), Cost::new(4.0)).unwrap(); // 2
        b.add_edge(r1, cheap, Valuation::new(5.0), Cost::new(1.0)).unwrap(); // 4
        b.add_edge(r1, costly, Valuation::new(5.0), Cost::new(3.5)).unwrap(); // 1.5
        b.build().unwrap()
    }

    #[test]
    fn reaches_exact_optimum_on_competitive_instance() {
        let inst = competitive_instance();
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        assert!(out.converged);
        // Optimal: r0 at cheap (5) + r1 at costly (1.5) = 6.5, beating
        // r1 at cheap + r0 at costly = 4 + 2 = 6.
        assert_eq!(out.assignment.welfare(&inst), inst.optimal_welfare());
        assert!(out.assignment.validate(&inst).is_ok());
        assert!(out.duals.validate(&inst, 1e-9).is_ok());
    }

    #[test]
    fn unprofitable_requests_stay_unassigned() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(9), 5);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(0.8), Cost::new(9.0)).unwrap();
        let inst = b.build().unwrap();
        let out = SyncAuction::default().run(&inst).unwrap();
        assert_eq!(out.assignment.assigned_count(), 0);
        assert_eq!(out.assignment.welfare(&inst), Utility::ZERO);
    }

    #[test]
    fn capacity_zero_providers_are_ignored() {
        let mut b = WelfareInstance::builder();
        let dead = b.add_provider(PeerId::new(9), 0);
        let live = b.add_provider(PeerId::new(10), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, dead, Valuation::new(8.0), Cost::new(0.0)).unwrap();
        b.add_edge(r, live, Valuation::new(8.0), Cost::new(2.0)).unwrap();
        let inst = b.build().unwrap();
        let out = SyncAuction::default().run(&inst).unwrap();
        assert_eq!(out.assignment.provider_of(&inst, 0), Some(live));
        // The dead provider's reported λ keeps the dual feasible.
        assert!(out.duals.validate(&inst, 1e-9).is_ok());
        assert!(out.duals.lambda[dead] >= 8.0 - 1e-9);
    }

    #[test]
    fn empty_instance_converges_immediately() {
        let inst = WelfareInstance::builder().build().unwrap();
        let out = SyncAuction::default().run(&inst).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bids_submitted, 0);
    }

    #[test]
    fn epsilon_resolves_degenerate_ties() {
        // Two identical requests, two identical providers: ε = 0 abstains
        // (both see zero margin) leaving welfare on the table; ε > 0 assigns
        // both.
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 1);
        let u1 = b.add_provider(PeerId::new(101), 1);
        for d in 0..2 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
            b.add_edge(r, u1, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        }
        let inst = b.build().unwrap();

        let stalled = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        assert_eq!(stalled.assignment.assigned_count(), 0, "paper rule deadlocks on ties");

        let out = SyncAuction::new(AuctionConfig::with_epsilon(0.01)).run(&inst).unwrap();
        assert_eq!(out.assignment.assigned_count(), 2);
        let optimal = inst.optimal_welfare().get();
        assert!(out.assignment.welfare(&inst).get() >= optimal - 2.0 * 0.01);
    }

    #[test]
    fn price_trace_records_monotone_prices() {
        let inst = competitive_instance();
        let mut trace = p2p_metrics::PriceRecorder::new();
        let out = SyncAuction::new(AuctionConfig::paper()).run_probed(&inst, &mut trace).unwrap();
        assert!(!trace.points.is_empty());
        let mut last: Vec<f64> = vec![0.0; inst.provider_count()];
        for pc in &trace.points {
            assert!(pc.price >= last[pc.provider], "price decreased in trace");
            assert!(pc.round <= out.rounds);
            last[pc.provider] = pc.price;
        }
    }

    #[test]
    fn prices_support_the_assignment_as_cs_requires() {
        let inst = competitive_instance();
        let out = SyncAuction::default().run(&inst).unwrap();
        // Complementary slackness condition 2: every winner is served by an
        // argmax provider at final prices.
        for r in 0..inst.request_count() {
            if let Some(u) = out.assignment.provider_of(&inst, r) {
                let best = inst
                    .request(r)
                    .edges()
                    .map(|e| e.utility().get() - out.duals.lambda[e.provider])
                    .fold(f64::NEG_INFINITY, f64::max);
                let chosen = inst
                    .request(r)
                    .edges()
                    .find(|e| e.provider == u)
                    .map(|e| e.utility().get() - out.duals.lambda[u])
                    .unwrap();
                assert!(chosen >= best - 1e-9);
            }
        }
    }

    #[test]
    fn divergence_guard_fires_with_tiny_round_budget() {
        let inst = competitive_instance();
        let cfg = AuctionConfig { max_rounds: 0, ..AuctionConfig::paper() };
        let err = SyncAuction::new(cfg).run(&inst).unwrap_err();
        assert!(matches!(err, P2pError::AuctionDiverged { .. }));
    }
}
