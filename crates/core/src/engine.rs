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
use crate::bidder::{decide_bid, AbstainReason, BidDecision, EdgeView};
use crate::instance::WelfareInstance;
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

/// ε-scaling schedule for [`SyncAuction::run_scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonScaling {
    /// First-phase ε (scaled to the instance's value range; the paper's
    /// valuations cap at 8, so 1.0 is a good default).
    pub initial: f64,
    /// Geometric decay per phase (> 1).
    pub decay: f64,
    /// ε of the final phase — the accuracy actually guaranteed
    /// (`n · final_epsilon`).
    pub final_epsilon: f64,
}

impl EpsilonScaling {
    /// Defaults suited to the paper's valuation range: 1.0 → ×¼ → 10⁻⁶.
    pub fn paper_range() -> Self {
        EpsilonScaling { initial: 1.0, decay: 4.0, final_epsilon: 1e-6 }
    }

    pub(crate) fn validate(&self) -> Result<(), P2pError> {
        if !(self.initial.is_finite() && self.initial > 0.0) {
            return Err(P2pError::invalid_config("scaling.initial", "must be positive"));
        }
        if !(self.decay.is_finite() && self.decay > 1.0) {
            return Err(P2pError::invalid_config("scaling.decay", "must exceed 1"));
        }
        if !(self.final_epsilon.is_finite() && self.final_epsilon > 0.0) {
            return Err(P2pError::invalid_config("scaling.final_epsilon", "must be positive"));
        }
        if self.final_epsilon > self.initial {
            return Err(P2pError::invalid_config(
                "scaling.final_epsilon",
                "must not exceed the initial epsilon",
            ));
        }
        Ok(())
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
        self.run_from(instance, None, self.config.epsilon, &mut NoProbe)
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
        self.run_from(instance, None, self.config.epsilon, probe)
    }

    /// Runs the auction warm-started from `prior_prices` — typically the
    /// previous slot's final `λ` vector, mapped by the caller onto this
    /// instance's provider order (missing entries default to 0). On
    /// slot-to-slot reoptimization most prices are already near their new
    /// equilibrium, so the auction converges in a fraction of the bids a
    /// cold start needs (Bertsekas-style auction reoptimization).
    ///
    /// # Price clamping
    ///
    /// Carried prices are clamped to stay ε-valid: non-finite or negative
    /// entries become 0, and every price is relaxed by the engine's ε
    /// (`max(p − ε, 0)`), mirroring the inter-phase relaxation of
    /// [`SyncAuction::run_scaled`] — a winner may have overbid its value by
    /// up to ε last slot, and carrying that price verbatim would price the
    /// winner out of its own slot.
    ///
    /// # Certificate preservation
    ///
    /// A carried price can be *unsupported* by this slot's demand: the
    /// provider ends with unsold capacity at `λ > 0`, violating CS 1 of
    /// Theorem 1 (prices raised by actual bids never do — a price only
    /// rises when the provider is full, and eviction keeps it full). After
    /// each converged run the engine therefore zeroes every unsupported
    /// warm price and reruns; each pass permanently clears at least one
    /// provider, so at most `provider_count` extra runs occur (zero in the
    /// common little-changed-slot case), and the final outcome satisfies
    /// the same `n·ε` certificate as a cold run.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_core::{WelfareInstance, SyncAuction, AuctionConfig, verify_optimality};
    /// use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost};
    ///
    /// let mut b = WelfareInstance::builder();
    /// let u = b.add_provider(PeerId::new(9), 1);
    /// let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
    /// let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 0)));
    /// b.add_edge(r0, u, Valuation::new(5.0), Cost::new(1.0)).unwrap();
    /// b.add_edge(r1, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
    /// let inst = b.build().unwrap();
    ///
    /// let engine = SyncAuction::new(AuctionConfig::paper());
    /// let cold = engine.run(&inst).unwrap();
    /// // Re-run the same slot from the converged prices: quiescent at once.
    /// let warm = engine.run_warm(&inst, &cold.duals.lambda).unwrap();
    /// assert_eq!(warm.assignment.welfare(&inst), cold.assignment.welfare(&inst));
    /// let report = verify_optimality(&inst, &warm.assignment, &warm.duals, 1e-9);
    /// assert!(report.is_optimal());
    /// ```
    pub fn run_warm(
        &self,
        instance: &WelfareInstance,
        prior_prices: &[f64],
    ) -> Result<AuctionOutcome, P2pError> {
        self.run_warm_probed(instance, prior_prices, &mut NoProbe)
    }

    /// [`SyncAuction::run_warm`] with an observation probe (every repair
    /// pass reports into the same probe).
    pub fn run_warm_probed(
        &self,
        instance: &WelfareInstance,
        prior_prices: &[f64],
        probe: &mut impl AuctionProbe,
    ) -> Result<AuctionOutcome, P2pError> {
        let eps = self.config.epsilon;
        run_warm_with(instance, prior_prices, eps, |prices| {
            self.run_from(instance, prices, eps, &mut *probe)
        })
    }

    /// Runs the auction with ε-scaling (Bertsekas 1988): phases with
    /// geometrically shrinking ε, each warm-starting from the previous
    /// phase's (ε-relaxed) prices. Large early ε moves prices in big steps,
    /// ending any price war in few bids where a flat small ε needs
    /// `value range / ε` of them — see the twin-values test below for the
    /// order-of-magnitude difference.
    ///
    /// # Guarantee
    ///
    /// The welfare is within `n · initial` of optimal, and on generic
    /// (tie-free) instances within `n · final_epsilon`. The stronger bound
    /// does not hold universally: carried prices can preserve exact
    /// cross-provider ties created by earlier phases, and a request parked
    /// on the wrong side of such a tie never moves (assigned bidders only
    /// move when evicted). Certifying the tight bound in general requires
    /// forward-*reverse* auction phases (Bertsekas & Castañon 1989), which
    /// are out of scope; use a flat-ε [`SyncAuction::run`] when the
    /// `n·ε` certificate matters more than speed.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any phase exceeds
    /// `max_rounds`, or [`P2pError::InvalidConfig`] for invalid scaling
    /// parameters.
    pub fn run_scaled(
        &self,
        instance: &WelfareInstance,
        scaling: EpsilonScaling,
    ) -> Result<AuctionOutcome, P2pError> {
        scaling.validate()?;
        let mut epsilon = scaling.initial;
        let mut prices: Option<Vec<f64>> = None;
        let mut rounds = 0;
        let mut bids = 0;
        loop {
            let last_phase = epsilon <= scaling.final_epsilon;
            let eps = epsilon.max(scaling.final_epsilon);
            let outcome = self.run_from(instance, prices.as_deref(), eps, &mut NoProbe)?;
            rounds += outcome.rounds;
            bids += outcome.bids_submitted;
            if last_phase {
                return Ok(AuctionOutcome { rounds, bids_submitted: bids, ..outcome });
            }
            // Carry prices relaxed by the phase's ε: a winner can overbid
            // its value by up to ε, and carrying that price verbatim would
            // price the winner itself out of the next phase (free disposal
            // makes overbid prices sticky, unlike the symmetric assignment
            // problem). Subtracting ε restores ε-complementary slackness
            // for the next phase.
            prices = Some(outcome.duals.lambda.iter().map(|l| (l - eps).max(0.0)).collect());
            epsilon /= scaling.decay;
        }
    }

    /// Core engine: optional warm-start prices, explicit ε. Generic over
    /// the probe so the [`NoProbe`] instantiation compiles to the bare loop.
    pub(crate) fn run_from<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        initial_prices: Option<&[f64]>,
        epsilon: f64,
        probe: &mut P,
    ) -> Result<AuctionOutcome, P2pError> {
        let views = edge_views(instance);
        let mut auctioneers: Vec<Auctioneer> = instance
            .providers()
            .iter()
            .enumerate()
            .map(|(u, p)| {
                let warm = initial_prices
                    .and_then(|ps| ps.get(u).copied())
                    .filter(|w| w.is_finite() && *w >= 0.0)
                    .unwrap_or(0.0);
                if p.capacity.is_zero() {
                    Auctioneer::new(0)
                } else {
                    Auctioneer::with_price(p.capacity.chunks_per_slot(), warm)
                }
            })
            .collect();
        // Effective price used by bidders: +∞ for zero-capacity providers
        // so nobody targets them.
        let mut eff_price: Vec<f64> = instance
            .providers()
            .iter()
            .enumerate()
            .map(|(u, p)| if p.capacity.is_zero() { f64::INFINITY } else { auctioneers[u].price() })
            .collect();

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
                match decide_bid(&views[r], |p| eff_price[p], epsilon) {
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

        let lambda = final_prices(instance, &auctioneers);
        let outcome = AuctionOutcome {
            assignment: Assignment::new(assigned),
            duals: DualSolution::from_prices(instance, lambda),
            rounds,
            bids_submitted,
            converged: true,
        };
        if probe.enabled() {
            // Theorem 1's certificate: the duality gap bounds the welfare
            // loss. Only computed when someone is listening.
            let slack =
                outcome.duals.objective(instance) - outcome.assignment.welfare(instance).get();
            probe.run_complete(
                outcome.rounds,
                outcome.bids_submitted,
                outcome.assignment.assigned_count() as u64,
                slack,
            );
        }
        Ok(outcome)
    }
}

/// Shared warm-start driver: clamps and pre-filters the carried prices,
/// then repeatedly runs `run_from` until no unsupported warm price is left
/// (the CS 1 repair loop documented on [`SyncAuction::run_warm`]). Each
/// pass permanently clears at least one provider, so at most
/// `provider_count` extra runs occur. Used by the synchronous, sharded and
/// networked engines so their warm-start semantics cannot drift apart.
pub fn run_warm_with(
    instance: &WelfareInstance,
    prior_prices: &[f64],
    epsilon: f64,
    mut run_from: impl FnMut(Option<&[f64]>) -> Result<AuctionOutcome, P2pError>,
) -> Result<AuctionOutcome, P2pError> {
    let mut prices = clamped_warm_prices(instance, prior_prices, epsilon);
    let mut rounds = 0;
    let mut bids = 0;
    loop {
        let outcome = run_from(Some(&prices))?;
        rounds += outcome.rounds;
        bids += outcome.bids_submitted;
        if !zero_unsupported_prices(instance, &outcome, &mut prices) {
            return Ok(AuctionOutcome { rounds, bids_submitted: bids, ..outcome });
        }
    }
}

/// Carried prices made ε-valid for a warm start: non-finite or negative
/// entries become 0, every price is relaxed by ε, and the support
/// pre-filter zeroes prices the slot's demand cannot sustain.
fn clamped_warm_prices(instance: &WelfareInstance, prior_prices: &[f64], eps: f64) -> Vec<f64> {
    let mut prices: Vec<f64> = (0..instance.provider_count())
        .map(|u| {
            let p = prior_prices.get(u).copied().unwrap_or(0.0);
            if p.is_finite() {
                (p - eps).max(0.0)
            } else {
                0.0
            }
        })
        .collect();
    // Cheap support pre-filter: a positive price survives only if the
    // provider can sell out at it, and a request only bids where
    // `v − w > λ` — so a carried price with fewer than `capacity`
    // profitable incident edges is doomed. Zeroing those up front
    // avoids a full repair rerun whenever last slot's demand moved
    // away (delivered chunks leaving the instance is the common case).
    let mut potential = vec![0u32; instance.provider_count()];
    for r in instance.requests() {
        for e in &r.edges {
            if prices[e.provider] > 0.0 && e.utility().get() > prices[e.provider] {
                potential[e.provider] += 1;
            }
        }
    }
    for (u, spec) in instance.providers().iter().enumerate() {
        if prices[u] > 0.0 && potential[u] < spec.capacity.chunks_per_slot() {
            prices[u] = 0.0;
        }
    }
    prices
}

/// CS 1 support check: a provider with spare capacity and λ > 0 kept an
/// unsupported warm price (bid-raised prices imply a full provider). Zeroes
/// those — never re-warming a repaired one — and reports whether a rerun is
/// needed.
fn zero_unsupported_prices(
    instance: &WelfareInstance,
    outcome: &AuctionOutcome,
    prices: &mut [f64],
) -> bool {
    let loads = outcome.assignment.provider_loads(instance);
    let mut repaired = false;
    for (u, spec) in instance.providers().iter().enumerate() {
        let cap = spec.capacity.chunks_per_slot();
        if cap > 0 && loads[u] < cap && prices[u] > 0.0 && outcome.duals.lambda[u] > 0.0 {
            prices[u] = 0.0;
            repaired = true;
        }
    }
    repaired
}

/// Precomputes the bidder-visible edge views of every request.
pub fn edge_views(instance: &WelfareInstance) -> Vec<Vec<EdgeView>> {
    instance
        .requests()
        .iter()
        .map(|r| {
            r.edges
                .iter()
                .map(|e| EdgeView { provider: e.provider, utility: e.utility().get() })
                .collect()
        })
        .collect()
}

/// Reported final prices: the auctioneer's λ for active providers; for
/// zero-capacity providers (which constrain nothing but still appear in
/// dual constraint (6)), the smallest feasible standalone price
/// `max(0, max incident v−w)`.
pub(crate) fn final_prices(instance: &WelfareInstance, auctioneers: &[Auctioneer]) -> Vec<f64> {
    final_prices_from(instance, auctioneers.iter().map(Auctioneer::price).collect())
}

/// `final_prices` over raw λ values — the entry point for transports
/// whose auctioneers live inside protocol nodes rather than a bare
/// `Vec<Auctioneer>`.
pub fn final_prices_from(instance: &WelfareInstance, mut lambda: Vec<f64>) -> Vec<f64> {
    for (u, spec) in instance.providers().iter().enumerate() {
        if spec.capacity.is_zero() {
            let max_utility = instance
                .requests()
                .iter()
                .flat_map(|r| r.edges.iter())
                .filter(|e| e.provider == u)
                .map(|e| e.utility().get())
                .fold(0.0_f64, f64::max);
            lambda[u] = max_utility;
        }
    }
    lambda
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
                    .edges
                    .iter()
                    .map(|e| e.utility().get() - out.duals.lambda[e.provider])
                    .fold(f64::NEG_INFINITY, f64::max);
                let chosen = inst
                    .request(r)
                    .edges
                    .iter()
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

    #[test]
    fn scaled_auction_matches_exact_within_final_epsilon() {
        let inst = competitive_instance();
        let scaling = EpsilonScaling::paper_range();
        let out = SyncAuction::default().run_scaled(&inst, scaling).unwrap();
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * scaling.final_epsilon + 1e-9;
        assert!(out.assignment.welfare(&inst).get() >= exact - bound);
        assert!(out.assignment.validate(&inst).is_ok());
    }

    #[test]
    fn scaling_crushes_price_wars_on_twin_values() {
        // Three identical high-value requests over two single-unit
        // providers: a flat small ε fights a `value/ε`-bid war; scaling
        // finishes in a handful of phases.
        let value = 50.0;
        let build = || {
            let mut b = WelfareInstance::builder();
            let u0 = b.add_provider(PeerId::new(100), 1);
            let u1 = b.add_provider(PeerId::new(101), 1);
            for d in 0..3 {
                let r = b.add_request(rid(d, 0));
                b.add_edge(r, u0, Valuation::new(value), Cost::new(0.0)).unwrap();
                b.add_edge(r, u1, Valuation::new(value), Cost::new(0.0)).unwrap();
            }
            b.build().unwrap()
        };
        let inst = build();
        let flat = SyncAuction::new(AuctionConfig::with_epsilon(0.01)).run(&inst).unwrap();
        let scaling = EpsilonScaling { initial: 16.0, decay: 4.0, final_epsilon: 0.01 };
        let scaled = SyncAuction::default().run_scaled(&inst, scaling).unwrap();
        assert_eq!(scaled.assignment.assigned_count(), 2);
        assert!(
            scaled.bids_submitted * 10 < flat.bids_submitted,
            "scaling ({}) must need far fewer bids than flat ε ({})",
            scaled.bids_submitted,
            flat.bids_submitted
        );
        // Both reach the optimum (two of three twins served).
        let exact = inst.optimal_welfare().get();
        assert!(scaled.assignment.welfare(&inst).get() >= exact - 3.0 * 0.01 - 1e-9);
        assert!(flat.assignment.welfare(&inst).get() >= exact - 3.0 * 0.01 - 1e-9);
    }

    #[test]
    fn scaled_single_bidder_is_not_priced_out_by_early_overbids() {
        // With a huge initial ε the lone bidder overbids its own value;
        // the inter-phase price relaxation must keep it assigned.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(100), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let scaling = EpsilonScaling { initial: 64.0, decay: 4.0, final_epsilon: 1e-6 };
        let out = SyncAuction::default().run_scaled(&inst, scaling).unwrap();
        assert_eq!(out.assignment.assigned_count(), 1);
        assert!((out.assignment.welfare(&inst).get() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_from_converged_prices_is_cheap_and_certified() {
        let eps = 0.01;
        let inst = competitive_instance();
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(eps));
        let cold = engine.run(&inst).unwrap();
        let warm = engine.run_warm(&inst, &cold.duals.lambda).unwrap();
        // Same welfare, and the reoptimization needs no more bids.
        assert_eq!(warm.assignment.welfare(&inst), cold.assignment.welfare(&inst));
        assert!(warm.bids_submitted <= cold.bids_submitted);
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = crate::verify_optimality(&inst, &warm.assignment, &warm.duals, tol);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn warm_start_repairs_unsupported_prices() {
        // Absurd carried prices would leave every provider unsold at λ > 0;
        // the repair loop must recover the cold outcome and its certificate.
        let inst = competitive_instance();
        let engine = SyncAuction::new(AuctionConfig::paper());
        let warm = engine.run_warm(&inst, &[1e6, 1e6]).unwrap();
        let cold = engine.run(&inst).unwrap();
        assert_eq!(warm.assignment.welfare(&inst), cold.assignment.welfare(&inst));
        let report = crate::verify_optimality(&inst, &warm.assignment, &warm.duals, 1e-9);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn warm_start_tolerates_garbage_and_short_price_vectors() {
        let inst = competitive_instance();
        let engine = SyncAuction::new(AuctionConfig::with_epsilon(0.01));
        // NaN/negative entries clamp to 0; missing entries default to 0.
        for prices in [vec![f64::NAN, -3.0], vec![0.5], vec![]] {
            let warm = engine.run_warm(&inst, &prices).unwrap();
            assert!(warm.converged);
            let tol = 0.01 * (inst.request_count() as f64 + 1.0);
            let report = crate::verify_optimality(&inst, &warm.assignment, &warm.duals, tol);
            assert!(report.is_optimal(), "{:?}", report.violations);
        }
    }

    #[test]
    fn warm_start_keeps_certificate_when_demand_collapses() {
        // Last slot: two rich requests saturated the provider at high λ.
        // This slot: a single modest request. The carried price would leave
        // capacity unsold at λ > 0 (CS 1 violation) without repair.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(7), 2);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(2.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        let engine = SyncAuction::new(AuctionConfig::paper());
        let warm = engine.run_warm(&inst, &[5.0]).unwrap();
        assert_eq!(warm.assignment.assigned_count(), 1);
        let report = crate::verify_optimality(&inst, &warm.assignment, &warm.duals, 1e-9);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn invalid_scaling_rejected() {
        let inst = competitive_instance();
        for bad in [
            EpsilonScaling { initial: 0.0, decay: 4.0, final_epsilon: 1e-6 },
            EpsilonScaling { initial: 1.0, decay: 1.0, final_epsilon: 1e-6 },
            EpsilonScaling { initial: 1.0, decay: 4.0, final_epsilon: 0.0 },
            EpsilonScaling { initial: 1e-9, decay: 4.0, final_epsilon: 1.0 },
        ] {
            assert!(SyncAuction::default().run_scaled(&inst, bad).is_err());
        }
    }
}
