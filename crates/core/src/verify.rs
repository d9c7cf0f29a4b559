//! Optimality verification: Theorem 1's complementary slackness conditions.
//!
//! The paper's appendix proves optimality by checking that on termination
//! the primal/dual pair satisfies the three complementary slackness (CS)
//! conditions of problems (1) and (5):
//!
//! 1. `λ_u > 0 ⇒ Σ a_{u→·} = B(u)` — a priced provider is fully allocated;
//! 2. `a_{u→d} > 0 ⇒ λ_u + η_d = v − w` — every winner is served at its
//!    best net utility;
//! 3. `η_d > 0 ⇒ Σ_u a_{u→d} = 1` — a request with positive achievable
//!    utility is served.
//!
//! Together with primal and dual feasibility these certify optimality by LP
//! duality (the paper omits integrality in the dual and recovers binary
//! optimal primal solutions — exactly what this checker confirms).

use crate::instance::WelfareInstance;
use crate::solution::{Assignment, DualSolution};
use serde::{Deserialize, Serialize};

/// A violated optimality condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Violation {
    /// Primal infeasibility (capacity or index violation).
    PrimalInfeasible(String),
    /// Dual infeasibility (constraint (6), (7) or (8)).
    DualInfeasible(String),
    /// CS condition 1 failed at a provider.
    UnsoldPricedCapacity {
        /// Provider index.
        provider: usize,
        /// Its price.
        lambda: f64,
        /// Units actually sold.
        sold: u32,
        /// Units available.
        capacity: u32,
    },
    /// CS condition 2 failed at a request (assigned off its argmax edge).
    AssignedBelowBest {
        /// Request index.
        request: usize,
        /// Net utility of the chosen edge.
        chosen: f64,
        /// Best achievable net utility.
        best: f64,
    },
    /// CS condition 3 failed (positive achievable utility but unassigned).
    ProfitableRequestUnserved {
        /// Request index.
        request: usize,
        /// Its achievable net utility.
        eta: f64,
    },
    /// The duality gap exceeds tolerance.
    DualityGap {
        /// Primal objective (social welfare).
        primal: f64,
        /// Dual objective.
        dual: f64,
    },
}

/// Outcome of [`verify_optimality`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalityReport {
    /// The social welfare of the assignment.
    pub primal_objective: f64,
    /// The dual objective `Σ λ B + Σ η`.
    pub dual_objective: f64,
    /// Every violated condition (empty ⇔ certified optimal within `tol`).
    pub violations: Vec<Violation>,
}

impl OptimalityReport {
    /// Whether the pair is certified optimal.
    pub fn is_optimal(&self) -> bool {
        self.violations.is_empty()
    }

    /// The absolute duality gap.
    pub fn gap(&self) -> f64 {
        (self.dual_objective - self.primal_objective).abs()
    }
}

/// Verifies Theorem 1 for a primal/dual pair within tolerance `tol`
/// (use `tol ≳ n·ε` for ε-auctions).
///
/// # Examples
///
/// ```
/// use p2p_core::{WelfareInstance, SyncAuction, AuctionConfig, verify_optimality};
/// use p2p_types::*;
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(5), 1);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(3.0), Cost::new(1.0)).unwrap();
/// let inst = b.build().unwrap();
/// let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
/// let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-9);
/// assert!(report.is_optimal());
/// ```
pub fn verify_optimality(
    instance: &WelfareInstance,
    assignment: &Assignment,
    duals: &DualSolution,
    tol: f64,
) -> OptimalityReport {
    let mut violations = Vec::new();

    if let Err(e) = assignment.validate(instance) {
        violations.push(Violation::PrimalInfeasible(e.to_string()));
    }
    if let Err(e) = duals.validate(instance, tol) {
        violations.push(Violation::DualInfeasible(e.to_string()));
    }

    // CS 1: λ_u > 0 ⇒ provider fully allocated.
    let loads = assignment.provider_loads(instance);
    for (u, spec) in instance.providers().enumerate() {
        let lambda = duals.lambda.get(u).copied().unwrap_or(0.0);
        let capacity = spec.capacity.chunks_per_slot();
        if lambda > tol && loads[u] < capacity {
            violations.push(Violation::UnsoldPricedCapacity {
                provider: u,
                lambda,
                sold: loads[u],
                capacity,
            });
        }
    }

    // CS 2: winners are served at an argmax edge; CS 3: requests with
    // positive achievable utility are served.
    for (r, req) in instance.requests().enumerate() {
        let best = req
            .edges()
            .map(|e| e.utility().get() - duals.lambda[e.provider])
            .fold(f64::NEG_INFINITY, f64::max);
        match assignment.choice(r) {
            Some(e) => {
                let edge = req.edge(e);
                let chosen = edge.utility().get() - duals.lambda[edge.provider];
                if chosen < best - tol {
                    violations.push(Violation::AssignedBelowBest { request: r, chosen, best });
                }
            }
            None => {
                let eta = best.max(0.0);
                if eta > tol {
                    violations.push(Violation::ProfitableRequestUnserved { request: r, eta });
                }
            }
        }
    }

    let primal_objective = assignment.welfare(instance).get();
    let dual_objective = duals.objective(instance);
    // Scale the gap tolerance with problem size: each CS equation can
    // contribute up to tol of slack.
    let scale = 1.0 + instance.request_count() as f64 + instance.provider_count() as f64;
    if (dual_objective - primal_objective).abs() > tol * scale {
        violations.push(Violation::DualityGap { primal: primal_objective, dual: dual_objective });
    }

    OptimalityReport { primal_objective, dual_objective, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AuctionConfig, SyncAuction};
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    fn instance() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 1);
        let u1 = b.add_provider(PeerId::new(101), 2);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(4.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.0), Cost::new(3.5)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn auction_outcome_is_certified() {
        let inst = instance();
        let out = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-9);
        assert!(report.is_optimal(), "{:?}", report.violations);
        assert!(report.gap() < 1e-6);
    }

    #[test]
    fn detects_cs3_violation() {
        let inst = instance();
        // Leave everything unassigned at zero prices: profitable requests
        // unserved, and the dual is infeasible too.
        let a = Assignment::empty(2);
        let d = DualSolution { lambda: vec![0.0, 0.0], eta: vec![0.0, 0.0] };
        let report = verify_optimality(&inst, &a, &d, 1e-9);
        assert!(!report.is_optimal());
        assert!(report.violations.iter().any(|v| matches!(v, Violation::DualInfeasible(_))));
    }

    #[test]
    fn detects_cs1_violation() {
        let inst = instance();
        let out = SyncAuction::default().run(&inst).unwrap();
        // Inflate a price above its true value: provider 1 has spare
        // capacity, so a positive λ violates CS 1.
        let mut duals = out.duals.clone();
        duals.lambda[1] += 5.0;
        duals = DualSolution::from_prices(&inst, duals.lambda);
        let report = verify_optimality(&inst, &out.assignment, &duals, 1e-9);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnsoldPricedCapacity { provider: 1, .. })));
    }

    #[test]
    fn detects_cs2_violation() {
        let inst = instance();
        // Assign r0 to its worse edge (u1) while prices say u0 is better.
        let a = Assignment::new(vec![Some(1), Some(0)]);
        let d = DualSolution::from_prices(&inst, vec![4.0, 3.0]);
        let report = verify_optimality(&inst, &a, &d, 1e-9);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AssignedBelowBest { request: 0, .. })));
    }

    #[test]
    fn detects_primal_infeasibility() {
        let inst = instance();
        let a = Assignment::new(vec![Some(0), Some(0)]); // both at capacity-1 u0
        let d = DualSolution::from_prices(&inst, vec![9.0, 9.0]);
        let report = verify_optimality(&inst, &a, &d, 1e-9);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::PrimalInfeasible(_))));
    }

    #[test]
    fn epsilon_auction_verifies_with_scaled_tolerance() {
        let inst = instance();
        let eps = 0.01;
        let out = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
        let report = verify_optimality(&inst, &out.assignment, &out.duals, eps * 2.0);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }
}
