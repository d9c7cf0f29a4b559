//! Primal (assignment) and dual (price) solutions.

use crate::instance::{CsrData, ProviderIdx, RequestIdx, WelfareInstance};
use p2p_types::{P2pError, Utility};
use serde::{Deserialize, Serialize};

/// A binary primal solution: for each request, which of its candidate edges
/// (if any) is selected (`a^{(c)}_{u→d} = 1`).
///
/// # Examples
///
/// ```
/// use p2p_core::{Assignment, WelfareInstance};
/// use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost, Utility};
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(9), 1);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(3.0), Cost::new(1.0)).unwrap();
/// let inst = b.build().unwrap();
///
/// let a = Assignment::new(vec![Some(0)]);
/// assert_eq!(a.welfare(&inst), Utility::new(2.0));
/// assert!(a.validate(&inst).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Per request: index of the chosen edge within that request's row, or
    /// `None`.
    choices: Vec<Option<usize>>,
}

impl Assignment {
    /// Wraps per-request edge choices.
    pub fn new(choices: Vec<Option<usize>>) -> Self {
        Assignment { choices }
    }

    /// An all-unassigned solution for `n` requests.
    pub fn empty(n: usize) -> Self {
        Assignment { choices: vec![None; n] }
    }

    /// The per-request choices.
    pub fn choices(&self) -> &[Option<usize>] {
        &self.choices
    }

    /// The edge chosen for a request, if any.
    pub fn choice(&self, request: RequestIdx) -> Option<usize> {
        self.choices.get(request).copied().flatten()
    }

    /// The provider serving `request`, if any.
    pub fn provider_of(
        &self,
        instance: &WelfareInstance,
        request: RequestIdx,
    ) -> Option<ProviderIdx> {
        self.choice(request).map(|e| instance.request(request).edge(e).provider)
    }

    /// Number of served requests.
    pub fn assigned_count(&self) -> usize {
        self.choices.iter().filter(|c| c.is_some()).count()
    }

    /// The social welfare `Σ a·(v − w)` of this assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment refers to edges that do not exist in
    /// `instance` (use [`Assignment::validate`] first for untrusted data).
    pub fn welfare(&self, instance: &WelfareInstance) -> Utility {
        let mut total = Utility::ZERO;
        for (r, choice) in self.choices.iter().enumerate() {
            if let Some(e) = choice {
                total += instance.request(r).edge(*e).utility();
            }
        }
        total
    }

    /// Checks primal feasibility against `instance`: choice indices in
    /// range, and no provider serving more than `B(u)` requests.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] describing the first
    /// violation found.
    pub fn validate(&self, instance: &WelfareInstance) -> Result<(), P2pError> {
        if self.choices.len() != instance.request_count() {
            return Err(P2pError::MalformedInstance(format!(
                "assignment covers {} requests but instance has {}",
                self.choices.len(),
                instance.request_count()
            )));
        }
        let mut load = vec![0u32; instance.provider_count()];
        for (r, choice) in self.choices.iter().enumerate() {
            if let Some(e) = choice {
                let row = instance.request(r);
                if *e >= row.edge_count() {
                    return Err(P2pError::MalformedInstance(format!(
                        "request {r} chose edge {e} but has {} edges",
                        row.edge_count()
                    )));
                }
                load[row.edge(*e).provider] += 1;
            }
        }
        for (p, l) in load.iter().enumerate() {
            let cap = instance.provider(p).capacity.chunks_per_slot();
            if *l > cap {
                return Err(P2pError::MalformedInstance(format!(
                    "provider {p} serves {l} requests, exceeding capacity {cap}"
                )));
            }
        }
        Ok(())
    }

    /// Per-provider load (number of served requests).
    pub fn provider_loads(&self, instance: &WelfareInstance) -> Vec<u32> {
        let mut load = vec![0u32; instance.provider_count()];
        for (r, choice) in self.choices.iter().enumerate() {
            if let Some(e) = choice {
                load[instance.request(r).edge(*e).provider] += 1;
            }
        }
        load
    }
}

/// A dual solution: bandwidth prices `λ_u` and request utilities
/// `η^{(c)}_d` (problem (5) of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DualSolution {
    /// Per provider: the bandwidth unit price `λ_u ≥ 0`.
    pub lambda: Vec<f64>,
    /// Per request: the achieved net utility `η^{(c)}_d ≥ 0`.
    pub eta: Vec<f64>,
}

impl DualSolution {
    /// Derives the optimal `η` values from prices:
    /// `η = max(0, max_u {v − w − λ_u})`, the smallest feasible choice
    /// (the paper sets `η` to the max; clamping at 0 enforces dual
    /// constraint (8) when every edge is unprofitable).
    pub fn from_prices(instance: &WelfareInstance, lambda: Vec<f64>) -> Self {
        assert_eq!(lambda.len(), instance.provider_count(), "one price per provider");
        let mut eta = Vec::new();
        eta_into(&instance.data, &lambda, &mut eta);
        DualSolution { lambda, eta }
    }

    /// The dual objective `Σ λ_u B(u) + Σ η` (problem (5)).
    pub fn objective(&self, instance: &WelfareInstance) -> f64 {
        let prices: f64 = self
            .lambda
            .iter()
            .zip(instance.providers())
            .map(|(l, p)| l * f64::from(p.capacity.chunks_per_slot()))
            .sum();
        prices + self.eta.iter().sum::<f64>()
    }

    /// Checks dual feasibility within tolerance `tol`: constraints (6)–(8).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] describing the first
    /// violated constraint.
    pub fn validate(&self, instance: &WelfareInstance, tol: f64) -> Result<(), P2pError> {
        if self.lambda.len() != instance.provider_count()
            || self.eta.len() != instance.request_count()
        {
            return Err(P2pError::MalformedInstance("dual dimensions mismatch".into()));
        }
        for (u, l) in self.lambda.iter().enumerate() {
            if *l < -tol {
                return Err(P2pError::MalformedInstance(format!(
                    "lambda[{u}] = {l} violates non-negativity"
                )));
            }
        }
        for (r, e) in self.eta.iter().enumerate() {
            if *e < -tol {
                return Err(P2pError::MalformedInstance(format!(
                    "eta[{r}] = {e} violates non-negativity"
                )));
            }
        }
        for (r, req) in instance.requests().enumerate() {
            for edge in req.edges() {
                let slack = self.lambda[edge.provider] + self.eta[r] - edge.utility().get();
                if slack < -tol {
                    return Err(P2pError::MalformedInstance(format!(
                        "dual constraint violated at request {r} provider {}: \
                         lambda + eta = {} < v - w = {}",
                        edge.provider,
                        self.lambda[edge.provider] + self.eta[r],
                        edge.utility().get()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Writes `η = max(0, max_u {v − w − λ_u})` per request into `eta`, the
/// one derivation [`DualSolution::from_prices`] and the flat engine share
/// (allocation-free once `eta` has grown to the request count).
pub(crate) fn eta_into(data: &CsrData, lambda: &[f64], eta: &mut Vec<f64>) {
    eta.clear();
    eta.extend((0..data.request_count()).map(|r| {
        let (providers, utilities) = data.row(r);
        providers
            .iter()
            .zip(utilities)
            .map(|(&u, &utility)| utility - lambda[u as usize])
            .fold(0.0_f64, f64::max)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn two_req_one_provider() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 1);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 0)));
        b.add_edge(r0, u, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        b.add_edge(r1, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn welfare_and_counts() {
        let inst = two_req_one_provider();
        let a = Assignment::new(vec![Some(0), None]);
        assert_eq!(a.welfare(&inst), Utility::new(4.0));
        assert_eq!(a.assigned_count(), 1);
        assert_eq!(a.provider_of(&inst, 0), Some(0));
        assert_eq!(a.provider_of(&inst, 1), None);
        assert_eq!(a.provider_loads(&inst), vec![1]);
    }

    #[test]
    fn capacity_violation_detected() {
        let inst = two_req_one_provider();
        let a = Assignment::new(vec![Some(0), Some(0)]);
        assert!(a.validate(&inst).is_err());
    }

    #[test]
    fn out_of_range_choice_detected() {
        let inst = two_req_one_provider();
        let a = Assignment::new(vec![Some(5), None]);
        assert!(a.validate(&inst).is_err());
        let a = Assignment::new(vec![Some(0)]);
        assert!(a.validate(&inst).is_err(), "length mismatch");
    }

    #[test]
    fn empty_assignment_is_feasible() {
        let inst = two_req_one_provider();
        let a = Assignment::empty(2);
        assert!(a.validate(&inst).is_ok());
        assert_eq!(a.welfare(&inst), Utility::ZERO);
    }

    #[test]
    fn dual_from_prices_clamps_eta_at_zero() {
        let inst = two_req_one_provider();
        // Price higher than any utility: eta = 0 for both requests.
        let d = DualSolution::from_prices(&inst, vec![10.0]);
        assert_eq!(d.eta, vec![0.0, 0.0]);
        assert!(d.validate(&inst, 1e-9).is_ok());
        // Dual objective = 10 * B(u) = 10.
        assert!((d.objective(&inst) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn dual_from_prices_takes_best_edge() {
        let inst = two_req_one_provider();
        let d = DualSolution::from_prices(&inst, vec![1.0]);
        // Request 0: v-w-λ = 4-1 = 3; request 1: 3-1 = 2.
        assert_eq!(d.eta, vec![3.0, 2.0]);
        assert!(d.validate(&inst, 1e-9).is_ok());
    }

    #[test]
    fn dual_infeasibility_detected() {
        let inst = two_req_one_provider();
        // λ = 0, η = 0: constraint λ+η >= v-w = 4 violated.
        let d = DualSolution { lambda: vec![0.0], eta: vec![0.0, 0.0] };
        assert!(d.validate(&inst, 1e-9).is_err());
        let d = DualSolution { lambda: vec![-1.0], eta: vec![9.0, 9.0] };
        assert!(d.validate(&inst, 1e-9).is_err());
        let d = DualSolution { lambda: vec![0.0], eta: vec![9.0] };
        assert!(d.validate(&inst, 1e-9).is_err(), "dimension mismatch");
    }

    #[test]
    fn weak_duality_holds_for_feasible_pair() {
        let inst = two_req_one_provider();
        let a = Assignment::new(vec![Some(0), None]);
        let d = DualSolution::from_prices(&inst, vec![3.0]);
        assert!(d.validate(&inst, 1e-9).is_ok());
        assert!(a.welfare(&inst).get() <= d.objective(&inst) + 1e-9);
    }
}
