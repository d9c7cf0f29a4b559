//! The per-slot welfare maximization instance (problem (1) of the paper).

use p2p_netflow::TransportationProblem;
use p2p_types::{Bandwidth, Cost, P2pError, PeerId, RequestId, Utility, Valuation};
use serde::{Deserialize, Serialize};

/// Index of a provider within a [`WelfareInstance`].
pub type ProviderIdx = usize;
/// Index of a request within a [`WelfareInstance`].
pub type RequestIdx = usize;

/// One upstream peer `u` offering `B(u)` upload-bandwidth units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProviderSpec {
    /// The provider's peer id (`I_u`).
    pub peer: PeerId,
    /// Upload capacity `B(u)` in chunks per slot.
    pub capacity: Bandwidth,
}

/// One candidate edge: request → provider with the welfare weight
/// `v^{(c)}(d) − w_{u→d}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Index of the provider (within the instance) that caches the chunk.
    pub provider: ProviderIdx,
    /// The requester's valuation `v^{(c)}(d)`.
    pub valuation: Valuation,
    /// The network cost `w_{u→d}`.
    pub cost: Cost,
}

impl EdgeSpec {
    /// The edge's welfare weight `v − w`.
    pub fn utility(&self) -> Utility {
        self.valuation - self.cost
    }
}

/// One download request `(I_d, c)` with its candidate providers
/// `N^{(c)}(d)` (neighbors caching chunk `c`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// The request identity.
    pub id: RequestId,
    /// Candidate edges, one per neighbor that caches the chunk.
    pub edges: Vec<EdgeSpec>,
}

/// A complete single-slot instance of the social welfare maximization
/// problem: providers with capacities, requests with candidate edges.
///
/// Construct through [`WelfareInstance::builder`], which validates edge
/// indices (C-VALIDATE).
///
/// # Examples
///
/// ```
/// use p2p_core::WelfareInstance;
/// use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost};
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(9), 2);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(3.0), Cost::new(1.0)).unwrap();
/// let inst = b.build().unwrap();
/// assert_eq!(inst.provider_count(), 1);
/// assert_eq!(inst.request_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WelfareInstance {
    providers: Vec<ProviderSpec>,
    requests: Vec<RequestSpec>,
}

impl WelfareInstance {
    /// Starts building an instance.
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Number of requests.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Total number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.requests.iter().map(|r| r.edges.len()).sum()
    }

    /// One provider by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn provider(&self, idx: ProviderIdx) -> &ProviderSpec {
        &self.providers[idx]
    }

    /// One request by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn request(&self, idx: RequestIdx) -> &RequestSpec {
        &self.requests[idx]
    }

    /// All providers.
    pub fn providers(&self) -> &[ProviderSpec] {
        &self.providers
    }

    /// All requests.
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// Total upload capacity across providers.
    pub fn total_capacity(&self) -> Bandwidth {
        self.providers.iter().map(|p| p.capacity).sum()
    }

    /// Converts to the equivalent transportation problem (profits
    /// `v − w`), for exact solving via [`p2p_netflow`].
    pub fn to_transportation(&self) -> TransportationProblem {
        let caps = self.providers.iter().map(|p| p.capacity.chunks_per_slot()).collect();
        let edges = self
            .requests
            .iter()
            .map(|r| r.edges.iter().map(|e| (e.provider, e.utility().get())).collect::<Vec<_>>())
            .collect();
        TransportationProblem::new(caps, edges)
            .expect("builder-validated instance cannot produce out-of-range edges")
    }

    /// The exact optimal social welfare (ground truth via min-cost flow).
    ///
    /// This runs an exact solver in `O(R · E)`-ish time; intended for tests,
    /// verification and ablation benches, not the per-slot hot path.
    pub fn optimal_welfare(&self) -> Utility {
        let sol = p2p_netflow::solve_max_profit(&self.to_transportation())
            .expect("valid instance solves");
        Utility::new(sol.total_profit)
    }
}

/// Incremental builder for [`WelfareInstance`].
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    providers: Vec<ProviderSpec>,
    requests: Vec<RequestSpec>,
}

impl InstanceBuilder {
    /// Adds a provider with `capacity` chunks-per-slot; returns its index.
    pub fn add_provider(&mut self, peer: PeerId, capacity: u32) -> ProviderIdx {
        self.providers.push(ProviderSpec { peer, capacity: Bandwidth::new(capacity) });
        self.providers.len() - 1
    }

    /// Adds a request with no edges yet; returns its index.
    pub fn add_request(&mut self, id: RequestId) -> RequestIdx {
        self.add_request_with_capacity(id, 0)
    }

    /// Adds a request with no edges yet but room for `edges` of them, for
    /// callers that know the request's candidate count; returns its index.
    pub fn add_request_with_capacity(&mut self, id: RequestId, edges: usize) -> RequestIdx {
        self.requests.push(RequestSpec { id, edges: Vec::with_capacity(edges) });
        self.requests.len() - 1
    }

    /// Adds a candidate edge from `request` to `provider`.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] if either index is out of
    /// range or the edge duplicates an existing (request, provider) pair —
    /// a request has at most one edge per neighbor — and
    /// [`P2pError::NonFiniteUtility`] if the welfare weight `v − w`
    /// overflows to infinity (finite `valuation` and `cost` do not
    /// guarantee a finite difference): a non-finite utility would flow
    /// into the bidders' `φ` comparisons and the kernel's max-reduction
    /// with an undefined winner, so it is rejected at build time.
    pub fn add_edge(
        &mut self,
        request: RequestIdx,
        provider: ProviderIdx,
        valuation: Valuation,
        cost: Cost,
    ) -> Result<(), P2pError> {
        if provider >= self.providers.len() {
            return Err(P2pError::MalformedInstance(format!(
                "provider index {provider} out of range ({} providers)",
                self.providers.len()
            )));
        }
        let Some(req) = self.requests.get_mut(request) else {
            return Err(P2pError::MalformedInstance(format!(
                "request index {request} out of range ({} requests)",
                self.requests.len()
            )));
        };
        if req.edges.iter().any(|e| e.provider == provider) {
            return Err(P2pError::MalformedInstance(format!(
                "duplicate edge request {request} -> provider {provider}"
            )));
        }
        // Raw difference, not `EdgeSpec::utility` — the unit type's
        // constructor asserts finiteness, and this must be an error, not a
        // panic.
        let utility = valuation.get() - cost.get();
        if !utility.is_finite() {
            return Err(P2pError::NonFiniteUtility {
                request: request as u32,
                provider: provider as u32,
                utility,
            });
        }
        req.edges.push(EdgeSpec { provider, valuation, cost });
        Ok(())
    }

    /// Finalizes the instance.
    ///
    /// # Errors
    ///
    /// Currently infallible for builder-constructed data, but returns
    /// `Result` to allow future invariants without a breaking change.
    pub fn build(self) -> Result<WelfareInstance, P2pError> {
        Ok(WelfareInstance { providers: self.providers, requests: self.requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 3);
        let u1 = b.add_provider(PeerId::new(101), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(0, 1));
        b.add_edge(r0, u0, Valuation::new(2.0), Cost::new(0.5)).unwrap();
        b.add_edge(r0, u1, Valuation::new(2.0), Cost::new(1.5)).unwrap();
        b.add_edge(r1, u0, Valuation::new(1.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.provider_count(), 2);
        assert_eq!(inst.request_count(), 2);
        assert_eq!(inst.edge_count(), 3);
        assert_eq!(inst.total_capacity().chunks_per_slot(), 4);
        assert_eq!(inst.provider(0).peer, PeerId::new(100));
        assert_eq!(inst.request(1).id, rid(0, 1));
    }

    #[test]
    fn edge_utility() {
        let e = EdgeSpec { provider: 0, valuation: Valuation::new(8.0), cost: Cost::new(10.0) };
        assert_eq!(e.utility(), Utility::new(-2.0));
    }

    #[test]
    fn out_of_range_edges_rejected() {
        let mut b = WelfareInstance::builder();
        let r = b.add_request(rid(0, 0));
        assert!(b.add_edge(r, 0, Valuation::new(1.0), Cost::new(0.0)).is_err());
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 1);
        assert!(b.add_edge(7, u, Valuation::new(1.0), Cost::new(0.0)).is_err());
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(1.0), Cost::new(0.0)).unwrap();
        assert!(b.add_edge(r, u, Valuation::new(2.0), Cost::new(0.0)).is_err());
    }

    #[test]
    fn non_finite_utilities_rejected() {
        // Finite valuation and cost whose difference overflows to +∞ — the
        // one non-finite `v − w` the unit types cannot catch at
        // construction time.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 1);
        let r = b.add_request(rid(0, 0));
        let err = b.add_edge(r, u, Valuation::new(f64::MAX), Cost::new(f64::MIN)).unwrap_err();
        assert!(matches!(err, P2pError::NonFiniteUtility { request: 0, provider: 0, .. }), "{err}");
        // The rejected edge was not recorded; a finite one still lands.
        b.add_edge(r, u, Valuation::new(1.0), Cost::new(0.25)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.edge_count(), 1);
        assert_eq!(inst.request(0).edges[0].utility(), Utility::new(0.75));
    }

    #[test]
    fn transportation_conversion_preserves_shape() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 5);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let tp = inst.to_transportation();
        assert_eq!(tp.provider_count(), 1);
        assert_eq!(tp.request_count(), 1);
        assert_eq!(tp.capacity(0), 5);
        let (p, profit) = tp.request_edges(0)[0];
        assert_eq!(p, 0);
        assert!((profit - 3.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_welfare_on_tiny_instance() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        b.add_edge(r0, u, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        b.add_edge(r1, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.optimal_welfare(), Utility::new(4.0));
    }

    #[test]
    fn empty_instance_is_valid() {
        let inst = WelfareInstance::builder().build().unwrap();
        assert_eq!(inst.provider_count(), 0);
        assert_eq!(inst.request_count(), 0);
        assert_eq!(inst.optimal_welfare(), Utility::ZERO);
    }
}
