//! The per-slot welfare maximization instance (problem (1) of the paper).
//!
//! One slot's problem is one sparse request → provider graph, and every
//! execution of the auction only ever scans one request's candidate row
//! (Sec. IV-B). The instance therefore stores each edge once, in flat
//! row-major (CSR) arrays behind one `Arc` ([`CsrData`]): request `r` owns
//! edges `row_offsets[r] .. row_offsets[r + 1]`, and per edge the arrays
//! hold the provider, the welfare weight `v − w` (computed once, by the
//! same single subtraction [`EdgeSpec::utility`] performs), the valuation
//! and the cost. Readers borrow one row at a time through
//! [`WelfareInstance::request`]; the flat engine's
//! [`CsrInstance`](crate::csr::CsrInstance) is a handle on the same arrays,
//! and cloning an instance is a reference bump.

use p2p_netflow::TransportationProblem;
use p2p_types::{Bandwidth, Cost, P2pError, PeerId, RequestId, Utility, Valuation};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// One download request `(I_d, c)` and its candidate row `N^{(c)}(d)`
/// (neighbors caching chunk `c`), borrowed from its instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestView<'a> {
    /// The request identity.
    pub id: RequestId,
    providers: &'a [u32],
    utilities: &'a [f64],
    valuations: &'a [Valuation],
    costs: &'a [Cost],
}

impl<'a> RequestView<'a> {
    /// Number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.providers.len()
    }

    /// The request's `k`-th candidate edge.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn edge(&self, k: usize) -> EdgeSpec {
        EdgeSpec {
            provider: self.providers[k] as usize,
            valuation: self.valuations[k],
            cost: self.costs[k],
        }
    }

    /// The candidate edges in row order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeSpec> + 'a {
        let row = *self;
        (0..row.edge_count()).map(move |k| row.edge(k))
    }

    /// Per edge: the provider index.
    pub fn providers(&self) -> &'a [u32] {
        self.providers
    }

    /// Per edge: the welfare weight `v − w`.
    pub fn utilities(&self) -> &'a [f64] {
        self.utilities
    }
}

/// The flat arrays of one instance. All per-edge arrays are index-aligned,
/// and request `r` owns edges `row_offsets[r] .. row_offsets[r + 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrData {
    /// Per provider: its peer id.
    pub(crate) peer: Vec<PeerId>,
    /// Per provider: upload capacity `B(u)` in chunks per slot.
    pub(crate) capacity: Vec<u32>,
    /// Per request: its identity.
    pub(crate) request_id: Vec<RequestId>,
    /// CSR row bounds; `request_count + 1` entries once built.
    pub(crate) row_offsets: Vec<u32>,
    /// Per edge: the provider index.
    pub(crate) edge_provider: Vec<u32>,
    /// Per edge: the welfare weight `v − w`.
    pub(crate) edge_utility: Vec<f64>,
    /// Per edge: the valuation `v`.
    pub(crate) edge_valuation: Vec<Valuation>,
    /// Per edge: the network cost `w`.
    pub(crate) edge_cost: Vec<Cost>,
}

impl CsrData {
    /// Number of requests (rows).
    pub fn request_count(&self) -> usize {
        self.request_id.len()
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.capacity.len()
    }

    /// Number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.edge_provider.len()
    }

    /// The bounds of request `r`'s edges in the per-edge arrays.
    pub(crate) fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }

    /// One request's edges as parallel `(providers, utilities)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.row_range(r);
        (&self.edge_provider[range.clone()], &self.edge_utility[range])
    }
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
/// assert_eq!(inst.request(r).edge(0).provider, u);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WelfareInstance {
    /// The flat arrays, shared with the flat engine's handles and workers.
    pub(crate) data: Arc<CsrData>,
}

impl WelfareInstance {
    /// Starts building an instance.
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.data.provider_count()
    }

    /// Number of requests.
    pub fn request_count(&self) -> usize {
        self.data.request_count()
    }

    /// Total number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.data.edge_count()
    }

    /// One provider by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn provider(&self, idx: ProviderIdx) -> ProviderSpec {
        ProviderSpec {
            peer: self.data.peer[idx],
            capacity: Bandwidth::new(self.data.capacity[idx]),
        }
    }

    /// One request's row by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn request(&self, idx: RequestIdx) -> RequestView<'_> {
        let d = &*self.data;
        let range = d.row_range(idx);
        RequestView {
            id: d.request_id[idx],
            providers: &d.edge_provider[range.clone()],
            utilities: &d.edge_utility[range.clone()],
            valuations: &d.edge_valuation[range.clone()],
            costs: &d.edge_cost[range],
        }
    }

    /// All providers, in index order.
    pub fn providers(&self) -> impl ExactSizeIterator<Item = ProviderSpec> + '_ {
        (0..self.provider_count()).map(|u| self.provider(u))
    }

    /// All requests' rows, in index order.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = RequestView<'_>> + '_ {
        (0..self.request_count()).map(|r| self.request(r))
    }

    /// Total upload capacity across providers.
    pub fn total_capacity(&self) -> Bandwidth {
        self.providers().map(|p| p.capacity).sum()
    }

    /// Converts to the equivalent transportation problem (profits
    /// `v − w`), for exact solving via [`p2p_netflow`].
    pub fn to_transportation(&self) -> TransportationProblem {
        let edges = self
            .requests()
            .map(|r| {
                r.providers().iter().zip(r.utilities()).map(|(&u, &w)| (u as usize, w)).collect()
            })
            .collect();
        TransportationProblem::new(self.data.capacity.clone(), edges)
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

/// Incremental builder for [`WelfareInstance`]: appends straight to the
/// instance's flat arrays.
///
/// Rows are appended in request order, so an edge may be added to request
/// `r` only while no later request has an edge (requests without edges
/// may be added ahead of time). [`InstanceBuilder::add_edge`] rejects an
/// edge that breaks this order.
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    /// The arrays under construction. `row_offsets` holds the start of
    /// every request up to the last one with an edge; the rows after it
    /// are empty and get their offsets in [`InstanceBuilder::build`].
    data: CsrData,
}

impl InstanceBuilder {
    /// Adds a provider with `capacity` chunks-per-slot; returns its index.
    pub fn add_provider(&mut self, peer: PeerId, capacity: u32) -> ProviderIdx {
        self.data.peer.push(peer);
        self.data.capacity.push(capacity);
        self.data.capacity.len() - 1
    }

    /// Adds a request with no edges yet; returns its index.
    pub fn add_request(&mut self, id: RequestId) -> RequestIdx {
        self.add_request_with_capacity(id, 0)
    }

    /// Adds a request with no edges yet, reserving room in the edge arrays
    /// for `edges` more edges, for callers that know the request's
    /// candidate count; returns its index.
    pub fn add_request_with_capacity(&mut self, id: RequestId, edges: usize) -> RequestIdx {
        self.data.request_id.push(id);
        self.reserve(0, edges);
        self.data.request_id.len() - 1
    }

    /// Reserves room for `requests` more requests and `edges` more edges,
    /// so a caller that can estimate the instance's size grows each array
    /// once instead of doubling it from empty.
    pub fn reserve(&mut self, requests: usize, edges: usize) {
        let d = &mut self.data;
        d.request_id.reserve(requests);
        d.row_offsets.reserve(requests);
        d.edge_provider.reserve(edges);
        d.edge_utility.reserve(edges);
        d.edge_valuation.reserve(edges);
        d.edge_cost.reserve(edges);
    }

    /// Adds a candidate edge from `request` to `provider`.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] if either index is out of
    /// range, if a later request already has an edge (the builder appends
    /// rows in request order), or if the edge duplicates an existing
    /// (request, provider) pair — a request has at most one edge per
    /// neighbor — and [`P2pError::NonFiniteUtility`] if the welfare weight
    /// `v − w` overflows to infinity (finite `valuation` and `cost` do not
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
        let d = &mut self.data;
        if provider >= d.capacity.len() {
            return Err(P2pError::MalformedInstance(format!(
                "provider index {provider} out of range ({} providers)",
                d.capacity.len()
            )));
        }
        if request >= d.request_id.len() {
            return Err(P2pError::MalformedInstance(format!(
                "request index {request} out of range ({} requests)",
                d.request_id.len()
            )));
        }
        let started = d.row_offsets.len();
        if request + 1 < started {
            return Err(P2pError::MalformedInstance(format!(
                "edge for request {request} added after request {} has edges; \
                 add a request's edges before any later request's",
                started - 1
            )));
        }
        let row_start =
            if request + 1 == started { d.row_offsets[request] as usize } else { d.edge_count() };
        if d.edge_provider[row_start..].contains(&(provider as u32)) {
            return Err(P2pError::MalformedInstance(format!(
                "duplicate edge request {request} -> provider {provider}"
            )));
        }
        // Raw difference, not `EdgeSpec::utility` — the unit type's
        // constructor asserts finiteness, and this must be an error, not a
        // panic. It is the same single subtraction, so the stored weight is
        // bit-identical to `EdgeSpec::utility`.
        let utility = valuation.get() - cost.get();
        if !utility.is_finite() {
            return Err(P2pError::NonFiniteUtility {
                request: request as u32,
                provider: provider as u32,
                utility,
            });
        }
        // Open the rows up to `request`; any skipped ones stay empty.
        while d.row_offsets.len() <= request {
            d.row_offsets.push(d.edge_provider.len() as u32);
        }
        d.edge_provider.push(provider as u32);
        d.edge_utility.push(utility);
        d.edge_valuation.push(valuation);
        d.edge_cost.push(cost);
        Ok(())
    }

    /// Finalizes the instance.
    ///
    /// # Errors
    ///
    /// Currently infallible for builder-constructed data, but returns
    /// `Result` to allow future invariants without a breaking change.
    pub fn build(mut self) -> Result<WelfareInstance, P2pError> {
        let d = &mut self.data;
        while d.row_offsets.len() <= d.request_id.len() {
            d.row_offsets.push(d.edge_provider.len() as u32);
        }
        Ok(WelfareInstance { data: Arc::new(self.data) })
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
    fn edges_out_of_request_order_rejected() {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(1), 1);
        let u1 = b.add_provider(PeerId::new(2), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        let r2 = b.add_request(rid(2, 0));
        b.add_edge(r1, u0, Valuation::new(2.0), Cost::new(0.0)).unwrap();
        let err = b.add_edge(r0, u1, Valuation::new(2.0), Cost::new(0.0)).unwrap_err();
        let P2pError::MalformedInstance(msg) = &err else { panic!("{err}") };
        assert!(msg.contains("request 0") && msg.contains("request 1"), "{msg}");
        // The rejected edge was not recorded; the open row and later rows
        // still take edges, and the skipped request stays empty.
        b.add_edge(r1, u1, Valuation::new(3.0), Cost::new(0.0)).unwrap();
        b.add_edge(r2, u1, Valuation::new(4.0), Cost::new(0.0)).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(inst.edge_count(), 3);
        assert_eq!(inst.request(r0).edge_count(), 0);
        assert_eq!(inst.request(r1).providers(), &[u0 as u32, u1 as u32]);
        assert_eq!(inst.request(r2).edge(0).valuation, Valuation::new(4.0));
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
        assert_eq!(inst.request(0).edge(0).utility(), Utility::new(0.75));
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
