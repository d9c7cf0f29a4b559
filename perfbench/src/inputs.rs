//! Seeded input generation for the swarm and networked workloads, and the
//! `InstanceBuilder` build that turns those inputs into the system under
//! test.
//!
//! Generation belongs to the benchmark (it is excluded from `setup_s`);
//! the program receives only the generated providers, requests and edges.
//! Every peer sits in one of [`ISPS`] ISPs and link costs follow the
//! paper's split — cheap inside an ISP, expensive across — so the
//! schedule's inter-ISP share means the same thing here as on the
//! streaming workload.

use p2p_core::WelfareInstance;
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Result, Valuation, VideoId};

/// ISPs the generated peers are spread over (the paper's Sec. V count).
pub const ISPS: u64 = 5;

/// Peer ids of providers start here, above every requester id.
const PROVIDER_BASE: u32 = 1 << 30;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the independent stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// One generated candidate edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Provider index.
    pub provider: u32,
    /// The requester's valuation `v`.
    pub valuation: f64,
    /// The link cost `w`.
    pub cost: f64,
}

/// The generated inputs of one slot: providers with capacities, requests
/// with candidate edges (flattened), and every peer's ISP.
#[derive(Debug, Clone)]
pub struct SlotInputs {
    /// Upload capacity of each provider, chunks per slot.
    pub capacities: Vec<u32>,
    /// ISP of each provider.
    pub provider_isp: Vec<u8>,
    /// ISP of each requester (one requesting peer per request).
    pub request_isp: Vec<u8>,
    /// `edges[offsets[r]..offsets[r + 1]]` are request `r`'s candidates.
    pub offsets: Vec<u32>,
    /// All candidate edges, request by request.
    pub edges: Vec<Edge>,
}

/// The shape of a generated slot.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Requests (one requesting peer each).
    pub requests: usize,
    /// Requesters per provider.
    pub requests_per_provider: usize,
    /// Capacities are uniform in `[1, max_capacity]`.
    pub max_capacity: u32,
    /// Each request draws `[1, max_edges]` candidate providers.
    pub max_edges: usize,
}

impl Shape {
    /// A flash-crowd slot at swarm scale, shaped like the `sim_bench`
    /// rows: one provider per 20 requesters, 1–8 chunks of upload a
    /// provider and up to 8 candidate edges a request.
    pub fn swarm(requests: usize) -> Self {
        Shape { requests, requests_per_provider: 20, max_capacity: 8, max_edges: 8 }
    }

    /// Number of providers.
    pub fn providers(&self) -> usize {
        (self.requests / self.requests_per_provider).max(4)
    }
}

/// Slots a swarm or networked run cycles through, all drawn from the run's
/// seed. A run's medians then rest on several draws of the inputs rather
/// than on one, so they move less from seed to seed.
pub const SLOTS_PER_RUN: u64 = 4;

/// The inputs of every slot a run cycles through.
pub fn generate_run(seed: u64, shape: Shape) -> Vec<SlotInputs> {
    (0..SLOTS_PER_RUN).map(|slot| generate(seed, slot, shape)).collect()
}

/// The system under test of a swarm or networked run: every slot's
/// instance, built through the public `InstanceBuilder`.
pub fn build_run(inputs: &[SlotInputs]) -> Result<Vec<WelfareInstance>> {
    inputs.iter().map(SlotInputs::build).collect()
}

/// Generates slot `slot` of `shape` from `seed`: the same seed and slot
/// give the same inputs. Valuations lie in the paper's `[0.8, 8)` band;
/// costs in `[0, 2)` inside an ISP and `[1, 10)` across ISPs (the
/// truncation ranges of the paper's intra- and inter-ISP cost laws).
pub fn generate(seed: u64, slot: u64, shape: Shape) -> SlotInputs {
    let mut rng = Rng::new(seed, 0x51_07 + slot);
    let providers = shape.providers();
    let capacities =
        (0..providers).map(|_| 1 + rng.below(u64::from(shape.max_capacity)) as u32).collect();
    let provider_isp: Vec<u8> = (0..providers).map(|_| rng.below(ISPS) as u8).collect();
    let mut request_isp = Vec::with_capacity(shape.requests);
    let mut offsets = Vec::with_capacity(shape.requests + 1);
    let mut edges = Vec::with_capacity(shape.requests * (shape.max_edges + 1) / 2);
    offsets.push(0);
    let max_edges = shape.max_edges.min(providers) as u64;
    for _ in 0..shape.requests {
        let isp = rng.below(ISPS) as u8;
        request_isp.push(isp);
        let first = edges.len();
        for _ in 0..1 + rng.below(max_edges) {
            let provider = rng.below(providers as u64) as u32;
            if edges[first..].iter().any(|e: &Edge| e.provider == provider) {
                continue;
            }
            let cost = if provider_isp[provider as usize] == isp {
                rng.range(0.0, 2.0)
            } else {
                rng.range(1.0, 10.0)
            };
            edges.push(Edge { provider, valuation: rng.range(0.8, 8.0), cost });
        }
        offsets.push(edges.len() as u32);
    }
    SlotInputs { capacities, provider_isp, request_isp, offsets, edges }
}

impl SlotInputs {
    /// Number of requests.
    pub fn requests(&self) -> usize {
        self.request_isp.len()
    }

    /// Request `r`'s candidate edges.
    pub fn edges_of(&self, r: usize) -> &[Edge] {
        &self.edges[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The system under test: the instance, built through the public
    /// `InstanceBuilder`.
    pub fn build(&self) -> Result<WelfareInstance> {
        let mut b = WelfareInstance::builder();
        for (i, &cap) in self.capacities.iter().enumerate() {
            b.add_provider(PeerId::new(PROVIDER_BASE + i as u32), cap);
        }
        for r in 0..self.requests() {
            let id = RequestId::new(PeerId::new(r as u32), ChunkId::new(VideoId::new(0), r as u32));
            let idx = b.add_request(id);
            for e in self.edges_of(r) {
                b.add_edge(
                    idx,
                    e.provider as usize,
                    Valuation::new(e.valuation),
                    Cost::new(e.cost),
                )?;
            }
        }
        b.build()
    }

    /// Whether request `r`'s transfer over its edge `edge` crosses ISPs.
    pub fn is_inter_isp(&self, r: usize, edge: usize) -> bool {
        let provider = self.edges_of(r)[edge].provider as usize;
        self.provider_isp[provider] != self.request_isp[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape =
        Shape { requests: 300, requests_per_provider: 10, max_capacity: 6, max_edges: 6 };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(7, 0, SHAPE).build().unwrap();
        assert_eq!(a, generate(7, 0, SHAPE).build().unwrap());
        assert_ne!(a, generate(8, 0, SHAPE).build().unwrap());
        assert_ne!(a, generate(7, 1, SHAPE).build().unwrap());
    }

    #[test]
    fn shape_and_cost_split_hold() {
        let inputs = generate(3, 0, SHAPE);
        let inst = inputs.build().unwrap();
        assert_eq!(inst.request_count(), 300);
        assert_eq!(inst.provider_count(), 30);
        for r in 0..inputs.requests() {
            let edges = inputs.edges_of(r);
            assert!(!edges.is_empty() && edges.len() <= 6);
            for (k, e) in edges.iter().enumerate() {
                let bound = if inputs.is_inter_isp(r, k) { 10.0 } else { 2.0 };
                assert!(e.cost < bound && (0.8..8.0).contains(&e.valuation));
            }
        }
    }
}
