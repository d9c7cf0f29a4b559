//! Random welfare-instance generation for solver benchmarks and the
//! optimality sweep.

use p2p_core::WelfareInstance;
use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random instance shaped like a slot problem: `providers`
/// upstream peers with capacities in `[1, max_capacity]`, `requests`
/// download requests each with up to `max_edges` candidate providers,
/// valuations in the paper's `[0.8, 8]` band and costs in `[0, 10]`
/// (continuous ⇒ tie-free almost surely).
pub fn random_instance(
    seed: u64,
    providers: usize,
    requests: usize,
    max_capacity: u32,
    max_edges: usize,
) -> WelfareInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WelfareInstance::builder();
    let ps: Vec<usize> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(100_000 + i as u32), rng.gen_range(1..=max_capacity)))
        .collect();
    for d in 0..requests {
        let r = b.add_request(RequestId::new(
            PeerId::new(d as u32),
            ChunkId::new(VideoId::new(0), d as u32),
        ));
        let k = rng.gen_range(1..=max_edges.min(providers));
        let mut picked = std::collections::HashSet::new();
        for _ in 0..k {
            let u = ps[rng.gen_range(0..providers)];
            if picked.insert(u) {
                let v = Valuation::new(rng.gen_range(0.8..8.0));
                let w = Cost::new(rng.gen_range(0.0..10.0));
                b.add_edge(r, u, v, w).expect("valid indices");
            }
        }
    }
    b.build().expect("builder-validated")
}

/// Generates a tie-heavy instance shaped like a streaming slot: each of
/// `peers` downstream peers requests `chunks` chunks from the same up to
/// `max_edges` of `providers` upstream peers (capacities in
/// `[1, max_capacity]`). Each (peer, provider) pair has one cost and each
/// chunk one valuation, both on a 0.5 grid (costs in `[0, 5]`, valuations
/// in `[1, 8]`). Chunks of one peer that share a valuation are identical
/// rows and many candidates tie across providers: the structural ties of
/// the slot problems `p2p_streaming` builds, where equal bids collide.
pub fn grid_instance(
    seed: u64,
    providers: usize,
    peers: usize,
    chunks: usize,
    max_capacity: u32,
    max_edges: usize,
) -> WelfareInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = WelfareInstance::builder();
    let ps: Vec<usize> = (0..providers)
        .map(|i| b.add_provider(PeerId::new(100_000 + i as u32), rng.gen_range(1..=max_capacity)))
        .collect();
    let half = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..=hi)) * 0.5;
    for d in 0..peers {
        let k = rng.gen_range(1..=max_edges.min(providers));
        let mut neighbours: Vec<(usize, Cost)> = Vec::with_capacity(k);
        for _ in 0..k {
            let u = ps[rng.gen_range(0..providers)];
            if neighbours.iter().all(|&(v, _)| v != u) {
                neighbours.push((u, Cost::new(half(&mut rng, 0, 10))));
            }
        }
        for c in 0..chunks {
            let r = b.add_request(RequestId::new(
                PeerId::new(d as u32),
                ChunkId::new(VideoId::new(0), c as u32),
            ));
            let v = Valuation::new(half(&mut rng, 2, 16));
            for &(u, w) in &neighbours {
                b.add_edge(r, u, v, w).expect("valid indices");
            }
        }
    }
    b.build().expect("builder-validated")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_parameters() {
        let inst = random_instance(1, 10, 50, 5, 4);
        assert_eq!(inst.provider_count(), 10);
        assert_eq!(inst.request_count(), 50);
        assert!(inst.edge_count() > 0);
        for r in inst.requests() {
            assert!(r.edge_count() > 0 && r.edge_count() <= 4);
        }
    }

    #[test]
    fn grid_rows_share_each_peer_pair_cost() {
        let inst = grid_instance(3, 6, 10, 4, 3, 4);
        assert_eq!(inst.request_count(), 40);
        for peer in inst.requests().collect::<Vec<_>>().chunks(4) {
            let costs = |r: &p2p_core::RequestView<'_>| -> Vec<(usize, f64)> {
                r.edges().map(|e| (e.provider, e.cost.get())).collect()
            };
            assert!(peer.iter().all(|r| costs(r) == costs(&peer[0])));
            for e in peer[0].edges() {
                assert_eq!((e.cost.get() * 2.0).fract(), 0.0, "costs lie on the 0.5 grid");
                assert_eq!((e.valuation.get() * 2.0).fract(), 0.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(random_instance(7, 5, 20, 3, 3), random_instance(7, 5, 20, 3, 3));
    }
}
