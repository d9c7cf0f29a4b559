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
    fn deterministic_per_seed() {
        assert_eq!(random_instance(7, 5, 20, 3, 3), random_instance(7, 5, 20, 3, 3));
    }
}
