//! Network-agnostic random scheduler (ablation strawman).

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::Assignment;
use p2p_types::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Assigns each request to a uniformly random provider with remaining
/// capacity, ignoring both cost and valuation — the behaviour of a
/// network-agnostic P2P protocol, used as the ablation floor.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates the scheduler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: StdRng::seed_from_u64(seed) }
    }
}

impl ChunkScheduler for RandomScheduler {
    fn name(&self) -> &str {
        "random"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let instance = &problem.instance;
        let mut remaining: Vec<u32> =
            instance.providers().map(|p| p.capacity.chunks_per_slot()).collect();
        // Randomize request processing order too, so early ids get no
        // systematic advantage.
        let mut order: Vec<usize> = (0..instance.request_count()).collect();
        order.shuffle(&mut self.rng);
        let mut assigned = vec![None; instance.request_count()];
        let mut proposals = 0u64;
        for r in order {
            let providers = instance.request(r).providers();
            let mut candidates: Vec<usize> =
                (0..providers.len()).filter(|&e| remaining[providers[e] as usize] > 0).collect();
            candidates.shuffle(&mut self.rng);
            if let Some(&e) = candidates.first() {
                proposals += 1;
                assigned[r] = Some(e);
                remaining[providers[e] as usize] -= 1;
            }
        }
        Ok(Schedule {
            assignment: Assignment::new(assigned),
            stats: ScheduleStats { rounds: 1, bids: proposals },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::WelfareInstance;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};

    fn problem(providers: u32, capacity: u32, requests: u32) -> SlotProblem {
        let mut b = WelfareInstance::builder();
        let us: Vec<_> =
            (0..providers).map(|i| b.add_provider(PeerId::new(100 + i), capacity)).collect();
        for d in 0..requests {
            let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), 0)));
            for &u in &us {
                b.add_edge(r, u, Valuation::new(2.0), Cost::new(1.0 + u as f64)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let n = inst.request_count();
        SlotProblem::new(inst, vec![SimDuration::from_secs(1); n]).unwrap()
    }

    #[test]
    fn fills_capacity_when_demand_exceeds_supply() {
        let p = problem(2, 1, 10);
        let out = RandomScheduler::new(7).schedule(&p).unwrap();
        assert_eq!(out.assignment.assigned_count(), 2);
        assert!(out.assignment.validate(&p.instance).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(3, 2, 10);
        let a = RandomScheduler::new(42).schedule(&p).unwrap();
        let b = RandomScheduler::new(42).schedule(&p).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn different_seeds_differ_eventually() {
        let p = problem(4, 1, 12);
        let a = RandomScheduler::new(1).schedule(&p).unwrap();
        let b = RandomScheduler::new(2).schedule(&p).unwrap();
        // Not guaranteed per-instance, but overwhelmingly likely here.
        assert_ne!(a.assignment, b.assignment);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RandomScheduler::new(0).name(), "random");
    }
}
