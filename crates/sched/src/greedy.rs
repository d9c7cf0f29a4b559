//! Centralized global-greedy heuristic.

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::Assignment;
use p2p_types::Result;

/// Sorts every positive-utility edge by `v − w` descending and takes each
/// one whose request is still unserved and whose provider still has
/// capacity. A centralized heuristic the distributed auction is compared
/// against in the ablations; it is not optimal in general (greedy can block
/// a better pairing) but is usually close.
#[derive(Debug, Clone, Default)]
pub struct GreedyScheduler {
    _private: (),
}

impl GreedyScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyScheduler { _private: () }
    }
}

impl ChunkScheduler for GreedyScheduler {
    fn name(&self) -> &str {
        "global_greedy"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let instance = &problem.instance;
        let mut edges: Vec<(usize, usize, f64)> = Vec::new(); // (request, edge, utility)
        for (r, req) in instance.requests().enumerate() {
            for (e, &u) in req.utilities().iter().enumerate() {
                if u > 0.0 {
                    edges.push((r, e, u));
                }
            }
        }
        edges.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));

        let mut remaining: Vec<u32> =
            instance.providers().map(|p| p.capacity.chunks_per_slot()).collect();
        let mut assigned = vec![None; instance.request_count()];
        let mut taken = 0u64;
        for (r, e, _) in edges {
            if assigned[r].is_some() {
                continue;
            }
            let provider = instance.request(r).edge(e).provider;
            if remaining[provider] == 0 {
                continue;
            }
            assigned[r] = Some(e);
            remaining[provider] -= 1;
            taken += 1;
        }
        Ok(Schedule {
            assignment: Assignment::new(assigned),
            stats: ScheduleStats { rounds: 1, bids: taken },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::WelfareInstance;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};

    fn rid(d: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), 0))
    }

    #[test]
    fn takes_edges_by_descending_utility() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 1);
        let low = b.add_request(rid(0));
        let high = b.add_request(rid(1));
        b.add_edge(low, u, Valuation::new(2.0), Cost::new(1.0)).unwrap();
        b.add_edge(high, u, Valuation::new(7.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1); 2]).unwrap();
        let out = GreedyScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.choice(1), Some(0));
        assert_eq!(out.assignment.choice(0), None);
    }

    #[test]
    fn skips_negative_utility_edges() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 5);
        let r = b.add_request(rid(0));
        b.add_edge(r, u, Valuation::new(0.8), Cost::new(9.0)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1)]).unwrap();
        let out = GreedyScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.assigned_count(), 0);
    }

    #[test]
    fn greedy_is_feasible_and_within_optimal() {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 1);
        let u1 = b.add_provider(PeerId::new(11), 1);
        let r0 = b.add_request(rid(0));
        let r1 = b.add_request(rid(1));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(2.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1); 2]).unwrap();
        let out = GreedyScheduler::new().schedule(&p).unwrap();
        assert!(out.assignment.validate(&p.instance).is_ok());
        assert!(out.welfare(&p).get() <= p.instance.optimal_welfare().get() + 1e-9);
        assert_eq!(GreedyScheduler::new().name(), "global_greedy");
    }
}
