//! The exact (min-cost-flow) scheduler — welfare upper bound.

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::Assignment;
use p2p_netflow::solve_max_profit;
use p2p_types::{P2pError, Result};

/// Solves each slot exactly via min-cost flow. Centralized and
/// non-distributable, but gives the true optimum: used for optimality-gap
/// measurements and as the reference in tests.
#[derive(Debug, Clone, Default)]
pub struct ExactScheduler {
    _private: (),
}

impl ExactScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ExactScheduler { _private: () }
    }
}

impl ChunkScheduler for ExactScheduler {
    fn name(&self) -> &str {
        "exact"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let instance = &problem.instance;
        let sol = solve_max_profit(&instance.to_transportation())
            .map_err(|e| P2pError::MalformedInstance(e.to_string()))?;
        let choices = instance
            .requests()
            .zip(&sol.assignment)
            .map(|(req, provider)| {
                provider.map(|u| {
                    req.providers()
                        .iter()
                        .position(|&p| p as usize == u)
                        .expect("solver only uses instance edges")
                })
            })
            .collect();
        Ok(Schedule { assignment: Assignment::new(choices), stats: ScheduleStats::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::AuctionScheduler;
    use p2p_core::WelfareInstance;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};

    fn problem() -> SlotProblem {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 1);
        let u1 = b.add_provider(PeerId::new(11), 1);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 0)));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(2.7)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.5), Cost::new(0.4)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.5), Cost::new(3.1)).unwrap();
        let inst = b.build().unwrap();
        SlotProblem::new(inst, vec![SimDuration::from_secs(1); 2]).unwrap()
    }

    #[test]
    fn exact_matches_optimal_welfare() {
        let p = problem();
        let out = ExactScheduler::new().schedule(&p).unwrap();
        let gap = (out.welfare(&p).get() - p.instance.optimal_welfare().get()).abs();
        assert!(gap < 1e-9, "gap {gap}");
        assert!(out.assignment.validate(&p.instance).is_ok());
        assert_eq!(ExactScheduler::new().name(), "exact");
    }

    #[test]
    fn auction_matches_exact_on_tie_free_instance() {
        let p = problem();
        let exact = ExactScheduler::new().schedule(&p).unwrap();
        let auction = AuctionScheduler::paper().schedule(&p).unwrap();
        let gap = (auction.welfare(&p).get() - exact.welfare(&p).get()).abs();
        assert!(gap < 1e-9, "Theorem 1: the auction equals the exact optimum (gap {gap})");
    }
}
