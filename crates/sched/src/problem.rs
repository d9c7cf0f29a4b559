//! The slot-level scheduling problem and schedule types.

use p2p_core::{Assignment, CsrInstance, WelfareInstance};
use p2p_types::{P2pError, SimDuration, Utility};

/// One slot's scheduling problem: the welfare instance plus the per-request
/// urgency information the locality baseline needs (the auction uses only
/// the valuations already embedded in the instance). The flat engine reads
/// the instance's own arrays through [`SlotProblem::csr_instance`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProblem {
    /// The welfare-maximization instance (problem (1)).
    pub instance: WelfareInstance,
    /// Per request: time to the chunk's playback deadline at slot start.
    pub urgency: Vec<SimDuration>,
}

impl SlotProblem {
    /// Bundles an instance with per-request urgencies.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] if `urgency` does not have
    /// exactly one entry per request.
    pub fn new(instance: WelfareInstance, urgency: Vec<SimDuration>) -> Result<Self, P2pError> {
        if urgency.len() != instance.request_count() {
            return Err(P2pError::MalformedInstance(format!(
                "{} urgencies for {} requests",
                urgency.len(),
                instance.request_count()
            )));
        }
        Ok(SlotProblem { instance, urgency })
    }

    /// A handle on the instance's flat CSR arrays: nothing is copied.
    pub fn csr_instance(&self) -> CsrInstance {
        CsrInstance::compile(&self.instance)
    }

    /// Number of requests.
    pub fn request_count(&self) -> usize {
        self.instance.request_count()
    }
}

/// Diagnostics of a scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleStats {
    /// Auction rounds (0 for one-shot schedulers).
    pub rounds: u64,
    /// Bids/proposals processed.
    pub bids: u64,
}

/// The outcome of scheduling one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Which edge each request downloads over (if any).
    pub assignment: Assignment,
    /// Run diagnostics.
    pub stats: ScheduleStats,
}

impl Schedule {
    /// The social welfare of this schedule.
    pub fn welfare(&self, problem: &SlotProblem) -> Utility {
        self.assignment.welfare(&problem.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn one_request_problem() -> SlotProblem {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(1), 1);
        let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        SlotProblem::new(b.build().unwrap(), vec![SimDuration::from_secs(1)]).unwrap()
    }

    #[test]
    fn urgency_length_validated() {
        let mut b = WelfareInstance::builder();
        b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
        let inst = b.build().unwrap();
        assert!(SlotProblem::new(inst, vec![]).is_err());
    }

    #[test]
    fn schedule_welfare_delegates_to_assignment() {
        let p = one_request_problem();
        let s = Schedule {
            assignment: Assignment::new(vec![Some(0)]),
            stats: ScheduleStats::default(),
        };
        assert_eq!(s.welfare(&p), Utility::new(3.0));
        assert_eq!(p.request_count(), 1);
    }
}
