//! The paper's comparison baseline: simple locality-aware scheduling.

use crate::problem::{Schedule, ScheduleStats, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::Assignment;
use p2p_types::Result;

/// "Simple locality-aware chunk scheduling" (Sec. V): requesters go to the
/// cheapest provider; providers give bandwidth to the most urgent chunks.
///
/// Implemented as deferred-acceptance rounds:
///
/// 1. every unassigned request proposes to its cheapest not-yet-tried
///    provider (pure network cost — valuations are ignored, which is why
///    the baseline's welfare can go negative, as the paper observes);
/// 2. each provider accepts proposals in order of urgency (earliest
///    playback deadline first) while capacity remains, rejecting the rest;
/// 3. rejected requests move on to their next-cheapest provider, up to
///    `max_tries` proposals per request per slot.
///
/// `max_tries` models the protocol's request budget within one slot. The
/// default (1) is the literal one-shot client: each chunk is requested from
/// the cheapest caching neighbor once per bidding cycle, and a rejected
/// request simply retries in the next slot. The auction, by contrast,
/// renegotiates continuously within the slot — that in-slot price discovery
/// is exactly the paper's contribution, so giving the baseline unbounded
/// in-slot retries would equip it with the auction's machinery.
/// `with_max_tries(usize::MAX)` yields the idealized exhaustive-matching
/// variant used in ablations.
///
/// Accepted requests keep their unit (no eviction — the baseline has no
/// prices to justify reallocations).
#[derive(Debug, Clone)]
pub struct SimpleLocalityScheduler {
    max_tries: usize,
}

impl Default for SimpleLocalityScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SimpleLocalityScheduler {
    /// Creates the baseline scheduler with the default retry budget.
    pub fn new() -> Self {
        SimpleLocalityScheduler { max_tries: 1 }
    }

    /// Overrides the per-slot proposal budget per request.
    #[must_use]
    pub fn with_max_tries(mut self, max_tries: usize) -> Self {
        self.max_tries = max_tries.max(1);
        self
    }
}

impl ChunkScheduler for SimpleLocalityScheduler {
    fn name(&self) -> &str {
        "simple_locality"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let instance = &problem.instance;
        let n = instance.request_count();

        // Per request: its edges sorted by ascending network cost, and how
        // many of them have been tried so far.
        let preference: Vec<Vec<usize>> = instance
            .requests()
            .map(|r| {
                let mut order: Vec<usize> = (0..r.edge_count()).collect();
                order.sort_by(|&a, &b| {
                    let (ea, eb) = (r.edge(a), r.edge(b));
                    ea.cost.cmp(&eb.cost).then_with(|| ea.provider.cmp(&eb.provider))
                });
                order
            })
            .collect();
        let mut next_try = vec![0usize; n];
        let mut assigned: Vec<Option<usize>> = vec![None; n];
        let mut remaining: Vec<u32> =
            instance.providers().map(|p| p.capacity.chunks_per_slot()).collect();

        let mut rounds = 0u64;
        let mut proposals_total = 0u64;
        loop {
            rounds += 1;
            // Gather this round's proposals per provider.
            let mut proposals: Vec<Vec<usize>> = vec![Vec::new(); instance.provider_count()];
            let mut any = false;
            for r in 0..n {
                if assigned[r].is_some() {
                    continue;
                }
                let order = &preference[r];
                if next_try[r] >= order.len().min(self.max_tries) {
                    continue; // exhausted the provider list or retry budget
                }
                let edge = order[next_try[r]];
                next_try[r] += 1;
                let provider = instance.request(r).edge(edge).provider;
                proposals[provider].push(r);
                any = true;
                proposals_total += 1;
            }
            if !any {
                break;
            }
            // Providers admit by urgency (earliest deadline first) while
            // capacity remains.
            for (u, mut reqs) in proposals.into_iter().enumerate() {
                reqs.sort_by(|&a, &b| {
                    problem.urgency[a].cmp(&problem.urgency[b]).then_with(|| a.cmp(&b))
                });
                for r in reqs {
                    if remaining[u] == 0 {
                        break; // the rest are rejected; they retry next round
                    }
                    let edge = preference[r][next_try[r] - 1];
                    assigned[r] = Some(edge);
                    remaining[u] -= 1;
                }
            }
        }

        Ok(Schedule {
            assignment: Assignment::new(assigned),
            stats: ScheduleStats { rounds, bids: proposals_total },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::WelfareInstance;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, SimDuration, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    #[test]
    fn requests_go_to_cheapest_provider_first() {
        let mut b = WelfareInstance::builder();
        let cheap = b.add_provider(PeerId::new(10), 1);
        let costly = b.add_provider(PeerId::new(11), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, costly, Valuation::new(1.0), Cost::new(5.0)).unwrap();
        b.add_edge(r, cheap, Valuation::new(1.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1)]).unwrap();
        let out = SimpleLocalityScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.provider_of(&p.instance, 0), Some(cheap));
    }

    #[test]
    fn urgency_breaks_capacity_contention() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 1);
        let relaxed = b.add_request(rid(0, 0));
        let urgent = b.add_request(rid(1, 0));
        b.add_edge(relaxed, u, Valuation::new(1.0), Cost::new(1.0)).unwrap();
        b.add_edge(urgent, u, Valuation::new(1.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(8), SimDuration::from_secs(1)])
            .unwrap();
        let out = SimpleLocalityScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.choice(1), Some(0), "urgent request wins");
        assert_eq!(out.assignment.choice(0), None);
    }

    #[test]
    fn rejected_requests_spill_to_next_cheapest() {
        let mut b = WelfareInstance::builder();
        let local = b.add_provider(PeerId::new(10), 1);
        let remote = b.add_provider(PeerId::new(11), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        for r in [r0, r1] {
            b.add_edge(r, local, Valuation::new(1.0), Cost::new(1.0)).unwrap();
            b.add_edge(r, remote, Valuation::new(1.0), Cost::new(6.0)).unwrap();
        }
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1), SimDuration::from_secs(2)])
            .unwrap();
        // Spilling to the next-cheapest provider requires a retry budget
        // beyond the default one-shot client.
        let out = SimpleLocalityScheduler::new().with_max_tries(2).schedule(&p).unwrap();
        // r0 (more urgent) takes the local unit; r1 spills to the remote one.
        assert_eq!(out.assignment.provider_of(&p.instance, 0), Some(local));
        assert_eq!(out.assignment.provider_of(&p.instance, 1), Some(remote));
        assert!(out.stats.rounds >= 2);

        // The one-shot default leaves the rejected request unassigned.
        let one_shot = SimpleLocalityScheduler::new().schedule(&p).unwrap();
        assert_eq!(one_shot.assignment.provider_of(&p.instance, 0), Some(local));
        assert_eq!(one_shot.assignment.provider_of(&p.instance, 1), None);
    }

    #[test]
    fn accepts_negative_utility_transfers_unlike_the_auction() {
        // v = 0.8, w = 6 ⇒ utility −5.2; the baseline still schedules it
        // (it ignores valuations), matching the paper's negative-welfare
        // observation in Fig. 3.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u, Valuation::new(0.8), Cost::new(6.0)).unwrap();
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1)]).unwrap();
        let out = SimpleLocalityScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.assigned_count(), 1);
        assert!(out.welfare(&p).get() < 0.0);
    }

    #[test]
    fn respects_capacity() {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(10), 2);
        let mut reqs = Vec::new();
        for d in 0..5 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, u, Valuation::new(1.0), Cost::new(1.0)).unwrap();
            reqs.push(r);
        }
        let inst = b.build().unwrap();
        let p = SlotProblem::new(inst, vec![SimDuration::from_secs(1); 5]).unwrap();
        let out = SimpleLocalityScheduler::new().schedule(&p).unwrap();
        assert_eq!(out.assignment.assigned_count(), 2);
        assert!(out.assignment.validate(&p.instance).is_ok());
    }
}
