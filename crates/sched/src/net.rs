//! Networked-runtime scheduler: each slot's auction runs over real TCP.
//!
//! [`NetAuctionScheduler`] drives [`p2p_net::run_slot_local`] — a tracker
//! plus `peers` peer actors exchanging the length-prefixed wire protocol
//! over loopback sockets — instead of the in-process sweep the other
//! auction schedulers use. The default [`NetConfig`] ships the batched
//! wire-version-2 protocol (one `PollBatch` frame per peer per sweep
//! round); the tracker still replays the same synchronous
//! Gauss–Seidel sweep, so outcomes are bit-identical to
//! [`AuctionScheduler`](crate::AuctionScheduler) /
//! `FlatAuctionScheduler` at one shard: same assignment, same duals, same
//! round and bid counts, same `n·ε` certificate.
//!
//! This scheduler exists to certify the transport inside end-to-end
//! scenario runs: any drift between the wire protocol and the reference
//! engines shows up as a diverging figure, not a silent regression.

use crate::auction::schedule_of;
use crate::problem::{Schedule, SlotProblem};
use crate::ChunkScheduler;
use p2p_core::NoProbe;
use p2p_metrics::{CountingProbe, EngineReport};
use p2p_net::{run_slot_local, NetConfig};
use p2p_types::Result;

/// Schedules each slot by running the auction over loopback TCP.
///
/// # Examples
///
/// ```
/// use p2p_sched::{ChunkScheduler, NetAuctionScheduler, SlotProblem};
/// use p2p_core::WelfareInstance;
/// use p2p_types::*;
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(1), 1);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
/// let problem = SlotProblem::new(b.build().unwrap(), vec![SimDuration::from_secs(5)]).unwrap();
///
/// let mut sched = NetAuctionScheduler::paper(2);
/// let schedule = sched.schedule(&problem).unwrap();
/// assert_eq!(schedule.assignment.assigned_count(), 1);
/// ```
#[derive(Debug)]
pub struct NetAuctionScheduler {
    config: NetConfig,
    peers: usize,
    probe: Option<CountingProbe>,
}

impl NetAuctionScheduler {
    /// Networked auction with the paper's ε = 0 rule and `peers` peer
    /// actors (clamped to at least one).
    pub fn paper(peers: usize) -> Self {
        NetAuctionScheduler { config: NetConfig::default(), peers: peers.max(1), probe: None }
    }

    /// Networked auction with a minimum bid increment ε > 0.
    pub fn with_epsilon(epsilon: f64, peers: usize) -> Self {
        NetAuctionScheduler {
            config: NetConfig { epsilon, ..NetConfig::default() },
            ..Self::paper(peers)
        }
    }

    /// Overrides the transport configuration (timeouts, heartbeats).
    #[must_use]
    pub fn with_config(mut self, config: NetConfig) -> Self {
        self.config = config;
        self
    }

    /// The number of peer actors each slot's swarm is partitioned over.
    pub fn peers(&self) -> usize {
        self.peers
    }
}

impl ChunkScheduler for NetAuctionScheduler {
    fn name(&self) -> &str {
        "auction_net"
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let instance = &problem.instance;
        let outcome = match &mut self.probe {
            Some(p) => run_slot_local(instance, self.peers, &self.config, p),
            None => run_slot_local(instance, self.peers, &self.config, &mut NoProbe),
        }?;
        Ok(schedule_of(outcome))
    }

    fn set_probes(&mut self, enabled: bool) {
        self.probe = enabled.then(CountingProbe::new);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.probe.as_mut().map(CountingProbe::take_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::tests::problem;
    use crate::AuctionScheduler;

    #[test]
    fn zero_peers_clamps_to_one() {
        assert_eq!(NetAuctionScheduler::paper(0).peers(), 1);
    }

    #[test]
    fn networked_slots_match_the_sync_scheduler_slot_by_slot() {
        let mut net = NetAuctionScheduler::paper(3);
        let mut sync = AuctionScheduler::paper();
        for slot in 0..3 {
            let p = problem();
            let a = net.schedule(&p).unwrap();
            let b = sync.schedule(&p).unwrap();
            assert_eq!(a.assignment, b.assignment, "slot {slot}");
            assert_eq!(a.stats, b.stats, "slot {slot}");
        }
    }

    #[test]
    fn probe_reports_flow_through() {
        let mut net = NetAuctionScheduler::paper(2);
        net.set_probes(true);
        net.schedule(&problem()).unwrap();
        let report = net.take_probe_report().unwrap();
        assert!(report.rounds > 0);
        assert!(report.bids > 0);
    }
}
