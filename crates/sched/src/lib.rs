//! Chunk-scheduling strategies.
//!
//! The streaming system delegates each slot's "who downloads which chunk
//! from whom" decision to a [`ChunkScheduler`]. Implementations:
//!
//! * [`AuctionScheduler`] — the paper's primal-dual auction (the
//!   contribution under evaluation);
//! * [`ShardedAuctionScheduler`] — the same auction on the sharded
//!   parallel engine (`p2p_core::ShardedAuction`), for 10³–10⁴-request
//!   slots;
//! * [`FlatAuctionScheduler`] — the same auction on the flat CSR engine
//!   (`p2p_core::csr::FlatAuction`): zero-allocation hot path over the
//!   slot instance's CSR rows, bit-identical outcomes to the two schedulers
//!   above at every shard count;
//! * [`SimAuctionScheduler`] — the same auction executed as a virtual-time
//!   discrete-event simulation of the peer swarm (`p2p_core::SwarmAuction`):
//!   bit-identical to the engines above under an ideal network, and the
//!   only scheduler that exercises seeded message faults (drop / delay /
//!   reorder / duplicate / partition);
//! * [`NetAuctionScheduler`] — the same auction executed over real
//!   loopback TCP sockets (`p2p_net`): a tracker coordinator plus peer
//!   actors speaking the versioned wire protocol, bit-identical to the
//!   in-process engines;
//! * [`SimpleLocalityScheduler`] — the paper's comparison baseline: "each
//!   downstream peer requests chunks from upstream neighbors with the
//!   lowest network costs in between as much as possible; for bandwidth
//!   allocation at an upstream peer, it always prioritizes to transmit
//!   chunks with more urgent deadlines" (Sec. V);
//! * [`RandomScheduler`] — a network-agnostic strawman for ablations;
//! * [`GreedyScheduler`] — a centralized global-greedy heuristic, an upper
//!   baseline for the distributed algorithms;
//! * [`ExactScheduler`] — the min-cost-flow optimum (welfare upper bound,
//!   not implementable distributively; used for optimality-gap plots).
//!
//! # Examples
//!
//! ```
//! use p2p_sched::{AuctionScheduler, ChunkScheduler, SlotProblem};
//! use p2p_core::WelfareInstance;
//! use p2p_types::*;
//!
//! let mut b = WelfareInstance::builder();
//! let u = b.add_provider(PeerId::new(1), 1);
//! let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
//! b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
//! let problem = SlotProblem::new(b.build().unwrap(), vec![SimDuration::from_secs(5)]).unwrap();
//!
//! let mut sched = AuctionScheduler::paper();
//! let schedule = sched.schedule(&problem).unwrap();
//! assert_eq!(schedule.assignment.assigned_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod exact;
pub mod greedy;
pub mod locality;
pub mod net;
pub mod problem;
pub mod random;
pub mod sim;

pub use auction::{AuctionScheduler, FlatAuctionScheduler, ShardedAuctionScheduler};
pub use exact::ExactScheduler;
pub use greedy::GreedyScheduler;
pub use locality::SimpleLocalityScheduler;
pub use net::NetAuctionScheduler;
pub use p2p_core::NetworkModel;
pub use problem::{Schedule, ScheduleStats, SlotProblem};
pub use random::RandomScheduler;
pub use sim::SimAuctionScheduler;

use p2p_metrics::EngineReport;
use p2p_types::Result;

/// A per-slot chunk scheduling strategy.
///
/// Implementations may keep internal state across slots (e.g. RNG streams),
/// hence `&mut self`.
pub trait ChunkScheduler {
    /// Short identifier used in figure legends and CSV headers.
    fn name(&self) -> &str;

    /// Solves one slot's scheduling problem.
    ///
    /// # Errors
    ///
    /// Implementations report divergence or malformed instances via
    /// [`p2p_types::P2pError`].
    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule>;

    /// Enables or disables engine probe collection for subsequent slots.
    ///
    /// The default is a no-op: schedulers without an instrumented engine
    /// (locality, random, greedy, exact) simply never produce a report, and
    /// probes stay off unless a caller opts in — the hot path monomorphizes
    /// to the bare loop.
    fn set_probes(&mut self, _enabled: bool) {}

    /// Takes the [`EngineReport`] accumulated since the last call.
    ///
    /// Returns `None` when probes are off or the scheduler has no
    /// instrumented engine. Taking resets the accumulator, so the streaming
    /// system can collect one report per slot.
    fn take_probe_report(&mut self) -> Option<EngineReport> {
        None
    }

    /// Takes the virtual seconds the last scheduled slot consumed, if this
    /// scheduler runs on virtual time ([`SimAuctionScheduler`]); `None`
    /// for wall-clock schedulers. The streaming system uses this as the
    /// clock seam: virtual-time runs report virtual phase durations in
    /// their `RunReport` instead of wall-clock `Instant` deltas.
    fn take_virtual_elapsed(&mut self) -> Option<f64> {
        None
    }
}
