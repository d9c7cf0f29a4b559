//! The paper's primary contribution: a primal-dual auction for
//! socially-optimal, ISP-aware P2P chunk scheduling.
//!
//! # The problem
//!
//! In each time slot the system must decide `a^{(c)}_{u→d} ∈ {0,1}` — which
//! peer `d` downloads which chunk `c` from which neighbor `u` — to maximize
//! social welfare `Σ a·(v^{(c)}(d) − w_{u→d})` subject to upload capacities
//! `B(u)` and at most one source per request (problem (1) of the paper).
//! This crate models one slot's problem as a [`WelfareInstance`].
//!
//! # The algorithm
//!
//! The integer program is a transportation problem; following Bertsekas'
//! primal-dual auction framework, every provider `u` auctions its `B(u)`
//! bandwidth units at price `λ_u` (the dual variable of its capacity
//! constraint) and every request bids at the provider offering the largest
//! net utility `v − w − λ`, with bid `b = λ* + φ* − φ̂` (best-minus-second
//! margin). Four executions of the same bidder/auctioneer logic are
//! provided, plus a classic reference:
//!
//! * [`engine::SyncAuction`] — deterministic synchronous rounds, the
//!   readable reference oracle;
//! * [`shard::ShardedAuction`] — sharded Jacobi rounds with batched price
//!   updates and price-delta worklists, for 10³–10⁴-request slots (parallel
//!   across cores when the machine has them);
//! * [`csr::FlatAuction`] — the same sequential and sharded schedules over
//!   a flat CSR compilation of the instance ([`csr::CsrInstance`]) with
//!   reusable scratch: zero heap allocations in the hot loop after
//!   warm-up, bit-identical outcomes to the two engines above — the fast
//!   path used by schedulers and benchmarks;
//! * [`swarm::SwarmAuction`] — the transport-agnostic [`protocol`] state
//!   machines as logical actors on virtual time, the one message-level
//!   simulator: bit-identical to the synchronous sweep under the ideal
//!   network model, certified within `n·ε` under seeded
//!   drop/delay/reorder/duplicate faults, with cost-derived link latency
//!   and Sec. IV-C mid-auction departures for Fig. 2's within-slot price
//!   trace, and 10⁵-peer slots in seconds;
//! * the classic assignment-problem auction ([`bertsekas`]) together with
//!   the transportation → assignment expansion of the paper's Fig. 1.
//!
//! The real transport — tracker and peer processes exchanging the
//! [`codec`] frames over TCP — lives in the `p2p-net` crate.
//!
//! # Optimality verification
//!
//! Theorem 1 states the auction terminates at an optimal primal/dual pair.
//! [`verify`] checks dual feasibility and all three complementary slackness
//! conditions from the paper's appendix, and the exact transportation
//! optimum from [`p2p_netflow`] provides an independent ground truth.
//!
//! # Examples
//!
//! ```
//! use p2p_core::{WelfareInstance, engine::SyncAuction, AuctionConfig};
//! use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost};
//!
//! let mut b = WelfareInstance::builder();
//! let u0 = b.add_provider(PeerId::new(10), 1);
//! let u1 = b.add_provider(PeerId::new(11), 1);
//! let chunk = ChunkId::new(VideoId::new(0), 0);
//! let r0 = b.add_request(RequestId::new(PeerId::new(0), chunk));
//! b.add_edge(r0, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
//! b.add_edge(r0, u1, Valuation::new(5.0), Cost::new(4.0)).unwrap();
//! let instance = b.build().unwrap();
//!
//! let outcome = SyncAuction::new(AuctionConfig::paper()).run(&instance).unwrap();
//! assert!(outcome.converged);
//! // The cheap provider wins the request.
//! assert_eq!(outcome.assignment.provider_of(&instance, r0), Some(u0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auctioneer;
pub mod bertsekas;
pub mod bidder;
pub mod codec;
pub mod csr;
pub mod engine;
pub mod instance;
pub mod messages;
pub mod protocol;
pub mod shard;
pub mod solution;
pub mod strategic;
pub mod swarm;
pub mod verify;

mod ordf64;

pub use bidder::{BidDecision, EdgeView};
pub use codec::{decode_msg, encode_msg, MAX_FRAME_LEN, WIRE_VERSION};
pub use csr::{CsrInstance, FlatAuction, FlatOutcome};
pub use engine::{AuctionConfig, AuctionOutcome, EpsilonScaling, SyncAuction};
pub use instance::{EdgeSpec, InstanceBuilder, ProviderSpec, RequestSpec, WelfareInstance};
pub use p2p_metrics::{
    AuctionProbe, CountingProbe, EngineReport, NoProbe, PricePoint, PriceRecorder,
};
pub use p2p_sim::derive_seed;
pub use protocol::{AuctioneerNode, BidReply, BidderNode, BidderPhase, LearnPolicy};
pub use shard::{available_cores, ShardCount, ShardedAuction};
pub use solution::{Assignment, DualSolution};
pub use swarm::{
    CostLatency, DepartureEvent, FaultStats, NetworkModel, SwarmAuction, SwarmConfig, SwarmOutcome,
};
pub use verify::{verify_optimality, OptimalityReport};

pub(crate) use ordf64::OrdF64;
