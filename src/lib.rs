//! # isp-p2p — socially-optimal ISP-aware P2P content distribution
//!
//! A complete Rust reproduction of *"Socially-optimal ISP-aware P2P Content
//! Distribution via a Primal-Dual Approach"* (Zhao & Wu, HotPOST / IEEE
//! ICDCS Workshops 2014): the primal-dual auction for chunk scheduling,
//! every substrate it runs on, the paper's evaluation system, and a harness
//! that regenerates every figure of the evaluation section.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `p2p-types` | ids, units, time, requests, errors |
//! | [`topology`] | `p2p-topology` | ISPs, link costs, latency model |
//! | [`workload`] | `p2p-workload` | Zipf–Mandelbrot, truncated normals, catalog, valuations, churn |
//! | [`sim`] | `p2p-sim` | deterministic discrete-event engine |
//! | [`netflow`] | `p2p-netflow` | exact min-cost-flow ground truth |
//! | [`core`] | `p2p-core` | **the paper's auction**: bidder/auctioneer logic, sync + flat engines, swarm simulator, Bertsekas expansion, Theorem 1 verifier |
//! | [`sched`] | `p2p-sched` | auction scheduler + locality/random/greedy/exact baselines |
//! | [`net`] | `p2p-net` | networked runtime: tracker + peer processes over a TCP wire protocol |
//! | [`streaming`] | `p2p-streaming` | the P2P VoD system emulator |
//! | [`scenario`] | `p2p-scenario` | declarative scenarios: mid-run event timelines, spec parser, runner |
//! | [`metrics`] | `p2p-metrics` | series, stats, CSV, ASCII plots |
//!
//! # Quickstart
//!
//! ```
//! use isp_p2p::prelude::*;
//!
//! // One slot of the welfare problem: two peers contend for a provider.
//! let mut b = WelfareInstance::builder();
//! let seed = b.add_provider(PeerId::new(10), 1);
//! let r0 = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 7)));
//! let r1 = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 7)));
//! b.add_edge(r0, seed, Valuation::new(6.0), Cost::new(1.0))?;
//! b.add_edge(r1, seed, Valuation::new(4.0), Cost::new(1.0))?;
//! let instance = b.build()?;
//!
//! // Run the paper's distributed auction and verify Theorem 1.
//! let outcome = SyncAuction::new(AuctionConfig::paper()).run(&instance)?;
//! let report = verify_optimality(&instance, &outcome.assignment, &outcome.duals, 1e-9);
//! assert!(report.is_optimal());
//! assert_eq!(outcome.assignment.welfare(&instance), instance.optimal_welfare());
//! # Ok::<(), p2p_types::P2pError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use p2p_core as core;
pub use p2p_metrics as metrics;
pub use p2p_net as net;
pub use p2p_netflow as netflow;
pub use p2p_scenario as scenario;
pub use p2p_sched as sched;
pub use p2p_sim as sim;
pub use p2p_streaming as streaming;
pub use p2p_topology as topology;
pub use p2p_types as types;
pub use p2p_workload as workload;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use p2p_core::{
        verify_optimality, Assignment, AuctionConfig, AuctionOutcome, CostLatency, CsrBuilder,
        CsrInstance, DualSolution, FlatAuction, FlatOutcome, InstanceDiff, InstancePatch,
        NetworkModel, ShardCount, ShardedAuction, SwarmAuction, SwarmConfig, SyncAuction,
        WelfareInstance,
    };
    pub use p2p_metrics::{ascii_plot, SlotMetrics, SlotRecorder, Summary, TimeSeries};
    pub use p2p_scenario::{
        builtin, parse_scenario, run_scenario, scheduler_by_name, scheduler_for, Scenario,
        ScenarioEvent, ScenarioReport, TimedEvent,
    };
    pub use p2p_sched::{
        AuctionScheduler, ChunkScheduler, ExactScheduler, FlatAuctionScheduler, GreedyScheduler,
        RandomScheduler, Schedule, ShardedAuctionScheduler, SimpleLocalityScheduler, SlotProblem,
    };
    pub use p2p_streaming::{SlotBuild, SlotProblemCache, System, SystemConfig, WorkloadTrace};
    pub use p2p_topology::{Topology, TopologyConfig};
    pub use p2p_types::{
        Bandwidth, ChunkId, ChunkRequest, Cost, IspId, P2pError, PeerId, RequestId, Result,
        SimDuration, SimTime, SlotIndex, Utility, Valuation, VideoId,
    };
    pub use p2p_workload::{
        DeadlineValuation, StreamingParams, TruncatedNormal, VideoCatalog, ZipfMandelbrot,
    };
}
