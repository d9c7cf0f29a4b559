//! Declarative scenario engine for the ISP-aware P2P emulator.
//!
//! The paper's evaluation (and the `fig*` harness binaries) run *fixed*
//! workloads: a static swarm or steady Poisson churn. This crate turns the
//! emulator into an experimentation platform by making conditions *change
//! mid-run*: a typed [`ScenarioEvent`] timeline — flash crowds, ISP link
//! repricing and outages, seed failures and late seeding, churn-rate
//! bursts, popularity shifts, per-ISP bandwidth throttles — is applied to
//! the streaming [`p2p_streaming::System`] at slot boundaries, where the
//! paper admits topology changes so running auctions are undisturbed.
//!
//! Three layers:
//!
//! * **timeline** — [`Scenario`] + [`TimedEvent`]: a named workload (base
//!   profile, seed, initial peers, churn) plus events pinned to slots;
//! * **spec** — [`parse_scenario`]: a hand-rolled TOML-subset reader, so
//!   scenarios live in data files, not code (see [`spec`] for the format);
//! * **runner** — [`run_scenario`]: sweeps any set of
//!   [`p2p_sched::ChunkScheduler`]s over one scenario and emits
//!   deterministic side-by-side metrics.
//!
//! A library of built-in named scenarios ([`builtin`]) covers the classic
//! stress patterns: `flash_crowd`, `isp_outage`, `prime_time`,
//! `seed_starvation`.
//!
//! # Examples
//!
//! ```
//! use p2p_scenario::{builtin, run_scenario, scheduler_by_name};
//!
//! // How do the auction and the locality baseline weather an ISP outage?
//! let scenario = builtin("isp_outage").unwrap().quick(8);
//! let report = run_scenario(&scenario, vec![
//!     scheduler_by_name("auction", scenario.seed).unwrap(),
//!     scheduler_by_name("locality", scenario.seed).unwrap(),
//! ]).unwrap();
//! assert_eq!(report.runs.len(), 2);
//! print!("{}", report.summary_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod library;
pub mod runner;
pub mod spec;
pub mod timeline;

pub use event::ScenarioEvent;
pub use library::{builtin, builtin_spec, builtins, BUILTIN_NAMES};
pub use runner::{
    event_windows, run_one, run_scenario, run_scenario_probed, scenario_net, scheduler_by_name,
    scheduler_for, RunSummary, ScenarioReport, ScenarioRun, DEFAULT_SCHEDULER, NET_DEFAULT_PEERS,
    SCHEDULER_NAMES, SIM_FAULTY_EPSILON,
};
pub use spec::{parse_scenario, parse_scenario_file};
pub use timeline::{Profile, Scenario, TimedEvent};
