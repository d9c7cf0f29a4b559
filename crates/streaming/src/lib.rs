//! The P2P VoD streaming system emulator.
//!
//! Recreates the paper's evaluation system (Sec. V) as a slot-driven
//! simulation: peers join (Poisson, Zipf-Mandelbrot video choice), maintain
//! a moving window of interest over their video's chunks, exchange buffer
//! maps with ~30 tracker-assigned neighbors, and each 10-second time slot a
//! pluggable [`p2p_sched::ChunkScheduler`] decides every chunk transfer —
//! the primal-dual auction or a baseline. Playback consumes chunks at the
//! streaming rate; chunks absent at their playback deadline count as
//! misses. Per-ISP seed peers serve the catalog.
//!
//! The emulator replaces the authors' six-blade-server Java deployment (see
//! DESIGN.md §2 for the substitution argument); the message-level timing of
//! the in-slot auction is reproduced separately by [`fig2`] on the
//! discrete-event simulator.
//!
//! # Examples
//!
//! ```
//! use p2p_streaming::{System, SystemConfig};
//! use p2p_sched::AuctionScheduler;
//!
//! let config = SystemConfig::small_test();
//! let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
//! sys.add_static_peers(20).unwrap();
//! sys.run_slots(5).unwrap();
//! assert_eq!(sys.recorder().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod fig2;
pub mod peer;
pub mod system;
pub mod tracker;

pub use buffer::ChunkBuffer;
pub use config::{ClockMode, SeedPlacement, SystemConfig};
pub use p2p_core::ShardCount;
pub use p2p_metrics::{RunReport, SlotReport};
pub use peer::PeerState;
pub use system::{System, WorkloadTrace};
pub use tracker::Tracker;
