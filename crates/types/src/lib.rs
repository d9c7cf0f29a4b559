//! Core vocabulary types for the ISP-aware P2P auction system.
//!
//! This crate defines the identifiers, physical units, request tuples and
//! error types shared by every other crate in the workspace. Everything here
//! is deliberately small, `Copy` where possible, and free of behaviour beyond
//! validation and conversion, following the newtype guidance of the Rust API
//! guidelines (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! use p2p_types::{PeerId, ChunkId, VideoId, Cost, Valuation};
//!
//! let d = PeerId::new(7);
//! let chunk = ChunkId::new(VideoId::new(3), 120);
//! let utility = Valuation::new(4.0) - Cost::new(1.5);
//! assert!(utility.get() > 2.4);
//! assert_eq!(chunk.video(), VideoId::new(3));
//! assert_eq!(d.get(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod error;
pub mod ids;
pub mod request;
pub mod time;
pub mod units;

pub use args::Args;
pub use error::{P2pError, Result};
pub use ids::{ChunkId, IspId, PeerId, RequestId, VideoId};
pub use request::{ChunkRequest, ScheduledTransfer};
pub use time::{SimDuration, SimTime, SlotIndex};
pub use units::{Bandwidth, Cost, Utility, Valuation};
