//! The persistent worker pool behind the flat engine's sliced rounds.
//!
//! [`WorkerPool`] keeps finished worker threads parked on their job channel
//! instead of exiting, so one pool can serve every engine of a process —
//! scenario sweeps, `System` slot loops, benches — and repeated runs spawn
//! zero new threads. It implements [`p2p_core::csr::WorkerSpawner`], the
//! seam through which [`p2p_core::csr::FlatAuction`] leases its slice
//! workers; the scenarios CLI shares one pool across every scheduler it
//! sweeps. A panicking job is caught and reported through its
//! [`pool::JobHandle`] as [`p2p_types::P2pError::WorkerPanicked`] instead
//! of being lost at join time.
//!
//! The auction's message-level executions live elsewhere: the virtual-time
//! simulator is `p2p_core::SwarmAuction`, and the real transport (tracker
//! and peer processes over TCP) is the `p2p-net` crate.
//!
//! # Examples
//!
//! ```
//! use p2p_runtime::WorkerPool;
//!
//! let pool = WorkerPool::new();
//! let (tx, rx) = std::sync::mpsc::channel();
//! pool.execute(move || tx.send(6 * 7).unwrap()).join().unwrap();
//! assert_eq!(rx.recv().unwrap(), 42);
//! // The worker parked instead of exiting: the next job reuses it.
//! pool.execute(|| {}).join().unwrap();
//! assert_eq!(pool.spawned(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::WorkerPool;
