//! Networked auction runtime: a tracker and peer processes exchanging the
//! paper's bid/price protocol over a length-prefixed TCP wire format.
//!
//! This crate is transport only. The auction logic is exactly the
//! transport-agnostic [`BidderNode`](p2p_core::BidderNode) /
//! [`AuctioneerNode`](p2p_core::AuctioneerNode) state machines every other
//! runtime drives; the tracker replays the synchronous Gauss–Seidel sweep
//! over the wire (exact current prices in every poll, index-order
//! scheduling, FIFO notices) and applies every reply through the same
//! [`p2p_core::Sweep`] that [`p2p_core::SyncAuction`] drives, which makes
//! the networked outcome — assignment, duals, rounds, bids, and the
//! Theorem 1 `n·ε` certificate — bit-identical to `SyncAuction` and
//! therefore to the sharded, flat and ideal-swarm engines. By default
//! the sweep ships as *batched* polls — one [`NetMsg::PollBatch`] per peer
//! per round instead of a frame per request — with tracker-side snapshot
//! revalidation keeping the batched sweep bit-identical to the per-request
//! one (see [`tracker`]); set [`NetConfig::batch_polls`] `false` for the
//! wire-version-1-shaped per-request protocol.
//!
//! Layers:
//!
//! * [`frame`] — length-prefixed frames over TCP with typed timeout /
//!   disconnect errors;
//! * [`proto`] — the tracker ↔ peer control protocol and the instance /
//!   outcome file codecs, built on [`p2p_core::codec`];
//! * [`tracker`] — swarm membership, one heartbeat thread per swarm, and
//!   the coordinator sweep, which reads every reply itself;
//! * [`peer`] — actor-per-connection bidder servant with connect
//!   retry/backoff;
//! * [`harness`] — spawns the `tracker` and `peer` binaries as real OS
//!   processes on 127.0.0.1 and returns the decoded outcome.
//!
//! # Examples
//!
//! In-process threads over real loopback sockets (the `auction_net`
//! scheduler backend uses exactly this entry point):
//!
//! ```
//! use p2p_core::{NoProbe, WelfareInstance};
//! use p2p_net::{run_slot_local, NetConfig};
//! use p2p_types::*;
//!
//! let mut b = WelfareInstance::builder();
//! let u = b.add_provider(PeerId::new(1), 1);
//! let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
//! b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
//! let instance = b.build().unwrap();
//!
//! let outcome = run_slot_local(&instance, 2, &NetConfig::default(), &mut NoProbe).unwrap();
//! assert_eq!(outcome.assignment.assigned_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod harness;
pub mod peer;
pub mod proto;
pub mod tracker;

pub use frame::FrameConn;
pub use harness::{bin_path, run_multiprocess, MultiProcessConfig};
pub use peer::{Peer, PeerConfig};
pub use proto::{decode_net, encode_net, NetMsg, WireBidder};
pub use tracker::{NetConfig, NetRunStats, Tracker};

use p2p_core::{AuctionOutcome, AuctionProbe, WelfareInstance};
use p2p_types::{P2pError, Result};

/// Runs one auction slot over real loopback TCP with the tracker on the
/// calling thread and `peer_count` peer actors on their own threads — the
/// full wire stack without OS-process management. Used by the
/// `auction_net` scheduler backend and the loopback tests; the
/// multi-process equivalent is [`run_multiprocess`].
pub fn run_slot_local<P: AuctionProbe>(
    instance: &WelfareInstance,
    peer_count: usize,
    config: &NetConfig,
    probe: &mut P,
) -> Result<AuctionOutcome> {
    run_slot_local_stats(instance, peer_count, config, probe).map(|(o, _)| o)
}

/// [`run_slot_local`] plus the tracker's wire-frame counters for the slot,
/// which the loopback tests use to compare frames per slot between the
/// batched and per-request protocols.
pub fn run_slot_local_stats<P: AuctionProbe>(
    instance: &WelfareInstance,
    peer_count: usize,
    config: &NetConfig,
    probe: &mut P,
) -> Result<(AuctionOutcome, NetRunStats)> {
    let mut tracker = Tracker::bind("127.0.0.1:0", peer_count, config.clone())?;
    let addr = tracker.local_addr().to_string();
    let peer_config = PeerConfig { io_timeout: config.io_timeout, ..PeerConfig::default() };
    let handles: Vec<_> = (0..peer_count)
        .map(|i| {
            let addr = addr.clone();
            let cfg = peer_config.clone();
            std::thread::spawn(move || Peer::connect(&addr, i as u64, cfg)?.run())
        })
        .collect();
    let result = tracker.run(instance, probe);
    let stats = tracker.frame_stats();
    tracker.shutdown();
    let mut peers_ok: Result<()> = Ok(());
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => peers_ok = Err(e),
            Err(payload) => {
                peers_ok =
                    Err(P2pError::WorkerPanicked { message: panic_message(payload.as_ref()) })
            }
        }
    }
    match (result, peers_ok) {
        (Err(e), _) => Err(e),
        (Ok(_), Err(e)) => Err(e),
        (Ok(outcome), Ok(())) => Ok((outcome, stats)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
