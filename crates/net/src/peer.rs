//! The peer: connects to the tracker with retry/backoff and serves its
//! partition of [`BidderNode`]s until told to shut down.
//!
//! The peer is a pure message servant — it holds no auction schedule of
//! its own. Every `Poll` carries exact current prices for the polled
//! bidder's candidate edges; the peer refreshes the bidder's knowledge
//! ([`BidderNode::refresh_prices`], which leaves `+∞` zero-capacity pins
//! alone), asks it to [`decide`](BidderNode::decide), and replies.
//! `Notice`s (accepts, evictions) are absorbed silently, exactly like the
//! synchronous transport's silent-absorb/poll-once-per-sweep split.
//!
//! A `PollBatch` is the same thing amortized: absorb the batch's notices
//! in order, then serve each `(request, prices)` entry exactly as an
//! individual poll would have (same shared `decide_one` path, same
//! fault-injection poll budget), and ship every decision back in one
//! `ReplyBatch` frame.

use crate::frame::FrameConn;
use crate::proto::{decode_net, encode_net, NetMsg};
use crate::tracker::epsilon_is_valid;
use p2p_core::messages::AuctionMsg;
use p2p_core::protocol::{BidderNode, LearnPolicy};
use p2p_core::{BidDecision, EdgeView};
use p2p_types::{P2pError, Result};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

/// Peer-side configuration.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Read deadline while waiting for tracker traffic; heartbeats arrive
    /// well inside it, so an expiry means the tracker is gone or wedged.
    pub io_timeout: Duration,
    /// Connection attempts before giving up with
    /// [`P2pError::ConnectFailed`].
    pub connect_attempts: u32,
    /// Initial retry backoff; doubles per attempt, capped at one second.
    pub connect_backoff: Duration,
    /// Fault injection: drop the connection (error out of
    /// [`Peer::run`]) after serving this many polls. Used by the failure
    /// tests to crash a peer mid-round.
    pub fail_after_polls: Option<u64>,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            io_timeout: Duration::from_secs(5),
            connect_attempts: 10,
            connect_backoff: Duration::from_millis(50),
            fail_after_polls: None,
        }
    }
}

/// A connected peer serving one partition of the swarm's bidders.
#[derive(Debug)]
pub struct Peer {
    conn: FrameConn,
    index: u64,
    count: u64,
    config: PeerConfig,
}

impl Peer {
    /// Dials the tracker, retrying with exponential backoff, then
    /// completes the `Hello`/`Welcome` handshake.
    pub fn connect(addr: &str, peer_id: u64, config: PeerConfig) -> Result<Self> {
        let attempts = config.connect_attempts.max(1);
        let mut backoff = config.connect_backoff;
        let mut last_error = String::from("no attempt made");
        for attempt in 1..=attempts {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let mut conn = FrameConn::new(stream, Some(config.io_timeout))?;
                    conn.send(&encode_net(&NetMsg::Hello { peer_id }))?;
                    return match decode_net(&conn.recv()?)? {
                        NetMsg::Welcome { peer_index, peer_count } => {
                            Ok(Peer { conn, index: peer_index, count: peer_count, config })
                        }
                        other => Err(P2pError::WireMalformed {
                            reason: format!("expected a welcome, got {other:?}"),
                        }),
                    };
                }
                Err(e) => {
                    last_error = e.to_string();
                    if attempt < attempts {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(1));
                    }
                }
            }
        }
        Err(P2pError::ConnectFailed { addr: addr.to_string(), attempts, last_error })
    }

    /// This peer's tracker-assigned index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Total peers in the swarm.
    pub fn peer_count(&self) -> u64 {
        self.count
    }

    /// Serves the tracker until `Shutdown` (clean exit), a typed error, or
    /// the configured fault injection fires.
    pub fn run(&mut self) -> Result<()> {
        let mut bidders: HashMap<usize, BidderNode> = HashMap::new();
        let mut polls_served = 0u64;
        loop {
            match decode_net(&self.conn.recv()?)? {
                NetMsg::Init { epsilon, bidders: wire } => {
                    if !epsilon_is_valid(epsilon) {
                        return Err(P2pError::WireMalformed {
                            reason: format!(
                                "init carried epsilon {epsilon}, not finite and at least 0"
                            ),
                        });
                    }
                    // A fresh pass (cold start or a warm-repair rerun):
                    // previous bidders are discarded wholesale.
                    bidders = wire
                        .into_iter()
                        .map(|b| {
                            let prices: HashMap<usize, f64> =
                                b.edges.iter().map(|&(p, _, price)| (p, price)).collect();
                            let views: Vec<EdgeView> = b
                                .edges
                                .iter()
                                .map(|&(provider, utility, _)| EdgeView { provider, utility })
                                .collect();
                            let node = BidderNode::new(
                                b.request,
                                views,
                                epsilon,
                                LearnPolicy::Monotone,
                                |p| prices.get(&p).copied().unwrap_or(f64::INFINITY),
                            );
                            (b.request, node)
                        })
                        .collect();
                }
                NetMsg::Poll { request, prices } => {
                    self.check_poll_budget(&mut polls_served)?;
                    let decision = decide_one(&mut bidders, request, &prices)?;
                    self.conn.send(&encode_net(&NetMsg::Reply { request, decision }))?;
                }
                NetMsg::PollBatch { notices, polls } => {
                    // Notices first: a bidder must absorb last round's
                    // accepts/evictions/cancellations before any of this
                    // round's decisions, exactly as the per-frame protocol
                    // interleaves them.
                    for msg in &notices {
                        absorb_notice(&mut bidders, msg)?;
                    }
                    let mut replies = Vec::with_capacity(polls.len());
                    for (request, prices) in &polls {
                        // Each batch entry is one poll for the fault
                        // budget, so a peer configured to die after k
                        // polls still dies after k — mid-batch if need be.
                        self.check_poll_budget(&mut polls_served)?;
                        replies.push((*request, decide_one(&mut bidders, *request, prices)?));
                    }
                    self.conn.send(&encode_net(&NetMsg::ReplyBatch { replies }))?;
                }
                NetMsg::Notice(msg) => absorb_notice(&mut bidders, &msg)?,
                NetMsg::Heartbeat => {}
                NetMsg::Shutdown => return Ok(()),
                other => {
                    return Err(P2pError::WireMalformed {
                        reason: format!("unexpected control message {other:?}"),
                    })
                }
            }
        }
    }

    /// Counts one served poll against the fault-injection budget,
    /// erroring out (dropping the connection) once the limit is reached.
    fn check_poll_budget(&self, polls_served: &mut u64) -> Result<()> {
        if let Some(limit) = self.config.fail_after_polls {
            if *polls_served >= limit {
                return Err(P2pError::Disconnected {
                    context: format!(
                        "fault injection: dropping the connection after {polls_served} polls"
                    ),
                });
            }
        }
        *polls_served += 1;
        Ok(())
    }
}

/// Refreshes one bidder from the poll's exact prices (edge-aligned) and
/// returns its decision. Shared by the per-request and batched paths so
/// they cannot drift.
fn decide_one(
    bidders: &mut HashMap<usize, BidderNode>,
    request: usize,
    prices: &[f64],
) -> Result<BidDecision> {
    let bidder = bidders.get_mut(&request).ok_or_else(|| P2pError::WireMalformed {
        reason: format!("poll for request {request} which this peer owns no bidder for"),
    })?;
    if prices.len() != bidder.views().len() {
        return Err(P2pError::WireMalformed {
            reason: format!(
                "poll for request {request} carried {} prices for {} edges",
                prices.len(),
                bidder.views().len()
            ),
        });
    }
    bidder.refresh_prices_aligned(prices);
    Ok(bidder.decide())
}

/// Routes one protocol notice to its target bidder for silent absorption.
fn absorb_notice(bidders: &mut HashMap<usize, BidderNode>, msg: &AuctionMsg) -> Result<()> {
    let target = match *msg {
        AuctionMsg::Accepted { request, .. }
        | AuctionMsg::Rejected { request, .. }
        | AuctionMsg::Evicted { request, .. } => request,
        AuctionMsg::PriceUpdate { listener, .. } => listener,
        AuctionMsg::Bid { .. } => {
            return Err(P2pError::WireMalformed { reason: "bidders never receive bids".into() })
        }
    };
    let bidder = bidders.get_mut(&target).ok_or_else(|| P2pError::WireMalformed {
        reason: format!("notice for request {target} which this peer owns no bidder for"),
    })?;
    bidder.absorb(msg);
    Ok(())
}
