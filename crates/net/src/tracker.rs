//! The tracker: swarm membership, heartbeats, and the coordinator that
//! replays the synchronous Gauss–Seidel sweep over TCP.
//!
//! The tracker hosts the [`AuctioneerNode`](p2p_core::AuctioneerNode)s and
//! owns the sweep schedule; peers host the
//! [`BidderNode`](p2p_core::BidderNode)s. Each round the tracker polls
//! every open request (unassigned, and not retired as priced out) *in
//! index order* with the exact current prices, and applies each reply
//! through the same [`p2p_core::Sweep`] that [`p2p_core::SyncAuction`]
//! drives — so the networked outcome (assignment, duals, rounds, bids) is
//! bit-identical to the in-process engines' by construction.
//! Per-connection FIFO delivery guarantees an `Accepted`/`Evicted` notice
//! reaches a peer before that peer's next `Poll`, so bidder phase and the
//! tracker's assignment view never disagree.
//!
//! Two wire drivers replay that same sweep. The per-request driver
//! ([`NetConfig::batch_polls`] `false`) sends one `Poll` frame per open
//! request and applies each reply before the next poll. The batched
//! driver (the default) sends one [`NetMsg::PollBatch`] per peer per
//! round — queued notices first, then a price *snapshot* per owned open
//! request — and collects one `ReplyBatch` per peer. The replies are
//! speculative; the tracker replays the sweep in index order and accepts
//! an entry only while its snapshot still bitwise-matches the live
//! prices, otherwise it recomputes the decision locally (with exact
//! aligned polls and `LearnPolicy::Monotone`, a polled bidder's decision
//! is a pure function of the live prices) and queues a rejection so the
//! peer's parked bidder re-idles before its next poll. Both drivers
//! apply every authoritative decision through [`Sweep::apply`], so the
//! outcome is bit-identical either way — the batched driver just spends
//! ~`2 × peers × rounds` frames where the per-request one spends
//! `2 × polls + notices`. A wire bid reaches `Sweep::apply` only after the
//! tracker has checked it names one of the request's edges and lies
//! strictly above the live price (after the snapshot check, in the batched
//! driver); any other is [`P2pError::WireMalformed`].
//!
//! # Threads and reads
//!
//! [`Tracker::accept_peers`] starts one background thread per swarm. Until
//! the swarm is complete it guards the handshake: `std`'s `accept` has no
//! timeout, so once `handshake_timeout` passes the thread makes one
//! loopback connection to wake the blocked `accept`, which then returns
//! [`P2pError::Timeout`]. After that it sends a heartbeat every
//! `heartbeat_every` until [`Tracker::shutdown`] drops its channel.
//!
//! The coordinator reads each reply itself, from its peer's socket under
//! the `io_timeout` deadline: one `ReplyBatch` per polled peer in
//! peer-index order, or the polled peer's `Reply`. This cannot deadlock.
//! Peers write only in answer to a poll, and a round's polls are all
//! written before any reply is read, so a peer blocked writing a reply
//! larger than the socket buffer only waits for the coordinator to reach
//! it in index order.

use crate::frame::FrameConn;
use crate::proto::{decode_net, encode_net, NetMsg, WireBidder};
use p2p_core::messages::AuctionMsg;
use p2p_core::{
    AuctionConfig, AuctionOutcome, AuctionProbe, BidDecision, BidReply, Sweep, WelfareInstance,
};
use p2p_types::{P2pError, Result, SimTime};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of the networked runtime (both ends).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bid increment ε: finite and at least 0, or [`Tracker::bind`]
    /// refuses the config (0 is the paper-faithful rule; deterministic
    /// replay makes it safe on the wire, unlike on lossy simulated
    /// networks).
    pub epsilon: f64,
    /// Safety cap on sweep rounds before declaring divergence.
    pub max_rounds: u64,
    /// Per-reply deadline: how long the coordinator waits for one peer's
    /// bid decision (and how long a peer waits for tracker traffic) before
    /// returning a typed [`P2pError::Timeout`].
    pub io_timeout: Duration,
    /// How long the tracker waits for the full swarm to connect and send
    /// its `Hello`s.
    pub handshake_timeout: Duration,
    /// Tracker → peer keep-alive interval; must be comfortably below
    /// `io_timeout` so idle peers never trip their read deadline.
    pub heartbeat_every: Duration,
    /// Ship one [`NetMsg::PollBatch`] frame per peer per sweep round
    /// (wire version 2) instead of one `Poll` and one `Notice` frame per
    /// request. Bit-identical to the per-request protocol — each batch
    /// entry carries a price snapshot that the tracker revalidates at the
    /// entry's exact sweep position, repairing stale entries locally —
    /// while cutting frames per slot by roughly the poll count over the
    /// peer count × rounds. `false` runs the per-request protocol, the
    /// reference the loopback tests compare batched frames and outcomes
    /// against.
    pub batch_polls: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            epsilon: 0.0,
            max_rounds: 1_000_000,
            io_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(10),
            heartbeat_every: Duration::from_secs(1),
            batch_polls: true,
        }
    }
}

/// Wire-frame counters for one tracker slot (heartbeats and the
/// handshake excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetRunStats {
    /// Frames the tracker sent: `Init`s, polls (batched or not), notices.
    pub frames_sent: u64,
    /// Reply frames the tracker received from peers.
    pub frames_recv: u64,
}

impl NetRunStats {
    /// Total frames in both directions.
    pub fn total(&self) -> u64 {
        self.frames_sent + self.frames_recv
    }
}

/// A peer's write handle, shared by the coordinator and the heartbeat
/// thread.
type Writer = Arc<Mutex<FrameConn>>;

/// One connected peer: the shared writer, and the coordinator's own read
/// handle on the same socket (read deadline `io_timeout`).
struct PeerLink {
    writer: Writer,
    reader: FrameConn,
}

/// The tracker process: binds, hands out swarm membership, then runs
/// auction slots against the connected peers.
pub struct Tracker {
    listener: Option<TcpListener>,
    local_addr: SocketAddr,
    links: Vec<PeerLink>,
    peer_count: usize,
    config: NetConfig,
    /// Hands the heartbeat thread the swarm's writers; dropping it stops
    /// the thread.
    heartbeat_signal: Option<Sender<Vec<Writer>>>,
    heartbeat: Option<JoinHandle<()>>,
    shut: bool,
    frames_sent: u64,
    frames_recv: u64,
}

impl Tracker {
    /// Binds the listening socket. Peers are accepted lazily by the first
    /// [`run`](Tracker::run) (or eagerly via
    /// [`accept_peers`](Tracker::accept_peers), which the binary does so it
    /// can separate "listening" from "swarm complete").
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for a zero `peer_count` or an ε
    /// that is not finite and at least 0, and [`P2pError::Disconnected`]
    /// if the socket cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, peer_count: usize, config: NetConfig) -> Result<Self> {
        if peer_count == 0 {
            return Err(P2pError::invalid_config("peer_count", "must be at least 1"));
        }
        if !epsilon_is_valid(config.epsilon) {
            return Err(P2pError::invalid_config(
                "epsilon",
                format!("must be finite and at least 0, got {}", config.epsilon),
            ));
        }
        let listener = TcpListener::bind(addr).map_err(|e| P2pError::Disconnected {
            context: format!("binding the tracker socket: {e}"),
        })?;
        let local_addr = listener.local_addr().map_err(|e| P2pError::Disconnected {
            context: format!("reading the bound address: {e}"),
        })?;
        Ok(Tracker {
            listener: Some(listener),
            local_addr,
            links: Vec::new(),
            peer_count,
            config,
            heartbeat_signal: None,
            heartbeat: None,
            shut: false,
            frames_sent: 0,
            frames_recv: 0,
        })
    }

    /// Wire-frame counters for the most recent [`run`](Tracker::run) slot.
    pub fn frame_stats(&self) -> NetRunStats {
        NetRunStats { frames_sent: self.frames_sent, frames_recv: self.frames_recv }
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accepts and handshakes the full swarm and starts the heartbeat.
    /// Returns [`P2pError::Timeout`] if the swarm is incomplete when
    /// `handshake_timeout` expires, also while a client owes its `Hello`.
    pub fn accept_peers(&mut self) -> Result<()> {
        let listener = match self.listener.take() {
            Some(l) => l,
            None => return Ok(()), // already accepted
        };
        let started = Instant::now();
        // Returning early drops `signal`, which stops the thread.
        let (signal, wait) = channel();
        self.heartbeat = Some(spawn_heartbeat(
            wait,
            wake_addr(self.local_addr),
            started,
            self.config.handshake_timeout,
            self.config.heartbeat_every,
        ));
        while self.links.len() < self.peer_count {
            // Blocks until a peer connects or the heartbeat thread wakes it
            // at the deadline.
            let accepted = listener.accept();
            let left = self.config.handshake_timeout.saturating_sub(started.elapsed());
            if left.is_zero() {
                return Err(P2pError::Timeout {
                    elapsed: started.elapsed(),
                    messages: self.links.len() as u64,
                });
            }
            let (stream, _) = accepted.map_err(|e| P2pError::Disconnected {
                context: format!("accepting a peer connection: {e}"),
            })?;
            let mut conn = FrameConn::new(stream, Some(self.config.io_timeout.min(left)))?;
            match decode_net(&conn.recv()?)? {
                NetMsg::Hello { .. } => {}
                other => {
                    return Err(P2pError::WireMalformed {
                        reason: format!("expected a hello, got {other:?}"),
                    })
                }
            }
            conn.set_read_timeout(Some(self.config.io_timeout))?;
            conn.send(&encode_net(&NetMsg::Welcome {
                peer_index: self.links.len() as u64,
                peer_count: self.peer_count as u64,
            }))?;
            let reader = conn.try_clone()?;
            self.links.push(PeerLink { writer: Arc::new(Mutex::new(conn)), reader });
        }
        let _ = signal.send(self.links.iter().map(|l| Arc::clone(&l.writer)).collect());
        self.heartbeat_signal = Some(signal);
        Ok(())
    }

    /// Runs one auction slot across the swarm, from λ = 0.
    pub fn run<P: AuctionProbe>(
        &mut self,
        instance: &WelfareInstance,
        probe: &mut P,
    ) -> Result<AuctionOutcome> {
        self.accept_peers()?;
        self.frames_sent = 0;
        self.frames_recv = 0;
        self.run_pass(instance, probe)
    }

    /// Sends `Shutdown` to every peer and stops the heartbeat thread.
    /// Dropping the thread's channel wakes it at once, so this never waits
    /// out a heartbeat interval. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        for link in &self.links {
            let _ = send_to(link, &NetMsg::Shutdown);
        }
        self.heartbeat_signal = None;
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }

    /// One full sweep to quiescence: the networked driver of the
    /// [`Sweep`] that `SyncAuction::run_probed` drives.
    fn run_pass<P: AuctionProbe>(
        &mut self,
        instance: &WelfareInstance,
        probe: &mut P,
    ) -> Result<AuctionOutcome> {
        let config =
            AuctionConfig { epsilon: self.config.epsilon, max_rounds: self.config.max_rounds };
        let mut sweep = Sweep::new(instance, config);

        // Hand out the slot's bidders: request r lives on peer r mod N.
        let n = instance.request_count();
        for (idx, link) in self.links.iter().enumerate() {
            let bidders: Vec<WireBidder> = (idx..n)
                .step_by(self.peer_count)
                .map(|r| {
                    let row = instance.request(r);
                    let edges = row
                        .providers()
                        .iter()
                        .zip(row.utilities())
                        .zip(sweep.row_prices(r))
                        .map(|((&u, &utility), price)| (u as usize, utility, price))
                        .collect();
                    WireBidder { request: r, edges }
                })
                .collect();
            send_to(link, &NetMsg::Init { epsilon: self.config.epsilon, bidders })?;
            self.frames_sent += 1;
        }

        // Notices owed to each peer, delivered at the head of its next
        // `PollBatch` (batched mode only; the per-request driver sends
        // notices inline and leaves these queues empty).
        let mut notices_q: Vec<Vec<AuctionMsg>> = vec![Vec::new(); self.peer_count];
        loop {
            sweep.begin_round()?;
            if self.config.batch_polls {
                self.sweep_batched(instance, &mut sweep, &mut notices_q, probe)?;
            } else {
                self.sweep_unbatched(instance, &mut sweep, probe)?;
            }
            if sweep.end_round(probe) {
                break;
            }
        }

        // A quiescent final round can still queue repair rejections for
        // stale speculative bids; flush them so no peer bidder is left
        // parked in `Pending` when the pass ends.
        for (owner, queue) in notices_q.iter_mut().enumerate() {
            for msg in std::mem::take(queue) {
                self.send_counted(owner, &NetMsg::Notice(msg))?;
            }
        }
        Ok(sweep.finish(probe))
    }

    /// One per-request sweep round: poll every open request individually
    /// and apply its decision immediately — the original wire protocol,
    /// two frames (plus notices) per poll.
    fn sweep_unbatched<P: AuctionProbe>(
        &mut self,
        instance: &WelfareInstance,
        sweep: &mut Sweep<'_>,
        probe: &mut P,
    ) -> Result<()> {
        for r in 0..instance.request_count() {
            if !sweep.is_open(r) {
                continue;
            }
            let owner = r % self.peer_count;
            let prices = sweep.row_prices(r).collect();
            self.send_counted(owner, &NetMsg::Poll { request: r, prices })?;
            let decision = self.await_reply(owner, r)?;
            check_bid_shape(instance, r, &decision)?;
            check_bid_amount(sweep.prices(), r, &decision)?;
            if let Some(reply) = sweep.apply(r, decision, SimTime::ZERO, probe) {
                for (target, msg) in route(r, reply, self.peer_count) {
                    self.send_counted(target, &NetMsg::Notice(msg))?;
                }
            }
        }
        Ok(())
    }

    /// One batched sweep round: a single [`NetMsg::PollBatch`] per peer
    /// carrying last round's notices and a price snapshot per open
    /// request, answered by one [`NetMsg::ReplyBatch`]. The replies are
    /// speculative — each was decided against its snapshot — so the
    /// tracker replays the sweep in index order and uses an entry only if
    /// its snapshot still bitwise-matches the live prices at that
    /// position; otherwise the decision is recomputed locally (the bid
    /// rule is a pure function of the live prices) and, if the discarded
    /// speculation was a bid, a rejection is queued so the peer's bidder
    /// leaves `Pending`. Bit-for-bit the same sweep, ~`polls/(peers ×
    /// rounds)` times fewer frames.
    fn sweep_batched<P: AuctionProbe>(
        &mut self,
        instance: &WelfareInstance,
        sweep: &mut Sweep<'_>,
        notices_q: &mut [Vec<AuctionMsg>],
        probe: &mut P,
    ) -> Result<()> {
        let n = instance.request_count();
        // Ship one frame per peer: queued notices, then this round's polls.
        let mut snapshots: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut awaiting: Vec<bool> = vec![false; self.peer_count];
        for (owner, awaiting_reply) in awaiting.iter_mut().enumerate() {
            let mut polls: Vec<(usize, Vec<f64>)> = Vec::new();
            for r in (owner..n).step_by(self.peer_count) {
                if !sweep.is_open(r) {
                    continue;
                }
                let prices: Vec<f64> = sweep.row_prices(r).collect();
                snapshots[r] = Some(prices.clone());
                polls.push((r, prices));
            }
            let notices = std::mem::take(&mut notices_q[owner]);
            if polls.is_empty() && notices.is_empty() {
                continue;
            }
            self.send_counted(owner, &NetMsg::PollBatch { notices, polls })?;
            *awaiting_reply = true;
        }

        // Read every polled peer's reply in peer-index order; the module
        // docs say why this cannot deadlock.
        let mut spec: Vec<Option<BidDecision>> = vec![None; n];
        for idx in (0..self.peer_count).filter(|&i| awaiting[i]) {
            for (r, decision) in self.await_reply_batch(idx)? {
                let solicited = r % self.peer_count == idx
                    && snapshots.get(r).is_some_and(Option::is_some)
                    && spec[r].is_none();
                if !solicited {
                    return Err(P2pError::WireMalformed {
                        reason: format!("peer {idx} answered request {r} out of turn"),
                    });
                }
                spec[r] = Some(decision);
            }
        }

        // Replay the sweep in index order against live prices.
        for r in 0..n {
            if !sweep.is_open(r) {
                continue;
            }
            let owner = r % self.peer_count;
            let decision = match spec[r].take() {
                Some(d) => {
                    check_bid_shape(instance, r, &d)?;
                    let snap = snapshots[r]
                        .as_ref()
                        .expect("every speculative reply was checked against a snapshot");
                    // The peer decided against `snap`: its decision is the
                    // one it would make now iff the snapshot still
                    // bitwise-matches the live prices.
                    let live = snap
                        .iter()
                        .zip(sweep.row_prices(r))
                        .all(|(s, p)| s.to_bits() == p.to_bits());
                    if live {
                        check_bid_amount(sweep.prices(), r, &d)?;
                        d
                    } else {
                        // Prices moved before this sweep position: void
                        // the speculation. A discarded bid left the
                        // peer's bidder in `Pending`; a rejection at the
                        // live price re-idles it before its next poll.
                        if let BidDecision::Bid { provider, .. } = d {
                            notices_q[owner].push(AuctionMsg::Rejected {
                                request: r,
                                provider,
                                price: sweep.prices()[provider],
                            });
                        }
                        // Exact polls overwrite every live price entry and
                        // a polled bidder is always `Idle`, so the peer's
                        // decision is this pure function of the live
                        // prices.
                        sweep.decide(r)
                    }
                }
                None => {
                    if snapshots[r].is_some() {
                        return Err(P2pError::WireMalformed {
                            reason: format!("a reply batch omitted polled request {r}"),
                        });
                    }
                    // No batch entry: the request was assigned when the
                    // batch shipped and lost its unit mid-round. The
                    // per-request protocol would poll it now; its
                    // decision is the same pure function of live prices.
                    sweep.decide(r)
                }
            };
            if let Some(reply) = sweep.apply(r, decision, SimTime::ZERO, probe) {
                for (target, msg) in route(r, reply, self.peer_count) {
                    notices_q[target].push(msg);
                }
            }
        }
        Ok(())
    }

    fn send_counted(&mut self, peer: usize, msg: &NetMsg) -> Result<()> {
        send_to(&self.links[peer], msg)?;
        self.frames_sent += 1;
        Ok(())
    }

    /// Reads `peer`'s decision about `request` under the `io_timeout` read
    /// deadline: a silent peer is a typed [`P2pError::Timeout`], a dead one
    /// a [`P2pError::Disconnected`].
    fn await_reply(&mut self, peer: usize, request: usize) -> Result<BidDecision> {
        match self.recv_from(peer)? {
            NetMsg::Reply { request: got, decision } if got == request => Ok(decision),
            other => Err(P2pError::WireMalformed {
                reason: format!("peer {peer} sent {other:?} while owing request {request}"),
            }),
        }
    }

    /// Reads `peer`'s [`NetMsg::ReplyBatch`], with the same deadline and
    /// error surface as [`await_reply`](Tracker::await_reply).
    fn await_reply_batch(&mut self, peer: usize) -> Result<Vec<(usize, BidDecision)>> {
        match self.recv_from(peer)? {
            NetMsg::ReplyBatch { replies } => Ok(replies),
            other => Err(P2pError::WireMalformed {
                reason: format!("peer {peer} sent {other:?} while a reply batch was owed"),
            }),
        }
    }

    fn recv_from(&mut self, peer: usize) -> Result<NetMsg> {
        let msg = decode_net(&self.links[peer].reader.recv()?)?;
        self.frames_recv += 1;
        Ok(msg)
    }
}

/// Whether `epsilon` is a bid increment the auction can run: finite and
/// at least 0. The tracker refuses any other at bind time, and a peer
/// refuses one in its `Init`.
pub(crate) fn epsilon_is_valid(epsilon: f64) -> bool {
    epsilon.is_finite() && epsilon >= 0.0
}

/// Validates that a wire bid's `(edge, provider)` pair is one of the
/// request's edges before it can index anything.
fn check_bid_shape(instance: &WelfareInstance, r: usize, decision: &BidDecision) -> Result<()> {
    let &BidDecision::Bid { edge, provider, .. } = decision else {
        return Ok(());
    };
    if instance.request(r).providers().get(edge).map(|&u| u as usize) != Some(provider) {
        return Err(P2pError::WireMalformed {
            reason: format!(
                "request {r} bid on edge {edge} which does not point at provider {provider}"
            ),
        });
    }
    Ok(())
}

/// Validates that a shape-checked wire bid is a finite amount strictly
/// above the provider's live price, as every decision over the live prices
/// is, before it reaches an auctioneer: a non-finite bid would trip its
/// assert, and one at or below λ would be counted as a bid that admits
/// nothing, so a peer repeating it could keep every round busy.
fn check_bid_amount(prices: &[f64], r: usize, decision: &BidDecision) -> Result<()> {
    let &BidDecision::Bid { provider, amount, .. } = decision else {
        return Ok(());
    };
    let price = prices[provider];
    if !(amount.is_finite() && amount > price) {
        return Err(P2pError::WireMalformed {
            reason: format!(
                "request {r} bid {amount} at provider {provider}, not a finite amount above \
                 its live price {price}"
            ),
        });
    }
    Ok(())
}

/// Where the notices one applied bid owes go, as `(peer, message)` in
/// delivery order: the reply to the bidder's peer, then the eviction to
/// the displaced request's peer.
fn route(
    r: usize,
    reply: BidReply,
    peer_count: usize,
) -> impl Iterator<Item = (usize, AuctionMsg)> {
    let evicted = match reply.evicted {
        Some(notice @ AuctionMsg::Evicted { request: loser, .. }) => {
            Some((loser % peer_count, notice))
        }
        _ => None,
    };
    std::iter::once((r % peer_count, reply.reply)).chain(evicted)
}

impl Drop for Tracker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracker")
            .field("local_addr", &self.local_addr)
            .field("peer_count", &self.peer_count)
            .field("connected", &self.links.len())
            .finish()
    }
}

fn send_to(link: &PeerLink, msg: &NetMsg) -> Result<()> {
    let mut w = link
        .writer
        .lock()
        .map_err(|_| P2pError::WorkerPanicked { message: "a writer lock was poisoned".into() })?;
    w.send(&encode_net(msg))
}

/// The tracker's one background thread. While the swarm connects it
/// guards the handshake that started at `started`: if `handshake_timeout`
/// passes before the writers arrive, one connection to `wake` unblocks the
/// accept loop, which then sees the deadline and times out. Once it has
/// the writers it sends a heartbeat every `every` until the tracker drops
/// the sender.
fn spawn_heartbeat(
    signal: Receiver<Vec<Writer>>,
    wake: SocketAddr,
    started: Instant,
    handshake_timeout: Duration,
    every: Duration,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let writers = match signal.recv_timeout(handshake_timeout.saturating_sub(started.elapsed()))
        {
            Ok(writers) => writers,
            Err(RecvTimeoutError::Timeout) => {
                // Held open until the accept loop has given up. If the
                // swarm completed just as the deadline passed, the writers
                // still arrive and the heartbeat runs as usual.
                let _wake = TcpStream::connect(wake);
                match signal.recv() {
                    Ok(writers) => writers,
                    Err(_) => return,
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let beat = encode_net(&NetMsg::Heartbeat);
        while let Err(RecvTimeoutError::Timeout) = signal.recv_timeout(every) {
            for w in &writers {
                if let Ok(mut conn) = w.lock() {
                    // Send errors are the sweep's to report; the
                    // heartbeat just stops bothering a dead socket.
                    let _ = conn.send(&beat);
                }
            }
        }
    })
}

/// The address that reaches a listener bound to `bound`: loopback of the
/// same family when it is bound to the unspecified address.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        let loopback: IpAddr =
            if bound.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        bound.set_ip(loopback);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_address_is_loopback_of_the_bound_family() {
        let addr = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(addr("0.0.0.0:4100")), addr("127.0.0.1:4100"));
        assert_eq!(wake_addr(addr("[::]:4100")), addr("[::1]:4100"));
        assert_eq!(wake_addr(addr("10.1.2.3:4100")), addr("10.1.2.3:4100"));
    }
}
