//! The tracker: swarm membership, heartbeats, and the coordinator that
//! replays the synchronous Gauss–Seidel sweep over TCP.
//!
//! The tracker hosts the [`AuctioneerNode`]s and owns the sweep schedule;
//! peers host the [`BidderNode`](p2p_core::BidderNode)s. Each round the
//! tracker polls every open request (unassigned, and not retired as priced
//! out) *in index order* with the exact current prices, exactly as
//! [`p2p_core::SyncAuction`]'s sweep reads its live price vector — so the
//! networked outcome (assignment, duals, rounds, bids) is bit-identical to
//! the in-process engines' by the same argument that makes the sharded,
//! flat and ideal-swarm engines agree.
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
//! funnel every authoritative decision through `Sweep::apply`, so the
//! outcome is bit-identical either way — the batched driver just spends
//! ~`2 × peers × rounds` frames where the per-request one spends
//! `2 × polls + notices`.
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
use p2p_core::bidder::{decide_row_bid, AbstainReason};
use p2p_core::engine::{final_prices_from, report_complete};
use p2p_core::messages::AuctionMsg;
use p2p_core::protocol::AuctioneerNode;
use p2p_core::{
    Assignment, AuctionOutcome, AuctionProbe, BidDecision, DualSolution, WelfareInstance,
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

    /// One full sweep to quiescence — the networked image of
    /// `SyncAuction::run_probed`, counter for counter.
    fn run_pass<P: AuctionProbe>(
        &mut self,
        instance: &WelfareInstance,
        probe: &mut P,
    ) -> Result<AuctionOutcome> {
        let mut auctioneers: Vec<AuctioneerNode> = instance
            .providers()
            .enumerate()
            .map(|(u, p)| AuctioneerNode::new(u, p.capacity.chunks_per_slot()))
            .collect();
        let mut eff_price: Vec<f64> = instance
            .providers()
            .map(|p| if p.capacity.is_zero() { f64::INFINITY } else { 0.0 })
            .collect();

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
                        .map(|(&u, &utility)| (u as usize, utility, eff_price[u as usize]))
                        .collect();
                    WireBidder { request: r, edges }
                })
                .collect();
            send_to(link, &NetMsg::Init { epsilon: self.config.epsilon, bidders })?;
            self.frames_sent += 1;
        }

        let mut assigned: Vec<Option<usize>> = vec![None; n];
        let mut retired: Vec<bool> = vec![false; n];
        let mut notices_q: Vec<Vec<AuctionMsg>> = vec![Vec::new(); self.peer_count];
        let mut rounds = 0u64;
        let mut bids_submitted = 0u64;

        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(P2pError::AuctionDiverged { iterations: rounds - 1 });
            }
            let mut sweep = Sweep {
                instance,
                auctioneers: &mut auctioneers,
                eff_price: &mut eff_price,
                assigned: &mut assigned,
                retired: &mut retired,
                notices_q: &mut notices_q,
                peer_count: self.peer_count,
                bids: 0,
                conflicts: 0,
                newly_retired: 0,
            };
            if self.config.batch_polls {
                self.sweep_batched(&mut sweep, probe)?;
            } else {
                self.sweep_unbatched(&mut sweep, probe)?;
            }
            let (bids_this_round, conflicts_this_round, retired_this_round) =
                (sweep.bids, sweep.conflicts, sweep.newly_retired);
            bids_submitted += bids_this_round;
            probe.round(rounds, bids_this_round, conflicts_this_round, 0, retired_this_round);
            if bids_this_round == 0 {
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

        let lambda =
            final_prices_from(instance, auctioneers.iter().map(AuctioneerNode::price).collect());
        let outcome = AuctionOutcome {
            assignment: Assignment::new(assigned),
            duals: DualSolution::from_prices(instance, lambda),
            rounds,
            bids_submitted,
            converged: true,
        };
        report_complete(instance, &outcome, probe);
        Ok(outcome)
    }

    /// One per-request sweep round: poll every open request individually
    /// and apply its decision immediately — the original wire protocol,
    /// two frames (plus notices) per poll.
    fn sweep_unbatched<P: AuctionProbe>(
        &mut self,
        sweep: &mut Sweep<'_>,
        probe: &mut P,
    ) -> Result<()> {
        let n = sweep.assigned.len();
        for r in 0..n {
            if sweep.is_closed(r) {
                continue;
            }
            let owner = r % self.peer_count;
            let prices = sweep.live_prices(r);
            self.send_counted(owner, &NetMsg::Poll { request: r, prices })?;
            let decision = self.await_reply(owner, r)?;
            if let BidDecision::Bid { edge, provider, .. } = decision {
                check_bid_shape(sweep.instance, r, edge, provider)?;
            }
            let notices = sweep.apply(r, decision, probe);
            for (target, msg) in notices {
                self.send_counted(target, &NetMsg::Notice(msg))?;
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
        sweep: &mut Sweep<'_>,
        probe: &mut P,
    ) -> Result<()> {
        let n = sweep.assigned.len();
        // Ship one frame per peer: queued notices, then this round's polls.
        let mut snapshots: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut awaiting: Vec<bool> = vec![false; self.peer_count];
        for (owner, awaiting_reply) in awaiting.iter_mut().enumerate() {
            let mut polls: Vec<(usize, Vec<f64>)> = Vec::new();
            for r in (owner..n).step_by(self.peer_count) {
                if sweep.is_closed(r) {
                    continue;
                }
                let prices = sweep.live_prices(r);
                snapshots[r] = Some(prices.clone());
                polls.push((r, prices));
            }
            let notices = std::mem::take(&mut sweep.notices_q[owner]);
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
            if sweep.is_closed(r) {
                continue;
            }
            let owner = r % self.peer_count;
            let decision = match spec[r].take() {
                Some(d) => {
                    if let BidDecision::Bid { edge, provider, .. } = d {
                        check_bid_shape(sweep.instance, r, edge, provider)?;
                    }
                    let snap = snapshots[r]
                        .as_ref()
                        .expect("every speculative reply was checked against a snapshot");
                    if sweep.snapshot_is_live(r, snap) {
                        d
                    } else {
                        // Prices moved before this sweep position: void
                        // the speculation. A discarded bid left the
                        // peer's bidder in `Pending`; a rejection at the
                        // live price re-idles it before its next poll.
                        if let BidDecision::Bid { provider, .. } = d {
                            sweep.notices_q[owner].push(AuctionMsg::Rejected {
                                request: r,
                                provider,
                                price: sweep.eff_price[provider],
                            });
                        }
                        sweep.decide_locally(r, self.config.epsilon)
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
                    sweep.decide_locally(r, self.config.epsilon)
                }
            };
            let notices = sweep.apply(r, decision, probe);
            for (target, msg) in notices {
                sweep.notices_q[target].push(msg);
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

/// The mutable state of one sweep round, shared by the per-request and
/// batched drivers so the two wire protocols cannot drift: both funnel
/// every authoritative decision through [`Sweep::apply`].
struct Sweep<'a> {
    instance: &'a WelfareInstance,
    auctioneers: &'a mut [AuctioneerNode],
    eff_price: &'a mut [f64],
    assigned: &'a mut [Option<usize>],
    /// Requests priced out for good (unprofitable or candidate-less).
    /// Prices only rise, so the sweep never polls them again, exactly as
    /// `SyncAuction`'s sweep retires them.
    retired: &'a mut [bool],
    /// Notices owed to each peer, delivered at the head of its next
    /// `PollBatch` (batched mode only; the per-request driver sends
    /// notices inline and leaves these queues empty).
    notices_q: &'a mut [Vec<AuctionMsg>],
    peer_count: usize,
    bids: u64,
    conflicts: u64,
    newly_retired: u64,
}

impl Sweep<'_> {
    /// Whether `r` is out of this round's sweep (assigned or retired).
    fn is_closed(&self, r: usize) -> bool {
        self.assigned[r].is_some() || self.retired[r]
    }

    /// The live prices of `r`'s candidates, in row order — what a poll
    /// carries.
    fn live_prices(&self, r: usize) -> Vec<f64> {
        self.instance.request(r).providers().iter().map(|&u| self.eff_price[u as usize]).collect()
    }

    /// Whether a batch entry's price snapshot still bitwise-matches the
    /// live prices of `r`'s candidates — the condition under which the
    /// peer's speculative decision equals the one it would make now.
    fn snapshot_is_live(&self, r: usize, snap: &[f64]) -> bool {
        snap.iter()
            .zip(self.instance.request(r).providers())
            .all(|(s, &u)| s.to_bits() == self.eff_price[u as usize].to_bits())
    }

    /// The decision the peer's bidder would return for a poll of `r` at
    /// the live prices. Exact polls overwrite every live price entry and
    /// a polled bidder is always `Idle`, so its decision is this pure
    /// function — which lets the tracker repair stale batch entries
    /// without a second round-trip.
    fn decide_locally(&self, r: usize, epsilon: f64) -> BidDecision {
        decide_row_bid(self.instance.request(r), |u| self.eff_price[u], epsilon)
    }

    /// Applies one authoritative decision at sweep position `r` — the
    /// body of the original per-request loop — and returns the owed
    /// notices as `(peer, message)` in delivery order.
    fn apply<P: AuctionProbe>(
        &mut self,
        r: usize,
        decision: BidDecision,
        probe: &mut P,
    ) -> Vec<(usize, AuctionMsg)> {
        let mut notices = Vec::new();
        match decision {
            BidDecision::Abstain {
                reason: AbstainReason::Unprofitable | AbstainReason::NoCandidates,
            } => {
                self.retired[r] = true;
                self.newly_retired += 1;
            }
            BidDecision::Abstain { reason: AbstainReason::ZeroMargin } => {}
            BidDecision::Bid { edge, provider, amount } => {
                self.bids += 1;
                let before = self.eff_price[provider];
                let reply = self.auctioneers[provider].on_bid(r, amount);
                match reply.reply {
                    AuctionMsg::Accepted { .. } => {
                        self.assigned[r] = Some(edge);
                    }
                    _ => {
                        // Unreachable with exact polled prices: the
                        // bidder only bids strictly above λ. Mirror the
                        // sync engine (count the bid, continue) but still
                        // notify so the bidder re-idles.
                        debug_assert!(false, "networked bid rejected");
                    }
                }
                notices.push((r % self.peer_count, reply.reply));
                if let Some(ev) = reply.evicted {
                    if let AuctionMsg::Evicted { request: loser, .. } = ev {
                        self.assigned[loser] = None;
                        self.conflicts += 1;
                        notices.push((loser % self.peer_count, ev));
                    }
                }
                if let Some(p) = reply.price_changed {
                    probe.price_change(provider, before, p, SimTime::ZERO);
                    self.eff_price[provider] = p;
                }
            }
        }
        notices
    }
}

/// Whether `epsilon` is a bid increment the auction can run: finite and
/// at least 0. The tracker refuses any other at bind time, and a peer
/// refuses one in its `Init`.
pub(crate) fn epsilon_is_valid(epsilon: f64) -> bool {
    epsilon.is_finite() && epsilon >= 0.0
}

/// Validates that a wire bid's `(edge, provider)` pair is consistent with
/// the request's edge list before it can index anything.
fn check_bid_shape(
    instance: &WelfareInstance,
    r: usize,
    edge: usize,
    provider: usize,
) -> Result<()> {
    if instance.request(r).providers().get(edge).map(|&u| u as usize) != Some(provider) {
        return Err(P2pError::WireMalformed {
            reason: format!(
                "request {r} bid on edge {edge} which does not point at provider {provider}"
            ),
        });
    }
    Ok(())
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
