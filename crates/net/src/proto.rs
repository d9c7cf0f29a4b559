//! The tracker ↔ peer control protocol, plus file codecs for instances and
//! outcomes so OS processes can exchange them.
//!
//! Control messages reuse the [`p2p_core::codec`] primitives and version
//! byte; their tags live at 16+ so they can never be confused with the
//! embedded [`AuctionMsg`] payloads (tags 1–5) a [`NetMsg::Notice`]
//! carries. Decoding follows the same strict rules: typed errors, no
//! panics, no trailing bytes.

use p2p_core::bidder::AbstainReason;
use p2p_core::codec::{decode_msg, encode_msg, WireReader, WireWriter, WIRE_VERSION};
use p2p_core::messages::AuctionMsg;
use p2p_core::{Assignment, AuctionOutcome, BidDecision, DualSolution, WelfareInstance};
use p2p_types::{ChunkId, Cost, P2pError, PeerId, RequestId, Result, Valuation, VideoId};

const TAG_HELLO: u8 = 16;
const TAG_WELCOME: u8 = 17;
const TAG_INIT: u8 = 18;
const TAG_POLL: u8 = 19;
const TAG_REPLY: u8 = 20;
const TAG_NOTICE: u8 = 21;
const TAG_HEARTBEAT: u8 = 22;
const TAG_SHUTDOWN: u8 = 23;
const TAG_POLL_BATCH: u8 = 24;
const TAG_REPLY_BATCH: u8 = 25;

const TAG_INSTANCE: u8 = 100;
const TAG_OUTCOME: u8 = 101;

/// One bidder's worth of swarm membership handed out by the tracker: the
/// request index plus its candidate edges with initial price knowledge
/// (`+∞` marks zero-capacity providers, pinning them exactly as the
/// in-process engines do).
#[derive(Debug, Clone, PartialEq)]
pub struct WireBidder {
    /// The request this bidder bids for.
    pub request: usize,
    /// Candidate edges: `(provider, net utility, initial price)`.
    pub edges: Vec<(usize, f64, f64)>,
}

/// A tracker ↔ peer control message.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// Peer → tracker greeting opening the handshake.
    Hello {
        /// Caller-chosen identity for logs (the peer's PID in the binary).
        peer_id: u64,
    },
    /// Tracker → peer handshake reply assigning swarm membership.
    Welcome {
        /// This peer's index in the swarm.
        peer_index: u64,
        /// Total number of peers in the swarm.
        peer_count: u64,
    },
    /// Tracker → peer: (re)build these bidders for the coming slot. Every
    /// slot sends a fresh `Init`.
    Init {
        /// The bid increment ε every bidder uses.
        epsilon: f64,
        /// The bidders this peer owns.
        bidders: Vec<WireBidder>,
    },
    /// Tracker → peer: let `request` reconsider against exact current
    /// prices (one per candidate edge, in edge order).
    Poll {
        /// The request to poll.
        request: usize,
        /// Exact current prices aligned with the bidder's edge order.
        prices: Vec<f64>,
    },
    /// Peer → tracker: the polled bidder's decision.
    Reply {
        /// The request that was polled.
        request: usize,
        /// Its bid or abstention.
        decision: BidDecision,
    },
    /// Tracker → peer: an auction protocol message for one of the peer's
    /// bidders to absorb (accept, eviction, rejection, price update).
    Notice(AuctionMsg),
    /// Tracker → peer keep-alive so an idle peer's read deadline never
    /// fires while the sweep works elsewhere.
    Heartbeat,
    /// Tracker → peer: the auction is over, exit cleanly.
    Shutdown,
    /// Tracker → peer: one frame for a whole sweep round — the notices
    /// owed from the previous round (absorbed in order, *before* any
    /// decision), then every request this peer must decide, each with its
    /// own price snapshot in edge order. The snapshots are speculative:
    /// the tracker revalidates each one against live prices at that
    /// request's sweep position and locally repairs stale entries, so the
    /// Gauss–Seidel order is preserved bid for bid (wire version 2).
    PollBatch {
        /// Protocol notices to absorb before deciding, in delivery order.
        notices: Vec<AuctionMsg>,
        /// `(request, snapshot prices)` per polled request, in sweep order.
        polls: Vec<(usize, Vec<f64>)>,
    },
    /// Peer → tracker: decisions for every entry of a [`NetMsg::PollBatch`],
    /// in the same order the batch polled them.
    ReplyBatch {
        /// `(request, decision)` per polled request.
        replies: Vec<(usize, BidDecision)>,
    },
}

fn reason_to_wire(reason: AbstainReason) -> u8 {
    match reason {
        AbstainReason::NoCandidates => 0,
        AbstainReason::Unprofitable => 1,
        AbstainReason::ZeroMargin => 2,
    }
}

fn reason_from_wire(raw: u8) -> Result<AbstainReason> {
    match raw {
        0 => Ok(AbstainReason::NoCandidates),
        1 => Ok(AbstainReason::Unprofitable),
        2 => Ok(AbstainReason::ZeroMargin),
        other => Err(P2pError::WireMalformed { reason: format!("unknown abstain reason {other}") }),
    }
}

/// Encodes one control message as a versioned payload (no length prefix).
pub fn encode_net(msg: &NetMsg) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(16);
    w.put_u8(WIRE_VERSION);
    match msg {
        NetMsg::Hello { peer_id } => {
            w.put_u8(TAG_HELLO);
            w.put_u64(*peer_id);
        }
        NetMsg::Welcome { peer_index, peer_count } => {
            w.put_u8(TAG_WELCOME);
            w.put_u64(*peer_index);
            w.put_u64(*peer_count);
        }
        NetMsg::Init { epsilon, bidders } => {
            w.put_u8(TAG_INIT);
            w.put_f64(*epsilon);
            w.put_u64(bidders.len() as u64);
            for b in bidders {
                w.put_index(b.request);
                w.put_u64(b.edges.len() as u64);
                for (provider, utility, price) in &b.edges {
                    w.put_index(*provider);
                    w.put_f64(*utility);
                    w.put_f64(*price);
                }
            }
        }
        NetMsg::Poll { request, prices } => {
            w.put_u8(TAG_POLL);
            w.put_index(*request);
            w.put_u64(prices.len() as u64);
            for p in prices {
                w.put_f64(*p);
            }
        }
        NetMsg::Reply { request, decision } => {
            w.put_u8(TAG_REPLY);
            w.put_index(*request);
            put_decision(&mut w, decision);
        }
        NetMsg::Notice(inner) => {
            w.put_u8(TAG_NOTICE);
            w.put_bytes(&encode_msg(inner));
        }
        NetMsg::Heartbeat => w.put_u8(TAG_HEARTBEAT),
        NetMsg::Shutdown => w.put_u8(TAG_SHUTDOWN),
        NetMsg::PollBatch { notices, polls } => {
            w.put_u8(TAG_POLL_BATCH);
            w.put_u64(notices.len() as u64);
            for n in notices {
                let inner = encode_msg(n);
                w.put_u64(inner.len() as u64);
                w.put_bytes(&inner);
            }
            w.put_u64(polls.len() as u64);
            for (request, prices) in polls {
                w.put_index(*request);
                w.put_u64(prices.len() as u64);
                for p in prices {
                    w.put_f64(*p);
                }
            }
        }
        NetMsg::ReplyBatch { replies } => {
            w.put_u8(TAG_REPLY_BATCH);
            w.put_u64(replies.len() as u64);
            for (request, decision) in replies {
                w.put_index(*request);
                put_decision(&mut w, decision);
            }
        }
    }
    w.into_vec()
}

fn put_decision(w: &mut WireWriter, decision: &BidDecision) {
    match decision {
        BidDecision::Abstain { reason } => {
            w.put_u8(0);
            w.put_u8(reason_to_wire(*reason));
        }
        BidDecision::Bid { edge, provider, amount } => {
            w.put_u8(1);
            w.put_index(*edge);
            w.put_index(*provider);
            w.put_f64(*amount);
        }
    }
}

fn take_decision(r: &mut WireReader<'_>) -> Result<BidDecision> {
    match r.u8()? {
        0 => Ok(BidDecision::Abstain { reason: reason_from_wire(r.u8()?)? }),
        1 => Ok(BidDecision::Bid { edge: r.index()?, provider: r.index()?, amount: r.f64()? }),
        other => Err(P2pError::WireMalformed { reason: format!("unknown decision kind {other}") }),
    }
}

/// Decodes one control message from a versioned payload (strict: exactly
/// one message, no trailing bytes).
pub fn decode_net(bytes: &[u8]) -> Result<NetMsg> {
    let mut r = WireReader::new(bytes);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(P2pError::WireVersion { found: version, supported: WIRE_VERSION });
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => NetMsg::Hello { peer_id: r.u64()? },
        TAG_WELCOME => NetMsg::Welcome { peer_index: r.u64()?, peer_count: r.u64()? },
        TAG_INIT => {
            let epsilon = r.f64()?;
            let count = r.index()?;
            let mut bidders = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let request = r.index()?;
                let edge_count = r.index()?;
                let mut edges = Vec::with_capacity(edge_count.min(1 << 16));
                for _ in 0..edge_count {
                    edges.push((r.index()?, r.f64()?, r.f64()?));
                }
                bidders.push(WireBidder { request, edges });
            }
            NetMsg::Init { epsilon, bidders }
        }
        TAG_POLL => {
            let request = r.index()?;
            let count = r.index()?;
            let mut prices = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                prices.push(r.f64()?);
            }
            NetMsg::Poll { request, prices }
        }
        TAG_REPLY => {
            let request = r.index()?;
            let decision = take_decision(&mut r)?;
            NetMsg::Reply { request, decision }
        }
        TAG_NOTICE => {
            let rest = r.take(r.remaining())?;
            return Ok(NetMsg::Notice(decode_msg(rest)?));
        }
        TAG_HEARTBEAT => NetMsg::Heartbeat,
        TAG_SHUTDOWN => NetMsg::Shutdown,
        TAG_POLL_BATCH => {
            let notice_count = r.index()?;
            let mut notices = Vec::with_capacity(notice_count.min(1 << 16));
            for _ in 0..notice_count {
                let len = r.index()?;
                notices.push(decode_msg(r.take(len)?)?);
            }
            let poll_count = r.index()?;
            let mut polls = Vec::with_capacity(poll_count.min(1 << 16));
            for _ in 0..poll_count {
                let request = r.index()?;
                let price_count = r.index()?;
                let mut prices = Vec::with_capacity(price_count.min(1 << 16));
                for _ in 0..price_count {
                    prices.push(r.f64()?);
                }
                polls.push((request, prices));
            }
            NetMsg::PollBatch { notices, polls }
        }
        TAG_REPLY_BATCH => {
            let count = r.index()?;
            let mut replies = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let request = r.index()?;
                replies.push((request, take_decision(&mut r)?));
            }
            NetMsg::ReplyBatch { replies }
        }
        other => {
            return Err(P2pError::WireMalformed { reason: format!("unknown control tag {other}") })
        }
    };
    r.finish()?;
    Ok(msg)
}

/// Serializes a [`WelfareInstance`] for handing to a tracker process.
/// Valuations and costs travel as exact `f64` bit images, so the decoded
/// instance is indistinguishable from the original.
pub fn encode_instance(instance: &WelfareInstance) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_u8(WIRE_VERSION);
    w.put_u8(TAG_INSTANCE);
    w.put_u64(instance.provider_count() as u64);
    for p in instance.providers() {
        w.put_u32(p.peer.get());
        w.put_u32(p.capacity.chunks_per_slot());
    }
    w.put_u64(instance.request_count() as u64);
    for req in instance.requests() {
        w.put_u32(req.id.downstream().get());
        w.put_u32(req.id.chunk().video().get());
        w.put_u32(req.id.chunk().index_in_video());
        w.put_u64(req.edge_count() as u64);
        for e in req.edges() {
            w.put_index(e.provider);
            w.put_f64(e.valuation.get());
            w.put_f64(e.cost.get());
        }
    }
    w.into_vec()
}

/// Deserializes a [`WelfareInstance`] written by [`encode_instance`].
pub fn decode_instance(bytes: &[u8]) -> Result<WelfareInstance> {
    let mut r = WireReader::new(bytes);
    expect_header(&mut r, TAG_INSTANCE)?;
    let mut b = WelfareInstance::builder();
    let providers = r.index()?;
    for _ in 0..providers {
        let peer = PeerId::new(r.u32()?);
        let capacity = r.u32()?;
        b.add_provider(peer, capacity);
    }
    let requests = r.index()?;
    for _ in 0..requests {
        let downstream = PeerId::new(r.u32()?);
        let chunk = ChunkId::new(VideoId::new(r.u32()?), r.u32()?);
        let req = b.add_request(RequestId::new(downstream, chunk));
        let edges = r.index()?;
        for _ in 0..edges {
            let provider = r.index()?;
            let valuation = Valuation::new(r.f64()?);
            let cost = Cost::new(r.f64()?);
            b.add_edge(req, provider, valuation, cost)?;
        }
    }
    r.finish()?;
    b.build()
}

/// Serializes an [`AuctionOutcome`] for handing back from a tracker
/// process. The duals travel as their λ vector; [`decode_outcome`]
/// reconstructs the full [`DualSolution`] against the instance.
pub fn encode_outcome(outcome: &AuctionOutcome) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    w.put_u8(WIRE_VERSION);
    w.put_u8(TAG_OUTCOME);
    let choices = outcome.assignment.choices();
    w.put_u64(choices.len() as u64);
    for c in choices {
        match c {
            Some(edge) => {
                w.put_u8(1);
                w.put_index(*edge);
            }
            None => w.put_u8(0),
        }
    }
    w.put_u64(outcome.duals.lambda.len() as u64);
    for l in &outcome.duals.lambda {
        w.put_f64(*l);
    }
    w.put_u64(outcome.rounds);
    w.put_u64(outcome.bids_submitted);
    w.put_u8(outcome.converged as u8);
    w.into_vec()
}

/// Deserializes an [`AuctionOutcome`] written by [`encode_outcome`].
pub fn decode_outcome(bytes: &[u8], instance: &WelfareInstance) -> Result<AuctionOutcome> {
    let mut r = WireReader::new(bytes);
    expect_header(&mut r, TAG_OUTCOME)?;
    let count = r.index()?;
    let mut choices = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        choices.push(match r.u8()? {
            0 => None,
            1 => Some(r.index()?),
            other => {
                return Err(P2pError::WireMalformed {
                    reason: format!("unknown choice marker {other}"),
                })
            }
        });
    }
    let lambdas = r.index()?;
    let mut lambda = Vec::with_capacity(lambdas.min(1 << 20));
    for _ in 0..lambdas {
        lambda.push(r.f64()?);
    }
    let rounds = r.u64()?;
    let bids_submitted = r.u64()?;
    let converged = r.u8()? != 0;
    r.finish()?;
    Ok(AuctionOutcome {
        assignment: Assignment::new(choices),
        duals: DualSolution::from_prices(instance, lambda),
        rounds,
        bids_submitted,
        converged,
    })
}

fn expect_header(r: &mut WireReader<'_>, tag: u8) -> Result<()> {
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(P2pError::WireVersion { found: version, supported: WIRE_VERSION });
    }
    let found = r.u8()?;
    if found != tag {
        return Err(P2pError::WireMalformed {
            reason: format!("expected payload tag {tag}, found {found}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_samples() -> Vec<NetMsg> {
        vec![
            NetMsg::Hello { peer_id: 42 },
            NetMsg::Welcome { peer_index: 1, peer_count: 3 },
            NetMsg::Init {
                epsilon: 0.01,
                bidders: vec![
                    WireBidder { request: 0, edges: vec![(0, 4.0, 0.0), (2, 1.5, f64::INFINITY)] },
                    WireBidder { request: 3, edges: vec![] },
                ],
            },
            NetMsg::Poll { request: 7, prices: vec![0.0, 2.5, f64::INFINITY] },
            NetMsg::Reply {
                request: 7,
                decision: BidDecision::Bid { edge: 1, provider: 2, amount: 3.25 },
            },
            NetMsg::Reply {
                request: 9,
                decision: BidDecision::Abstain { reason: AbstainReason::Unprofitable },
            },
            NetMsg::Notice(AuctionMsg::Evicted { request: 4, provider: 1, price: 6.5 }),
            NetMsg::Heartbeat,
            NetMsg::Shutdown,
            NetMsg::PollBatch {
                notices: vec![
                    AuctionMsg::Accepted { request: 2, provider: 0 },
                    AuctionMsg::Evicted { request: 5, provider: 0, price: 1.75 },
                ],
                polls: vec![(0, vec![0.5, f64::INFINITY]), (5, vec![]), (6, vec![1.0 / 3.0])],
            },
            NetMsg::PollBatch { notices: vec![], polls: vec![] },
            NetMsg::ReplyBatch {
                replies: vec![
                    (0, BidDecision::Bid { edge: 0, provider: 1, amount: 0.625 }),
                    (5, BidDecision::Abstain { reason: AbstainReason::NoCandidates }),
                ],
            },
        ]
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in net_samples() {
            let bytes = encode_net(&msg);
            assert_eq!(decode_net(&bytes).unwrap(), msg);
            for cut in 2..bytes.len() {
                assert!(decode_net(&bytes[..cut]).is_err(), "prefix {cut} of {msg:?} decoded");
            }
        }
    }

    #[test]
    fn unknown_control_tag_is_malformed() {
        let mut bytes = encode_net(&NetMsg::Heartbeat);
        bytes[1] = 250;
        assert!(matches!(decode_net(&bytes), Err(P2pError::WireMalformed { .. })));
    }

    fn sample_instance() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(10), 2);
        let u1 = b.add_provider(PeerId::new(11), 0);
        let chunk = ChunkId::new(VideoId::new(3), 7);
        let r0 = b.add_request(RequestId::new(PeerId::new(0), chunk));
        let r1 = b.add_request(RequestId::new(PeerId::new(1), chunk));
        b.add_edge(r0, u0, Valuation::new(5.0), Cost::new(1.25)).unwrap();
        b.add_edge(r0, u1, Valuation::new(5.0), Cost::new(0.5)).unwrap();
        b.add_edge(r1, u0, Valuation::new(0.1 + 0.2), Cost::new(0.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn instances_roundtrip_exactly() {
        let instance = sample_instance();
        let decoded = decode_instance(&encode_instance(&instance)).unwrap();
        assert_eq!(decoded.provider_count(), instance.provider_count());
        assert_eq!(decoded.request_count(), instance.request_count());
        assert_eq!(decoded.edge_count(), instance.edge_count());
        // Bit-exact weights: re-encoding reproduces the byte stream.
        assert_eq!(encode_instance(&decoded), encode_instance(&instance));
    }

    #[test]
    fn instance_wire_bytes_are_pinned() {
        // FNV-1a over `encode_instance`'s bytes: the wire format does not
        // follow the in-memory layout, so this digest stays put whenever
        // that layout changes.
        let digest =
            encode_instance(&sample_instance()).iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(digest, 0x12b9_1e8b_1118_3584, "{digest:#018x}");
    }

    #[test]
    fn outcomes_roundtrip_exactly() {
        use p2p_core::{AuctionConfig, SyncAuction};
        let instance = sample_instance();
        let outcome = SyncAuction::new(AuctionConfig::paper()).run(&instance).unwrap();
        let decoded = decode_outcome(&encode_outcome(&outcome), &instance).unwrap();
        assert_eq!(decoded.assignment, outcome.assignment);
        assert_eq!(decoded.duals, outcome.duals);
        assert_eq!(decoded.rounds, outcome.rounds);
        assert_eq!(decoded.bids_submitted, outcome.bids_submitted);
        assert_eq!(decoded.converged, outcome.converged);
    }

    #[test]
    fn truncated_instance_is_typed_not_a_panic() {
        let bytes = encode_instance(&sample_instance());
        for cut in 0..bytes.len() {
            assert!(decode_instance(&bytes[..cut]).is_err());
        }
    }
}
