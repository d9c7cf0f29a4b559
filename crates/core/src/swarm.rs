//! Virtual-time swarm backend: protocol state machines as logical actors
//! on the discrete-event simulator, behind a seeded fault-injecting
//! network model.
//!
//! Two execution modes share the [`BidderNode`]/[`AuctioneerNode`] state
//! machines of [`crate::protocol`]:
//!
//! * **Ideal mode** ([`NetworkModel::ideal`], zero latency and zero
//!   faults): the swarm replays the synchronous Gauss–Seidel sweep of
//!   [`crate::SyncAuction`] on virtual time — one `Poll` event per open
//!   request per round (unassigned and not retired as priced out), bids
//!   resolved instantly, evicted losers re-polled at their sweep position.
//!   Each bidder node's decision is applied through the same [`Sweep`]
//!   `SyncAuction` drives, so the outcome (assignment, duals, rounds,
//!   bids) is **bit-identical** to the in-process engines by
//!   construction; the engine gates check it too.
//! * **Reactive mode** (any model with latency or faults): every message
//!   travels a per-link channel with seeded latency, drop/duplicate/
//!   reorder faults and ISP-level partitions, all derived from
//!   [`derive_seed`] so a run is a pure function of `(instance, seed)`.
//!   Dropped attempts retry on a virtual timeout that fires through
//!   fast-forward — no wall-clock races — and the final attempt always
//!   lands (eventual delivery), so Theorem 1's `n·ε` certificate still
//!   holds at quiescence for ε > 0.
//!
//! The reactive mode is also the paper's in-slot emulation. With
//! [`NetworkModel::cost_derived`] each link's delay follows its edge cost
//! ("network latency as the network cost") and every price change reaches
//! the probe with its exact new value and virtual instant — Fig. 2's
//! price trace (see `p2p_streaming::fig2`).
//! [`SwarmAuction::run_with_departures`] adds Sec. IV-C's mid-auction
//! departures as simulator events.
//!
//! Per-link sequence numbers restore FIFO order at the receiver (a
//! reordered `Accepted`/`Evicted` pair would otherwise strand a bidder in
//! the wrong phase), and duplicates are discarded by the same mechanism.
//! Every delivered protocol message folds into an order-sensitive FNV-1a
//! trace hash, the determinism regression anchor: same seed → same hash,
//! distinct seeds → distinct fault schedules.
//!
//! Reactive deliveries ride **mail chains**: every in-flight envelope is
//! a node in one [`p2p_sim::ChainSlab`], the event queue carries only the
//! index of a mailbox's head node, and the per-link resequencing buffers
//! are chains in the same slab. Nodes are freed as they are delivered and
//! reused by later sends, so once the slab has grown to the run's peak,
//! dispatch allocates nothing, under faults too. On top of that sits
//! **event coalescing** ([`SwarmConfig::coalesce`]): while a scheduled
//! mailbox wake-up remains the most recent queue entry at its timestamp,
//! further deliveries to the same peer at that timestamp append to its
//! chain instead of pushing new events. Because same-time events pop in
//! push order, an appended message is processed at exactly the position
//! it would have popped on its own — delivery order, `trace_hash`, fault
//! counters and outcomes are byte-identical to the uncoalesced run (gated
//! by `proptest_coalesce` and by `p2p-bench`'s engine gates), while
//! flash-crowd fan-in shrinks the queue by the fan-out factor.

use crate::bidder::{BidDecision, EdgeView};
use crate::engine::{final_prices_from, report_complete, AuctionConfig, AuctionOutcome, Sweep};
use crate::instance::{ProviderIdx, RequestIdx, WelfareInstance};
use crate::messages::AuctionMsg;
use crate::protocol::{AuctioneerNode, BidderNode, LearnPolicy};
use crate::solution::{Assignment, DualSolution};
use p2p_metrics::{AuctionProbe, NoProbe};
use p2p_sim::{derive_seed, ChainSlab, Context, Simulation, World, NIL};
use p2p_types::{P2pError, PeerId, SimDuration, SimTime};

/// One microsecond per sweep position: round `k` polls request `r` at
/// `round_start + r` µs, so FIFO tie-breaking inside a timestamp never
/// has to disambiguate two different requests.
const SWEEP_STEP: SimDuration = SimDuration::from_micros(1);

/// Seed stream offsets (disjoint from per-message counters, which stay
/// far below 2⁶⁰).
const LINK_SALT: u64 = 0x1000_0000_0000_0000;
const GROUP_SALT: u64 = 0x2000_0000_0000_0000;
const REORDER_SALT: u64 = 1_000_003;
const DUP_SALT: u64 = 1_000_007;

/// An ISP-level partition: cross-group messages sent during
/// `[at, heal)` are deferred to `heal` (the transport buffers and
/// retransmits, Sec. IV's "network remains eventually connected").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// When the partition opens.
    pub at: SimTime,
    /// When it heals; deferred traffic departs here.
    pub heal: SimTime,
}

/// A scheduled mid-auction departure (Sec. IV-C): at `at`, every role of
/// `peer` — auctioneer and/or bidder — leaves the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartureEvent {
    /// When the peer departs.
    pub at: SimTime,
    /// The departing peer.
    pub peer: PeerId,
}

/// Seeded network behavior for the swarm backend. All randomness is
/// derived from the run seed via [`derive_seed`], so fault schedules are
/// replayable events, not wall-clock accidents.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Latency floor applied to every delivery.
    pub base_latency: SimDuration,
    /// Per-link deterministic latency spread (each link draws a fixed
    /// extra in `[0, link_spread)` from the seed — "per-link latency
    /// distributions").
    pub link_spread: SimDuration,
    /// Per-message jitter in `[0, jitter)`.
    pub jitter: SimDuration,
    /// Probability a delivery attempt is dropped (retried after
    /// `retry_timeout`; the attempt after `max_retries` always lands).
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a message takes an extra `[0, reorder_delay)` detour,
    /// arriving behind younger traffic on its link.
    pub reorder_prob: f64,
    /// Maximum reorder detour.
    pub reorder_delay: SimDuration,
    /// Virtual retransmission timeout for dropped attempts.
    pub retry_timeout: SimDuration,
    /// Retries before delivery is forced (eventual delivery).
    pub max_retries: u32,
    /// Price-announcement coalescing window (reactive mode).
    pub broadcast_window: SimDuration,
    /// Optional ISP-level partition.
    pub partition: Option<PartitionWindow>,
    /// Optional per-link delay derived from each edge's cost, added to the
    /// seeded latency draws.
    pub cost_latency: Option<CostLatency>,
}

/// A per-link delay affine in the link's edge cost: `base_ms +
/// ms_per_cost · w` milliseconds one way, both directions of the edge
/// alike. This is `p2p_topology::LatencyModel`'s rule (the paper uses
/// "network latency as the network cost"), rounded once to the
/// microsecond exactly as `LatencyModel::one_way` rounds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostLatency {
    /// Fixed part of every link's delay, in milliseconds.
    pub base_ms: f64,
    /// Delay per unit of edge cost, in milliseconds.
    pub ms_per_cost: f64,
}

impl CostLatency {
    /// One-way delay of a link whose edge costs `cost`.
    pub fn one_way(&self, cost: f64) -> SimDuration {
        SimDuration::from_secs_f64(((self.base_ms + self.ms_per_cost * cost) / 1e3).max(0.0))
    }
}

impl NetworkModel {
    /// Zero latency, zero faults: the bit-identical replay of the
    /// synchronous sweep.
    pub fn ideal() -> Self {
        NetworkModel {
            base_latency: SimDuration::ZERO,
            link_spread: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            retry_timeout: SimDuration::from_millis(10),
            max_retries: 3,
            broadcast_window: SimDuration::ZERO,
            partition: None,
            cost_latency: None,
        }
    }

    /// Fig. 2's network: every link's delay derived from its edge cost, no
    /// faults, and price announcements coalesced over a 100 ms window.
    pub fn cost_derived(latency: CostLatency) -> Self {
        NetworkModel {
            cost_latency: Some(latency),
            broadcast_window: SimDuration::from_millis(100),
            ..NetworkModel::ideal()
        }
    }

    /// Sub-millisecond latencies, no faults: racy but reliable delivery.
    pub fn lan() -> Self {
        NetworkModel {
            base_latency: SimDuration::from_micros(200),
            link_spread: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(200),
            broadcast_window: SimDuration::from_micros(500),
            retry_timeout: SimDuration::from_millis(5),
            ..NetworkModel::ideal()
        }
    }

    /// Wide-area latencies with drop/duplicate/reorder faults.
    pub fn lossy() -> Self {
        NetworkModel {
            base_latency: SimDuration::from_millis(2),
            link_spread: SimDuration::from_millis(3),
            jitter: SimDuration::from_millis(5),
            drop_prob: 0.05,
            duplicate_prob: 0.02,
            reorder_prob: 0.10,
            reorder_delay: SimDuration::from_millis(20),
            retry_timeout: SimDuration::from_millis(25),
            max_retries: 3,
            broadcast_window: SimDuration::from_millis(1),
            partition: None,
            cost_latency: None,
        }
    }

    /// Looks a preset up by name (`ideal`, `lan`, `lossy`) — the spec key
    /// the scenario runner resolves.
    pub fn preset(name: &str) -> Option<NetworkModel> {
        match name {
            "ideal" => Some(NetworkModel::ideal()),
            "lan" => Some(NetworkModel::lan()),
            "lossy" => Some(NetworkModel::lossy()),
            _ => None,
        }
    }

    /// Adds an ISP-level partition over `[at, heal)`.
    ///
    /// # Panics
    ///
    /// Panics if `heal <= at`.
    #[must_use]
    pub fn with_partition(mut self, at: SimTime, heal: SimTime) -> Self {
        assert!(heal > at, "partition must heal after it opens");
        self.partition = Some(PartitionWindow { at, heal });
        self
    }

    /// Whether the model is the zero-latency, zero-fault ideal — the mode
    /// that replays the synchronous sweep bit for bit.
    pub fn is_ideal(&self) -> bool {
        self.base_latency.is_zero()
            && self.link_spread.is_zero()
            && self.jitter.is_zero()
            && self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.partition.is_none()
            && self.cost_latency.is_none()
    }
}

/// Counters of injected (and repaired) network faults — part of the
/// replayable record a determinism test compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Delivery attempts dropped (each retried after `retry_timeout`).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Duplicate deliveries discarded by receiver sequencing.
    pub duplicates_discarded: u64,
    /// Messages that took a reorder detour.
    pub reordered: u64,
    /// Out-of-order arrivals held in a resequencing buffer.
    pub resequenced: u64,
    /// Cross-partition sends deferred to the heal time.
    pub deferred: u64,
}

/// Configuration of the swarm execution.
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Bid increment ε (see [`crate::AuctionConfig::epsilon`]). Use ε > 0
    /// under faulty models: racy delivery can freeze ε = 0 on a
    /// dynamically created tie — a bid lifts a price to exactly another
    /// request's indifference point, and that request then waits forever —
    /// so the run quiesces feasible but short of the optimum. A seeded
    /// test pins one such run.
    pub epsilon: f64,
    /// Safety cap on sweep rounds (ideal mode).
    pub max_rounds: u64,
    /// Safety cap on simulator events (reactive mode).
    pub max_events: u64,
    /// Coalesce same-timestamp deliveries to one peer into a single
    /// batched mailbox wake-up (reactive mode). Delivery order — and with
    /// it the trace hash and every outcome bit — is unchanged; only the
    /// event count and queue depth shrink. Disable to run the one event
    /// per message baseline the equivalence gates compare against.
    pub coalesce: bool,
}

impl SwarmConfig {
    /// Paper-faithful defaults, mirroring [`crate::AuctionConfig::paper`].
    pub fn paper() -> Self {
        SwarmConfig { epsilon: 0.0, max_rounds: 1_000_000, max_events: 200_000_000, coalesce: true }
    }

    /// Paper configuration with a positive ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        SwarmConfig { epsilon, ..SwarmConfig::paper() }
    }
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig::paper()
    }
}

/// Result of one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmOutcome {
    /// The converged primal solution.
    pub assignment: Assignment,
    /// The converged dual prices.
    pub duals: DualSolution,
    /// Sweep rounds executed (ideal mode; 0 in reactive mode, which has
    /// no global rounds).
    pub rounds: u64,
    /// Bids submitted (ideal) / delivered (reactive).
    pub bids_submitted: u64,
    /// Protocol messages exchanged.
    pub messages: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Virtual time of the last protocol activity.
    pub converged_at: SimTime,
    /// Whether quiescence was reached within the event budget.
    pub converged: bool,
    /// Injected-fault counters.
    pub faults: FaultStats,
    /// Order-sensitive FNV-1a hash over every delivered protocol message
    /// `(time, kind, fields)` — the determinism anchor.
    pub trace_hash: u64,
    /// Deliveries that rode an already-scheduled same-peer, same-time
    /// mailbox wake-up instead of their own queue event (reactive mode
    /// with [`SwarmConfig::coalesce`]; 0 otherwise).
    pub coalesced_events: u64,
    /// High-water mark of the pending-event queue.
    pub peak_queue: u64,
}

impl SwarmOutcome {
    /// Converts to the engine-shaped outcome (for schedulers and the
    /// equivalence harness).
    pub fn to_outcome(&self) -> AuctionOutcome {
        AuctionOutcome {
            assignment: self.assignment.clone(),
            duals: self.duals.clone(),
            rounds: self.rounds,
            bids_submitted: self.bids_submitted,
            converged: self.converged,
        }
    }
}

/// Order-sensitive FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct TraceHash(u64);

impl TraceHash {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        TraceHash(Self::OFFSET)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn msg(&mut self, at: SimTime, msg: &AuctionMsg) {
        self.word(at.as_micros());
        match *msg {
            AuctionMsg::Bid { request, edge, provider, amount } => {
                self.word(1);
                self.word(request as u64);
                self.word(edge as u64);
                self.word(provider as u64);
                self.word(amount.to_bits());
            }
            AuctionMsg::Accepted { request, provider } => {
                self.word(2);
                self.word(request as u64);
                self.word(provider as u64);
            }
            AuctionMsg::Rejected { request, provider, price } => {
                self.word(3);
                self.word(request as u64);
                self.word(provider as u64);
                self.word(price.to_bits());
            }
            AuctionMsg::Evicted { request, provider, price } => {
                self.word(4);
                self.word(request as u64);
                self.word(provider as u64);
                self.word(price.to_bits());
            }
            AuctionMsg::PriceUpdate { listener, provider, price } => {
                self.word(5);
                self.word(listener as u64);
                self.word(provider as u64);
                self.word(price.to_bits());
            }
        }
    }

    fn finish(self) -> u64 {
        self.0
    }

    /// The run's trace hash: this hash folded as one word into a fresh
    /// one, the word order every recorded trace hash was taken with.
    fn run_hash(self) -> u64 {
        let mut run = TraceHash::new();
        run.word(self.finish());
        run.finish()
    }
}

/// Uniform `[0, 1)` from 64 random bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded draw in `[0, d)`.
fn scaled(d: SimDuration, bits: u64) -> SimDuration {
    SimDuration::from_micros((unit(bits) * d.as_micros() as f64) as u64)
}

/// A run's transport-side counters, next to its [`AuctionOutcome`].
#[derive(Debug)]
struct SideStats {
    messages: u64,
    events: u64,
    converged_at: SimTime,
    faults: FaultStats,
    trace_hash: u64,
    coalesced: u64,
    peak_queue: u64,
}

/// The swarm auction engine: one logical actor per peer on the event
/// queue, network behavior from a seeded [`NetworkModel`].
///
/// # Examples
///
/// ```
/// use p2p_core::{WelfareInstance, SwarmAuction, SwarmConfig, NetworkModel};
/// use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost};
///
/// let mut b = WelfareInstance::builder();
/// let u = b.add_provider(PeerId::new(9), 1);
/// let r = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
/// b.add_edge(r, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
/// let inst = b.build().unwrap();
///
/// let out = SwarmAuction::new(SwarmConfig::paper(), NetworkModel::ideal())
///     .run(&inst, 42)
///     .unwrap();
/// assert!(out.converged);
/// assert_eq!(out.assignment.assigned_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SwarmAuction {
    config: SwarmConfig,
    net: NetworkModel,
}

impl SwarmAuction {
    /// Creates the engine.
    pub fn new(config: SwarmConfig, net: NetworkModel) -> Self {
        SwarmAuction { config, net }
    }

    /// The configuration.
    pub fn config(&self) -> &SwarmConfig {
        &self.config
    }

    /// The network model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Runs the auction.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if the round cap (ideal
    /// mode) or event cap (reactive mode) is reached before quiescence.
    pub fn run(&self, instance: &WelfareInstance, seed: u64) -> Result<SwarmOutcome, P2pError> {
        self.run_probed(instance, seed, &mut NoProbe)
    }

    /// [`run`](SwarmAuction::run) with an observer probe.
    ///
    /// The ideal mode reports the per-round counters (bids, conflicts and
    /// retirements) of the [`Sweep`] it drives, which are
    /// [`crate::SyncAuction`]'s. The reactive mode has no rounds, so it
    /// reports no round counters; both report price changes and the run's
    /// completion.
    ///
    /// # Errors
    ///
    /// As for [`run`](SwarmAuction::run).
    pub fn run_probed<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        seed: u64,
        probe: &mut P,
    ) -> Result<SwarmOutcome, P2pError> {
        self.run_with_departures(instance, &[], seed, probe)
    }

    /// Runs the auction while peers leave mid-auction (Sec. IV-C):
    /// "the algorithm can handle it smoothly and converge to the maximum
    /// social welfare where the departed peer is excluded". A departed
    /// auctioneer evicts its winners and announces an infinite price; a
    /// departed bidder's requests are cancelled and the units they held
    /// released, which lowers the provider's price to 0 — so bidders of a
    /// run with departures believe the latest price they hear
    /// ([`LearnPolicy::Latest`]) instead of the highest. Departures always
    /// run the reactive mode, with zero latency under the ideal model.
    ///
    /// # Errors
    ///
    /// As for [`run`](SwarmAuction::run).
    pub fn run_with_departures<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        departures: &[DepartureEvent],
        seed: u64,
        probe: &mut P,
    ) -> Result<SwarmOutcome, P2pError> {
        let (outcome, side) = if self.net.is_ideal() && departures.is_empty() {
            self.run_ideal(instance, probe)?
        } else {
            // Fault schedules draw from this derived seed; pinned trace
            // hashes depend on it.
            self.run_reactive(instance, departures, derive_seed(seed, 0), probe)?
        };
        Ok(assemble(outcome, &side))
    }

    /// Ideal mode: the synchronous sweep replayed as `Poll` events on
    /// virtual time. Every decision is applied through the [`Sweep`] that
    /// [`crate::SyncAuction`] drives, so assignment, duals, rounds, bids
    /// and the probe's round counters agree with it by construction. Like
    /// every sweep, each round polls only the open requests: a request
    /// retired as priced out takes no further turn.
    fn run_ideal<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        probe: &mut P,
    ) -> Result<(AuctionOutcome, SideStats), P2pError> {
        let n = instance.request_count();
        let config =
            AuctionConfig { epsilon: self.config.epsilon, max_rounds: self.config.max_rounds };
        let mut sweep = Sweep::new(instance, config);
        sweep.begin_round()?;
        let world = IdealWorld {
            probe,
            sweep,
            bidders: build_bidders(instance, self.config.epsilon, LearnPolicy::Monotone),
            round_start: SimTime::ZERO,
            diverged: None,
            messages: 0,
            hash: TraceHash::new(),
            converged_at: SimTime::ZERO,
        };
        let mut sim = Simulation::new(world).with_event_capacity(n + 1);
        for r in 0..n {
            sim.schedule_at(SimTime::ZERO + SWEEP_STEP * r as u64, IdealEv::Poll(r));
        }
        sim.schedule_at(SimTime::ZERO + SWEEP_STEP * n as u64, IdealEv::RoundEnd);
        let stats = sim.run_to_completion();
        let world = sim.into_world();
        if let Some(diverged) = world.diverged {
            return Err(diverged);
        }

        let side = SideStats {
            messages: world.messages,
            events: stats.events_processed,
            converged_at: world.converged_at,
            faults: FaultStats::default(),
            trace_hash: world.hash.run_hash(),
            coalesced: 0,
            peak_queue: stats.peak_pending as u64,
        };
        Ok((world.sweep.finish(world.probe), side))
    }

    /// Reactive mode: per-link channels with seeded latency and faults.
    fn run_reactive<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        departures: &[DepartureEvent],
        seed: u64,
        probe: &mut P,
    ) -> Result<(AuctionOutcome, SideStats), P2pError> {
        let n = instance.request_count();
        let provider_count = instance.provider_count();
        // A release lowers λ, so only runs with departures may believe a
        // decrease; per-link FIFO keeps each link's observations ordered.
        let policy =
            if departures.is_empty() { LearnPolicy::Monotone } else { LearnPolicy::Latest };
        let bidders = build_bidders(instance, self.config.epsilon, policy);
        let auctioneers = instance
            .providers()
            .enumerate()
            .map(|(u, p)| AuctioneerNode::new(u, p.capacity.chunks_per_slot()))
            .collect();

        let data = &*instance.data;
        let bidder_peer: Vec<PeerId> = data.request_id.iter().map(|id| id.downstream()).collect();

        // Flattened edge slots are the instance's edge indices: link 2e is
        // the bid direction of edge e, link 2e+1 the reply/announce
        // direction.
        let links = vec![LinkState { sent: 0, delivered: 0, held: NIL }; 2 * instance.edge_count()];
        let edge_delay = match self.net.cost_latency {
            Some(c) => data.edge_cost.iter().map(|w| c.one_way(w.get())).collect(),
            None => Vec::new(),
        };

        let mut listeners: Vec<Vec<(RequestIdx, u32)>> = vec![Vec::new(); provider_count];
        for r in 0..n {
            for (k, &u) in instance.request(r).providers().iter().enumerate() {
                listeners[u as usize].push((r, k as u32));
            }
        }

        let world = NetWorld {
            probe,
            net: &self.net,
            seed,
            bidders,
            auctioneers,
            assigned_edge: vec![None; n],
            bidder_peer,
            provider_peer: &data.peer,
            row_start: &data.row_offsets,
            listeners,
            links,
            edge_delay,
            departures: !departures.is_empty(),
            broadcast_pending: vec![false; provider_count],
            msg_counter: 0,
            messages: 0,
            bids_delivered: 0,
            faults: FaultStats::default(),
            hash: TraceHash::new(),
            last_activity: SimTime::ZERO,
            mail: ChainSlab::with_capacity(64),
            open: None,
            coalesce: self.config.coalesce,
            coalesced: 0,
        };
        let mut sim =
            Simulation::new(world).with_max_events(self.config.max_events).with_event_capacity(n);
        for r in 0..n {
            sim.schedule_at(SimTime::ZERO, NetEv::Start(r));
        }
        for d in departures {
            sim.schedule_at(d.at, NetEv::Depart(d.peer));
        }
        let stats = sim.run_to_completion();
        let converged = stats.events_processed < self.config.max_events;
        let world = sim.into_world();
        if !converged {
            return Err(P2pError::AuctionDiverged { iterations: stats.events_processed });
        }

        let side = SideStats {
            messages: world.messages,
            events: stats.events_processed,
            converged_at: world.last_activity,
            faults: world.faults,
            trace_hash: world.hash.run_hash(),
            coalesced: world.coalesced,
            peak_queue: stats.peak_pending as u64,
        };
        let lambda = final_prices_from(
            instance,
            world.auctioneers.iter().map(AuctioneerNode::price).collect(),
        );
        let outcome = AuctionOutcome {
            assignment: Assignment::new(world.assigned_edge),
            duals: DualSolution::from_prices(instance, lambda),
            rounds: 0,
            bids_submitted: world.bids_delivered,
            converged: true,
        };
        report_complete(instance, &outcome, world.probe);
        Ok((outcome, side))
    }
}

/// Builds the bidder nodes of both modes, every price at 0 as the
/// synchronous engine starts.
fn build_bidders(instance: &WelfareInstance, epsilon: f64, policy: LearnPolicy) -> Vec<BidderNode> {
    instance
        .requests()
        .enumerate()
        .map(|(r, row)| {
            let views = row
                .providers()
                .iter()
                .zip(row.utilities())
                .map(|(&u, &utility)| EdgeView { provider: u as usize, utility })
                .collect();
            BidderNode::new(r, views, epsilon, policy, |u| {
                if instance.provider(u).capacity.is_zero() {
                    f64::INFINITY
                } else {
                    0.0
                }
            })
        })
        .collect()
}

fn assemble(outcome: AuctionOutcome, side: &SideStats) -> SwarmOutcome {
    SwarmOutcome {
        assignment: outcome.assignment,
        duals: outcome.duals,
        rounds: outcome.rounds,
        bids_submitted: outcome.bids_submitted,
        messages: side.messages,
        events: side.events,
        converged_at: side.converged_at,
        converged: outcome.converged,
        faults: side.faults,
        trace_hash: side.trace_hash,
        coalesced_events: side.coalesced,
        peak_queue: side.peak_queue,
    }
}

// --- Ideal mode world ---

#[derive(Debug, Clone, Copy)]
enum IdealEv {
    /// Request `r` takes its turn in the current sweep.
    Poll(RequestIdx),
    /// The sweep round closes; quiescence check and next-round setup.
    RoundEnd,
}

struct IdealWorld<'a, P: AuctionProbe> {
    probe: &'a mut P,
    sweep: Sweep<'a>,
    bidders: Vec<BidderNode>,
    round_start: SimTime,
    diverged: Option<P2pError>,
    messages: u64,
    hash: TraceHash,
    converged_at: SimTime,
}

impl<P: AuctionProbe> IdealWorld<'_, P> {
    fn record(&mut self, at: SimTime, msg: &AuctionMsg) {
        self.messages += 1;
        self.hash.msg(at, msg);
    }
}

impl<P: AuctionProbe> World for IdealWorld<'_, P> {
    type Event = IdealEv;

    // One call site, once per event, in the simulator's run loop.
    #[inline]
    fn handle(&mut self, ctx: &mut Context<'_, IdealEv>, ev: IdealEv) {
        match ev {
            IdealEv::Poll(r) => {
                if !self.sweep.is_open(r) {
                    return;
                }
                // Zero latency: the bidder reads the exact live prices, as
                // the synchronous sweep does.
                self.bidders[r].refresh_prices(self.sweep.row_prices(r));
                let decision = self.bidders[r].decide();
                let now = ctx.now();
                if let BidDecision::Bid { edge, provider, amount } = decision {
                    self.record(now, &AuctionMsg::Bid { request: r, edge, provider, amount });
                }
                let Some(reply) = self.sweep.apply(r, decision, now, self.probe) else {
                    return;
                };
                self.record(now, &reply.reply);
                self.bidders[r].absorb(&reply.reply);
                if let Some(notice @ AuctionMsg::Evicted { request: loser, .. }) = reply.evicted {
                    self.record(now, &notice);
                    self.bidders[loser].absorb(&notice);
                    if loser > r {
                        // The loser's sweep position is still ahead this
                        // round: re-poll it there, exactly the synchronous
                        // re-scan.
                        ctx.schedule_at(
                            self.round_start + SWEEP_STEP * loser as u64,
                            IdealEv::Poll(loser),
                        );
                    }
                }
                self.converged_at = now;
            }
            IdealEv::RoundEnd => {
                if self.sweep.end_round(self.probe) {
                    ctx.stop();
                    return;
                }
                if let Err(diverged) = self.sweep.begin_round() {
                    self.diverged = Some(diverged);
                    ctx.stop();
                    return;
                }
                self.round_start = ctx.now();
                let n = self.bidders.len();
                for r in (0..n).filter(|&r| self.sweep.is_open(r)) {
                    ctx.schedule_at(self.round_start + SWEEP_STEP * r as u64, IdealEv::Poll(r));
                }
                ctx.schedule_at(self.round_start + SWEEP_STEP * n as u64, IdealEv::RoundEnd);
            }
        }
    }
}

// --- Reactive mode world ---

#[derive(Debug, Clone, Copy)]
enum NetEv {
    /// A bidder wakes up and considers its first bid.
    Start(RequestIdx),
    /// A mailbox wake-up: one or more messages arrived for one peer at
    /// this timestamp. The envelopes are a chain in the mail slab; the
    /// queue entry is just the index of its head node.
    Mail(u32),
    /// A provider's coalesced price announcement fires.
    Broadcast(ProviderIdx),
    /// A peer leaves mid-auction (Sec. IV-C).
    Depart(PeerId),
}

/// One in-flight message: `(link, send-order sequence, payload)`.
type Envelope = (u32, u32, AuctionMsg);

/// The mailbox wake-up that is still the most recent queue entry at its
/// timestamp — the only batch a new same-peer, same-time delivery may
/// legally join (see the coalescing notes in the module docs).
#[derive(Debug, Clone, Copy)]
struct OpenMail {
    at: SimTime,
    peer: PeerId,
    head: u32,
    tail: u32,
}

#[derive(Clone, Copy)]
struct LinkState {
    sent: u32,
    delivered: u32,
    /// Head of the mail-slab chain of envelopes that arrived early.
    held: u32,
}

struct NetWorld<'a, P: AuctionProbe> {
    probe: &'a mut P,
    net: &'a NetworkModel,
    seed: u64,
    bidders: Vec<BidderNode>,
    auctioneers: Vec<AuctioneerNode>,
    assigned_edge: Vec<Option<usize>>,
    bidder_peer: Vec<PeerId>,
    provider_peer: &'a [PeerId],
    /// Per request: its first edge index (the instance's row offsets).
    row_start: &'a [u32],
    listeners: Vec<Vec<(RequestIdx, u32)>>,
    links: Vec<LinkState>,
    /// Cost-derived delay per edge slot (empty without a cost latency).
    edge_delay: Vec<SimDuration>,
    /// Whether the run has scheduled departures; without any, no bidder
    /// can be cancelled and a delivered bid skips the bidder lookup.
    departures: bool,
    broadcast_pending: Vec<bool>,
    msg_counter: u64,
    messages: u64,
    bids_delivered: u64,
    faults: FaultStats,
    hash: TraceHash,
    last_activity: SimTime,
    /// Every in-flight envelope: the mail and resequencing chains.
    mail: ChainSlab<Envelope>,
    open: Option<OpenMail>,
    coalesce: bool,
    coalesced: u64,
}

impl<P: AuctionProbe> NetWorld<'_, P> {
    fn group_of(&self, peer: PeerId) -> u64 {
        derive_seed(self.seed, GROUP_SALT | u64::from(peer.get())) & 1
    }

    /// Schedules a non-delivery event, retiring any open batch at the
    /// same timestamp: once another entry lands at that time, the batch
    /// is no longer the most recent push there, so appending to it would
    /// reorder same-time processing.
    fn push_event(&mut self, ctx: &mut Context<'_, NetEv>, at: SimTime, ev: NetEv) {
        if self.open.is_some_and(|o| o.at == at) {
            self.open = None;
        }
        ctx.schedule_at(at, ev);
    }

    /// Routes one envelope to `peer` at `at`: appends to the open batch's
    /// chain when that is provably order-preserving (same peer, same
    /// timestamp, no queue entry pushed at that timestamp since the batch
    /// opened), otherwise starts a fresh chain and schedules its wake-up.
    fn deliver(&mut self, ctx: &mut Context<'_, NetEv>, at: SimTime, peer: PeerId, env: Envelope) {
        let node = self.mail.alloc(env, NIL);
        if self.coalesce {
            if let Some(o) = &mut self.open {
                if o.at == at && o.peer == peer {
                    self.mail.set_next(o.tail, node);
                    o.tail = node;
                    self.coalesced += 1;
                    return;
                }
            }
        }
        self.push_event(ctx, at, NetEv::Mail(node));
        self.open = Some(OpenMail { at, peer, head: node, tail: node });
    }

    /// Ships one message over a link: partition deferral, seeded retry
    /// loop over drop faults (the final attempt always lands), per-link +
    /// per-message latency, optional reorder detour and duplication. All
    /// fate is a pure function of `(seed, msg_counter)`.
    fn send(
        &mut self,
        ctx: &mut Context<'_, NetEv>,
        from: PeerId,
        to: PeerId,
        link: u32,
        msg: AuctionMsg,
    ) {
        let seq = self.links[link as usize].sent;
        self.links[link as usize].sent += 1;
        let fate = derive_seed(self.seed, self.msg_counter);
        self.msg_counter += 1;

        let mut base = ctx.now();
        if let Some(w) = self.net.partition {
            if base >= w.at && base < w.heal && self.group_of(from) != self.group_of(to) {
                base = w.heal;
                self.faults.deferred += 1;
            }
        }

        let link_extra =
            scaled(self.net.link_spread, derive_seed(self.seed, LINK_SALT | u64::from(link)))
                + self.edge_delay.get(link as usize / 2).copied().unwrap_or(SimDuration::ZERO);
        let mut attempt: u64 = 0;
        let arrival = loop {
            let roll = derive_seed(fate, 2 * attempt);
            if attempt < u64::from(self.net.max_retries) && unit(roll) < self.net.drop_prob {
                self.faults.dropped += 1;
                base += self.net.retry_timeout;
                attempt += 1;
                continue;
            }
            let jitter = scaled(self.net.jitter, derive_seed(fate, 2 * attempt + 1));
            let mut lat = self.net.base_latency + link_extra + jitter;
            if self.net.reorder_prob > 0.0
                && unit(derive_seed(fate, REORDER_SALT)) < self.net.reorder_prob
            {
                lat = lat + scaled(self.net.reorder_delay, derive_seed(fate, REORDER_SALT + 1));
                self.faults.reordered += 1;
            }
            break base + lat;
        };
        self.deliver(ctx, arrival, to, (link, seq, msg));

        if self.net.duplicate_prob > 0.0
            && unit(derive_seed(fate, DUP_SALT)) < self.net.duplicate_prob
        {
            self.faults.duplicated += 1;
            let extra = self.net.base_latency
                + link_extra
                + scaled(self.net.jitter, derive_seed(fate, DUP_SALT + 1));
            self.deliver(ctx, arrival + extra, to, (link, seq, msg));
        }
    }

    fn send_bid(&mut self, ctx: &mut Context<'_, NetEv>, bid: AuctionMsg) {
        if let AuctionMsg::Bid { request, edge, provider, .. } = bid {
            let up = 2 * (self.row_start[request] + edge as u32);
            let (from, to) = (self.bidder_peer[request], self.provider_peer[provider]);
            self.send(ctx, from, to, up, bid);
        }
    }

    fn schedule_broadcast(&mut self, ctx: &mut Context<'_, NetEv>, provider: ProviderIdx) {
        if !self.broadcast_pending[provider] {
            self.broadcast_pending[provider] = true;
            let at = ctx.now() + self.net.broadcast_window;
            self.push_event(ctx, at, NetEv::Broadcast(provider));
        }
    }

    /// Receiver-side resequencing: per-link FIFO restored from sequence
    /// numbers; duplicates (seq already consumed or already held)
    /// discarded.
    #[inline]
    fn on_deliver(&mut self, ctx: &mut Context<'_, NetEv>, link: u32, seq: u32, msg: AuctionMsg) {
        let due = self.links[link as usize].delivered;
        if seq < due || (seq > due && self.find_held(link, seq).is_some()) {
            self.faults.duplicates_discarded += 1;
        } else if seq > due {
            let ls = &mut self.links[link as usize];
            ls.held = self.mail.alloc((link, seq, msg), ls.held);
            self.faults.resequenced += 1;
        } else {
            let mut msg = msg;
            loop {
                self.links[link as usize].delivered += 1;
                self.process(ctx, msg);
                let due = self.links[link as usize].delivered;
                let Some((prev, node)) = self.find_held(link, due) else { break };
                let ((_, _, next_msg), next) = self.mail.take(node);
                match prev {
                    NIL => self.links[link as usize].held = next,
                    prev => self.mail.set_next(prev, next),
                }
                msg = next_msg;
            }
        }
    }

    /// The held node carrying `seq` on `link`, with its predecessor in
    /// the link's chain ([`NIL`] at the head).
    fn find_held(&self, link: u32, seq: u32) -> Option<(u32, u32)> {
        let (mut prev, mut node) = (NIL, self.links[link as usize].held);
        while node != NIL && self.mail.get(node).1 != seq {
            (prev, node) = (node, self.mail.next(node));
        }
        (node != NIL).then_some((prev, node))
    }

    /// Handles one in-order protocol message at its destination actor.
    fn process(&mut self, ctx: &mut Context<'_, NetEv>, msg: AuctionMsg) {
        self.messages += 1;
        self.last_activity = ctx.now();
        self.hash.msg(ctx.now(), &msg);
        match msg {
            AuctionMsg::Bid { request, edge, provider, amount } => {
                if self.departures && self.bidders[request].is_cancelled() {
                    return; // sent before its peer departed
                }
                self.bids_delivered += 1;
                let before = self.auctioneers[provider].price();
                let reply = self.auctioneers[provider].on_bid(request, amount);
                if matches!(reply.reply, AuctionMsg::Accepted { .. }) {
                    self.assigned_edge[request] = Some(edge);
                }
                let down = 2 * (self.row_start[request] + edge as u32) + 1;
                let (pp, bp) = (self.provider_peer[provider], self.bidder_peer[request]);
                self.send(ctx, pp, bp, down, reply.reply);
                if let Some(notice) = reply.evicted {
                    if let AuctionMsg::Evicted { request: loser, .. } = notice {
                        let ledge = self.assigned_edge[loser]
                            .take()
                            .expect("evicted loser held an assignment");
                        let ldown = 2 * (self.row_start[loser] + ledge as u32) + 1;
                        let lb = self.bidder_peer[loser];
                        self.send(ctx, pp, lb, ldown, notice);
                    }
                }
                if let Some(p) = reply.price_changed {
                    self.probe.price_change(provider, before, p, ctx.now());
                    self.schedule_broadcast(ctx, provider);
                }
            }
            AuctionMsg::Accepted { request, .. }
            | AuctionMsg::Rejected { request, .. }
            | AuctionMsg::Evicted { request, .. } => {
                if let Some(bid) = self.bidders[request].on_message(&msg) {
                    self.send_bid(ctx, bid);
                }
            }
            AuctionMsg::PriceUpdate { listener, .. } => {
                if let Some(bid) = self.bidders[listener].on_message(&msg) {
                    self.send_bid(ctx, bid);
                }
            }
        }
    }

    /// Sec. IV-C departure: a departing auctioneer evicts its winners and
    /// announces `+∞` at once, uncoalesced, so nobody targets a dead
    /// provider; a departing bidder's requests are cancelled and any unit
    /// they held is released, re-opening a full provider at price 0
    /// through the usual coalesced broadcast.
    #[cold]
    fn on_departure(&mut self, ctx: &mut Context<'_, NetEv>, peer: PeerId) {
        for u in 0..self.provider_peer.len() {
            if self.provider_peer[u] != peer || self.auctioneers[u].is_offline() {
                continue;
            }
            for notice in self.auctioneers[u].go_offline() {
                if let AuctionMsg::Evicted { request, .. } = notice {
                    let edge =
                        self.assigned_edge[request].take().expect("evicted winner held a unit");
                    let down = 2 * (self.row_start[request] + edge as u32) + 1;
                    let bp = self.bidder_peer[request];
                    self.send(ctx, peer, bp, down, notice);
                }
            }
            for i in 0..self.listeners[u].len() {
                let (r, k) = self.listeners[u][i];
                let down = 2 * (self.row_start[r] + k) + 1;
                let bp = self.bidder_peer[r];
                let farewell =
                    AuctionMsg::PriceUpdate { listener: r, provider: u, price: f64::INFINITY };
                self.send(ctx, peer, bp, down, farewell);
            }
        }
        for r in 0..self.bidder_peer.len() {
            if self.bidder_peer[r] != peer || self.bidders[r].is_cancelled() {
                continue;
            }
            self.bidders[r].cancel();
            if let Some(edge) = self.assigned_edge[r].take() {
                let u = self.bidders[r].views()[edge].provider;
                let before = self.auctioneers[u].price();
                if let Some(price) = self.auctioneers[u].release(r) {
                    self.probe.price_change(u, before, price, ctx.now());
                    self.schedule_broadcast(ctx, u);
                }
            }
        }
    }
}

impl<P: AuctionProbe> World for NetWorld<'_, P> {
    type Event = NetEv;

    // One call site, once per event, in the simulator's run loop.
    #[inline]
    fn handle(&mut self, ctx: &mut Context<'_, NetEv>, ev: NetEv) {
        match ev {
            NetEv::Start(r) => {
                if let Some(bid) = self.bidders[r].poll() {
                    self.send_bid(ctx, bid);
                }
            }
            NetEv::Mail(head) => {
                // The batch stops being appendable the moment it pops:
                // a zero-latency send during processing must open a new
                // wake-up, not write into the one being drained.
                if self.open.is_some_and(|o| o.head == head) {
                    self.open = None;
                }
                // Each node is freed before its message is processed, so
                // the sends it triggers can reuse it.
                let mut node = head;
                while node != NIL {
                    let ((link, seq, msg), next) = self.mail.take(node);
                    self.on_deliver(ctx, link, seq, msg);
                    node = next;
                }
            }
            NetEv::Broadcast(u) => {
                self.broadcast_pending[u] = false;
                if self.auctioneers[u].is_offline() {
                    return; // the departure already announced +∞
                }
                let price = self.auctioneers[u].price();
                let pp = self.provider_peer[u];
                for i in 0..self.listeners[u].len() {
                    let (r, k) = self.listeners[u][i];
                    let down = 2 * (self.row_start[r] + k) + 1;
                    let bp = self.bidder_peer[r];
                    self.send(
                        ctx,
                        pp,
                        bp,
                        down,
                        AuctionMsg::PriceUpdate { listener: r, provider: u, price },
                    );
                }
            }
            NetEv::Depart(peer) => self.on_departure(ctx, peer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AuctionConfig, SyncAuction};
    use crate::verify::verify_optimality;
    use p2p_metrics::PriceRecorder;
    use p2p_types::{ChunkId, Cost, RequestId, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    /// Deterministic pseudo-random instance (no external RNG: a small
    /// multiplicative generator keeps the test self-contained).
    fn random_instance(seed: u64, providers: usize, requests: usize) -> WelfareInstance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = WelfareInstance::builder();
        let mut us = Vec::new();
        for u in 0..providers {
            let cap = 1 + (next() % 4) as u32;
            us.push(b.add_provider(PeerId::new(1000 + u as u32), cap));
        }
        for r in 0..requests {
            let req = b.add_request(rid(r as u32, 0));
            let degree = 1 + (next() % 4) as usize;
            let mut seen = Vec::new();
            for _ in 0..degree {
                let u = (next() % providers as u64) as usize;
                if seen.contains(&u) {
                    continue;
                }
                seen.push(u);
                let v = 1.0 + (next() % 700) as f64 / 100.0;
                let w = (next() % 500) as f64 / 100.0;
                b.add_edge(req, us[u], Valuation::new(v), Cost::new(w)).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn assert_bit_identical(sync: &AuctionOutcome, swarm: &SwarmOutcome) {
        assert_eq!(sync.assignment, swarm.assignment, "assignments diverge");
        assert_eq!(sync.duals.lambda, swarm.duals.lambda, "duals diverge");
        assert_eq!(sync.rounds, swarm.rounds, "round counts diverge");
        assert_eq!(sync.bids_submitted, swarm.bids_submitted, "bid counts diverge");
    }

    #[test]
    fn ideal_mode_is_bit_identical_to_sync_sweep() {
        for seed in 0..8u64 {
            let inst = random_instance(seed, 4, 24);
            let sync = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
            let swarm = SwarmAuction::new(SwarmConfig::paper(), NetworkModel::ideal())
                .run(&inst, seed)
                .unwrap();
            assert_bit_identical(&sync, &swarm);
            assert!(swarm.converged);
            assert_eq!(swarm.faults, FaultStats::default(), "ideal mode injects no faults");
        }
    }

    #[test]
    fn lossy_mode_converges_within_the_epsilon_bound() {
        let inst = random_instance(7, 4, 18);
        let eps = 0.05;
        let out = SwarmAuction::new(SwarmConfig::with_epsilon(eps), NetworkModel::lossy())
            .run(&inst, 99)
            .unwrap();
        assert!(out.converged);
        assert!(out.assignment.validate(&inst).is_ok(), "conservation holds");
        let report = verify_optimality(&inst, &out.assignment, &out.duals, eps + 1e-9);
        assert!(report.is_optimal(), "n·ε certificate lost: {:?}", report.violations);
        assert!(
            out.faults.dropped + out.faults.duplicated + out.faults.reordered > 0,
            "a lossy run of this size must inject faults: {:?}",
            out.faults
        );
    }

    #[test]
    fn same_seed_replays_the_exact_trace() {
        let inst = random_instance(11, 3, 15);
        let engine = SwarmAuction::new(SwarmConfig::with_epsilon(0.02), NetworkModel::lossy());
        let a = engine.run(&inst, 1234).unwrap();
        let b = engine.run(&inst, 1234).unwrap();
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.duals.lambda, b.duals.lambda);
        assert_eq!(a.converged_at, b.converged_at);
    }

    #[test]
    fn distinct_seeds_draw_distinct_fault_schedules() {
        let inst = random_instance(13, 3, 15);
        let engine = SwarmAuction::new(SwarmConfig::with_epsilon(0.02), NetworkModel::lossy());
        let a = engine.run(&inst, 1).unwrap();
        let b = engine.run(&inst, 2).unwrap();
        assert_ne!(a.trace_hash, b.trace_hash, "seeds must steer the fault schedule");
    }

    #[test]
    fn coalesced_and_uncoalesced_lossy_runs_are_byte_identical() {
        let inst = random_instance(29, 4, 18);
        let on = SwarmConfig::with_epsilon(0.03);
        let off = SwarmConfig { coalesce: false, ..on };
        for seed in [1, 7, 99] {
            let a = SwarmAuction::new(on, NetworkModel::lossy()).run(&inst, seed).unwrap();
            let b = SwarmAuction::new(off, NetworkModel::lossy()).run(&inst, seed).unwrap();
            assert_eq!(a.trace_hash, b.trace_hash, "seed {seed}: traces diverge");
            assert_eq!(a.faults, b.faults, "seed {seed}: fault schedules diverge");
            assert_eq!(a.messages, b.messages, "seed {seed}");
            assert_eq!(a.assignment, b.assignment, "seed {seed}");
            assert_eq!(a.duals.lambda, b.duals.lambda, "seed {seed}");
            assert_eq!(a.bids_submitted, b.bids_submitted, "seed {seed}");
            assert_eq!(a.converged_at, b.converged_at, "seed {seed}");
            assert_eq!(b.coalesced_events, 0, "the baseline must not coalesce");
            assert!(a.events <= b.events, "coalescing can only shrink the event count");
        }
    }

    #[test]
    fn flash_crowd_fan_in_coalesces_into_batched_wakeups() {
        // One popular provider behind synchronized (zero-jitter) links:
        // every opening bid lands on the provider's peer at the same
        // virtual instant, the flash-crowd worst case for the queue.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(900), 2);
        for d in 0..12u32 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, u, Valuation::new(2.0 + f64::from(d) * 0.1), Cost::new(0.5)).unwrap();
        }
        let inst = b.build().unwrap();
        let net =
            NetworkModel { base_latency: SimDuration::from_millis(1), ..NetworkModel::ideal() };
        assert!(!net.is_ideal(), "positive latency must select reactive mode");
        let cfg = SwarmConfig::with_epsilon(0.01);
        let on = SwarmAuction::new(cfg, net.clone()).run(&inst, 3).unwrap();
        let off =
            SwarmAuction::new(SwarmConfig { coalesce: false, ..cfg }, net).run(&inst, 3).unwrap();
        assert!(
            on.coalesced_events >= 11,
            "11 of the 12 opening bids must ride the first wake-up, got {}",
            on.coalesced_events
        );
        assert!(on.events < off.events, "coalescing must shrink the event count");
        assert_eq!(on.trace_hash, off.trace_hash);
        assert_eq!(on.assignment, off.assignment);
        assert_eq!(on.duals.lambda, off.duals.lambda);
        assert!(on.peak_queue > 0 && off.peak_queue > 0, "peak queue depth is recorded");
    }

    #[test]
    fn partition_defers_traffic_and_still_converges() {
        let inst = random_instance(17, 4, 16);
        let net = NetworkModel::lan()
            .with_partition(SimTime::from_micros(500), SimTime::from_micros(50_000));
        let eps = 0.05;
        let out = SwarmAuction::new(SwarmConfig::with_epsilon(eps), net).run(&inst, 5).unwrap();
        assert!(out.converged);
        assert!(out.faults.deferred > 0, "cross-group traffic must hit the partition");
        assert!(out.assignment.validate(&inst).is_ok());
        let report = verify_optimality(&inst, &out.assignment, &out.duals, eps + 1e-9);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn presets_parse_by_name() {
        assert!(NetworkModel::preset("ideal").unwrap().is_ideal());
        assert!(!NetworkModel::preset("lan").unwrap().is_ideal());
        assert!(NetworkModel::preset("lossy").unwrap().drop_prob > 0.0);
        assert!(NetworkModel::preset("wan").is_none());
    }

    #[test]
    fn empty_instance_finishes_in_one_quiet_round() {
        let inst = WelfareInstance::builder().build().unwrap();
        let out =
            SwarmAuction::new(SwarmConfig::paper(), NetworkModel::ideal()).run(&inst, 0).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bids_submitted, 0);
        assert_eq!(out.assignment.assigned_count(), 0);
    }

    #[test]
    fn divergence_guard_fires_with_tiny_round_budget() {
        let inst = random_instance(19, 3, 10);
        let cfg = SwarmConfig { max_rounds: 0, ..SwarmConfig::paper() };
        let err = SwarmAuction::new(cfg, NetworkModel::ideal()).run(&inst, 0).unwrap_err();
        assert!(matches!(err, P2pError::AuctionDiverged { .. }));
    }

    #[test]
    fn reactive_event_cap_reports_divergence() {
        let inst = random_instance(23, 3, 10);
        let cfg = SwarmConfig { max_events: 2, ..SwarmConfig::with_epsilon(0.05) };
        let err = SwarmAuction::new(cfg, NetworkModel::lan()).run(&inst, 0).unwrap_err();
        assert!(matches!(err, P2pError::AuctionDiverged { .. }));
    }

    /// Every link takes `ms` milliseconds one way, whatever its cost.
    fn uniform_latency(ms: f64) -> NetworkModel {
        NetworkModel::cost_derived(CostLatency { base_ms: ms, ms_per_cost: 0.0 })
    }

    /// The paper's ε = 0 rule over cost-derived links, seed 0.
    fn paper_run(inst: &WelfareInstance, net: NetworkModel) -> SwarmOutcome {
        SwarmAuction::new(SwarmConfig::paper(), net).run(inst, 0).unwrap()
    }

    /// [`paper_run`] with `peer` leaving at `at_us` microseconds.
    fn departing(inst: &WelfareInstance, net: NetworkModel, at_us: u64, peer: u32) -> SwarmOutcome {
        let departures =
            [DepartureEvent { at: SimTime::from_micros(at_us), peer: PeerId::new(peer) }];
        SwarmAuction::new(SwarmConfig::paper(), net)
            .run_with_departures(inst, &departures, 0, &mut NoProbe)
            .unwrap()
    }

    /// A 3-request / 2-provider instance with distinct utilities.
    fn contested() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 1);
        let u1 = b.add_provider(PeerId::new(101), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        let r2 = b.add_request(rid(2, 0));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(0.5)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(2.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(5.0), Cost::new(0.7)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.0), Cost::new(2.5)).unwrap();
        b.add_edge(r2, u0, Valuation::new(3.0), Cost::new(0.9)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cost_latency_rounds_like_the_topology_model() {
        // `LatencyModel::one_way` rounds (base + k·w) / 1e3 seconds once;
        // summing two separately rounded parts would drift by a microsecond.
        let lat = CostLatency { base_ms: 5.0, ms_per_cost: 100.0 };
        assert_eq!(lat.one_way(5.0).as_micros(), 505_000);
        assert_eq!(lat.one_way(0.123_456_7).as_micros(), 17_346);
        assert_eq!(lat.one_way(-1.0), SimDuration::ZERO, "negative delays clamp to zero");
        assert!(!NetworkModel::cost_derived(lat).is_ideal(), "link delays select reactive mode");
    }

    #[test]
    fn matches_synchronous_welfare() {
        let inst = contested();
        let sync = SyncAuction::default().run(&inst).unwrap();
        let swarm = paper_run(&inst, uniform_latency(20.0));
        assert_eq!(swarm.assignment.welfare(&inst).get(), sync.assignment.welfare(&inst).get());
        assert_eq!(swarm.assignment.welfare(&inst), inst.optimal_welfare());
        assert!(swarm.assignment.validate(&inst).is_ok());
        assert!(swarm.duals.validate(&inst, 1e-9).is_ok());
    }

    #[test]
    fn message_cap_raises_divergence() {
        let inst = contested();
        let cfg = SwarmConfig { max_events: 2, ..SwarmConfig::paper() };
        let err = SwarmAuction::new(cfg, uniform_latency(10.0)).run(&inst, 0).unwrap_err();
        assert!(matches!(err, P2pError::AuctionDiverged { .. }));
    }

    #[test]
    fn latency_shifts_convergence_time() {
        let inst = contested();
        let fast = paper_run(&inst, uniform_latency(10.0));
        let slow = paper_run(&inst, uniform_latency(200.0));
        assert!(slow.converged_at > fast.converged_at);
    }

    #[test]
    fn price_trace_is_monotone_per_provider() {
        let inst = contested();
        let mut trace = PriceRecorder::new();
        SwarmAuction::new(SwarmConfig::paper(), uniform_latency(30.0))
            .run_probed(&inst, 0, &mut trace)
            .unwrap();
        assert!(!trace.points.is_empty());
        let mut last = vec![0.0; inst.provider_count()];
        for p in &trace.points {
            assert!(p.price >= last[p.provider]);
            last[p.provider] = p.price;
        }
        // Stamped with virtual time, in time order.
        assert!(trace.points[0].at > SimTime::ZERO, "a bid needs one link delay to land");
        for w in trace.points.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn heterogeneous_latencies_still_converge_to_optimum() {
        // Cost-derived delays differ per link, and a seeded per-link spread
        // on top makes stale prices and message races certain.
        let inst = contested();
        let net = NetworkModel {
            link_spread: SimDuration::from_millis(120),
            ..NetworkModel::cost_derived(CostLatency { base_ms: 7.0, ms_per_cost: 40.0 })
        };
        for seed in 0..8 {
            let out =
                SwarmAuction::new(SwarmConfig::paper(), net.clone()).run(&inst, seed).unwrap();
            assert_eq!(out.assignment.welfare(&inst), inst.optimal_welfare(), "seed {seed}");
        }
    }

    #[test]
    fn auctioneer_departure_converges_to_reduced_optimum() {
        // u0 is everyone's best source; it departs mid-auction, so the
        // final schedule must be the optimum of the instance without u0
        // (Sec. IV-C's claim).
        let inst = contested();
        let out = departing(&inst, uniform_latency(20.0), 35_000, 100);
        // Nobody may end up assigned to the departed provider.
        for r in 0..inst.request_count() {
            assert_ne!(out.assignment.provider_of(&inst, r), Some(0), "request {r}");
        }
        // Reduced instance: same requests, only u1 available.
        let mut b = WelfareInstance::builder();
        let u1 = b.add_provider(PeerId::new(101), 1);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(2.0)).unwrap();
        b.add_edge(r1, u1, Valuation::new(5.0), Cost::new(2.5)).unwrap();
        let reduced = b.build().unwrap();
        assert!(
            (out.assignment.welfare(&inst).get() - reduced.optimal_welfare().get()).abs() < 1e-9,
            "welfare {} vs reduced optimum {}",
            out.assignment.welfare(&inst).get(),
            reduced.optimal_welfare()
        );
    }

    #[test]
    fn bidder_departure_releases_units_to_rivals() {
        // A (value 8) wins the single unit, pricing B (value 5) out; when
        // A departs, the release resets the price to 0 and the broadcast
        // must wake B (which had abstained as unprofitable) to claim it.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(100), 1);
        let a = b.add_request(rid(0, 0));
        let rival = b.add_request(rid(1, 0));
        b.add_edge(a, u, Valuation::new(8.0), Cost::new(0.5)).unwrap();
        b.add_edge(rival, u, Valuation::new(5.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();

        // Sanity: without the departure, A wins and B stays out.
        let before = paper_run(&inst, uniform_latency(20.0));
        assert_eq!(before.assignment.provider_of(&inst, a), Some(u));
        assert_eq!(before.assignment.choice(rival), None);

        let out = departing(&inst, uniform_latency(20.0), 400_000, 0);
        assert_eq!(out.assignment.choice(a), None, "departed peer's request is cancelled");
        assert_eq!(
            out.assignment.provider_of(&inst, rival),
            Some(u),
            "the released unit must be re-sold to the rival"
        );
    }

    #[test]
    fn bidder_departure_keeps_remaining_schedule_feasible() {
        // On the general contested instance, a mid-auction bidder departure
        // must leave a feasible schedule with the departed requests
        // cancelled (assigned survivors keep their units per the protocol —
        // they only move when evicted).
        let inst = contested();
        let out = departing(&inst, uniform_latency(20.0), 400_000, 0);
        assert_eq!(out.assignment.choice(0), None);
        assert!(out.assignment.validate(&inst).is_ok());
        assert!(out.assignment.choice(1).is_some(), "survivors keep profitable units");
    }

    #[test]
    fn departure_of_unknown_peer_is_harmless() {
        let inst = contested();
        let out = departing(&inst, uniform_latency(20.0), 10_000, 9999);
        assert_eq!(out.assignment.welfare(&inst), inst.optimal_welfare());
    }

    /// Four requests over a unit-capacity and a two-unit provider, with
    /// values and costs on a 0.1 grid — ties created mid-run are reachable.
    fn tie_prone() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 1);
        let u1 = b.add_provider(PeerId::new(101), 2);
        for d in 0..4u32 {
            let r = b.add_request(rid(d, 0));
            let (v, k) = (6.0 - f64::from(d), f64::from(d));
            b.add_edge(r, u0, Valuation::new(v), Cost::new(0.5 + 0.1 * k)).unwrap();
            b.add_edge(r, u1, Valuation::new(v), Cost::new(2.0 + 0.2 * k)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn epsilon_zero_lossy_race_quiesces_short_of_the_optimum() {
        // The ε = 0 caveat: under racy delivery a bid can lift a price to
        // exactly another request's indifference point, and the paper's
        // wait rule then parks that request for good. Seed 6 is one of 26
        // such runs among seeds 0–199 under the lossy model; ε = 0.01 keeps
        // every one of those seeds within n·ε.
        let inst = tie_prone();
        let exact = inst.optimal_welfare().get();
        let frozen =
            SwarmAuction::new(SwarmConfig::paper(), NetworkModel::lossy()).run(&inst, 6).unwrap();
        assert!(frozen.converged, "the run quiesces instead of hanging");
        assert!(frozen.assignment.validate(&inst).is_ok(), "the schedule stays feasible");
        assert!(frozen.duals.lambda.iter().all(|l| *l >= 0.0));
        let got = frozen.assignment.welfare(&inst).get();
        assert!(got < exact - 1.0, "seed 6 must freeze short of the optimum: {got} vs {exact}");

        let eps = 0.01;
        let robust = SwarmAuction::new(SwarmConfig::with_epsilon(eps), NetworkModel::lossy())
            .run(&inst, 6)
            .unwrap();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        assert!(robust.assignment.welfare(&inst).get() >= exact - bound);
        let report = verify_optimality(&inst, &robust.assignment, &robust.duals, eps + 1e-9);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn empty_instance_converges_with_no_messages() {
        let inst = WelfareInstance::builder().build().unwrap();
        let out = paper_run(&inst, uniform_latency(10.0));
        assert!(out.converged);
        assert_eq!(out.messages, 0);
    }
}
