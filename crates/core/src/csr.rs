//! The flat auction engine: the zero-allocation hot path over the
//! instance's CSR rows.
//!
//! A [`WelfareInstance`] stores its edges once, in flat row-major arrays
//! ([`CsrData`]: dense `edge_provider` / `edge_utility` arrays with CSR row
//! bounds per request, plus a dense provider-capacity array), so the
//! auction inner loop reads one contiguous row per request with `v − w`
//! precomputed. This module runs the *same* auction over those arrays with
//! reusable scratch:
//!
//! * [`CsrInstance`] — a handle on the instance's arrays.
//!   [`CsrInstance::compile`] copies nothing: it bumps the `Arc` the arrays
//!   live behind, and sharded worker threads share that same `Arc`.
//! * [`AuctionScratch`] + [`FlatOutcome`] — every buffer the engine needs
//!   (auctioneer arena, prices, assignment, worklists, bid batches),
//!   allocated once and reused across rounds *and* slots: after the first
//!   (warm-up) slot, [`FlatAuction::run_into`] performs **zero heap
//!   allocations** on same-shaped slots (asserted by a counting-allocator
//!   test). The arena gives each provider `u` one segment of
//!   `min(B(u), in-degree(u))` slots holding its admitted bids as a binary
//!   min-heap, so an eviction or a price update costs `O(log B(u))`.
//! * [`FlatAuction`] — one engine covering both schedules: an effective
//!   shard count of 1 runs the sequential Gauss–Seidel sweep of
//!   [`SyncAuction`](crate::SyncAuction), ≥ 2 runs the block-Gauss–Seidel
//!   batched schedule of [`ShardedAuction`](crate::ShardedAuction), over
//!   CSR rows. Shard slices are contiguous ranges of the round's worklist —
//!   no per-shard copying of instance data.
//!
//! # Bit-equality with the nested engines
//!
//! The flat engines are not "approximately" the nested engines
//! ([`SyncAuction`](crate::SyncAuction) and
//! [`ShardedAuction`](crate::ShardedAuction), named for the per-provider
//! auctioneer objects and per-request scans they run over the same rows) —
//! they are the same auction with different scratch. Bid decisions run the
//! branchless [`kernel`] reduction — bit-identical to the shared
//! [`crate::bidder`] decision core by the order-invariance argument in the
//! [`kernel`] docs — both schedules retire priced-out requests as the
//! nested engines do, merges apply the same total order, and the
//! auctioneer arena keeps the nested auctioneer's heap order (evict the
//! minimum `(bid, admission-seq)` entry; price = the smallest admitted bid
//! when full), so outcomes — prices, assignments,
//! rounds, bids, welfare, the Theorem 1 `n·ε` certificate — are
//! **bit-identical** to [`SyncAuction`](crate::SyncAuction) (shards = 1)
//! and [`ShardedAuction`](crate::ShardedAuction) (shards ≥ 2), at any
//! shard count. The property suite
//! (`crates/core/tests/proptest_csr.rs`) enforces this.
//!
//! # Worker threads
//!
//! With shards ≥ 2, a slice's bid scan can split across `workers` scanners:
//! `min(shards, cores)` of them, or the [`FlatAuction::with_workers`]
//! count. The calling thread is the first scanner and scans the slice's
//! first chunk itself; the other `workers − 1` are helper threads the
//! engine owns. A slice fans out only when each scanner gets at least
//! `FAN_OUT_ROWS` (2,048) rows, about twice the rows an inline scan gets
//! through in the time of one handoff to a helper and back, so retry
//! passes and small slots run on the calling thread and pay no handoff. The engine spawns its helpers at its first fan-out and
//! parks them on a channel between slices, so repeated slot auctions on
//! one engine spawn zero new threads; dropping the engine joins them. A
//! run that never fans out spawns none. Helpers read the slice's prices
//! from one snapshot buffer the engine rewrites in place. Thread count
//! never affects results: slices are pure functions of their price
//! snapshot, and the chunks' bids are reassembled in chunk order.
//!
//! # Examples
//!
//! ```
//! use p2p_core::csr::{CsrInstance, FlatAuction};
//! use p2p_core::{AuctionConfig, ShardCount, SyncAuction, WelfareInstance};
//! use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
//!
//! let mut b = WelfareInstance::builder();
//! let u = b.add_provider(PeerId::new(9), 1);
//! for d in 0..3 {
//!     let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), 0)));
//!     b.add_edge(r, u, Valuation::new(5.0 - f64::from(d)), Cost::new(1.0)).unwrap();
//! }
//! let inst = b.build().unwrap();
//! let csr = CsrInstance::compile(&inst);
//!
//! let mut flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1));
//! let out = flat.run(&csr).unwrap();
//! let sync = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
//! assert_eq!(out.assignment, sync.assignment);
//! assert_eq!(out.duals, sync.duals);
//! ```

use crate::bidder::{AbstainReason, BidDecision};
use crate::engine::{standalone_prices, AuctionConfig, AuctionOutcome};
use crate::instance::{CsrData, WelfareInstance};
use crate::shard::ShardCount;
use crate::solution::{eta_into, Assignment, DualSolution};
use p2p_metrics::{AuctionProbe, NoProbe};
use p2p_types::{P2pError, SimTime};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod kernel;

/// Sentinel for "request unassigned" in the flat choice vector.
const NONE: u32 = u32::MAX;

/// Rows each scanner must get before a slice fans out to helper threads.
/// On a shared 2-vCPU host one handoff to a helper and back took ~14 µs,
/// the time an inline scan takes for ~900 rows (~15.5 ns a row), so a
/// two-way split pays from ~900 rows a scanner on a perfectly parallel
/// host; this is about twice that. Retry passes and small slots stay on
/// the calling thread, and the first-round slices of 10⁵-request slots
/// still fan out.
const FAN_OUT_ROWS: usize = 2_048;

/// A handle on an instance's flat arrays (see the [module docs](self)).
///
/// Cloning is an `Arc` bump — worker threads share one set of arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrInstance {
    data: Arc<CsrData>,
}

impl CsrInstance {
    /// A handle on `instance`'s arrays. Nothing is copied or allocated:
    /// the engine reads the rows the instance's builder wrote, whose
    /// `v − w` was computed by the same single subtraction as
    /// [`crate::EdgeSpec::utility`].
    ///
    /// Every utility is finite, as the bid kernel requires:
    /// [`crate::InstanceBuilder::add_edge`] rejects a non-finite `v − w`,
    /// and a [`WelfareInstance`] can only come from that builder.
    pub fn compile(instance: &WelfareInstance) -> Self {
        CsrInstance { data: Arc::clone(&instance.data) }
    }

    /// The flat arrays.
    pub fn data(&self) -> &CsrData {
        &self.data
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.data.provider_count()
    }

    /// Number of requests.
    pub fn request_count(&self) -> usize {
        self.data.request_count()
    }

    /// Number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.data.edge_count()
    }
}

/// One bid computed against a round's price snapshot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatBid {
    pub(crate) amount: f64,
    pub(crate) request: u32,
    /// Local edge index within the request's row.
    pub(crate) edge: u32,
    pub(crate) provider: u32,
}

/// One helper chunk's scan order (and, on the way back, its results):
/// owned data only, so it can cross to a leased helper thread. Buffers are
/// recycled through [`Lease::free`].
struct SliceCmd {
    idx: usize,
    chunk: Vec<u32>,
    csr: Arc<CsrData>,
    prices: Arc<Vec<f64>>,
    epsilon: f64,
    bids: Vec<FlatBid>,
    retired: Vec<u32>,
}

impl SliceCmd {
    fn scan(&mut self) {
        self.bids.clear();
        self.retired.clear();
        kernel::scan_slice(
            &self.csr,
            &self.chunk,
            &self.prices,
            self.epsilon,
            &mut self.bids,
            &mut self.retired,
        );
    }
}

/// Recyclable buffer set for one [`SliceCmd`].
type SliceBufs = (Vec<u32>, Vec<FlatBid>, Vec<u32>);

/// The engine's helper threads: `workers − 1` of them (the calling thread
/// is the first scanner), one command channel per helper, one shared
/// result channel back. Dropping the lease closes the command channels and
/// joins the threads.
struct Lease {
    /// Scanners per fanned-out slice, the calling thread included.
    workers: usize,
    cmd_txs: Vec<mpsc::Sender<SliceCmd>>,
    res_rx: mpsc::Receiver<SliceCmd>,
    /// Joined on drop, after closing the command channels, so the lease's
    /// end synchronously releases every helper thread.
    threads: Vec<JoinHandle<()>>,
    /// The price snapshot the helpers read, rewritten in place for each
    /// fan-out: every helper's clone comes back with its result, so the
    /// buffer is unshared again before the next slice.
    prices: Arc<Vec<f64>>,
    /// Recycled command buffers.
    free: Vec<SliceBufs>,
    /// Reassembly slots, one per helper chunk (reused across slices).
    pending: Vec<Option<SliceCmd>>,
}

impl Lease {
    fn spawn(workers: usize) -> Self {
        let (res_tx, res_rx) = mpsc::channel::<SliceCmd>();
        let helpers = workers - 1;
        let mut cmd_txs = Vec::with_capacity(helpers);
        let mut threads = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (tx, rx) = mpsc::channel::<SliceCmd>();
            cmd_txs.push(tx);
            let res_tx = res_tx.clone();
            threads.push(std::thread::spawn(move || {
                while let Ok(mut cmd) = rx.recv() {
                    cmd.scan();
                    if res_tx.send(cmd).is_err() {
                        break;
                    }
                }
            }));
        }
        Lease {
            workers,
            cmd_txs,
            res_rx,
            threads,
            prices: Arc::default(),
            free: Vec::new(),
            pending: Vec::new(),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Close the command channels (ends every helper loop), then wait
        // for each helper thread to exit. `Drop` must not panic, so a
        // helper's panic payload is dropped here; `exec_threaded` already
        // computed inline any chunk a dead helper could not take.
        self.cmd_txs.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The reusable engine state: every buffer the hot loop touches, allocated
/// once and recycled across rounds and slots. Owned by [`FlatAuction`];
/// grows to the largest slot seen and never shrinks.
#[derive(Debug, Default)]
pub struct AuctionScratch {
    // ---- auctioneer arena: per-provider heap segments ----
    /// Per provider: start of its heap segment in `entries`
    /// (`provider_count + 1` entries). Provider `u`'s segment has
    /// `min(B(u), in-degree(u))` slots: a request holds at most one unit
    /// of `u`, so `u` never admits more requests than it has edges. Its
    /// first `filled[u]` slots are a binary min-heap on `(bid, seq)`; the
    /// slots past `filled[u]` are never read, so `entries` only grows and
    /// is never cleared between runs.
    segment_offsets: Vec<u32>,
    entries: Vec<Entry>,
    /// Per provider: admitted count (also the provider load after a run).
    filled: Vec<u32>,
    /// Per provider: the auctioneer price λ.
    price: Vec<f64>,
    /// Per provider: the bidder-visible price (+∞ for zero capacity).
    eff_price: Vec<f64>,
    /// Admission sequence (FIFO tie-break on equal bids, as the nested
    /// auctioneer's heap does).
    seq: u64,
    // ---- request state ----
    /// Per request: chosen local edge index, or [`NONE`].
    assigned: Vec<u32>,
    retired: Vec<bool>,
    worklist: Vec<u32>,
    spill: Vec<u32>,
    retry: Vec<u32>,
    bids: Vec<FlatBid>,
    slice_retired: Vec<u32>,
    /// Slice-generation marks for the merge collision check.
    collision_mark: Vec<u64>,
}

impl AuctionScratch {
    /// Resets the arena and request state for a run over `csr`, every
    /// price at 0 as the nested engines start (zero-capacity providers
    /// with an infinite effective price).
    fn reset(&mut self, csr: &CsrData) {
        let providers = csr.provider_count();
        let requests = csr.request_count();
        // Count in-degrees into `segment_offsets[u + 1]`; the loop below
        // turns them into prefix sums of the segment sizes, so the arena
        // never exceeds the edge count (which fits the `u32` row offsets).
        self.segment_offsets.clear();
        self.segment_offsets.resize(providers + 1, 0);
        for &u in &csr.edge_provider {
            self.segment_offsets[u as usize + 1] += 1;
        }
        self.price.clear();
        self.eff_price.clear();
        for (u, &cap) in csr.capacity.iter().enumerate() {
            let in_degree = self.segment_offsets[u + 1];
            self.segment_offsets[u + 1] = self.segment_offsets[u] + cap.min(in_degree);
            self.price.push(0.0);
            self.eff_price.push(if cap == 0 { f64::INFINITY } else { 0.0 });
        }
        let slots = self.segment_offsets[providers] as usize;
        if self.entries.len() < slots {
            self.entries.resize(slots, Entry::default());
        }
        self.filled.clear();
        self.filled.resize(providers, 0);
        self.collision_mark.clear();
        self.collision_mark.resize(providers, 0);
        self.seq = 0;
        self.assigned.clear();
        self.assigned.resize(requests, NONE);
        self.retired.clear();
        self.retired.resize(requests, false);
    }
}

/// Outcome of the arena's bid handling (mirrors
/// [`crate::auctioneer::BidOutcome`]).
enum ArenaOutcome {
    Rejected,
    Accepted { evicted: Option<u32>, new_price: Option<f64> },
}

/// One admitted bid in a provider's heap segment. The three fields share
/// one slot, so a sift step reads and moves one entry.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    bid: f64,
    /// Admission sequence number: the FIFO tie-break on equal bids.
    seq: u64,
    req: u32,
}

impl Entry {
    /// Whether `self` orders before `other` on `(bid, seq)`.
    fn precedes(&self, other: &Entry) -> bool {
        self.bid < other.bid || (self.bid == other.bid && self.seq < other.seq)
    }
}

/// One provider's admitted set: a binary min-heap on `(bid, seq)` laid out
/// in place over its arena segment, the order of the nested auctioneer's
/// `BinaryHeap`. `seq` values are unique, so the order is total and the
/// root is the one entry the nested auctioneer would evict.
struct SegmentHeap<'a>(&'a mut [Entry]);

impl SegmentHeap<'_> {
    /// Places `entry` at the hole `i` (the heap's new last slot), moving
    /// each ancestor that orders after it down one level.
    fn sift_up(&mut self, mut i: usize, entry: Entry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.0[parent].precedes(&entry) {
                break;
            }
            self.0[i] = self.0[parent];
            i = parent;
        }
        self.0[i] = entry;
    }

    /// Replaces the root of a full segment with `entry`, moving the
    /// smaller child up one level until `entry` orders before both.
    fn replace_root(&mut self, entry: Entry) {
        let len = self.0.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child =
                if right < len && self.0[right].precedes(&self.0[left]) { right } else { left };
            if !self.0[child].precedes(&entry) {
                break;
            }
            self.0[i] = self.0[child];
            i = child;
        }
        self.0[i] = entry;
    }
}

impl AuctionScratch {
    /// The auctioneer state machine over the flat arena — semantically
    /// identical to [`crate::auctioneer::Auctioneer::handle_bid`]: reject
    /// at or below the price, evict the minimum `(bid, admission-seq)`
    /// entry (the heap root) when full, announce the new price (the root's
    /// bid) when the set is full and the minimum changed. The price moves
    /// per accepted bid, because later bids of one merge batch are admitted
    /// or rejected against it.
    fn admit(
        &mut self,
        capacity: &[u32],
        provider: usize,
        request: u32,
        amount: f64,
    ) -> ArenaOutcome {
        debug_assert!(amount.is_finite(), "bid must be finite");
        let cap = capacity[provider];
        if cap == 0 || amount <= self.price[provider] {
            return ArenaOutcome::Rejected;
        }
        let segment =
            self.segment_offsets[provider] as usize..self.segment_offsets[provider + 1] as usize;
        let mut heap = SegmentHeap(&mut self.entries[segment]);
        let entry = Entry { bid: amount, seq: self.seq, req: request };
        let mut evicted = None;
        if self.filled[provider] == cap {
            // A full segment holds exactly `cap` entries: its size is at
            // most `cap`, and `filled` never passes it.
            evicted = Some(heap.0[0].req);
            heap.replace_root(entry);
        } else {
            let len = self.filled[provider] as usize;
            debug_assert!(len < heap.0.len(), "admission past provider {provider}'s segment");
            heap.sift_up(len, entry);
            self.filled[provider] += 1;
        }
        self.seq += 1;
        let mut new_price = None;
        if self.filled[provider] == cap && heap.0[0].bid != self.price[provider] {
            self.price[provider] = heap.0[0].bid;
            new_price = Some(heap.0[0].bid);
        }
        ArenaOutcome::Accepted { evicted, new_price }
    }
}

/// A reusable engine result: the flat counterpart of
/// [`AuctionOutcome`], with buffers that survive across slots so
/// [`FlatAuction::run_into`] allocates nothing in steady state. Convert
/// with [`FlatOutcome::to_outcome`] when the owned types are needed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatOutcome {
    /// Per request: chosen local edge index, or `u32::MAX` for unassigned.
    choice: Vec<u32>,
    /// Final prices λ (zero-capacity providers report their standalone
    /// feasible price, as the nested engines do).
    lambda: Vec<f64>,
    /// Final request utilities η (derived from λ as
    /// [`DualSolution::from_prices`] derives them).
    eta: Vec<f64>,
    /// The assignment's social welfare `Σ (v − w)`.
    welfare: f64,
    /// Rounds executed.
    rounds: u64,
    /// Total bids submitted.
    bids_submitted: u64,
}

impl FlatOutcome {
    /// Per request: the chosen edge (local index within the request's row),
    /// or `None`.
    pub fn choice(&self, request: usize) -> Option<usize> {
        match self.choice[request] {
            NONE => None,
            e => Some(e as usize),
        }
    }

    /// Number of served requests.
    pub fn assigned_count(&self) -> usize {
        self.choice.iter().filter(|&&c| c != NONE).count()
    }

    /// The final prices λ.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The final request utilities η.
    pub fn eta(&self) -> &[f64] {
        &self.eta
    }

    /// The assignment's social welfare.
    pub fn welfare(&self) -> f64 {
        self.welfare
    }

    /// Rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total bids submitted.
    pub fn bids_submitted(&self) -> u64 {
        self.bids_submitted
    }

    /// Builds the owned [`Assignment`] — the one allocation a slot
    /// schedule cannot avoid (the schedule owns its choices).
    pub fn to_assignment(&self) -> Assignment {
        let choices =
            self.choice.iter().map(|&c| if c == NONE { None } else { Some(c as usize) }).collect();
        Assignment::new(choices)
    }

    /// Converts to the owned [`AuctionOutcome`] (allocates; bit-identical
    /// to what the nested engines return for the same run).
    pub fn to_outcome(&self) -> AuctionOutcome {
        AuctionOutcome {
            assignment: self.to_assignment(),
            duals: DualSolution { lambda: self.lambda.clone(), eta: self.eta.clone() },
            rounds: self.rounds,
            bids_submitted: self.bids_submitted,
            converged: true,
        }
    }
}

/// The flat CSR auction engine (see the [module docs](self)).
pub struct FlatAuction {
    config: AuctionConfig,
    shards: ShardCount,
    /// Test/bench override for the scanner count, the calling thread
    /// included (normally `min(shards, cores)`).
    workers: Option<usize>,
    scratch: AuctionScratch,
    lease: Option<Lease>,
}

impl std::fmt::Debug for FlatAuction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatAuction")
            .field("config", &self.config)
            .field("shards", &self.shards)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Clone for FlatAuction {
    /// Clones the configuration; scratch and worker leases are per-engine
    /// and start fresh.
    fn clone(&self) -> Self {
        FlatAuction {
            config: self.config,
            shards: self.shards,
            workers: self.workers,
            scratch: AuctionScratch::default(),
            lease: None,
        }
    }
}

impl Default for FlatAuction {
    fn default() -> Self {
        Self::new(AuctionConfig::default(), ShardCount::default())
    }
}

impl FlatAuction {
    /// Creates an engine with the given configuration and shard count.
    pub fn new(config: AuctionConfig, shards: ShardCount) -> Self {
        FlatAuction {
            config,
            shards,
            workers: None,
            scratch: AuctionScratch::default(),
            lease: None,
        }
    }

    /// The engine's auction configuration.
    pub fn config(&self) -> &AuctionConfig {
        &self.config
    }

    /// The engine's shard count.
    pub fn shards(&self) -> ShardCount {
        self.shards
    }

    /// The effective shard count this engine would use for a slot with
    /// `requests` active requests — the single
    /// [`ShardCount::resolve_for`] resolution every engine shares, exposed
    /// so tests can pin nested/flat agreement.
    pub fn effective_shards(&self, requests: usize) -> usize {
        self.shards.resolve_for(requests)
    }

    /// Forces the number of scanners per fanned-out slice regardless of
    /// the machine's core count (builder-style): `workers` counts the
    /// calling thread, so the engine leases `workers − 1` helper threads
    /// and `with_workers(1)` never spawns one. The count is capped at the
    /// shard count. Results are unaffected.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self.lease = None;
        self
    }

    /// Runs the auction to convergence, returning an owned outcome.
    ///
    /// An effective shard count of 1 runs the sequential Gauss–Seidel
    /// sweep (bit-identical to [`crate::SyncAuction::run`]); ≥ 2 runs the
    /// batched sharded schedule (bit-identical to
    /// [`crate::ShardedAuction::run`] at the same count).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if quiescence is not reached
    /// within `max_rounds`.
    pub fn run(&mut self, csr: &CsrInstance) -> Result<AuctionOutcome, P2pError> {
        let mut out = FlatOutcome::default();
        self.run_into(csr, &mut out)?;
        Ok(out.to_outcome())
    }

    /// [`FlatAuction::run`] into a caller-owned reusable [`FlatOutcome`] —
    /// the zero-allocation hot path: after a warm-up run, repeated calls on
    /// same-shaped slots perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if quiescence is not reached
    /// within `max_rounds`.
    pub fn run_into(&mut self, csr: &CsrInstance, out: &mut FlatOutcome) -> Result<(), P2pError> {
        self.run_into_probed(csr, out, &mut NoProbe)
    }

    /// [`FlatAuction::run_into`] with an observation probe. The engine is
    /// generic over the probe, so the [`NoProbe`] path (what `run_into`
    /// uses) monomorphizes to the uninstrumented, zero-allocation loop —
    /// outcomes are bit-identical either way (property-tested).
    pub fn run_into_probed(
        &mut self,
        csr: &CsrInstance,
        out: &mut FlatOutcome,
        probe: &mut impl AuctionProbe,
    ) -> Result<(), P2pError> {
        let shards = self.shards.resolve_for(csr.request_count());
        if shards <= 1 {
            self.run_sweep(csr, out, probe)
        } else {
            self.run_sharded(csr, shards.max(2), out, probe)
        }
    }

    /// The sequential Gauss–Seidel sweep over CSR rows — the schedule of
    /// [`crate::SyncAuction`], bid for bid.
    fn run_sweep<P: AuctionProbe>(
        &mut self,
        csr: &CsrInstance,
        out: &mut FlatOutcome,
        probe: &mut P,
    ) -> Result<(), P2pError> {
        let epsilon = self.config.epsilon;
        let data = csr.data();
        let s = &mut self.scratch;
        s.reset(data);
        let requests = data.request_count();
        let mut rounds = 0u64;
        let mut bids_submitted = 0u64;
        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(P2pError::AuctionDiverged { iterations: rounds - 1 });
            }
            let mut bids_this_round = 0u64;
            let mut conflicts_this_round = 0u64;
            let mut retired_this_round = 0u64;
            for r in 0..requests {
                if s.assigned[r] != NONE || s.retired[r] {
                    continue;
                }
                let (providers, utilities) = data.row(r);
                match kernel::decide_row(providers, utilities, &s.eff_price, epsilon) {
                    BidDecision::Abstain {
                        reason: AbstainReason::Unprofitable | AbstainReason::NoCandidates,
                    } => {
                        s.retired[r] = true;
                        retired_this_round += 1;
                    }
                    BidDecision::Abstain { reason: AbstainReason::ZeroMargin } => {}
                    BidDecision::Bid { edge, provider, amount } => {
                        bids_this_round += 1;
                        match s.admit(&data.capacity, provider, r as u32, amount) {
                            ArenaOutcome::Rejected => {
                                // Unreachable with up-to-date prices: the
                                // bidder only bids strictly above λ.
                                debug_assert!(false, "synchronous bid rejected");
                            }
                            ArenaOutcome::Accepted { evicted, new_price } => {
                                s.assigned[r] = edge as u32;
                                if let Some(loser) = evicted {
                                    s.assigned[loser as usize] = NONE;
                                    conflicts_this_round += 1;
                                }
                                if let Some(p) = new_price {
                                    probe.price_change(
                                        provider,
                                        s.eff_price[provider],
                                        p,
                                        SimTime::ZERO,
                                    );
                                    s.eff_price[provider] = p;
                                }
                            }
                        }
                    }
                }
            }
            bids_submitted += bids_this_round;
            probe.round(rounds, bids_this_round, conflicts_this_round, 0, retired_this_round);
            if bids_this_round == 0 {
                break;
            }
        }
        finalize(data, s, rounds, bids_submitted, out, probe);
        Ok(())
    }

    /// The batched sharded schedule over CSR rows — the schedule of
    /// [`crate::ShardedAuction`], merge for merge: contiguous worklist
    /// slices bid against price snapshots, merges apply in a total order,
    /// same-round retry passes resolve eviction chains, and priced-out
    /// requests retire permanently.
    fn run_sharded<P: AuctionProbe>(
        &mut self,
        csr: &CsrInstance,
        shards: usize,
        out: &mut FlatOutcome,
        probe: &mut P,
    ) -> Result<(), P2pError> {
        let epsilon = self.config.epsilon;
        let workers = self
            .workers
            .unwrap_or_else(|| shards.min(crate::shard::available_cores()))
            .max(1)
            .min(shards);
        let data = csr.data();
        let s = &mut self.scratch;
        s.reset(data);
        let requests = data.request_count();
        // Loop-local state taken out of the scratch so the merge below can
        // borrow the arena mutably while iterating these (swapped back at
        // the end; `take` allocates nothing).
        let mut worklist = std::mem::take(&mut s.worklist);
        let mut spill = std::mem::take(&mut s.spill);
        let mut retry = std::mem::take(&mut s.retry);
        let mut bids = std::mem::take(&mut s.bids);
        let mut slice_retired = std::mem::take(&mut s.slice_retired);
        worklist.clear();
        worklist.extend(0..requests as u32);
        let mut rounds_mark: u64 = 1;
        let mut rounds = 0u64;
        let mut bids_submitted = 0u64;

        let result = 'run: loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                break 'run Err(P2pError::AuctionDiverged { iterations: rounds - 1 });
            }
            let mut round_bids = 0u64;
            let mut round_conflicts = 0u64;
            let mut round_retired = 0u64;
            // Finer batching in the contended first round, exactly as the
            // nested sharded engine does.
            let batches = if rounds == 1 { shards * 4 } else { shards };
            let chunk = worklist.len().div_ceil(batches).max(1);
            const MAX_RETRY_PASSES: u32 = 64;
            let mut retry_passes = 0u32;
            spill.clear();
            let mut slices = worklist.chunks(chunk);
            loop {
                let slice: &[u32] =
                    match slices.next() {
                        Some(sl) => sl,
                        None if !spill.is_empty() && retry_passes < MAX_RETRY_PASSES => {
                            retry_passes += 1;
                            retry.clear();
                            retry.extend(spill.drain(..).filter(|&r| {
                                s.assigned[r as usize] == NONE && !s.retired[r as usize]
                            }));
                            if retry.is_empty() {
                                break;
                            }
                            &retry
                        }
                        None => break,
                    };
                bids.clear();
                slice_retired.clear();
                // Compute the slice's bids: inline on this thread, or
                // split across it and the leased helpers when every
                // scanner gets enough rows to pay for the handoff
                // (identical results either way — pure function of the
                // snapshot).
                if workers > 1 && slice.len() >= workers * FAN_OUT_ROWS {
                    self.lease.take_if(|lease| lease.workers != workers);
                    let lease = self.lease.get_or_insert_with(|| Lease::spawn(workers));
                    exec_threaded(
                        lease,
                        csr,
                        slice,
                        &s.eff_price,
                        epsilon,
                        &mut bids,
                        &mut slice_retired,
                    );
                } else {
                    kernel::scan_slice(
                        data,
                        slice,
                        &s.eff_price,
                        epsilon,
                        &mut bids,
                        &mut slice_retired,
                    );
                }
                for &r in &slice_retired {
                    s.retired[r as usize] = true;
                }
                round_retired += slice_retired.len() as u64;
                if bids.is_empty() {
                    continue;
                }
                round_bids += bids.len() as u64;
                // Batched merge in the nested engine's total order: amount
                // descending, request ascending; the sort is skipped when
                // no two bids share a provider (they commute).
                let mut colliding = false;
                for bid in &bids {
                    if s.collision_mark[bid.provider as usize] == rounds_mark {
                        colliding = true;
                        break;
                    }
                    s.collision_mark[bid.provider as usize] = rounds_mark;
                }
                rounds_mark += 1;
                if colliding {
                    bids.sort_unstable_by_key(|b| {
                        (std::cmp::Reverse(b.amount.to_bits()), b.request)
                    });
                }
                for bid in &bids {
                    match s.admit(&data.capacity, bid.provider as usize, bid.request, bid.amount) {
                        ArenaOutcome::Rejected => {
                            spill.push(bid.request);
                            round_conflicts += 1;
                        }
                        ArenaOutcome::Accepted { evicted, new_price } => {
                            s.assigned[bid.request as usize] = bid.edge;
                            if let Some(loser) = evicted {
                                s.assigned[loser as usize] = NONE;
                                spill.push(loser);
                                round_conflicts += 1;
                            }
                            if let Some(p) = new_price {
                                probe.price_change(
                                    bid.provider as usize,
                                    s.eff_price[bid.provider as usize],
                                    p,
                                    SimTime::ZERO,
                                );
                                s.eff_price[bid.provider as usize] = p;
                            }
                        }
                    }
                }
            }
            debug_assert_eq!(
                s.assigned.iter().filter(|&&a| a != NONE).count(),
                s.filled.iter().map(|&f| f as usize).sum::<usize>(),
                "round {rounds}: assignment/auctioneer desync"
            );
            bids_submitted += round_bids;
            probe.round(
                rounds,
                round_bids,
                round_conflicts,
                u64::from(retry_passes),
                round_retired,
            );
            if round_bids == 0 {
                break 'run Ok(());
            }
            worklist.clear();
            worklist.extend(
                (0..requests as u32)
                    .filter(|&r| s.assigned[r as usize] == NONE && !s.retired[r as usize]),
            );
            if worklist.is_empty() {
                break 'run Ok(());
            }
        };
        s.worklist = worklist;
        s.spill = spill;
        s.retry = retry;
        s.bids = bids;
        s.slice_retired = slice_retired;
        result?;
        finalize(data, s, rounds, bids_submitted, out, probe);
        Ok(())
    }
}

/// Scans one slice across the calling thread and the lease's helpers. The
/// slice splits into `lease.workers` contiguous chunks: helper `i` scans
/// chunk `i + 1` against the lease's price snapshot while the caller scans
/// chunk 0 straight into `bids` and `retired`, then the helpers' results
/// are appended in chunk order. The merge input is therefore the inline
/// scan's, bid for bid, whatever the thread timing (as in the nested
/// engine).
fn exec_threaded(
    lease: &mut Lease,
    csr: &CsrInstance,
    slice: &[u32],
    prices: &[f64],
    epsilon: f64,
    bids: &mut Vec<FlatBid>,
    retired: &mut Vec<u32>,
) {
    let per = slice.len().div_ceil(lease.workers).max(1);
    let (own, rest) = slice.split_at(per.min(slice.len()));
    // Unshared here (see `Lease::prices`), so this rewrites the buffer in
    // place; a clone still held by a dying helper makes it copy instead.
    let snapshot = Arc::make_mut(&mut lease.prices);
    snapshot.clear();
    snapshot.extend_from_slice(prices);
    // One reassembly slot per helper chunk (not per successful send): a
    // chunk computed inline because its helper died still lands at its
    // own index, and a live helper's result index can never exceed the
    // slot count.
    lease.pending.clear();
    lease.pending.resize_with(rest.len().div_ceil(per), || None);
    let mut active = 0usize;
    for (i, chunk) in rest.chunks(per).enumerate() {
        let (mut chunk_buf, bid_buf, retired_buf) = lease.free.pop().unwrap_or_default();
        chunk_buf.clear();
        chunk_buf.extend_from_slice(chunk);
        let cmd = SliceCmd {
            idx: i,
            chunk: chunk_buf,
            csr: Arc::clone(&csr.data),
            prices: Arc::clone(&lease.prices),
            epsilon,
            bids: bid_buf,
            retired: retired_buf,
        };
        match lease.cmd_txs[i].send(cmd) {
            Ok(()) => active += 1,
            // A helper died (its thread panicked earlier); compute its
            // chunk inline, parked at its own reassembly slot so the merge
            // order stays chunk order — results are identical.
            Err(mpsc::SendError(mut cmd)) => {
                cmd.scan();
                lease.pending[i] = Some(cmd);
            }
        }
    }
    kernel::scan_slice(csr.data(), own, prices, epsilon, bids, retired);
    for _ in 0..active {
        match lease.res_rx.recv() {
            Ok(cmd) => {
                let idx = cmd.idx;
                lease.pending[idx] = Some(cmd);
            }
            Err(_) => {
                // Every helper died mid-slice; discard the caller's chunk
                // and rescan the whole slice inline (pure function — same
                // result).
                bids.clear();
                retired.clear();
                kernel::scan_slice(csr.data(), slice, prices, epsilon, bids, retired);
                lease.pending.clear();
                return;
            }
        }
    }
    for slot in lease.pending.iter_mut() {
        if let Some(cmd) = slot.take() {
            bids.extend_from_slice(&cmd.bids);
            retired.extend_from_slice(&cmd.retired);
            lease.free.push((cmd.chunk, cmd.bids, cmd.retired));
        }
    }
}

/// Writes the converged run's results into `out` without allocating beyond
/// the buffers' high-water marks: final λ (with the zero-capacity
/// standalone prices of [`crate::engine::final_prices_from`]), η derived
/// exactly as [`DualSolution::from_prices`] derives it, choices, welfare
/// and counters.
fn finalize<P: AuctionProbe>(
    data: &CsrData,
    s: &mut AuctionScratch,
    rounds: u64,
    bids_submitted: u64,
    out: &mut FlatOutcome,
    probe: &mut P,
) {
    out.lambda.clear();
    out.lambda.extend_from_slice(&s.price);
    standalone_prices(data, &mut out.lambda);
    eta_into(data, &out.lambda, &mut out.eta);
    out.choice.clear();
    out.choice.extend_from_slice(&s.assigned);
    out.welfare = 0.0;
    for (r, &choice) in s.assigned.iter().enumerate() {
        if choice != NONE {
            out.welfare += data.edge_utility[data.row_offsets[r] as usize + choice as usize];
        }
    }
    out.rounds = rounds;
    out.bids_submitted = bids_submitted;
    if probe.enabled() {
        // Theorem 1's ε-certificate: the duality gap `Σ λ·B + Σ η − welfare`
        // bounds the welfare loss. Only computed when someone is listening,
        // so the NoProbe hot path keeps its instruction count.
        let mut dual = 0.0_f64;
        for (u, &cap) in data.capacity.iter().enumerate() {
            dual += out.lambda[u] * f64::from(cap);
        }
        dual += out.eta.iter().sum::<f64>();
        let assigned = out.choice.iter().filter(|&&c| c != NONE).count() as u64;
        probe.run_complete(rounds, bids_submitted, assigned, dual - out.welfare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncAuction;
    use crate::shard::ShardedAuction;
    use p2p_metrics::{PricePoint, PriceRecorder};
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    /// Runs `engine` under a recording probe: the outcome plus the price
    /// trajectory the engine reported.
    fn traced(engine: &mut FlatAuction, csr: &CsrInstance) -> (AuctionOutcome, Vec<PricePoint>) {
        let mut out = FlatOutcome::default();
        let mut trace = PriceRecorder::new();
        engine.run_into_probed(csr, &mut out, &mut trace).unwrap();
        (out.to_outcome(), trace.points)
    }

    /// A deterministic hash in [0, 1) — tie-free instance material.
    fn unit(seed: u64) -> f64 {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn contended_instance(requests: u64) -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let us: Vec<_> = [2u32, 2, 1, 3]
            .iter()
            .enumerate()
            .map(|(i, &c)| b.add_provider(PeerId::new(100 + i as u32), c))
            .collect();
        for d in 0..requests {
            let r = b.add_request(rid(d as u32, 0));
            for (i, &u) in us.iter().enumerate() {
                let v = 2.0 + 6.0 * unit(d * 31 + i as u64 * 7 + 1);
                let w = 0.2 + 3.0 * unit(d * 17 + i as u64 * 13 + 2);
                b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn compile_roundtrips_shape_and_values() {
        let inst = contended_instance(12);
        let csr = CsrInstance::compile(&inst);
        assert_eq!(csr.provider_count(), inst.provider_count());
        assert_eq!(csr.request_count(), inst.request_count());
        assert_eq!(csr.edge_count(), inst.edge_count());
        // The handle's rows are the views' rows: the same arrays, not a copy.
        for (r, view) in inst.requests().enumerate() {
            let (providers, utilities) = csr.data().row(r);
            assert!(std::ptr::eq(providers, view.providers()), "row {r}");
            assert!(std::ptr::eq(utilities, view.utilities()), "row {r}");
            for (k, e) in view.edges().enumerate() {
                assert_eq!(providers[k] as usize, e.provider);
                assert_eq!(utilities[k].to_bits(), e.utility().get().to_bits());
            }
        }
        for u in 0..inst.provider_count() {
            assert_eq!(csr.data().capacity[u], inst.provider(u).capacity.chunks_per_slot());
        }
    }

    #[test]
    fn sweep_is_bit_identical_to_sync() {
        for eps in [0.0, 0.01] {
            let inst = contended_instance(12);
            let csr = CsrInstance::compile(&inst);
            let sync = SyncAuction::new(AuctionConfig::with_epsilon(eps)).run(&inst).unwrap();
            let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(1));
            let out = flat.run(&csr).unwrap();
            assert_eq!(out.assignment, sync.assignment, "eps={eps}");
            assert_eq!(out.duals, sync.duals, "eps={eps}");
            assert_eq!(out.rounds, sync.rounds, "eps={eps}");
            assert_eq!(out.bids_submitted, sync.bids_submitted, "eps={eps}");
        }
    }

    #[test]
    fn sharded_is_bit_identical_to_nested_sharded() {
        for shards in [2usize, 4, 8] {
            let inst = contended_instance(24);
            let csr = CsrInstance::compile(&inst);
            let mut nested_trace = PriceRecorder::new();
            let nested =
                ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(shards))
                    .run_probed(&inst, &mut nested_trace)
                    .unwrap();
            let mut flat =
                FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(shards));
            let (out, trace) = traced(&mut flat, &csr);
            assert_eq!(out.assignment, nested.assignment, "shards={shards}");
            assert_eq!(out.duals, nested.duals, "shards={shards}");
            assert_eq!(out.rounds, nested.rounds, "shards={shards}");
            assert_eq!(out.bids_submitted, nested.bids_submitted, "shards={shards}");
            assert!(!trace.is_empty(), "shards={shards}");
            assert_eq!(trace, nested_trace.points, "shards={shards}: price trajectories diverge");
        }
    }

    /// A flash-crowd-shaped slot: one provider of capacity 1–4 per 16
    /// requests, and 4 distinct candidates a request.
    fn crowd_instance(requests: u64) -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let providers = requests / 16;
        let us: Vec<_> = (0..providers)
            .map(|i| {
                b.add_provider(
                    PeerId::new(1_000_000 + i as u32),
                    1 + (unit(i * 7 + 5) * 4.0) as u32,
                )
            })
            .collect();
        for d in 0..requests {
            let r = b.add_request(rid(d as u32, 0));
            let base = (unit(d * 13 + 3) * providers as f64) as u64;
            for k in 0..4 {
                let u = us[((base + k * (providers / 4)) % providers) as usize];
                let v = 2.0 + 6.0 * unit(d * 31 + k * 7 + 1);
                let w = 0.2 + 3.0 * unit(d * 17 + k * 13 + 2);
                b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Three shards cut the first round into 12 slices of
    /// `3 · FAN_OUT_ROWS` rows, so 2 and 3 scanners both fan out: the
    /// threaded path must reproduce the inline one and the nested engine,
    /// price trace included.
    #[test]
    fn forced_worker_threads_match_the_inline_path() {
        let inst = crowd_instance(12 * 3 * FAN_OUT_ROWS as u64);
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig::with_epsilon(0.01);
        let shards = ShardCount::Fixed(3);
        let mut nested_trace = PriceRecorder::new();
        let nested = ShardedAuction::new(cfg, shards).run_probed(&inst, &mut nested_trace).unwrap();
        assert!(!nested_trace.points.is_empty());
        for workers in [1, 2, 3] {
            let mut flat = FlatAuction::new(cfg, shards).with_workers(workers);
            let (out, trace) = traced(&mut flat, &csr);
            assert_eq!(flat.lease.is_some(), workers > 1, "workers={workers}: fan-out");
            assert_eq!(out.assignment, nested.assignment, "workers={workers}");
            assert_eq!(out.duals, nested.duals, "workers={workers}");
            assert_eq!(out.rounds, nested.rounds, "workers={workers}");
            assert_eq!(out.bids_submitted, nested.bids_submitted, "workers={workers}");
            assert_eq!(trace, nested_trace.points, "workers={workers}: price traces diverge");
            // A second run on the kept lease decides the same.
            assert_eq!(flat.run(&csr).unwrap().assignment, nested.assignment);
        }
    }

    #[test]
    fn reusable_outcome_and_scratch_are_stable_across_runs() {
        let inst = contended_instance(20);
        let csr = CsrInstance::compile(&inst);
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(2));
        let mut out1 = FlatOutcome::default();
        flat.run_into(&csr, &mut out1).unwrap();
        let mut out2 = FlatOutcome::default();
        flat.run_into(&csr, &mut out2).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(out1.assigned_count(), out1.to_outcome().assignment.assigned_count());
        assert!(out1.welfare() > 0.0);
        assert!(out1.rounds() >= 1);
        assert!(out1.bids_submitted() >= 1);
        assert_eq!(out1.lambda().len(), csr.provider_count());
        assert_eq!(out1.eta().len(), csr.request_count());
        assert_eq!(out1.choice(0).is_some(), out1.to_outcome().assignment.choice(0).is_some());
    }

    #[test]
    fn empty_instance_converges_immediately() {
        let inst = WelfareInstance::builder().build().unwrap();
        let csr = CsrInstance::compile(&inst);
        let mut flat = FlatAuction::default();
        let out = flat.run(&csr).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bids_submitted, 0);
    }

    #[test]
    fn zero_capacity_providers_are_ignored_and_priced_feasibly() {
        let mut b = WelfareInstance::builder();
        let dead = b.add_provider(PeerId::new(9), 0);
        let live = b.add_provider(PeerId::new(10), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, dead, Valuation::new(8.0), Cost::new(0.0)).unwrap();
        b.add_edge(r, live, Valuation::new(8.0), Cost::new(2.0)).unwrap();
        let inst = b.build().unwrap();
        let csr = CsrInstance::compile(&inst);
        let mut flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1));
        let out = flat.run(&csr).unwrap();
        assert_eq!(out.assignment.provider_of(&inst, 0), Some(live));
        assert!(out.duals.validate(&inst, 1e-9).is_ok());
        assert!(out.duals.lambda[dead] >= 8.0 - 1e-9);
        let sync = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
        assert_eq!(out.duals, sync.duals);
    }

    #[test]
    fn divergence_guard_fires_with_tiny_round_budget() {
        let inst = contended_instance(8);
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig { max_rounds: 0, ..AuctionConfig::paper() };
        for shards in [1, 4] {
            let mut flat = FlatAuction::new(cfg, ShardCount::Fixed(shards));
            let err = flat.run(&csr).unwrap_err();
            assert!(matches!(err, P2pError::AuctionDiverged { .. }));
            // The engine recovers after a divergence error.
            let mut ok = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(shards));
            assert!(ok.run(&csr).is_ok());
        }
    }

    #[test]
    fn auto_matches_the_nested_auto_resolution() {
        let inst = contended_instance(40);
        let csr = CsrInstance::compile(&inst);
        let nested = ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Auto)
            .run(&inst)
            .unwrap();
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Auto);
        let out = flat.run(&csr).unwrap();
        assert_eq!(out.assignment, nested.assignment);
        assert_eq!(out.duals, nested.duals);
        // 40 requests is a small slot: Auto runs the sequential sweep.
        assert_eq!(ShardCount::Auto.resolve_for(inst.request_count()), 1);
    }

    #[test]
    fn clone_and_debug_cover_the_engine_surface() {
        let flat = FlatAuction::new(AuctionConfig::with_epsilon(0.5), ShardCount::Fixed(3))
            .with_workers(2);
        let cloned = flat.clone();
        assert_eq!(cloned.config().epsilon, 0.5);
        assert_eq!(cloned.shards(), ShardCount::Fixed(3));
        assert!(format!("{flat:?}").contains("FlatAuction"));
    }

    /// The lane kernel (flat engine) against the scalar scan (the nested
    /// engine of the same schedule), price traces included.
    #[test]
    fn kernel_and_scalar_paths_are_bit_identical_end_to_end() {
        for (shards, eps) in [(1usize, 0.0), (1, 0.01), (4, 0.0), (4, 0.01)] {
            let inst = contended_instance(40);
            let csr = CsrInstance::compile(&inst);
            let cfg = AuctionConfig::with_epsilon(eps);
            let mut lanes = FlatAuction::new(cfg, ShardCount::Fixed(shards));
            let (a, a_trace) = traced(&mut lanes, &csr);
            let mut b_trace = PriceRecorder::new();
            let b = if shards == 1 {
                SyncAuction::new(cfg).run_probed(&inst, &mut b_trace).unwrap()
            } else {
                ShardedAuction::new(cfg, ShardCount::Fixed(shards))
                    .run_probed(&inst, &mut b_trace)
                    .unwrap()
            };
            assert_eq!(a.assignment, b.assignment, "shards={shards} eps={eps}");
            assert_eq!(a.duals, b.duals, "shards={shards} eps={eps}");
            assert_eq!(a.rounds, b.rounds, "shards={shards} eps={eps}");
            assert_eq!(a.bids_submitted, b.bids_submitted, "shards={shards} eps={eps}");
            assert_eq!(a_trace, b_trace.points, "shards={shards} eps={eps}");
        }
    }

    #[test]
    fn capacities_summing_past_u32_match_the_nested_engines() {
        // Σ B(u) = 2³² overflows a `u32`; the arena is sized by in-degree.
        let mut b = WelfareInstance::builder();
        let us =
            [b.add_provider(PeerId::new(100), 1 << 31), b.add_provider(PeerId::new(101), 1 << 31)];
        for d in 0..4u32 {
            let r = b.add_request(rid(d, 0));
            for (i, &u) in us.iter().enumerate() {
                let v = 2.0 + 6.0 * unit(u64::from(d) * 31 + i as u64 * 7 + 1);
                b.add_edge(r, u, Valuation::new(v), Cost::new(1.0)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig::with_epsilon(0.01);
        let sync = SyncAuction::new(cfg).run(&inst).unwrap();
        let out = FlatAuction::new(cfg, ShardCount::Fixed(1)).run(&csr).unwrap();
        assert_eq!(out.assignment, sync.assignment);
        assert_eq!(out.duals, sync.duals);
        let nested = ShardedAuction::new(cfg, ShardCount::Fixed(2)).run(&inst).unwrap();
        let out2 = FlatAuction::new(cfg, ShardCount::Fixed(2)).run(&csr).unwrap();
        assert_eq!(out2.assignment, nested.assignment);
        assert_eq!(out2.duals, nested.duals);
        assert_eq!(out.assignment.assigned_count(), 4);
    }

    #[test]
    fn arena_holds_in_degree_not_capacity() {
        let mut b = WelfareInstance::builder();
        let seed = b.add_provider(PeerId::new(100), 800);
        b.add_provider(PeerId::new(101), 500); // no edges
        for d in 0..3u32 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, seed, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        }
        let inst = b.build().unwrap();
        let mut flat = FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(1));
        let out = flat.run(&CsrInstance::compile(&inst)).unwrap();
        assert_eq!(out.assignment.assigned_count(), 3);
        assert_eq!(flat.scratch.entries.len(), 3);
    }
}
