//! Flat CSR instance layout and the zero-allocation auction hot path.
//!
//! The nested [`WelfareInstance`] stores one `Vec<EdgeSpec>` per request —
//! simple to build and patch, but the auction inner loop then chases one
//! pointer per request and re-derives `v − w` per visit, and every engine
//! run reallocates its round scratch (edge views, auctioneer heaps, bid
//! batches, worklists). At the 10³–10⁴-request flash-crowd slots the
//! ROADMAP targets, that memory traffic dominates per-slot latency.
//!
//! This module compiles an instance into a structure-of-arrays form and
//! runs the *same* auction over it with reusable scratch:
//!
//! * [`CsrInstance`] — dense `edge_provider` / `edge_utility` arrays
//!   (`v − w` precomputed once) with CSR row bounds per request, plus a
//!   dense provider-capacity array, compiled in one pass by
//!   [`CsrInstance::compile`]. The arrays live behind one `Arc`, so
//!   sharded worker threads share them without copying.
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
//! The flat engines are not "approximately" the nested engines — they are
//! the same auction over a different memory layout. Bid decisions run the
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
//! shard count, warm or cold. The property suite
//! (`crates/core/tests/proptest_csr.rs`) enforces this.
//!
//! # Worker threads
//!
//! With shards ≥ 2 and more than one worker, slice bids fan out across
//! OS threads the engine owns. It spawns `min(shards, cores)` workers (or
//! its [`FlatAuction::with_workers`] count) on its first sharded run and
//! parks them on a channel between slices, so repeated slot auctions on
//! one engine spawn zero new threads; dropping the engine joins them.
//! Thread count never affects results (slices are pure functions of their
//! price snapshot).
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
use crate::engine::{AuctionConfig, AuctionOutcome, EpsilonScaling};
use crate::instance::WelfareInstance;
use crate::shard::ShardCount;
use crate::solution::{Assignment, DualSolution};
use p2p_metrics::{AuctionProbe, NoProbe};
use p2p_types::{P2pError, SimTime};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod kernel;

/// Sentinel for "request unassigned" in the flat choice vector.
const NONE: u32 = u32::MAX;

/// The flat structure-of-arrays payload of a [`CsrInstance`]. All arrays
/// are index-aligned: `capacity[u]` per provider, `row_offsets[r] ..
/// row_offsets[r + 1]` bounding request `r`'s edges inside
/// `edge_provider` / `edge_utility`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrData {
    /// Per provider: upload capacity `B(u)` in chunks per slot.
    capacity: Vec<u32>,
    /// CSR row bounds: request `r` owns edges `row_offsets[r] ..
    /// row_offsets[r + 1]`; length is `request_count + 1`.
    row_offsets: Vec<u32>,
    /// Per edge: the provider index.
    edge_provider: Vec<u32>,
    /// Per edge: the welfare weight `v − w`, precomputed once.
    edge_utility: Vec<f64>,
}

impl CsrData {
    /// Number of requests (rows).
    pub fn request_count(&self) -> usize {
        self.row_offsets.len().saturating_sub(1)
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.capacity.len()
    }

    /// Number of candidate edges.
    pub fn edge_count(&self) -> usize {
        self.edge_provider.len()
    }

    /// One request's edges as parallel `(providers, utilities)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        (&self.edge_provider[lo..hi], &self.edge_utility[lo..hi])
    }

    /// A provider's capacity.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn capacity(&self, u: usize) -> u32 {
        self.capacity[u]
    }
}

/// A compiled, shareable flat instance (see the [module docs](self)).
///
/// Cloning is an `Arc` bump — worker threads share one set of arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrInstance {
    data: Arc<CsrData>,
}

impl CsrInstance {
    /// Compiles a nested instance into the flat layout (one pass; `v − w`
    /// is precomputed per edge exactly as [`crate::EdgeSpec::utility`]
    /// computes it, so downstream floats are bit-identical).
    ///
    /// Every utility is finite, as the bid kernel requires:
    /// [`crate::InstanceBuilder::add_edge`] rejects a non-finite `v − w`,
    /// and a [`WelfareInstance`] can only come from that builder.
    pub fn compile(instance: &WelfareInstance) -> Self {
        let edges = instance.edge_count();
        let mut data = CsrData {
            capacity: instance.providers().iter().map(|p| p.capacity.chunks_per_slot()).collect(),
            row_offsets: Vec::with_capacity(instance.request_count() + 1),
            edge_provider: Vec::with_capacity(edges),
            edge_utility: Vec::with_capacity(edges),
        };
        for r in instance.requests() {
            data.row_offsets.push(data.edge_provider.len() as u32);
            for e in &r.edges {
                data.edge_provider.push(e.provider as u32);
                data.edge_utility.push(e.utility().get());
            }
        }
        data.row_offsets.push(data.edge_provider.len() as u32);
        CsrInstance { data: Arc::new(data) }
    }

    /// The flat arrays.
    pub fn data(&self) -> &CsrData {
        &self.data
    }

    /// A shared handle to the arrays (what worker threads hold).
    pub fn shared(&self) -> Arc<CsrData> {
        Arc::clone(&self.data)
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

/// One slice's compute order (and, on the way back, its results): owned
/// data only, so it can cross to leased worker threads. Buffers are
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

/// Recyclable buffer set for one [`SliceCmd`].
type SliceBufs = (Vec<u32>, Vec<FlatBid>, Vec<u32>);

/// The engine's worker threads: one command channel per worker, one shared
/// result channel back. Dropping the lease closes the command channels and
/// joins the threads.
struct Lease {
    workers: usize,
    cmd_txs: Vec<mpsc::Sender<SliceCmd>>,
    res_rx: mpsc::Receiver<SliceCmd>,
    /// Joined on drop, after closing the command channels, so the lease's
    /// end synchronously releases every worker thread.
    threads: Vec<JoinHandle<()>>,
    /// Recycled command buffers.
    free: Vec<SliceBufs>,
    /// Reassembly slots (reused across slices).
    pending: Vec<Option<SliceCmd>>,
}

impl Lease {
    fn spawn(workers: usize) -> Self {
        let (res_tx, res_rx) = mpsc::channel::<SliceCmd>();
        let mut cmd_txs = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<SliceCmd>();
            cmd_txs.push(tx);
            let res_tx = res_tx.clone();
            threads.push(std::thread::spawn(move || {
                while let Ok(mut cmd) = rx.recv() {
                    cmd.bids.clear();
                    cmd.retired.clear();
                    kernel::scan_slice(
                        &cmd.csr,
                        &cmd.chunk,
                        &cmd.prices,
                        cmd.epsilon,
                        &mut cmd.bids,
                        &mut cmd.retired,
                    );
                    if res_tx.send(cmd).is_err() {
                        break;
                    }
                }
            }));
        }
        Lease { workers, cmd_txs, res_rx, threads, free: Vec::new(), pending: Vec::new() }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Close the command channels (ends every worker loop), then wait
        // for each worker thread to exit. `Drop` must not panic, so a
        // worker's panic payload is dropped here; `exec_threaded` already
        // computed inline any chunk a dead worker could not take.
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
    /// Per provider: start of its heap segment in the `entry_*` arrays
    /// (`provider_count + 1` entries). Provider `u`'s segment has
    /// `min(B(u), in-degree(u))` slots: a request holds at most one unit
    /// of `u`, so `u` never admits more requests than it has edges. Its
    /// first `filled[u]` slots are a binary min-heap on `(bid, seq)`; the
    /// slots past `filled[u]` are never read, so the `entry_*` arrays only
    /// grow and are never cleared between runs.
    segment_offsets: Vec<u32>,
    entry_bid: Vec<f64>,
    entry_seq: Vec<u64>,
    entry_req: Vec<u32>,
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
    // ---- warm-start buffers ----
    warm_prices: Vec<f64>,
    potential: Vec<u32>,
}

impl AuctionScratch {
    /// Resets the arena and request state for a run over `csr`, seeding
    /// prices from `initial` exactly as the nested engines do (non-finite
    /// or negative entries become 0; zero-capacity providers price at 0
    /// with an infinite effective price).
    fn reset(&mut self, csr: &CsrData, initial: Option<&[f64]>) {
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
            let warm = initial
                .and_then(|ps| ps.get(u).copied())
                .filter(|w| w.is_finite() && *w >= 0.0)
                .unwrap_or(0.0);
            if cap == 0 {
                self.price.push(0.0);
                self.eff_price.push(f64::INFINITY);
            } else {
                self.price.push(warm);
                self.eff_price.push(warm);
            }
        }
        let slots = self.segment_offsets[providers] as usize;
        if self.entry_bid.len() < slots {
            self.entry_bid.resize(slots, 0.0);
            self.entry_seq.resize(slots, 0);
            self.entry_req.resize(slots, 0);
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

/// One provider's admitted set: a binary min-heap on `(bid, seq)` laid out
/// in place over its arena segment, the order of the nested auctioneer's
/// `BinaryHeap`. `seq` values are unique, so the order is total and the
/// root is the one entry the nested auctioneer would evict.
struct SegmentHeap<'a> {
    bid: &'a mut [f64],
    seq: &'a mut [u64],
    req: &'a mut [u32],
}

impl SegmentHeap<'_> {
    /// Whether slot `i` orders before the entry `(bid, seq)`.
    fn precedes(&self, i: usize, bid: f64, seq: u64) -> bool {
        self.bid[i] < bid || (self.bid[i] == bid && self.seq[i] < seq)
    }

    fn put(&mut self, i: usize, bid: f64, seq: u64, req: u32) {
        self.bid[i] = bid;
        self.seq[i] = seq;
        self.req[i] = req;
    }

    fn lift(&mut self, from: usize, to: usize) {
        self.put(to, self.bid[from], self.seq[from], self.req[from]);
    }

    /// Places an entry at the hole `i` (the heap's new last slot), moving
    /// each ancestor that orders after it down one level.
    fn sift_up(&mut self, mut i: usize, bid: f64, seq: u64, req: u32) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.precedes(parent, bid, seq) {
                break;
            }
            self.lift(parent, i);
            i = parent;
        }
        self.put(i, bid, seq, req);
    }

    /// Replaces the root of a full segment with an entry, moving the
    /// smaller child up one level until the entry orders before both.
    fn replace_root(&mut self, bid: f64, seq: u64, req: u32) {
        let len = self.bid.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.precedes(right, self.bid[left], self.seq[left]) {
                right
            } else {
                left
            };
            if !self.precedes(child, bid, seq) {
                break;
            }
            self.lift(child, i);
            i = child;
        }
        self.put(i, bid, seq, req);
    }
}

/// The auctioneer state machine over the flat arena — semantically
/// identical to [`crate::auctioneer::Auctioneer::handle_bid`]: reject at or
/// below the price, evict the minimum `(bid, admission-seq)` entry (the
/// heap root) when full, announce the new price (the root's bid) when the
/// set is full and the minimum changed. The price moves per accepted bid,
/// because later bids of one merge batch are admitted or rejected against
/// it.
#[allow(clippy::too_many_arguments)]
fn arena_handle_bid(
    capacity: &[u32],
    segment_offsets: &[u32],
    entry_bid: &mut [f64],
    entry_seq: &mut [u64],
    entry_req: &mut [u32],
    filled: &mut [u32],
    price: &mut [f64],
    seq: &mut u64,
    provider: usize,
    request: u32,
    amount: f64,
) -> ArenaOutcome {
    debug_assert!(amount.is_finite(), "bid must be finite");
    let cap = capacity[provider];
    if cap == 0 || amount <= price[provider] {
        return ArenaOutcome::Rejected;
    }
    let segment = segment_offsets[provider] as usize..segment_offsets[provider + 1] as usize;
    let mut heap = SegmentHeap {
        bid: &mut entry_bid[segment.clone()],
        seq: &mut entry_seq[segment.clone()],
        req: &mut entry_req[segment],
    };
    let mut evicted = None;
    if filled[provider] == cap {
        // A full segment holds exactly `cap` entries: its size is at most
        // `cap`, and `filled` never passes it.
        evicted = Some(heap.req[0]);
        heap.replace_root(amount, *seq, request);
    } else {
        let len = filled[provider] as usize;
        debug_assert!(len < heap.bid.len(), "admission past provider {provider}'s segment");
        heap.sift_up(len, amount, *seq, request);
        filled[provider] += 1;
    }
    *seq += 1;
    let mut new_price = None;
    if filled[provider] == cap && heap.bid[0] != price[provider] {
        price[provider] = heap.bid[0];
        new_price = Some(heap.bid[0]);
    }
    ArenaOutcome::Accepted { evicted, new_price }
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
    /// Test/bench override for the worker-thread count (normally
    /// `min(shards, cores)`).
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

    /// Forces the worker-thread count regardless of the machine's core
    /// count (builder-style). Results are unaffected.
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
        self.run_from(csr, None, self.config.epsilon, out, &mut NoProbe)
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
        self.run_from(csr, None, self.config.epsilon, out, probe)
    }

    /// Runs warm-started from `prior_prices`, with exactly the price
    /// clamping and CS 1 repair-loop semantics of
    /// [`crate::SyncAuction::run_warm`] — outcomes are bit-identical to the
    /// nested engines' warm runs.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    pub fn run_warm(
        &mut self,
        csr: &CsrInstance,
        prior_prices: &[f64],
    ) -> Result<AuctionOutcome, P2pError> {
        let mut out = FlatOutcome::default();
        self.run_warm_into(csr, prior_prices, &mut out)?;
        Ok(out.to_outcome())
    }

    /// [`FlatAuction::run_warm`] into a reusable [`FlatOutcome`]
    /// (zero-allocation after warm-up, like [`FlatAuction::run_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    pub fn run_warm_into(
        &mut self,
        csr: &CsrInstance,
        prior_prices: &[f64],
        out: &mut FlatOutcome,
    ) -> Result<(), P2pError> {
        self.run_warm_into_probed(csr, prior_prices, out, &mut NoProbe)
    }

    /// [`FlatAuction::run_warm_into`] with an observation probe (every
    /// CS 1 repair pass reports into the same probe).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    pub fn run_warm_into_probed(
        &mut self,
        csr: &CsrInstance,
        prior_prices: &[f64],
        out: &mut FlatOutcome,
        probe: &mut impl AuctionProbe,
    ) -> Result<(), P2pError> {
        let eps = self.config.epsilon;
        // Take the warm buffers out of the scratch so the repair loop can
        // hold them across `run_from` calls (no allocation: `take` swaps in
        // empty vectors, and the buffers go back below).
        let mut prices = std::mem::take(&mut self.scratch.warm_prices);
        let mut potential = std::mem::take(&mut self.scratch.potential);
        clamp_warm_prices(csr.data(), prior_prices, eps, &mut prices, &mut potential);
        let mut rounds = 0;
        let mut bids = 0;
        let result = loop {
            if let Err(e) = self.run_from(csr, Some(&prices), eps, out, &mut *probe) {
                break Err(e);
            }
            rounds += out.rounds;
            bids += out.bids_submitted;
            // CS 1 support check, identical to the nested repair loop: a
            // provider with spare capacity at λ > 0 kept an unsupported
            // warm price; zero it (never re-warming a repaired one) and
            // rerun. Each pass permanently clears at least one provider.
            let data = csr.data();
            let mut repaired = false;
            for (u, &cap) in data.capacity.iter().enumerate() {
                if cap > 0 && self.scratch.filled[u] < cap && prices[u] > 0.0 && out.lambda[u] > 0.0
                {
                    prices[u] = 0.0;
                    repaired = true;
                }
            }
            if !repaired {
                out.rounds = rounds;
                out.bids_submitted = bids;
                break Ok(());
            }
        };
        self.scratch.warm_prices = prices;
        self.scratch.potential = potential;
        result
    }

    /// Runs with ε-scaling, mirroring [`crate::SyncAuction::run_scaled`]'s
    /// phase schedule and inter-phase price relaxation over the flat
    /// layout (bit-identical at shards = 1).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any phase exceeds
    /// `max_rounds`, or [`P2pError::InvalidConfig`] for invalid scaling
    /// parameters.
    pub fn run_scaled(
        &mut self,
        csr: &CsrInstance,
        scaling: EpsilonScaling,
    ) -> Result<AuctionOutcome, P2pError> {
        scaling.validate()?;
        let mut out = FlatOutcome::default();
        let mut epsilon = scaling.initial;
        let mut prices: Option<Vec<f64>> = None;
        let mut rounds = 0;
        let mut bids = 0;
        loop {
            let last_phase = epsilon <= scaling.final_epsilon;
            let eps = epsilon.max(scaling.final_epsilon);
            self.run_from(csr, prices.as_deref(), eps, &mut out, &mut NoProbe)?;
            rounds += out.rounds;
            bids += out.bids_submitted;
            if last_phase {
                out.rounds = rounds;
                out.bids_submitted = bids;
                return Ok(out.to_outcome());
            }
            // Carry prices relaxed by the phase's ε (see the nested
            // engine's rationale).
            prices = Some(out.lambda.iter().map(|l| (l - eps).max(0.0)).collect());
            epsilon /= scaling.decay;
        }
    }

    /// Core dispatch: optional warm prices, explicit ε, generic probe.
    fn run_from<P: AuctionProbe>(
        &mut self,
        csr: &CsrInstance,
        initial: Option<&[f64]>,
        epsilon: f64,
        out: &mut FlatOutcome,
        probe: &mut P,
    ) -> Result<(), P2pError> {
        let shards = self.shards.resolve_for(csr.request_count());
        if shards <= 1 {
            self.run_sweep(csr, initial, epsilon, out, probe)
        } else {
            self.run_sharded(csr, initial, epsilon, shards.max(2), out, probe)
        }
    }

    /// The sequential Gauss–Seidel sweep over CSR rows — the schedule of
    /// [`crate::SyncAuction`], bid for bid.
    fn run_sweep<P: AuctionProbe>(
        &mut self,
        csr: &CsrInstance,
        initial: Option<&[f64]>,
        epsilon: f64,
        out: &mut FlatOutcome,
        probe: &mut P,
    ) -> Result<(), P2pError> {
        let data = csr.data();
        let s = &mut self.scratch;
        s.reset(data, initial);
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
                        match arena_handle_bid(
                            &data.capacity,
                            &s.segment_offsets,
                            &mut s.entry_bid,
                            &mut s.entry_seq,
                            &mut s.entry_req,
                            &mut s.filled,
                            &mut s.price,
                            &mut s.seq,
                            provider,
                            r as u32,
                            amount,
                        ) {
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
    #[allow(clippy::too_many_arguments)]
    fn run_sharded<P: AuctionProbe>(
        &mut self,
        csr: &CsrInstance,
        initial: Option<&[f64]>,
        epsilon: f64,
        shards: usize,
        out: &mut FlatOutcome,
        probe: &mut P,
    ) -> Result<(), P2pError> {
        let workers = self
            .workers
            .unwrap_or_else(|| shards.min(crate::shard::available_cores()))
            .max(1)
            .min(shards);
        if workers > 1 && self.lease.as_ref().is_none_or(|l| l.workers != workers) {
            self.lease = Some(Lease::spawn(workers));
        }
        let data = csr.data();
        let s = &mut self.scratch;
        s.reset(data, initial);
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
                // fanned out across the leased workers for big slices
                // (identical results either way — pure function of the
                // snapshot).
                if workers > 1 && slice.len() >= 2 * workers {
                    let lease = self.lease.as_mut().expect("leased above");
                    exec_threaded(
                        lease,
                        csr,
                        slice,
                        &s.eff_price,
                        epsilon,
                        workers,
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
                    match arena_handle_bid(
                        &data.capacity,
                        &s.segment_offsets,
                        &mut s.entry_bid,
                        &mut s.entry_seq,
                        &mut s.entry_req,
                        &mut s.filled,
                        &mut s.price,
                        &mut s.seq,
                        bid.provider as usize,
                        bid.request,
                        bid.amount,
                    ) {
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

/// Fans one slice out across the leased workers and reassembles the
/// results in chunk order (so the merge input — and every outcome field —
/// is independent of thread timing, as in the nested engine).
#[allow(clippy::too_many_arguments)]
fn exec_threaded(
    lease: &mut Lease,
    csr: &CsrInstance,
    slice: &[u32],
    prices: &[f64],
    epsilon: f64,
    workers: usize,
    bids: &mut Vec<FlatBid>,
    retired: &mut Vec<u32>,
) {
    let snapshot = Arc::new(prices.to_vec());
    let per = slice.len().div_ceil(workers).max(1);
    // One reassembly slot per chunk (not per successful send): a chunk
    // computed inline because its worker died still lands at its own
    // index, and a live worker's result index can never exceed the slot
    // count.
    let chunk_count = slice.len().div_ceil(per);
    lease.pending.clear();
    lease.pending.resize_with(chunk_count, || None);
    let mut active = 0usize;
    for (w, chunk) in slice.chunks(per).enumerate() {
        let (mut chunk_buf, bid_buf, retired_buf) = lease.free.pop().unwrap_or_default();
        chunk_buf.clear();
        chunk_buf.extend_from_slice(chunk);
        let cmd = SliceCmd {
            idx: w,
            chunk: chunk_buf,
            csr: csr.shared(),
            prices: Arc::clone(&snapshot),
            epsilon,
            bids: bid_buf,
            retired: retired_buf,
        };
        match lease.cmd_txs[w].send(cmd) {
            Ok(()) => active += 1,
            // A worker died (its thread panicked earlier); fall back
            // to computing the chunk inline, parked at its own reassembly
            // slot so the merge order stays chunk order — results are
            // identical.
            Err(mpsc::SendError(mut cmd)) => {
                cmd.bids.clear();
                cmd.retired.clear();
                kernel::scan_slice(
                    csr.data(),
                    &cmd.chunk,
                    prices,
                    epsilon,
                    &mut cmd.bids,
                    &mut cmd.retired,
                );
                lease.pending[w] = Some(cmd);
            }
        }
    }
    for _ in 0..active {
        match lease.res_rx.recv() {
            Ok(cmd) => {
                let idx = cmd.idx;
                lease.pending[idx] = Some(cmd);
            }
            Err(_) => {
                // Every worker died mid-slice; recompute the whole slice
                // inline (pure function — same result).
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
/// standalone prices of the nested `final_prices`), η derived exactly as
/// [`DualSolution::from_prices`], choices, welfare and counters.
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
    // Zero-capacity providers constrain nothing but still appear in dual
    // constraint (6): report the smallest feasible standalone price
    // `max(0, max incident v − w)` — the nested `final_prices` rule.
    if data.capacity.contains(&0) {
        for (e, &p) in data.edge_provider.iter().enumerate() {
            let u = p as usize;
            if data.capacity[u] == 0 && data.edge_utility[e] > out.lambda[u] {
                out.lambda[u] = data.edge_utility[e];
            }
        }
    }
    out.eta.clear();
    out.choice.clear();
    out.welfare = 0.0;
    for r in 0..data.request_count() {
        let lo = data.row_offsets[r] as usize;
        let hi = data.row_offsets[r + 1] as usize;
        let mut eta = 0.0_f64;
        for e in lo..hi {
            eta = eta.max(data.edge_utility[e] - out.lambda[data.edge_provider[e] as usize]);
        }
        out.eta.push(eta);
        let choice = s.assigned[r];
        out.choice.push(choice);
        if choice != NONE {
            out.welfare += data.edge_utility[lo + choice as usize];
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

/// Carried prices made ε-valid for a warm start, written into `prices`
/// without allocating: the clamp and cheap support pre-filter of the
/// nested `clamped_warm_prices`, over the flat arrays.
fn clamp_warm_prices(
    data: &CsrData,
    prior: &[f64],
    eps: f64,
    prices: &mut Vec<f64>,
    potential: &mut Vec<u32>,
) {
    prices.clear();
    for u in 0..data.provider_count() {
        let p = prior.get(u).copied().unwrap_or(0.0);
        prices.push(if p.is_finite() { (p - eps).max(0.0) } else { 0.0 });
    }
    potential.clear();
    potential.resize(data.provider_count(), 0);
    for (e, &p) in data.edge_provider.iter().enumerate() {
        let u = p as usize;
        if prices[u] > 0.0 && data.edge_utility[e] > prices[u] {
            potential[u] += 1;
        }
    }
    for u in 0..data.provider_count() {
        if prices[u] > 0.0 && potential[u] < data.capacity[u] {
            prices[u] = 0.0;
        }
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
        let (providers, utilities) = csr.data().row(3);
        for (k, e) in inst.request(3).edges.iter().enumerate() {
            assert_eq!(providers[k] as usize, e.provider);
            assert_eq!(utilities[k], e.utility().get());
        }
        for u in 0..inst.provider_count() {
            assert_eq!(csr.data().capacity(u), inst.provider(u).capacity.chunks_per_slot());
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

    #[test]
    fn warm_runs_match_the_nested_engines() {
        let inst = contended_instance(16);
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig::with_epsilon(0.01);
        let sync_cold = SyncAuction::new(cfg).run(&inst).unwrap();
        // Warm from converged, scaled, and garbage carried prices.
        for carried in [
            sync_cold.duals.lambda.clone(),
            sync_cold.duals.lambda.iter().map(|l| l * 2.5).collect(),
            vec![1e6; 4],
            vec![f64::NAN, -3.0],
            vec![],
        ] {
            let sync = SyncAuction::new(cfg).run_warm(&inst, &carried).unwrap();
            let mut flat = FlatAuction::new(cfg, ShardCount::Fixed(1));
            let out = flat.run_warm(&csr, &carried).unwrap();
            assert_eq!(out.assignment, sync.assignment);
            assert_eq!(out.duals, sync.duals);
            assert_eq!(out.rounds, sync.rounds);
            assert_eq!(out.bids_submitted, sync.bids_submitted);

            let nested =
                ShardedAuction::new(cfg, ShardCount::Fixed(4)).run_warm(&inst, &carried).unwrap();
            let mut flat4 = FlatAuction::new(cfg, ShardCount::Fixed(4));
            let out4 = flat4.run_warm(&csr, &carried).unwrap();
            assert_eq!(out4.assignment, nested.assignment);
            assert_eq!(out4.duals, nested.duals);
        }
    }

    #[test]
    fn scaled_runs_match_the_sync_engine() {
        let inst = contended_instance(10);
        let csr = CsrInstance::compile(&inst);
        let scaling = EpsilonScaling { initial: 4.0, decay: 4.0, final_epsilon: 0.01 };
        let sync = SyncAuction::default().run_scaled(&inst, scaling).unwrap();
        let mut flat = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1));
        let out = flat.run_scaled(&csr, scaling).unwrap();
        assert_eq!(out.assignment, sync.assignment);
        assert_eq!(out.duals, sync.duals);
        assert_eq!(out.bids_submitted, sync.bids_submitted);
        assert!(FlatAuction::default()
            .run_scaled(&csr, EpsilonScaling { initial: 0.0, decay: 4.0, final_epsilon: 1e-6 })
            .is_err());
    }

    #[test]
    fn forced_worker_threads_match_the_inline_path() {
        let inst = contended_instance(64);
        let csr = CsrInstance::compile(&inst);
        let cfg = AuctionConfig::with_epsilon(0.01);
        let mut inline = FlatAuction::new(cfg, ShardCount::Fixed(4)).with_workers(1);
        let mut threaded = FlatAuction::new(cfg, ShardCount::Fixed(4)).with_workers(3);
        let (a, a_trace) = traced(&mut inline, &csr);
        let (b, b_trace) = traced(&mut threaded, &csr);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.duals, b.duals);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.bids_submitted, b.bids_submitted);
        assert!(!a_trace.is_empty());
        assert_eq!(a_trace, b_trace);
        // The lease persists: a second run reuses the same workers.
        let c = threaded.run(&csr).unwrap();
        assert_eq!(a.assignment, c.assignment);
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
    /// engine of the same schedule), price traces and warm starts included.
    #[test]
    fn kernel_and_scalar_paths_are_bit_identical_end_to_end() {
        for (shards, eps) in [(1usize, 0.0), (1, 0.01), (4, 0.0), (4, 0.01)] {
            let inst = contended_instance(40);
            let csr = CsrInstance::compile(&inst);
            let cfg = AuctionConfig::with_epsilon(eps);
            let mut lanes = FlatAuction::new(cfg, ShardCount::Fixed(shards));
            let (a, a_trace) = traced(&mut lanes, &csr);
            let mut b_trace = PriceRecorder::new();
            let (b, bw) = if shards == 1 {
                let sync = SyncAuction::new(cfg);
                let b = sync.run_probed(&inst, &mut b_trace).unwrap();
                let bw = sync.run_warm(&inst, &b.duals.lambda).unwrap();
                (b, bw)
            } else {
                let sharded = ShardedAuction::new(cfg, ShardCount::Fixed(shards));
                let b = sharded.run_probed(&inst, &mut b_trace).unwrap();
                let bw = sharded.run_warm(&inst, &b.duals.lambda).unwrap();
                (b, bw)
            };
            assert_eq!(a.assignment, b.assignment, "shards={shards} eps={eps}");
            assert_eq!(a.duals, b.duals, "shards={shards} eps={eps}");
            assert_eq!(a.rounds, b.rounds, "shards={shards} eps={eps}");
            assert_eq!(a.bids_submitted, b.bids_submitted, "shards={shards} eps={eps}");
            assert_eq!(a_trace, b_trace.points, "shards={shards} eps={eps}");
            // Warm starts agree too.
            let aw = lanes.run_warm(&csr, &a.duals.lambda).unwrap();
            assert_eq!(aw.assignment, bw.assignment, "warm shards={shards} eps={eps}");
            assert_eq!(aw.duals, bw.duals, "warm shards={shards} eps={eps}");
            assert_eq!(aw.rounds, bw.rounds, "warm shards={shards} eps={eps}");
            assert_eq!(aw.bids_submitted, bw.bids_submitted, "warm shards={shards} eps={eps}");
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
        assert_eq!(flat.scratch.entry_bid.len(), 3);
        assert_eq!(flat.scratch.entry_seq.len(), 3);
        assert_eq!(flat.scratch.entry_req.len(), 3);
    }
}
