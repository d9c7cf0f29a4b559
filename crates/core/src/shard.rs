//! Sharded parallel execution of the auction: per-shard bid batches merged
//! through the unchanged auctioneer logic, with permanent retirement of
//! priced-out requests.
//!
//! [`crate::engine::SyncAuction`] is a Gauss–Seidel sweep: one thread walks
//! the unassigned requests in index order and every bid updates prices
//! immediately. That is the simplest *sequential* schedule, but it cannot
//! use more than one core and it re-scans every open request each round
//! even when nothing they can see has changed. [`ShardedAuction`]
//! runs the *same* bidder and auctioneer logic
//! ([`crate::bidder::decide_bid`], [`crate::auctioneer::Auctioneer`]) in a
//! schedule built for 10³–10⁴-request slots:
//!
//! 1. **Shard bidding.** Each round partitions the active requests into
//!    `shards` contiguous slices. One slice at a time, every request in the
//!    slice computes its bid against a read-only snapshot of the current
//!    prices — a pure function, so when the machine has cores to spare the
//!    slice fans out across `min(shards, cores)` worker threads (with one
//!    core it runs on the calling thread — identical results either way,
//!    see *Determinism* below).
//! 2. **Batched merge per shard.** A slice's bids are applied through the
//!    unchanged [`Auctioneer`] state machine
//!    in one deterministic pass, sorted by descending amount (conflicts on
//!    the same provider resolve toward the highest bid; its price then
//!    rejects the stale lower bids, exactly as a real asynchronous
//!    auctioneer would). Because slices merge *in order*, later shards of
//!    the round bid against fresh prices — a block-Gauss–Seidel schedule —
//!    and a bounded number of same-round retry passes lets evicted and
//!    rejected requests re-decide immediately instead of waiting a full
//!    round, so batching does not inflate the bid-round count.
//! 3. **Retirement.** Prices are monotone within a run, so a request whose
//!    best net utility has gone negative can never become profitable again
//!    — it is dropped from all future rounds, by the same rule the
//!    synchronous sweep applies. On contended slots (where a large share of
//!    demand ends up priced out, e.g. a flash crowd over scarce seeds) this
//!    pruning shrinks every later round's worklist. `BENCH_parallel.json`
//!    records the measured per-slot latencies.
//!
//! # Optimality
//!
//! The Theorem 1 argument is execution-order-free: it only needs bids to be
//! validated against the auctioneer's *current* price (stale bids are
//! rejected and retried, as in the message-level engine) and prices to rise
//! monotonically. Both hold here, so a converged run satisfies the same
//! `n·ε` certificate as the synchronous engine — exact optimality at ε = 0
//! on tie-free instances, welfare within `n·ε` for ε > 0. Debug builds
//! re-verify the certificate with [`crate::verify_optimality`] after every
//! converged ε > 0 run. Warm starts compose: [`ShardedAuction::run_warm`]
//! reuses the synchronous engine's price clamping and CS 1 repair loop, so
//! slot-to-slot carried prices keep the certificate too.
//!
//! # Determinism
//!
//! A slice's bids depend only on the price snapshot at its merge boundary
//! (worklists are partitioned by *shard count*, never by thread count), and
//! each merge applies them in a total order (amount descending, request
//! index ascending) — so the outcome is a pure function of the instance,
//! the configuration, and the shard count. It does *not* depend on the
//! number of worker threads, the machine's core count, or thread
//! scheduling: `ShardCount::Fixed(8)` produces bit-identical outcomes on a
//! laptop and a 64-core server. Different shard counts are different (all
//! certified) merge batchings of the same auction, `1` being exactly the
//! sequential engine.
//!
//! # Examples
//!
//! ```
//! use p2p_core::{AuctionConfig, ShardCount, ShardedAuction, SyncAuction, WelfareInstance};
//! use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};
//!
//! let mut b = WelfareInstance::builder();
//! let u = b.add_provider(PeerId::new(9), 1);
//! for d in 0..3 {
//!     let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), 0)));
//!     b.add_edge(r, u, Valuation::new(5.0 - f64::from(d)), Cost::new(1.0)).unwrap();
//! }
//! let inst = b.build().unwrap();
//!
//! let sharded = ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4));
//! let out = sharded.run(&inst).unwrap();
//! let sync = SyncAuction::new(AuctionConfig::paper()).run(&inst).unwrap();
//! assert_eq!(out.assignment.welfare(&inst), sync.assignment.welfare(&inst));
//! ```

use crate::auctioneer::{Auctioneer, BidOutcome};
use crate::bidder::{decide_bid, BidDecision, EdgeView};
use crate::engine::SyncAuction;
use crate::engine::{edge_views, final_prices, run_warm_with, AuctionConfig, AuctionOutcome};
use crate::instance::WelfareInstance;
use crate::solution::{Assignment, DualSolution};
use p2p_metrics::{AuctionProbe, NoProbe};
use p2p_types::{P2pError, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Arc;

/// How many shards a [`ShardedAuction`] partitions its bidding across.
///
/// The shard count selects the *algorithm* (1 = the sequential Gauss–Seidel
/// sweep, ≥ 2 = batched per-shard merges); the number of OS worker threads
/// actually used is `min(shards, available cores)`, so a sharded
/// configuration never oversubscribes a small machine and a fixed `shards`
/// produces identical results everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardCount {
    /// One shard per available core (what a deployment wants).
    #[default]
    Auto,
    /// Exactly `n` shards (reproducible benchmarking and tests).
    Fixed(usize),
}

impl ShardCount {
    /// The CLI/spec name of this count (`auto` or the number).
    pub fn name(self) -> String {
        match self {
            ShardCount::Auto => "auto".to_string(),
            ShardCount::Fixed(n) => n.to_string(),
        }
    }

    /// Parses a CLI/spec value: `auto` or a positive integer.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for anything else (including 0).
    pub fn from_name(name: &str) -> Result<Self, P2pError> {
        if name == "auto" {
            return Ok(ShardCount::Auto);
        }
        match name.parse::<usize>() {
            Ok(n) if n > 0 => Ok(ShardCount::Fixed(n)),
            _ => Err(P2pError::invalid_config(
                "shards",
                format!("expected `auto` or a positive integer, got `{name}`"),
            )),
        }
    }

    /// Validates the count (`Fixed(0)` is rejected).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::InvalidConfig`] for `Fixed(0)`.
    pub fn validate(self) -> Result<(), P2pError> {
        match self {
            ShardCount::Fixed(0) => {
                Err(P2pError::invalid_config("shards", "must be positive (or `auto`)"))
            }
            _ => Ok(()),
        }
    }

    /// The ceiling `Auto` may resolve to: the pinnable core count of
    /// [`available_cores`]. Use [`ShardCount::resolve_for`] to pick the
    /// count for an actual slot.
    pub fn resolve(self) -> usize {
        match self {
            ShardCount::Auto => available_cores(),
            ShardCount::Fixed(n) => n.max(1),
        }
    }

    /// Requests per shard below which extra shards stop paying for their
    /// merge boundaries: `Auto` never slices finer than this.
    pub const AUTO_REQUESTS_PER_SHARD: usize = 256;

    /// The concrete shard count for a slot with `requests` active requests.
    ///
    /// `Fixed(n)` is always `n`. `Auto` adapts to the live slot size (the
    /// ROADMAP's adaptive-shard follow-on): small slots run the sequential
    /// Gauss–Seidel sweep (`1` — batching overhead would dominate), and the
    /// count grows with the slot, one shard per
    /// [`ShardCount::AUTO_REQUESTS_PER_SHARD`] requests, capped at the
    /// machine's cores — so a 10³–10⁴-request flash crowd lands at ~cores.
    /// The result depends only on the request count and the machine, never
    /// on thread scheduling, so `Auto` outcomes stay reproducible per
    /// machine.
    pub fn resolve_for(self, requests: usize) -> usize {
        match self {
            ShardCount::Fixed(n) => n.max(1),
            ShardCount::Auto => {
                let shards = requests / Self::AUTO_REQUESTS_PER_SHARD;
                if shards <= 1 {
                    1
                } else {
                    shards.min(Self::Auto.resolve())
                }
            }
        }
    }
}

/// The core count every shard resolution and worker fan-out in the
/// workspace consults — the **single** entry point (via
/// [`ShardCount::resolve_for`] and the engines' worker sizing) where
/// `available_parallelism` is read, so a shard-count decision can never
/// observe a different machine than the pool it fans out to.
///
/// Pinnable for reproducible bench and CI runs: set `P2P_CORES` to a
/// positive integer and every engine, scheduler and bench binary resolves
/// against that count instead of the machine's. Unset (or invalid), it
/// falls back to [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_cores() -> usize {
    match std::env::var("P2P_CORES") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => machine_cores(),
        },
        Err(_) => machine_cores(),
    }
}

/// The machine's own core count (the `P2P_CORES`-less fallback).
fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One bid computed by a shard against the round's price snapshot.
#[derive(Debug, Clone, Copy)]
struct ShardBid {
    amount: f64,
    request: usize,
    edge: usize,
    provider: usize,
}

/// A round's compute phase: fills a [`SliceResult`] for a worklist against
/// a price snapshot (sequential or fanned out to worker threads).
type RoundExec<'a> = dyn FnMut(&[usize], &[f64], &mut SliceResult) + 'a;

/// What one shard computed for its slice of the round's worklist.
#[derive(Debug, Default)]
struct SliceResult {
    bids: Vec<ShardBid>,
    /// Requests whose best net utility went negative (or that have no
    /// candidates): permanently retired, since prices only rise.
    retired: Vec<usize>,
}

/// The sharded parallel auction engine. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct ShardedAuction {
    config: AuctionConfig,
    shards: ShardCount,
    /// Test/bench override for the OS worker-thread count (normally
    /// `min(shards, cores)`).
    workers: Option<usize>,
}

impl ShardedAuction {
    /// Creates an engine with the given auction configuration and shard
    /// count.
    pub fn new(config: AuctionConfig, shards: ShardCount) -> Self {
        ShardedAuction { config, shards, workers: None }
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

    /// Forces the OS worker-thread count regardless of the machine's core
    /// count (builder-style). Results are unaffected — this exists so tests
    /// and benches can exercise the threaded compute path on any machine.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Runs the auction to convergence on `instance`.
    ///
    /// With an effective shard count of 1 this delegates to
    /// [`SyncAuction::run`] (bit-identical to the sequential engine);
    /// otherwise it runs Jacobi rounds as described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if quiescence is not reached
    /// within `max_rounds`.
    pub fn run(&self, instance: &WelfareInstance) -> Result<AuctionOutcome, P2pError> {
        self.run_probed(instance, &mut NoProbe)
    }

    /// [`ShardedAuction::run`] with an observation probe. The engine is
    /// generic over the probe, so `run` (which passes [`NoProbe`])
    /// monomorphizes to the uninstrumented loop — outcomes are
    /// bit-identical either way (property-tested).
    pub fn run_probed(
        &self,
        instance: &WelfareInstance,
        probe: &mut impl AuctionProbe,
    ) -> Result<AuctionOutcome, P2pError> {
        let shards = self.shards.resolve_for(instance.request_count());
        if shards <= 1 {
            return SyncAuction::new(self.config).run_probed(instance, probe);
        }
        let outcome = self.run_from(instance, None, self.config.epsilon, shards, probe)?;
        self.debug_verify(instance, &outcome);
        Ok(outcome)
    }

    /// Runs the auction warm-started from `prior_prices`, with exactly the
    /// price clamping and CS 1 repair-loop semantics of
    /// [`SyncAuction::run_warm`] (the two engines share the implementation),
    /// so slot-to-slot carried prices preserve the `n·ε` certificate.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    pub fn run_warm(
        &self,
        instance: &WelfareInstance,
        prior_prices: &[f64],
    ) -> Result<AuctionOutcome, P2pError> {
        self.run_warm_probed(instance, prior_prices, &mut NoProbe)
    }

    /// [`ShardedAuction::run_warm`] with an observation probe (every CS 1
    /// repair pass reports into the same probe).
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::AuctionDiverged`] if any pass exceeds
    /// `max_rounds`.
    pub fn run_warm_probed(
        &self,
        instance: &WelfareInstance,
        prior_prices: &[f64],
        probe: &mut impl AuctionProbe,
    ) -> Result<AuctionOutcome, P2pError> {
        let shards = self.shards.resolve_for(instance.request_count());
        if shards <= 1 {
            return SyncAuction::new(self.config).run_warm_probed(instance, prior_prices, probe);
        }
        let eps = self.config.epsilon;
        let outcome = run_warm_with(instance, prior_prices, eps, |prices| {
            self.run_from(instance, prices, eps, shards, &mut *probe)
        })?;
        self.debug_verify(instance, &outcome);
        Ok(outcome)
    }

    /// Debug-build self-check: re-verify the Theorem 1 certificate after
    /// every converged run. Skipped at ε = 0, where the paper's abstain-on-
    /// ties rule legitimately leaves tied welfare on the table (same caveat
    /// as the synchronous engine).
    fn debug_verify(&self, instance: &WelfareInstance, outcome: &AuctionOutcome) {
        if cfg!(debug_assertions) && self.config.epsilon >= crate::bidder::MIN_INCREMENT {
            let tol = self.config.epsilon * (instance.request_count() as f64 + 1.0);
            let report = crate::verify::verify_optimality(
                instance,
                &outcome.assignment,
                &outcome.duals,
                tol,
            );
            debug_assert!(
                report.is_optimal(),
                "sharded auction lost its certificate: {:?}",
                report.violations
            );
        }
    }

    /// Core Jacobi engine: optional warm-start prices, explicit ε. Only
    /// called with an effective (slot-resolved) shard count ≥ 2.
    fn run_from<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        initial_prices: Option<&[f64]>,
        epsilon: f64,
        shards: usize,
        probe: &mut P,
    ) -> Result<AuctionOutcome, P2pError> {
        let shards = shards.max(2);
        let workers =
            self.workers.unwrap_or_else(|| shards.min(available_cores())).max(1).min(shards);
        let views = edge_views(instance);
        if workers <= 1 {
            // Single worker: compute each slice on the calling thread. The
            // outcome is identical to the threaded path because a slice's
            // bids are a pure function of (slice, snapshot) and the merge
            // sorts them into a total order.
            let mut exec = |slice: &[usize], prices: &[f64], out: &mut SliceResult| {
                compute_slice(&views, slice, prices, epsilon, out);
            };
            return self.rounds_loop(instance, initial_prices, shards, &mut exec, probe);
        }
        // Per-run worker threads: spawned lazily on the first slice large
        // enough to fan out (small runs never pay a spawn), parked on a
        // channel between slices, joined once at the end of the run by the
        // scope.
        std::thread::scope(|scope| {
            type Cmd = (usize, Vec<usize>, Arc<Vec<f64>>);
            let (res_tx, res_rx) = mpsc::channel::<(usize, SliceResult)>();
            let mut cmd_txs: Vec<mpsc::Sender<Cmd>> = Vec::new();
            let views = &views;
            let mut exec = |slice: &[usize], prices: &[f64], out: &mut SliceResult| {
                // Small slices are not worth a round-trip through the
                // workers; the threshold only affects wall-time, never the
                // result (bids are a pure function of the snapshot).
                if slice.len() < 2 * workers {
                    compute_slice(views, slice, prices, epsilon, out);
                    return;
                }
                if cmd_txs.is_empty() {
                    for _ in 0..workers {
                        let (tx, rx) = mpsc::channel::<Cmd>();
                        cmd_txs.push(tx);
                        let res_tx = res_tx.clone();
                        scope.spawn(move || {
                            while let Ok((idx, chunk, prices)) = rx.recv() {
                                let mut out = SliceResult::default();
                                compute_slice(views, &chunk, &prices, epsilon, &mut out);
                                if res_tx.send((idx, out)).is_err() {
                                    break;
                                }
                            }
                        });
                    }
                }
                let snapshot = Arc::new(prices.to_vec());
                let per = slice.len().div_ceil(workers).max(1);
                let mut active = 0usize;
                for (w, chunk) in slice.chunks(per).enumerate() {
                    // Unreachable send error: workers outlive the slice.
                    let _ = cmd_txs[w].send((w, chunk.to_vec(), snapshot.clone()));
                    active += 1;
                }
                // Reassemble in chunk order so the merge input — and with it
                // every outcome field, including the price trajectory of
                // merges whose sort is skipped — is independent of thread
                // timing.
                let mut parts: Vec<Option<SliceResult>> = (0..active).map(|_| None).collect();
                for _ in 0..active {
                    let (idx, part) = res_rx.recv().expect("workers outlive the slice");
                    parts[idx] = Some(part);
                }
                for part in parts.into_iter().flatten() {
                    out.bids.extend_from_slice(&part.bids);
                    out.retired.extend_from_slice(&part.retired);
                }
            };
            self.rounds_loop(instance, initial_prices, shards, &mut exec, probe)
            // Dropping `cmd_txs` here ends the worker loops; the scope joins
            // them before returning.
        })
    }

    /// The round loop shared by the sequential and threaded compute paths:
    /// `exec` fills a [`SliceResult`] with one slice's bids (and retired
    /// requests) against the given price snapshot; this loop partitions
    /// each round's worklist into `shards` slices and merges them in order.
    fn rounds_loop<P: AuctionProbe>(
        &self,
        instance: &WelfareInstance,
        initial_prices: Option<&[f64]>,
        shards: usize,
        exec: &mut RoundExec<'_>,
        probe: &mut P,
    ) -> Result<AuctionOutcome, P2pError> {
        let request_count = instance.request_count();
        let mut auctioneers: Vec<Auctioneer> = instance
            .providers()
            .iter()
            .enumerate()
            .map(|(u, p)| {
                let warm = initial_prices
                    .and_then(|ps| ps.get(u).copied())
                    .filter(|w| w.is_finite() && *w >= 0.0)
                    .unwrap_or(0.0);
                if p.capacity.is_zero() {
                    Auctioneer::new(0)
                } else {
                    Auctioneer::with_price(p.capacity.chunks_per_slot(), warm)
                }
            })
            .collect();
        let mut eff_price: Vec<f64> = instance
            .providers()
            .iter()
            .enumerate()
            .map(|(u, p)| if p.capacity.is_zero() { f64::INFINITY } else { auctioneers[u].price() })
            .collect();
        let mut assigned: Vec<Option<usize>> = vec![None; request_count];
        let mut retired: Vec<bool> = vec![false; request_count];
        let mut worklist: Vec<usize> = (0..request_count).collect();
        // Slice-generation marks for the collision check (one generation
        // per merged batch, no clearing).
        let mut collision_mark: Vec<u64> = vec![0; instance.provider_count()];
        let mut rounds_mark: u64 = 1;
        let mut result = SliceResult::default();
        let mut rounds = 0u64;
        let mut bids_submitted = 0u64;

        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(P2pError::AuctionDiverged { iterations: rounds - 1 });
            }
            let mut round_bids = 0u64;
            let mut round_conflicts = 0u64;
            let mut round_retired = 0u64;
            // The first round is the contended one: no prices exist yet, so
            // every request bids and conflicts concentrate there. Finer
            // batching in round 1 resolves them with fresh prices sooner
            // (still deterministic — the factor depends only on the round).
            let batches = if rounds == 1 { shards * 4 } else { shards };
            let chunk = worklist.len().div_ceil(batches).max(1);
            // Same-round retry passes: requests evicted or rejected by a
            // merge re-decide at the end of the round against the freshest
            // prices, so eviction chains resolve without waiting a full
            // round (the synchronous sweep gets the same effect for free
            // when the evictee's index lies after the sweep position). The
            // pass budget keeps `max_rounds` a real divergence guard:
            // leftover work simply lands in the next round's worklist.
            const MAX_RETRY_PASSES: u32 = 64;
            let mut retry_passes = 0u32;
            let mut spill: Vec<usize> = Vec::new();
            let mut retry: Vec<usize> = Vec::new();
            let mut slices = worklist.chunks(chunk);
            loop {
                let slice: &[usize] = match slices.next() {
                    Some(s) => s,
                    None if !spill.is_empty() && retry_passes < MAX_RETRY_PASSES => {
                        retry_passes += 1;
                        retry.clear();
                        retry.extend(
                            spill.drain(..).filter(|&r| assigned[r].is_none() && !retired[r]),
                        );
                        if retry.is_empty() {
                            break;
                        }
                        &retry
                    }
                    None => break,
                };
                result.bids.clear();
                result.retired.clear();
                exec(slice, &eff_price, &mut result);
                for &r in &result.retired {
                    retired[r] = true;
                }
                round_retired += result.retired.len() as u64;
                if result.bids.is_empty() {
                    continue;
                }
                round_bids += result.bids.len() as u64;
                // Batched merge: highest bid first; ties (impossible on the
                // same request) break toward the lower request index, making
                // the order total and the outcome deterministic. Later
                // slices of this round then bid against the merged prices —
                // the block-Gauss–Seidel schedule. (Positive finite floats
                // sort correctly by their IEEE bit patterns, and bids are
                // always positive.) When no two bids target the same
                // provider the applications commute, so the sort is skipped.
                let mut colliding = false;
                for bid in &result.bids {
                    if collision_mark[bid.provider] == rounds_mark {
                        colliding = true;
                        break;
                    }
                    collision_mark[bid.provider] = rounds_mark;
                }
                rounds_mark += 1;
                if colliding {
                    result.bids.sort_unstable_by_key(|b| {
                        (std::cmp::Reverse(b.amount.to_bits()), b.request)
                    });
                }
                for bid in &result.bids {
                    match auctioneers[bid.provider].handle_bid(bid.request, bid.amount) {
                        BidOutcome::Rejected { .. } => {
                            // A same-slice higher bid beat this one to the
                            // provider; retry in the spill pass (and, if it
                            // loses again, in the next round's worklist).
                            spill.push(bid.request);
                            round_conflicts += 1;
                        }
                        BidOutcome::Accepted { evicted, new_price } => {
                            assigned[bid.request] = Some(bid.edge);
                            if let Some(loser) = evicted {
                                // Retry in the spill pass; the worklist
                                // rebuild below catches later generations.
                                assigned[loser] = None;
                                spill.push(loser);
                                round_conflicts += 1;
                            }
                            if let Some(p) = new_price {
                                probe.price_change(
                                    bid.provider,
                                    eff_price[bid.provider],
                                    p,
                                    SimTime::ZERO,
                                );
                                eff_price[bid.provider] = p;
                            }
                        }
                    }
                }
            }
            // The assignment vector and the auctioneer sets must stay in
            // lock-step; a desync would silently corrupt capacities.
            debug_assert_eq!(
                assigned.iter().flatten().count(),
                auctioneers.iter().map(Auctioneer::assigned_len).sum::<usize>(),
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
                break;
            }
            // Next round's worklist: everything still alive — unassigned
            // and not retired. Rebuilt from the flags, so evicted requests
            // re-enter and newly retired ones drop out, in ascending order
            // (deterministic partition).
            worklist.clear();
            worklist.extend((0..request_count).filter(|&r| assigned[r].is_none() && !retired[r]));
            if worklist.is_empty() {
                break;
            }
        }

        let lambda = final_prices(instance, &auctioneers);
        let outcome = AuctionOutcome {
            assignment: Assignment::new(assigned),
            duals: DualSolution::from_prices(instance, lambda),
            rounds,
            bids_submitted,
            converged: true,
        };
        if probe.enabled() {
            // Theorem 1's certificate (dual − primal); only computed when
            // someone is listening.
            let slack =
                outcome.duals.objective(instance) - outcome.assignment.welfare(instance).get();
            probe.run_complete(
                outcome.rounds,
                outcome.bids_submitted,
                outcome.assignment.assigned_count() as u64,
                slack,
            );
        }
        Ok(outcome)
    }
}

/// Computes one slice's bids against a read-only price snapshot — the pure
/// function at the heart of the sharded schedule (safe to fan out across
/// worker threads in any chunking).
fn compute_slice(
    views: &[Vec<EdgeView>],
    slice: &[usize],
    prices: &[f64],
    epsilon: f64,
    out: &mut SliceResult,
) {
    for &r in slice {
        match decide_bid(&views[r], |p| prices[p], epsilon) {
            BidDecision::Bid { edge, provider, amount } => {
                out.bids.push(ShardBid { amount, request: r, edge, provider });
            }
            BidDecision::Abstain { reason } => match reason {
                // Prices are monotone within a run, so a request that is
                // unprofitable (or candidate-less) now stays so forever.
                crate::bidder::AbstainReason::Unprofitable
                | crate::bidder::AbstainReason::NoCandidates => out.retired.push(r),
                // A zero-margin tie can be broken by a *second-best* price
                // rise; the listener wake-up covers that.
                crate::bidder::AbstainReason::ZeroMargin => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_optimality;
    use p2p_metrics::PriceRecorder;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    /// A deterministic hash in [0, 1) — varied enough that the generated
    /// instance is tie-free (no two net utilities or margins coincide).
    fn unit(seed: u64) -> f64 {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A contended instance: 12 requests over 3 providers with 5 total
    /// units, continuous pseudo-random values (tie-free).
    fn contended_instance() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let us: Vec<_> = [2u32, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &c)| b.add_provider(PeerId::new(100 + i as u32), c))
            .collect();
        for d in 0..12u64 {
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
    fn sharded_matches_exact_optimum_on_tie_free_instance() {
        let inst = contended_instance();
        let out =
            ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4)).run(&inst).unwrap();
        assert!(out.converged);
        assert!((out.assignment.welfare(&inst).get() - inst.optimal_welfare().get()).abs() < 1e-6);
        assert!(out.assignment.validate(&inst).is_ok());
        let report = verify_optimality(&inst, &out.assignment, &out.duals, 1e-7);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn every_shard_count_stays_within_the_bertsekas_bound() {
        let eps = 0.01;
        let inst = contended_instance();
        let exact = inst.optimal_welfare().get();
        let bound = inst.request_count() as f64 * eps + 1e-9;
        for n in [2, 3, 8, 64] {
            let out = ShardedAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(n))
                .run(&inst)
                .unwrap();
            assert!(
                out.assignment.welfare(&inst).get() >= exact - bound,
                "shards={n}: {} vs exact {exact}",
                out.assignment.welfare(&inst).get()
            );
            let report = verify_optimality(&inst, &out.assignment, &out.duals, eps * 13.0);
            assert!(report.is_optimal(), "shards={n}: {:?}", report.violations);
        }
    }

    #[test]
    fn outcomes_are_reproducible_per_shard_count() {
        let inst = contended_instance();
        let run = || {
            ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(4))
                .run(&inst)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.duals, b.duals);
        assert_eq!(a.bids_submitted, b.bids_submitted);
    }

    #[test]
    fn one_shard_delegates_to_the_sync_engine() {
        let inst = contended_instance();
        let sharded = ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(1))
            .run(&inst)
            .unwrap();
        let sync = SyncAuction::new(AuctionConfig::with_epsilon(0.01)).run(&inst).unwrap();
        assert_eq!(sharded.assignment, sync.assignment);
        assert_eq!(sharded.duals, sync.duals);
        assert_eq!(sharded.bids_submitted, sync.bids_submitted);
    }

    #[test]
    fn forced_worker_threads_match_the_sequential_path() {
        let inst = contended_instance();
        let base = ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(4));
        let (mut seq_trace, mut thr_trace) = (PriceRecorder::new(), PriceRecorder::new());
        let sequential = base.clone().with_workers(1).run_probed(&inst, &mut seq_trace).unwrap();
        let threaded = base.with_workers(3).run_probed(&inst, &mut thr_trace).unwrap();
        assert_eq!(sequential.assignment, threaded.assignment);
        assert_eq!(sequential.duals, threaded.duals);
        assert_eq!(sequential.rounds, threaded.rounds);
        assert_eq!(sequential.bids_submitted, threaded.bids_submitted);
        // Including the price trajectory: merge input order must not depend
        // on thread timing even for batches whose sort is skipped.
        assert!(!seq_trace.points.is_empty());
        assert_eq!(seq_trace, thr_trace);
    }

    #[test]
    fn warm_start_composes_with_sharding() {
        let eps = 0.01;
        let inst = contended_instance();
        let engine = ShardedAuction::new(AuctionConfig::with_epsilon(eps), ShardCount::Fixed(4));
        let cold = engine.run(&inst).unwrap();
        let warm = engine.run_warm(&inst, &cold.duals.lambda).unwrap();
        assert_eq!(warm.assignment.welfare(&inst), cold.assignment.welfare(&inst));
        assert!(warm.bids_submitted <= cold.bids_submitted);
        let tol = eps * (inst.request_count() as f64 + 1.0);
        let report = verify_optimality(&inst, &warm.assignment, &warm.duals, tol);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn warm_start_repairs_unsupported_prices_like_sync() {
        let inst = contended_instance();
        let engine = ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4));
        let warm = engine.run_warm(&inst, &[1e6, 1e6, 1e6]).unwrap();
        let report = verify_optimality(&inst, &warm.assignment, &warm.duals, 1e-7);
        assert!(report.is_optimal(), "{:?}", report.violations);
    }

    #[test]
    fn empty_instance_converges_immediately() {
        let inst = WelfareInstance::builder().build().unwrap();
        let out =
            ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4)).run(&inst).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bids_submitted, 0);
    }

    #[test]
    fn epsilon_resolves_ties_within_the_bertsekas_bound() {
        // Twin requests over twin providers: ε = 0 abstains, ε > 0 serves
        // both within n·ε — mirroring the sync engine's behavior.
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(100), 1);
        let u1 = b.add_provider(PeerId::new(101), 1);
        for d in 0..2 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
            b.add_edge(r, u1, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        }
        let inst = b.build().unwrap();
        let stalled =
            ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(2)).run(&inst).unwrap();
        assert_eq!(stalled.assignment.assigned_count(), 0);
        let out = ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(2))
            .run(&inst)
            .unwrap();
        assert_eq!(out.assignment.assigned_count(), 2);
        assert!(out.assignment.welfare(&inst).get() >= inst.optimal_welfare().get() - 0.02);
    }

    #[test]
    fn retired_requests_are_not_rescanned() {
        // One provider, one profitable and many unprofitable requests: the
        // unprofitable ones must be retired in round 1, so total bids stay
        // tiny even though prices keep changing.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(9), 1);
        let good0 = b.add_request(rid(0, 0));
        b.add_edge(good0, u, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        let good1 = b.add_request(rid(1, 0));
        b.add_edge(good1, u, Valuation::new(5.0), Cost::new(1.0)).unwrap();
        for d in 2..40 {
            let r = b.add_request(rid(d, 0));
            b.add_edge(r, u, Valuation::new(1.0), Cost::new(2.0)).unwrap();
        }
        let inst = b.build().unwrap();
        let out =
            ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(4)).run(&inst).unwrap();
        assert_eq!(out.assignment.assigned_count(), 1);
        assert!(
            out.bids_submitted <= 4,
            "retirement must cap rebidding, got {}",
            out.bids_submitted
        );
    }

    #[test]
    fn price_trace_is_monotone_per_provider() {
        let inst = contended_instance();
        let mut trace = PriceRecorder::new();
        ShardedAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(4))
            .run_probed(&inst, &mut trace)
            .unwrap();
        assert!(!trace.points.is_empty());
        let mut last = vec![0.0; inst.provider_count()];
        for pc in &trace.points {
            assert!(pc.price >= last[pc.provider]);
            last[pc.provider] = pc.price;
        }
    }

    #[test]
    fn divergence_guard_fires_with_tiny_round_budget() {
        let inst = contended_instance();
        let cfg = AuctionConfig { max_rounds: 0, ..AuctionConfig::paper() };
        let err = ShardedAuction::new(cfg, ShardCount::Fixed(2)).run(&inst).unwrap_err();
        assert!(matches!(err, P2pError::AuctionDiverged { .. }));
    }

    #[test]
    fn shard_count_parses_and_validates() {
        assert_eq!(ShardCount::from_name("auto").unwrap(), ShardCount::Auto);
        assert_eq!(ShardCount::from_name("4").unwrap(), ShardCount::Fixed(4));
        assert!(ShardCount::from_name("0").is_err());
        assert!(ShardCount::from_name("many").is_err());
        assert_eq!(ShardCount::Fixed(8).name(), "8");
        assert_eq!(ShardCount::Auto.name(), "auto");
        assert!(ShardCount::Fixed(0).validate().is_err());
        assert!(ShardCount::Auto.validate().is_ok());
        assert!(ShardCount::Auto.resolve() >= 1);
        assert_eq!(ShardCount::Fixed(5).resolve(), 5);
        assert_eq!(ShardCount::default(), ShardCount::Auto);
    }

    #[test]
    fn auto_adapts_to_live_slot_size() {
        let per = ShardCount::AUTO_REQUESTS_PER_SHARD;
        // Small slots run the sequential sweep.
        assert_eq!(ShardCount::Auto.resolve_for(0), 1);
        assert_eq!(ShardCount::Auto.resolve_for(per - 1), 1);
        assert_eq!(ShardCount::Auto.resolve_for(2 * per - 1), 1);
        // Flash-crowd slots grow toward the core count.
        let cores = ShardCount::Auto.resolve();
        assert_eq!(ShardCount::Auto.resolve_for(4 * per), 4.min(cores));
        assert_eq!(ShardCount::Auto.resolve_for(10_000 * per), cores);
        // Fixed counts ignore the slot size.
        assert_eq!(ShardCount::Fixed(3).resolve_for(1), 3);
        assert_eq!(ShardCount::Fixed(0).resolve_for(1_000_000), 1);
    }

    #[test]
    fn zero_capacity_providers_are_ignored() {
        let mut b = WelfareInstance::builder();
        let dead = b.add_provider(PeerId::new(9), 0);
        let live = b.add_provider(PeerId::new(10), 1);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, dead, Valuation::new(8.0), Cost::new(0.0)).unwrap();
        b.add_edge(r, live, Valuation::new(8.0), Cost::new(2.0)).unwrap();
        let inst = b.build().unwrap();
        let out =
            ShardedAuction::new(AuctionConfig::paper(), ShardCount::Fixed(2)).run(&inst).unwrap();
        assert_eq!(out.assignment.provider_of(&inst, 0), Some(live));
        assert!(out.duals.validate(&inst, 1e-9).is_ok());
    }
}
