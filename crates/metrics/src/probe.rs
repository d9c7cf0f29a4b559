//! The auction probe API: zero-cost-when-off engine instrumentation.
//!
//! Engines thread a generic `&mut impl AuctionProbe` through their round
//! loops. [`AuctionProbe`]'s methods all have empty default bodies and
//! [`AuctionProbe::enabled`] defaults to `false`, so the disabled probe
//! ([`NoProbe`]) monomorphizes to nothing: the hot path compiles exactly as
//! before — no branches, no allocation, no counter traffic (the zero-alloc
//! counting-allocator suite runs against this path). [`CountingProbe`] is
//! the enabled implementation: plain counters plus two bounded-memory
//! [`Histogram`]s, snapshotted into an [`EngineReport`] per slot.
//!
//! # Examples
//!
//! ```
//! use p2p_metrics::{AuctionProbe, CountingProbe, NoProbe};
//!
//! fn engine_round(probe: &mut impl AuctionProbe) {
//!     // ...auction work...
//!     probe.round(1, 10, 2, 0, 1);
//! }
//!
//! engine_round(&mut NoProbe); // compiles to the bare loop
//! let mut probe = CountingProbe::new();
//! engine_round(&mut probe);
//! assert_eq!(probe.report().bids, 10);
//! ```

use crate::histogram::Histogram;
use p2p_types::SimTime;
use serde::{Deserialize, Serialize};

/// Per-round observation hooks for the auction engines. Every method has a
/// no-op default so a disabled probe costs nothing (see the
/// [module docs](self)).
pub trait AuctionProbe {
    /// Whether the probe is live. Engines gate *extra computation* (e.g.
    /// the ε-certificate slack) on this; plain counter reporting calls the
    /// hooks unconditionally and relies on monomorphized no-op bodies.
    fn enabled(&self) -> bool {
        false
    }

    /// One engine round completed: `bids` submitted, `conflicts` (evictions
    /// plus stale-price rejections), `retries` (same-round retry passes),
    /// `retired` requests priced out permanently this round.
    fn round(&mut self, _round: u64, _bids: u64, _conflicts: u64, _retries: u64, _retired: u64) {}

    /// A provider's announced price moved from `old` to `new`: a rise in
    /// every engine, or a fall when a Sec. IV-C departure releases a unit
    /// in the swarm. `at` is the swarm's virtual instant of the change;
    /// engines without a virtual clock (the round-based engines and the
    /// networked tracker) pass [`SimTime::ZERO`] and are ordered by call
    /// sequence alone.
    fn price_change(&mut self, _provider: usize, _old: f64, _new: f64, _at: SimTime) {}

    /// One engine pass converged: totals plus the Theorem 1 ε-certificate
    /// slack (dual objective − primal welfare; only computed when
    /// [`AuctionProbe::enabled`]).
    fn run_complete(&mut self, _rounds: u64, _bids: u64, _assigned: u64, _slack: f64) {}
}

/// The disabled probe: every hook is the trait's empty default, so engines
/// instantiated with `NoProbe` compile to their uninstrumented form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl AuctionProbe for NoProbe {}

/// Snapshot of everything a [`CountingProbe`] accumulated — the per-slot
/// engine section of a run report. Mergeable across slots and runs
/// (counter adds + histogram merges, all associative).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Auction runs completed.
    pub runs: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Bids submitted.
    pub bids: u64,
    /// Conflicts: evictions plus stale-price rejections.
    pub conflicts: u64,
    /// Same-round retry passes.
    pub retries: u64,
    /// Requests permanently retired as priced out.
    pub retired: u64,
    /// Requests assigned at convergence (last run).
    pub assigned: u64,
    /// Summed ε-certificate slack (dual − primal) across runs.
    pub slack: f64,
    /// Distribution of bids per round.
    pub bids_per_round: Histogram,
    /// Distribution of announced price changes (`new − old`).
    pub price_deltas: Histogram,
}

impl Default for EngineReport {
    fn default() -> Self {
        EngineReport {
            runs: 0,
            rounds: 0,
            bids: 0,
            conflicts: 0,
            retries: 0,
            retired: 0,
            assigned: 0,
            slack: 0.0,
            bids_per_round: Histogram::for_counts(),
            price_deltas: Histogram::for_prices(),
        }
    }
}

impl EngineReport {
    /// Folds another report in (counters add, histograms merge, `assigned`
    /// takes the latest value, slack sums).
    pub fn merge(&mut self, other: &EngineReport) {
        self.runs += other.runs;
        self.rounds += other.rounds;
        self.bids += other.bids;
        self.conflicts += other.conflicts;
        self.retries += other.retries;
        self.retired += other.retired;
        self.assigned = other.assigned;
        self.slack += other.slack;
        self.bids_per_round.merge(&other.bids_per_round);
        self.price_deltas.merge(&other.price_deltas);
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.runs == 0 && self.rounds == 0 && self.bids == 0
    }
}

/// The enabled probe: accumulates an [`EngineReport`] in O(1) memory.
#[derive(Debug, Clone, Default)]
pub struct CountingProbe {
    report: EngineReport,
}

impl CountingProbe {
    /// A fresh probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated report (borrowed; keeps accumulating).
    pub fn report(&self) -> &EngineReport {
        &self.report
    }

    /// Takes the accumulated report, resetting the probe for the next slot.
    pub fn take_report(&mut self) -> EngineReport {
        std::mem::take(&mut self.report)
    }
}

impl AuctionProbe for CountingProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn round(&mut self, _round: u64, bids: u64, conflicts: u64, retries: u64, retired: u64) {
        self.report.rounds += 1;
        self.report.bids += bids;
        self.report.conflicts += conflicts;
        self.report.retries += retries;
        self.report.retired += retired;
        self.report.bids_per_round.record(bids as f64);
    }

    fn price_change(&mut self, _provider: usize, old: f64, new: f64, _at: SimTime) {
        self.report.price_deltas.record(new - old);
    }

    fn run_complete(&mut self, _rounds: u64, _bids: u64, assigned: u64, slack: f64) {
        self.report.runs += 1;
        self.report.assigned = assigned;
        if slack.is_finite() {
            self.report.slack += slack;
        }
    }
}

/// One recorded price change: the provider's new price, the 1-based round
/// it happened in and the virtual instant it was set (see
/// [`AuctionProbe::price_change`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    /// Round of the change (1 + the `round` reports seen before it).
    pub round: u64,
    /// Virtual instant of the change ([`SimTime::ZERO`] for clockless
    /// engines).
    pub at: SimTime,
    /// The provider whose price changed.
    pub provider: usize,
    /// The new price `λ_u`, exactly as the auctioneer set it.
    pub price: f64,
}

/// The recording probe: every price change in call order. This is Fig. 2's
/// raw trace, and the price trajectory the engine-equivalence tests
/// compare across worker counts and engines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriceRecorder {
    /// Recorded changes, in the order the engine reported them.
    pub points: Vec<PricePoint>,
    rounds: u64,
}

impl PriceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AuctionProbe for PriceRecorder {
    fn round(&mut self, _round: u64, _bids: u64, _conflicts: u64, _retries: u64, _retired: u64) {
        self.rounds += 1;
    }

    fn price_change(&mut self, provider: usize, _old: f64, new: f64, at: SimTime) {
        self.points.push(PricePoint { round: self.rounds + 1, at, provider, price: new });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_and_inert() {
        let mut p = NoProbe;
        assert!(!p.enabled());
        p.round(1, 5, 1, 0, 0);
        p.price_change(0, 0.0, 1.0, SimTime::ZERO);
        p.run_complete(1, 5, 3, 0.1);
    }

    #[test]
    fn counting_probe_accumulates_and_takes() {
        let mut p = CountingProbe::new();
        assert!(p.enabled());
        p.round(1, 10, 2, 1, 3);
        p.round(2, 4, 0, 0, 0);
        p.price_change(0, 1.0, 1.5, SimTime::ZERO);
        p.run_complete(2, 14, 7, 0.25);
        let r = p.report().clone();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.bids, 14);
        assert_eq!(r.conflicts, 2);
        assert_eq!(r.retries, 1);
        assert_eq!(r.retired, 3);
        assert_eq!(r.assigned, 7);
        assert_eq!(r.runs, 1);
        assert!((r.slack - 0.25).abs() < 1e-12);
        assert_eq!(r.bids_per_round.total(), 2);
        assert_eq!(r.price_deltas.total(), 1);
        let taken = p.take_report();
        assert_eq!(taken, r);
        assert!(p.report().is_empty());
    }

    #[test]
    fn price_recorder_keeps_exact_prices_in_order() {
        let mut p = PriceRecorder::new();
        p.price_change(2, 0.0, 0.1, SimTime::from_micros(5));
        p.round(1, 1, 0, 0, 0);
        p.price_change(0, 0.3, 0.7, SimTime::ZERO);
        let rounds: Vec<u64> = p.points.iter().map(|q| q.round).collect();
        assert_eq!(rounds, [1, 2]);
        assert_eq!(p.points[0].price, 0.1, "the new price, not a delta");
        assert_eq!(p.points[0].at, SimTime::from_micros(5));
        assert_eq!(p.points[1].provider, 0);
    }

    #[test]
    fn reports_merge() {
        let mut a = EngineReport::default();
        let mut b = EngineReport::default();
        a.rounds = 2;
        a.bids = 5;
        a.slack = 0.1;
        b.rounds = 3;
        b.bids = 7;
        b.slack = 0.2;
        b.assigned = 9;
        a.merge(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.bids, 12);
        assert_eq!(a.assigned, 9);
        assert!((a.slack - 0.3).abs() < 1e-12);
    }
}
