//! The Fig. 2 harness: running one slot's auction at the message level.
//!
//! Fig. 2 of the paper plots the evolution of a representative peer's
//! bandwidth price `λ_u` *within* time slots: the price climbs as bids race
//! in over real network latencies and flattens once the auction converges
//! (≈ 5 s into each 10 s slot in the paper's emulation). This module runs a
//! slot's scheduling through [`p2p_core::SwarmAuction`]'s reactive mode —
//! the same bidder/auctioneer logic as the synchronous engine, but with
//! each link's delay derived from its edge cost by the topology's latency
//! model — and returns the time-stamped price trace the swarm reports
//! through a [`PriceRecorder`] probe.

use crate::system::System;
use p2p_core::{CostLatency, NetworkModel, PriceRecorder, SwarmAuction, SwarmConfig};
use p2p_metrics::SlotMetrics;
use p2p_sched::{Schedule, ScheduleStats};
use p2p_types::{PeerId, Result, SimTime};

/// The price trace of one provider across a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTrace {
    /// The provider peer whose price was traced.
    pub peer: PeerId,
    /// `(absolute time in seconds, λ)` samples, starting at the slot start.
    pub samples: Vec<(f64, f64)>,
}

/// Outcome of one message-level slot.
#[derive(Debug, Clone)]
pub struct DistributedSlotOutcome {
    /// The slot's ordinary metrics (welfare, traffic, misses).
    pub metrics: SlotMetrics,
    /// Per-provider price traces (only providers whose price moved).
    pub traces: Vec<PriceTrace>,
    /// When the auction converged, relative to the slot start.
    pub convergence_secs: f64,
    /// Protocol messages exchanged.
    pub messages: u64,
}

/// Runs the upcoming slot with the message-level auction (the paper's ε = 0
/// rule, price announcements coalesced over 100 ms) and cost-derived link
/// latencies, then applies the resulting schedule to the system.
///
/// # Errors
///
/// Propagates divergence or accounting errors.
pub fn run_distributed_slot(sys: &mut System) -> Result<DistributedSlotOutcome> {
    let slot_start = sys.now();
    let problem = sys.prepare_slot()?;

    let model = sys.topology().config().latency;
    let net = NetworkModel::cost_derived(CostLatency {
        base_ms: model.base_ms(),
        ms_per_cost: model.ms_per_cost_unit(),
    });
    let mut trace = PriceRecorder::new();
    let outcome = SwarmAuction::new(SwarmConfig::paper(), net).run_probed(
        &problem.instance,
        0,
        &mut trace,
    )?;

    // Group the price trace by provider and rebase times onto the absolute
    // slot clock.
    let base = slot_start.as_secs_f64();
    let mut traces: Vec<PriceTrace> = Vec::new();
    for p in &trace.points {
        let peer = problem.instance.provider(p.provider).peer;
        let sample = (base + p.at.as_secs_f64(), p.price);
        match traces.iter_mut().find(|t| t.peer == peer) {
            Some(t) => t.samples.push(sample),
            None => traces.push(PriceTrace { peer, samples: vec![sample] }),
        }
    }

    let schedule = Schedule {
        assignment: outcome.assignment,
        stats: ScheduleStats { rounds: 0, bids: outcome.messages },
    };
    let metrics = sys.complete_slot(&problem, &schedule)?;
    Ok(DistributedSlotOutcome {
        metrics,
        traces,
        // `converged_at` is on the slot-internal clock; rebase to absolute.
        convergence_secs: base + outcome.converged_at.as_secs_f64(),
        messages: outcome.messages,
    })
}

/// Picks the "representative peer" of Fig. 2: the provider with the most
/// price activity across a set of traces.
pub fn representative_trace(outcomes: &[DistributedSlotOutcome]) -> Option<PeerId> {
    let mut counts: Vec<(PeerId, usize)> = Vec::new();
    for o in outcomes {
        for t in &o.traces {
            match counts.iter_mut().find(|(p, _)| *p == t.peer) {
                Some((_, c)) => *c += t.samples.len(),
                None => counts.push((t.peer, t.samples.len())),
            }
        }
    }
    counts.into_iter().max_by_key(|&(p, c)| (c, std::cmp::Reverse(p))).map(|(p, _)| p)
}

/// Extracts one peer's full `(time, λ)` series across several slot
/// outcomes, inserting the slot-start reset to zero that the auctioneer
/// performs at every slot boundary.
pub fn price_series_for(
    peer: PeerId,
    outcomes: &[DistributedSlotOutcome],
    slot_starts: &[SimTime],
) -> Vec<(f64, f64)> {
    let mut series = Vec::new();
    for (o, start) in outcomes.iter().zip(slot_starts) {
        series.push((start.as_secs_f64(), 0.0)); // λ resets each slot
        if let Some(t) = o.traces.iter().find(|t| t.peer == peer) {
            series.extend(t.samples.iter().copied());
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use p2p_sched::AuctionScheduler;

    fn system() -> System {
        // Scarce upload capacity so that assignment sets fill and prices
        // actually move (Fig. 2 needs price dynamics, which require
        // contention).
        let mut config = SystemConfig::small_test().with_seed(11);
        config.seed_rate_multiple = 1.0;
        config.upload_multiple = (0.5, 1.0);
        let mut sys = System::new(config, Box::new(AuctionScheduler::paper())).unwrap();
        sys.add_static_peers(20).unwrap();
        sys
    }

    #[test]
    fn distributed_slot_produces_schedule_and_traces() {
        let mut sys = system();
        // Warm up two slots so buffers and windows are non-trivial.
        sys.run_slots(2).unwrap();
        let out = run_distributed_slot(&mut sys).unwrap();
        assert!(out.metrics.transfers > 0, "distributed auction scheduled transfers");
        assert!(out.messages > 0);
        assert!(
            out.convergence_secs > sys.now().as_secs_f64() - sys.config().slot_len.as_secs_f64()
        );
        // Prices moved somewhere.
        assert!(!out.traces.is_empty());
        for t in &out.traces {
            for w in t.samples.windows(2) {
                assert!(w[0].1 <= w[1].1, "per-provider prices are monotone in-slot");
            }
        }
    }

    #[test]
    fn representative_and_series_extraction() {
        let mut sys = system();
        sys.run_slots(2).unwrap();
        let start = sys.now();
        let out = run_distributed_slot(&mut sys).unwrap();
        let outcomes = vec![out];
        let rep = representative_trace(&outcomes).expect("some provider moved");
        let series = price_series_for(rep, &outcomes, &[start]);
        assert!(series.len() >= 2, "reset sample plus at least one change");
        assert_eq!(series[0], (start.as_secs_f64(), 0.0));
    }
}
