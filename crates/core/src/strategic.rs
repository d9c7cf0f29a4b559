//! Strategic bidding study — the paper's stated future work.
//!
//! The paper closes: "We are improving the auction mechanism design to
//! enforce truthfulness of the bids in cases of selfish peers that may
//! manipulate the mechanism, in our ongoing work." This module quantifies
//! *why* that matters: the auction allocates by reported net utility but
//! charges no payments, so a selfish peer can misreport its valuations and
//! the mechanism is **not** incentive compatible.
//!
//! The study runs the auction on a *reported* instance (some requests
//! misreport their valuations) and evaluates the resulting allocation
//! against *true* valuations, separating the manipulators' gain from the
//! honest peers' and society's loss — the standard measurement for
//! non-truthful mechanisms.
//!
//! # Examples
//!
//! ```
//! use p2p_core::strategic::{evaluate_manipulation, Misreport};
//! use p2p_core::WelfareInstance;
//! use p2p_types::*;
//!
//! // Two peers contend for one unit; the lower-value peer manipulates.
//! let mut b = WelfareInstance::builder();
//! let u = b.add_provider(PeerId::new(9), 1);
//! let honest = b.add_request(RequestId::new(PeerId::new(0), ChunkId::new(VideoId::new(0), 0)));
//! let selfish = b.add_request(RequestId::new(PeerId::new(1), ChunkId::new(VideoId::new(0), 0)));
//! b.add_edge(honest, u, Valuation::new(6.0), Cost::new(1.0)).unwrap();
//! b.add_edge(selfish, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
//! let inst = b.build().unwrap();
//!
//! let out = evaluate_manipulation(&inst, &[selfish], Misreport::Inflate(3.0)).unwrap();
//! // The manipulator steals the unit…
//! assert_eq!(out.manipulator_chunks, 1);
//! // …and society pays: true welfare drops from 5 (honest wins) to 3.
//! assert!(out.true_welfare < out.truthful_welfare);
//! ```

use crate::engine::{AuctionConfig, SyncAuction};
use crate::instance::{RequestIdx, WelfareInstance};
use p2p_types::{P2pError, Valuation};
use serde::{Deserialize, Serialize};

/// How a selfish peer misreports a chunk's valuation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Misreport {
    /// Multiply the true valuation by a factor > 1 (exaggerate urgency to
    /// win more auctions — the dominant manipulation in a payment-free
    /// allocation).
    Inflate(f64),
    /// Multiply by a factor in (0, 1) (understate, e.g. to appear
    /// cooperative; generally self-harming).
    Shade(f64),
    /// Report the maximum valuation for everything (the paper's
    /// deadline-based cap, 8.0).
    MaxOut,
}

impl Misreport {
    fn apply(self, v: Valuation) -> Valuation {
        match self {
            Misreport::Inflate(f) | Misreport::Shade(f) => {
                Valuation::new((v.get() * f).clamp(0.0, 1e6))
            }
            Misreport::MaxOut => Valuation::new(8.0),
        }
    }
}

/// Outcome of one manipulation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategicOutcome {
    /// True social welfare when everyone reports truthfully.
    pub truthful_welfare: f64,
    /// True social welfare under the manipulated reports.
    pub true_welfare: f64,
    /// Σ true `v − w` of chunks won by manipulators under manipulation.
    pub manipulator_utility: f64,
    /// The manipulators' utility had everyone been truthful.
    pub manipulator_truthful_utility: f64,
    /// Σ true `v − w` of chunks won by honest peers under manipulation.
    pub honest_utility: f64,
    /// Honest peers' utility had everyone been truthful.
    pub honest_truthful_utility: f64,
    /// Chunks the manipulators won under manipulation.
    pub manipulator_chunks: usize,
    /// Chunks the manipulators win when truthful.
    pub manipulator_truthful_chunks: usize,
}

impl StrategicOutcome {
    /// Fraction of true social welfare destroyed by the manipulation.
    pub fn welfare_loss_fraction(&self) -> f64 {
        if self.truthful_welfare.abs() < f64::EPSILON {
            0.0
        } else {
            (self.truthful_welfare - self.true_welfare) / self.truthful_welfare
        }
    }
}

/// Builds the reported instance: manipulators' valuations transformed,
/// everything else untouched.
///
/// # Errors
///
/// Returns [`P2pError::MalformedInstance`] if a manipulator index is out of
/// range.
pub fn misreport_instance(
    instance: &WelfareInstance,
    manipulators: &[RequestIdx],
    misreport: Misreport,
) -> Result<WelfareInstance, P2pError> {
    for &m in manipulators {
        if m >= instance.request_count() {
            return Err(P2pError::MalformedInstance(format!("manipulator index {m} out of range")));
        }
    }
    let mut b = WelfareInstance::builder();
    for p in instance.providers() {
        b.add_provider(p.peer, p.capacity.chunks_per_slot());
    }
    for (r, req) in instance.requests().enumerate() {
        let idx = b.add_request(req.id);
        debug_assert_eq!(idx, r);
        let lying = manipulators.contains(&r);
        for e in req.edges() {
            let v = if lying { misreport.apply(e.valuation) } else { e.valuation };
            b.add_edge(idx, e.provider, v, e.cost)?;
        }
    }
    b.build()
}

/// Runs the truthful and manipulated auctions and scores both against true
/// valuations.
///
/// # Errors
///
/// Propagates auction divergence or malformed manipulator indices.
pub fn evaluate_manipulation(
    instance: &WelfareInstance,
    manipulators: &[RequestIdx],
    misreport: Misreport,
) -> Result<StrategicOutcome, P2pError> {
    // ε > 0 keeps both runs robust to the ties misreporting can create
    // (e.g. MaxOut gives many requests identical valuations).
    let engine = SyncAuction::new(AuctionConfig::with_epsilon(1e-6));

    let truthful = engine.run(instance)?;
    let reported = misreport_instance(instance, manipulators, misreport)?;
    let manipulated = engine.run(&reported)?;

    let score = |assignment: &crate::solution::Assignment| {
        let mut manip = 0.0;
        let mut honest = 0.0;
        let mut manip_chunks = 0usize;
        for (r, req) in instance.requests().enumerate() {
            if let Some(e) = assignment.choice(r) {
                let true_utility = req.edge(e).utility().get();
                if manipulators.contains(&r) {
                    manip += true_utility;
                    manip_chunks += 1;
                } else {
                    honest += true_utility;
                }
            }
        }
        (manip, honest, manip_chunks)
    };

    let (mt, ht, ct) = score(&truthful.assignment);
    let (mm, hm, cm) = score(&manipulated.assignment);
    Ok(StrategicOutcome {
        truthful_welfare: mt + ht,
        true_welfare: mm + hm,
        manipulator_utility: mm,
        manipulator_truthful_utility: mt,
        honest_utility: hm,
        honest_truthful_utility: ht,
        manipulator_chunks: cm,
        manipulator_truthful_chunks: ct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    /// One contested unit: honest value 6, selfish value 4.
    fn contested() -> WelfareInstance {
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(9), 1);
        let honest = b.add_request(rid(0, 0));
        let selfish = b.add_request(rid(1, 0));
        b.add_edge(honest, u, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        b.add_edge(selfish, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        let _ = (honest, selfish);
        b.build().unwrap()
    }

    #[test]
    fn inflation_steals_allocation_and_destroys_welfare() {
        let inst = contested();
        let out = evaluate_manipulation(&inst, &[1], Misreport::Inflate(3.0)).unwrap();
        assert_eq!(out.manipulator_truthful_chunks, 0, "truthfully the selfish peer loses");
        assert_eq!(out.manipulator_chunks, 1, "inflated, it wins");
        assert!(out.manipulator_utility > out.manipulator_truthful_utility);
        assert!(out.honest_utility < out.honest_truthful_utility);
        assert!(out.true_welfare < out.truthful_welfare);
        assert!((out.welfare_loss_fraction() - 2.0 / 5.0).abs() < 1e-9); // 5 → 3
    }

    #[test]
    fn max_out_is_the_dominant_manipulation() {
        let inst = contested();
        let out = evaluate_manipulation(&inst, &[1], Misreport::MaxOut).unwrap();
        assert_eq!(out.manipulator_chunks, 1);
        assert!(out.true_welfare < out.truthful_welfare);
    }

    #[test]
    fn shading_is_self_harming() {
        // The selfish peer has the HIGHER value here; shading loses it.
        let mut b = WelfareInstance::builder();
        let u = b.add_provider(PeerId::new(9), 1);
        let selfish = b.add_request(rid(0, 0));
        let honest = b.add_request(rid(1, 0));
        b.add_edge(selfish, u, Valuation::new(6.0), Cost::new(1.0)).unwrap();
        b.add_edge(honest, u, Valuation::new(4.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let out = evaluate_manipulation(&inst, &[selfish], Misreport::Shade(0.3)).unwrap();
        assert_eq!(out.manipulator_truthful_chunks, 1);
        assert_eq!(out.manipulator_chunks, 0, "shading forfeits the unit");
        assert!(out.manipulator_utility < out.manipulator_truthful_utility);
    }

    #[test]
    fn truthful_everyone_is_a_fixed_point() {
        let inst = contested();
        let out = evaluate_manipulation(&inst, &[], Misreport::Inflate(10.0)).unwrap();
        assert_eq!(out.true_welfare, out.truthful_welfare);
        assert_eq!(out.manipulator_chunks, 0);
    }

    #[test]
    fn out_of_range_manipulator_rejected() {
        let inst = contested();
        assert!(evaluate_manipulation(&inst, &[7], Misreport::MaxOut).is_err());
        assert!(misreport_instance(&inst, &[7], Misreport::MaxOut).is_err());
    }

    #[test]
    fn misreport_transforms_only_manipulators() {
        let inst = contested();
        let rep = misreport_instance(&inst, &[1], Misreport::Inflate(2.0)).unwrap();
        assert_eq!(rep.request(0).edge(0).valuation, Valuation::new(6.0));
        assert_eq!(rep.request(1).edge(0).valuation, Valuation::new(8.0));
        // Costs and capacities untouched.
        assert_eq!(rep.request(1).edge(0).cost, Cost::new(1.0));
        assert_eq!(rep.provider(0).capacity, inst.provider(0).capacity);
    }
}
