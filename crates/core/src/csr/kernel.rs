//! The flat engine's branchless bid kernel over the CSR layout.
//!
//! The nested engines walk each request's row through the edge-at-a-time
//! scan of `decide_bid_over` (in [`crate::bidder`]), whose running
//! best/second state is carried through a `match` with two data-dependent
//! branches per edge — opaque to the vectorizer. The flat engine runs the
//! same reduction in a chunked, branchless form the compiler can keep in
//! vector registers; it is the only bid scan [`FlatAuction`] has:
//!
//! * `row_top2` — the top-2 reduction over one request's `edge_utility`
//!   row: `LANES` independent per-lane recurrences (prices gathered per
//!   lane from the dense `eff_price` array), written over fixed-size
//!   `[f64; LANES]` chunks as straight-line selects that stable rustc
//!   autovectorizes, and merged at the end with an index tie-break.
//! * `scan_slice` — the batched variant: one pass over a whole shard
//!   slice of requests against a single price snapshot, emitting bids and
//!   retirements exactly as the nested engines' `compute_slice` does.
//!
//! `decide_bid_over` stays the reference: the nested engines run it, and
//! the kernel tests compare every lane decision with it.
//!
//! # Why the kernel is bit-identical to the sequential scan
//!
//! The sequential recurrence in `decide_bid_over` computes two quantities:
//! the best candidate (largest `φ`, earliest edge on exact ties) and the
//! second-largest `φ` counting multiplicity (a duplicated maximum is its
//! own runner-up). Both are order-invariant functions of the `(edge, φ)`
//! multiset: they involve only exact float comparisons — no arithmetic —
//! and the per-edge `φ = utility − λ` is computed by the same single
//! subtraction in every layout. Splitting the row into lanes and merging
//! the per-lane top-2 states with an `(φ, edge)` tie-break therefore
//! reproduces the sequential result *bit for bit, including on exact
//! ties*, for every finite-`φ` input — which the instance builder
//! guarantees by rejecting non-finite utilities
//! ([`P2pError::NonFiniteUtility`]), and
//! which zero-capacity providers cannot break (their `φ = −∞` candidates
//! lose every comparison exactly as they do sequentially).
//!
//! The one scan the lane split *could* reorder is the second-best's sign
//! of zero (`+0.0` vs `−0.0` compare equal, so different visit orders may
//! keep different bit patterns). A sign of zero never survives into a
//! decision: the epilogue floors the second-best at the outside option
//! (`max(second, 0.0)`) and `x − (±0.0)` is bit-identical for every
//! finite `x`, so even those rows decide identically. The all-ties
//! adversarial case — where this reasoning is under the most pressure —
//! is additionally pinned by the Theorem 1 `n·ε` certificate proptests in
//! `crates/core/tests/proptest_kernel.rs`.
//!
//! [`P2pError::NonFiniteUtility`]: p2p_types::P2pError::NonFiniteUtility
//! [`FlatAuction`]: super::FlatAuction

use super::{CsrData, FlatBid};
use crate::bidder::{decision_from_top2, AbstainReason, BidDecision, Top2, MIN_INCREMENT};

/// Lane width of the chunked reductions: four `f64`s — one AVX2 register,
/// two NEON registers — is wide enough to saturate the FP select ports
/// while keeping the merge epilogue and sub-lane rows cheap.
pub const LANES: usize = 4;

/// One lane-parallel top-2 state: `LANES` independent copies of the
/// sequential recurrence, kept in parallel arrays so the update loop is
/// pure straight-line selects.
struct LaneState {
    best_phi: [f64; LANES],
    best_idx: [u32; LANES],
    second: [f64; LANES],
}

impl LaneState {
    /// Seeds lane `j` with edge `j` — every lane starts non-empty, so a
    /// legitimate `φ = −∞` candidate (zero-capacity provider) is a real
    /// entry, never confused with an empty-lane sentinel.
    #[inline]
    fn seed(phi: [f64; LANES]) -> Self {
        LaneState {
            best_phi: phi,
            best_idx: core::array::from_fn(|j| j as u32),
            second: [f64::NEG_INFINITY; LANES],
        }
    }

    /// Folds one chunk of `φ` values (edges `base .. base + LANES`, lane
    /// `j` handling edge `base + j`) into the running per-lane states.
    ///
    /// Per lane this is exactly the sequential recurrence, rewritten
    /// branch-free: the value demoted to the runner-up pool is
    /// `min(φ, best)` — the incoming `φ` when it loses or ties, the old
    /// best when `φ` wins — and the best advances only on a strict win,
    /// which preserves the earliest-edge tie-break because lane indices
    /// only grow.
    #[inline]
    fn fold_chunk(&mut self, base: u32, phi: [f64; LANES]) {
        // Indexed form, not iterators: the four parallel arrays update in
        // lockstep and the vectorizer needs to see them as one loop body.
        #[allow(clippy::needless_range_loop)]
        for j in 0..LANES {
            let p = phi[j];
            let best = self.best_phi[j];
            let demoted = if p < best { p } else { best };
            self.second[j] = if demoted > self.second[j] { demoted } else { self.second[j] };
            let better = p > best;
            self.best_idx[j] = if better { base + j as u32 } else { self.best_idx[j] };
            self.best_phi[j] = if better { p } else { best };
        }
    }
}

/// Merges two top-2 partial states over disjoint edge subsets:
/// `(best φ, best edge, second φ)` each. Pure comparisons — exact — with
/// the earliest-edge tie-break on equal bests; the losing best joins the
/// runner-up pool (a duplicated maximum is the second-best).
#[inline]
fn merge(a: (f64, u32, f64), b: (f64, u32, f64)) -> (f64, u32, f64) {
    let (a_best, a_idx, a_second) = a;
    let (b_best, b_idx, b_second) = b;
    let b_wins = b_best > a_best || (b_best == a_best && b_idx < a_idx);
    let (best, idx, loser) = if b_wins { (b_best, b_idx, a_best) } else { (a_best, a_idx, b_best) };
    let mut second = if a_second > b_second { a_second } else { b_second };
    if loser > second {
        second = loser;
    }
    (best, idx, second)
}

/// The sequential top-2 recurrence over a sub-range of a row — used for
/// rows shorter than one lane and for the chunk remainder. Identical to
/// the `decide_bid_over` recurrence.
#[inline]
fn fold_scalar(
    providers: &[u32],
    utilities: &[f64],
    prices: &[f64],
    base: u32,
) -> Option<(f64, u32, f64)> {
    let mut state: Option<(f64, u32, f64)> = None;
    for (k, (&p, &u)) in providers.iter().zip(utilities).enumerate() {
        let phi = u - prices[p as usize];
        state = Some(match state {
            None => (phi, base + k as u32, f64::NEG_INFINITY),
            Some((best, idx, second)) if phi <= best => {
                (best, idx, if phi > second { phi } else { second })
            }
            Some((best, _, second)) => {
                (phi, base + k as u32, if best > second { best } else { second })
            }
        });
    }
    state
}

/// The branchless chunked top-2 reduction over one request's row: the
/// kernel counterpart of the sequential scan, bit-identical to it on every
/// finite-utility instance (see the [module docs](self) for the argument).
///
/// `prices` is the dense bidder-visible price array (`eff_price`); lane
/// `j` of each chunk gathers `prices[providers[base + j]]`.
pub(crate) fn row_top2(providers: &[u32], utilities: &[f64], prices: &[f64]) -> Option<Top2> {
    let n = utilities.len();
    if n < LANES {
        // Sub-lane rows (including empty) take the reference recurrence —
        // no lanes to fill, nothing to merge.
        return finish(fold_scalar(providers, utilities, prices, 0), providers, prices);
    }
    let mut phi = [0.0f64; LANES];
    #[allow(clippy::needless_range_loop)] // lockstep gather, see fold_chunk
    for j in 0..LANES {
        phi[j] = utilities[j] - prices[providers[j] as usize];
    }
    let mut state = LaneState::seed(phi);
    let chunks = providers[LANES..].chunks_exact(LANES).zip(utilities[LANES..].chunks_exact(LANES));
    let mut base = LANES as u32;
    for (ps, us) in chunks {
        let mut phi = [0.0f64; LANES];
        #[allow(clippy::needless_range_loop)] // lockstep gather, see fold_chunk
        for j in 0..LANES {
            phi[j] = us[j] - prices[ps[j] as usize];
        }
        state.fold_chunk(base, phi);
        base += LANES as u32;
    }
    // Merge the lanes (any order — the reduction is order-invariant; lane
    // order keeps it deterministic), then the remainder tail.
    let mut acc = (state.best_phi[0], state.best_idx[0], state.second[0]);
    for j in 1..LANES {
        acc = merge(acc, (state.best_phi[j], state.best_idx[j], state.second[j]));
    }
    // Edges consumed by the seed and the full chunks; the rest is the tail.
    let consumed = LANES + (n - LANES) / LANES * LANES;
    if let Some(rest) =
        fold_scalar(&providers[consumed..], &utilities[consumed..], prices, consumed as u32)
    {
        acc = merge(acc, rest);
    }
    finish(Some(acc), providers, prices)
}

/// Rehydrates the full [`Top2`] from the reduced `(φ, edge, second)`
/// triple: the winning edge's provider and price are looked up once at the
/// end instead of being carried through every lane.
#[inline]
fn finish(state: Option<(f64, u32, f64)>, providers: &[u32], prices: &[f64]) -> Option<Top2> {
    state.map(|(best_phi, idx, second_phi)| {
        let provider = providers[idx as usize] as usize;
        Top2 { edge: idx as usize, provider, best_phi, best_lambda: prices[provider], second_phi }
    })
}

/// One request's bid decision through the lane kernel. It runs the
/// decision epilogue `decide_bid_over` shares, so the two can only differ
/// if the top-2 reductions differ — which the module invariant (and the
/// proptest suite) rules out.
#[inline]
pub(crate) fn decide_row(
    providers: &[u32],
    utilities: &[f64],
    prices: &[f64],
    epsilon: f64,
) -> BidDecision {
    decision_from_top2(row_top2(providers, utilities, prices), epsilon, MIN_INCREMENT)
}

/// The batched slice scan: every request of a shard slice decided against
/// one price snapshot in a single pass, bids and permanent retirements
/// appended exactly as the nested engines' `compute_slice` emits them.
pub(crate) fn scan_slice(
    csr: &CsrData,
    slice: &[u32],
    prices: &[f64],
    epsilon: f64,
    bids: &mut Vec<FlatBid>,
    retired: &mut Vec<u32>,
) {
    for &r in slice {
        let (providers, utilities) = csr.row(r as usize);
        match decide_row(providers, utilities, prices, epsilon) {
            BidDecision::Bid { edge, provider, amount } => {
                bids.push(FlatBid {
                    amount,
                    request: r,
                    edge: edge as u32,
                    provider: provider as u32,
                });
            }
            BidDecision::Abstain { reason } => match reason {
                AbstainReason::Unprofitable | AbstainReason::NoCandidates => retired.push(r),
                AbstainReason::ZeroMargin => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidder::decide_bid_over;

    fn decisions_match(providers: &[u32], utilities: &[f64], prices: &[f64], epsilon: f64) {
        let lanes = decide_row(providers, utilities, prices, epsilon);
        let scalar = decide_bid_over(
            providers.iter().zip(utilities).map(|(&p, &u)| (p as usize, u)),
            |p| prices[p],
            epsilon,
            MIN_INCREMENT,
        );
        assert_eq!(lanes, scalar, "providers={providers:?} utilities={utilities:?}");
    }

    #[test]
    fn kernel_matches_scalar_on_every_row_shape() {
        // Every length through several chunk boundaries, values engineered
        // to include duplicates, zeros, and a max at every position class.
        for n in 0..64usize {
            let providers: Vec<u32> = (0..n).map(|k| (k % 7) as u32).collect();
            let prices: Vec<f64> = (0..7).map(|u| f64::from(u) * 0.25).collect();
            for variant in 0..4 {
                let utilities: Vec<f64> = (0..n)
                    .map(|k| match variant {
                        0 => (k as f64 * 17.0) % 5.3 - 1.0,
                        1 => 2.0, // all ties
                        2 => {
                            if k == n / 2 {
                                9.0
                            } else {
                                1.0
                            }
                        } // unique max mid-row
                        _ => -(k as f64) - 1.0, // all unprofitable
                    })
                    .collect();
                for eps in [0.0, 0.01, 0.5] {
                    decisions_match(&providers, &utilities, &prices, eps);
                }
            }
        }
    }

    #[test]
    fn kernel_handles_infinite_prices_like_the_scalar_scan() {
        // Zero-capacity providers surface as eff_price = +∞ (φ = −∞).
        let providers = [0u32, 1, 2, 0, 1, 2, 0];
        let prices = [f64::INFINITY, 0.5, f64::INFINITY];
        let utilities = [4.0, 3.0, 2.0, 1.0, 5.0, 0.0, 8.0];
        decisions_match(&providers, &utilities, &prices, 0.0);
        // All candidates at −∞: abstains Unprofitable either way.
        let dead = [0u32; 6];
        let dead_prices = [f64::INFINITY];
        let utils = [1.0; 6];
        decisions_match(&dead, &utils, &dead_prices, 0.0);
        assert_eq!(
            decide_row(&dead, &utils, &dead_prices, 0.0),
            BidDecision::Abstain { reason: AbstainReason::Unprofitable }
        );
    }
}
