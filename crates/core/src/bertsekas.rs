//! The classic Bertsekas auction for the assignment problem, plus the
//! paper's Fig. 1 conversion from the transportation form.
//!
//! The paper reduces its welfare problem to a transportation problem and
//! notes (Sec. IV-A) that "the transportation problem can be converted to an
//! assignment problem by replacing each source (sink) with α (β) copies of
//! persons (objects)": every provider `u` is replaced by `B(u)` identical
//! bandwidth-unit objects. This module implements both the conversion and
//! the textbook auction (Bertsekas 1988) over the expanded instance, giving
//! a third independent solver to cross-check the distributed auction and
//! the min-cost-flow ground truth.

use crate::instance::{ProviderIdx, WelfareInstance};
use crate::solution::Assignment;
use p2p_types::P2pError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An assignment problem: `persons` bid for distinct `objects`; each person
/// consumes at most one object and vice versa.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignmentProblem {
    object_count: usize,
    /// Per person: candidate `(object, value)` pairs.
    values: Vec<Vec<(usize, f64)>>,
}

impl AssignmentProblem {
    /// Creates an assignment problem.
    ///
    /// # Errors
    ///
    /// Returns [`P2pError::MalformedInstance`] if an edge references an
    /// object `>= object_count` or a value is non-finite.
    pub fn new(object_count: usize, values: Vec<Vec<(usize, f64)>>) -> Result<Self, P2pError> {
        for (i, person) in values.iter().enumerate() {
            for &(o, v) in person {
                if o >= object_count {
                    return Err(P2pError::MalformedInstance(format!(
                        "person {i} references object {o} of {object_count}"
                    )));
                }
                if !v.is_finite() {
                    return Err(P2pError::MalformedInstance(format!(
                        "person {i} has non-finite value for object {o}"
                    )));
                }
            }
        }
        Ok(AssignmentProblem { object_count, values })
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.object_count
    }

    /// Number of persons.
    pub fn person_count(&self) -> usize {
        self.values.len()
    }
}

/// Result of the classic auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignmentAuctionResult {
    /// Per person: the object won, if any.
    pub matches: Vec<Option<usize>>,
    /// Final per-object prices.
    pub prices: Vec<f64>,
    /// Bids processed until quiescence.
    pub iterations: u64,
    /// Total value of the matching.
    pub total_value: f64,
}

/// Runs the forward auction with increment `epsilon` (> 0 guarantees
/// termination; the result is within `persons · epsilon` of optimal).
///
/// # Errors
///
/// Returns [`P2pError::AuctionDiverged`] if the iteration cap is exceeded.
///
/// # Examples
///
/// ```
/// use p2p_core::bertsekas::{AssignmentProblem, solve_assignment_auction};
///
/// // Person 0 values object 0 higher; person 1 only wants object 0.
/// let p = AssignmentProblem::new(2, vec![
///     vec![(0, 10.0), (1, 8.0)],
///     vec![(0, 9.0)],
/// ]).unwrap();
/// let r = solve_assignment_auction(&p, 0.01).unwrap();
/// // Optimal matching: person 0 → object 1, person 1 → object 0 (17)
/// assert_eq!(r.matches, vec![Some(1), Some(0)]);
/// assert!(r.total_value >= 17.0 - 2.0 * 0.01);
/// ```
pub fn solve_assignment_auction(
    problem: &AssignmentProblem,
    epsilon: f64,
) -> Result<AssignmentAuctionResult, P2pError> {
    let n_objects = problem.object_count;
    let mut prices = vec![0.0_f64; n_objects];
    let mut owner: Vec<Option<usize>> = vec![None; n_objects];
    let mut matches: Vec<Option<usize>> = vec![None; problem.person_count()];
    let mut queue: VecDeque<usize> = (0..problem.person_count()).collect();
    let mut iterations = 0u64;
    let max_iterations = 10_000_000u64;

    while let Some(person) = queue.pop_front() {
        iterations += 1;
        if iterations > max_iterations {
            return Err(P2pError::AuctionDiverged { iterations });
        }
        let candidates = &problem.values[person];
        if candidates.is_empty() {
            continue;
        }
        // Best and second-best net value at current prices.
        let mut best: Option<(usize, f64)> = None; // (candidate idx, net)
        let mut second = f64::NEG_INFINITY;
        for (k, &(obj, value)) in candidates.iter().enumerate() {
            let net = value - prices[obj];
            match best {
                Some((_, b)) if net <= b => second = second.max(net),
                Some((_, b)) => {
                    second = b;
                    best = Some((k, net));
                }
                None => best = Some((k, net)),
            }
        }
        let (k, best_net) = best.expect("non-empty candidates");
        if best_net < 0.0 {
            continue; // participation constraint: staying out beats overpaying
        }
        let (obj, value) = candidates[k];
        let reference = second.max(0.0);
        let bid = value - reference + epsilon; // = price + (best−second) + ε
        if bid <= prices[obj] {
            continue; // zero margin at ε = 0: the paper's wait rule
        }
        prices[obj] = bid;
        if let Some(previous) = owner[obj].replace(person) {
            matches[previous] = None;
            queue.push_back(previous);
        }
        matches[person] = Some(obj);
    }

    let total_value = matches
        .iter()
        .enumerate()
        .filter_map(|(person, m)| {
            m.map(|obj| {
                problem.values[person]
                    .iter()
                    .find(|&&(o, _)| o == obj)
                    .map(|&(_, v)| v)
                    .expect("matched object is a candidate")
            })
        })
        .sum();
    Ok(AssignmentAuctionResult { matches, prices, iterations, total_value })
}

/// The Fig. 1 expansion: a [`WelfareInstance`] as an [`AssignmentProblem`]
/// where provider `u` becomes `B(u)` identical bandwidth-unit objects, plus
/// the object → provider mapping.
pub fn expand_to_assignment(instance: &WelfareInstance) -> (AssignmentProblem, Vec<ProviderIdx>) {
    let mut object_of_provider: Vec<Vec<usize>> = Vec::with_capacity(instance.provider_count());
    let mut object_provider = Vec::new();
    for (u, p) in instance.providers().enumerate() {
        let units = (0..p.capacity.chunks_per_slot())
            .map(|_| {
                object_provider.push(u);
                object_provider.len() - 1
            })
            .collect();
        object_of_provider.push(units);
    }
    let values = instance
        .requests()
        .map(|r| {
            r.providers()
                .iter()
                .zip(r.utilities())
                .flat_map(|(&u, &utility)| {
                    object_of_provider[u as usize].iter().map(move |&obj| (obj, utility))
                })
                .collect()
        })
        .collect();
    let problem = AssignmentProblem::new(object_provider.len(), values)
        .expect("expansion preserves validity");
    (problem, object_provider)
}

/// Solves a [`WelfareInstance`] through the Fig. 1 expansion and the classic
/// auction, mapping the matching back to a per-request [`Assignment`].
///
/// # Errors
///
/// Returns [`P2pError::AuctionDiverged`] if the expanded auction exceeds its
/// iteration cap.
pub fn solve_via_expansion(
    instance: &WelfareInstance,
    epsilon: f64,
) -> Result<Assignment, P2pError> {
    let (problem, object_provider) = expand_to_assignment(instance);
    let result = solve_assignment_auction(&problem, epsilon)?;
    let choices = instance
        .requests()
        .zip(&result.matches)
        .map(|(req, m)| {
            m.map(|obj| {
                let provider = object_provider[obj] as u32;
                req.providers()
                    .iter()
                    .position(|&u| u == provider)
                    .expect("matched object derives from an edge")
            })
        })
        .collect();
    Ok(Assignment::new(choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

    fn rid(d: u32, c: u32) -> RequestId {
        RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), c))
    }

    #[test]
    fn classic_auction_solves_diagonal_instance() {
        // Person i strongly prefers object i.
        let p = AssignmentProblem::new(
            3,
            vec![
                vec![(0, 10.0), (1, 1.0), (2, 1.0)],
                vec![(0, 1.0), (1, 10.0), (2, 1.0)],
                vec![(0, 1.0), (1, 1.0), (2, 10.0)],
            ],
        )
        .unwrap();
        let r = solve_assignment_auction(&p, 0.01).unwrap();
        assert_eq!(r.matches, vec![Some(0), Some(1), Some(2)]);
        assert!((r.total_value - 30.0).abs() < 1e-9);
    }

    #[test]
    fn contested_object_goes_to_higher_value_person() {
        let p = AssignmentProblem::new(1, vec![vec![(0, 5.0)], vec![(0, 7.0)]]).unwrap();
        let r = solve_assignment_auction(&p, 0.01).unwrap();
        assert_eq!(r.matches, vec![None, Some(0)]);
        // Price must have been bid up beyond the loser's value minus ε.
        assert!(r.prices[0] >= 5.0 - 0.01);
    }

    #[test]
    fn epsilon_bound_holds_on_random_instances() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let objects = rng.gen_range(1..6);
            let persons = rng.gen_range(1..6);
            let eps = 0.01;
            let mut values: Vec<Vec<(usize, f64)>> = Vec::with_capacity(persons);
            for _ in 0..persons {
                let mut edges = Vec::new();
                for o in 0..objects {
                    if rng.gen_bool(0.8) {
                        edges.push((o, rng.gen_range(0.0..10.0)));
                    }
                }
                values.push(edges);
            }
            let p = AssignmentProblem::new(objects, values.clone()).unwrap();
            let r = solve_assignment_auction(&p, eps).unwrap();

            // Exact optimum via the netflow solver (capacity-1 providers).
            let tp = p2p_netflow::TransportationProblem::new(vec![1; objects], values).unwrap();
            let exact = p2p_netflow::solve_max_profit(&tp).unwrap();
            assert!(
                r.total_value >= exact.total_profit - persons as f64 * eps - 1e-9,
                "auction {} vs exact {}",
                r.total_value,
                exact.total_profit
            );
        }
    }

    #[test]
    fn expansion_creates_one_object_per_bandwidth_unit() {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(1), 3);
        let u1 = b.add_provider(PeerId::new(2), 2);
        let r = b.add_request(rid(0, 0));
        b.add_edge(r, u0, Valuation::new(2.0), Cost::new(1.0)).unwrap();
        b.add_edge(r, u1, Valuation::new(2.0), Cost::new(0.5)).unwrap();
        let inst = b.build().unwrap();
        let (problem, object_provider) = expand_to_assignment(&inst);
        assert_eq!(problem.object_count(), 5);
        assert_eq!(object_provider, vec![0, 0, 0, 1, 1]);
        // The single request can bid on all five objects.
        assert_eq!(problem.person_count(), 1);
    }

    #[test]
    fn expansion_solution_matches_exact_optimum() {
        let mut b = WelfareInstance::builder();
        let u0 = b.add_provider(PeerId::new(1), 1);
        let u1 = b.add_provider(PeerId::new(2), 2);
        let r0 = b.add_request(rid(0, 0));
        let r1 = b.add_request(rid(1, 0));
        let r2 = b.add_request(rid(2, 0));
        b.add_edge(r0, u0, Valuation::new(6.0), Cost::new(0.5)).unwrap();
        b.add_edge(r0, u1, Valuation::new(6.0), Cost::new(3.0)).unwrap();
        b.add_edge(r1, u0, Valuation::new(4.0), Cost::new(0.25)).unwrap();
        b.add_edge(r1, u1, Valuation::new(4.0), Cost::new(2.0)).unwrap();
        b.add_edge(r2, u1, Valuation::new(2.0), Cost::new(1.0)).unwrap();
        let inst = b.build().unwrap();
        let eps = 1e-4;
        let a = solve_via_expansion(&inst, eps).unwrap();
        assert!(a.validate(&inst).is_ok());
        let exact = inst.optimal_welfare().get();
        assert!(a.welfare(&inst).get() >= exact - 3.0 * eps);
    }

    #[test]
    fn malformed_problems_rejected() {
        assert!(AssignmentProblem::new(1, vec![vec![(2, 1.0)]]).is_err());
        assert!(AssignmentProblem::new(1, vec![vec![(0, f64::NAN)]]).is_err());
    }

    #[test]
    fn person_with_no_candidates_stays_unmatched() {
        let p = AssignmentProblem::new(1, vec![vec![], vec![(0, 1.0)]]).unwrap();
        let r = solve_assignment_auction(&p, 0.01).unwrap();
        assert_eq!(r.matches, vec![None, Some(0)]);
    }
}
