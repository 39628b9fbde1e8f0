//! Ground truth the bench computes by itself, and the checks every
//! answer must pass.
//!
//! The oracle never touches `QueryEngine`, the filters or the index: it
//! calls `earthmover_transport::emd` on every row that two closed-form
//! lower bounds written here (weighted L1 and centroid distance) cannot
//! exclude. A change that breaks the engine's admissibility, its index,
//! or its merge therefore cannot also bend the reference.

use crate::inputs::{Inputs, Op, Req};
use crate::spec::{EPSILON, K};
use earthmover_core::ground::BinGrid;
use earthmover_core::{CostMatrix, HistogramDb};
use earthmover_transport::{emd, emd_with_options, PivotRule, SolverOptions, TransportError};
use std::collections::HashMap;

/// Relative tolerance when comparing served distances with the oracle's.
pub const TOL: f64 = 1e-9;

/// Ground truth for one query.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    /// The true `K` nearest `(row, EMD)`, ascending by `(EMD, row)`.
    pub knn: Vec<(usize, f64)>,
    /// Every row the bounds could not push beyond the k-th distance
    /// (with a `1e-8` margin), with its true EMD. A row absent from this
    /// map is farther than any radius the checks use.
    pub evaluated: HashMap<usize, f64>,
}

impl Truth {
    /// The true k-th nearest-neighbour distance: the range radius.
    pub fn kth(&self) -> f64 {
        self.knn.last().map_or(0.0, |(_, d)| *d)
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// The exact EMD through the public transport entry point; a pivot-cap
/// hit is retried under Bland's rule, which cannot cycle.
fn exact(q: &[f64], row: &[f64], cost: &CostMatrix) -> Result<f64, String> {
    match emd(q, row, cost) {
        Err(TransportError::IterationLimit) => emd_with_options(
            q,
            row,
            cost,
            SolverOptions {
                pivot_rule: PivotRule::Bland,
                max_pivots: None,
            },
        ),
        other => other,
    }
    .map_err(|e| format!("oracle EMD failed: {e}"))
}

/// Closed-form lower bounds of the EMD for unit-mass histograms under a
/// Euclidean ground distance.
struct Bounds<'a> {
    /// Half the cheapest move out of each bin: mass that must leave bin
    /// `i` pays at least `min_{j≠i} c_ij`, and so does mass that must
    /// arrive; averaging the two sums gives the ½.
    half_min_cost: Vec<f64>,
    centroids: &'a [Vec<f64>],
}

impl<'a> Bounds<'a> {
    fn new(grid: &'a BinGrid, cost: &CostMatrix) -> Self {
        let n = cost.len();
        let half_min_cost = (0..n)
            .map(|i| {
                let cheapest = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| cost.get(i, j))
                    .fold(f64::INFINITY, f64::min);
                if cheapest.is_finite() {
                    0.5 * cheapest
                } else {
                    0.0
                }
            })
            .collect();
        Bounds {
            half_min_cost,
            centroids: grid.centroids(),
        }
    }

    /// `max(weighted L1, ‖centroid(x) − centroid(y)‖₂) ≤ EMD(x, y)`.
    fn lower(&self, x: &[f64], y: &[f64]) -> f64 {
        let l1: f64 = x
            .iter()
            .zip(y)
            .zip(&self.half_min_cost)
            .map(|((a, b), w)| (a - b).abs() * w)
            .sum();
        let feature_dims = self.centroids.first().map_or(0, Vec::len);
        let mut shift = vec![0.0; feature_dims];
        for ((a, b), c) in x.iter().zip(y).zip(self.centroids) {
            for (s, coord) in shift.iter_mut().zip(c) {
                *s += (a - b) * coord;
            }
        }
        let centroid = shift.iter().map(|s| s * s).sum::<f64>().sqrt();
        l1.max(centroid)
    }
}

fn truth_for(
    db: &HistogramDb,
    q: &[f64],
    cost: &CostMatrix,
    bounds: &Bounds<'_>,
) -> Result<Truth, String> {
    let mut order: Vec<(f64, usize)> = (0..db.len())
        .map(|id| (bounds.lower(q, db.get(id).bins()), id))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut truth = Truth::default();
    for (bound, id) in order {
        // The margin keeps every row inside the range checks' tolerance
        // band among the evaluated ones.
        if truth.knn.len() == K && bound > truth.kth() * (1.0 + 1e-8) {
            break;
        }
        let d = exact(q, db.get(id).bins(), cost)?;
        truth.evaluated.insert(id, d);
        let at = truth
            .knn
            .partition_point(|&(i, e)| e.total_cmp(&d).then(i.cmp(&id)).is_lt());
        if at < K {
            truth.knn.insert(at, (id, d));
            truth.knn.truncate(K);
        }
    }
    Ok(truth)
}

/// Ground truth for every query [`Inputs::in_oracle`] selects, keyed by
/// query index; computed on `threads` threads.
pub fn ground_truth(inputs: &Inputs, threads: usize) -> Result<HashMap<usize, Truth>, String> {
    let cost = inputs.grid.cost_matrix();
    let bounds = Bounds::new(&inputs.grid, &cost);
    let subset: Vec<usize> = (0..inputs.queries.len())
        .filter(|&i| Inputs::in_oracle(i))
        .collect();
    let threads = threads.max(1);
    let parts: Vec<Result<Vec<(usize, Truth)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (subset, cost, bounds) = (&subset, &cost, &bounds);
                scope.spawn(move || {
                    subset
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&i| {
                            truth_for(&inputs.db, inputs.queries[i].bins(), cost, bounds)
                                .map(|truth| (i, truth))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    let mut all = HashMap::new();
    for part in parts {
        all.extend(part?);
    }
    Ok(all)
}

/// Checks one served answer against the ground truth for its query and
/// returns its recall@K (range answers return 1.0 when right).
///
/// * exact k-NN: the distance profile equals the oracle's to [`TOL`],
///   and every returned id really lies at its returned distance;
/// * approximate: every returned distance is a true EMD and at most
///   `(1+ε)·d_k`;
/// * range: exactly the rows within the radius, rows inside the
///   tolerance band around it going either way.
pub fn check(req: Req, sketch: bool, items: &[(u64, f64)], truth: &Truth) -> Result<f64, String> {
    let true_distance = |id: u64| truth.evaluated.get(&(id as usize)).copied();
    // A row is a hit when it is as near as the true k-th neighbour: ties
    // (to the tolerance) count, whichever of them the oracle kept.
    let hits = items
        .iter()
        .filter(|(id, _)| true_distance(*id).is_some_and(|t| t <= truth.kth() * (1.0 + TOL)))
        .count();
    let recall = hits as f64 / K as f64;
    match req.op {
        // Sketch answers carry sketch distances, not EMDs: only their
        // recall is measured.
        Op::Knn if sketch => {
            if items.len() != K {
                return Err(format!("sketch k-NN returned {} items", items.len()));
            }
            Ok(recall)
        }
        Op::Knn => {
            if items.len() != truth.knn.len() {
                return Err(format!("k-NN returned {} items", items.len()));
            }
            for ((id, d), (tid, td)) in items.iter().zip(&truth.knn) {
                if !close(*d, *td) {
                    return Err(format!(
                        "k-NN distance {d} (row {id}) ≠ oracle {td} (row {tid})"
                    ));
                }
                // A different id is right only as an exact tie.
                match true_distance(*id) {
                    Some(t) if close(t, *d) => {}
                    _ => return Err(format!("k-NN row {id} is not at distance {d}")),
                }
            }
            Ok(recall)
        }
        Op::Approx => {
            if items.len() != truth.knn.len() {
                return Err(format!("approximate k-NN returned {} items", items.len()));
            }
            let limit = (1.0 + EPSILON) * truth.kth() * (1.0 + TOL);
            for (id, d) in items {
                if *d > limit {
                    return Err(format!("approximate distance {d} > (1+ε)·d_k = {limit}"));
                }
                // Rows the oracle skipped lie beyond d_k, where only
                // the ratio guarantee applies.
                if let Some(t) = true_distance(*id) {
                    if !close(t, *d) {
                        return Err(format!("approximate row {id}: {d} ≠ true {t}"));
                    }
                }
            }
            Ok(recall)
        }
        Op::Range => {
            let radius = truth.kth();
            let returned: HashMap<u64, f64> = items.iter().copied().collect();
            for (id, d) in items {
                match true_distance(*id) {
                    Some(t) if close(t, *d) && t <= radius * (1.0 + TOL) => {}
                    _ => return Err(format!("range row {id} at {d} is not within {radius}")),
                }
            }
            for (id, t) in &truth.evaluated {
                if *t <= radius * (1.0 - TOL) && !returned.contains_key(&(*id as u64)) {
                    return Err(format!("range missed row {id} at {t} ≤ {radius}"));
                }
            }
            Ok(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten neighbours at 0.01..=0.10, an eleventh row tied with the tenth
    /// to the last bit, and a far row.
    fn truth() -> Truth {
        let mut truth = Truth::default();
        for id in 0..K {
            let d = 0.01 * (id + 1) as f64;
            truth.knn.push((id, d));
            truth.evaluated.insert(id, d);
        }
        truth.evaluated.insert(77, 0.1 + f64::EPSILON / 8.0);
        truth.evaluated.insert(99, 0.5);
        truth
    }

    fn req(op: Op) -> Req {
        Req { op, query: 0 }
    }

    fn served(truth: &Truth) -> Vec<(u64, f64)> {
        truth.knn.iter().map(|(id, d)| (*id as u64, *d)).collect()
    }

    #[test]
    fn exact_knn_accepts_the_oracle_answer_and_last_bit_ties() {
        let truth = truth();
        let mut items = served(&truth);
        assert_eq!(check(req(Op::Knn), false, &items, &truth), Ok(1.0));
        items[K - 1] = (77, 0.1 + f64::EPSILON / 8.0);
        assert_eq!(check(req(Op::Knn), false, &items, &truth), Ok(1.0));
    }

    #[test]
    fn exact_knn_rejects_wrong_rows_and_wrong_distances() {
        let truth = truth();
        let mut items = served(&truth);
        items[K - 1] = (99, 0.5);
        assert!(check(req(Op::Knn), false, &items, &truth).is_err());
        let mut items = served(&truth);
        items[3].1 += 1e-6;
        assert!(check(req(Op::Knn), false, &items, &truth).is_err());
        assert!(check(req(Op::Knn), false, &items[..K - 1], &truth).is_err());
    }

    #[test]
    fn approximate_is_bounded_by_the_ratio_guarantee() {
        let truth = truth();
        let mut items = served(&truth);
        items[K - 1] = (1234, 0.1 * (1.0 + EPSILON)); // unevaluated row, inside the ratio
        assert_eq!(check(req(Op::Approx), false, &items, &truth), Ok(0.9));
        items[K - 1].1 = 0.1 * (1.0 + EPSILON) + 1e-6;
        assert!(check(req(Op::Approx), false, &items, &truth).is_err());
    }

    #[test]
    fn range_must_be_exactly_the_rows_within_the_radius() {
        let truth = truth();
        let mut items = served(&truth);
        assert_eq!(check(req(Op::Range), false, &items, &truth), Ok(1.0));
        items.push((77, 0.1 + f64::EPSILON / 8.0)); // inside the tolerance band
        assert_eq!(check(req(Op::Range), false, &items, &truth), Ok(1.0));
        items.push((99, 0.5));
        assert!(check(req(Op::Range), false, &items, &truth).is_err());
        let missing = &served(&truth)[1..];
        assert!(check(req(Op::Range), false, missing, &truth).is_err());
    }
}
