//! The Independent Minimization lower bound `LB_IM` (§4.6) — the paper's
//! key filter for high-dimensional histograms.

use super::kernel::DistanceKernel;
use super::DistanceMeasure;
use crate::histogram::Histogram;
use earthmover_transport::CostMatrix;

/// The Independent Minimization lower bound:
///
/// ```text
/// LB_IM(x, y) = min { Σ_ij (c_ij / m) f_ij :
///                     f_ij ≥ 0, Σ_j f_ij = x_i, f_ij ≤ y_j }
/// ```
///
/// Compared to the EMD, the column constraint `Σ_i f_ij = y_j` is relaxed
/// to a *per-row capacity* `f_ij ≤ y_j`. The search space grows, so the
/// minimum can only shrink — the lower-bounding proof of §4.6. The payoff
/// is decomposition: each row `i` becomes an independent fractional
/// greedy problem (“pour `x_i` units into the cheapest bins of row `i`,
/// capped at `y_j` each”), solvable in `O(n)` per row by walking the
/// row's cost order, which the [`CostMatrix`] sorted once when it was
/// built. No simplex, no global coupling.
///
/// Two refinements from the paper are implemented and on by default:
///
/// 1. **Diagonal reduction** (`refine_diagonal`): the flow between
///    corresponding bins is free (`c_ii = 0`) and always maximal
///    (`f_ii = min(x_i, y_i)`), so both histograms are first reduced by
///    their common mass. This *lowers the caps* `y_j` and strictly
///    improves selectivity.
/// 2. **Symmetric maximization** (`symmetric`): relaxing the row
///    constraints instead of the column constraints is equally valid, so
///    `max(LB_IM(x, y), LB_IM(y, x))` is the tighter complete filter.
#[derive(Debug, Clone)]
pub struct LbIm {
    /// The ground distance; its row orders drive `LB_IM(x, y)` and its
    /// column orders the swapped direction `LB_IM(y, x)`.
    cost: CostMatrix,
    refine_diagonal: bool,
    symmetric: bool,
}

impl LbIm {
    /// Builds the bound with both refinements enabled — the configuration
    /// the paper evaluates.
    pub fn new(cost: &CostMatrix) -> Self {
        Self::with_options(cost, true, true)
    }

    /// Builds the bound with explicit refinement toggles; used by the
    /// ablation benchmarks to quantify what each refinement buys.
    pub fn with_options(cost: &CostMatrix, refine_diagonal: bool, symmetric: bool) -> Self {
        LbIm {
            cost: cost.clone(),
            refine_diagonal,
            symmetric,
        }
    }

    /// Whether diagonal reduction is enabled.
    pub fn refines_diagonal(&self) -> bool {
        self.refine_diagonal
    }

    /// Whether symmetric maximization is enabled.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// One direction of the bound, *unnormalized* (no `/m`), matching the
    /// arithmetic of the paper's §4.6 worked example.
    ///
    /// `transposed = false` evaluates `LB_IM(x, y)` using the cost rows;
    /// `transposed = true` evaluates the swapped direction with cost
    /// columns, i.e. sources draw from `y` and caps come from `x`.
    fn one_direction(&self, source: &[f64], caps: &[f64], transposed: bool) -> f64 {
        let mut total = 0.0;
        for (i, &si) in source.iter().enumerate() {
            if si <= 0.0 {
                continue;
            }
            let order = if transposed {
                self.cost.col_order(i)
            } else {
                self.cost.row_order(i)
            };
            let mut remaining = si;
            for &j in order {
                let j = j as usize;
                let cap = caps[j];
                if cap <= 0.0 {
                    continue;
                }
                let c = if transposed {
                    self.cost.get(j, i)
                } else {
                    self.cost.get(i, j)
                };
                let take = remaining.min(cap);
                total += take * c;
                remaining -= take;
                if remaining <= 1e-15 * si {
                    break;
                }
            }
            // Any residual (possible only through floating-point dust when
            // the caps sum to exactly the source mass) is dropped, which
            // can only lower the bound — completeness is preserved.
        }
        total
    }

    /// Evaluates the raw (unnormalized) bound value, exposing the
    /// configuration arithmetic for tests and the ablation bench.
    pub fn raw(&self, x: &Histogram, y: &Histogram) -> f64 {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        self.raw_bins_with_scratch(x.bins(), y.bins(), &mut xs, &mut ys)
    }

    /// [`LbIm::raw`] over raw bin slices, reusing caller scratch for the
    /// diagonally-reduced copies — the allocation-free core the block
    /// kernel loops over.
    fn raw_bins_with_scratch(
        &self,
        x: &[f64],
        y: &[f64],
        xs: &mut Vec<f64>,
        ys: &mut Vec<f64>,
    ) -> f64 {
        debug_assert_eq!(x.len(), self.cost.len(), "arity mismatch");
        debug_assert_eq!(y.len(), self.cost.len(), "arity mismatch");
        xs.clear();
        ys.clear();
        if self.refine_diagonal {
            for (a, b) in x.iter().zip(y) {
                let d = a.min(*b);
                xs.push(a - d);
                ys.push(b - d);
            }
        } else {
            xs.extend_from_slice(x);
            ys.extend_from_slice(y);
        }
        let forward = self.one_direction(xs, ys, false);
        if self.symmetric {
            let backward = self.one_direction(ys, xs, true);
            forward.max(backward)
        } else {
            forward
        }
    }
}

/// Query-compiled [`LbIm`] kernel: the query bins and mass are fixed at
/// [`DistanceMeasure::prepare`] time, and the block path reuses one pair
/// of diagonal-reduction scratch vectors across all candidates instead
/// of allocating two per pair. The greedy orders themselves live on the
/// parent [`LbIm`]'s [`CostMatrix`] (they depend only on the costs).
struct ImKernel<'m> {
    im: &'m LbIm,
    /// The prepared query's bins.
    q: Vec<f64>,
    /// The prepared query's total mass (the `1/m` normalizer).
    m: f64,
}

impl DistanceKernel for ImKernel<'_> {
    fn eval(&self, cand: &[f64]) -> f64 {
        if self.m <= 0.0 {
            return 0.0;
        }
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        self.im
            .raw_bins_with_scratch(&self.q, cand, &mut xs, &mut ys)
            / self.m
    }

    fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        debug_assert_eq!(block.len(), stride * out.len(), "block/out shape mismatch");
        if self.m <= 0.0 {
            for slot in out.iter_mut() {
                *slot = 0.0;
            }
            return;
        }
        let mut xs = Vec::with_capacity(stride);
        let mut ys = Vec::with_capacity(stride);
        for (row, slot) in block.chunks_exact(stride).zip(out.iter_mut()) {
            *slot = self
                .im
                .raw_bins_with_scratch(&self.q, row, &mut xs, &mut ys)
                / self.m;
        }
    }
}

impl DistanceMeasure for LbIm {
    fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        debug_assert!(x.mass_matches(y, 1e-7), "equal mass required");
        let m = x.mass();
        if m <= 0.0 {
            return 0.0;
        }
        self.raw(x, y) / m
    }

    fn name(&self) -> &'static str {
        "LB_IM"
    }

    fn cache_signature(&self) -> Option<u64> {
        let n = self.cost.len();
        let mut sig = crate::cache::signature_with(0xcbf2_9ce4_8422_2325, n as u64);
        for i in 0..n {
            sig = crate::cache::signature_with(sig, crate::cache::signature_of(self.cost.row(i)));
        }
        sig = crate::cache::signature_with(sig, self.refine_diagonal as u64);
        sig = crate::cache::signature_with(sig, self.symmetric as u64);
        Some(sig)
    }

    fn prepare<'m>(&'m self, q: &Histogram) -> Box<dyn DistanceKernel + 'm> {
        Box::new(ImKernel {
            im: self,
            q: q.bins().to_vec(),
            m: q.mass(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{paper_example, random_pair};
    use super::super::{ExactEmd, LbManhattan};
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Balanced variant of the §4.6 example (see `paper_example` for why
        // the printed one is inconsistent): x = [4,3,5,4,5],
        // y = [1,2,3,8,7], line metric. Diagonal reduction gives
        // x' = [3,1,2,0,0], y' = [0,0,0,4,2].
        //
        // Forward (sources x', caps y'):
        //   row 0: 3 units → bin 3 at cost 3            = 9
        //   row 1: 1 unit  → bin 3 at cost 2            = 2
        //   row 2: 2 units → bin 3 at cost 1            = 2
        //   total 13.
        // Backward (sources y', caps x'):
        //   row 3: 2 → bin 2 (c 1), 1 → bin 1 (c 2), 1 → bin 0 (c 3) = 7
        //   row 4: 2 → bin 2 (c 2)                                   = 4
        //   total 11.
        // Symmetric max = 13.
        let (x, y, cost) = paper_example();
        let both = LbIm::new(&cost);
        assert!(
            (both.raw(&x, &y) - 13.0).abs() < 1e-12,
            "{}",
            both.raw(&x, &y)
        );
        let one_way = LbIm::with_options(&cost, true, false);
        assert!((one_way.raw(&x, &y) - 13.0).abs() < 1e-12);
        // The swapped direction alone gives 11.
        assert!(
            (one_way.raw(&y, &x) - 11.0).abs() < 1e-12,
            "{}",
            one_way.raw(&y, &x)
        );
        // Normalization by the mass 21.
        assert!((both.distance(&x, &y) - 13.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bounds_emd_on_random_pairs_all_configs() {
        for seed in 0..40 {
            let (x, y, cost) = random_pair(seed, vec![3, 3, 2]);
            let exact = ExactEmd::new(cost.clone()).distance(&x, &y);
            for refine in [false, true] {
                for sym in [false, true] {
                    let lb = LbIm::with_options(&cost, refine, sym).distance(&x, &y);
                    assert!(
                        lb <= exact + 1e-9,
                        "seed {seed} refine={refine} sym={sym}: {lb} > {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn refinements_never_hurt() {
        for seed in 0..40 {
            let (x, y, cost) = random_pair(seed, vec![4, 4]);
            let base = LbIm::with_options(&cost, false, false).distance(&x, &y);
            let refined = LbIm::with_options(&cost, true, false).distance(&x, &y);
            let symmetric = LbIm::with_options(&cost, true, true).distance(&x, &y);
            assert!(refined >= base - 1e-12, "seed {seed}");
            assert!(symmetric >= refined - 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn tighter_than_manhattan() {
        // Not a theorem in the paper, but the experimental story (§5):
        // LB_IM dominates LB_Man in selectivity. Verify at least on random
        // data that LB_IM >= LB_Man holds pointwise here.
        let mut wins = 0;
        let mut total = 0;
        for seed in 0..40 {
            let (x, y, cost) = random_pair(seed, vec![4, 4]);
            let man = LbManhattan::new(&cost).distance(&x, &y);
            let im = LbIm::new(&cost).distance(&x, &y);
            total += 1;
            if im >= man - 1e-12 {
                wins += 1;
            }
        }
        assert_eq!(wins, total, "LB_IM should dominate LB_Man on this data");
    }

    #[test]
    fn identical_histograms_zero() {
        let (x, _, cost) = paper_example();
        assert_eq!(LbIm::new(&cost).distance(&x, &x), 0.0);
    }

    #[test]
    fn exact_on_two_bins() {
        // With n = 2 and refinement, all remaining mass must cross between
        // the two bins: LB_IM equals the EMD exactly.
        let cost = CostMatrix::from_fn(2, |i, j| if i == j { 0.0 } else { 0.7 });
        let x = Histogram::new(vec![0.9, 0.1]).unwrap();
        let y = Histogram::new(vec![0.4, 0.6]).unwrap();
        let exact = ExactEmd::new(cost.clone()).distance(&x, &y);
        let im = LbIm::new(&cost).distance(&x, &y);
        assert!((exact - im).abs() < 1e-12);
    }

    #[test]
    fn options_accessors() {
        let cost = CostMatrix::from_fn(2, |i, j| if i == j { 0.0 } else { 1.0 });
        let lb = LbIm::with_options(&cost, false, true);
        assert!(!lb.refines_diagonal());
        assert!(lb.is_symmetric());
        assert_eq!(lb.name(), "LB_IM");
    }
}
