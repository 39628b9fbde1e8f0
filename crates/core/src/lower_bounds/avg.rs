//! Rubner's centroid-averaging lower bound (§4.1 of the paper).

use super::kernel::DistanceKernel;
use super::DistanceMeasure;
use crate::ground::euclidean;
use crate::histogram::Histogram;

/// The 3-D averaging lower bound `LB_Avg` of Rubner et al. (ICCV 1998):
///
/// ```text
/// EMD(x, y) ≥ ‖ Σ_i x_i·r_i / m  −  Σ_i y_i·r_i / m ‖
/// ```
///
/// where `r_i` is the centroid of bin `i` in the underlying feature space
/// (e.g. a 3-D color space) and the norm is the same one that defines the
/// ground distance. In words: moving earth can never beat teleporting the
/// *center of mass* directly.
///
/// The bound is valid when the ground distance is the norm-induced metric
/// on the bin centroids (here: Euclidean). Its output lives in the
/// feature-space dimensionality — three dimensions for color — which makes
/// it the natural index filter of §4.7 but denies it any flexibility to
/// grow tighter with histogram resolution (the paper's criticism in §4.1).
#[derive(Debug, Clone)]
pub struct LbAvg {
    centroids: Vec<Vec<f64>>,
}

impl LbAvg {
    /// Builds the bound from per-bin centroids in feature space.
    ///
    /// # Panics
    ///
    /// Panics if the centroids are empty or have inconsistent arity.
    pub fn new(centroids: Vec<Vec<f64>>) -> Self {
        assert!(!centroids.is_empty(), "need at least one centroid");
        let d = centroids[0].len();
        assert!(
            centroids.iter().all(|c| c.len() == d),
            "centroid arity must be uniform"
        );
        LbAvg { centroids }
    }

    /// Feature-space dimensionality (3 for color).
    pub fn feature_dims(&self) -> usize {
        self.centroids[0].len()
    }

    /// The mass-weighted centroid `Σ_i x_i·r_i / m` of a histogram — the
    /// exact quantity the paper precomputes as the 3-D index key.
    pub fn average(&self, x: &Histogram) -> Vec<f64> {
        self.average_bins(x.bins(), x.mass())
    }

    /// [`LbAvg::average`] over raw bins with an explicit total mass.
    /// Database arena rows carry mass exactly 1, so block kernels pass
    /// `1.0` without recomputing the sum.
    pub fn average_bins(&self, bins: &[f64], m: f64) -> Vec<f64> {
        let mut avg = vec![0.0; self.feature_dims()];
        self.average_into(bins, m, &mut avg);
        avg
    }

    /// [`LbAvg::average_bins`] writing into caller-provided scratch (no
    /// allocation); `out` must have [`LbAvg::feature_dims`] entries.
    pub fn average_into(&self, bins: &[f64], m: f64, out: &mut [f64]) {
        debug_assert_eq!(bins.len(), self.centroids.len(), "arity mismatch");
        debug_assert_eq!(out.len(), self.feature_dims(), "feature arity mismatch");
        let d = out.len();
        for a in out.iter_mut() {
            *a = 0.0;
        }
        if m <= 0.0 {
            return;
        }
        for (xi, r) in bins.iter().zip(&self.centroids) {
            if *xi != 0.0 {
                for k in 0..d {
                    out[k] += xi * r[k];
                }
            }
        }
        for a in out.iter_mut() {
            *a /= m;
        }
    }
}

/// Query-compiled [`LbAvg`] kernel: the query's centroid is folded once
/// at [`DistanceMeasure::prepare`] time, so each candidate costs one
/// sparse centroid fold plus a `feature_dims`-length Euclidean distance.
struct AvgKernel<'m> {
    lb: &'m LbAvg,
    /// `Σ_i q_i·r_i / m` for the prepared query, computed once.
    q_avg: Vec<f64>,
}

impl DistanceKernel for AvgKernel<'_> {
    fn eval(&self, cand: &[f64]) -> f64 {
        euclidean(&self.q_avg, &self.lb.average_bins(cand, 1.0))
    }

    fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        debug_assert_eq!(block.len(), stride * out.len(), "block/out shape mismatch");
        let mut avg = vec![0.0; self.lb.feature_dims()];
        for (row, slot) in block.chunks_exact(stride).zip(out.iter_mut()) {
            self.lb.average_into(row, 1.0, &mut avg);
            *slot = euclidean(&self.q_avg, &avg);
        }
    }
}

impl DistanceMeasure for LbAvg {
    fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        debug_assert!(x.mass_matches(y, 1e-7), "equal mass required");
        euclidean(&self.average(x), &self.average(y))
    }

    fn name(&self) -> &'static str {
        "LB_Avg"
    }

    fn cache_signature(&self) -> Option<u64> {
        let mut sig =
            crate::cache::signature_with(0xcbf2_9ce4_8422_2325, self.centroids.len() as u64);
        for r in &self.centroids {
            sig = crate::cache::signature_with(sig, crate::cache::signature_of(r));
        }
        Some(sig)
    }

    fn prepare<'m>(&'m self, q: &Histogram) -> Box<dyn DistanceKernel + 'm> {
        Box::new(AvgKernel {
            lb: self,
            q_avg: self.average(q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::ExactEmd;
    use super::*;
    use crate::ground::BinGrid;
    use crate::lower_bounds::test_support::random_pair;

    #[test]
    fn average_of_point_mass_is_its_centroid() {
        let grid = BinGrid::new(vec![2, 2]);
        let lb = LbAvg::new(grid.centroids().to_vec());
        let x = Histogram::new(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(lb.average(&x), grid.centroid(0).to_vec());
    }

    #[test]
    fn distance_between_point_masses_is_centroid_distance() {
        let grid = BinGrid::new(vec![2, 2]);
        let lb = LbAvg::new(grid.centroids().to_vec());
        let x = Histogram::new(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let y = Histogram::new(vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        let expect = crate::ground::euclidean(grid.centroid(0), grid.centroid(3));
        assert!((lb.distance(&x, &y) - expect).abs() < 1e-12);
        // ... and for point masses the EMD equals that exactly (tight).
        let exact = ExactEmd::new(grid.cost_matrix()).distance(&x, &y);
        assert!((lb.distance(&x, &y) - exact).abs() < 1e-12);
    }

    #[test]
    fn lower_bounds_emd_on_random_pairs() {
        for seed in 100..130 {
            let axes = vec![4, 4, 4];
            let grid = BinGrid::new(axes.clone());
            let (x, y, cost) = random_pair(seed, axes);
            let lb = LbAvg::new(grid.centroids().to_vec()).distance(&x, &y);
            let exact = ExactEmd::new(cost).distance(&x, &y);
            assert!(lb <= exact + 1e-9, "seed {seed}: {lb} > {exact}");
        }
    }

    #[test]
    fn symmetric_masses_cancel() {
        // Uniform histograms share the center of mass regardless of shape.
        let grid = BinGrid::new(vec![2, 2]);
        let lb = LbAvg::new(grid.centroids().to_vec());
        let x = Histogram::new(vec![0.5, 0.0, 0.0, 0.5]).unwrap();
        let y = Histogram::new(vec![0.0, 0.5, 0.5, 0.0]).unwrap();
        // Both average to the grid center: the bound collapses to zero even
        // though the EMD is positive — the weakness §4.1 describes.
        assert!(lb.distance(&x, &y) < 1e-12);
    }

    #[test]
    fn name() {
        let lb = LbAvg::new(vec![vec![0.0]]);
        assert_eq!(lb.name(), "LB_Avg");
    }
}
