//! Ground distances: where histogram bins live and what moving mass
//! between them costs.
//!
//! Color histograms partition a feature space (e.g. RGB or HSV) into a
//! grid of cells; each cell is one histogram bin, represented by its
//! centroid. The *ground distance* between two bins is the distance
//! between their centroids, collected into the [`CostMatrix`] that both
//! the exact EMD and every lower bound consume. With a Euclidean ground
//! distance the cost matrix is metric, hence so is the EMD (§2 of the
//! paper) — and Rubner's averaging bound [`crate::LbAvg`] is valid.

use earthmover_transport::CostMatrix;

/// A regular grid partition of a `d`-dimensional unit cube into histogram
/// bins.
///
/// `BinGrid::new(vec![4, 4, 4])` is the paper's 64-bin color histogram
/// layout: RGB space split into 4 slices per channel; `vec![4, 4, 2]` and
/// `vec![4, 2, 2]` give the 32- and 16-bin resolutions of the
/// dimensionality experiment (Figure 8).
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    axes: Vec<usize>,
    centroids: Vec<Vec<f64>>,
}

impl BinGrid {
    /// Creates a grid with `axes[d]` slices along feature dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if any axis has zero slices or no axes are given.
    pub fn new(axes: Vec<usize>) -> Self {
        assert!(!axes.is_empty(), "grid needs at least one axis");
        assert!(axes.iter().all(|&a| a > 0), "every axis needs >= 1 slice");
        let num_bins: usize = axes.iter().product();
        let mut centroids = Vec::with_capacity(num_bins);
        for bin in 0..num_bins {
            centroids.push(Self::centroid_of(&axes, bin));
        }
        BinGrid { axes, centroids }
    }

    /// The paper's 3-D color grid for a histogram of `bins` bins — the
    /// 16-, 32- and 64-bin resolutions of the dimensionality experiment
    /// (Figure 8) — or `None` for any other arity.
    pub fn for_bins(bins: usize) -> Option<BinGrid> {
        let axes = match bins {
            16 => vec![4, 2, 2],
            32 => vec![4, 4, 2],
            64 => vec![4, 4, 4],
            _ => return None,
        };
        Some(BinGrid::new(axes))
    }

    fn centroid_of(axes: &[usize], mut bin: usize) -> Vec<f64> {
        // Row-major: the last axis varies fastest.
        let mut coords = vec![0.0; axes.len()];
        for d in (0..axes.len()).rev() {
            let idx = bin % axes[d];
            bin /= axes[d];
            coords[d] = (idx as f64 + 0.5) / axes[d] as f64;
        }
        coords
    }

    /// Total number of bins (product of axis resolutions).
    pub fn num_bins(&self) -> usize {
        self.centroids.len()
    }

    /// Feature-space dimensionality (number of axes).
    pub fn feature_dims(&self) -> usize {
        self.axes.len()
    }

    /// The slice counts per axis.
    pub fn axes(&self) -> &[usize] {
        &self.axes
    }

    /// Centroid (cell center) of bin `bin`, in `[0, 1]^d`.
    pub fn centroid(&self, bin: usize) -> &[f64] {
        &self.centroids[bin]
    }

    /// All centroids, indexed by bin.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Maps a feature-space point (clamped into the unit cube) to its bin.
    pub fn bin_of(&self, point: &[f64]) -> usize {
        assert_eq!(point.len(), self.axes.len(), "point arity mismatch");
        let mut bin = 0;
        for (d, &slices) in self.axes.iter().enumerate() {
            let x = point[d].clamp(0.0, 1.0);
            // Map [0,1] onto {0, .., slices-1}; x == 1.0 lands in the last
            // slice.
            let idx = ((x * slices as f64) as usize).min(slices - 1);
            bin = bin * slices + idx;
        }
        bin
    }

    /// The Euclidean ground-distance cost matrix between bin centroids.
    ///
    /// This is the standard choice for color retrieval and is metric by
    /// construction (distinct grid cells have distinct centroids).
    pub fn cost_matrix(&self) -> CostMatrix {
        CostMatrix::from_fn(self.num_bins(), |i, j| {
            euclidean(&self.centroids[i], &self.centroids[j])
        })
    }

    /// A cost matrix from an arbitrary ground distance over centroids.
    pub fn cost_matrix_with(&self, ground: impl Fn(&[f64], &[f64]) -> f64) -> CostMatrix {
        CostMatrix::from_fn(self.num_bins(), |i, j| {
            ground(&self.centroids[i], &self.centroids[j])
        })
    }
}

/// Plain Euclidean distance between two equal-arity points.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_count_is_axis_product() {
        for (bins, axes) in [(64, [4, 4, 4]), (32, [4, 4, 2]), (16, [4, 2, 2])] {
            let grid = BinGrid::for_bins(bins).expect("a paper resolution");
            assert_eq!(grid.axes(), axes);
            assert_eq!(grid.num_bins(), bins);
        }
        assert_eq!(BinGrid::for_bins(48), None);
    }

    #[test]
    fn centroids_are_cell_centers() {
        let g = BinGrid::new(vec![2, 2]);
        // Row-major: bin 0 = (0,0) cell, bin 1 = (0,1), bin 2 = (1,0), ...
        assert_eq!(g.centroid(0), &[0.25, 0.25]);
        assert_eq!(g.centroid(1), &[0.25, 0.75]);
        assert_eq!(g.centroid(2), &[0.75, 0.25]);
        assert_eq!(g.centroid(3), &[0.75, 0.75]);
    }

    #[test]
    fn bin_of_round_trips_centroids() {
        let g = BinGrid::new(vec![4, 3, 2]);
        for bin in 0..g.num_bins() {
            assert_eq!(g.bin_of(g.centroid(bin)), bin, "bin {bin}");
        }
    }

    #[test]
    fn bin_of_clamps_out_of_range() {
        let g = BinGrid::new(vec![2, 2]);
        assert_eq!(g.bin_of(&[-0.5, -0.5]), 0);
        assert_eq!(g.bin_of(&[1.5, 1.5]), 3);
        assert_eq!(g.bin_of(&[1.0, 1.0]), 3); // boundary lands in last cell
    }

    #[test]
    fn cost_matrix_is_metric() {
        let g = BinGrid::new(vec![3, 3]);
        let c = g.cost_matrix();
        assert_eq!(c.len(), 9);
        assert!(c.is_metric(1e-9));
    }

    #[test]
    fn cost_matrix_values() {
        let g = BinGrid::new(vec![2]);
        let c = g.cost_matrix();
        // centroids 0.25 and 0.75 -> distance 0.5
        assert!((c.get(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn custom_ground_distance() {
        let g = BinGrid::new(vec![2]);
        let c = g.cost_matrix_with(|a, b| 2.0 * (a[0] - b[0]).abs());
        assert!((c.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn empty_axes_panic() {
        let _ = BinGrid::new(vec![]);
    }
}
