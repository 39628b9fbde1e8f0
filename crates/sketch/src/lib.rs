#![deny(missing_docs)]

//! Approximate EMD sketches: compact per-histogram summaries whose
//! closed-form distances approximate the Earth Mover's Distance without
//! solving a transportation problem.
//!
//! The exact multistep pipeline of `earthmover-core` is *complete*: its
//! lower bounds are admissible, recall is always 1.0, and latency is
//! whatever refinement costs. This crate provides the missing third
//! operating point — bounded-recall retrieval at a fraction of the
//! latency — with one sketch family behind the [`Sketch`] trait:
//!
//! * [`TreeEmbedding`] — a hierarchical shifted-grid embedding of bin
//!   space (quadtree-style, after Indyk & Thaper). The L1 distance
//!   between embedding vectors equals the EMD under a dominating tree
//!   metric, giving the two-sided guarantee
//!   `EMD <= d_tree <= distortion() * EMD`.
//!
//! [`SketchIndex`] stores projected rows in a columnar arena and scans
//! them through a prepared block kernel ([`PreparedSketchQuery`]) in
//! 16-row tiles, mirroring the block-kernel scan path of the exact
//! engine. [`store`] persists the arena in a sidecar file alongside
//! the paged column store.

pub mod index;
pub mod store;
pub mod tree;

pub use index::{PreparedSketchQuery, SketchIndex, TILE};
pub use store::{load_sidecar, save_sidecar, SketchSidecar};
pub use tree::TreeEmbedding;

use std::fmt;

/// Errors constructing a sketch or projecting a histogram through one.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// A histogram's arity does not match the bin space the sketch was
    /// built over.
    ArityMismatch {
        /// Bin count the sketch expects.
        expected: usize,
        /// Bin count of the rejected histogram.
        got: usize,
    },
    /// The bin space is empty or has inconsistent centroid arity.
    InvalidBinSpace,
    /// A persisted arena does not match the sketch's geometry
    /// (`arena.len() != rows * dim`).
    ArenaShape {
        /// Expected arena length in f64 entries.
        expected: usize,
        /// Actual arena length.
        got: usize,
    },
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::ArityMismatch { expected, got } => {
                write!(f, "sketch expects {expected} bins, histogram has {got}")
            }
            SketchError::InvalidBinSpace => {
                write!(f, "bin space is empty or has inconsistent centroid arity")
            }
            SketchError::ArenaShape { expected, got } => {
                write!(
                    f,
                    "sketch arena shape mismatch: expected {expected} entries, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for SketchError {}

/// A per-histogram summary with a closed-form distance.
///
/// A sketch maps a histogram (a slice of non-negative bin masses) to a
/// fixed-length vector of `dim()` f64 coordinates; distances are then
/// computed between projected vectors only. Projections are pure
/// functions of the bin masses, so a [`SketchIndex`] can lay them out
/// in a columnar arena and scan with a block kernel.
pub trait Sketch {
    /// Length of a projected vector.
    fn dim(&self) -> usize;

    /// Number of histogram bins a projectable histogram must have.
    fn bins(&self) -> usize;

    /// Projects `bins` into `out` (length exactly [`Sketch::dim`]).
    ///
    /// Masses are normalized to total 1 internally, so raw and
    /// normalized histograms project identically.
    fn project(&self, bins: &[f64], out: &mut [f64]) -> Result<(), SketchError>;

    /// Closed-form distance between two projected vectors.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64;

    /// Short display name (`"tree"`).
    fn name(&self) -> &'static str;
}

/// One step of the splitmix64 sequence — the workspace's standard
/// seedable, dependency-free PRNG (also used by the serve retry
/// jitter). Deterministic for a given starting state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream.
pub(crate) fn unit_f64(state: &mut u64) -> f64 {
    // 53 high bits -> exactly representable dyadic rational in [0,1).
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = 7;
        let mut b = 7;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len());
    }

    #[test]
    fn unit_draws_are_in_range() {
        let mut s = 42;
        for _ in 0..100 {
            let x = unit_f64(&mut s);
            assert!((0.0..1.0).contains(&x));
        }
    }
}
