//! Query-compiled distance kernels: the batch evaluation layer.
//!
//! A [`DistanceKernel`] is a [`super::DistanceMeasure`] *prepared* for one
//! fixed query: everything that depends only on the query — weight
//! vectors for the L_p bounds (§4.3–4.5), the query centroid for LB_Avg
//! (§4.1), the query-side greedy state for LB_IM (§4.6) — is hoisted out
//! of the candidate loop at [`super::DistanceMeasure::prepare`] time.
//! The kernel then evaluates candidates either one row at a time
//! ([`DistanceKernel::eval`]) or over a whole columnar block straight out
//! of the [`crate::db::HistogramDb`] arena
//! ([`DistanceKernel::eval_block`]).
//!
//! # Contract
//!
//! For every measure `m`, query `q` and database row `h`:
//!
//! ```text
//! m.prepare(&q).eval(h.bins()) == m.distance(&q, &h)      (bit-identical)
//! eval_block(block, d, out)[i] == eval(block[i*d..(i+1)*d])
//! ```
//!
//! The equality is *exact*, not approximate: the prepared paths perform
//! the same floating-point operation sequence per candidate term as the
//! scalar paths, so filter selectivity and k-NN result sets cannot shift
//! between the scalar and batched executors. `tests/bound_matrix.rs`
//! compares the bit patterns for every measure, on one kernel tile plus
//! remainder under proptest and across many tiles on a fixed corpus.
//!
//! Candidate rows come from the database arena and therefore carry mass
//! exactly 1; kernels may (and do) exploit that invariant.

use crate::error::PipelineError;
use crate::histogram::Histogram;

/// A distance measure compiled against one fixed query histogram.
///
/// Obtained from [`super::DistanceMeasure::prepare`]; borrows the measure
/// it was prepared from. Kernels are immutable after construction and
/// shared across scan worker threads, hence the `Send + Sync` bound.
pub trait DistanceKernel: Send + Sync {
    /// Distance between the prepared query and one candidate row of
    /// mass-normalized bins.
    ///
    /// # Panics
    ///
    /// Implementations may panic on arity mismatch, exactly like
    /// [`super::DistanceMeasure::distance`].
    fn eval(&self, cand: &[f64]) -> f64;

    /// Fallible variant of [`DistanceKernel::eval`] that also reports a
    /// degradation note, mirroring
    /// [`super::DistanceMeasure::try_distance_noted`]. The lower bounds
    /// cannot fail and use this default; the exact-EMD kernel overrides
    /// it to surface solver fallbacks.
    fn try_eval_noted(&self, cand: &[f64]) -> Result<(f64, Option<&'static str>), PipelineError> {
        Ok((self.eval(cand), None))
    }

    /// Evaluates a whole columnar block: `block` holds
    /// `out.len()` candidate rows back to back with the given `stride`,
    /// and row `i`'s distance is written to `out[i]`.
    ///
    /// The default walks the block row by row through
    /// [`DistanceKernel::eval`]; the L_p kernels override it with a
    /// multi-row pass that amortizes weight-vector traversal.
    fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        debug_assert_eq!(block.len(), stride * out.len(), "block/out shape mismatch");
        for (row, slot) in block.chunks_exact(stride).zip(out.iter_mut()) {
            *slot = self.eval(row);
        }
    }
}

/// The fallback kernel: holds a clone of the query and calls the
/// measure's pair-at-a-time entry points for every candidate. Used by
/// every measure without a specialized kernel (notably
/// [`super::ExactEmd`]'s simplex, whose per-pair cost dwarfs any
/// batching win, and external [`super::DistanceMeasure`] impls that keep
/// the default [`super::DistanceMeasure::prepare`]).
pub(crate) struct PairKernel<'m, M: ?Sized> {
    /// The borrowed parent measure.
    pub(crate) measure: &'m M,
    /// Owned copy of the query.
    pub(crate) q: Histogram,
}

impl<M: super::DistanceMeasure + ?Sized> DistanceKernel for PairKernel<'_, M> {
    fn eval(&self, cand: &[f64]) -> f64 {
        self.measure
            .distance(&self.q, &Histogram::from_normalized_slice(cand))
    }

    fn try_eval_noted(&self, cand: &[f64]) -> Result<(f64, Option<&'static str>), PipelineError> {
        self.measure
            .try_distance_noted(&self.q, &Histogram::from_normalized_slice(cand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measure whose value encodes its inputs, to check block plumbing.
    struct SumDiff;

    impl super::super::DistanceMeasure for SumDiff {
        fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
            x.bins()
                .iter()
                .zip(y.bins())
                .map(|(a, b)| (a - b).abs())
                .sum()
        }
        fn name(&self) -> &'static str {
            "SumDiff"
        }
    }

    #[test]
    fn default_block_matches_per_row_eval() {
        use super::super::DistanceMeasure;
        let q = Histogram::normalized(vec![1.0, 1.0]).unwrap();
        let kernel = SumDiff.prepare(&q);
        let block = [1.0, 0.0, 0.25, 0.75, 0.5, 0.5];
        let mut out = [0.0; 3];
        kernel.eval_block(&block, 2, &mut out);
        for (row, got) in block.chunks_exact(2).zip(out) {
            assert_eq!(got, kernel.eval(row));
        }
        assert_eq!(out[0], 1.0);
        assert_eq!(out[2], 0.0);
    }
}
