//! Multistep (filter-and-refine) query processing.
//!
//! The algorithms of §3 of the paper, generic over a [`CandidateSource`]
//! (where first-stage candidates come from) and an arbitrary chain of
//! intermediate lower-bound filters:
//!
//! * [`range_query`] — ε-range retrieval with filter pre-selection,
//! * [`gemini_knn`] — the classic GEMINI two-pass k-NN
//!   (Faloutsos et al.),
//! * [`optimal_knn`] — the optimal multistep k-NN of Seidl & Kriegel
//!   (SIGMOD 1998), which interleaves ranking and refinement, refines the
//!   candidate with the tightest lower bound first, and without
//!   intermediate filters provably generates the minimum number of
//!   exact-distance candidates,
//! * [`linear_scan_knn`] — the no-filter baseline (sequential scan with
//!   the exact distance), the paper's comparison floor.
//!
//! Completeness of all algorithms rests on the lower-bounding property of
//! the filters; the integration tests verify every configuration against
//! the brute-force result.

mod algorithms;
mod source;

pub use algorithms::{
    gemini_knn, gemini_knn_within, linear_scan_knn, linear_scan_knn_within, optimal_knn,
    optimal_knn_relaxed_within, optimal_knn_within, range_query, range_query_within, QueryResult,
};
pub use source::{
    CandidateSource, FailingSource, RankingCursor, RtreeSource, ScanSource, SourceCost,
};
