//! Multistep (filter-and-refine) query processing.
//!
//! The algorithms of §3 of the paper, generic over a [`CandidateSource`]
//! (where first-stage candidates come from) and an arbitrary chain of
//! intermediate lower-bound filters, one function each:
//!
//! * [`range_query_within`] — ε-range retrieval with filter pre-selection,
//! * [`gemini_knn_within`] — the classic GEMINI two-pass k-NN
//!   (Faloutsos et al.),
//! * [`optimal_knn_relaxed_within`] — the optimal multistep k-NN of
//!   Seidl & Kriegel (SIGMOD 1998), which interleaves ranking and
//!   refinement, refines the candidate with the tightest lower bound
//!   first, and without intermediate filters provably generates the
//!   minimum number of exact-distance candidates; `relax = 0.0` is the
//!   exact algorithm, a positive `relax` the approximate tier,
//! * [`linear_scan_knn`] — the no-filter baseline (sequential scan with
//!   the exact distance), the paper's comparison floor and the tests'
//!   oracle.
//!
//! The three filtered algorithms take a [`crate::Deadline`]
//! ([`crate::Deadline::none`] runs unbounded) and return a flagged
//! partial answer when it expires. Completeness of all algorithms rests
//! on the lower-bounding property of the filters; the integration tests
//! verify every configuration against the brute-force result.

mod algorithms;
mod source;

pub use algorithms::{
    gemini_knn_within, linear_scan_knn, optimal_knn_relaxed_within, range_query_within, QueryResult,
};
pub use source::{
    CandidateSource, FailingSource, RankingCursor, RtreeSource, ScanSource, SourceCost,
};
