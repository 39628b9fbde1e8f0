#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Lower-bound filters and multistep query processing for the Earth
//! Mover's Distance — the primary contribution of Assent, Wenning & Seidl,
//! *"Approximation Techniques for Indexing the Earth Mover's Distance in
//! Multimedia Databases"*, ICDE 2006.
//!
//! # The problem
//!
//! The Earth Mover's Distance (EMD) ranks histograms the way humans
//! perceive similarity, but each evaluation solves a linear program — far
//! too slow to compare a query against every object of a large multimedia
//! database. The paper's answer is the classic *filter-and-refine*
//! (GEMINI) architecture: cheap, **complete** (never produces false drops)
//! lower-bound filters discard most of the database, and the expensive
//! exact EMD is computed only for the handful of surviving candidates.
//!
//! # What this crate provides
//!
//! * [`Histogram`] and [`HistogramDb`] — the feature data model
//!   ([`histogram`], [`db`]).
//! * [`BinGrid`] and cost-matrix construction — ground distances between
//!   histogram bins ([`ground`]).
//! * Every lower bound of the paper ([`lower_bounds`]):
//!   [`LbAvg`] (Rubner's centroid averaging, §4.1),
//!   [`LbManhattan`] (§4.3), [`LbMax`] (§4.4), [`LbEuclidean`] (§4.5), and
//!   the **Independent Minimization** bound [`LbIm`] (§4.6) with both of
//!   its refinements.
//! * Exact EMD refinement ([`ExactEmd`]) backed by the transportation
//!   simplex of `earthmover-transport`.
//! * Dimensionality reduction for index filters ([`reduce`]): centroid
//!   averaging and highest-variance 3-D reduction of the weighted
//!   Manhattan bound (§4.7).
//! * Multistep query processing ([`multistep`]): range queries, GEMINI
//!   k-NN, and the *optimal* multistep k-NN of Seidl & Kriegel, over
//!   sequential-scan or R-tree candidate sources, with arbitrary filter
//!   chains and full work statistics.
//! * The paper's two-phase pipeline ([`pipeline`]): 3-D R-tree index
//!   filter → `LB_IM` scan filter → exact EMD.
//! * Binary persistence ([`storage`]) and a multi-threaded scan executor
//!   ([`parallel`]) that runs query-compiled block kernels
//!   ([`DistanceKernel`], obtained via [`DistanceMeasure::prepare`]) over
//!   the database's columnar arena.
//!
//! # Quick start
//!
//! ```
//! use earthmover_core::ground::BinGrid;
//! use earthmover_core::histogram::Histogram;
//! use earthmover_core::db::HistogramDb;
//! use earthmover_core::pipeline::QueryEngine;
//!
//! // 8-bin histograms over a 2x2x2 grid of RGB space.
//! let grid = BinGrid::new(vec![2, 2, 2]);
//! let mut db = HistogramDb::new(8);
//! db.push(Histogram::normalized(vec![4.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0]).unwrap());
//! db.push(Histogram::normalized(vec![0.0, 0.0, 2.0, 6.0, 0.0, 0.0, 0.0, 0.0]).unwrap());
//! db.push(Histogram::normalized(vec![3.0, 2.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0]).unwrap());
//!
//! let engine = QueryEngine::builder(&db, &grid).build();
//! let query = Histogram::normalized(vec![4.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
//! let result = engine.knn(&query, 2).expect("query failed");
//! assert_eq!(result.items[0].0, 0); // the identical histogram comes first
//! ```

pub mod cache;
pub mod db;
pub mod deadline;
pub mod error;
pub mod ground;
pub mod histogram;
pub mod lower_bounds;
pub mod multistep;
pub mod parallel;
pub mod pipeline;
pub mod provider;
pub mod quadratic_form;
pub mod reduce;
pub mod sketch_tier;
pub mod stats;
pub mod storage;

pub use cache::{FilterCache, FilterCacheStats};
pub use db::HistogramDb;
pub use deadline::Deadline;
pub use error::PipelineError;
pub use ground::BinGrid;
pub use histogram::{Histogram, HistogramRef};
pub use lower_bounds::{
    DistanceKernel, DistanceMeasure, ExactEmd, LbAvg, LbEuclidean, LbIm, LbManhattan, LbMax,
};
pub use provider::{BlockData, BlockProvider, RowLease};
pub use sketch_tier::{RetrievalInfo, RetrievalMode, SketchTier};

// Re-export the substrate types users need to construct measures.
pub use earthmover_transport::CostMatrix;
