//! # earthmover
//!
//! Index-supported multistep query processing for the **Earth Mover's
//! Distance** — a from-scratch Rust reproduction of
//!
//! > Ira Assent, Andrea Wenning, Thomas Seidl.
//! > *Approximation Techniques for Indexing the Earth Mover's Distance in
//! > Multimedia Databases.* ICDE 2006.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `earthmover-core` | histograms, lower bounds, multistep query processing, the two-phase pipeline |
//! | [`transport`] | `earthmover-transport` | exact EMD via the transportation simplex |
//! | [`lp`] | `earthmover-lp` | generic dense-tableau LP solver (baseline + cross-validation) |
//! | [`rtree`] | `earthmover-rtree` | R-tree index with incremental ranking |
//! | [`mtree`] | `earthmover-mtree` | M-tree metric index, the direct-indexing baseline of §3.1 |
//! | [`storage_engine`] | `earthmover-storage` | checksummed page file, columnar histogram blocks, block buffer pool |
//! | [`obs`] | `earthmover-obs` | tracing spans and the metrics registry |
//! | [`imaging`] | `earthmover-imaging` | synthetic corpus, color spaces, histogram extraction, PPM/PGM |
//! | [`serve`] | `earthmover-serve` | `emdd` network query daemon: wire protocol, admission control, deadlines |
//!
//! The most common entry points are lifted to the crate root.
//!
//! ## Example: multistep k-NN over a synthetic image database
//!
//! ```
//! use earthmover::{BinGrid, QueryEngine};
//! use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
//!
//! // 1. A 64-bin color histogram layout and a synthetic image corpus.
//! let grid = BinGrid::new(vec![4, 4, 4]);
//! let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
//! let db = corpus.build_database(&grid, 200);
//!
//! // 2. The paper's two-phase engine: 3-D index → LB_IM → exact EMD.
//! let engine = QueryEngine::builder(&db, &grid).build();
//!
//! // 3. Query: 5 nearest neighbors of image 0's histogram.
//! let result = engine.knn(&db.get(0).to_histogram(), 5).expect("query failed");
//! assert_eq!(result.items.len(), 5);
//! assert_eq!(result.items[0].0, 0); // the image itself, at distance 0
//!
//! // Selectivity: the fraction of the DB that needed an exact EMD.
//! assert!(result.stats.selectivity() < 1.0);
//! ```

pub use earthmover_core as core;
pub use earthmover_imaging as imaging;
pub use earthmover_lp as lp;
pub use earthmover_mtree as mtree;
pub use earthmover_obs as obs;
pub use earthmover_rtree as rtree;
pub use earthmover_serve as serve;
pub use earthmover_storage as storage_engine;
pub use earthmover_transport as transport;

pub use earthmover_core::db::HistogramDb;
pub use earthmover_core::error::PipelineError;
pub use earthmover_core::ground::BinGrid;
pub use earthmover_core::histogram::Histogram;
pub use earthmover_core::lower_bounds::{
    DistanceMeasure, ExactEmd, LbAvg, LbEuclidean, LbIm, LbManhattan, LbMax,
};
pub use earthmover_core::multistep::optimal_knn_relaxed_within;
pub use earthmover_core::multistep::{
    gemini_knn, linear_scan_knn, optimal_knn, range_query, QueryResult,
};
pub use earthmover_core::pipeline::{FirstStage, KnnAlgorithm, QueryEngine};
pub use earthmover_core::quadratic_form::QuadraticForm;
pub use earthmover_core::sketch_tier::{RetrievalInfo, RetrievalMode, SketchTier};
pub use earthmover_transport::{emd, emd_with_flow, CostMatrix};
