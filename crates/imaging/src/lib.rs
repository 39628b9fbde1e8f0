//! Image substrate: color spaces, a synthetic image corpus, histogram
//! extraction, and PPM/PGM I/O.
//!
//! The paper's evaluation ran on a 200,000-image color database that is
//! not publicly available. This crate replaces it with a **parameterized
//! synthetic corpus** whose color-histogram distribution reproduces what
//! drives the experiments: class-clustered histograms (images of the same
//! scene family have nearby histograms) with realistic sparsity and
//! heavy-tailed bin masses. The retrieval experiments only ever see the
//! histograms, so matching their distribution — not image semantics — is
//! what preserves the paper's filter-selectivity behaviour (see
//! DESIGN.md §4 for the substitution argument).
//!
//! Everything is implemented from scratch: no `image` crate; PPM (P6) and
//! PGM (P5) codecs are ~150 lines and cover all visualization needs.
//!
//! # Example
//!
//! ```
//! use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
//! use earthmover_core::ground::BinGrid;
//!
//! let grid = BinGrid::new(vec![4, 4, 4]); // 64-bin RGB histograms
//! let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
//! let db = corpus.build_database(&grid, 100);
//! assert_eq!(db.len(), 100);
//! assert_eq!(db.dims(), 64);
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod color;
pub mod corpus;
pub mod extract;
pub mod image;
pub mod pnm;
