// Indexed loops over parallel arrays are idiomatic in this numeric code.
#![allow(clippy::needless_range_loop)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! An in-memory R-tree for low-dimensional point data.
//!
//! The paper's multistep architecture (Assent, Wenning & Seidl, ICDE 2006,
//! §3.1 and §4.7) runs its first filter step on a *three-dimensional* R-tree
//! — built either on color-averaged points (`LB_Avg`) or on
//! variance-reduced, weight-scaled histograms (`LB_Man` reduced to three
//! dimensions). The original evaluation used Hadjieleftheriou's Java R-tree;
//! this crate is the from-scratch Rust equivalent.
//!
//! Features:
//!
//! * dynamic insertion with least-enlargement subtree choice and **quadratic
//!   split** (Guttman 1984),
//! * **STR bulk loading** (sort-tile-recursive) for building large databases
//!   in one pass,
//! * rectangle and metric **range queries**,
//! * **incremental best-first ranking** (Hjaltason & Samet style) that
//!   yields stored points in nondecreasing distance order — the candidate
//!   generator required by the optimal multistep k-NN algorithm
//!   (Seidl & Kriegel 1998),
//! * node-access accounting for the experiment statistics.
//!
//! Distances are pluggable through [`PointMetric`]; the weighted
//! `L1`/`L2`/`L∞` metrics used by the paper's index filters are provided by
//! [`WeightedLp`]. The key contract is `mindist(rect, q) ≤ distance(p, q)`
//! for every point `p` inside `rect`, which makes both query modes exact.
//!
//! # Example
//!
//! ```
//! use earthmover_rtree::{RTree, WeightedLp};
//!
//! let mut tree = RTree::new(2);
//! for (id, p) in [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]].iter().enumerate() {
//!     tree.insert(p, id as u64);
//! }
//! let metric = WeightedLp::l2(vec![1.0, 1.0]);
//! let mut ranking = tree.rank_by_distance(&[0.2, 0.0], &metric);
//! assert_eq!(ranking.next().unwrap().0, 0); // nearest first
//! ```

mod metric;
mod rect;
mod tree;

pub use metric::{LpKind, PointMetric, WeightedLp};
pub use rect::Rect;
pub use tree::{OwnedRanking, QueryStats, RTree, Ranking};
