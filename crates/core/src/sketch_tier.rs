//! The approximate retrieval tier: sketch indexes over the database and
//! the [`RetrievalMode`] knob that trades recall for latency.
//!
//! The paper's pipeline is *exact* — every filter is admissible, recall
//! is always 1.0 and latency is whatever refinement costs. This module
//! adds the missing operating points on the recall/latency curve:
//!
//! * [`RetrievalMode::Exact`] — the existing optimal multistep pipeline,
//!   recall 1.0.
//! * [`RetrievalMode::Approximate`] — ε-relaxed multistep refinement:
//!   the optimal k-NN loop prunes against `d_k / (1 + ε)` instead of
//!   `d_k`, cutting exact-EMD evaluations while guaranteeing no
//!   reported neighbor is worse than `(1 + ε)` times the true k-th
//!   nearest distance.
//! * [`RetrievalMode::SketchOnly`] — answer straight from the
//!   tree-embedding sketch arena, skipping refinement entirely; the
//!   result carries a [`SKETCH_ONLY_NOTE`] degradation note because the
//!   reported distances are approximations.
//!
//! [`SketchTier`] is the distortion-certified tree embedding of
//! `earthmover-sketch` built over one database — the arena that answers
//! sketch-only queries — with sidecar persistence next to the `.emdc`
//! column store.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::db::HistogramDb;
use crate::deadline::{Deadline, DEADLINE_NOTE};
use crate::error::PipelineError;
use crate::ground::BinGrid;
use crate::histogram::Histogram;
use crate::stats::QueryStats;
use earthmover_obs::{self as obs, names};
use earthmover_sketch::{
    load_sidecar, save_sidecar, Sketch, SketchIndex, SketchSidecar, TreeEmbedding,
};
use serde::{Deserialize, Serialize};

/// Degradation note recorded on every sketch-only answer: distances are
/// sketch approximations, not exact EMDs.
pub const SKETCH_ONLY_NOTE: &str =
    "SKETCH_ONLY: refinement skipped; distances are sketch approximations";

/// Degradation note recorded when a sketch-only query arrives at an
/// engine with no sketch tier attached — the engine serves the exact
/// answer instead of failing.
pub const SKETCH_UNAVAILABLE_NOTE: &str =
    "SKETCH_UNAVAILABLE: no sketch tier loaded; query served exact";

/// Which retrieval tier a query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetrievalMode {
    /// The exact multistep pipeline — recall 1.0, full refinement cost.
    Exact,
    /// ε-relaxed multistep refinement: every reported neighbor is within
    /// `(1 + epsilon)` of the true k-th nearest distance, with fewer
    /// exact-EMD refinements the larger `epsilon` is.
    Approximate {
        /// Relative slack; `0.0` reproduces the exact tier bit-for-bit.
        epsilon: f64,
    },
    /// Answer from the tree-embedding sketch arena alone — no
    /// refinement, order-of-magnitude latency win, bounded (not perfect)
    /// recall.
    SketchOnly,
}

impl RetrievalMode {
    /// Wire code of the mode (`0`/`1`/`2`).
    pub fn code(&self) -> u8 {
        match self {
            RetrievalMode::Exact => 0,
            RetrievalMode::Approximate { .. } => 1,
            RetrievalMode::SketchOnly => 2,
        }
    }

    /// The relaxation parameter (zero for non-approximate modes).
    pub fn epsilon(&self) -> f64 {
        match self {
            RetrievalMode::Approximate { epsilon } => *epsilon,
            _ => 0.0,
        }
    }

    /// Decodes a wire `(code, epsilon)` pair; `None` for unknown codes
    /// or a non-finite/negative epsilon.
    pub fn from_code(code: u8, epsilon: f64) -> Option<RetrievalMode> {
        match code {
            0 => Some(RetrievalMode::Exact),
            1 if epsilon.is_finite() && epsilon >= 0.0 => {
                Some(RetrievalMode::Approximate { epsilon })
            }
            2 => Some(RetrievalMode::SketchOnly),
            _ => None,
        }
    }

    /// Parses the CLI spelling: `exact`, `sketch`, or `approx:<eps>`
    /// (also accepted: `approximate:<eps>`).
    pub fn parse(s: &str) -> Option<RetrievalMode> {
        match s {
            "exact" => Some(RetrievalMode::Exact),
            "sketch" => Some(RetrievalMode::SketchOnly),
            _ => {
                let eps = s
                    .strip_prefix("approx:")
                    .or_else(|| s.strip_prefix("approximate:"))?;
                let epsilon: f64 = eps.parse().ok()?;
                if epsilon.is_finite() && epsilon >= 0.0 {
                    Some(RetrievalMode::Approximate { epsilon })
                } else {
                    None
                }
            }
        }
    }
}

impl std::fmt::Display for RetrievalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrievalMode::Exact => write!(f, "exact"),
            RetrievalMode::Approximate { epsilon } => write!(f, "approx:{epsilon}"),
            RetrievalMode::SketchOnly => write!(f, "sketch"),
        }
    }
}

/// Which tier answered a query and the recall it guarantees — attached
/// to [`QueryStats::retrieval`] and carried over the wire so clients
/// see what they got.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievalInfo {
    /// The mode the query actually ran under.
    pub mode: RetrievalMode,
    /// Guaranteed (not measured) recall of the tier: `1.0` for exact,
    /// the `1 / (1 + epsilon)` distance-ratio guarantee for the relaxed
    /// tier, and the `1 / distortion` sketch guarantee for sketch-only.
    /// Measured recall on a concrete corpus is typically far higher —
    /// `tests/recall_tiers.rs` holds the two side by side.
    pub recall: f64,
}

/// The tree-embedding sketch index built over one database, ready to
/// answer sketch-only queries and to persist as a sidecar next to the
/// column store.
#[derive(Debug, Clone)]
pub struct SketchTier {
    tree: SketchIndex<TreeEmbedding>,
    /// Feature-space dimensionality of the grid the tier was built
    /// over; persisted so a sidecar is refused against another grid.
    feature_dims: usize,
}

fn sketch_err(e: earthmover_sketch::SketchError) -> PipelineError {
    PipelineError::Source {
        stage: "sketch".into(),
        reason: e.to_string(),
    }
}

impl SketchTier {
    /// Builds the sketch index by streaming every database block
    /// through the projection — works for resident and paged databases
    /// alike. `seed` fixes the tree embedding's grid shift.
    pub fn build(db: &HistogramDb, grid: &BinGrid, seed: u64) -> Result<Self, PipelineError> {
        if grid.num_bins() != db.dims() {
            return Err(PipelineError::Source {
                stage: "sketch".into(),
                reason: format!(
                    "grid has {} bins but database rows have {}",
                    grid.num_bins(),
                    db.dims()
                ),
            });
        }
        let mut span = obs::span!(names::SKETCH_BUILD, rows = db.len());
        let tree_sketch = TreeEmbedding::new(grid.centroids(), seed).map_err(sketch_err)?;
        span.record("distortion", tree_sketch.distortion());
        let mut tree = SketchIndex::new(tree_sketch);
        for b in 0..db.num_blocks() {
            let block = db.block(b)?;
            for row in block.chunks_exact(db.dims()) {
                tree.push(row).map_err(sketch_err)?;
            }
        }
        Ok(SketchTier {
            tree,
            feature_dims: grid.feature_dims(),
        })
    }

    /// Number of sketched rows (equals the database length the tier was
    /// built over).
    pub fn rows(&self) -> usize {
        self.tree.rows()
    }

    /// Seed the tree embedding's grid shift was drawn from.
    pub fn seed(&self) -> u64 {
        self.tree.sketch().seed()
    }

    /// Certified distortion of the tree embedding:
    /// `EMD <= d_sketch <= distortion * EMD`.
    pub fn distortion(&self) -> f64 {
        self.tree.sketch().distortion()
    }

    /// The guaranteed-recall figure reported for sketch-only answers:
    /// the inverse of the certified distortion. A worst-case bound —
    /// measured recall is typically much higher (`recall_at_k` of the
    /// `wire_sketch_d16` workload, `e2ebench/BENCHMARK.md`).
    pub fn recall_estimate(&self) -> f64 {
        1.0 / self.distortion()
    }

    /// The tree-embedding index (the family that answers sketch-only
    /// queries).
    pub fn tree(&self) -> &SketchIndex<TreeEmbedding> {
        &self.tree
    }

    /// k nearest rows under the tree-embedding sketch distance, sorted
    /// ascending by `(distance, id)` — one tiled pass over the sketch
    /// arena, no exact-EMD evaluation.
    pub fn knn(&self, query: &Histogram, k: usize) -> Result<Vec<(usize, f64)>, PipelineError> {
        let _span = obs::span!(names::SKETCH_SCAN, k = k, rows = self.rows());
        self.tree.knn(query.bins(), k).map_err(sketch_err)
    }

    /// Like [`SketchTier::knn`], but also assembles the [`QueryStats`]
    /// record for a sketch-only answer (including the
    /// [`SKETCH_ONLY_NOTE`] and the [`RetrievalInfo`]).
    pub fn knn_with_stats(
        &self,
        query: &Histogram,
        k: usize,
        deadline: Deadline,
    ) -> Result<(Vec<(usize, f64)>, QueryStats), PipelineError> {
        let start = Instant::now();
        let items = self.knn(query, k)?;
        let mut stats = QueryStats {
            db_size: self.rows(),
            results: items.len() as u64,
            retrieval: Some(RetrievalInfo {
                mode: RetrievalMode::SketchOnly,
                recall: self.recall_estimate(),
            }),
            ..Default::default()
        };
        stats.add_filter_evaluations(self.tree.sketch().name(), self.rows() as u64);
        stats.record_degradation_once(SKETCH_ONLY_NOTE);
        if deadline.expired() {
            stats.deadline_expired = true;
            stats.record_degradation_once(DEADLINE_NOTE);
        }
        stats.set_elapsed(start.elapsed());
        Ok((items, stats))
    }

    /// Serializes the tier into the sidecar record persisted alongside
    /// the column store.
    pub fn to_sidecar(&self) -> SketchSidecar {
        SketchSidecar {
            seed: self.seed(),
            feature_dims: self.feature_dims as u32,
            bins: self.tree.sketch().bins() as u32,
            rows: self.rows() as u64,
            tree_dim: self.tree.dim() as u32,
            tree_arena: self.tree.arena().to_vec(),
        }
    }

    /// Writes the tier to a sidecar file (conventionally
    /// `<db>.emds` next to the `.emdb`/`.emdc` store).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_sidecar(path, &self.to_sidecar())
    }

    /// Loads a sidecar and rebuilds the sketch definition
    /// deterministically from `grid` and the stored seed — only the row
    /// arena (the expensive part) comes from disk. Geometry mismatches
    /// against the grid are reported as [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path, grid: &BinGrid) -> io::Result<Self> {
        let sidecar = load_sidecar(path)?;
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if sidecar.feature_dims as usize != grid.feature_dims()
            || sidecar.bins as usize != grid.num_bins()
        {
            return Err(invalid(format!(
                "sketch sidecar was built over a {}-dim {}-bin grid; this grid is {}-dim {}-bin",
                sidecar.feature_dims,
                sidecar.bins,
                grid.feature_dims(),
                grid.num_bins()
            )));
        }
        let tree_sketch = TreeEmbedding::new(grid.centroids(), sidecar.seed)
            .map_err(|e| invalid(e.to_string()))?;
        if tree_sketch.dim() != sidecar.tree_dim as usize {
            return Err(invalid(format!(
                "rebuilt tree embedding has dim {} but sidecar stored {}",
                tree_sketch.dim(),
                sidecar.tree_dim
            )));
        }
        let rows = usize::try_from(sidecar.rows)
            .map_err(|_| invalid("sidecar row count overflows usize".into()))?;
        let tree = SketchIndex::from_parts(tree_sketch, sidecar.tree_arena, rows)
            .map_err(|e| invalid(e.to_string()))?;
        Ok(SketchTier {
            tree,
            feature_dims: grid.feature_dims(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn test_db(grid: &BinGrid, n: usize) -> HistogramDb {
        let mut db = HistogramDb::new(grid.num_bins());
        let mut state = 0x5eed_u64;
        for _ in 0..n {
            let bins: Vec<f64> = (0..grid.num_bins())
                .map(|_| {
                    let x = earthmover_sketch::splitmix64(&mut state);
                    (x % 1000) as f64 / 1000.0 + 0.001
                })
                .collect();
            db.push(Histogram::new(bins).unwrap());
        }
        db
    }

    #[test]
    fn mode_codes_round_trip() {
        for mode in [
            RetrievalMode::Exact,
            RetrievalMode::Approximate { epsilon: 0.5 },
            RetrievalMode::SketchOnly,
        ] {
            assert_eq!(
                RetrievalMode::from_code(mode.code(), mode.epsilon()),
                Some(mode)
            );
        }
        assert_eq!(RetrievalMode::from_code(9, 0.0), None);
        assert_eq!(RetrievalMode::from_code(1, f64::NAN), None);
        assert_eq!(RetrievalMode::from_code(1, -0.5), None);
    }

    #[test]
    fn mode_parse_matches_display() {
        for mode in [
            RetrievalMode::Exact,
            RetrievalMode::Approximate { epsilon: 0.25 },
            RetrievalMode::SketchOnly,
        ] {
            assert_eq!(RetrievalMode::parse(&mode.to_string()), Some(mode));
        }
        assert_eq!(
            RetrievalMode::parse("approximate:1.5").unwrap().epsilon(),
            1.5
        );
        assert_eq!(RetrievalMode::parse("bogus"), None);
        assert_eq!(RetrievalMode::parse("approx:nope"), None);
        assert_eq!(RetrievalMode::parse("approx:-1"), None);
    }

    #[test]
    fn build_requires_matching_geometry() {
        let grid = BinGrid::new(vec![2, 2]);
        let db = HistogramDb::new(8);
        assert!(matches!(
            SketchTier::build(&db, &grid, 1),
            Err(PipelineError::Source { .. })
        ));
    }

    #[test]
    fn sketch_knn_finds_identical_row_first() {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let db = test_db(&grid, 50);
        let tier = SketchTier::build(&db, &grid, 7).unwrap();
        assert_eq!(tier.rows(), 50);
        assert!(tier.distortion() >= 1.0);
        let query = db.get(13).to_histogram();
        let items = tier.knn(&query, 5).unwrap();
        assert_eq!(items[0].0, 13);
        assert_eq!(items[0].1, 0.0);
    }

    #[test]
    fn knn_with_stats_records_the_sketch_only_note() {
        let grid = BinGrid::new(vec![2, 2]);
        let db = test_db(&grid, 20);
        let tier = SketchTier::build(&db, &grid, 3).unwrap();
        let query = db.get(0).to_histogram();
        let (items, stats) = tier.knn_with_stats(&query, 3, Deadline::none()).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(stats.db_size, 20);
        assert_eq!(stats.results, 3);
        assert_eq!(stats.exact_evaluations, 0);
        assert!(stats.degradations.iter().any(|d| d == SKETCH_ONLY_NOTE));
        let info = stats.retrieval.unwrap();
        assert_eq!(info.mode, RetrievalMode::SketchOnly);
        assert!(info.recall > 0.0 && info.recall <= 1.0);
    }

    #[test]
    fn sidecar_round_trips_through_disk() {
        let grid = BinGrid::new(vec![4, 2, 2]);
        let db = test_db(&grid, 30);
        let tier = SketchTier::build(&db, &grid, 99).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("sketch_tier_rt_{}.emds", std::process::id()));
        tier.save(&path).unwrap();
        let loaded = SketchTier::load(&path, &grid).unwrap();
        assert_eq!(loaded.rows(), tier.rows());
        assert_eq!(loaded.seed(), tier.seed());
        assert_eq!(loaded.distortion(), tier.distortion());
        let query = db.get(7).to_histogram();
        assert_eq!(loaded.knn(&query, 4).unwrap(), tier.knn(&query, 4).unwrap());
        // Loading against the wrong grid is a typed failure.
        let err = SketchTier::load(&path, &BinGrid::new(vec![2, 2])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
