//! The paper's two-phase multistep pipeline, packaged as a query engine.
//!
//! §4.7 of the paper combines three observations into one architecture:
//!
//! 1. indexes only work in low dimensions → run the R-tree on *3-D
//!    reduced keys* (centroid averages, or the top-variance bins of the
//!    weighted Manhattan bound);
//! 2. `LB_IM` is by far the most selective filter but costs `O(n²)` per
//!    pair → run it as a *second* filter over the index candidates only;
//! 3. the exact EMD is run last, over whatever survives.
//!
//! [`QueryEngine`] wires this up with sensible defaults
//! (`LB_Avg` 3-D index → `LB_IM` → EMD, optimal multistep k-NN) while
//! letting every stage be swapped for the configurations the paper's
//! experiments compare. Every stage evaluates its bound through a
//! query-compiled kernel ([`DistanceMeasure::prepare`]): per-query state
//! is hoisted once, and scan-shaped stages run
//! `DistanceKernel::eval_block` straight over the database's columnar
//! arena (see `DESIGN.md` §11).

use crate::db::HistogramDb;
use crate::deadline::Deadline;
use crate::error::PipelineError;
use crate::ground::BinGrid;
use crate::histogram::Histogram;
use crate::lower_bounds::{DistanceMeasure, ExactEmd, LbAvg, LbIm, LbManhattan};
use crate::multistep::{
    gemini_knn_within, optimal_knn_relaxed_within, range_query_within, CandidateSource,
    QueryResult, RtreeSource, ScanSource,
};
use crate::reduce::{AvgReducer, ManhattanReducer};
use crate::sketch_tier::{RetrievalInfo, RetrievalMode, SketchTier, SKETCH_UNAVAILABLE_NOTE};
use earthmover_obs::{self as obs, names};

/// How the first (candidate-generating) stage is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstStage {
    /// 3-D R-tree over centroid averages (`LB_Avg` as index filter) —
    /// the paper's best configuration.
    AvgIndex,
    /// R-tree over the `dims` highest-variance bins of the weighted
    /// Manhattan bound (`LB_Man` reduced; the paper uses 3 dimensions).
    ManhattanIndex {
        /// Reduced key dimensionality (3 in the paper).
        dims: usize,
    },
    /// Sequential scan with the full-dimensional weighted Manhattan bound.
    ManhattanScan,
    /// Sequential scan with the centroid-averaging bound.
    AvgScan,
    /// Sequential scan with `LB_IM` directly (no cheap pre-filter).
    ImScan,
}

/// Which k-NN multistep algorithm drives the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnAlgorithm {
    /// Optimal multistep (Seidl & Kriegel) — interleaves ranking and
    /// refinement, tightest lower bound first.
    #[default]
    Optimal,
    /// Classic GEMINI two-pass k-NN.
    Gemini,
}

/// One query, as every layer below the wire describes it: the engine
/// ([`QueryEngine::query`]), the coordinator and the shard client take
/// this and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryPlan {
    /// The `k` nearest neighbors.
    Knn {
        /// Neighbors wanted; any `k` at or above the row count returns
        /// every row.
        k: usize,
        /// Retrieval tier. `None` is the mode-less exact pipeline, not
        /// `Some(Exact)`: its result reports no
        /// [`crate::stats::QueryStats::retrieval`], which keeps its wire
        /// response byte-identical to protocol v1.
        mode: Option<RetrievalMode>,
    },
    /// Every object within EMD `epsilon` of the query; always exact, so a
    /// range plan carries no mode.
    Range {
        /// Inclusive EMD threshold.
        epsilon: f64,
    },
}

enum Stage<'a> {
    AvgIndex(RtreeSource<'a, AvgReducer>),
    ManIndex(RtreeSource<'a, ManhattanReducer>),
    ManScan(ScanSource<'a, LbManhattan>),
    AvgScan(ScanSource<'a, LbAvg>),
    ImScan(ScanSource<'a, LbIm>),
    /// A caller-supplied source (e.g. a persisted index, or a
    /// fault-injecting wrapper in tests).
    Custom(Box<dyn CandidateSource + Send + Sync + 'a>),
}

impl<'a> Stage<'a> {
    fn as_source(&self) -> &dyn CandidateSource {
        match self {
            Stage::AvgIndex(s) => s,
            Stage::ManIndex(s) => s,
            Stage::ManScan(s) => s,
            Stage::AvgScan(s) => s,
            Stage::ImScan(s) => s,
            Stage::Custom(s) => s.as_ref(),
        }
    }
}

/// Configures and builds a [`QueryEngine`].
pub struct EngineBuilder<'a> {
    db: &'a HistogramDb,
    grid: &'a BinGrid,
    first_stage: FirstStage,
    custom_source: Option<Box<dyn CandidateSource + Send + Sync + 'a>>,
    use_im: bool,
    algorithm: KnnAlgorithm,
    sketch: Option<SketchTier>,
}

impl<'a> EngineBuilder<'a> {
    /// Chooses the first filter stage (default: [`FirstStage::AvgIndex`]).
    pub fn first_stage(mut self, stage: FirstStage) -> Self {
        self.first_stage = stage;
        self
    }

    /// Enables or disables the intermediate `LB_IM` filter
    /// (default: enabled — the paper's winning combination).
    pub fn lb_im(mut self, enabled: bool) -> Self {
        self.use_im = enabled;
        self
    }

    /// Selects the k-NN algorithm (default: optimal multistep).
    pub fn algorithm(mut self, algorithm: KnnAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Attaches a sketch tier so the engine can serve
    /// [`RetrievalMode::SketchOnly`] queries without refinement. Without
    /// one, sketch-only requests degrade to the exact pipeline and record
    /// [`SKETCH_UNAVAILABLE_NOTE`].
    pub fn sketch(mut self, tier: SketchTier) -> Self {
        self.sketch = Some(tier);
        self
    }

    /// Supplies the first stage directly instead of building one of the
    /// predefined configurations — e.g. a source backed by a persisted
    /// index, or a fault-injecting wrapper in robustness tests. Takes
    /// precedence over [`EngineBuilder::first_stage`].
    ///
    /// The source's filter distance must lower bound the EMD or query
    /// results become incomplete. If the source fails at query time the
    /// engine degrades to a sequential scan, exactly as for the built-in
    /// index stages.
    pub fn custom_source(mut self, source: Box<dyn CandidateSource + Send + Sync + 'a>) -> Self {
        self.custom_source = Some(source);
        self
    }

    /// Builds the engine: derives the cost matrix and filter weights from
    /// the grid, reduces keys, and bulk-loads the index if one was chosen.
    pub fn build(self) -> QueryEngine<'a> {
        let cost = self.grid.cost_matrix();
        assert_eq!(
            cost.len(),
            self.db.dims(),
            "grid bin count must match database dimensionality"
        );
        let exact = ExactEmd::new(cost.clone());
        let im = self.use_im.then(|| LbIm::new(&cost));
        // Index stages bulk-load by iterating the resident arena; a
        // paged database streams blocks through the buffer pool instead,
        // so the index configurations downgrade to the equivalent
        // sequential-scan bound. Results stay exact — the scan uses the
        // same admissible filter, just without the R-tree shortcut.
        let first_stage = if self.db.is_paged() {
            match self.first_stage {
                FirstStage::AvgIndex => FirstStage::AvgScan,
                FirstStage::ManhattanIndex { .. } => FirstStage::ManhattanScan,
                other => other,
            }
        } else {
            self.first_stage
        };
        let stage = if let Some(source) = self.custom_source {
            Stage::Custom(source)
        } else {
            match first_stage {
                FirstStage::AvgIndex => Stage::AvgIndex(RtreeSource::build(
                    self.db,
                    AvgReducer::new(self.grid.centroids().to_vec()),
                )),
                FirstStage::ManhattanIndex { dims } => Stage::ManIndex(RtreeSource::build(
                    self.db,
                    ManhattanReducer::from_db(self.db, &cost, dims),
                )),
                FirstStage::ManhattanScan => {
                    Stage::ManScan(ScanSource::new(self.db, LbManhattan::new(&cost)))
                }
                FirstStage::AvgScan => Stage::AvgScan(ScanSource::new(
                    self.db,
                    LbAvg::new(self.grid.centroids().to_vec()),
                )),
                FirstStage::ImScan => Stage::ImScan(ScanSource::new(self.db, LbIm::new(&cost))),
            }
        };
        // Degradation target: a plain sequential scan over the weighted
        // Manhattan bound. It shares no machinery with the index stages,
        // so an index failure cannot take it down too.
        let fallback = ScanSource::new(self.db, LbManhattan::new(&cost));
        QueryEngine {
            db: self.db,
            exact,
            im,
            stage,
            fallback,
            algorithm: self.algorithm,
            sketch: self.sketch,
        }
    }
}

/// A ready-to-query multistep retrieval engine over a histogram database.
///
/// See the crate-level example for typical usage. Engines borrow the
/// database; build once, query many times.
///
/// # Graceful degradation
///
/// Queries return `Result`s instead of panicking. When the first-stage
/// candidate source fails ([`PipelineError::Source`] — e.g. a corrupt
/// persisted index), the engine transparently re-runs the query on a
/// sequential-scan source and records the event in
/// [`crate::stats::QueryStats::degradations`]; results stay exact because
/// the fallback filter is also a lower bound of the EMD. Exact-distance
/// failures are first retried internally through the solver recovery
/// ladder (see [`ExactEmd`]) and only surface as
/// [`PipelineError::Distance`] when the ladder is exhausted.
pub struct QueryEngine<'a> {
    db: &'a HistogramDb,
    exact: ExactEmd,
    im: Option<LbIm>,
    stage: Stage<'a>,
    /// Sequential-scan source used when `stage` fails at query time.
    fallback: ScanSource<'a, LbManhattan>,
    algorithm: KnnAlgorithm,
    /// Approximate tier serving [`RetrievalMode::SketchOnly`] queries.
    sketch: Option<SketchTier>,
}

impl<'a> QueryEngine<'a> {
    /// Starts building an engine for `db` with ground distances from
    /// `grid`.
    pub fn builder(db: &'a HistogramDb, grid: &'a BinGrid) -> EngineBuilder<'a> {
        EngineBuilder {
            db,
            grid,
            first_stage: FirstStage::AvgIndex,
            custom_source: None,
            use_im: true,
            algorithm: KnnAlgorithm::Optimal,
            sketch: None,
        }
    }

    /// The sketch tier attached at build time, if any.
    pub fn sketch_tier(&self) -> Option<&SketchTier> {
        self.sketch.as_ref()
    }

    /// The exact distance measure the engine refines with.
    pub fn exact(&self) -> &ExactEmd {
        &self.exact
    }

    fn intermediates(&self) -> Vec<&dyn DistanceMeasure> {
        // LB_IM as intermediate filter is skipped when it already *is* the
        // first stage — filtering twice with the same bound does nothing.
        match (&self.stage, &self.im) {
            (Stage::ImScan(_), _) | (_, None) => Vec::new(),
            (_, Some(im)) => vec![im as &dyn DistanceMeasure],
        }
    }

    /// Runs one multistep algorithm on the first stage. On a source
    /// failure it re-runs it on the sequential-scan fallback under the
    /// same deadline (so a failure cannot double the budget), marks `span`
    /// degraded and records the degradation note.
    fn with_fallback(
        &self,
        span: &mut obs::Span,
        run: impl Fn(&dyn CandidateSource) -> Result<QueryResult, PipelineError>,
    ) -> Result<QueryResult, PipelineError> {
        match run(self.stage.as_source()) {
            Err(PipelineError::Source { stage, reason }) => {
                span.record("degraded", 1.0);
                let mut result = run(&self.fallback)?;
                result.stats.degradations.push(format!(
                    "first stage '{stage}' failed ({reason}); degraded to sequential scan"
                ));
                Ok(result)
            }
            other => other,
        }
    }

    /// Runs `plan` for the query `q` with the configured pipeline under a
    /// wall-clock budget.
    ///
    /// On a first-stage source failure the query is transparently re-run
    /// on a sequential scan (see the type docs); only exact-distance
    /// failures that survive the solver recovery ladder surface as errors.
    /// When `deadline` expires mid-query the best-effort partial result
    /// accumulated so far comes back with
    /// [`crate::stats::QueryStats::deadline_expired`] set and a
    /// degradation note recorded — the serving layer turns this into a
    /// typed `DeadlineExceeded` response instead of hanging a connection.
    ///
    /// A k-NN plan's retrieval tier:
    ///
    /// * `None` — the configured pipeline, and the result's
    ///   [`crate::stats::QueryStats::retrieval`] stays `None`.
    /// * [`RetrievalMode::Exact`] — the same answer, reported as recall 1.0.
    /// * [`RetrievalMode::Approximate`] — ε-relaxed optimal multistep
    ///   refinement (regardless of the configured [`KnnAlgorithm`]):
    ///   every reported neighbor is within `(1 + ε)` of the true k-th
    ///   nearest distance, with fewer exact-EMD refinements.
    /// * [`RetrievalMode::SketchOnly`] — answered straight from the
    ///   attached sketch tier, skipping refinement; degrades to exact
    ///   with [`SKETCH_UNAVAILABLE_NOTE`] when no tier is attached.
    pub fn query(
        &self,
        q: &Histogram,
        plan: QueryPlan,
        deadline: Deadline,
    ) -> Result<QueryResult, PipelineError> {
        let intermediates = self.intermediates();
        let (k, mode) = match plan {
            QueryPlan::Range { epsilon } => {
                let mut span = obs::span!(names::ENGINE_RANGE, epsilon = epsilon);
                return self.with_fallback(&mut span, |source| {
                    range_query_within(
                        source,
                        self.db,
                        q,
                        epsilon,
                        &intermediates,
                        &self.exact,
                        deadline,
                    )
                });
            }
            QueryPlan::Knn { k, mode } => (k, mode),
        };
        let exact = RetrievalInfo {
            mode: RetrievalMode::Exact,
            recall: 1.0,
        };
        let (relax, retrieval) = match mode {
            None => (None, None),
            Some(RetrievalMode::Exact) => (None, Some(exact)),
            Some(RetrievalMode::Approximate { epsilon }) => {
                // The distance-ratio guarantee as a worst-case recall
                // figure; negative/non-finite slack degrades to exact.
                let slack = if epsilon.is_finite() && epsilon > 0.0 {
                    epsilon
                } else {
                    0.0
                };
                let info = RetrievalInfo {
                    mode: RetrievalMode::Approximate { epsilon },
                    recall: 1.0 / (1.0 + slack),
                };
                (Some(epsilon), Some(info))
            }
            Some(RetrievalMode::SketchOnly) => match &self.sketch {
                Some(tier) => {
                    let (items, stats) = tier.knn_with_stats(q, k, deadline)?;
                    return Ok(QueryResult { items, stats });
                }
                None => (None, Some(exact)),
            },
        };
        let mut span = obs::span!(names::ENGINE_KNN, k = k);
        if let Some(relax) = relax {
            span.record("relax", relax);
        }
        let mut result = self.with_fallback(&mut span, |source| match (relax, self.algorithm) {
            (None, KnnAlgorithm::Gemini) => {
                gemini_knn_within(source, self.db, q, k, &self.exact, deadline)
            }
            (relax, _) => optimal_knn_relaxed_within(
                source,
                self.db,
                q,
                k,
                relax.unwrap_or(0.0),
                &intermediates,
                &self.exact,
                deadline,
            ),
        })?;
        if mode == Some(RetrievalMode::SketchOnly) {
            result
                .stats
                .record_degradation_once(SKETCH_UNAVAILABLE_NOTE);
        }
        result.stats.retrieval = retrieval;
        Ok(result)
    }

    /// Mode-less k-nearest-neighbor query without a deadline:
    /// [`QueryEngine::query`] on [`QueryPlan::Knn`] with no mode.
    pub fn knn(&self, q: &Histogram, k: usize) -> Result<QueryResult, PipelineError> {
        self.query(q, QueryPlan::Knn { k, mode: None }, Deadline::none())
    }

    /// k-NN on an explicit retrieval tier without a deadline; unlike
    /// [`QueryEngine::knn`], the result's
    /// [`crate::stats::QueryStats::retrieval`] is always populated.
    pub fn knn_mode(
        &self,
        q: &Histogram,
        k: usize,
        mode: RetrievalMode,
    ) -> Result<QueryResult, PipelineError> {
        let plan = QueryPlan::Knn {
            k,
            mode: Some(mode),
        };
        self.query(q, plan, Deadline::none())
    }

    /// ε-range query without a deadline: [`QueryEngine::query`] on
    /// [`QueryPlan::Range`].
    pub fn range(&self, q: &Histogram, epsilon: f64) -> Result<QueryResult, PipelineError> {
        self.query(q, QueryPlan::Range { epsilon }, Deadline::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::multistep::linear_scan_knn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize) -> (BinGrid, HistogramDb) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(424242);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        (grid, db)
    }

    #[test]
    fn every_configuration_matches_brute_force() {
        let (grid, db) = setup(60);
        let q = random_histogram(&mut StdRng::seed_from_u64(1), grid.num_bins());
        let exact = ExactEmd::new(grid.cost_matrix());
        let brute = linear_scan_knn(&db, &q, 5, &exact).unwrap();
        let bd: Vec<f64> = brute.items.iter().map(|(_, d)| *d).collect();

        let stages = [
            FirstStage::AvgIndex,
            FirstStage::ManhattanIndex { dims: 3 },
            FirstStage::ManhattanScan,
            FirstStage::AvgScan,
            FirstStage::ImScan,
        ];
        for stage in stages {
            for use_im in [false, true] {
                for alg in [KnnAlgorithm::Optimal, KnnAlgorithm::Gemini] {
                    let engine = QueryEngine::builder(&db, &grid)
                        .first_stage(stage)
                        .lb_im(use_im)
                        .algorithm(alg)
                        .build();
                    let r = engine.knn(&q, 5).unwrap();
                    let rd: Vec<f64> = r.items.iter().map(|(_, d)| *d).collect();
                    assert_eq!(rd.len(), bd.len(), "{stage:?} im={use_im} {alg:?}");
                    for (a, b) in rd.iter().zip(&bd) {
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{stage:?} im={use_im} {alg:?}: {rd:?} vs {bd:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_queries_match_brute_force() {
        let (grid, db) = setup(50);
        let q = random_histogram(&mut StdRng::seed_from_u64(2), grid.num_bins());
        let exact = ExactEmd::new(grid.cost_matrix());
        let eps = 0.1;
        let mut expect: Vec<usize> = db
            .iter()
            .filter(|(_, h)| exact.distance(&q, &h.to_histogram()) <= eps)
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();
        for stage in [FirstStage::AvgIndex, FirstStage::ManhattanIndex { dims: 3 }] {
            let engine = QueryEngine::builder(&db, &grid).first_stage(stage).build();
            let r = engine.range(&q, eps).unwrap();
            let mut got: Vec<usize> = r.items.iter().map(|(id, _)| *id).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "{stage:?}");
        }
    }

    #[test]
    fn two_phase_combo_beats_plain_index_in_exact_evaluations() {
        let (grid, db) = setup(150);
        let q = random_histogram(&mut StdRng::seed_from_u64(3), grid.num_bins());
        let with_im = QueryEngine::builder(&db, &grid).lb_im(true).build();
        let without_im = QueryEngine::builder(&db, &grid).lb_im(false).build();
        let a = with_im.knn(&q, 10).unwrap();
        let b = without_im.knn(&q, 10).unwrap();
        assert!(a.stats.exact_evaluations <= b.stats.exact_evaluations);
    }
}

#[cfg(test)]
mod degradation_tests {
    use super::*;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::multistep::{linear_scan_knn, FailingSource, ScanSource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize) -> (BinGrid, HistogramDb) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(31337);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        (grid, db)
    }

    /// Acceptance test from the issue: when the index stage errors, the
    /// engine's k-NN answer comes back correct via the scan fallback.
    #[test]
    fn knn_is_correct_via_scan_fallback_when_index_stage_errors() {
        let (grid, db) = setup(80);
        let cost = grid.cost_matrix();
        let q = random_histogram(&mut StdRng::seed_from_u64(7), grid.num_bins());
        let exact = ExactEmd::new(cost.clone());
        let brute = linear_scan_knn(&db, &q, 5, &exact).unwrap();

        // Fail at different depths: immediately, and mid-traversal.
        for fail_after in [0usize, 1, 7] {
            let broken = FailingSource::new(
                ScanSource::new(&db, LbManhattan::new(&cost)),
                fail_after,
                "simulated corrupt index page",
            );
            let engine = QueryEngine::builder(&db, &grid)
                .custom_source(Box::new(broken))
                .build();
            let r = engine.knn(&q, 5).expect("fallback must answer the query");
            assert_eq!(r.items.len(), brute.items.len(), "fail_after={fail_after}");
            for ((_, a), (_, b)) in r.items.iter().zip(&brute.items) {
                assert!((a - b).abs() < 1e-9, "fail_after={fail_after}");
            }
            assert_eq!(
                r.stats.degradations.len(),
                1,
                "fallback must be recorded in stats"
            );
            assert!(r.stats.degradations[0].contains("simulated corrupt index page"));
        }
    }

    #[test]
    fn range_degrades_to_scan_and_stays_exact() {
        let (grid, db) = setup(60);
        let cost = grid.cost_matrix();
        let q = random_histogram(&mut StdRng::seed_from_u64(8), grid.num_bins());
        let exact = ExactEmd::new(cost.clone());
        let eps = 0.1;
        let mut expect: Vec<usize> = db
            .iter()
            .filter(|(_, h)| exact.distance(&q, &h.to_histogram()) <= eps)
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();

        let broken = FailingSource::new(
            ScanSource::new(&db, LbManhattan::new(&cost)),
            0,
            "index unavailable",
        );
        let engine = QueryEngine::builder(&db, &grid)
            .custom_source(Box::new(broken))
            .build();
        let r = engine.range(&q, eps).unwrap();
        let mut got: Vec<usize> = r.items.iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(r.stats.degradations.len(), 1);
    }

    #[test]
    fn healthy_engine_records_no_degradation() {
        let (grid, db) = setup(30);
        let q = random_histogram(&mut StdRng::seed_from_u64(10), grid.num_bins());
        let engine = QueryEngine::builder(&db, &grid).build();
        let r = engine.knn(&q, 3).unwrap();
        assert!(r.stats.degradations.is_empty());
    }

    /// Issue satellite: a fault-injected first stage must yield exactly
    /// one `degradations` entry and results identical to a healthy run.
    #[test]
    fn faulted_first_stage_matches_healthy_run_with_one_degradation() {
        let (grid, db) = setup(70);
        let cost = grid.cost_matrix();
        let q = random_histogram(&mut StdRng::seed_from_u64(11), grid.num_bins());

        let healthy = QueryEngine::builder(&db, &grid).build();
        let good = healthy.knn(&q, 6).unwrap();
        assert!(good.stats.degradations.is_empty());

        let broken = FailingSource::new(
            ScanSource::new(&db, LbManhattan::new(&cost)),
            2,
            "fault-injected index stage",
        );
        let faulted = QueryEngine::builder(&db, &grid)
            .custom_source(Box::new(broken))
            .build();
        let r = faulted.knn(&q, 6).unwrap();

        assert_eq!(
            r.stats.degradations.len(),
            1,
            "fault must surface exactly once, got {:?}",
            r.stats.degradations
        );
        assert_eq!(r.items.len(), good.items.len());
        for ((id_f, d_f), (id_h, d_h)) in r.items.iter().zip(&good.items) {
            assert_eq!(id_f, id_h, "result ids must match the healthy run");
            assert!((d_f - d_h).abs() < 1e-9);
        }
        // The degraded run still reports a per-stage time breakdown.
        assert!(
            r.stats.stage_time(crate::stats::stage::EXACT).is_some(),
            "fallback path must keep stage timings"
        );
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::sketch_tier::{SKETCH_ONLY_NOTE, SKETCH_UNAVAILABLE_NOTE};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize) -> (BinGrid, HistogramDb) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(90210);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        (grid, db)
    }

    #[test]
    fn exact_mode_matches_the_modeless_api_and_reports_recall_one() {
        let (grid, db) = setup(60);
        let q = random_histogram(&mut StdRng::seed_from_u64(1), grid.num_bins());
        let engine = QueryEngine::builder(&db, &grid).build();
        let plain = engine.knn(&q, 5).unwrap();
        assert!(plain.stats.retrieval.is_none(), "mode-less API stays None");
        let exact = engine.knn_mode(&q, 5, RetrievalMode::Exact).unwrap();
        assert_eq!(exact.items, plain.items);
        let info = exact.stats.retrieval.unwrap();
        assert_eq!(info.mode, RetrievalMode::Exact);
        assert_eq!(info.recall, 1.0);
    }

    #[test]
    fn approximate_mode_honors_the_distance_ratio_guarantee() {
        let (grid, db) = setup(90);
        let q = random_histogram(&mut StdRng::seed_from_u64(2), grid.num_bins());
        let engine = QueryEngine::builder(&db, &grid).build();
        let strict = engine.knn(&q, 6).unwrap();
        let true_kth = strict.items.last().unwrap().1;
        for epsilon in [0.0, 0.5, 2.0] {
            let r = engine
                .knn_mode(&q, 6, RetrievalMode::Approximate { epsilon })
                .unwrap();
            assert_eq!(r.items.len(), strict.items.len());
            for (_, d) in &r.items {
                assert!(
                    *d <= (1.0 + epsilon) * true_kth + 1e-9,
                    "eps={epsilon}: {d} vs kth {true_kth}"
                );
            }
            assert!(r.stats.exact_evaluations <= strict.stats.exact_evaluations);
            let info = r.stats.retrieval.unwrap();
            assert_eq!(info.mode, RetrievalMode::Approximate { epsilon });
            assert!((info.recall - 1.0 / (1.0 + epsilon)).abs() < 1e-12);
        }
    }

    #[test]
    fn sketch_only_mode_answers_from_the_tier_without_refinement() {
        let (grid, db) = setup(70);
        let tier = SketchTier::build(&db, &grid, 42).unwrap();
        let engine = QueryEngine::builder(&db, &grid).sketch(tier).build();
        assert!(engine.sketch_tier().is_some());
        let q = db.get(11).to_histogram();
        let r = engine.knn_mode(&q, 4, RetrievalMode::SketchOnly).unwrap();
        assert_eq!(r.items[0].0, 11, "identical row must rank first");
        assert_eq!(r.stats.exact_evaluations, 0, "no refinement in sketch mode");
        assert!(r.stats.degradations.iter().any(|d| d == SKETCH_ONLY_NOTE));
        assert_eq!(r.stats.retrieval.unwrap().mode, RetrievalMode::SketchOnly);
    }

    #[test]
    fn sketch_only_without_a_tier_degrades_to_exact() {
        let (grid, db) = setup(40);
        let q = random_histogram(&mut StdRng::seed_from_u64(3), grid.num_bins());
        let engine = QueryEngine::builder(&db, &grid).build();
        let exact = engine.knn(&q, 3).unwrap();
        let r = engine.knn_mode(&q, 3, RetrievalMode::SketchOnly).unwrap();
        assert_eq!(r.items, exact.items, "answer stays exact");
        assert!(r
            .stats
            .degradations
            .iter()
            .any(|d| d == SKETCH_UNAVAILABLE_NOTE));
        let info = r.stats.retrieval.unwrap();
        assert_eq!(info.mode, RetrievalMode::Exact);
        assert_eq!(info.recall, 1.0);
    }
}
