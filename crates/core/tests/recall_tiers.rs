//! The recall ladder of the three retrieval tiers, on one seeded corpus
//! small enough for a debug build.
//!
//! Measured recall — the share of the true k nearest ids a tier returns,
//! averaged over the queries — must be exactly 1 in exact mode, must not
//! grow as ε does, and must stay at or above the sketch-only floor; next
//! to it every answer carries the recall its tier *guarantees*: 1,
//! `1/(1+ε)` and `1/Γ` for the sketch's certified distortion Γ. Latency
//! is not this file's business: the served-query benchmark reports it
//! next to `recall_at_k` (`e2ebench/BENCHMARK.md`).

use earthmover_core::db::HistogramDb;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::sketch_tier::{RetrievalMode, SketchTier};
use earthmover_core::{BinGrid, DistanceMeasure, ExactEmd, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const ROWS: usize = 300;
const QUERIES: usize = 10;
const K: usize = 10;
const EPSILONS: [f64; 3] = [0.1, 0.25, 0.5];

/// A histogram shaped like a colour histogram of an image: one to three
/// blobs of colour, each a Gaussian bump around a random point of the
/// feature space, sampled at the bin centroids. Uniform random bins
/// would put every row at nearly the same distance from every query,
/// which leaves no neighbourhood for a tier to find or lose.
fn blob_histogram(rng: &mut StdRng, grid: &BinGrid) -> Histogram {
    let mut bins = vec![0.0; grid.num_bins()];
    for _ in 0..rng.gen_range(1..4) {
        let centre: Vec<f64> = (0..grid.feature_dims()).map(|_| rng.gen()).collect();
        let width = 0.08 + 0.25 * rng.gen::<f64>();
        let weight = 0.2 + rng.gen::<f64>();
        for (bin, centroid) in bins.iter_mut().zip(grid.centroids()) {
            let d2: f64 = centroid
                .iter()
                .zip(&centre)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            *bin += weight * (-d2 / (2.0 * width * width)).exp();
        }
    }
    Histogram::normalized(bins).unwrap()
}

/// The k nearest ids by exhaustive exact EMD — no filter, no index, no
/// multistep algorithm between the data and the answer.
fn true_neighbours(db: &HistogramDb, grid: &BinGrid, q: &Histogram) -> BTreeSet<usize> {
    let exact = ExactEmd::new(grid.cost_matrix());
    let mut all: Vec<(f64, usize)> = db
        .iter()
        .map(|(id, h)| (exact.distance(q, &h.to_histogram()), id))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.iter().take(K).map(|(_, id)| *id).collect()
}

#[test]
fn recall_falls_along_the_tiers_and_matches_what_each_reports() {
    let grid = BinGrid::new(vec![4, 2, 2]);
    let mut rng = StdRng::seed_from_u64(2006);
    let mut db = HistogramDb::new(grid.num_bins());
    for _ in 0..ROWS {
        db.push(blob_histogram(&mut rng, &grid));
    }
    let queries: Vec<Histogram> = (0..QUERIES)
        .map(|_| blob_histogram(&mut rng, &grid))
        .collect();
    let truth: Vec<BTreeSet<usize>> = queries
        .iter()
        .map(|q| true_neighbours(&db, &grid, q))
        .collect();

    let tier = SketchTier::build(&db, &grid, 42).unwrap();
    let gamma = tier.distortion();
    assert!(gamma >= 1.0, "distortion {gamma} < 1");
    let engine = QueryEngine::builder(&db, &grid).sketch(tier).build();

    // Mean measured recall of one tier; every answer must report `promised`.
    let recall = |mode: RetrievalMode, promised: f64| -> f64 {
        let mut sum = 0.0;
        for (q, want) in queries.iter().zip(&truth) {
            let result = engine.knn_mode(q, K, mode).unwrap();
            let info = result.stats.retrieval.expect("knn_mode reports its tier");
            assert_eq!(info.mode, mode);
            assert_eq!(info.recall, promised, "{mode:?}");
            assert_eq!(result.items.len(), K, "{mode:?}");
            let hit = result
                .items
                .iter()
                .filter(|(id, _)| want.contains(id))
                .count();
            sum += hit as f64 / K as f64;
        }
        sum / QUERIES as f64
    };

    let exact = recall(RetrievalMode::Exact, 1.0);
    assert_eq!(exact, 1.0, "exact mode missed a true neighbour");
    let sketch = recall(RetrievalMode::SketchOnly, 1.0 / gamma);

    let mut previous = exact;
    for epsilon in EPSILONS {
        let approx = recall(
            RetrievalMode::Approximate { epsilon },
            1.0 / (1.0 + epsilon),
        );
        assert!(
            approx <= previous,
            "recall rose to {approx} at epsilon {epsilon} (was {previous})"
        );
        assert!(
            approx >= sketch,
            "epsilon {epsilon}: recall {approx} under the sketch-only floor {sketch}"
        );
        previous = approx;
    }
}
