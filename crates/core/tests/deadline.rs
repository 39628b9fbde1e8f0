//! Deadline-budget semantics of the multistep algorithms: an expired
//! deadline yields a *partial, flagged* result — never an error, never a
//! hang, and never an inexact distance.

use earthmover_core::deadline::{Deadline, DEADLINE_NOTE};
use earthmover_core::ground::BinGrid;
use earthmover_core::lower_bounds::{ExactEmd, LbManhattan};
use earthmover_core::multistep::{
    gemini_knn_within, optimal_knn_relaxed_within, range_query_within, ScanSource,
};
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::{Histogram, HistogramDb, QueryPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_histogram(rng: &mut StdRng, dims: usize) -> Histogram {
    let bins: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() + 1e-3).collect();
    Histogram::new(bins).unwrap()
}

fn setup(count: usize, seed: u64) -> (BinGrid, HistogramDb) {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = HistogramDb::new(grid.num_bins());
    for _ in 0..count {
        db.push(random_histogram(&mut rng, grid.num_bins()));
    }
    (grid, db)
}

fn knn(k: usize) -> QueryPlan {
    QueryPlan::Knn { k, mode: None }
}

#[test]
fn expired_deadline_returns_flagged_partial_knn() {
    let (grid, db) = setup(80, 2);
    let cost = grid.cost_matrix();
    let exact = ExactEmd::new(cost.clone());
    let source = ScanSource::new(&db, LbManhattan::new(&cost));
    let q = db.get(3).to_histogram();
    let dead = Deadline::within(Duration::ZERO);

    let r = optimal_knn_relaxed_within(&source, &db, &q, 5, 0.0, &[], &exact, dead).unwrap();
    assert!(r.stats.deadline_expired);
    assert_eq!(r.stats.degradations, vec![DEADLINE_NOTE.to_string()]);
    // Nothing was refined before the (already expired) deadline check.
    assert_eq!(r.stats.exact_evaluations, 0);
    assert!(r.items.is_empty());

    let g = gemini_knn_within(&source, &db, &q, 5, &exact, dead).unwrap();
    assert!(g.stats.deadline_expired);
    assert!(g.stats.degradations.contains(&DEADLINE_NOTE.to_string()));
}

#[test]
fn expired_deadline_returns_flagged_partial_range() {
    let (grid, db) = setup(70, 3);
    let cost = grid.cost_matrix();
    let exact = ExactEmd::new(cost.clone());
    let source = ScanSource::new(&db, LbManhattan::new(&cost));
    let q = db.get(1).to_histogram();
    let r = range_query_within(
        &source,
        &db,
        &q,
        10.0,
        &[],
        &exact,
        Deadline::within(Duration::ZERO),
    )
    .unwrap();
    assert!(r.stats.deadline_expired);
    assert!(r.stats.degradations.contains(&DEADLINE_NOTE.to_string()));
    // A partial range result is a subset of the full answer.
    assert!(r.items.len() < db.len());
}

#[test]
fn generous_deadline_changes_nothing() {
    let (grid, db) = setup(50, 4);
    let q = db.get(2).to_histogram();
    let engine = QueryEngine::builder(&db, &grid).build();
    let plain = engine.knn(&q, 4).unwrap();
    let within = engine
        .query(&q, knn(4), Deadline::within(Duration::from_secs(3600)))
        .unwrap();
    assert_eq!(plain.items, within.items);
    assert!(!within.stats.deadline_expired);
}

#[test]
fn engine_knn_within_partial_is_flagged_not_an_error() {
    let (grid, db) = setup(90, 5);
    let q = db.get(0).to_histogram();
    let engine = QueryEngine::builder(&db, &grid).build();
    let r = engine
        .query(&q, knn(5), Deadline::within(Duration::ZERO))
        .expect("deadline expiry must be a partial result, not an error");
    assert!(r.stats.deadline_expired);
    assert!(r.stats.degradations.contains(&DEADLINE_NOTE.to_string()));
}

#[test]
fn engine_range_within_partial_is_flagged_not_an_error() {
    let (grid, db) = setup(90, 6);
    let q = db.get(0).to_histogram();
    let engine = QueryEngine::builder(&db, &grid).build();
    let r = engine
        .query(
            &q,
            QueryPlan::Range { epsilon: 10.0 },
            Deadline::within(Duration::ZERO),
        )
        .expect("deadline expiry must be a partial result, not an error");
    assert!(r.stats.deadline_expired);
    assert!(r.items.len() < db.len());
}

#[test]
fn merge_ors_deadline_expired() {
    let (grid, db) = setup(30, 7);
    let q = db.get(0).to_histogram();
    let engine = QueryEngine::builder(&db, &grid).build();
    let healthy = engine.knn(&q, 3).unwrap();
    let cut = engine
        .query(&q, knn(3), Deadline::within(Duration::ZERO))
        .unwrap();
    let mut merged = healthy.stats.clone();
    merged.merge(&cut.stats);
    assert!(merged.deadline_expired, "merge must OR the partial flag");
}
