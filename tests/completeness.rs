#![allow(clippy::needless_range_loop)]

//! Property-based completeness tests: the theorems of §4 of the paper,
//! checked against randomized histograms and ground distances.
//!
//! Completeness of the whole multistep machinery reduces to one property
//! per filter — `LB(x, y) ≤ EMD(x, y)` — plus the correctness of the
//! query algorithms, both exercised here.

use earthmover::core::multistep::{
    optimal_knn_relaxed_within, range_query_within, CandidateSource, ScanSource,
};
use earthmover::core::Deadline;
use earthmover::{
    linear_scan_knn, BinGrid, CostMatrix, DistanceMeasure, ExactEmd, Histogram, HistogramDb, LbAvg,
    LbEuclidean, LbIm, LbManhattan, LbMax,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random normalized histogram with some sparsity.
fn random_histogram(rng: &mut StdRng, n: usize) -> Histogram {
    let mut bins: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    for b in bins.iter_mut() {
        if rng.gen_bool(0.4) {
            *b = 0.0;
        }
    }
    if bins.iter().sum::<f64>() == 0.0 {
        bins[rng.gen_range(0..n)] = 1.0;
    }
    Histogram::normalized(bins).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every lower bound of the paper is below the exact EMD, for grids of
    /// all three evaluation resolutions.
    #[test]
    fn all_bounds_lower_bound_emd(seed in any::<u64>(), shape in 0usize..3) {
        let axes = [vec![4, 2, 2], vec![4, 4, 2], vec![4, 4, 4]][shape].clone();
        let grid = BinGrid::new(axes);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_histogram(&mut rng, grid.num_bins());
        let y = random_histogram(&mut rng, grid.num_bins());
        let exact = ExactEmd::new(cost.clone()).distance(&x, &y);

        let bounds: Vec<(&str, f64)> = vec![
            ("LB_Avg", LbAvg::new(grid.centroids().to_vec()).distance(&x, &y)),
            ("LB_Man", LbManhattan::new(&cost).distance(&x, &y)),
            ("LB_Max", LbMax::new(&cost).distance(&x, &y)),
            ("LB_Eucl", LbEuclidean::new(&cost).distance(&x, &y)),
            ("LB_IM", LbIm::new(&cost).distance(&x, &y)),
            ("LB_IM basic", LbIm::with_options(&cost, false, false).distance(&x, &y)),
        ];
        for (name, lb) in bounds {
            prop_assert!(lb <= exact + 1e-9, "{name}: {lb} > {exact}");
        }
    }

    /// The Lp bounds hold for *any* metric ground distance, not just grid
    /// Euclidean ones — test with random metric cost matrices built by
    /// shortest-path closure of a random graph.
    #[test]
    fn lp_bounds_hold_for_random_metrics(seed in any::<u64>(), n in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random symmetric costs, then Floyd–Warshall to enforce the
        // triangle inequality (making it a genuine metric).
        let mut d = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let c = rng.gen_range(0.1..2.0);
                d[i][j] = c;
                d[j][i] = c;
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if d[i][k] + d[k][j] < d[i][j] {
                        d[i][j] = d[i][k] + d[k][j];
                    }
                }
            }
        }
        let cost = CostMatrix::from_fn(n, |i, j| d[i][j]);
        prop_assert!(cost.is_metric(1e-9));

        let x = random_histogram(&mut rng, n);
        let y = random_histogram(&mut rng, n);
        let exact = ExactEmd::new(cost.clone()).distance(&x, &y);
        prop_assert!(LbManhattan::new(&cost).distance(&x, &y) <= exact + 1e-9);
        prop_assert!(LbMax::new(&cost).distance(&x, &y) <= exact + 1e-9);
        prop_assert!(LbEuclidean::new(&cost).distance(&x, &y) <= exact + 1e-9);
        prop_assert!(LbIm::new(&cost).distance(&x, &y) <= exact + 1e-9);
    }

    /// Optimal multistep k-NN returns exactly the brute-force distances
    /// for random databases, filters, and k.
    #[test]
    fn optimal_knn_is_complete(seed in any::<u64>(), k in 1usize..12) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..60 {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let q = random_histogram(&mut rng, grid.num_bins());
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);

        let brute = linear_scan_knn(&db, &q, k, &exact).unwrap();
        let multi =
            optimal_knn_relaxed_within(&source, &db, &q, k, 0.0, &[&im], &exact, Deadline::none())
                .unwrap();
        prop_assert_eq!(multi.items.len(), brute.items.len());
        for ((_, a), (_, b)) in multi.items.iter().zip(&brute.items) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Range queries return exactly the ε-ball, no false drops, no false
    /// hits.
    #[test]
    fn range_query_is_exact(seed in any::<u64>(), eps in 0.0f64..0.5) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..50 {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let q = random_histogram(&mut rng, grid.num_bins());
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let result =
            range_query_within(&source, &db, &q, eps, &[], &exact, Deadline::none()).unwrap();
        // Results are distance-ordered; compare as id sets.
        let mut got: Vec<usize> = result.items.iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        let expect: Vec<usize> = db
            .iter()
            .filter(|(_, h)| exact.distance(&q, &h.to_histogram()) <= eps)
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn bound_dominance_chain_on_corpus_histograms() {
    // LB_Eucl ≤ LB_Man (proven, §4.5) and refined-symmetric LB_IM
    // dominates its unrefined form, on realistic corpus histograms.
    use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
    let grid = BinGrid::new(vec![4, 4, 4]);
    let cost = grid.cost_matrix();
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(5));
    let db = corpus.build_database(&grid, 60);
    let man = LbManhattan::new(&cost);
    let eucl = LbEuclidean::new(&cost);
    let im_full = LbIm::new(&cost);
    let im_basic = LbIm::with_options(&cost, false, false);
    for i in (0..db.len()).step_by(3) {
        for j in (1..db.len()).step_by(7) {
            let (x, y) = (&db.get(i).to_histogram(), &db.get(j).to_histogram());
            assert!(eucl.distance(x, y) <= man.distance(x, y) + 1e-12);
            assert!(im_basic.distance(x, y) <= im_full.distance(x, y) + 1e-12);
        }
    }
}

/// The optimal k-NN loop holds at most 40 screened candidates waiting for
/// refinement. Below, at and past that cap, under a weak ranking that
/// fills the waiting set (LB_Man) and a stronger one (LB_Avg), its
/// distance profile is the linear scan's.
#[test]
fn optimal_knn_lookahead_is_complete_at_and_past_its_cap() {
    for axes in [vec![2, 2, 2], vec![4, 2, 2]] {
        let grid = BinGrid::new(axes);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(0x4c4f_4f4b);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..400 {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let exact = ExactEmd::new(cost.clone());
        let im = LbIm::new(&cost);
        let man = ScanSource::new(&db, LbManhattan::new(&cost));
        let avg = ScanSource::new(&db, LbAvg::new(grid.centroids().to_vec()));
        let sources: [(&str, &dyn CandidateSource); 2] = [("LB_Man", &man), ("LB_Avg", &avg)];
        for _ in 0..15 {
            let q = random_histogram(&mut rng, grid.num_bins());
            // Every k's answer is a prefix of the largest one's profile.
            let brute: Vec<f64> = linear_scan_knn(&db, &q, 150, &exact)
                .unwrap()
                .items
                .iter()
                .map(|(_, d)| *d)
                .collect();
            for k in [1, 10, 39, 40, 41, 150] {
                for (name, source) in sources {
                    let multi = optimal_knn_relaxed_within(
                        source,
                        &db,
                        &q,
                        k,
                        0.0,
                        &[&im],
                        &exact,
                        Deadline::none(),
                    )
                    .unwrap();
                    assert_eq!(multi.items.len(), k, "{name} k={k}");
                    for ((_, a), b) in multi.items.iter().zip(&brute) {
                        assert!((a - b).abs() < 1e-9, "{name} k={k}: {a} vs {b}");
                    }
                }
            }
        }
    }
}
