//! End-to-end integration tests spanning every workspace crate: synthetic
//! corpus → histogram database → persistence → index construction →
//! multistep queries → exact EMD refinement.

use earthmover::core::pipeline::{FirstStage, KnnAlgorithm, QueryEngine};
use earthmover::core::storage;
use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover::{linear_scan_knn, BinGrid, DistanceMeasure, ExactEmd};

fn build(grid: &BinGrid, n: usize, seed: u64) -> earthmover::HistogramDb {
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(seed));
    corpus.build_database(grid, n)
}

#[test]
fn full_pipeline_matches_brute_force_on_corpus_data() {
    let grid = BinGrid::new(vec![4, 4, 2]); // 32 bins
    let db = build(&grid, 300, 42);
    let exact = ExactEmd::new(grid.cost_matrix());
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(900));
    let queries: Vec<_> = (1000..1005u64)
        .map(|id| corpus.histogram(id, &grid))
        .collect();

    for q in &queries {
        let q = q.clone().into_normalized().unwrap();
        let brute = linear_scan_knn(&db, &q, 10, &exact).unwrap();
        let bd: Vec<f64> = brute.items.iter().map(|(_, d)| *d).collect();
        for stage in [
            FirstStage::AvgIndex,
            FirstStage::ManhattanIndex { dims: 3 },
            FirstStage::ManhattanScan,
            FirstStage::ImScan,
        ] {
            for alg in [KnnAlgorithm::Optimal, KnnAlgorithm::Gemini] {
                let engine = QueryEngine::builder(&db, &grid)
                    .first_stage(stage)
                    .algorithm(alg)
                    .build();
                let r = engine.knn(&q, 10).unwrap();
                let rd: Vec<f64> = r.items.iter().map(|(_, d)| *d).collect();
                assert_eq!(rd.len(), bd.len(), "{stage:?}/{alg:?}");
                for (a, b) in rd.iter().zip(&bd) {
                    assert!((a - b).abs() < 1e-9, "{stage:?}/{alg:?}: {rd:?} vs {bd:?}");
                }
            }
        }
    }
}

#[test]
fn persistence_round_trip_preserves_query_results() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let db = build(&grid, 120, 7);
    let bytes = storage::to_bytes(&db);
    let reloaded = storage::from_bytes(&bytes).expect("round trip");
    assert_eq!(db, reloaded);

    // Queries against the reloaded database give identical answers.
    let engine_a = QueryEngine::builder(&db, &grid).build();
    let engine_b = QueryEngine::builder(&reloaded, &grid).build();
    let q = db.get(11).to_histogram();
    let a = engine_a.knn(&q, 5).unwrap();
    let b = engine_b.knn(&q, 5).unwrap();
    assert_eq!(
        a.items.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        b.items.iter().map(|(id, _)| *id).collect::<Vec<_>>()
    );
}

#[test]
fn selectivity_improves_along_the_paper_filter_ladder() {
    // The qualitative claim of §5: LB_IM needs far fewer exact EMD
    // refinements than the Lp/averaging filters.
    let grid = BinGrid::new(vec![4, 4, 4]);
    let db = build(&grid, 500, 99);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(99));
    let mut im_total = 0u64;
    let mut man_total = 0u64;
    for qid in [601u64, 607, 613, 619] {
        let q = corpus.histogram(qid, &grid).into_normalized().unwrap();
        let im = QueryEngine::builder(&db, &grid)
            .first_stage(FirstStage::ImScan)
            .build()
            .knn(&q, 10)
            .unwrap();
        let man = QueryEngine::builder(&db, &grid)
            .first_stage(FirstStage::ManhattanScan)
            .lb_im(false)
            .build()
            .knn(&q, 10)
            .unwrap();
        im_total += im.stats.exact_evaluations;
        man_total += man.stats.exact_evaluations;
    }
    assert!(
        im_total < man_total,
        "LB_IM refinements {im_total} should be below LB_Man's {man_total}"
    );
}

#[test]
fn parallel_scan_agrees_with_engine_results() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let db = build(&grid, 150, 3);
    let exact = ExactEmd::new(grid.cost_matrix());
    let q = db.get(42).to_histogram();
    let par = earthmover::core::parallel::scan_knn(&db, &q, &exact, 5, 4);
    let engine = QueryEngine::builder(&db, &grid).build();
    let multi = engine.knn(&q, 5).unwrap();
    for ((id_a, d_a), (id_b, d_b)) in par.iter().zip(&multi.items) {
        assert_eq!(id_a, id_b);
        assert!((d_a - d_b).abs() < 1e-9);
    }
}

#[test]
fn isoline_grid_is_consistent_with_filters() {
    // Spot-check the Figure 2 setup: on the 3-bin simplex, every lower
    // bound stays below the EMD at every grid point.
    let grid = BinGrid::new(vec![3]);
    let cost = grid.cost_matrix();
    let exact = ExactEmd::new(cost.clone());
    let man = earthmover::LbManhattan::new(&cost);
    let im = earthmover::LbIm::new(&cost);
    let center = earthmover::Histogram::new(vec![0.34, 0.33, 0.33]).unwrap();
    for i in 0..=20 {
        for j in 0..=(20 - i) {
            let a = i as f64 / 20.0;
            let b = j as f64 / 20.0;
            // max(0) clears the negative float dust of 1 - a - b.
            let h = earthmover::Histogram::new(vec![a, b, (1.0 - a - b).max(0.0)]).unwrap();
            let e = exact.distance(&h, &center);
            assert!(man.distance(&h, &center) <= e + 1e-9);
            assert!(im.distance(&h, &center) <= e + 1e-9);
        }
    }
}

#[test]
fn lookahead_refines_fewer_candidates() {
    // The optimal k-NN loop refines its waiting candidates in LB_IM order,
    // so the pruning radius tightens before most solves happen. The counts
    // are deterministic; refining in ranking order (LB_Avg, the default
    // index) took exact 345 / 402 / 479 and LB_IM 669 / 762 / 1,085.
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(42));
    let mut counts = Vec::new();
    for axes in [vec![4, 2, 2], vec![4, 4, 2], vec![4, 4, 4]] {
        let grid = BinGrid::new(axes);
        let db = corpus.build_database(&grid, 2_000);
        let engine = QueryEngine::builder(&db, &grid).build();
        let (mut exact, mut lb_im) = (0u64, 0u64);
        for i in 0..20u64 {
            let q = corpus.histogram(2_000 + i, &grid);
            let q = q.into_normalized().unwrap();
            let stats = engine.knn(&q, 10).unwrap().stats;
            exact += stats.exact_evaluations;
            lb_im += stats
                .filter_evaluations
                .iter()
                .filter(|(name, _)| name == "LB_IM")
                .map(|(_, n)| n)
                .sum::<u64>();
        }
        counts.push((exact, lb_im));
    }
    // (exact, LB_IM) summed per resolution, d = 16 / 32 / 64. Every pulled
    // candidate now gets its LB_IM value, the first k included.
    assert_eq!(counts, [(233, 869), (279, 962), (328, 1285)]);
}
