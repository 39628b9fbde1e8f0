//! The bound matrix: one property test covering **every**
//! [`DistanceMeasure`] implementation at once.
//!
//! xlint's `admissibility_coverage` rule checks that each type
//! implementing `DistanceMeasure` in `crates/core` is named in this
//! file, so a new filter cannot land without joining the matrix. Two
//! families of properties are checked on random histograms over grid
//! ground distances:
//!
//! 1. **Admissibility** (the completeness precondition of §4 of the
//!    paper): `LB(x, y) ≤ EMD(x, y)` for every lower bound, including
//!    `ExactEmd` itself (trivially, as equality).
//! 2. **Dominance**, the known orderings between the bounds:
//!    `LB_Eucl ≤ LB_Man ≤ EMD` (the Lp chain: for p ≥ 1 and
//!    sub-probability vectors, `‖·‖_p ≤ ‖·‖_1`, scaled by the
//!    respective minimal costs) and the symmetrized independent
//!    minimization dominating the plain one,
//!    `LB_IM^sym = max(fwd, bwd) ≥ LB_IM^fwd`.
//!
//! The approximate tier joins the matrix with its own contracts: the
//! tree embedding's certified two-sided distortion bound and the
//! ε-relaxed refinement's `(1+ε)` guarantee against the exact k-NN
//! answer.

use earthmover_core::db::HistogramDb;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::quadratic_form::QuadraticForm;
use earthmover_core::sketch_tier::RetrievalMode;
use earthmover_core::{
    BinGrid, DistanceMeasure, ExactEmd, Histogram, LbAvg, LbEuclidean, LbIm, LbManhattan, LbMax,
};
use earthmover_sketch::{Sketch, TreeEmbedding};
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

/// Slack for accumulated floating-point error in the LP solve.
const EPS: f64 = 1e-9;

/// For every [`DistanceMeasure`] implementation, `prepare(q)` must
/// reproduce `distance(q, h)` bit for bit on both the per-row `eval` and
/// the blocked `eval_block` entry points: the kernels run the scalar
/// path's operation sequence, so swapping executors can never move a
/// candidate across a pruning threshold.
fn check_prepared_kernels(grid: &BinGrid, seed: u64, rows: usize) -> Result<(), String> {
    let cost = grid.cost_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = HistogramDb::new(grid.num_bins());
    for _ in 0..rows {
        db.push(random_histogram(&mut rng, grid.num_bins()));
    }
    let q = random_histogram(&mut rng, grid.num_bins());

    let measures: [(&str, Box<dyn DistanceMeasure>); 9] = [
        ("LbAvg", Box::new(LbAvg::new(grid.centroids().to_vec()))),
        ("LbManhattan", Box::new(LbManhattan::new(&cost))),
        ("LbMax", Box::new(LbMax::new(&cost))),
        ("LbEuclidean", Box::new(LbEuclidean::new(&cost))),
        (
            "LbIm plain",
            Box::new(LbIm::with_options(&cost, false, false)),
        ),
        (
            "LbIm refined",
            Box::new(LbIm::with_options(&cost, true, false)),
        ),
        ("LbIm symmetric", Box::new(LbIm::new(&cost))),
        ("QuadraticForm", Box::new(QuadraticForm::from_cost(&cost))),
        ("ExactEmd", Box::new(ExactEmd::new(cost.clone()))),
    ];
    for (name, m) in &measures {
        let kernel = m.prepare(&q);
        let mut block = vec![0.0; db.len()];
        kernel.eval_block(db.arena(), db.dims(), &mut block);
        for ((id, h), blocked) in db.iter().zip(block) {
            let want = m.distance(&q, &h.to_histogram());
            for (entry, got) in [("eval", kernel.eval(h.bins())), ("eval_block", blocked)] {
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "{name}: {entry}(row {id}) = {got:e} vs distance = {want:e}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The same contract where a block scan crosses many tiles: 307 rows at
/// 64 bins are nineteen 16-row tiles plus a 3-row remainder.
#[test]
fn prepared_kernels_match_scalar_distances_across_tiles() {
    check_prepared_kernels(&BinGrid::new(vec![4, 4, 4]), 2006, 307).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Admissibility and dominance for the full measure matrix.
    #[test]
    fn bound_matrix(seed in any::<u64>(), shape in 0usize..3) {
        let axes = [vec![4, 2, 2], vec![4, 4, 2], vec![3, 3, 3]][shape].clone();
        let grid = BinGrid::new(axes);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_histogram(&mut rng, grid.num_bins());
        let y = random_histogram(&mut rng, grid.num_bins());

        let exact = ExactEmd::new(cost.clone()).distance(&x, &y);
        prop_assert!(exact.is_finite() && exact >= 0.0, "EMD = {exact}");

        let lb_avg = LbAvg::new(grid.centroids().to_vec()).distance(&x, &y);
        let lb_man = LbManhattan::new(&cost).distance(&x, &y);
        let lb_max = LbMax::new(&cost).distance(&x, &y);
        let lb_eucl = LbEuclidean::new(&cost).distance(&x, &y);
        let lb_im_plain = LbIm::with_options(&cost, false, false).distance(&x, &y);
        let lb_im_refined = LbIm::with_options(&cost, true, false).distance(&x, &y);
        let lb_im_sym = LbIm::new(&cost).distance(&x, &y);

        // 1. Admissibility: every row of the matrix is at most the EMD.
        //    ExactEmd participates as the (trivial) identity row.
        let rows: [(&str, f64); 8] = [
            ("ExactEmd", ExactEmd::new(cost.clone()).distance(&x, &y)),
            ("LbAvg", lb_avg),
            ("LbManhattan", lb_man),
            ("LbMax", lb_max),
            ("LbEuclidean", lb_eucl),
            ("LbIm plain", lb_im_plain),
            ("LbIm refined", lb_im_refined),
            ("LbIm symmetric", lb_im_sym),
        ];
        for (name, lb) in rows {
            prop_assert!(lb <= exact + EPS, "{name}: {lb} > EMD {exact}");
            prop_assert!(lb >= 0.0, "{name}: negative bound {lb}");
        }

        // 2a. Dominance within the Lp family: the Euclidean relaxation
        //     never exceeds the Manhattan one.
        prop_assert!(
            lb_eucl <= lb_man + EPS,
            "LB_Eucl {lb_eucl} > LB_Man {lb_man}"
        );

        // 2b. Dominance within the IM family: each strengthening of the
        //     independent minimization only raises the bound.
        prop_assert!(
            lb_im_refined >= lb_im_plain - EPS,
            "diagonal refinement lowered LB_IM: {lb_im_refined} < {lb_im_plain}"
        );
        prop_assert!(
            lb_im_sym >= lb_im_refined - EPS,
            "symmetrization lowered LB_IM: {lb_im_sym} < {lb_im_refined}"
        );
    }

    /// The identity rows of the matrix: every measure reports a zero (or
    /// at least admissible) self-distance, and `ExactEmd` is exactly zero.
    #[test]
    fn self_distance_is_zero(seed in any::<u64>()) {
        let grid = BinGrid::new(vec![3, 3, 2]);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_histogram(&mut rng, grid.num_bins());

        let exact = ExactEmd::new(cost.clone()).distance(&x, &x);
        prop_assert!(exact.abs() <= EPS, "EMD(x, x) = {exact}");
        let measures: [(&str, Box<dyn DistanceMeasure>); 6] = [
            ("LbAvg", Box::new(LbAvg::new(grid.centroids().to_vec()))),
            ("LbManhattan", Box::new(LbManhattan::new(&cost))),
            ("LbMax", Box::new(LbMax::new(&cost))),
            ("LbEuclidean", Box::new(LbEuclidean::new(&cost))),
            ("LbIm", Box::new(LbIm::new(&cost))),
            ("ExactEmd", Box::new(ExactEmd::new(cost.clone()))),
        ];
        for (name, m) in &measures {
            let d = m.distance(&x, &x);
            prop_assert!(d.abs() <= EPS, "{name}(x, x) = {d}");
        }
    }

    /// Query-compiled kernels *are* the scalar path, on 19 rows: one
    /// full 16-row kernel tile *and* its scalar remainder loop.
    #[test]
    fn prepared_kernels_match_scalar_distances(seed in any::<u64>(), shape in 0usize..3) {
        let axes = [vec![4, 2, 2], vec![4, 4, 2], vec![3, 3, 3]][shape].clone();
        prop_assert_eq!(check_prepared_kernels(&BinGrid::new(axes), seed, 19), Ok(()));
    }

    /// The tree embedding's certified two-sided bound: for every
    /// histogram pair, `EMD ≤ d_tree ≤ Γ·EMD` with `Γ = distortion()`.
    /// The lower side is what makes sketch-only recall quantifiable; the
    /// upper side is what `certify()` promised at construction.
    #[test]
    fn tree_embedding_respects_certified_distortion(
        seed in any::<u64>(),
        shape in 0usize..3,
    ) {
        let axes = [vec![4, 2, 2], vec![4, 4, 2], vec![3, 3, 3]][shape].clone();
        let grid = BinGrid::new(axes);
        let cost = grid.cost_matrix();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_histogram(&mut rng, grid.num_bins());
        let y = random_histogram(&mut rng, grid.num_bins());
        let exact = ExactEmd::new(cost).distance(&x, &y);

        let tree = TreeEmbedding::new(grid.centroids(), seed).unwrap();
        let gamma = tree.distortion();
        prop_assert!(gamma >= 1.0, "distortion {gamma} < 1");
        let mut ex = vec![0.0; tree.dim()];
        let mut ey = vec![0.0; tree.dim()];
        tree.project(x.bins(), &mut ex).unwrap();
        tree.project(y.bins(), &mut ey).unwrap();
        let d_tree = tree.distance(&ex, &ey);
        prop_assert!(
            d_tree + EPS >= exact,
            "tree distance {d_tree} fell below EMD {exact}"
        );
        prop_assert!(
            d_tree <= gamma * exact + EPS,
            "tree distance {d_tree} > {gamma} * EMD {exact}"
        );
    }

    /// The ε-relaxed refinement's contract: every distance it reports is
    /// within `(1+ε)` of the exact k-th-neighbour distance, for any ε.
    /// At ε = 0 the relaxation IS the exact algorithm, so the guarantee
    /// degrades continuously, never abruptly.
    #[test]
    fn relaxed_knn_stays_within_epsilon_of_exact(
        seed in any::<u64>(),
        epsilon in 0.0f64..2.0,
    ) {
        let grid = BinGrid::new(vec![4, 2, 2]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..40 {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let q = random_histogram(&mut rng, grid.num_bins());
        let k = 5;

        let engine = QueryEngine::builder(&db, &grid).build();
        let exact = engine.knn(&q, k).unwrap();
        let kth = exact.items.last().map(|(_, d)| *d).unwrap_or(0.0);
        let relaxed = engine
            .knn_mode(&q, k, RetrievalMode::Approximate { epsilon })
            .unwrap();
        prop_assert_eq!(relaxed.items.len(), exact.items.len());
        for (id, d) in &relaxed.items {
            prop_assert!(
                *d <= (1.0 + epsilon) * kth + EPS,
                "relaxed neighbour {id} at {d} exceeds (1+{epsilon}) * exact k-th {kth}"
            );
        }
    }
}
