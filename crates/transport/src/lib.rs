// Indexed loops over parallel arrays are idiomatic in this numeric code.
#![allow(clippy::needless_range_loop)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Exact Earth Mover's Distance via the transportation simplex.
//!
//! The Earth Mover's Distance between two histograms `x` and `y` with cost
//! matrix `C = [c_ij]` (Assent, Wenning & Seidl, ICDE 2006, §2) is
//!
//! ```text
//! EMD_C(x, y) = min { Σ_ij (c_ij / m) f_ij :
//!                     f_ij ≥ 0, Σ_j f_ij = x_i, Σ_i f_ij = y_j }
//! ```
//!
//! where `m = Σ_i x_i = Σ_j y_j` is the common total mass. The inner
//! minimization is a balanced *transportation problem*, the special
//! network-structured linear program that Rubner's original C code solves
//! with the transportation simplex. This crate is an independent from-scratch
//! implementation of that method:
//!
//! * initial basic feasible solution by **Vogel's approximation method**,
//! * optimality testing by the **MODI (u–v) method**,
//! * pivoting along the unique **stepping-stone cycle** in the spanning-tree
//!   basis, with deterministic tie-breaking for degenerate instances.
//!
//! The solver is cross-validated against the dense two-phase simplex in
//! `earthmover-lp` (see the `lp_crosscheck` integration test).
//!
//! # Example
//!
//! ```
//! use earthmover_transport::{emd, CostMatrix};
//!
//! // 1-D ground distance |i - j| over 3 bins.
//! let cost = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
//! let x = [1.0, 0.0, 0.0];
//! let y = [0.0, 0.0, 1.0];
//! // All mass moves two bins: EMD = 2.
//! assert!((emd(&x, &y, &cost).unwrap() - 2.0).abs() < 1e-9);
//! ```

mod cost;
mod solver;

pub use cost::CostMatrix;
pub use solver::{
    solve_transportation, solve_transportation_with, Flow, PivotRule, SolverOptions,
    TransportError, TransportSolution,
};

/// Mass-balance tolerance: supplies and demands must agree to within this
/// relative error before solving.
pub const BALANCE_EPS: f64 = 1e-7;

/// Computes the Earth Mover's Distance between two equal-mass histograms.
///
/// The result is normalized by the total mass `m` as in the paper, so that
/// `EMD(x, y) ∈ [0, max_ij c_ij]` regardless of scale. Returns an error if
/// the histograms have mismatched arity, negative entries, or unequal total
/// mass (within [`BALANCE_EPS`] relative tolerance).
pub fn emd(x: &[f64], y: &[f64], cost: &CostMatrix) -> Result<f64, TransportError> {
    emd_with_flow(x, y, cost).map(|(value, _)| value)
}

/// [`emd`] with explicit [`SolverOptions`] — notably
/// [`PivotRule::Bland`] as an anti-cycling retry after
/// [`TransportError::IterationLimit`].
pub fn emd_with_options(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
    options: SolverOptions,
) -> Result<f64, TransportError> {
    emd_with_flow_and_options(x, y, cost, options).map(|(value, _)| value)
}

/// Like [`emd`], but also returns the optimal flow matrix as a list of
/// `(source_bin, target_bin, mass)` triples.
///
/// The flow is the minimizer itself — useful for visualizing *how* one
/// histogram is transformed into the other (e.g. the iso-line renderings in
/// the paper's Figure 2).
pub fn emd_with_flow(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
) -> Result<(f64, Vec<Flow>), TransportError> {
    emd_with_flow_and_options(x, y, cost, SolverOptions::default())
}

/// [`emd_with_flow`] with explicit [`SolverOptions`].
pub fn emd_with_flow_and_options(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
    options: SolverOptions,
) -> Result<(f64, Vec<Flow>), TransportError> {
    if x.len() != y.len() {
        return Err(TransportError::ShapeMismatch {
            supplies: x.len(),
            demands: y.len(),
        });
    }
    if x.len() != cost.len() {
        return Err(TransportError::ShapeMismatch {
            supplies: x.len(),
            demands: cost.len(),
        });
    }
    let mass_x: f64 = x.iter().sum();
    let mass_y: f64 = y.iter().sum();
    let scale = mass_x.abs().max(mass_y.abs()).max(1.0);
    if (mass_x - mass_y).abs() > BALANCE_EPS * scale {
        return Err(TransportError::Unbalanced {
            supply: mass_x,
            demand: mass_y,
        });
    }
    if mass_x <= 0.0 {
        // Two empty histograms are identical by convention.
        return Ok((0.0, Vec::new()));
    }
    let solution = solve_transportation_with(x, y, cost, options)?;
    Ok((solution.total_cost / mass_x, solution.flows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_cost(n: usize) -> CostMatrix {
        CostMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs())
    }

    #[test]
    fn identical_histograms_have_zero_distance() {
        let cost = line_cost(4);
        let x = [0.25, 0.25, 0.25, 0.25];
        assert_eq!(emd(&x, &x, &cost).unwrap(), 0.0);
    }

    #[test]
    fn single_shift_costs_the_ground_distance() {
        let cost = line_cost(5);
        let x = [1.0, 0.0, 0.0, 0.0, 0.0];
        let y = [0.0, 1.0, 0.0, 0.0, 0.0];
        assert!((emd(&x, &y, &cost).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_by_mass() {
        // Same shapes with mass 10 should give the same EMD as mass 1.
        let cost = line_cost(3);
        let x1 = [1.0, 0.0, 0.0];
        let y1 = [0.0, 0.0, 1.0];
        let x10 = [10.0, 0.0, 0.0];
        let y10 = [0.0, 0.0, 10.0];
        let a = emd(&x1, &y1, &cost).unwrap();
        let b = emd(&x10, &y10, &cost).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn split_flow_case() {
        // x concentrates mass at bin 1; y wants it split at bins 0 and 2.
        let cost = line_cost(3);
        let x = [0.0, 2.0, 0.0];
        let y = [1.0, 0.0, 1.0];
        // One unit moves left (cost 1), one right (cost 1); total 2, mass 2.
        assert!((emd(&x, &y, &cost).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_unbalanced() {
        let cost = line_cost(2);
        let err = emd(&[1.0, 0.0], &[0.5, 0.0], &cost).unwrap_err();
        assert!(matches!(err, TransportError::Unbalanced { .. }));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let cost = line_cost(2);
        let err = emd(&[1.0, 0.0, 0.0], &[1.0, 0.0], &cost).unwrap_err();
        assert!(matches!(err, TransportError::ShapeMismatch { .. }));
        let err = emd(&[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &cost).unwrap_err();
        assert!(matches!(err, TransportError::ShapeMismatch { .. }));
    }

    #[test]
    fn empty_histograms_are_distance_zero() {
        let cost = line_cost(3);
        assert_eq!(emd(&[0.0; 3], &[0.0; 3], &cost).unwrap(), 0.0);
    }

    #[test]
    fn flow_reconstruction_matches_marginals() {
        let cost = line_cost(4);
        let x = [0.4, 0.1, 0.3, 0.2];
        let y = [0.1, 0.4, 0.2, 0.3];
        let (_, flows) = emd_with_flow(&x, &y, &cost).unwrap();
        let mut row = [0.0; 4];
        let mut col = [0.0; 4];
        for f in &flows {
            assert!(f.mass >= 0.0);
            row[f.from] += f.mass;
            col[f.to] += f.mass;
        }
        for i in 0..4 {
            assert!((row[i] - x[i]).abs() < 1e-9, "row {i}");
            assert!((col[i] - y[i]).abs() < 1e-9, "col {i}");
        }
    }

    #[test]
    fn emd_value_equals_flow_cost() {
        let cost = line_cost(6);
        let x = [0.3, 0.0, 0.2, 0.1, 0.0, 0.4];
        let y = [0.0, 0.25, 0.05, 0.3, 0.4, 0.0];
        let (value, flows) = emd_with_flow(&x, &y, &cost).unwrap();
        let mass: f64 = x.iter().sum();
        let recomputed: f64 = flows.iter().map(|f| cost.get(f.from, f.to) * f.mass).sum();
        assert!((value - recomputed / mass).abs() < 1e-9);
    }
}
