// Indexed loops over parallel arrays are idiomatic in this numeric code.
#![allow(clippy::needless_range_loop)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! A from-scratch dense-tableau linear programming solver.
//!
//! This crate implements a classic **two-phase primal simplex** method over a
//! dense tableau. It exists for two reasons within the `earthmover`
//! workspace:
//!
//! 1. The paper (Assent, Wenning & Seidl, ICDE 2006, §2) defines the Earth
//!    Mover's Distance as a linear program "which can be solved using the
//!    simplex method". This crate *is* that textbook formulation, and the
//!    benchmarks use it as the naive baseline that motivates the specialised
//!    transportation solver.
//! 2. It cross-validates `earthmover-transport`: both solvers are written
//!    independently from scratch, so agreement on random instances is strong
//!    evidence of correctness.
//!
//! # Example
//!
//! Minimise `x + 2y` subject to `x + y ≥ 1`, `x ≤ 3`, `x, y ≥ 0`:
//!
//! ```
//! use earthmover_lp::{Problem, Relation};
//!
//! let mut p = Problem::minimize(vec![1.0, 2.0]);
//! p.constrain(vec![1.0, 1.0], Relation::Ge, 1.0);
//! p.constrain(vec![1.0, 0.0], Relation::Le, 3.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 1.0).abs() < 1e-9);
//! assert!((sol.variables[0] - 1.0).abs() < 1e-9);
//! ```

mod simplex;
mod tableau;

pub use simplex::{solve, SolveOptions};

use std::fmt;

/// Numerical tolerance used for feasibility and optimality tests.
pub const EPS: f64 = 1e-9;

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// The relation of a linear constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · z ≤ rhs`
    Le,
    /// `coeffs · z = rhs`
    Eq,
    /// `coeffs · z ≥ rhs`
    Ge,
}

/// A single linear constraint `coeffs · z  {≤,=,≥}  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// One coefficient per structural variable.
    pub coeffs: Vec<f64>,
    /// Constraint relation.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// All variables are implicitly constrained to `z_i ≥ 0`, which matches the
/// flow variables of the Earth Mover's Distance formulation.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Objective coefficients, one per variable.
    pub objective: Vec<f64>,
    /// Optimization direction.
    pub sense: Sense,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// An optimal solution to a [`Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (in the problem's own sense).
    pub objective: f64,
    /// Optimal assignment of the structural variables.
    pub variables: Vec<f64>,
    /// Number of simplex pivots performed across both phases.
    pub pivots: usize,
}

/// Reasons a linear program cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The problem is structurally invalid (e.g. ragged coefficient rows).
    Malformed(String),
    /// The pivot limit was exceeded (should not happen with Bland's rule).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::Malformed(msg) => write!(f, "malformed linear program: {msg}"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

impl Problem {
    /// Creates a minimization problem with the given objective coefficients
    /// and no constraints yet.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Problem {
            objective,
            sense: Sense::Minimize,
            constraints: Vec::new(),
        }
    }

    /// Creates a maximization problem with the given objective coefficients
    /// and no constraints yet.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Problem {
            objective,
            sense: Sense::Maximize,
            constraints: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Appends the constraint `coeffs · z {relation} rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the number of variables.
    pub fn constrain(&mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint arity must match variable count"
        );
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        self
    }

    /// Solves the problem with default options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        solve(self, &SolveOptions::default())
    }

    /// Validates structural consistency (arity, finiteness).
    pub fn validate(&self) -> Result<(), LpError> {
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(LpError::Malformed(
                "non-finite objective coefficient".into(),
            ));
        }
        for (idx, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != self.objective.len() {
                return Err(LpError::Malformed(format!(
                    "constraint {idx} has {} coefficients, expected {}",
                    c.coeffs.len(),
                    self.objective.len()
                )));
            }
            if c.coeffs.iter().any(|v| !v.is_finite()) || !c.rhs.is_finite() {
                return Err(LpError::Malformed(format!(
                    "constraint {idx} has a non-finite coefficient or rhs"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_arity() {
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, 0.0], Relation::Ge, 1.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.constraints.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ragged_constraint_panics() {
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0], Relation::Ge, 1.0);
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = Problem::minimize(vec![1.0, f64::NAN]);
        assert!(matches!(p.validate(), Err(LpError::Malformed(_))));
        p.objective[1] = 1.0;
        p.constraints.push(Constraint {
            coeffs: vec![1.0, 1.0],
            relation: Relation::Le,
            rhs: f64::INFINITY,
        });
        assert!(matches!(p.validate(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn error_display_is_descriptive() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::Malformed("x".into()).to_string().contains("x"));
    }
}
