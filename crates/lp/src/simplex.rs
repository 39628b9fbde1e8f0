//! Two-phase primal simplex driver.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 optimizes the user objective from that basis.
//! Column selection uses Dantzig's rule (most negative reduced cost) and
//! falls back to Bland's rule after a stall budget to guarantee termination
//! on degenerate instances.

use crate::tableau::Tableau;
use crate::{LpError, Problem, Relation, Sense, Solution, EPS};
use earthmover_obs::{self as obs, names};

/// Tuning knobs for [`solve`].
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Hard cap on the total number of pivots across both phases.
    /// `None` derives a generous default from the problem size.
    pub max_pivots: Option<usize>,
}

/// Solves a linear [`Problem`] with the two-phase primal simplex method.
///
/// Returns the optimal [`Solution`] or the reason none exists.
pub fn solve(problem: &Problem, options: &SolveOptions) -> Result<Solution, LpError> {
    problem.validate()?;
    let n = problem.num_vars();
    let m = problem.constraints.len();
    let mut span = obs::span!(names::LP_SOLVE, vars = n, constraints = m);

    // Column layout: [0, n) structural, then one slack/surplus per Le/Ge
    // row, then one artificial per Ge/Eq row.
    let mut num_slack = 0usize;
    let mut num_artificial = 0usize;
    for c in &problem.constraints {
        // Rows are normalized to rhs >= 0 below; a Le row with negative rhs
        // becomes Ge and vice versa, so count after normalization.
        let rel = if c.rhs < 0.0 {
            flip(c.relation)
        } else {
            c.relation
        };
        match rel {
            Relation::Le => num_slack += 1,
            Relation::Ge => {
                num_slack += 1;
                num_artificial += 1;
            }
            Relation::Eq => num_artificial += 1,
        }
    }
    let cols = n + num_slack + num_artificial;
    let mut t = Tableau::new(m, cols);

    let mut next_slack = n;
    let mut next_artificial = n + num_slack;
    let artificial_base = n + num_slack;

    for (r, c) in problem.constraints.iter().enumerate() {
        let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
        let rel = if sign < 0.0 {
            flip(c.relation)
        } else {
            c.relation
        };
        for (j, &coef) in c.coeffs.iter().enumerate() {
            t.set(r, j, sign * coef);
        }
        t.set(r, cols, sign * c.rhs);
        match rel {
            Relation::Le => {
                t.set(r, next_slack, 1.0);
                t.basis[r] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                t.set(r, next_slack, -1.0);
                next_slack += 1;
                t.set(r, next_artificial, 1.0);
                t.basis[r] = next_artificial;
                next_artificial += 1;
            }
            Relation::Eq => {
                t.set(r, next_artificial, 1.0);
                t.basis[r] = next_artificial;
                next_artificial += 1;
            }
        }
    }

    let max_pivots = options
        .max_pivots
        .unwrap_or_else(|| 200 + 50 * (m + cols) * (m + 1).min(64));
    let mut pivots = 0usize;

    // Phase 1: minimize the sum of artificials.
    if num_artificial > 0 {
        let mut phase1_costs = vec![0.0; cols];
        for c in artificial_base..cols {
            phase1_costs[c] = 1.0;
        }
        t.install_objective(&phase1_costs);
        run_phase(&mut t, cols, max_pivots, &mut pivots, None)?;
        if t.objective_value() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables that remain basic (at zero level)
        // out of the basis so phase 2 never re-activates them.
        for r in 0..m {
            if t.basis[r] >= artificial_base {
                let mut pivoted = false;
                for c in 0..artificial_base {
                    if t.get(r, c).abs() > 1e-9 {
                        t.pivot(r, c);
                        pivots += 1;
                        pivoted = true;
                        break;
                    }
                }
                // A row with no eligible column is entirely zero over the
                // structural variables: a redundant constraint. The
                // artificial stays basic at level zero, which is harmless as
                // long as phase 2 never lets it grow — we exclude artificial
                // columns from entering below.
                let _ = pivoted;
            }
        }
    }

    // Phase 2: optimize the user objective (as minimization).
    let mut phase2_costs = vec![0.0; cols];
    for (j, &c) in problem.objective.iter().enumerate() {
        phase2_costs[j] = match problem.sense {
            Sense::Minimize => c,
            Sense::Maximize => -c,
        };
    }
    t.install_objective(&phase2_costs);
    run_phase(&mut t, cols, max_pivots, &mut pivots, Some(artificial_base))?;

    let all = t.basic_solution();
    let variables = all[..n].to_vec();
    let raw = t.objective_value();
    let objective = match problem.sense {
        Sense::Minimize => raw,
        Sense::Maximize => -raw,
    };
    span.record("pivots", pivots as f64);
    Ok(Solution {
        objective,
        variables,
        pivots,
    })
}

fn flip(rel: Relation) -> Relation {
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Runs simplex iterations until optimality, unboundedness, or the pivot
/// budget is exhausted. `col_limit` optionally excludes columns at or above
/// the given index from entering (used to freeze artificials in phase 2).
fn run_phase(
    t: &mut Tableau,
    cols: usize,
    max_pivots: usize,
    pivots: &mut usize,
    col_limit: Option<usize>,
) -> Result<(), LpError> {
    let enterable = col_limit.unwrap_or(cols);
    // Switch to Bland's rule after this many pivots in the current phase to
    // guarantee termination under degeneracy.
    let bland_after = *pivots + 2 * (t.rows + cols);
    loop {
        if *pivots >= max_pivots {
            return Err(LpError::IterationLimit);
        }
        let use_bland = *pivots >= bland_after;
        let entering = if use_bland {
            (0..enterable).find(|&c| t.reduced_cost(c) < -EPS)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for c in 0..enterable {
                let rc = t.reduced_cost(c);
                if rc < -EPS && best.is_none_or(|(_, b)| rc < b) {
                    best = Some((c, rc));
                }
            }
            best.map(|(c, _)| c)
        };
        let Some(col) = entering else {
            return Ok(()); // optimal
        };

        // Ratio test: choose the row minimizing rhs / coefficient over
        // positive coefficients; break ties by smallest basis column
        // (lexicographic flavour of Bland) for termination.
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..t.rows {
            let a = t.get(r, col);
            if a > EPS {
                let ratio = t.rhs(r) / a;
                match leave {
                    None => leave = Some((r, ratio)),
                    Some((lr, lratio)) => {
                        if ratio < lratio - EPS
                            || (ratio < lratio + EPS && t.basis[r] < t.basis[lr])
                        {
                            leave = Some((r, ratio));
                        }
                    }
                }
            }
        }
        let Some((row, _)) = leave else {
            return Err(LpError::Unbounded);
        };
        t.pivot(row, col);
        *pivots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Wyndor).
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        p.constrain(vec![0.0, 2.0], Relation::Le, 12.0);
        p.constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.variables[0], 2.0);
        assert_close(s.variables[1], 6.0);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3.
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.constrain(vec![1.0, 1.0], Relation::Ge, 10.0);
        p.constrain(vec![1.0, 0.0], Relation::Ge, 2.0);
        p.constrain(vec![0.0, 1.0], Relation::Ge, 3.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 2.0 * 7.0 + 3.0 * 3.0);
    }

    #[test]
    fn equality_rows() {
        // min x + y s.t. x + 2y = 4, x - y = 1  => x = 2, y = 1.
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, 2.0], Relation::Eq, 4.0);
        p.constrain(vec![1.0, -1.0], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.variables[0], 2.0);
        assert_close(s.variables[1], 1.0);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut p = Problem::minimize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        p.constrain(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // max x with x >= 0 only.
        let mut p = Problem::maximize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Ge, 0.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2 with min x + y: best is x=0, y=2.
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, -1.0], Relation::Le, -2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 2.0);
        assert_close(s.variables[1], 2.0);
    }

    #[test]
    fn degenerate_instance_terminates() {
        // Beale's classic cycling example (with Dantzig's rule, untreated).
        let mut p = Problem::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        p.constrain(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
        p.constrain(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
        p.constrain(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; min x.
        let mut p = Problem::minimize(vec![1.0, 0.0]);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 2.0);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.variables[1], 2.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::minimize(vec![]);
        let s = p.solve().unwrap();
        assert_eq!(s.variables.len(), 0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn transportation_shaped_lp() {
        // 2x2 transportation: supplies [1, 1], demands [1, 1],
        // costs [[0, 1], [1, 0]] — optimum ships on the diagonal, cost 0.
        // Variables f11 f12 f21 f22.
        let mut p = Problem::minimize(vec![0.0, 1.0, 1.0, 0.0]);
        p.constrain(vec![1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0);
        p.constrain(vec![0.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0);
        p.constrain(vec![1.0, 0.0, 1.0, 0.0], Relation::Eq, 1.0);
        p.constrain(vec![0.0, 1.0, 0.0, 1.0], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.variables[0], 1.0);
        assert_close(s.variables[3], 1.0);
    }
}
