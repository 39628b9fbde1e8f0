//! The exact Earth Mover's Distance as a [`DistanceMeasure`], with a
//! solver recovery ladder.

use super::DistanceMeasure;
use crate::error::PipelineError;
use crate::histogram::Histogram;
use earthmover_lp::{Problem, Relation};
use earthmover_obs::{self as obs, names};
use earthmover_transport::{
    emd_with_options, CostMatrix, PivotRule, SolverOptions, TransportError,
};

/// Degradation note for ladder rung 1 (Bland's anti-cycling rule).
pub const RUNG_BLAND: &str =
    "exact EMD: transportation simplex hit its pivot cap; recovered via Bland's rule";

/// Degradation note for ladder rung 2 (independent dense two-phase LP).
pub const RUNG_DENSE_LP: &str =
    "exact EMD: transportation simplex exhausted; recovered via dense LP";

/// Exact EMD refinement step, backed by the transportation simplex.
///
/// This is the `dist_exact` of the multistep architecture: every
/// candidate that survives the filters is evaluated with this measure.
/// Construction validates nothing about metricity — pair it with a
/// metric cost matrix (e.g. [`crate::ground::BinGrid::cost_matrix`]) if
/// the lower bounds or the metric axioms matter.
///
/// # Recovery ladder
///
/// The transportation simplex caps its pivot count to bound run time on
/// pathological (cycling-prone) degenerate instances. When that cap is
/// hit, [`ExactEmd::try_distance`] climbs a recovery ladder instead of
/// giving up:
///
/// 1. default pivot rule (largest cost reduction) — fast, almost always
///    terminates well under the cap;
/// 2. on [`TransportError::IterationLimit`]: retry with **Bland's
///    anti-cycling rule**, which provably cannot cycle;
/// 3. if even that exhausts its cap: solve the transportation LP with the
///    independent dense two-phase simplex of `earthmover-lp`.
///
/// Precondition failures (shape mismatch, unbalanced mass, negative
/// entries) are *not* retried — they are caller bugs and surface
/// immediately as [`PipelineError::Distance`].
#[derive(Debug, Clone)]
pub struct ExactEmd {
    cost: CostMatrix,
}

impl ExactEmd {
    /// Wraps a ground-distance cost matrix.
    pub fn new(cost: CostMatrix) -> Self {
        ExactEmd { cost }
    }

    /// The underlying cost matrix.
    pub fn cost(&self) -> &CostMatrix {
        &self.cost
    }

    /// Computes the EMD through the recovery ladder (see the type docs),
    /// returning a typed error instead of panicking.
    pub fn try_distance(&self, x: &Histogram, y: &Histogram) -> Result<f64, PipelineError> {
        self.try_distance_traced(x, y).map(|(d, _)| d)
    }

    /// [`ExactEmd::try_distance`] plus the recovery-ladder rung that
    /// produced the value: `None` for the default pivot rule, or a note
    /// naming the fallback (Bland's rule / dense LP). Emits an
    /// `exact_emd` span with the rung as an attribute (0 = default,
    /// 1 = Bland, 2 = dense LP).
    pub fn try_distance_traced(
        &self,
        x: &Histogram,
        y: &Histogram,
    ) -> Result<(f64, Option<&'static str>), PipelineError> {
        debug_assert!(
            x.mass_matches(y, 1e-7),
            "EMD requires equal-mass histograms: {} vs {}",
            x.mass(),
            y.mass()
        );
        let mut span = obs::span!(names::EXACT_EMD, bins = x.len());
        let default = SolverOptions::default();
        match emd_with_options(x.bins(), y.bins(), &self.cost, default) {
            Ok(v) => {
                span.record("rung", 0.0);
                Ok((v, None))
            }
            Err(TransportError::IterationLimit) => {
                let bland = SolverOptions {
                    pivot_rule: PivotRule::Bland,
                    max_pivots: None,
                };
                match emd_with_options(x.bins(), y.bins(), &self.cost, bland) {
                    Ok(v) => {
                        span.record("rung", 1.0);
                        Ok((v, Some(RUNG_BLAND)))
                    }
                    Err(TransportError::IterationLimit) => {
                        span.record("rung", 2.0);
                        self.lp_distance(x, y).map(|v| (v, Some(RUNG_DENSE_LP)))
                    }
                    Err(e) => Err(PipelineError::Distance(e)),
                }
            }
            Err(e) => Err(PipelineError::Distance(e)),
        }
    }

    /// Final ladder rung: the transportation LP solved by the dense
    /// two-phase simplex of `earthmover-lp` — an entirely independent
    /// implementation, so a network-simplex bug cannot take it down too.
    fn lp_distance(&self, x: &Histogram, y: &Histogram) -> Result<f64, PipelineError> {
        let n = x.len();
        let mut objective = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                objective[i * n + j] = self.cost.get(i, j);
            }
        }
        let mut problem = Problem::minimize(objective);
        for i in 0..n {
            let mut row = vec![0.0; n * n];
            for j in 0..n {
                row[i * n + j] = 1.0;
            }
            problem.constrain(row, Relation::Eq, x.bins()[i]);
        }
        for j in 0..n {
            let mut col = vec![0.0; n * n];
            for i in 0..n {
                col[i * n + j] = 1.0;
            }
            problem.constrain(col, Relation::Eq, y.bins()[j]);
        }
        let mass = x.mass();
        if mass <= 0.0 {
            return Ok(0.0);
        }
        match problem.solve() {
            Ok(solution) => Ok(solution.objective / mass),
            // The ladder is exhausted; report the error that started it.
            Err(_) => Err(PipelineError::Distance(TransportError::IterationLimit)),
        }
    }
}

impl DistanceMeasure for ExactEmd {
    #[expect(clippy::panic, reason = "infallible trait method; use try_distance")]
    fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        // Intentional panic: the infallible trait method is kept for
        // filter-style callers that have validated their inputs. Query
        // pipelines go through `try_distance` and never reach this.
        self.try_distance(x, y).unwrap_or_else(|e| {
            panic!(
                "exact EMD precondition violated (histograms must share arity \
                 and total mass; normalize queries before use): {e}"
            )
        })
    }

    fn try_distance(&self, x: &Histogram, y: &Histogram) -> Result<f64, PipelineError> {
        ExactEmd::try_distance(self, x, y)
    }

    fn try_distance_noted(
        &self,
        x: &Histogram,
        y: &Histogram,
    ) -> Result<(f64, Option<&'static str>), PipelineError> {
        self.try_distance_traced(x, y)
    }

    fn name(&self) -> &'static str {
        "EMD"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::line_cost;
    use super::*;

    #[test]
    fn matches_transport_crate() {
        let m = ExactEmd::new(line_cost(4));
        let x = Histogram::new(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let y = Histogram::new(vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        assert!((m.distance(&x, &y) - 3.0).abs() < 1e-12);
        assert_eq!(m.name(), "EMD");
    }

    #[test]
    fn zero_for_identical() {
        let m = ExactEmd::new(line_cost(3));
        let x = Histogram::normalized(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.distance(&x, &x), 0.0);
    }

    #[test]
    fn try_distance_agrees_with_distance() {
        let m = ExactEmd::new(line_cost(5));
        let x = Histogram::normalized(vec![1.0, 2.0, 0.0, 1.0, 1.0]).unwrap();
        let y = Histogram::normalized(vec![0.0, 1.0, 3.0, 0.0, 1.0]).unwrap();
        assert_eq!(m.try_distance(&x, &y).unwrap(), m.distance(&x, &y));
    }

    #[test]
    fn healthy_path_reports_no_rung_note() {
        let m = ExactEmd::new(line_cost(4));
        let x = Histogram::normalized(vec![1.0, 2.0, 1.0, 0.5]).unwrap();
        let y = Histogram::normalized(vec![0.5, 1.0, 2.0, 1.0]).unwrap();
        let (d, note) = m.try_distance_traced(&x, &y).unwrap();
        assert!((d - m.distance(&x, &y)).abs() < 1e-12);
        assert_eq!(note, None, "default rung must not report a degradation");
    }

    #[test]
    fn lp_fallback_matches_simplex() {
        // Drive the final rung directly and compare with the simplex.
        let m = ExactEmd::new(line_cost(6));
        let x = Histogram::normalized(vec![3.0, 0.0, 2.0, 1.0, 0.0, 4.0]).unwrap();
        let y = Histogram::normalized(vec![0.0, 2.5, 0.5, 3.0, 4.0, 0.0]).unwrap();
        let via_lp = m.lp_distance(&x, &y).unwrap();
        let via_simplex = m.try_distance(&x, &y).unwrap();
        assert!(
            (via_lp - via_simplex).abs() < 1e-7,
            "lp {via_lp} vs simplex {via_simplex}"
        );
    }
}
