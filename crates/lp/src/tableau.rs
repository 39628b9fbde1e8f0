//! Dense simplex tableau with elementary row operations.
//!
//! The tableau stores the constraint matrix in row-major order together with
//! the right-hand-side column and an objective row. All pivoting is performed
//! in place with full-row eliminations; no product-form or LU tricks are
//! used — the instances the workspace solves (EMD formulations of up to 64
//! bins, i.e. ~4k variables) stay comfortably within dense-tableau territory.

/// A dense simplex tableau.
///
/// Layout: `rows` constraint rows, each of `cols` coefficients plus one
/// right-hand-side entry, followed by a single objective row of the same
/// width. The objective row stores *reduced costs* once the tableau is in
/// canonical form with respect to the current basis.
pub struct Tableau {
    /// Number of constraint rows.
    pub rows: usize,
    /// Number of variable columns (structural + slack + artificial).
    pub cols: usize,
    /// Row-major storage: `(rows + 1) * (cols + 1)` entries; the final row is
    /// the objective, the final column is the right-hand side.
    data: Vec<f64>,
    /// `basis[r]` is the column currently basic in constraint row `r`.
    pub basis: Vec<usize>,
}

impl Tableau {
    /// Creates a zero-filled tableau with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Tableau {
            rows,
            cols,
            data: vec![0.0; (rows + 1) * (cols + 1)],
            basis: vec![usize::MAX; rows],
        }
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * (self.cols + 1) + col
    }

    /// Reads entry `(row, col)`; `col == cols` addresses the RHS column and
    /// `row == rows` addresses the objective row.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[self.idx(row, col)]
    }

    /// Writes entry `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let i = self.idx(row, col);
        self.data[i] = value;
    }

    /// Right-hand side of constraint row `r`.
    #[inline]
    pub fn rhs(&self, row: usize) -> f64 {
        self.get(row, self.cols)
    }

    /// Current objective value (negated canonical-form entry).
    #[inline]
    pub fn objective_value(&self) -> f64 {
        -self.get(self.rows, self.cols)
    }

    /// Reduced cost of column `col`.
    #[inline]
    pub fn reduced_cost(&self, col: usize) -> f64 {
        self.get(self.rows, col)
    }

    /// Performs a pivot on `(pivot_row, pivot_col)`: scales the pivot row so
    /// the pivot element becomes 1, then eliminates the pivot column from all
    /// other rows including the objective row, and records the basis change.
    pub fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let width = self.cols + 1;
        let pr_start = pivot_row * width;
        let pivot_el = self.data[pr_start + pivot_col];
        debug_assert!(
            pivot_el.abs() > 1e-12,
            "pivot element too small: {pivot_el}"
        );
        let inv = 1.0 / pivot_el;
        for c in 0..width {
            self.data[pr_start + c] *= inv;
        }
        // Clamp the pivot element to exactly one to avoid drift.
        self.data[pr_start + pivot_col] = 1.0;

        for r in 0..=self.rows {
            if r == pivot_row {
                continue;
            }
            let r_start = r * width;
            let factor = self.data[r_start + pivot_col];
            if factor == 0.0 {
                continue;
            }
            // Manual split-borrow: copy the pivot row cell by cell.
            for c in 0..width {
                let delta = factor * self.data[pr_start + c];
                self.data[r_start + c] -= delta;
            }
            self.data[r_start + pivot_col] = 0.0;
        }
        self.basis[pivot_row] = pivot_col;
    }

    /// Rewrites the objective row as the reduced costs of `costs` with
    /// respect to the current basis: `z_row = costs - Σ costs[basis[r]] * row_r`.
    ///
    /// Columns beyond `costs.len()` are treated as zero-cost (used when the
    /// phase-2 objective ignores artificial columns).
    pub fn install_objective(&mut self, costs: &[f64]) {
        let width = self.cols + 1;
        let obj_start = self.rows * width;
        for c in 0..width {
            let cost = if c < costs.len() { costs[c] } else { 0.0 };
            self.data[obj_start + c] = cost;
        }
        // RHS cell of the objective row starts at zero contribution.
        self.data[obj_start + self.cols] = 0.0;
        for r in 0..self.rows {
            let b = self.basis[r];
            let cost = if b < costs.len() { costs[b] } else { 0.0 };
            if cost == 0.0 {
                continue;
            }
            let r_start = r * width;
            for c in 0..width {
                let delta = cost * self.data[r_start + c];
                self.data[obj_start + c] -= delta;
            }
        }
    }

    /// Extracts the value of every column variable from the current basic
    /// solution (non-basic variables are zero).
    pub fn basic_solution(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.cols];
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < self.cols {
                values[b] = self.rhs(r);
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivot_normalizes_row_and_eliminates_column() {
        // Rows: [2 1 | 4], [1 3 | 6]; objective [-1 -1 | 0].
        let mut t = Tableau::new(2, 2);
        t.set(0, 0, 2.0);
        t.set(0, 1, 1.0);
        t.set(0, 2, 4.0);
        t.set(1, 0, 1.0);
        t.set(1, 1, 3.0);
        t.set(1, 2, 6.0);
        t.set(2, 0, -1.0);
        t.set(2, 1, -1.0);
        t.pivot(0, 0);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 0), 0.0);
        assert_eq!(t.get(2, 0), 0.0);
        assert!((t.get(0, 2) - 2.0).abs() < 1e-12);
        assert!((t.get(1, 2) - 4.0).abs() < 1e-12);
        assert_eq!(t.basis[0], 0);
    }

    #[test]
    fn basic_solution_reads_rhs_for_basic_columns() {
        let mut t = Tableau::new(2, 3);
        t.basis = vec![1, 2];
        t.set(0, 3, 5.0);
        t.set(1, 3, 7.0);
        let sol = t.basic_solution();
        assert_eq!(sol, vec![0.0, 5.0, 7.0]);
    }

    #[test]
    fn install_objective_prices_out_basis() {
        // One constraint x0 + x1 = 3 with x0 basic; objective min 2 x0 + x1.
        let mut t = Tableau::new(1, 2);
        t.set(0, 0, 1.0);
        t.set(0, 1, 1.0);
        t.set(0, 2, 3.0);
        t.basis = vec![0];
        t.install_objective(&[2.0, 1.0]);
        // Reduced cost of basic column must be zero.
        assert_eq!(t.reduced_cost(0), 0.0);
        // Reduced cost of x1: 1 - 2*1 = -1.
        assert!((t.reduced_cost(1) + 1.0).abs() < 1e-12);
        // Objective value: 2 * 3 = 6.
        assert!((t.objective_value() - 6.0).abs() < 1e-12);
    }
}
