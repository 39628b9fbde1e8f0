//! Square cost matrices encoding the ground distance between histogram bins.

use std::fmt;

/// A dense square matrix of non-negative ground-distance costs.
///
/// `CostMatrix` is shared by the exact solver and every lower bound in
/// `earthmover-core`: entry `(i, j)` is the cost of moving one unit of mass
/// from bin `i` to bin `j`. The Earth Mover's Distance is a metric exactly
/// when the encoded ground distance is a metric (zero diagonal, symmetry,
/// triangle inequality) — [`CostMatrix::is_metric`] checks this.
///
/// Construction also sorts every row and every column once by
/// `(cost, index)` ([`CostMatrix::row_order`], [`CostMatrix::col_order`]):
/// Vogel's start in the solver and LB_IM's greedy both walk lines
/// cheapest-first, and the orders never change for the matrix's life.
/// They cost `2·n²` `u32`s (8 KB at 32 bins).
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    n: usize,
    /// Row-major `n * n` entries.
    data: Vec<f64>,
    /// Row `i`'s column indices by ascending `(cost, index)`, at
    /// `row_orders[i * n..(i + 1) * n]`.
    row_orders: Vec<u32>,
    /// Column `j`'s row indices by ascending `(cost, index)`, at
    /// `col_orders[j * n..(j + 1) * n]`.
    col_orders: Vec<u32>,
}

/// For each of `lines` lines, the indices `0..len` sorted by ascending
/// `cost(line, k)`, ties broken by the lower index; concatenated.
///
/// `total_cmp` agrees with `<` on the finite, non-negative costs the
/// constructors admit because they store `-0.0` as `+0.0`, so the first
/// entry of an order is the strict-`<` scan's minimum and its value ties
/// resolve the same way. Indices are `u32`: a line of more than
/// `u32::MAX` entries would need a cost buffer of over 32 GiB.
pub(crate) fn line_orders(
    lines: usize,
    len: usize,
    cost: impl Fn(usize, usize) -> f64,
) -> Vec<u32> {
    (0..lines)
        .flat_map(|line| {
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_by(|&a, &b| {
                cost(line, a as usize)
                    .total_cmp(&cost(line, b as usize))
                    .then(a.cmp(&b))
            });
            order
        })
        .collect()
}

impl CostMatrix {
    /// Builds an `n × n` cost matrix from a generator function. A `-0.0`
    /// cost is stored as `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces a negative or non-finite cost.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let c = f(i, j);
                assert!(
                    c.is_finite() && c >= 0.0,
                    "cost ({i},{j}) must be finite and non-negative, got {c}"
                );
                data.push(c + 0.0);
            }
        }
        Self::with_orders(n, data)
    }

    /// Wraps an existing row-major buffer of length `n * n`. A `-0.0`
    /// cost is stored as `+0.0`.
    pub fn from_vec(n: usize, mut data: Vec<f64>) -> Result<Self, CostMatrixError> {
        if data.len() != n * n {
            return Err(CostMatrixError::WrongLength {
                expected: n * n,
                actual: data.len(),
            });
        }
        if let Some(idx) = data.iter().position(|c| !c.is_finite() || *c < 0.0) {
            return Err(CostMatrixError::InvalidCost {
                row: idx / n,
                col: idx % n,
                value: data[idx],
            });
        }
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        data.iter_mut().for_each(|c| *c += 0.0);
        Ok(Self::with_orders(n, data))
    }

    /// Wraps validated, canonical entries and sorts their lines.
    fn with_orders(n: usize, data: Vec<f64>) -> Self {
        let mut m = CostMatrix {
            n,
            data,
            row_orders: Vec::new(),
            col_orders: Vec::new(),
        };
        m.row_orders = line_orders(n, n, |i, j| m.get(i, j));
        m.col_orders = line_orders(n, n, |j, i| m.get(i, j));
        m
    }

    /// Number of bins (the matrix is `len × len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has zero bins.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cost of moving one unit of mass from bin `i` to bin `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// The `i`-th row as a slice (costs from bin `i` to every bin).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Row `i`'s column indices by ascending `(cost, index)`: the first
    /// entry is the cheapest target of bin `i`, the lowest index among
    /// equal costs. Empty when `i` is out of range.
    #[inline]
    pub fn row_order(&self, i: usize) -> &[u32] {
        self.row_orders
            .get(i * self.n..(i + 1) * self.n)
            .unwrap_or(&[])
    }

    /// Column `j`'s row indices by ascending `(cost, index)` — the row
    /// orders of the transposed matrix. Empty when `j` is out of range.
    #[inline]
    pub fn col_order(&self, j: usize) -> &[u32] {
        self.col_orders
            .get(j * self.n..(j + 1) * self.n)
            .unwrap_or(&[])
    }

    /// Largest cost in the matrix, or zero for an empty matrix.
    pub fn max_cost(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Checks the three metric axioms on the encoded ground distance:
    /// zero diagonal (and strictly positive off-diagonal), symmetry, and
    /// the triangle inequality `c_ik ≤ c_ij + c_jk` (within `tol`).
    ///
    /// This is an `O(n³)` diagnostic intended for construction-time
    /// validation, not for hot paths.
    pub fn is_metric(&self, tol: f64) -> bool {
        let n = self.n;
        for i in 0..n {
            if self.get(i, i).abs() > tol {
                return false;
            }
            for j in 0..n {
                if i != j && self.get(i, j) <= tol {
                    return false;
                }
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if self.get(i, k) > self.get(i, j) + self.get(j, k) + tol {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Errors constructing a [`CostMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum CostMatrixError {
    /// Buffer length does not equal `n * n`.
    WrongLength { expected: usize, actual: usize },
    /// A cost entry is negative or non-finite.
    InvalidCost { row: usize, col: usize, value: f64 },
}

impl fmt::Display for CostMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostMatrixError::WrongLength { expected, actual } => {
                write!(f, "cost buffer has length {actual}, expected {expected}")
            }
            CostMatrixError::InvalidCost { row, col, value } => {
                write!(f, "cost ({row},{col}) = {value} is negative or non-finite")
            }
        }
    }
}

impl std::error::Error for CostMatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get_agree() {
        let c = CostMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(c.get(2, 1), 21.0);
        assert_eq!(c.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.max_cost(), 22.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let err = CostMatrix::from_vec(2, vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, CostMatrixError::WrongLength { .. }));
    }

    #[test]
    fn from_vec_rejects_negative() {
        let err = CostMatrix::from_vec(2, vec![0.0, 1.0, -1.0, 0.0]).unwrap_err();
        assert!(matches!(
            err,
            CostMatrixError::InvalidCost { row: 1, col: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_fn_panics_on_negative() {
        let _ = CostMatrix::from_fn(2, |i, j| i as f64 - j as f64);
    }

    #[test]
    fn metric_check_accepts_line_metric() {
        let c = CostMatrix::from_fn(4, |i, j| (i as f64 - j as f64).abs());
        assert!(c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_asymmetry() {
        let c = CostMatrix::from_fn(2, |i, j| {
            if i < j {
                1.0
            } else if i > j {
                2.0
            } else {
                0.0
            }
        });
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_triangle_violation() {
        // d(0,2) = 10 but d(0,1) + d(1,2) = 2.
        let c =
            CostMatrix::from_vec(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]).unwrap();
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn metric_check_rejects_nonzero_diagonal() {
        let c = CostMatrix::from_vec(2, vec![0.5, 1.0, 1.0, 0.0]).unwrap();
        assert!(!c.is_metric(1e-12));
    }

    #[test]
    fn line_orders_sort_by_cost_then_index() {
        let c = CostMatrix::from_vec(3, vec![2.0, 1.0, 1.0, 0.0, 3.0, 0.0, 5.0, 4.0, 4.0]).unwrap();
        assert_eq!(c.row_order(0), &[1, 2, 0]);
        assert_eq!(c.row_order(1), &[0, 2, 1]);
        assert_eq!(c.row_order(2), &[1, 2, 0]);
        assert_eq!(c.col_order(0), &[1, 0, 2]);
        assert_eq!(c.col_order(2), &[1, 0, 2]);
        assert!(c.row_order(3).is_empty());
        assert!(c.col_order(3).is_empty());
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        // A non-metric matrix with several zero costs per row and a
        // negative-zero diagonal. Were -0.0 kept, `total_cmp` would sort
        // row 3's diagonal ahead of its equal zeros at columns 0 and 2,
        // Vogel would start in another cell than a `<` scan, and this
        // instance would end in another basis.
        let off = [
            [0.0, 0.0, 0.0, 1.0],
            [2.0, 0.0, 0.0, 2.0],
            [0.0, 2.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
        ];
        let with_diagonal =
            |zero: f64| move |i: usize, j: usize| if i == j { zero } else { off[i][j] };
        let neg = CostMatrix::from_fn(4, with_diagonal(-0.0));
        let pos = CostMatrix::from_fn(4, with_diagonal(0.0));
        let via_vec = CostMatrix::from_vec(
            4,
            (0..16).map(|k| with_diagonal(-0.0)(k / 4, k % 4)).collect(),
        )
        .unwrap();
        for i in 0..4 {
            assert_eq!(neg.get(i, i).to_bits(), 0);
            assert_eq!(via_vec.get(i, i).to_bits(), 0);
            assert_eq!(neg.row_order(i), pos.row_order(i));
            assert_eq!(neg.col_order(i), pos.col_order(i));
        }
        assert_eq!(neg.row_order(3), &[0, 2, 3, 1]);
        let x = [3.0, 4.0, 3.0, 4.0];
        let y = [4.0, 4.0, 3.0, 3.0];
        let a = crate::solve_transportation(&x, &y, &neg).unwrap();
        let b = crate::solve_transportation(&x, &y, &pos).unwrap();
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert_eq!(a.pivots, b.pivots);
        let bits = |s: &crate::TransportSolution| {
            s.flows
                .iter()
                .map(|f| (f.from, f.to, f.mass.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::from_fn(0, |_, _| 0.0);
        assert!(c.is_empty());
        assert_eq!(c.max_cost(), 0.0);
        assert!(c.is_metric(1e-12));
    }
}
