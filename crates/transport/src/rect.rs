//! Rectangular cost matrices and the general (non-square) transportation
//! interface that *signatures* need.
//!
//! The paper (§1) notes that the EMD generalizes from fixed-binning
//! histograms to **signatures** — variable-length sets of
//! `(representative, weight)` pairs, e.g. the centroids of a per-image
//! color clustering. Two signatures rarely have the same length, so the
//! underlying transportation problem becomes rectangular: `n` sources,
//! `m` sinks, an `n × m` ground-distance matrix.

use crate::cost::line_orders;
use std::fmt;

/// A dense rectangular matrix of non-negative ground-distance costs
/// between `rows` sources and `cols` sinks.
///
/// Like [`CostMatrix`](crate::CostMatrix) it sorts each row by
/// `(cost, index)` once at construction, for Vogel's start; the solver
/// never walks a rectangular column order, so none is kept.
#[derive(Debug, Clone, PartialEq)]
pub struct RectCost {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Row `i`'s column indices by ascending `(cost, index)`, at
    /// `row_orders[i * cols..(i + 1) * cols]`.
    row_orders: Vec<u32>,
}

impl RectCost {
    /// Builds a `rows × cols` cost matrix from a generator function. A
    /// `-0.0` cost is stored as `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces a negative or non-finite cost.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let c = f(i, j);
                assert!(
                    c.is_finite() && c >= 0.0,
                    "cost ({i},{j}) must be finite and non-negative, got {c}"
                );
                data.push(c + 0.0);
            }
        }
        Self::with_orders(rows, cols, data)
    }

    /// Wraps an existing row-major buffer of length `rows * cols`. A
    /// `-0.0` cost is stored as `+0.0`.
    pub fn from_vec(rows: usize, cols: usize, mut data: Vec<f64>) -> Result<Self, RectCostError> {
        if data.len() != rows * cols {
            return Err(RectCostError::WrongLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        if let Some(idx) = data.iter().position(|c| !c.is_finite() || *c < 0.0) {
            return Err(RectCostError::InvalidCost {
                row: idx / cols,
                col: idx % cols,
                value: data[idx],
            });
        }
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        data.iter_mut().for_each(|c| *c += 0.0);
        Ok(Self::with_orders(rows, cols, data))
    }

    /// Wraps validated, canonical entries and sorts their rows.
    fn with_orders(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        let mut m = RectCost {
            rows,
            cols,
            data,
            row_orders: Vec::new(),
        };
        m.row_orders = line_orders(rows, cols, |i, j| m.get(i, j));
        m
    }

    /// Number of source rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of sink columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cost of moving one unit from source `i` to sink `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// The `i`-th row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i`'s column indices by ascending `(cost, index)`. Empty when
    /// `i` is out of range.
    #[inline]
    pub fn row_order(&self, i: usize) -> &[u32] {
        self.row_orders
            .get(i * self.cols..(i + 1) * self.cols)
            .unwrap_or(&[])
    }

    /// Largest cost in the matrix (zero when empty).
    pub fn max_cost(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

/// Errors constructing a [`RectCost`].
#[derive(Debug, Clone, PartialEq)]
pub enum RectCostError {
    /// Buffer length does not equal `rows * cols`.
    WrongLength { expected: usize, actual: usize },
    /// A cost entry is negative or non-finite.
    InvalidCost { row: usize, col: usize, value: f64 },
}

impl fmt::Display for RectCostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RectCostError::WrongLength { expected, actual } => {
                write!(f, "cost buffer has length {actual}, expected {expected}")
            }
            RectCostError::InvalidCost { row, col, value } => {
                write!(f, "cost ({row},{col}) = {value} is negative or non-finite")
            }
        }
    }
}

impl std::error::Error for RectCostError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_access() {
        let c = RectCost::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.get(1, 2), 12.0);
        assert_eq!(c.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(c.max_cost(), 12.0);
    }

    #[test]
    fn from_vec_validation() {
        assert!(matches!(
            RectCost::from_vec(2, 2, vec![0.0; 3]),
            Err(RectCostError::WrongLength { .. })
        ));
        assert!(matches!(
            RectCost::from_vec(1, 2, vec![0.0, -1.0]),
            Err(RectCostError::InvalidCost { row: 0, col: 1, .. })
        ));
    }

    #[test]
    fn rows_are_ordered_and_negative_zero_is_canonical() {
        let c = RectCost::from_vec(2, 3, vec![1.0, -0.0, 0.0, 2.0, 2.0, 1.0]).unwrap();
        assert_eq!(c.get(0, 1).to_bits(), 0);
        assert_eq!(c.row_order(0), &[1, 2, 0]);
        assert_eq!(c.row_order(1), &[2, 0, 1]);
        assert!(c.row_order(2).is_empty());
        let f = RectCost::from_fn(1, 2, |_, j| if j == 0 { 0.0 } else { -0.0 });
        assert_eq!(f.get(0, 1).to_bits(), 0);
        assert_eq!(f.row_order(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_fn_rejects_nan() {
        let _ = RectCost::from_fn(1, 1, |_, _| f64::NAN);
    }
}
