//! The transportation simplex: Vogel initialization, MODI optimality test,
//! stepping-stone pivoting.
//!
//! The balanced transportation problem over supplies `x` (rows) and demands
//! `y` (columns) is a linear program whose basic solutions correspond to
//! spanning trees of the complete bipartite graph on rows and columns. The
//! solver maintains exactly `rows + cols - 1` basic cells (some possibly at
//! zero flow — degeneracy), computes node potentials `u_i`, `v_j` with
//! `u_i + v_j = c_ij` on basic cells, scans reduced costs
//! `c_ij - u_i - v_j` of non-basic cells, and pivots along the unique cycle
//! the entering cell closes in the basis tree.

use crate::cost::CostMatrix;
use std::fmt;

/// One positive entry of an optimal flow matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source bin (row index).
    pub from: usize,
    /// Target bin (column index).
    pub to: usize,
    /// Mass shipped from `from` to `to`; strictly positive.
    pub mass: f64,
}

/// Result of solving a transportation problem.
#[derive(Debug, Clone)]
pub struct TransportSolution {
    /// Minimal total cost `Σ c_ij f_ij` (unnormalized).
    pub total_cost: f64,
    /// The positive flows of an optimal basic solution.
    pub flows: Vec<Flow>,
    /// Number of simplex pivots performed after initialization.
    pub pivots: usize,
}

/// Failure modes of the transportation solver.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// Supplies and demands have incompatible lengths, or the cost matrix
    /// has the wrong shape.
    ShapeMismatch { supplies: usize, demands: usize },
    /// Total supply differs from total demand.
    Unbalanced { supply: f64, demand: f64 },
    /// A supply or demand entry is negative or non-finite.
    InvalidMass { index: usize, value: f64 },
    /// Pivot limit exceeded (indicates pathological cycling; should not
    /// occur with the deterministic tie-breaking employed).
    IterationLimit,
    /// Internal invariant violation (basis lost tree structure).
    Internal(&'static str),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ShapeMismatch { supplies, demands } => write!(
                f,
                "shape mismatch: {supplies} supplies vs {demands} demands/cost bins"
            ),
            TransportError::Unbalanced { supply, demand } => {
                write!(f, "unbalanced problem: supply {supply} != demand {demand}")
            }
            TransportError::InvalidMass { index, value } => {
                write!(f, "mass entry {index} = {value} is negative or non-finite")
            }
            TransportError::IterationLimit => write!(f, "transportation simplex pivot limit"),
            TransportError::Internal(msg) => write!(f, "internal solver error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// First position at or after `pos` in `order` whose column is open, or
/// `order.len()` when none is.
fn next_open(order: &[u32], mut pos: usize, col_open: &[bool]) -> usize {
    while let Some(&j) = order.get(pos) {
        if col_open.get(j as usize) == Some(&true) {
            break;
        }
        pos += 1;
    }
    pos
}

/// Optimality tolerance on reduced costs, relative to the largest cost.
const OPT_EPS: f64 = 1e-10;

/// Entering-variable selection rule for the simplex pivots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Dantzig-style: the non-basic cell with the most negative reduced
    /// cost enters (ties broken by lowest `(i, j)`). Fastest in practice
    /// but can cycle on pathologically degenerate instances.
    #[default]
    LargestReduction,
    /// Bland's rule: the *first* cell (in `(i, j)` order) with a negative
    /// reduced cost enters, and the leaving cell with the lowest index is
    /// preferred among ties. Provably never cycles, at the price of more
    /// pivots — the right tool when [`TransportError::IterationLimit`]
    /// was hit under the default rule.
    Bland,
}

/// Tuning knobs for the transportation simplex.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverOptions {
    /// Entering-variable selection rule.
    pub pivot_rule: PivotRule,
    /// Overrides the pivot cap. `None` uses the built-in safety net of
    /// `20·(n·m + n + m) + 1000`. Tests use tiny caps to force
    /// [`TransportError::IterationLimit`] deterministically.
    pub max_pivots: Option<usize>,
}

/// Solves the balanced transportation problem `min Σ c_ij f_ij` with row
/// sums `x` and column sums `y`.
///
/// Both marginals must be non-negative with equal totals; zero entries are
/// allowed (they produce degenerate basic cells). The square cost matrix
/// must have `x.len()` bins; `x.len() == y.len()` is required by the EMD
/// use case this crate serves.
pub fn solve_transportation(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
) -> Result<TransportSolution, TransportError> {
    solve_transportation_with(x, y, cost, SolverOptions::default())
}

/// [`solve_transportation`] with explicit [`SolverOptions`].
pub fn solve_transportation_with(
    x: &[f64],
    y: &[f64],
    cost: &CostMatrix,
    options: SolverOptions,
) -> Result<TransportSolution, TransportError> {
    let n = x.len();
    let m = y.len();
    if n != m || cost.len() != n {
        return Err(TransportError::ShapeMismatch {
            supplies: n,
            demands: m,
        });
    }
    for (i, &v) in x.iter().chain(y.iter()).enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(TransportError::InvalidMass { index: i, value: v });
        }
    }
    if n == 0 {
        // No bins on either side: nothing to ship.
        return Ok(TransportSolution {
            total_cost: 0.0,
            flows: Vec::new(),
            pivots: 0,
        });
    }

    let mut state = State::new(n, m, cost);
    state.vogel_init(x, y);
    let pivots = state.optimize(options)?;

    let mut total = 0.0;
    let mut flows = Vec::new();
    for &(i, j) in &state.basis {
        let f = state.flow[i * m + j];
        if f > 0.0 {
            total += cost.get(i, j) * f;
            flows.push(Flow {
                from: i,
                to: j,
                mass: f,
            });
        }
    }
    Ok(TransportSolution {
        total_cost: total,
        flows,
        pivots,
    })
}

/// Mutable solver state: the flow matrix, the current basis tree, and
/// the scratch every pivot reuses (allocated once per solve).
struct State<'a> {
    n: usize,
    m: usize,
    cost: &'a CostMatrix,
    /// Dense `n × m` flow values; only basic cells are meaningful.
    flow: Vec<f64>,
    /// Basic cells `(row, col)`; always `n + m - 1` entries after init.
    basis: Vec<(usize, usize)>,
    /// Dense basic-cell indicator, `n × m`.
    is_basic: Vec<bool>,
    /// Basis-tree adjacency, rebuilt by [`State::index_basis`]. Nodes are
    /// rows `0..n` then columns `n..n + m`; node `k`'s neighbours (column
    /// indices for a row, row indices for a column, in basis order) are
    /// `adj[adj_start[k]..adj_start[k + 1]]`.
    adj_start: Vec<usize>,
    adj: Vec<usize>,
    /// Next free slot per node while `adj` is being filled.
    adj_fill: Vec<usize>,
    /// Row and column potentials of the current basis.
    u: Vec<f64>,
    v: Vec<f64>,
    /// Breadth-first queue over tree nodes (read by index, never popped).
    queue: Vec<usize>,
    /// Predecessor of each node in the cycle search; `usize::MAX` = unseen.
    parent: Vec<usize>,
    /// Basic cells of the last cycle found, from column `ej` to row `ei`.
    path: Vec<(usize, usize)>,
}

impl<'a> State<'a> {
    fn new(n: usize, m: usize, cost: &'a CostMatrix) -> Self {
        State {
            n,
            m,
            cost,
            flow: vec![0.0; n * m],
            basis: Vec::with_capacity(n + m - 1),
            is_basic: vec![false; n * m],
            adj_start: vec![0; n + m + 1],
            adj: vec![0; 2 * (n + m - 1)],
            adj_fill: vec![0; n + m],
            u: vec![0.0; n],
            v: vec![0.0; m],
            queue: Vec::with_capacity(n + m),
            parent: vec![usize::MAX; n + m],
            path: Vec::with_capacity(n + m),
        }
    }

    fn add_basic(&mut self, i: usize, j: usize, f: f64) {
        self.flow[i * self.m + j] = f;
        if !self.is_basic[i * self.m + j] {
            self.is_basic[i * self.m + j] = true;
            self.basis.push((i, j));
        }
    }

    /// Vogel's approximation method: repeatedly allocate in the row or
    /// column with the largest penalty (difference between its two smallest
    /// remaining costs), shipping as much as possible into the cheapest
    /// cell. Closes exactly one of row/column per allocation except the
    /// final one, yielding a spanning-tree basis of `n + m - 1` cells.
    ///
    /// A row's two smallest open costs are read off its pre-sorted
    /// [`CostMatrix::row_order`] through two cursors, at its first and
    /// second open column. Closed columns never reopen, so the cursors
    /// only move forward and a row costs amortized O(1) per step instead
    /// of an O(m) rescan. The first open entry is the lowest-index
    /// minimum and the second holds the second-smallest value, so the
    /// cell, the penalty's bits and the strict-`>` tie order are those of
    /// a full scan. Columns are still scanned.
    fn vogel_init(&mut self, x: &[f64], y: &[f64]) {
        let (n, m) = (self.n, self.m);
        let cost = self.cost;
        let mut supply = x.to_vec();
        let mut demand = y.to_vec();
        let mut row_open = vec![true; n];
        let mut col_open = vec![true; m];
        let mut open_rows = n;
        let mut open_cols = m;
        // Per row, positions in its order of the first and second open
        // column (either may lag until the row is next evaluated).
        let mut cursors = vec![(0usize, 1usize); n];

        let col_penalty = |c: usize, row_open: &[bool]| -> (f64, usize) {
            let mut best = f64::INFINITY;
            let mut second = f64::INFINITY;
            let mut best_i = usize::MAX;
            for i in 0..n {
                if row_open[i] {
                    let v = cost.get(i, c);
                    if v < best {
                        second = best;
                        best = v;
                        best_i = i;
                    } else if v < second {
                        second = v;
                    }
                }
            }
            let pen = if second.is_finite() {
                second - best
            } else {
                0.0
            };
            (pen, best_i)
        };

        while open_rows > 0 && open_cols > 0 {
            // Find the open row or column with maximal penalty.
            let mut best_pen = -1.0;
            let mut pick: Option<(usize, usize)> = None; // (row, col) target cell
            for (r, (&open, (first, second))) in row_open.iter().zip(&mut cursors).enumerate() {
                if !open {
                    continue;
                }
                let order = cost.row_order(r);
                *first = next_open(order, *first, &col_open);
                *second = next_open(order, (*second).max(*first + 1), &col_open);
                let Some(j) = order.get(*first).map(|&j| j as usize) else {
                    continue;
                };
                // A lone open column leaves no second cost: penalty 0.
                let pen = order
                    .get(*second)
                    .map_or(0.0, |&k| cost.get(r, k as usize) - cost.get(r, j));
                if pen > best_pen {
                    best_pen = pen;
                    pick = Some((r, j));
                }
            }
            for c in 0..m {
                if col_open[c] {
                    let (pen, i) = col_penalty(c, &row_open);
                    if pen > best_pen && i != usize::MAX {
                        best_pen = pen;
                        pick = Some((i, c));
                    }
                }
            }
            let Some((i, j)) = pick else { break };

            let amount = supply[i].min(demand[j]);
            self.add_basic(i, j, amount);
            supply[i] -= amount;
            demand[j] -= amount;

            let last_allocation = open_rows == 1 && open_cols == 1;
            if last_allocation {
                row_open[i] = false;
                col_open[j] = false;
                open_rows -= 1;
                open_cols -= 1;
            } else if supply[i] <= demand[j] {
                // Close the row; the column stays open even at zero
                // remaining demand (degenerate allocations keep the basis a
                // spanning tree). Never close the final open row unless the
                // final open column closes with it.
                if open_rows > 1 || open_cols == 1 {
                    row_open[i] = false;
                    open_rows -= 1;
                } else {
                    col_open[j] = false;
                    open_cols -= 1;
                }
            } else if open_cols > 1 || open_rows == 1 {
                col_open[j] = false;
                open_cols -= 1;
            } else {
                row_open[i] = false;
                open_rows -= 1;
            }
        }
        debug_assert_eq!(self.basis.len(), n + m - 1, "basis must span the tree");
    }

    /// Indexes the basis tree by node (a counting sort of the basic cells),
    /// so the two traversals of a pivot share one adjacency structure
    /// instead of each building `n + m` neighbour lists on the heap.
    fn index_basis(&mut self) {
        let n = self.n;
        // Degrees, shifted one slot up so the running sum turns them
        // into each node's first slot.
        self.adj_start.fill(0);
        for &(i, j) in &self.basis {
            for node in [i, n + j] {
                self.adj_start[node + 1] += 1;
            }
        }
        let mut slots = 0;
        for start in &mut self.adj_start {
            slots += *start;
            *start = slots;
        }
        self.adj_fill.copy_from_slice(&self.adj_start[..n + self.m]);
        for &(i, j) in &self.basis {
            for (node, neighbour) in [(i, j), (n + j, i)] {
                self.adj[self.adj_fill[node]] = neighbour;
                self.adj_fill[node] += 1;
            }
        }
    }

    /// Computes node potentials `u` (rows) and `v` (columns) by breadth-first
    /// traversal of the indexed basis tree, anchored at `u[0] = 0`.
    fn potentials(&mut self) -> Result<(), TransportError> {
        let State {
            n,
            m,
            cost,
            adj_start,
            adj,
            u,
            v,
            queue,
            ..
        } = self;
        let (n, m) = (*n, *m);
        u.fill(f64::NAN);
        v.fill(f64::NAN);
        u[0] = 0.0;
        queue.clear();
        queue.push(0);
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            for &other in &adj[adj_start[node]..adj_start[node + 1]] {
                if node < n {
                    let (i, j) = (node, other);
                    if v[j].is_nan() {
                        v[j] = cost.get(i, j) - u[i];
                        queue.push(n + j);
                    }
                } else {
                    let (i, j) = (other, node - n);
                    if u[i].is_nan() {
                        u[i] = cost.get(i, j) - v[j];
                        queue.push(i);
                    }
                }
            }
        }
        // Every node reached was queued exactly once.
        if queue.len() != n + m {
            return Err(TransportError::Internal("basis tree is disconnected"));
        }
        Ok(())
    }

    /// Finds the unique alternating cycle that the non-basic cell
    /// `(enter_i, enter_j)` closes with the indexed basis tree. Leaves in
    /// `path` the cells of the tree path from column node `enter_j` back to
    /// row node `enter_i`; together with the entering cell they form the
    /// stepping-stone cycle.
    fn find_cycle_path(&mut self, enter_i: usize, enter_j: usize) -> Result<(), TransportError> {
        let State {
            n,
            adj_start,
            adj,
            queue,
            parent,
            path,
            ..
        } = self;
        let n = *n;
        // BFS from column node enter_j to row node enter_i over basis edges.
        let (start, goal) = (n + enter_j, enter_i);
        parent.fill(usize::MAX);
        parent[start] = start;
        queue.clear();
        queue.push(start);
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            if node == goal {
                break;
            }
            for &other in &adj[adj_start[node]..adj_start[node + 1]] {
                let next = if node < n { n + other } else { other };
                if parent[next] == usize::MAX {
                    parent[next] = node;
                    queue.push(next);
                }
            }
        }
        if parent[goal] == usize::MAX {
            return Err(TransportError::Internal("no cycle path found"));
        }
        // Tree edges join a row node to a column node, so each step back
        // names its basic cell.
        path.clear();
        let mut node = goal;
        while node != start {
            let prev = parent[node];
            path.push(if node < n {
                (node, prev - n)
            } else {
                (prev, node - n)
            });
            node = prev;
        }
        Ok(())
    }

    /// Runs MODI iterations until no reduced cost is negative.
    fn optimize(&mut self, options: SolverOptions) -> Result<usize, TransportError> {
        let (n, m) = (self.n, self.m);
        let scale = self.cost.max_cost().max(1.0);
        let tol = OPT_EPS * scale;
        // Generous default cap: transportation simplex converges in O(n·m)
        // pivots in practice; the quadratic-in-cells cap is a safety net.
        let max_pivots = options.max_pivots.unwrap_or(20 * (n * m + n + m) + 1000);
        let mut pivots = 0usize;
        loop {
            self.index_basis();
            self.potentials()?;
            // Entering cell. LargestReduction: most negative reduced cost,
            // ties broken by lowest (i, j) for determinism. Bland: first
            // cell in (i, j) order with any negative reduced cost —
            // anti-cycling at the cost of more pivots.
            let mut best = -tol;
            let mut enter: Option<(usize, usize)> = None;
            'scan: for i in 0..n {
                for j in 0..m {
                    if !self.is_basic[i * m + j] {
                        let rc = self.cost.get(i, j) - self.u[i] - self.v[j];
                        if rc < best {
                            best = rc;
                            enter = Some((i, j));
                            if options.pivot_rule == PivotRule::Bland {
                                break 'scan;
                            }
                        }
                    }
                }
            }
            let Some((ei, ej)) = enter else {
                return Ok(pivots);
            };
            if pivots >= max_pivots {
                return Err(TransportError::IterationLimit);
            }

            // The stepping-stone cycle: entering cell (+), then alternating
            // signs along the tree path from column ej back to row ei. The
            // path starts with an edge incident to column ej, which must
            // carry a minus sign (it gives up mass to the entering cell).
            self.find_cycle_path(ei, ej)?;
            let mut theta = f64::INFINITY;
            let mut leave: Option<(usize, usize)> = None;
            for (k, &(i, j)) in self.path.iter().enumerate() {
                if k % 2 == 0 {
                    // minus position
                    let f = self.flow[i * m + j];
                    if f < theta - 1e-15 || (f <= theta + 1e-15 && leave.is_none_or(|l| (i, j) < l))
                    {
                        theta = f;
                        leave = Some((i, j));
                    }
                }
            }
            let leave = leave.ok_or(TransportError::Internal("cycle without minus cell"))?;
            let theta = theta.max(0.0);

            // Apply the flow change around the cycle.
            self.flow[ei * m + ej] += theta;
            for (k, &(i, j)) in self.path.iter().enumerate() {
                if k % 2 == 0 {
                    self.flow[i * m + j] -= theta;
                } else {
                    self.flow[i * m + j] += theta;
                }
            }
            // Swap basis membership: entering in, leaving out.
            self.is_basic[ei * m + ej] = true;
            self.is_basic[leave.0 * m + leave.1] = false;
            self.flow[leave.0 * m + leave.1] = 0.0;
            let pos = self
                .basis
                .iter()
                .position(|&c| c == leave)
                .ok_or(TransportError::Internal("leaving cell not in basis"))?;
            self.basis[pos] = (ei, ej);
            pivots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cost(n: usize) -> CostMatrix {
        CostMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs())
    }

    #[test]
    fn textbook_instance() {
        // Classic 3x3: supplies [20,30,25], demands [10,35,30],
        // costs [[8,6,10],[9,12,13],[14,9,16]].
        // Balanced totals = 75.
        let cost = CostMatrix::from_vec(3, vec![8.0, 6.0, 10.0, 9.0, 12.0, 13.0, 14.0, 9.0, 16.0])
            .unwrap();
        let sol = solve_transportation(&[20.0, 30.0, 25.0], &[10.0, 35.0, 30.0], &cost).unwrap();
        // Optimum 735 verified by exhaustive enumeration of integral flow
        // matrices with these margins (and by the lp_crosscheck test).
        assert!((sol.total_cost - 735.0).abs() < 1e-9, "{}", sol.total_cost);
    }

    #[test]
    fn marginals_respected() {
        let cost = grid_cost(5);
        let x = [5.0, 0.0, 3.0, 0.0, 2.0];
        let y = [1.0, 2.0, 3.0, 4.0, 0.0];
        let sol = solve_transportation(&x, &y, &cost).unwrap();
        let mut row = [0.0; 5];
        let mut col = [0.0; 5];
        for f in &sol.flows {
            row[f.from] += f.mass;
            col[f.to] += f.mass;
        }
        for i in 0..5 {
            assert!((row[i] - x[i]).abs() < 1e-9);
            assert!((col[i] - y[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_zero_entries() {
        let cost = grid_cost(4);
        let x = [1.0, 0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0, 1.0];
        let sol = solve_transportation(&x, &y, &cost).unwrap();
        assert!((sol.total_cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_masses() {
        let cost = grid_cost(3);
        let sol = solve_transportation(&[0.0; 3], &[0.0; 3], &cost).unwrap();
        assert_eq!(sol.total_cost, 0.0);
        assert!(sol.flows.is_empty());
    }

    #[test]
    fn rejects_negative_mass() {
        let cost = grid_cost(2);
        let err = solve_transportation(&[-1.0, 2.0], &[0.5, 0.5], &cost).unwrap_err();
        assert!(matches!(err, TransportError::InvalidMass { index: 0, .. }));
    }

    #[test]
    fn single_bin() {
        let cost = grid_cost(1);
        let sol = solve_transportation(&[7.0], &[7.0], &cost).unwrap();
        assert_eq!(sol.total_cost, 0.0);
        assert_eq!(sol.flows.len(), 1);
        assert!((sol.flows[0].mass - 7.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_to_point_mass() {
        // Uniform over 4 bins to all-at-bin-0: cost = 0+1+2+3 = 6 per unit
        // quarter, i.e. total 6 * 0.25 = 1.5.
        let cost = grid_cost(4);
        let x = [0.25; 4];
        let y = [1.0, 0.0, 0.0, 0.0];
        let sol = solve_transportation(&x, &y, &cost).unwrap();
        assert!((sol.total_cost - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_matrix_gives_zero() {
        let cost = CostMatrix::from_fn(3, |_, _| 0.0);
        let sol = solve_transportation(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0], &cost).unwrap();
        assert_eq!(sol.total_cost, 0.0);
    }
}
