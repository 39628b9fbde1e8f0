//! Columnar sketch arena with a prepared block-scan kernel.
//!
//! Projected sketch vectors are laid out row-major in one contiguous
//! `Vec<f64>` (stride = sketch dimension), exactly like the histogram
//! database's columnar arena, and scanned in fixed-size row tiles
//! through [`PreparedSketchQuery::eval_block`] — the same shape as the
//! exact engine's prepared `DistanceKernel` tile path, so a sketch scan
//! is one cache-friendly streaming pass with no per-row dispatch.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{Sketch, SketchError};

/// Rows per block-kernel tile, matching the exact engine's block scan.
pub const TILE: usize = 16;

/// A streaming-insert columnar index over one sketch family.
#[derive(Debug, Clone)]
pub struct SketchIndex<S: Sketch> {
    sketch: S,
    dim: usize,
    rows: usize,
    arena: Vec<f64>,
}

/// Max-heap entry for top-k selection: ordered by distance, ties broken
/// toward the *larger* id so the k nearest with smallest ids win
/// deterministically.
struct HeapEntry {
    dist: f64,
    id: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

impl<S: Sketch> SketchIndex<S> {
    /// An empty index over `sketch`.
    pub fn new(sketch: S) -> Self {
        let dim = sketch.dim();
        SketchIndex {
            sketch,
            dim,
            rows: 0,
            arena: Vec::new(),
        }
    }

    /// Rehydrates an index from a persisted arena (sidecar load path).
    pub fn from_parts(sketch: S, arena: Vec<f64>, rows: usize) -> Result<Self, SketchError> {
        let dim = sketch.dim();
        if arena.len() != rows * dim {
            return Err(SketchError::ArenaShape {
                expected: rows * dim,
                got: arena.len(),
            });
        }
        Ok(SketchIndex {
            sketch,
            dim,
            rows,
            arena,
        })
    }

    /// Projects one histogram and appends its sketch row; returns the
    /// row id. Streaming: cost is one projection, no rebuild.
    pub fn push(&mut self, bins: &[f64]) -> Result<usize, SketchError> {
        let start = self.arena.len();
        self.arena.resize(start + self.dim, 0.0);
        // Split so the projection writes straight into the arena tail.
        let (_, out) = self.arena.split_at_mut(start);
        if let Err(e) = self.sketch.project(bins, out) {
            self.arena.truncate(start);
            return Err(e);
        }
        let id = self.rows;
        self.rows += 1;
        Ok(id)
    }

    /// Number of sketch rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sketch-vector length (arena stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying sketch family.
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// The raw columnar arena, row-major with stride [`SketchIndex::dim`].
    pub fn arena(&self) -> &[f64] {
        &self.arena
    }

    /// One sketch row.
    pub fn row(&self, id: usize) -> &[f64] {
        &self.arena[id * self.dim..(id + 1) * self.dim]
    }

    /// Projects a query histogram into a reusable prepared kernel.
    pub fn prepare(&self, query_bins: &[f64]) -> Result<PreparedSketchQuery<'_, S>, SketchError> {
        let mut embedding = vec![0.0; self.dim];
        self.sketch.project(query_bins, &mut embedding)?;
        Ok(PreparedSketchQuery {
            index: self,
            embedding,
        })
    }

    /// k nearest rows to `query_bins` under the sketch distance, sorted
    /// ascending by `(distance, id)`. One tiled pass over the arena.
    pub fn knn(&self, query_bins: &[f64], k: usize) -> Result<Vec<(usize, f64)>, SketchError> {
        let prepared = self.prepare(query_bins)?;
        // No answer holds more rows than the index: `k` arrives off the
        // wire unchecked and sizes the heap.
        let k = k.min(self.rows());
        let mut best: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        let mut dists = [0.0f64; TILE];
        if k > 0 {
            for (tile_idx, block) in self.arena.chunks(self.dim * TILE).enumerate() {
                let rows_here = block.len() / self.dim;
                prepared.eval_block(block, self.dim, &mut dists[..rows_here]);
                let base = tile_idx * TILE;
                for (offset, &dist) in dists[..rows_here].iter().enumerate() {
                    let entry = HeapEntry {
                        dist,
                        id: base + offset,
                    };
                    if best.len() < k {
                        best.push(entry);
                    } else if best
                        .peek()
                        .is_some_and(|top| entry.cmp(top) == Ordering::Less)
                    {
                        best.pop();
                        best.push(entry);
                    }
                }
            }
        }
        let mut items: Vec<(usize, f64)> = best.into_iter().map(|e| (e.id, e.dist)).collect();
        items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(items)
    }
}

/// A query histogram projected once, ready to score arena rows.
#[derive(Debug)]
pub struct PreparedSketchQuery<'a, S: Sketch> {
    index: &'a SketchIndex<S>,
    embedding: Vec<f64>,
}

impl<S: Sketch> PreparedSketchQuery<'_, S> {
    /// The projected query vector.
    pub fn embedding(&self) -> &[f64] {
        &self.embedding
    }

    /// Distance from the query to one sketch row.
    pub fn eval(&self, row: &[f64]) -> f64 {
        self.index.sketch.distance(&self.embedding, row)
    }

    /// Scores a block of rows (row-major, stride `stride`) into `out`,
    /// one distance per row — the tile kernel the scan loop drives.
    pub fn eval_block(&self, block: &[f64], stride: usize, out: &mut [f64]) {
        for (slot, row) in out.iter_mut().zip(block.chunks(stride)) {
            *slot = self.eval(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeEmbedding;

    fn centroids() -> Vec<Vec<f64>> {
        (0..8)
            .map(|b| {
                vec![
                    ((b >> 2) & 1) as f64 * 0.5 + 0.25,
                    ((b >> 1) & 1) as f64 * 0.5 + 0.25,
                    (b & 1) as f64 * 0.5 + 0.25,
                ]
            })
            .collect()
    }

    fn one_hot(bin: usize) -> Vec<f64> {
        let mut v = vec![0.0; 8];
        v[bin] = 1.0;
        v
    }

    fn index_with_rows() -> SketchIndex<TreeEmbedding> {
        let mut idx = SketchIndex::new(TreeEmbedding::new(&centroids(), 5).unwrap());
        for b in 0..8 {
            assert_eq!(idx.push(&one_hot(b)).unwrap(), b);
        }
        idx
    }

    #[test]
    fn knn_finds_the_identical_row_first() {
        let idx = index_with_rows();
        assert_eq!(idx.rows(), 8);
        for b in 0..8 {
            let items = idx.knn(&one_hot(b), 3).unwrap();
            assert_eq!(items.len(), 3);
            assert_eq!(items[0].0, b, "query {b}");
            assert_eq!(items[0].1, 0.0);
        }
    }

    #[test]
    fn knn_is_sorted_and_deterministic_on_ties() {
        let mut idx = SketchIndex::new(TreeEmbedding::new(&centroids(), 5).unwrap());
        // Duplicate rows -> exact ties; smaller ids must win.
        for _ in 0..4 {
            idx.push(&one_hot(0)).unwrap();
        }
        let items = idx.knn(&one_hot(0), 2).unwrap();
        assert_eq!(items, vec![(0, 0.0), (1, 0.0)]);
    }

    #[test]
    fn knn_spanning_multiple_tiles() {
        let mut idx = SketchIndex::new(TreeEmbedding::new(&centroids(), 5).unwrap());
        for i in 0..(TILE * 3 + 5) {
            idx.push(&one_hot(i % 8)).unwrap();
        }
        let items = idx.knn(&one_hot(2), 5).unwrap();
        assert_eq!(items.len(), 5);
        // All exact matches of bin 2 come first, ascending by id.
        assert_eq!(items[0].1, 0.0);
        assert!(items.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn eval_block_matches_eval() {
        let idx = index_with_rows();
        let prepared = idx.prepare(&one_hot(3)).unwrap();
        let mut out = vec![0.0; idx.rows()];
        prepared.eval_block(idx.arena(), idx.dim(), &mut out);
        for (id, &d) in out.iter().enumerate() {
            assert_eq!(d, prepared.eval(idx.row(id)));
        }
    }

    #[test]
    fn push_rejects_bad_arity_without_corrupting_the_arena() {
        let mut idx = index_with_rows();
        let before = idx.arena().len();
        assert!(idx.push(&[1.0, 0.0]).is_err());
        assert_eq!(idx.arena().len(), before);
        assert_eq!(idx.rows(), 8);
    }

    #[test]
    fn from_parts_validates_shape() {
        let idx = index_with_rows();
        let sketch = idx.sketch().clone();
        let rebuilt =
            SketchIndex::from_parts(sketch.clone(), idx.arena().to_vec(), idx.rows()).unwrap();
        assert_eq!(rebuilt.row(3), idx.row(3));
        let err = SketchIndex::from_parts(sketch, vec![0.0; 7], 2).unwrap_err();
        assert!(matches!(err, SketchError::ArenaShape { .. }));
    }

    #[test]
    fn zero_k_returns_empty() {
        let idx = index_with_rows();
        assert!(idx.knn(&one_hot(0), 0).unwrap().is_empty());
    }
}
