//! Block-granular row storage behind [`crate::db::HistogramDb`].
//!
//! The database used to *be* its arena: one resident row-major
//! `Vec<f64>`. This module turns that arena into an implementation
//! detail behind the [`BlockProvider`] trait, with two providers:
//!
//! * [`ResidentBlocks`] — the classic fully-resident arena, exposed as
//!   a single block so existing whole-arena kernel scans keep their
//!   exact shape (and therefore their exact floating-point results);
//! * [`PagedBlocks`] — rows live in an on-disk column file
//!   ([`earthmover_storage::ColumnStore`]) behind a fixed-capacity
//!   [`BlockPool`]; a block access returns a pinned lease and may fail
//!   with a typed storage error (bad checksum, I/O fault) instead of
//!   panicking.
//!
//! Scans iterate blocks; point lookups go through [`RowLease`], which
//! keeps the backing block pinned for as long as the row is borrowed.
//! Bit-identical results are a contract, not an accident: a paged block
//! decodes to exactly the floats that were written, and the kernel
//! `eval_block` contract (`out[i] == eval(row i)`) makes per-block
//! evaluation equal to whole-arena evaluation row for row.

use crate::histogram::Histogram;
use earthmover_storage::{BlockLease, BlockPool, BlockPoolStats, ColumnMeta, PageId, StorageError};
use std::sync::Arc;

/// Uniform, block-granular access to the rows of a histogram database.
///
/// `block(b)` hands out rows `b * rows_per_block ..` as one contiguous
/// row-major slice; the final block may be partial. Providers are
/// *read* interfaces — ingest goes through the concrete
/// [`ResidentBlocks`].
#[allow(clippy::len_without_is_empty)] // emptiness is the db's concern
pub trait BlockProvider: Send + Sync {
    /// Bins per row (the row stride).
    fn dims(&self) -> usize;

    /// Total rows.
    fn len(&self) -> usize;

    /// Rows in every block but the last.
    fn rows_per_block(&self) -> usize;

    /// The rows of block `block`, pinned for the borrow's lifetime.
    fn block(&self, block: usize) -> Result<BlockData<'_>, StorageError>;

    /// Number of blocks (zero for an empty database).
    fn num_blocks(&self) -> usize {
        self.len().div_ceil(self.rows_per_block().max(1))
    }

    /// Rows held by block `block` (the final block may be partial).
    fn rows_in_block(&self, block: usize) -> usize {
        let start = block * self.rows_per_block();
        self.len().saturating_sub(start).min(self.rows_per_block())
    }
}

/// One block's rows: either a borrow of the resident arena or a pinned
/// buffer-pool lease. Derefs to the row-major `[f64]` payload.
#[derive(Debug)]
pub enum BlockData<'a> {
    /// A window of the fully-resident arena.
    Resident(&'a [f64]),
    /// A pinned lease of a decoded column block.
    Pooled(BlockLease),
}

impl std::ops::Deref for BlockData<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            BlockData::Resident(s) => s,
            BlockData::Pooled(l) => l,
        }
    }
}

/// The fully-resident provider: one arena, one block.
///
/// `rows_per_block == len`, so block-driven scans collapse to a single
/// `eval_block` call over the whole arena — the exact code path (and
/// float-operation order) of the pre-paging executor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResidentBlocks {
    dims: usize,
    data: Vec<f64>,
}

impl ResidentBlocks {
    /// An empty resident arena for rows of `dims` bins.
    pub fn new(dims: usize) -> Self {
        ResidentBlocks {
            dims,
            data: Vec::new(),
        }
    }

    /// Adopts an already-validated row-major arena.
    pub(crate) fn from_arena(dims: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len() % dims.max(1), 0);
        ResidentBlocks { dims, data }
    }

    /// The whole arena.
    pub fn arena(&self) -> &[f64] {
        &self.data
    }

    /// Appends already-normalized bins (ingest path of the database).
    pub(crate) fn extend(&mut self, bins: &[f64]) {
        debug_assert_eq!(bins.len(), self.dims);
        self.data.extend_from_slice(bins);
    }
}

impl BlockProvider for ResidentBlocks {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    fn rows_per_block(&self) -> usize {
        self.len()
    }

    fn block(&self, block: usize) -> Result<BlockData<'_>, StorageError> {
        if block > 0 || self.data.is_empty() {
            return Err(StorageError::PageOutOfBounds(PageId(block as u32)));
        }
        Ok(BlockData::Resident(&self.data))
    }
}

/// The paged provider: rows live in a column file behind a shared
/// [`BlockPool`]. Cloning shares the pool (and so the cache state).
#[derive(Clone)]
pub struct PagedBlocks {
    pool: Arc<BlockPool>,
    meta: ColumnMeta,
}

impl std::fmt::Debug for PagedBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedBlocks")
            .field("dims", &self.meta.dims)
            .field("rows", &self.meta.rows)
            .field("rows_per_block", &self.meta.rows_per_block)
            .field("pool_capacity", &self.pool.capacity())
            .finish()
    }
}

impl PagedBlocks {
    /// Wraps a block pool (which owns the opened column store).
    pub fn new(pool: BlockPool) -> Self {
        let meta = pool.meta();
        PagedBlocks {
            pool: Arc::new(pool),
            meta,
        }
    }

    /// The underlying pool's access counters.
    pub fn pool_stats(&self) -> BlockPoolStats {
        self.pool.stats()
    }

    /// Blocks currently resident in the pool.
    pub fn resident_blocks(&self) -> usize {
        self.pool.resident_blocks()
    }

    /// Pool frame capacity in blocks.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// True when both handles share one pool (the provider identity).
    pub fn same_pool(&self, other: &PagedBlocks) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }
}

impl BlockProvider for PagedBlocks {
    fn dims(&self) -> usize {
        self.meta.dims
    }

    fn len(&self) -> usize {
        self.meta.rows
    }

    fn rows_per_block(&self) -> usize {
        self.meta.rows_per_block
    }

    fn block(&self, block: usize) -> Result<BlockData<'_>, StorageError> {
        Ok(BlockData::Pooled(self.pool.lease(block)?))
    }
}

/// A borrowed row that keeps its backing storage alive: either a direct
/// window of the resident arena, or a pinned block lease plus offset.
///
/// This is the paged replacement for handing out raw arena slices — the
/// lease pins the block in the pool, so the bins cannot be evicted (or
/// mutated) while borrowed.
#[derive(Debug)]
pub enum RowLease<'a> {
    /// A window of the resident arena.
    Resident(&'a [f64]),
    /// A pinned block plus the row's offset within it.
    Paged {
        /// The pinned block holding the row.
        block: BlockLease,
        /// Offset of the row's first bin within the block payload.
        start: usize,
        /// Bins per row.
        dims: usize,
    },
}

impl RowLease<'_> {
    /// The row's bins.
    pub fn bins(&self) -> &[f64] {
        match self {
            RowLease::Resident(s) => s,
            RowLease::Paged { block, start, dims } => {
                // In-bounds by construction (the database validated the
                // row id against the block geometry).
                block.get(*start..*start + *dims).unwrap_or(&[])
            }
        }
    }

    /// Materializes an owned [`Histogram`] with a single copy, borrowing
    /// through the lease — no intermediate `HistogramRef`-then-clone
    /// round trip.
    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_normalized_slice(self.bins())
    }
}

impl From<RowLease<'_>> for Histogram {
    fn from(r: RowLease<'_>) -> Histogram {
        r.to_histogram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_is_one_block() {
        let mut r = ResidentBlocks::new(2);
        r.extend(&[0.5, 0.5]);
        r.extend(&[0.25, 0.75]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.num_blocks(), 1);
        assert_eq!(r.rows_in_block(0), 2);
        let b = r.block(0).unwrap();
        assert_eq!(&*b, &[0.5, 0.5, 0.25, 0.75]);
        assert!(r.block(1).is_err());
    }

    #[test]
    fn empty_resident_has_no_blocks() {
        let r = ResidentBlocks::new(4);
        assert_eq!(r.num_blocks(), 0);
        assert!(r.block(0).is_err());
    }

    #[test]
    fn row_lease_materializes_once() {
        let lease = RowLease::Resident(&[0.25, 0.75]);
        let h = lease.to_histogram();
        assert_eq!(h.bins(), &[0.25, 0.75]);
        assert_eq!(h.mass(), 1.0);
    }
}
