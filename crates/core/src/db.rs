//! The histogram database: the collection multistep queries run against.
//!
//! Storage is columnar and block-granular. The default backing is the
//! classic fully-resident arena — one contiguous `Vec<f64>` with stride
//! `dims` exposed as a single block — but a database can also be
//! *paged*: rows live in an on-disk column file behind a fixed-capacity
//! buffer pool (see [`crate::provider`] and [`crate::storage`]'s
//! `open_paged`), and scans stream pinned block leases instead of
//! borrowing one big slice. Rows are handed out as cheap
//! [`HistogramRef`] borrowed views on
//! the resident path and as pinning [`RowLease`]s on the fallible path;
//! block-oriented distance kernels (see
//! [`crate::lower_bounds::DistanceKernel`]) consume whole blocks via
//! [`HistogramDb::block`].

use crate::cache::FilterCache;
use crate::error::PipelineError;
use crate::histogram::{Histogram, HistogramError, HistogramRef};
use crate::provider::{BlockData, BlockProvider, PagedBlocks, ResidentBlocks, RowLease};
use earthmover_storage::BlockPoolStats;

/// A collection of equal-arity, mass-normalized histograms.
///
/// Object ids are positions (`0..len`). Every histogram is normalized to
/// total mass 1 on ingest, which is both the paper's setting (equal-mass
/// histograms, §2) and what makes a single filter weight vector valid for
/// the whole database. Rows resolve through a [`BlockProvider`]: either
/// the fully-resident arena (the default) or a paged column store with a
/// bounded buffer pool for corpora larger than RAM.
#[derive(Debug, Clone)]
pub struct HistogramDb {
    dims: usize,
    backing: Backing,
    /// Memoized filter distance columns; invalidated on ingest.
    cache: FilterCache,
}

/// The two storage backings. An enum rather than a boxed trait object so
/// the resident fast paths stay monomorphic (and `Clone`/`PartialEq`
/// stay cheap to state).
#[derive(Debug, Clone)]
enum Backing {
    Resident(ResidentBlocks),
    Paged(PagedBlocks),
}

impl Backing {
    fn provider(&self) -> &dyn BlockProvider {
        match self {
            Backing::Resident(r) => r,
            Backing::Paged(p) => p,
        }
    }
}

/// Resident databases compare by contents; paged databases compare by
/// identity (same pool), since comparing would mean reading both files
/// end to end. A resident and a paged database never compare equal.
impl PartialEq for HistogramDb {
    fn eq(&self, other: &Self) -> bool {
        match (&self.backing, &other.backing) {
            (Backing::Resident(a), Backing::Resident(b)) => self.dims == other.dims && a == b,
            (Backing::Paged(a), Backing::Paged(b)) => a.same_pool(b),
            _ => false,
        }
    }
}

impl HistogramDb {
    /// Creates an empty (resident) database for histograms of `dims` bins.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "histogram dimensionality must be positive");
        HistogramDb {
            dims,
            backing: Backing::Resident(ResidentBlocks::new(dims)),
            cache: FilterCache::new(),
        }
    }

    /// Number of bins per histogram (the row stride).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored histograms.
    pub fn len(&self) -> usize {
        self.backing.provider().len()
    }

    /// True when no histograms are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when rows live in a paged column store rather than a
    /// resident arena.
    pub fn is_paged(&self) -> bool {
        matches!(self.backing, Backing::Paged(_))
    }

    /// Appends a histogram (normalizing it to mass 1) and returns its id.
    ///
    /// Fails with [`HistogramError::ArityMismatch`] when the histogram's
    /// arity differs from the database's, with
    /// [`HistogramError::ZeroMass`] for an all-zero histogram, which
    /// cannot be normalized, and with [`HistogramError::ReadOnly`] for a
    /// paged database (the column file is immutable once written).
    /// Ingest invalidates the filter-distance cache.
    pub fn try_push(&mut self, h: Histogram) -> Result<usize, HistogramError> {
        if h.len() != self.dims {
            return Err(HistogramError::ArityMismatch {
                expected: self.dims,
                got: h.len(),
            });
        }
        let h = h.into_normalized()?;
        match &mut self.backing {
            Backing::Resident(r) => r.extend(h.bins()),
            Backing::Paged(_) => return Err(HistogramError::ReadOnly),
        }
        self.cache.invalidate();
        Ok(self.len() - 1)
    }

    /// [`HistogramDb::try_push`] that panics on arity mismatch, an
    /// all-zero histogram, or a paged database — convenient for generated
    /// workloads that guarantee well-formed resident input.
    #[expect(clippy::expect_used, reason = "documented panicking convenience")]
    pub fn push(&mut self, h: Histogram) -> usize {
        self.try_push(h)
            .expect("histogram must match the database arity and have positive mass")
    }

    /// Adopts a whole row-major arena of already-normalized rows. Used by
    /// [`crate::storage`] after per-row validation; avoids one
    /// `Histogram` allocation per record on the load path.
    pub(crate) fn from_normalized_arena_unchecked(dims: usize, data: Vec<f64>) -> Self {
        assert!(dims > 0, "histogram dimensionality must be positive");
        debug_assert_eq!(
            data.len() % dims,
            0,
            "arena length must be a multiple of dims"
        );
        HistogramDb {
            dims,
            backing: Backing::Resident(ResidentBlocks::from_arena(dims, data)),
            cache: FilterCache::new(),
        }
    }

    /// Wraps a paged provider (see [`crate::storage::open_paged`]).
    pub(crate) fn from_paged(paged: PagedBlocks) -> Self {
        assert!(
            paged.dims() > 0,
            "histogram dimensionality must be positive"
        );
        HistogramDb {
            dims: paged.dims(),
            backing: Backing::Paged(paged),
            cache: FilterCache::new(),
        }
    }

    /// A borrowed view of the histogram with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id >= self.len()`, and on a paged database (whose
    /// row reads can fail) — fallible callers use
    /// [`HistogramDb::try_row`].
    #[expect(clippy::panic, reason = "documented panicking convenience")]
    pub fn get(&self, id: usize) -> HistogramRef<'_> {
        match &self.backing {
            Backing::Resident(r) => {
                let start = id * self.dims;
                HistogramRef::new(&r.arena()[start..start + self.dims])
            }
            Backing::Paged(_) => panic!("HistogramDb::get on a paged database; use try_row"),
        }
    }

    /// A row view that keeps its backing block pinned, with typed errors
    /// for out-of-range ids and failed block reads (paged databases).
    pub fn try_row(&self, id: usize) -> Result<RowLease<'_>, PipelineError> {
        if id >= self.len() {
            return Err(PipelineError::Source {
                stage: "paged_store".into(),
                reason: format!("row {id} out of bounds (len {})", self.len()),
            });
        }
        match &self.backing {
            Backing::Resident(r) => {
                let start = id * self.dims;
                r.arena()
                    .get(start..start + self.dims)
                    .map(RowLease::Resident)
                    .ok_or_else(|| PipelineError::Source {
                        stage: "paged_store".into(),
                        reason: format!("row {id} outside the resident arena"),
                    })
            }
            Backing::Paged(p) => {
                let rpb = p.rows_per_block().max(1);
                let block = p.block(id / rpb).map_err(|e| PipelineError::Source {
                    stage: "paged_store".into(),
                    reason: e.to_string(),
                })?;
                let lease = match block {
                    BlockData::Pooled(l) => l,
                    // Unreachable: a paged provider only hands out leases.
                    BlockData::Resident(s) => {
                        return Ok(RowLease::Resident(
                            s.get((id % rpb) * self.dims..(id % rpb + 1) * self.dims)
                                .unwrap_or(&[]),
                        ))
                    }
                };
                Ok(RowLease::Paged {
                    block: lease,
                    start: (id % rpb) * self.dims,
                    dims: self.dims,
                })
            }
        }
    }

    /// Iterates `(id, row view)` pairs in id order.
    ///
    /// # Panics
    ///
    /// Panics on a paged database — streaming callers walk
    /// [`HistogramDb::block`] ranges instead.
    #[expect(clippy::expect_used, reason = "documented panicking convenience")]
    pub fn iter(&self) -> impl Iterator<Item = (usize, HistogramRef<'_>)> {
        self.resident_arena()
            .expect("HistogramDb::iter on a paged database; stream blocks instead")
            .chunks_exact(self.dims)
            .map(HistogramRef::new)
            .enumerate()
    }

    /// The raw columnar arena: all bins row-major with stride
    /// [`HistogramDb::dims`]. This is the input
    /// [`crate::lower_bounds::DistanceKernel::eval_block`] consumes.
    ///
    /// # Panics
    ///
    /// Panics on a paged database, whose rows are not resident as one
    /// slice — use [`HistogramDb::resident_arena`] or
    /// [`HistogramDb::block`].
    #[expect(clippy::expect_used, reason = "documented panicking convenience")]
    pub fn arena(&self) -> &[f64] {
        self.resident_arena()
            .expect("HistogramDb::arena on a paged database; stream blocks instead")
    }

    /// The resident arena, or `None` for a paged database.
    pub fn resident_arena(&self) -> Option<&[f64]> {
        match &self.backing {
            Backing::Resident(r) => Some(r.arena()),
            Backing::Paged(_) => None,
        }
    }

    /// The rows of block `block` as one row-major slice (resident: the
    /// whole arena is block 0; paged: a pinned buffer-pool lease).
    pub fn block(&self, block: usize) -> Result<BlockData<'_>, PipelineError> {
        self.backing
            .provider()
            .block(block)
            .map_err(|e| PipelineError::Source {
                stage: "paged_store".into(),
                reason: e.to_string(),
            })
    }

    /// Number of blocks (resident databases have exactly one unless
    /// empty).
    pub fn num_blocks(&self) -> usize {
        self.backing.provider().num_blocks()
    }

    /// Rows in every block but the last.
    pub fn rows_per_block(&self) -> usize {
        self.backing.provider().rows_per_block()
    }

    /// Rows held by block `block`.
    pub fn rows_in_block(&self, block: usize) -> usize {
        self.backing.provider().rows_in_block(block)
    }

    /// Buffer-pool counters, or `None` for a resident database.
    pub fn pool_stats(&self) -> Option<BlockPoolStats> {
        match &self.backing {
            Backing::Resident(_) => None,
            Backing::Paged(p) => Some(p.pool_stats()),
        }
    }

    /// Blocks currently resident in the buffer pool (resident databases
    /// report their single block).
    pub fn resident_block_count(&self) -> usize {
        match &self.backing {
            Backing::Resident(_) => self.num_blocks(),
            Backing::Paged(p) => p.resident_blocks(),
        }
    }

    /// Buffer-pool frame capacity in blocks (resident: `num_blocks`).
    pub fn pool_capacity(&self) -> usize {
        match &self.backing {
            Backing::Resident(_) => self.num_blocks(),
            Backing::Paged(p) => p.pool_capacity(),
        }
    }

    /// The filter-distance cache fronting this database.
    pub fn filter_cache(&self) -> &FilterCache {
        &self.cache
    }

    /// Per-bin variance across the database — the signal used to pick the
    /// three most discriminative dimensions for the reduced Manhattan
    /// index filter (§4.7).
    ///
    /// Streams blocks; on a paged database an unreadable block is
    /// skipped (variance only *selects* index dimensions — any choice
    /// keeps the reduced filter admissible, so degrading the heuristic
    /// is safe where failing the build would not be).
    pub fn bin_variances(&self) -> Vec<f64> {
        let mut mean = vec![0.0; self.dims];
        let mut counted = 0usize;
        for b in 0..self.num_blocks() {
            if let Ok(data) = self.block(b) {
                for row in data.chunks_exact(self.dims) {
                    for (m, v) in mean.iter_mut().zip(row) {
                        *m += v;
                    }
                    counted += 1;
                }
            }
        }
        if counted == 0 {
            return vec![0.0; self.dims];
        }
        for m in &mut mean {
            *m /= counted as f64;
        }
        let mut var = vec![0.0; self.dims];
        for b in 0..self.num_blocks() {
            if let Ok(data) = self.block(b) {
                for row in data.chunks_exact(self.dims) {
                    for ((v, m), x) in var.iter_mut().zip(&mean).zip(row) {
                        let d = x - m;
                        *v += d * d;
                    }
                }
            }
        }
        for v in &mut var {
            *v /= counted as f64;
        }
        var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_normalizes() {
        let mut db = HistogramDb::new(2);
        let id = db.push(Histogram::new(vec![2.0, 2.0]).unwrap());
        assert_eq!(id, 0);
        let h = db.get(0).to_histogram();
        assert!((h.mass() - 1.0).abs() < 1e-12);
        assert!((h.get(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_mass_rejected() {
        let mut db = HistogramDb::new(2);
        assert_eq!(
            db.try_push(Histogram::new(vec![0.0, 0.0]).unwrap()),
            Err(HistogramError::ZeroMass)
        );
        assert!(db.is_empty());
    }

    #[test]
    fn arity_mismatch_is_typed() {
        let mut db = HistogramDb::new(3);
        assert_eq!(
            db.try_push(Histogram::new(vec![1.0]).unwrap()),
            Err(HistogramError::ArityMismatch {
                expected: 3,
                got: 1
            })
        );
        assert!(db.is_empty());
    }

    #[test]
    fn arena_is_row_major() {
        let mut db = HistogramDb::new(2);
        db.push(Histogram::new(vec![1.0, 3.0]).unwrap());
        db.push(Histogram::new(vec![2.0, 2.0]).unwrap());
        assert_eq!(db.arena(), &[0.25, 0.75, 0.5, 0.5]);
        assert_eq!(db.get(1).bins(), &[0.5, 0.5]);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn resident_db_is_one_block() {
        let mut db = HistogramDb::new(2);
        assert_eq!(db.num_blocks(), 0);
        db.push(Histogram::new(vec![1.0, 3.0]).unwrap());
        db.push(Histogram::new(vec![2.0, 2.0]).unwrap());
        assert_eq!(db.num_blocks(), 1);
        assert_eq!(db.rows_per_block(), 2);
        assert_eq!(&*db.block(0).unwrap(), db.arena());
        assert!(!db.is_paged());
        assert!(db.pool_stats().is_none());
    }

    #[test]
    fn try_row_matches_get_and_rejects_out_of_bounds() {
        let mut db = HistogramDb::new(2);
        db.push(Histogram::new(vec![1.0, 3.0]).unwrap());
        let row = db.try_row(0).unwrap();
        assert_eq!(row.bins(), db.get(0).bins());
        assert!(matches!(db.try_row(1), Err(PipelineError::Source { .. })));
    }

    #[test]
    fn ingest_invalidates_filter_cache() {
        use crate::cache::CacheKey;
        use std::sync::Arc;
        let mut db = HistogramDb::new(2);
        db.push(Histogram::new(vec![1.0, 3.0]).unwrap());
        let key = CacheKey {
            filter: "LB_Test",
            params: 1,
            query: 2,
            rows: db.len(),
        };
        db.filter_cache().insert(key.clone(), Arc::new(vec![0.5]));
        assert!(db.filter_cache().get(&key).is_some());
        db.push(Histogram::new(vec![2.0, 2.0]).unwrap());
        assert!(db.filter_cache().get(&key).is_none());
    }

    #[test]
    fn variances_identify_spread_dimensions() {
        let mut db = HistogramDb::new(3);
        // Bin 0 varies wildly, bin 2 is constant.
        db.push(Histogram::new(vec![1.0, 0.0, 1.0]).unwrap());
        db.push(Histogram::new(vec![0.0, 1.0, 1.0]).unwrap());
        db.push(Histogram::new(vec![1.0, 0.0, 1.0]).unwrap());
        db.push(Histogram::new(vec![0.0, 1.0, 1.0]).unwrap());
        let v = db.bin_variances();
        assert!(v[0] > v[2]);
        assert!(v[1] > v[2]);
    }

    #[test]
    fn variance_of_empty_db_is_zero() {
        let db = HistogramDb::new(4);
        assert_eq!(db.bin_variances(), vec![0.0; 4]);
    }

    #[test]
    fn iteration_order_is_id_order() {
        let mut db = HistogramDb::new(1);
        db.push(Histogram::new(vec![1.0]).unwrap());
        db.push(Histogram::new(vec![2.0]).unwrap());
        let ids: Vec<usize> = db.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
