//! Page-backed columnar histogram blocks and the block buffer pool.
//!
//! The core crate's `HistogramDb` stores its rows in one contiguous
//! row-major f64 arena. That caps corpus size at RAM. This module splits
//! the arena into fixed-row **column blocks** persisted in the
//! CRC-checked [`PageFile`] (v2, so every page carries its own
//! checksum), and fronts them with a fixed-capacity [`BlockPool`] of
//! decoded frames:
//!
//! * [`ColumnWriter`] streams rows into a fresh column file (blocks
//!   occupy deterministic contiguous page ranges, so no page table is
//!   needed);
//! * [`ColumnStore`] reads blocks back, verifying page checksums and the
//!   row invariants (finite, non-negative, unit mass) the query stack
//!   relies on;
//! * [`BlockPool`] caches decoded blocks with LRU eviction among
//!   unpinned frames. A lease ([`BlockLease`]) pins its frame for as
//!   long as it is held; when every frame is pinned the pool serves an
//!   uncached read-through instead of failing, so a tiny pool can never
//!   deadlock a scan.
//!
//! # File layout
//!
//! Page 0 is the [`PageFile`] header. Page 1 is the column meta page:
//!
//! ```text
//! magic          : 4 bytes = "EMDC"
//! version        : u32 = 1
//! dims           : u32
//! rows           : u64
//! rows_per_block : u32
//! first_page     : u32 (always 2)
//! ```
//!
//! Block `b` occupies pages `first_page + b * pages_per_block ..` — the
//! payload is the block's rows back to back, little-endian f64, spanning
//! as many pages as needed (the final block may use fewer pages).

use crate::pagefile::{PageFile, PageId, StorageError, PAGE_SIZE};
use crate::vfs::{StdVfs, Vfs};
use earthmover_obs::{self as obs, names};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

const COLUMN_MAGIC: &[u8; 4] = b"EMDC";
const COLUMN_VERSION: u32 = 1;
/// Page index of the column meta page.
const META_PAGE: u32 = 1;
/// Page index of the first block payload page.
const FIRST_PAGE: u32 = 2;

/// Geometry of a column file: everything needed to map a row id to a
/// page range without consulting any index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Bins per histogram (the row stride).
    pub dims: usize,
    /// Total rows stored.
    pub rows: usize,
    /// Rows per full block (the final block may hold fewer).
    pub rows_per_block: usize,
}

impl ColumnMeta {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.rows.div_ceil(self.rows_per_block.max(1))
    }

    /// Rows held by block `block` (the final block may be partial).
    pub fn rows_in_block(&self, block: usize) -> usize {
        let start = block * self.rows_per_block;
        self.rows.saturating_sub(start).min(self.rows_per_block)
    }

    /// Pages a *full* block spans.
    fn pages_per_block(&self) -> usize {
        (self.rows_per_block * self.dims * 8)
            .div_ceil(PAGE_SIZE)
            .max(1)
    }

    /// First page of block `block`.
    fn first_page_of(&self, block: usize) -> u32 {
        FIRST_PAGE + (block * self.pages_per_block()) as u32
    }
}

/// Picks a rows-per-block so a full block's payload is roughly
/// `target_bytes` (at least one row).
pub fn rows_per_block_for(dims: usize, target_bytes: usize) -> usize {
    (target_bytes / (dims.max(1) * 8)).max(1)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streams validated rows into a fresh column file.
///
/// Rows are buffered until a block fills, then the block's pages are
/// written. [`ColumnWriter::finish`] flushes the partial last block,
/// writes the meta page, and syncs with the page file's crash-safe
/// ordering.
pub struct ColumnWriter {
    file: PageFile,
    meta: ColumnMeta,
    /// Rows of the block currently being filled.
    pending: Vec<f64>,
}

impl ColumnWriter {
    /// Creates a column file at `path` on the standard filesystem.
    pub fn create(
        path: impl AsRef<Path>,
        dims: usize,
        rows_per_block: usize,
    ) -> Result<Self, StorageError> {
        Self::create_with(&StdVfs, path.as_ref(), dims, rows_per_block)
    }

    /// Creates a column file through an explicit [`Vfs`] (fault
    /// injection in tests).
    pub fn create_with(
        vfs: &dyn Vfs,
        path: &Path,
        dims: usize,
        rows_per_block: usize,
    ) -> Result<Self, StorageError> {
        if dims == 0 {
            return Err(StorageError::BadHeader("zero dimensionality".into()));
        }
        let mut file = PageFile::create_with(vfs, path)?;
        // Reserve the meta page so block pages start at FIRST_PAGE.
        let meta_page = file.allocate()?;
        if meta_page.0 != META_PAGE {
            return Err(StorageError::BadHeader(
                "fresh page file did not allocate sequentially".into(),
            ));
        }
        Ok(ColumnWriter {
            file,
            meta: ColumnMeta {
                dims,
                rows: 0,
                rows_per_block: rows_per_block.max(1),
            },
            pending: Vec::new(),
        })
    }

    /// Appends whole rows (`data.len()` must be a multiple of `dims`).
    /// Rows are trusted to be mass-normalized; only the shape is checked.
    pub fn append_rows(&mut self, data: &[f64]) -> Result<(), StorageError> {
        if !data.len().is_multiple_of(self.meta.dims) {
            return Err(StorageError::BadHeader(
                "row payload is not a multiple of dims".into(),
            ));
        }
        self.pending.extend_from_slice(data);
        self.meta.rows += data.len() / self.meta.dims;
        let block_len = self.meta.rows_per_block * self.meta.dims;
        while self.pending.len() >= block_len {
            let rest = self.pending.split_off(block_len);
            let block = std::mem::replace(&mut self.pending, rest);
            self.write_block(&block)?;
        }
        Ok(())
    }

    /// Writes one block's pages (payload shorter than a full block is
    /// allowed: the final block).
    fn write_block(&mut self, block: &[f64]) -> Result<(), StorageError> {
        let mut bytes = Vec::with_capacity(block.len() * 8);
        for v in block {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for chunk in bytes.chunks(PAGE_SIZE) {
            let id = self.file.allocate()?;
            let mut page = [0u8; PAGE_SIZE];
            page.iter_mut().zip(chunk).for_each(|(p, b)| *p = *b);
            self.file.write_page(id, &page)?;
        }
        Ok(())
    }

    /// Flushes the partial last block, writes the meta page, and syncs.
    /// Returns a reader over the finished file.
    pub fn finish(mut self) -> Result<ColumnStore, StorageError> {
        if !self.pending.is_empty() {
            let block = std::mem::take(&mut self.pending);
            self.write_block(&block)?;
        }
        let mut page = [0u8; PAGE_SIZE];
        page.iter_mut()
            .zip(COLUMN_MAGIC.iter())
            .for_each(|(p, b)| *p = *b);
        put_u32(&mut page, 4, COLUMN_VERSION);
        put_u32(&mut page, 8, self.meta.dims as u32);
        put_u64(&mut page, 12, self.meta.rows as u64);
        put_u32(&mut page, 20, self.meta.rows_per_block as u32);
        put_u32(&mut page, 24, FIRST_PAGE);
        self.file.write_page(PageId(META_PAGE), &page)?;
        self.file.sync()?;
        Ok(ColumnStore {
            file: self.file,
            meta: self.meta,
        })
    }
}

fn put_u32(page: &mut [u8; PAGE_SIZE], at: usize, v: u32) {
    page.iter_mut()
        .skip(at)
        .zip(v.to_le_bytes())
        .for_each(|(p, b)| *p = b);
}

fn put_u64(page: &mut [u8; PAGE_SIZE], at: usize, v: u64) {
    page.iter_mut()
        .skip(at)
        .zip(v.to_le_bytes())
        .for_each(|(p, b)| *p = b);
}

/// Little-endian read helpers over a page; bytes past the end read as
/// zero (callers validate lengths, and the page checksum already
/// authenticated the content).
fn read_le<const N: usize>(page: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.iter_mut()
        .zip(page.iter().skip(at))
        .for_each(|(o, b)| *o = *b);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A read-only view over a finished column file: decodes whole blocks,
/// verifying page checksums (via the v2 [`PageFile`]) and the row
/// invariants the query stack assumes.
pub struct ColumnStore {
    file: PageFile,
    meta: ColumnMeta,
}

impl ColumnStore {
    /// Opens a column file on the standard filesystem.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(&StdVfs, path.as_ref())
    }

    /// Opens a column file through an explicit [`Vfs`].
    pub fn open_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, StorageError> {
        let mut file = PageFile::open_with(vfs, path)?;
        let mut page = [0u8; PAGE_SIZE];
        file.read_page(PageId(META_PAGE), &mut page)?;
        if page.get(..4) != Some(COLUMN_MAGIC.as_slice()) {
            return Err(StorageError::BadHeader("not a column file".into()));
        }
        let version = u32::from_le_bytes(read_le(&page, 4));
        if version != COLUMN_VERSION {
            return Err(StorageError::BadHeader(format!(
                "unsupported column version {version}"
            )));
        }
        let dims = u32::from_le_bytes(read_le(&page, 8)) as usize;
        let rows = u64::from_le_bytes(read_le(&page, 12)) as usize;
        let rows_per_block = u32::from_le_bytes(read_le(&page, 20)) as usize;
        let first = u32::from_le_bytes(read_le(&page, 24));
        if dims == 0 || rows_per_block == 0 || first != FIRST_PAGE {
            return Err(StorageError::BadHeader("corrupt column meta".into()));
        }
        let meta = ColumnMeta {
            dims,
            rows,
            rows_per_block,
        };
        // The last block's last page must exist — catches truncation that
        // the header page alone cannot see.
        if meta.rows > 0 {
            let last = meta.num_blocks() - 1;
            let pages = (meta.rows_in_block(last) * dims * 8).div_ceil(PAGE_SIZE) as u32;
            let end = meta.first_page_of(last) + pages;
            if end > file.num_pages() {
                return Err(StorageError::BadHeader("column file truncated".into()));
            }
        }
        Ok(ColumnStore { file, meta })
    }

    /// The file geometry.
    pub fn meta(&self) -> ColumnMeta {
        self.meta
    }

    /// Reads and decodes block `block`, validating every row.
    pub fn read_block(&mut self, block: usize) -> Result<Vec<f64>, StorageError> {
        let rows = self.meta.rows_in_block(block);
        if block >= self.meta.num_blocks() || rows == 0 {
            return Err(StorageError::PageOutOfBounds(PageId(
                self.meta.first_page_of(block),
            )));
        }
        let byte_len = rows * self.meta.dims * 8;
        let first = self.meta.first_page_of(block);
        let mut bytes = Vec::with_capacity(byte_len.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        let mut page = [0u8; PAGE_SIZE];
        for p in 0..byte_len.div_ceil(PAGE_SIZE) as u32 {
            self.file.read_page(PageId(first + p), &mut page)?;
            bytes.extend_from_slice(&page);
        }
        let mut out = Vec::with_capacity(rows * self.meta.dims);
        for chunk in bytes.chunks_exact(8).take(rows * self.meta.dims) {
            out.push(f64::from_le_bytes(read_le(chunk, 0)));
        }
        // Re-validate the histogram invariants: the CRC authenticates
        // the bytes, this authenticates the *semantics* the kernels and
        // `HistogramRef` debug-assert on.
        for row in out.chunks_exact(self.meta.dims) {
            if row.iter().any(|b| !b.is_finite() || *b < 0.0) {
                return Err(StorageError::CorruptPage {
                    page: PageId(first),
                    reason: "negative or non-finite bin in column block",
                });
            }
            let mass: f64 = row.iter().sum();
            if (mass - 1.0).abs() > 1e-6 {
                return Err(StorageError::CorruptPage {
                    page: PageId(first),
                    reason: "column block row is not mass-normalized",
                });
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Block pool
// ---------------------------------------------------------------------------

/// Access statistics of a [`BlockPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockPoolStats {
    /// Block requests served from a resident frame.
    pub hits: u64,
    /// Block requests that had to read and decode from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Reads served uncached because every frame was pinned.
    pub bypasses: u64,
}

impl BlockPoolStats {
    /// Fraction of requests served from memory (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.bypasses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A pinned, shared, immutable view of one decoded column block.
///
/// Holding a lease pins the frame: the pool never evicts a block with
/// outstanding leases, so the slice stays valid (and bit-identical to
/// the on-disk payload) for the lease's whole lifetime. Cloning is an
/// `Arc` bump.
#[derive(Debug, Clone)]
pub struct BlockLease {
    data: Arc<Vec<f64>>,
}

impl std::ops::Deref for BlockLease {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.data
    }
}

struct PoolFrame {
    block: usize,
    data: Arc<Vec<f64>>,
    /// Monotone clock of the last access, for LRU.
    last_used: u64,
}

struct PoolInner {
    store: ColumnStore,
    frames: Vec<PoolFrame>,
    /// Block index → frame index.
    map: HashMap<usize, usize>,
    capacity: usize,
    clock: u64,
    stats: BlockPoolStats,
}

/// A fixed-capacity cache of decoded column blocks with LRU eviction.
///
/// Pinning is implicit in the lease: a frame is evictable exactly when
/// no [`BlockLease`] for it is alive (its `Arc` strong count is 1).
/// When every frame is pinned, a miss is served as an uncached
/// read-through (`bypasses` in the stats) rather than an error, so
/// scans with more concurrently-pinned blocks than frames still finish.
pub struct BlockPool {
    inner: Mutex<PoolInner>,
}

impl BlockPool {
    /// Wraps a column store with at most `capacity` resident frames.
    pub fn new(store: ColumnStore, capacity: usize) -> Self {
        BlockPool {
            inner: Mutex::new(PoolInner {
                store,
                frames: Vec::new(),
                map: HashMap::new(),
                capacity: capacity.max(1),
                clock: 0,
                stats: BlockPoolStats::default(),
            }),
        }
    }

    /// The wrapped file's geometry.
    pub fn meta(&self) -> ColumnMeta {
        self.inner.lock().store.meta()
    }

    /// Frame capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Returns a pinned lease of block `block`, reading it from disk on
    /// a miss.
    pub fn lease(&self, block: usize) -> Result<BlockLease, StorageError> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(&idx) = inner.map.get(&block) {
            inner.stats.hits += 1;
            if let Some(frame) = inner.frames.get_mut(idx) {
                frame.last_used = clock;
                return Ok(BlockLease {
                    data: Arc::clone(&frame.data),
                });
            }
        }
        inner.stats.misses += 1;
        let mut span = obs::span!(names::STORE_BLOCK_LOAD, block = block);
        let data = Arc::new(inner.store.read_block(block)?);
        span.record("rows", (data.len() / inner.store.meta().dims.max(1)) as f64);
        drop(span);

        if inner.frames.len() < inner.capacity {
            let idx = inner.frames.len();
            inner.frames.push(PoolFrame {
                block,
                data: Arc::clone(&data),
                last_used: clock,
            });
            inner.map.insert(block, idx);
        } else {
            // LRU among unpinned frames (strong count 1 = only the pool
            // holds it). If everything is pinned, serve uncached.
            let victim = inner
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| Arc::strong_count(&f.data) == 1)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(idx) => {
                    if let Some(frame) = inner.frames.get_mut(idx) {
                        let old = frame.block;
                        frame.block = block;
                        frame.data = Arc::clone(&data);
                        frame.last_used = clock;
                        inner.map.remove(&old);
                        inner.map.insert(block, idx);
                        inner.stats.evictions += 1;
                    }
                }
                None => {
                    inner.stats.bypasses += 1;
                }
            }
        }
        Ok(BlockLease { data })
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> BlockPoolStats {
        self.inner.lock().stats
    }

    /// Number of blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("earthmover-column-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// `rows` mass-normalized 4-bin rows with distinct contents.
    fn rows(n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n * 4);
        for i in 0..n {
            let a = (i % 7) as f64 + 1.0;
            let total = a + 3.0;
            out.extend_from_slice(&[a / total, 1.0 / total, 1.0 / total, 1.0 / total]);
        }
        out
    }

    #[test]
    fn round_trip_across_blocks() {
        let path = tmp("roundtrip.emdc");
        let data = rows(23); // 23 rows, 5 per block -> 5 blocks, last partial
        let mut w = ColumnWriter::create(&path, 4, 5).unwrap();
        w.append_rows(&data).unwrap();
        let mut store = w.finish().unwrap();
        let meta = store.meta();
        assert_eq!(meta.rows, 23);
        assert_eq!(meta.num_blocks(), 5);
        assert_eq!(meta.rows_in_block(4), 3);
        let mut all = Vec::new();
        for b in 0..meta.num_blocks() {
            all.extend(store.read_block(b).unwrap());
        }
        assert_eq!(all, data, "decoded arena must be bit-identical");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reopen_reads_same_data() {
        let path = tmp("reopen.emdc");
        let data = rows(12);
        let mut w = ColumnWriter::create(&path, 4, 4).unwrap();
        w.append_rows(&data).unwrap();
        drop(w.finish().unwrap());
        let mut store = ColumnStore::open(&path).unwrap();
        let mut all = Vec::new();
        for b in 0..store.meta().num_blocks() {
            all.extend(store.read_block(b).unwrap());
        }
        assert_eq!(all, data);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn multi_page_blocks() {
        // 4 dims * 8 bytes = 32 bytes/row; 200 rows/block = 6400 bytes
        // = 2 pages per block.
        let path = tmp("multipage.emdc");
        let data = rows(450);
        let mut w = ColumnWriter::create(&path, 4, 200).unwrap();
        w.append_rows(&data).unwrap();
        let mut store = w.finish().unwrap();
        assert_eq!(store.meta().num_blocks(), 3);
        let mut all = Vec::new();
        for b in 0..3 {
            all.extend(store.read_block(b).unwrap());
        }
        assert_eq!(all, data);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pool_caches_and_evicts_lru() {
        let path = tmp("pool.emdc");
        let data = rows(20);
        let mut w = ColumnWriter::create(&path, 4, 5).unwrap();
        w.append_rows(&data).unwrap();
        let pool = BlockPool::new(w.finish().unwrap(), 2);
        // Touch blocks 0,1 (misses), 0 again (hit), then 2 evicts 1.
        let _a = pool.lease(0).unwrap();
        drop(pool.lease(1).unwrap());
        drop(pool.lease(0).unwrap());
        drop(pool.lease(2).unwrap());
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        // Block 0 stayed resident (it was pinned by `_a` and recently
        // used); re-touching it is a hit.
        drop(pool.lease(0).unwrap());
        assert_eq!(pool.stats().hits, 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fully_pinned_pool_bypasses_instead_of_failing() {
        let path = tmp("pinned.emdc");
        let data = rows(20);
        let mut w = ColumnWriter::create(&path, 4, 5).unwrap();
        w.append_rows(&data).unwrap();
        let pool = BlockPool::new(w.finish().unwrap(), 2);
        let _a = pool.lease(0).unwrap();
        let _b = pool.lease(1).unwrap();
        // Both frames pinned: block 2 must still be served.
        let c = pool.lease(2).unwrap();
        assert_eq!(c.len(), 5 * 4);
        assert_eq!(pool.stats().bypasses, 1);
        assert_eq!(pool.stats().evictions, 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn leases_stay_valid_across_eviction() {
        let path = tmp("lease.emdc");
        let data = rows(20);
        let mut w = ColumnWriter::create(&path, 4, 5).unwrap();
        w.append_rows(&data).unwrap();
        let pool = BlockPool::new(w.finish().unwrap(), 1);
        let a = pool.lease(0).unwrap();
        let before: Vec<f64> = a.to_vec();
        // a is pinned, so leasing other blocks bypasses; dropping and
        // re-leasing cycles the single frame.
        drop(pool.lease(1).unwrap());
        drop(pool.lease(2).unwrap());
        assert_eq!(&*a, &before[..], "pinned lease must never be clobbered");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupt_page_is_a_typed_error() {
        let vfs = FaultVfs::new();
        let path = std::path::PathBuf::from("/col/corrupt.emdc");
        let data = rows(10);
        let mut w = ColumnWriter::create_with(&vfs, &path, 4, 5).unwrap();
        w.append_rows(&data).unwrap();
        drop(w.finish().unwrap());
        // Flip one bit in the first data page's payload (page 2 starts
        // at byte 2 * (PAGE_SIZE + 8) in the v2 physical layout).
        assert!(vfs.flip_bit(&path, 2 * (PAGE_SIZE + 8) + 100, 3));
        let mut store = ColumnStore::open_with(&vfs, &path).unwrap();
        match store.read_block(0) {
            Err(StorageError::PageChecksum(_)) => {}
            other => panic!("expected PageChecksum, got {other:?}"),
        }
        // Other blocks are unaffected.
        assert!(store.read_block(1).is_ok());
    }

    #[test]
    fn open_rejects_non_column_files() {
        let path = tmp("plain.emdp");
        drop(PageFile::create(&path).unwrap());
        assert!(matches!(
            ColumnStore::open(&path),
            Err(StorageError::PageOutOfBounds(_)) | Err(StorageError::BadHeader(_))
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_denormalized_rows() {
        let path = tmp("denorm.emdc");
        let mut w = ColumnWriter::create(&path, 4, 5).unwrap();
        let bad = vec![0.5, 0.5, 0.5, 0.5]; // mass 2
        w.append_rows(&bad).unwrap();
        let mut store = w.finish().unwrap();
        assert!(matches!(
            store.read_block(0),
            Err(StorageError::CorruptPage { .. })
        ));
        std::fs::remove_file(path).unwrap();
    }
}
