//! A small paged storage engine: a checksummed page file, columnar
//! histogram blocks on top of it, and one block buffer pool.
//!
//! The paper's problem setting (§1) rests on three pillars: feature
//! extraction, a distance measure, and **storage and retrieval methods
//! for large image databases**. The first two live in `earthmover-core`;
//! this crate supplies the third, so a corpus larger than RAM can be
//! queried:
//!
//! * [`PageFile`] — a file of fixed-size pages with a checksummed
//!   header, per-page CRC trailers, page allocation and a recovery scan
//!   ([`pagefile`]), over the [`Vfs`] abstraction that lets tests inject
//!   crashes, torn writes, ENOSPC and bit rot ([`vfs`]).
//! * [`ColumnWriter`] → [`ColumnStore`] — the `.emdc` column file:
//!   histogram rows in fixed-row blocks at deterministic page ranges,
//!   re-validated (finite, non-negative, unit mass) on every read
//!   ([`column`](mod@column)).
//! * [`BlockPool`] — a fixed number of decoded block frames with LRU
//!   eviction among unpinned frames, pinned [`BlockLease`]s, and
//!   hit/miss/eviction/bypass statistics ([`column`](mod@column)).
//!
//! `earthmover-core`'s flat `.emdb` format remains the import/export
//! form; `core::storage::{save_paged, open_paged}` bridge it to this
//! crate, which is what a server runs on.
//!
//! # Example
//!
//! ```
//! use earthmover_storage::{BlockPool, ColumnStore, ColumnWriter};
//!
//! let dir = std::env::temp_dir().join("earthmover-storage-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("rows.emdc");
//! # let _ = std::fs::remove_file(&path);
//!
//! // Write three mass-normalized 2-bin rows, two rows per block.
//! let rows = [0.25, 0.75, 0.5, 0.5, 1.0, 0.0];
//! let mut writer = ColumnWriter::create(&path, 2, 2).unwrap();
//! writer.append_rows(&rows).unwrap();
//! drop(writer.finish().unwrap());
//!
//! // Read them back through a one-frame pool.
//! let pool = BlockPool::new(ColumnStore::open(&path).unwrap(), 1);
//! assert_eq!(pool.meta().num_blocks(), 2);
//! assert_eq!(&*pool.lease(0).unwrap(), &rows[..4]);
//! assert_eq!(&*pool.lease(1).unwrap(), &rows[4..]);
//! assert_eq!(pool.stats().misses, 2);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod column;
pub mod pagefile;
pub mod vfs;

pub use column::{
    rows_per_block_for, BlockLease, BlockPool, BlockPoolStats, ColumnMeta, ColumnStore,
    ColumnWriter,
};
pub use pagefile::{PageFile, PageId, RecoveryReport, StorageError, PAGE_SIZE};
pub use vfs::{FaultVfs, StdVfs, Vfs, VfsFile};
