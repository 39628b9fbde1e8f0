//! Crash-consistency tests: random column-file workloads against the
//! fault-injecting VFS, with simulated power loss at arbitrary points.
//!
//! The contract under test (see DESIGN.md, "Failure model and recovery"):
//! a column file is written once — [`ColumnWriter::append_rows`]… then
//! [`ColumnWriter::finish`], which syncs with the page file's crash-safe
//! ordering. After a crash, reopening either reads back exactly the rows
//! that were written, bit for bit, or — when the writer never finished,
//! or unsynced writes partially persisted and tore pages — reports a
//! *typed* [`StorageError`]. The store never panics and never returns a
//! row that was not written.

use earthmover_storage::vfs::FaultVfs;
use earthmover_storage::{ColumnStore, ColumnWriter, PageId, StorageError, PAGE_SIZE};
use proptest::prelude::*;
use std::path::Path;

const DIMS: usize = 4;
const PATH: &str = "crash.emdc";

/// `n` distinct mass-normalized rows; `seed` varies the content so two
/// workloads never share bytes by accident.
fn rows(n: usize, seed: u8) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * DIMS);
    for i in 0..n {
        let a = ((i + seed as usize) % 251) as f64 + 1.0;
        let total = a + 3.0;
        out.extend_from_slice(&[a / total, 1.0 / total, 1.0 / total, 1.0 / total]);
    }
    out
}

/// Appends `batches` (row counts) to a fresh column file on `vfs` and
/// returns the writer, still unfinished, with every row handed to it.
fn write_batches(
    vfs: &FaultVfs,
    batches: &[usize],
    rows_per_block: usize,
    seed: u8,
) -> (ColumnWriter, Vec<f64>) {
    let mut writer =
        ColumnWriter::create_with(vfs, Path::new(PATH), DIMS, rows_per_block).expect("create");
    let mut written = Vec::new();
    for (i, n) in batches.iter().enumerate() {
        let batch = rows(*n, seed.wrapping_add(i as u8));
        writer.append_rows(&batch).expect("append");
        written.extend_from_slice(&batch);
    }
    (writer, written)
}

/// Reopens the column file after a crash and decodes every block. Any
/// typed error is an acceptable outcome; a panic is not (it would abort
/// the test process).
fn reopen_and_read(vfs: &FaultVfs) -> Result<Vec<f64>, StorageError> {
    let mut store = ColumnStore::open_with(vfs, Path::new(PATH))?;
    let mut all = Vec::new();
    for b in 0..store.meta().num_blocks() {
        all.extend(store.read_block(b)?);
    }
    Ok(all)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A clean crash after `finish()` returned (nothing unsynced
    /// persists) must read back exactly the rows written, bit-identical.
    #[test]
    fn clean_crash_after_finish_reads_back_every_row(
        batches in prop::collection::vec(1usize..300, 1..8),
        rows_per_block in 1usize..400,
        seed in any::<u8>(),
    ) {
        let vfs = FaultVfs::new();
        let (writer, written) = write_batches(&vfs, &batches, rows_per_block, seed);
        drop(writer.finish().expect("finish"));
        vfs.crash();
        let read = reopen_and_read(&vfs).expect("a finished file must reopen cleanly");
        prop_assert_eq!(bits(&read), bits(&written));
    }

    /// A crash before `finish()` that persists an arbitrary prefix of
    /// the unsynced writes — tearing the next one at a sector boundary —
    /// must either yield a typed error or exactly the written rows.
    /// Never a panic, never a row that was not written.
    #[test]
    fn crash_before_finish_is_typed_error_or_the_written_rows(
        batches in prop::collection::vec(1usize..300, 1..8),
        rows_per_block in 1usize..400,
        seed in any::<u8>(),
        persist in 0usize..40,
        torn in 0usize..8192,
    ) {
        let vfs = FaultVfs::new();
        let (_unfinished, written) = write_batches(&vfs, &batches, rows_per_block, seed);
        vfs.crash_with_partial(persist, torn);
        match reopen_and_read(&vfs) {
            Err(_typed) => {} // unfinished file detected and reported: acceptable
            Ok(read) => prop_assert_eq!(bits(&read), bits(&written)),
        }
    }
}

/// Bit rot in a synced block page is caught by the v2 page checksum and
/// reported with the corrupt page's id; other blocks stay readable.
#[test]
fn flipped_bit_reports_corrupt_page_id() {
    let vfs = FaultVfs::new();
    // 200 rows/block * 32 B = 6400 B = 2 pages per block: block 0 is
    // pages 2-3, block 1 is pages 4-5.
    let (writer, _) = write_batches(&vfs, &[450], 200, 0);
    drop(writer.finish().unwrap());

    // Flip one bit inside page 5's content area (v2 physical pages carry
    // an 8-byte trailer).
    assert!(vfs.flip_bit(PATH, 5 * (PAGE_SIZE + 8) + 2048, 5));

    let mut store = ColumnStore::open_with(&vfs, Path::new(PATH)).unwrap();
    match store.read_block(1) {
        Err(StorageError::PageChecksum(p)) => assert_eq!(p, PageId(5)),
        other => panic!("expected PageChecksum(5), got {other:?}"),
    }
    assert!(store.read_block(0).is_ok());
    assert!(store.read_block(2).is_ok());
}

/// ENOSPC mid-`append_rows` surfaces as a typed I/O error, and the
/// half-written file is refused on reopen.
#[test]
fn enospc_mid_append_is_typed() {
    let vfs = FaultVfs::new();
    let mut writer = ColumnWriter::create_with(&vfs, Path::new(PATH), DIMS, 50).unwrap();
    writer.append_rows(&rows(120, 0)).unwrap();

    vfs.set_write_budget(Some(1));
    // 400 more rows = 8 more block writes: the budget runs out mid-call.
    match writer.append_rows(&rows(400, 1)) {
        Err(StorageError::Io(_)) => {}
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    vfs.set_write_budget(None);
    drop(writer);
    assert!(reopen_and_read(&vfs).is_err());
}

/// Short reads and writes at the VFS layer are invisible above it.
#[test]
fn short_io_does_not_affect_store_correctness() {
    let vfs = FaultVfs::new();
    vfs.set_short_writes(Some(100));
    vfs.set_short_reads(Some(64));
    let (writer, written) = write_batches(&vfs, &[130, 7, 263], 90, 3);
    drop(writer.finish().unwrap());
    let read = reopen_and_read(&vfs).unwrap();
    assert_eq!(bits(&read), bits(&written));
}
