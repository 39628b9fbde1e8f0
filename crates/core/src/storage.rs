//! Versioned, checksummed binary persistence for histogram databases.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : 4 bytes  = "EMDB"
//! version : u32      = 1
//! dims    : u32
//! count   : u64
//! data    : count × dims × f64
//! crc32   : u32 over everything above (IEEE polynomial)
//! ```
//!
//! The format stores the *normalized* histograms exactly as the database
//! holds them, so a round trip is bit-identical. No serde format crate is
//! pulled in; the codec is ~100 lines and the CRC catches corruption.
//!
//! Alongside the flat format, this module bridges to the paged column
//! store of `earthmover-storage` (DESIGN.md §14): [`save_paged`] spills
//! a resident database into a page-checksummed column file, and
//! [`open_paged`] mounts such a file behind a bounded buffer pool so
//! corpora larger than RAM can be queried. [`open_paged_or_convert`] is
//! the daemons' entry point: it keeps a `<db>.emdc` sidecar next to a
//! row file and rebuilds it whenever it no longer matches.

use crate::db::HistogramDb;
use crate::provider::PagedBlocks;
pub use earthmover_storage::pagefile::crc32;
pub use earthmover_storage::{ColumnWriter, StdVfs, Vfs};

use earthmover_storage::{rows_per_block_for, BlockPool, ColumnStore};
use std::fmt;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"EMDB";
const VERSION: u32 = 1;

/// Errors reading or writing a database file.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not an `EMDB` database.
    BadMagic,
    /// The file uses an unsupported format version.
    UnsupportedVersion(u32),
    /// The file is shorter than its header promises.
    Truncated,
    /// The checksum does not match — the file is corrupt.
    ChecksumMismatch {
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the file contents.
        actual: u32,
    },
    /// The payload contains an invalid histogram (negative/NaN bin).
    InvalidData(String),
    /// The paged column store reported a typed page-level error
    /// (checksum mismatch, out-of-bounds page, I/O fault).
    Page(earthmover_storage::StorageError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadMagic => write!(f, "not an EMDB database file"),
            StorageError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Truncated => write!(f, "file is truncated"),
            StorageError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            StorageError::InvalidData(msg) => write!(f, "invalid payload: {msg}"),
            StorageError::Page(e) => write!(f, "paged store error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<earthmover_storage::StorageError> for StorageError {
    fn from(e: earthmover_storage::StorageError) -> Self {
        StorageError::Page(e)
    }
}

/// Little-endian reads used by the decoder. Total functions: bytes past
/// the end of the slice read as zero, so there is no panic path. Every
/// caller checks the buffer length before decoding (the header-length
/// and `expected_len` guards), which makes zero-extension unreachable; the
/// checksum would reject such input anyway.
fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(bytes.iter().skip(at)) {
        *o = *b;
    }
    out
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(le_bytes(bytes, at))
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(le_bytes(bytes, at))
}

fn le_f64(bytes: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(le_bytes(bytes, at))
}

/// Bytes before the payload: magic, version, dims, count.
const HEADER_LEN: usize = 20;

/// Validates the `EMDB` header at the start of `bytes` and returns
/// `(dims, count)`.
fn parse_header(bytes: &[u8]) -> Result<(usize, usize), StorageError> {
    if bytes.len() < HEADER_LEN {
        return Err(StorageError::Truncated);
    }
    if !bytes.starts_with(MAGIC) {
        return Err(StorageError::BadMagic);
    }
    let version = le_u32(bytes, 4);
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let dims = le_u32(bytes, 8) as usize;
    let count = le_u64(bytes, 12) as usize;
    if dims == 0 {
        return Err(StorageError::InvalidData("zero dimensionality".into()));
    }
    Ok((dims, count))
}

/// Serializes a database into the `EMDB` byte format.
pub fn to_bytes(db: &HistogramDb) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + db.len() * db.dims() * 8 + 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(db.dims() as u32).to_le_bytes());
    buf.extend_from_slice(&(db.len() as u64).to_le_bytes());
    for b in db.arena() {
        buf.extend_from_slice(&b.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Deserializes a database from the `EMDB` byte format, verifying the
/// checksum and re-validating every histogram.
pub fn from_bytes(bytes: &[u8]) -> Result<HistogramDb, StorageError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(StorageError::Truncated);
    }
    let (dims, count) = parse_header(bytes)?;
    let payload_len = count
        .checked_mul(dims)
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| StorageError::InvalidData("size overflow".into()))?;
    let expected_len = HEADER_LEN + payload_len + 4;
    if bytes.len() != expected_len {
        return Err(StorageError::Truncated);
    }
    let stored_crc = le_u32(bytes, expected_len - 4);
    let actual_crc = crc32(&bytes[..expected_len - 4]);
    if stored_crc != actual_crc {
        return Err(StorageError::ChecksumMismatch {
            expected: stored_crc,
            actual: actual_crc,
        });
    }

    // Decode the payload straight into the columnar arena, validating
    // each record's bins and mass in place (no per-record allocation).
    let mut arena = Vec::with_capacity(count * dims);
    let mut offset = HEADER_LEN;
    for _ in 0..count * dims {
        arena.push(le_f64(bytes, offset));
        offset += 8;
    }
    for (record, row) in arena.chunks_exact(dims).enumerate() {
        if let Some((idx, value)) = row
            .iter()
            .enumerate()
            .find(|(_, b)| !b.is_finite() || **b < 0.0)
        {
            return Err(StorageError::InvalidData(format!(
                "record {record}: bin {idx} = {value} is negative or non-finite"
            )));
        }
        let mass: f64 = row.iter().sum();
        if (mass - 1.0).abs() > 1e-6 {
            return Err(StorageError::InvalidData(format!(
                "record {record}: mass {mass} is not normalized"
            )));
        }
    }
    Ok(HistogramDb::from_normalized_arena_unchecked(dims, arena))
}

/// Writes a database to a file (atomically: temp file + rename).
pub fn save(db: &HistogramDb, path: impl AsRef<Path>) -> Result<(), StorageError> {
    let path = path.as_ref();
    let tmp = path.with_extension("emdb.tmp");
    fs::write(&tmp, to_bytes(db))?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a database from a file.
pub fn load(path: impl AsRef<Path>) -> Result<HistogramDb, StorageError> {
    from_bytes(&fs::read(path)?)
}

/// Default target payload of one column block: 64 KiB, i.e. sixteen
/// 4 KiB pages — large enough to amortize per-page CRC work, small
/// enough that a pool of a few megabytes holds many blocks.
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// Spills a database into a paged column file (DESIGN.md §14): rows are
/// segmented into blocks of [`DEFAULT_BLOCK_BYTES`] and written through
/// the CRC-checked page file. The result can be mounted with
/// [`open_paged`] under a bounded memory budget.
pub fn save_paged(db: &HistogramDb, path: impl AsRef<Path>) -> Result<(), StorageError> {
    save_paged_with(
        &StdVfs,
        db,
        path.as_ref(),
        rows_per_block_for(db.dims(), DEFAULT_BLOCK_BYTES),
    )
}

/// [`save_paged`] with an explicit [`Vfs`] and block granularity (rows
/// per block) — used by tests to force many tiny blocks and to inject
/// write faults.
pub fn save_paged_with(
    vfs: &dyn Vfs,
    db: &HistogramDb,
    path: &Path,
    rows_per_block: usize,
) -> Result<(), StorageError> {
    let mut writer = ColumnWriter::create_with(vfs, path, db.dims(), rows_per_block)?;
    for b in 0..db.num_blocks() {
        let data = db
            .block(b)
            .map_err(|e| StorageError::InvalidData(e.to_string()))?;
        writer.append_rows(&data)?;
    }
    writer.finish()?;
    Ok(())
}

/// Mounts a paged column file as a read-only [`HistogramDb`] whose
/// buffer pool holds at most `max_resident_bytes` of decoded blocks
/// (at least one block). Queries stream cold blocks through the pool;
/// corrupted or unreadable blocks surface as typed pipeline errors at
/// query time, never panics.
pub fn open_paged(
    path: impl AsRef<Path>,
    max_resident_bytes: usize,
) -> Result<HistogramDb, StorageError> {
    open_paged_with(&StdVfs, path.as_ref(), max_resident_bytes)
}

/// [`open_paged`] with an explicit [`Vfs`] (fault injection in tests).
pub fn open_paged_with(
    vfs: &dyn Vfs,
    path: &Path,
    max_resident_bytes: usize,
) -> Result<HistogramDb, StorageError> {
    let store = ColumnStore::open_with(vfs, path)?;
    let meta = store.meta();
    let block_bytes = meta.rows_per_block * meta.dims * 8;
    let capacity = (max_resident_bytes / block_bytes.max(1)).max(1);
    let pool = BlockPool::new(store, capacity);
    Ok(HistogramDb::from_paged(PagedBlocks::new(pool)))
}

/// `path` with `suffix` appended to its file name (`a.emdb` → `a.emdb.emdc`).
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Mounts `db_path` paged, whichever format it is in — the one policy
/// behind `emdd --max-resident-mb` and `emdtool store-stats`.
///
/// A column file is opened as it is. A row-major `.emdb` is served from
/// its `<db_path>.emdc` sidecar, which is trusted only while it opens
/// cleanly and its dims and row count equal the `.emdb` header's (the
/// header alone is read, not the rows; a regenerated database of the
/// same shape is not detected, and a flipped bit in a block page
/// surfaces at query time as a checksum error, as with [`open_paged`]).
/// A missing, stale or unopenable sidecar — one truncated anywhere
/// included — is reported through `log` and rebuilt from the row file
/// via a temporary file and a rename, so a crash mid-conversion never
/// leaves a half-written sidecar under the final name.
///
/// Returns the database and the path of the column file it reads.
pub fn open_paged_or_convert(
    db_path: impl AsRef<Path>,
    max_resident_bytes: usize,
    log: &mut dyn FnMut(&str),
) -> Result<(HistogramDb, PathBuf), StorageError> {
    let db_path = db_path.as_ref();
    let mut header = Vec::with_capacity(HEADER_LEN);
    fs::File::open(db_path)?
        .take(HEADER_LEN as u64)
        .read_to_end(&mut header)?;
    let (dims, rows) = match parse_header(&header) {
        Ok(shape) => shape,
        Err(StorageError::BadMagic) => {
            let db = open_paged(db_path, max_resident_bytes)?;
            return Ok((db, db_path.to_path_buf()));
        }
        Err(e) => return Err(e),
    };

    let sidecar = with_suffix(db_path, ".emdc");
    if sidecar.exists() {
        match open_paged(&sidecar, max_resident_bytes) {
            Ok(db) if db.dims() == dims && db.len() == rows => return Ok((db, sidecar)),
            Ok(db) => log(&format!(
                "{} is stale ({} x {} bins, {} holds {rows} x {dims}), rebuilding",
                sidecar.display(),
                db.len(),
                db.dims(),
                db_path.display()
            )),
            Err(e) => log(&format!("{}: {e}; rebuilding", sidecar.display())),
        }
    }
    let resident = load(db_path)?;
    let tmp = with_suffix(&sidecar, ".tmp");
    save_paged(&resident, &tmp)?;
    fs::rename(&tmp, &sidecar)?;
    log(&format!(
        "converted {} -> {}",
        db_path.display(),
        sidecar.display()
    ));
    Ok((open_paged(&sidecar, max_resident_bytes)?, sidecar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_db() -> HistogramDb {
        let mut db = HistogramDb::new(3);
        db.push(Histogram::new(vec![1.0, 2.0, 3.0]).unwrap());
        db.push(Histogram::new(vec![0.0, 0.5, 0.5]).unwrap());
        db.push(Histogram::new(vec![9.0, 0.0, 1.0]).unwrap());
        db
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn byte_round_trip() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(db, loaded);
    }

    #[test]
    fn file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("earthmover-storage-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.emdb");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(db, loaded);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_corruption() {
        let db = sample_db();
        let mut bytes = to_bytes(&db);
        // Flip one payload byte.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            from_bytes(&bytes),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn detects_truncation() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 3]),
            Err(StorageError::Truncated)
        ));
        assert!(matches!(from_bytes(&[]), Err(StorageError::Truncated)));
    }

    #[test]
    fn detects_bad_magic_and_version() {
        let db = sample_db();
        let mut bytes = to_bytes(&db);
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(StorageError::BadMagic)));

        let mut bytes = to_bytes(&db);
        bytes[4] = 99;
        // Fixing the CRC so the version check (before data validation) is
        // what fires is unnecessary: version is checked before the CRC.
        assert!(matches!(
            from_bytes(&bytes),
            Err(StorageError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn empty_db_round_trips() {
        let db = HistogramDb::new(5);
        let loaded = from_bytes(&to_bytes(&db)).unwrap();
        assert_eq!(db, loaded);
        assert_eq!(loaded.dims(), 5);
    }

    #[test]
    fn paged_round_trip_is_bit_identical() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("earthmover-storage-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paged.emdc");
        let _ = fs::remove_file(&path);
        // Two rows per block -> two blocks; pool of one block forces
        // eviction between row reads.
        save_paged_with(&StdVfs, &db, &path, 2).unwrap();
        let paged = open_paged(&path, 1).unwrap();
        assert!(paged.is_paged());
        assert_eq!(paged.dims(), db.dims());
        assert_eq!(paged.len(), db.len());
        assert_eq!(paged.num_blocks(), 2);
        for id in 0..db.len() {
            assert_eq!(
                paged.try_row(id).unwrap().bins(),
                db.get(id).bins(),
                "row {id} must round-trip bit-identically"
            );
        }
        assert!(paged.pool_stats().is_some());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn paged_db_rejects_ingest() {
        use crate::histogram::HistogramError;
        let db = sample_db();
        let dir = std::env::temp_dir().join("earthmover-storage-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("readonly.emdc");
        let _ = fs::remove_file(&path);
        save_paged(&db, &path).unwrap();
        let mut paged = open_paged(&path, DEFAULT_BLOCK_BYTES).unwrap();
        assert_eq!(
            paged.try_push(Histogram::new(vec![1.0, 0.0, 0.0]).unwrap()),
            Err(HistogramError::ReadOnly)
        );
        fs::remove_file(&path).unwrap();
    }
}
