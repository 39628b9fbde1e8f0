//! Fixed-size page I/O over a single append-only file, with a
//! checksummed header and per-page checksums.
//!
//! All I/O goes through the [`Vfs`] abstraction so the same code runs on
//! the production `std::fs` backend and the fault-injecting test backend
//! (see [`crate::vfs`]).
//!
//! # On-disk format
//!
//! Page 0 is the header (magic, version, page count, 4 reserved bytes
//! written as `u32::MAX`, header CRC); pages 1.. are user pages, handed
//! out once each in ascending order and never freed.
//!
//! There is one format, version 2: every physical page carries an
//! 8-byte trailer — a CRC-32 over `page_id ‖ content` plus 4 reserved
//! bytes. Covering the page id catches misdirected writes, not just bit
//! rot. [`PageFile::read_page`] verifies the checksum and returns
//! [`StorageError::PageChecksum`] on mismatch;
//! [`PageFile::open_with_recovery`] scans the whole file up front and
//! reports every corrupt page.
//!
//! # Crash safety
//!
//! [`PageFile::allocate`] does not write the header; it marks it dirty,
//! and [`PageFile::sync`] performs the crash-safe ordering: flush data
//! pages, fsync, then write the header and fsync again. A crash between
//! those fsyncs leaves the old header pointing at the old (fully
//! durable) state; at worst, freshly grown pages past `num_pages` are
//! leaked file space, never dangling references.

use crate::vfs::{StdVfs, Vfs, VfsFile};
use earthmover_obs::{self as obs, names};
use std::fmt;
use std::path::Path;

/// Size of the usable portion of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

const MAGIC: u32 = 0x454D_4450; // "EMDP"
/// The format version.
const VERSION: u32 = 2;
/// Per-page trailer: CRC-32 (4 bytes) + reserved (4 bytes).
const TRAILER: usize = 8;
/// Physical bytes per page slot: content plus trailer.
const PHYS_PAGE: usize = PAGE_SIZE + TRAILER;
/// Header bytes 12..16, reserved (the free-list head of a retired
/// allocator, whose "no page" sentinel this is).
const NO_PAGE: u32 = u32::MAX;

/// Identifier of a page within a [`PageFile`] (page 0 is the header and
/// never handed out).
// The derived PartialOrd delegates to u32 — no NaN, so the workspace
// ban on partial_cmp (clippy.toml disallowed-methods) does not apply.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a page file (bad magic) or wrong version.
    BadHeader(String),
    /// The header checksum does not match.
    HeaderChecksum,
    /// A page's content checksum does not match (bit rot, torn write, or
    /// misdirected write). Carries the id of the corrupt page.
    PageChecksum(PageId),
    /// A page's structural invariants are violated (e.g. a slot
    /// directory pointing outside the page).
    CorruptPage {
        /// The offending page.
        page: PageId,
        /// Which invariant failed.
        reason: &'static str,
    },
    /// A page id beyond the end of the file was requested.
    PageOutOfBounds(PageId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadHeader(msg) => write!(f, "bad page-file header: {msg}"),
            StorageError::HeaderChecksum => write!(f, "header checksum mismatch"),
            StorageError::PageChecksum(id) => {
                write!(f, "page {} checksum mismatch (corrupt page)", id.0)
            }
            StorageError::CorruptPage { page, reason } => {
                write!(f, "page {} is corrupt: {reason}", page.0)
            }
            StorageError::PageOutOfBounds(id) => write!(f, "page {} out of bounds", id.0),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result of scanning a page file for corruption at open time.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Format version of the file.
    pub version: u32,
    /// Total pages according to the header, including the header page.
    pub num_pages: u32,
    /// Pages whose checksum failed or that could not be read.
    pub corrupt_pages: Vec<PageId>,
}

impl RecoveryReport {
    /// Whether every page verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt_pages.is_empty()
    }
}

/// A file of [`PAGE_SIZE`]-byte pages that grows one page at a time.
pub struct PageFile {
    file: Box<dyn VfsFile>,
    /// Total pages including the header page.
    num_pages: u32,
    /// Whether `num_pages` changed since the last header write. The
    /// header is only written by [`PageFile::sync`], after the data
    /// pages it describes are durable.
    header_dirty: bool,
}

impl PageFile {
    /// Creates a new page file on the standard filesystem, truncating
    /// any existing file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::create_with(&StdVfs, path.as_ref())
    }

    /// Creates a new page file on the given VFS backend.
    pub fn create_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, StorageError> {
        let file = vfs.create(path)?;
        let mut pf = PageFile {
            file,
            num_pages: 1,
            header_dirty: false,
        };
        pf.write_header()?;
        Ok(pf)
    }

    /// Opens an existing page file on the standard filesystem, validating
    /// its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(&StdVfs, path.as_ref())
    }

    /// Opens an existing page file on the given VFS backend. A file
    /// shorter than the pages its header claims is a
    /// [`StorageError::BadHeader`]; a longer one is legal (pages grown
    /// but not yet published by [`PageFile::sync`]).
    pub fn open_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, StorageError> {
        let file = vfs.open(path)?;
        let mut pf = PageFile {
            file,
            num_pages: 0,
            header_dirty: false,
        };
        pf.read_header()?;
        let len = pf.file.len()?;
        if len < pf.page_offset(PageId(pf.num_pages)) {
            return Err(StorageError::BadHeader(format!(
                "header claims {} pages, file holds {len} bytes",
                pf.num_pages
            )));
        }
        Ok(pf)
    }

    /// Opens a page file and scans every page for corruption, returning
    /// the file together with a [`RecoveryReport`] listing corrupt pages.
    ///
    /// Header-level failures (bad magic, header checksum) are not
    /// recoverable and are returned as errors. Per-page failures are
    /// collected in the report; intact pages remain readable through the
    /// returned file, and reading a corrupt page yields
    /// [`StorageError::PageChecksum`].
    pub fn open_with_recovery(
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        Self::open_with_recovery_with(&StdVfs, path.as_ref())
    }

    /// [`PageFile::open_with_recovery`] on the given VFS backend.
    pub fn open_with_recovery_with(
        vfs: &dyn Vfs,
        path: &Path,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let mut span = obs::span!(names::STORAGE_RECOVERY_SCAN);
        let mut pf = Self::open_with(vfs, path)?;
        let mut report = RecoveryReport {
            version: VERSION,
            num_pages: pf.num_pages,
            corrupt_pages: Vec::new(),
        };
        let mut buf = [0u8; PAGE_SIZE];
        for id in 1..pf.num_pages {
            let id = PageId(id);
            match pf.read_page(id, &mut buf) {
                Ok(()) => {}
                Err(StorageError::PageChecksum(_)) | Err(StorageError::Io(_)) => {
                    obs::event!(names::STORAGE_CRC_RECOVERY, page = id.0);
                    report.corrupt_pages.push(id);
                }
                Err(e) => return Err(e),
            }
        }
        if span.is_recording() {
            span.record("pages", report.num_pages as f64);
            span.record("corrupt_pages", report.corrupt_pages.len() as f64);
        }
        Ok((pf, report))
    }

    /// Number of pages, including the header page.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn page_offset(&self, id: PageId) -> u64 {
        id.0 as u64 * PHYS_PAGE as u64
    }

    /// CRC over `page_id ‖ content`, so a page written to the wrong slot
    /// fails verification even if its bytes are intact.
    fn page_crc(id: PageId, content: &[u8; PAGE_SIZE]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&id.0.to_le_bytes());
        crc.update(content);
        crc.finish()
    }

    /// Writes `content` and its trailer to the physical slot of `id`,
    /// without bounds checks. Used for all page writes including the
    /// header.
    fn write_page_raw(
        &mut self,
        id: PageId,
        content: &[u8; PAGE_SIZE],
    ) -> Result<(), StorageError> {
        obs::event!(names::STORAGE_PAGE_WRITE, page = id.0);
        let mut phys = [0u8; PHYS_PAGE];
        phys[..PAGE_SIZE].copy_from_slice(content);
        let crc = Self::page_crc(id, content);
        phys[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all_at(&phys, self.page_offset(id))?;
        Ok(())
    }

    /// Reads the physical slot of `id` into `buf`, verifying the
    /// trailer checksum.
    fn read_page_raw(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        obs::event!(names::STORAGE_PAGE_READ, page = id.0);
        let mut phys = [0u8; PHYS_PAGE];
        self.file.read_exact_at(&mut phys, self.page_offset(id))?;
        buf.copy_from_slice(&phys[..PAGE_SIZE]);
        if le_u32(&phys, PAGE_SIZE) != Self::page_crc(id, buf) {
            return Err(StorageError::PageChecksum(id));
        }
        Ok(())
    }

    fn write_header(&mut self) -> Result<(), StorageError> {
        let mut page = [0u8; PAGE_SIZE];
        page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&VERSION.to_le_bytes());
        page[8..12].copy_from_slice(&self.num_pages.to_le_bytes());
        page[12..16].copy_from_slice(&NO_PAGE.to_le_bytes());
        let crc = crc32(&page[0..16]);
        page[16..20].copy_from_slice(&crc.to_le_bytes());
        self.write_page_raw(PageId(0), &page)?;
        self.header_dirty = false;
        Ok(())
    }

    fn read_header(&mut self) -> Result<(), StorageError> {
        let mut page = [0u8; PAGE_SIZE];
        // The header's own CRC at bytes 16..20 authenticates it; the
        // page trailer is verified for data pages only.
        self.file.read_exact_at(&mut page, 0)?;
        let magic = le_u32(&page, 0);
        if magic != MAGIC {
            return Err(StorageError::BadHeader("wrong magic".into()));
        }
        let version = le_u32(&page, 4);
        if version != VERSION {
            return Err(StorageError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let stored_crc = le_u32(&page, 16);
        if stored_crc != crc32(&page[0..16]) {
            return Err(StorageError::HeaderChecksum);
        }
        self.num_pages = le_u32(&page, 8);
        Ok(())
    }

    /// Allocates a page by growing the file with a zero page.
    ///
    /// The header is not written until [`PageFile::sync`]; a crash before
    /// then loses the allocation (the grown file space is leaked, never
    /// referenced).
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        let id = PageId(self.num_pages);
        let grown = self
            .num_pages
            .checked_add(1)
            .ok_or(StorageError::PageOutOfBounds(id))?;
        // Extend the file with a checksummed zero page. Only
        // count the page once the write succeeded, so a failed grow
        // (e.g. ENOSPC) leaves the file state consistent.
        let zero = [0u8; PAGE_SIZE];
        self.write_page_raw(id, &zero)?;
        self.num_pages = grown;
        self.header_dirty = true;
        Ok(id)
    }

    fn check_bounds(&self, id: PageId) -> Result<(), StorageError> {
        if id.0 == 0 || id.0 >= self.num_pages {
            return Err(StorageError::PageOutOfBounds(id));
        }
        Ok(())
    }

    /// Reads a page into `buf`, verifying its checksum.
    pub fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.check_bounds(id)?;
        self.read_page_raw(id, buf)
    }

    /// Writes a page from `buf` with a fresh checksum.
    pub fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.check_bounds(id)?;
        self.write_page_raw(id, buf)
    }

    /// Flushes to stable storage with crash-safe ordering: data pages
    /// are made durable *before* the header that references them.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        if self.header_dirty {
            self.write_header()?;
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Incremental CRC-32 (IEEE), table-driven.
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, bytes: &[u8]) {
        let table = crc_table();
        for &b in bytes {
            self.state = table[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// Total little-endian `u32` read: bytes past the end of the slice read
/// as zero, so there is no panic path. All call sites read fixed offsets
/// inside `[u8; PAGE_SIZE]` (or larger) buffers, so zero-extension is
/// unreachable in practice.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut out = [0u8; 4];
    for (o, b) in out.iter_mut().zip(bytes.iter().skip(at)) {
        *o = *b;
    }
    u32::from_le_bytes(out)
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("earthmover-pagefile-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_allocate_write_read() {
        let path = temp_path("basic.db");
        let mut pf = PageFile::create(&path).unwrap();
        let id = pf.allocate().unwrap();
        assert_eq!(id, PageId(1));
        let mut page = [0u8; PAGE_SIZE];
        page[100] = 42;
        pf.write_page(id, &page).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        pf.read_page(id, &mut back).unwrap();
        assert_eq!(back[100], 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_state() {
        let path = temp_path("reopen.db");
        {
            let mut pf = PageFile::create(&path).unwrap();
            let a = pf.allocate().unwrap();
            let _b = pf.allocate().unwrap();
            let mut page = [7u8; PAGE_SIZE];
            page[0] = 9;
            pf.write_page(a, &page).unwrap();
            pf.sync().unwrap();
        }
        let mut pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.num_pages(), 3);
        let mut back = [0u8; PAGE_SIZE];
        pf.read_page(PageId(1), &mut back).unwrap();
        assert_eq!(back[0], 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounds_are_enforced() {
        let path = temp_path("bounds.db");
        let mut pf = PageFile::create(&path).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(
            pf.read_page(PageId(0), &mut buf),
            Err(StorageError::PageOutOfBounds(_))
        ));
        assert!(matches!(
            pf.read_page(PageId(10), &mut buf),
            Err(StorageError::PageOutOfBounds(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let path = temp_path("corrupt.db");
        {
            let mut pf = PageFile::create(&path).unwrap();
            pf.allocate().unwrap();
            pf.sync().unwrap();
        }
        // Flip a header byte (the page count).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PageFile::open(&path),
            Err(StorageError::HeaderChecksum)
        ));
        // Page count restored: a well-formed header (valid CRC) of the
        // retired version 1.
        bytes[9] ^= 0xFF;
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[0..16]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match PageFile::open(&path) {
            Err(StorageError::BadHeader(msg)) => assert_eq!(msg, "unsupported version 1"),
            other => panic!("expected BadHeader, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_shorter_than_its_header_claims_is_rejected() {
        let path = temp_path("short.db");
        {
            let mut pf = PageFile::create(&path).unwrap();
            pf.allocate().unwrap();
            pf.allocate().unwrap();
            pf.sync().unwrap();
            // Grown but unpublished: a longer file stays legal.
            pf.allocate().unwrap();
        }
        assert_eq!(PageFile::open(&path).unwrap().num_pages(), 3);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [3 * PHYS_PAGE - 1, 2 * PHYS_PAGE, PHYS_PAGE + 7] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(PageFile::open(&path), Err(StorageError::BadHeader(_))),
                "cut at {cut}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_pagefile_is_rejected() {
        let path = temp_path("not_a_db.db");
        std::fs::write(&path, vec![1u8; PAGE_SIZE]).unwrap();
        assert!(matches!(
            PageFile::open(&path),
            Err(StorageError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_detected_by_checksum() {
        let vfs = FaultVfs::new();
        let path = Path::new("flip.db");
        let mut pf = PageFile::create_with(&vfs, path).unwrap();
        let id = pf.allocate().unwrap();
        let page = [0xA5u8; PAGE_SIZE];
        pf.write_page(id, &page).unwrap();
        pf.sync().unwrap();
        drop(pf);

        // Flip one bit in the middle of page 1's content.
        let phys = PAGE_SIZE + TRAILER;
        assert!(vfs.flip_bit(path, phys + 1000, 2));

        let mut pf = PageFile::open_with(&vfs, path).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        match pf.read_page(id, &mut buf) {
            Err(StorageError::PageChecksum(p)) => assert_eq!(p, id),
            other => panic!("expected PageChecksum, got {other:?}"),
        }
    }

    #[test]
    fn open_with_recovery_reports_corrupt_pages() {
        let vfs = FaultVfs::new();
        let path = Path::new("recover.db");
        let mut pf = PageFile::create_with(&vfs, path).unwrap();
        let ids: Vec<PageId> = (0..4).map(|_| pf.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let page = [i as u8 + 1; PAGE_SIZE];
            pf.write_page(id, &page).unwrap();
        }
        pf.sync().unwrap();
        drop(pf);

        // Corrupt pages 2 and 4; pages 1 and 3 stay intact.
        let phys = PAGE_SIZE + TRAILER;
        assert!(vfs.flip_bit(path, 2 * phys + 17, 0));
        assert!(vfs.flip_bit(path, 4 * phys + 90, 7));

        let (mut pf, report) = PageFile::open_with_recovery_with(&vfs, path).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.num_pages, 5);
        assert_eq!(report.corrupt_pages, vec![PageId(2), PageId(4)]);
        assert!(!report.is_clean());

        // Intact pages still read; corrupt ones error.
        let mut buf = [0u8; PAGE_SIZE];
        pf.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        pf.read_page(PageId(3), &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        assert!(matches!(
            pf.read_page(PageId(2), &mut buf),
            Err(StorageError::PageChecksum(PageId(2)))
        ));
    }

    #[test]
    fn crash_before_sync_keeps_old_header() {
        let vfs = FaultVfs::new();
        let path = Path::new("crash.db");
        let mut pf = PageFile::create_with(&vfs, path).unwrap();
        let a = pf.allocate().unwrap();
        let page = [9u8; PAGE_SIZE];
        pf.write_page(a, &page).unwrap();
        pf.sync().unwrap();

        // Allocate + write another page but crash before syncing.
        let b = pf.allocate().unwrap();
        pf.write_page(b, &page).unwrap();
        drop(pf);
        vfs.crash();

        let (mut pf, report) = PageFile::open_with_recovery_with(&vfs, path).unwrap();
        // The unsynced allocation is invisible; the durable prefix is intact.
        assert_eq!(pf.num_pages(), 2);
        assert!(report.is_clean());
        let mut buf = [0u8; PAGE_SIZE];
        pf.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn torn_data_write_is_caught_by_checksum() {
        let vfs = FaultVfs::new();
        let path = Path::new("torn.db");
        let mut pf = PageFile::create_with(&vfs, path).unwrap();
        let a = pf.allocate().unwrap();
        pf.sync().unwrap();
        // Overwrite page 1 but crash mid-write: only the first sector of
        // the new content lands; the rest is the old (zero) page, so the
        // stored CRC cannot match the mixed content.
        let page = [0xEEu8; PAGE_SIZE];
        pf.write_page(a, &page).unwrap();
        drop(pf);
        vfs.crash_with_partial(0, 512);

        let (_, report) = PageFile::open_with_recovery_with(&vfs, path).unwrap();
        assert_eq!(report.corrupt_pages, vec![a]);
    }

    #[test]
    fn enospc_surfaces_as_typed_io_error() {
        let vfs = FaultVfs::new();
        let path = Path::new("enospc.db");
        let mut pf = PageFile::create_with(&vfs, path).unwrap();
        vfs.set_write_budget(Some(0));
        let err = pf.allocate().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(err.to_string().contains("ENOSPC"));
        // Clearing the fault lets the same handle continue.
        vfs.set_write_budget(None);
        pf.allocate().unwrap();
    }
}
