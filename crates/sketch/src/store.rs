//! Sidecar persistence for the sketch arena.
//!
//! Projecting every database row through the tree embedding is the
//! expensive part of building the approximate tier; the sketch
//! *definition* is cheap to rebuild deterministically from the bin
//! centroids and the stored seed. The sidecar therefore persists only
//! the seed, the geometry, and the row arena, checksummed, and the
//! loader re-derives the embedding.
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! magic   b"EMDS"            4 bytes
//! version u8 = 2
//! seed    u64                grid-shift seed of the tree embedding
//! fdims   u32                feature-space dimensionality
//! bins    u32                histogram arity
//! rows    u64                sketch rows (== database rows)
//! tdim    u32                tree-embedding vector length
//! tree    rows * tdim f64    tree arena, row-major
//! crc     u32                CRC-32 (IEEE) over everything above
//! ```
//!
//! There is no compatibility reader: a file of any other version is
//! refused as `InvalidData` and the caller rebuilds it from the
//! database.

use std::fs;
use std::io;
use std::path::Path;

/// File magic of a sketch sidecar.
pub const SIDECAR_MAGIC: [u8; 4] = *b"EMDS";

/// Current sidecar format version.
pub const SIDECAR_VERSION: u8 = 2;

/// The persisted contents of a sketch sidecar file.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSidecar {
    /// Grid-shift seed the tree embedding was built with.
    pub seed: u64,
    /// Feature-space dimensionality of the bin grid.
    pub feature_dims: u32,
    /// Histogram arity (number of bins).
    pub bins: u32,
    /// Number of sketch rows (must equal the database row count).
    pub rows: u64,
    /// Tree-embedding vector length.
    pub tree_dim: u32,
    /// Tree arena, row-major with stride `tree_dim`.
    pub tree_arena: Vec<f64>,
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise —
/// sidecars are megabytes at most, table-free is fast enough.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    buf.reserve(xs.len() * 8);
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serializes and writes `sidecar` to `path`.
pub fn save_sidecar(path: &Path, sidecar: &SketchSidecar) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64 + 8 * sidecar.tree_arena.len());
    buf.extend_from_slice(&SIDECAR_MAGIC);
    buf.push(SIDECAR_VERSION);
    buf.extend_from_slice(&sidecar.seed.to_le_bytes());
    buf.extend_from_slice(&sidecar.feature_dims.to_le_bytes());
    buf.extend_from_slice(&sidecar.bins.to_le_bytes());
    buf.extend_from_slice(&sidecar.rows.to_le_bytes());
    buf.extend_from_slice(&sidecar.tree_dim.to_le_bytes());
    put_f64s(&mut buf, &sidecar.tree_arena);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    fs::write(path, buf)
}

/// A bounds-checked little-endian reader over the sidecar bytes.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("sketch sidecar corrupt: {what}"),
    )
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64s(&mut self, n: usize) -> io::Result<Vec<f64>> {
        let b = self.take(n.checked_mul(8).ok_or_else(|| corrupt("arena overflow"))?)?;
        Ok(b.chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_le_bytes(a)
            })
            .collect())
    }
}

/// Reads, checksums, and deserializes the sidecar at `path`.
///
/// Corruption (bad magic/version, truncation, CRC mismatch, impossible
/// arena shapes) is reported as [`io::ErrorKind::InvalidData`].
pub fn load_sidecar(path: &Path) -> io::Result<SketchSidecar> {
    let bytes = fs::read(path)?;
    if bytes.len() < SIDECAR_MAGIC.len() + 1 + 4 {
        return Err(corrupt("file shorter than header"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(&format!(
            "crc mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let mut cur = Cur {
        bytes: body,
        pos: 0,
    };
    if cur.take(4)? != SIDECAR_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = cur.u8()?;
    if version != SIDECAR_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let seed = cur.u64()?;
    let feature_dims = cur.u32()?;
    let bins = cur.u32()?;
    let rows = cur.u64()?;
    let rows_us = usize::try_from(rows).map_err(|_| corrupt("row count overflow"))?;
    let tree_dim = cur.u32()?;
    let tree_arena = cur.f64s(
        rows_us
            .checked_mul(tree_dim as usize)
            .ok_or_else(|| corrupt("tree arena overflow"))?,
    )?;
    if cur.pos != body.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(SketchSidecar {
        seed,
        feature_dims,
        bins,
        rows,
        tree_dim,
        tree_arena,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SketchSidecar {
        SketchSidecar {
            seed: 0xdead_beef,
            feature_dims: 3,
            bins: 8,
            rows: 2,
            tree_dim: 5,
            tree_arena: vec![0.5; 10],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emds_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips() {
        let path = tmp("roundtrip");
        let s = sample();
        save_sidecar(&path, &s).unwrap();
        let loaded = load_sidecar(&path).unwrap();
        assert_eq!(loaded, s);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_corruption() {
        let path = tmp("corrupt");
        save_sidecar(&path, &sample()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = load_sidecar(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_truncation() {
        let path = tmp("trunc");
        save_sidecar(&path, &sample()).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(load_sidecar(&path).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 — the standard check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = load_sidecar(Path::new("/nonexistent/emds")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
