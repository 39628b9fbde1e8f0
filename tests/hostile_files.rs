//! Hostile `.emds` and `.emdc` files: whatever bytes the daemons find
//! next to a database, opening them yields a *typed* error — never a
//! panic, never a silently wrong tier or store.
//!
//! `SketchTier::load` reports every refusal as
//! `io::ErrorKind::InvalidData` (which `emdd` answers by rebuilding the
//! sidecar); `storage::open_paged` reports a typed `StorageError`, and
//! `storage::open_paged_or_convert` answers a stale or torn `.emdc`
//! sidecar by rebuilding it from the row file.

use earthmover::core::storage::{self, crc32};
use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover::storage_engine::{StorageError as PageError, PAGE_SIZE};
use earthmover::{BinGrid, FirstStage, HistogramDb, QueryEngine, SketchTier};
use std::io;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("earthmover-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn corpus_db(grid: &BinGrid, rows: usize) -> HistogramDb {
    SyntheticCorpus::new(CorpusConfig::default().with_seed(31)).build_database(grid, rows)
}

/// A sidecar of `db` over `grid`, written to a fresh file.
fn saved_sidecar(name: &str, db: &HistogramDb, grid: &BinGrid, seed: u64) -> PathBuf {
    let path = tmp(name);
    SketchTier::build(db, grid, seed)
        .unwrap()
        .save(&path)
        .unwrap();
    path
}

fn assert_invalid_data(result: io::Result<SketchTier>, what: &str) -> String {
    let err = result.expect_err(what);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    err.to_string()
}

/// The version-1 layout, byte for byte: the v2 fields followed by the
/// normal-projection dimension and arena, under a valid CRC.
#[test]
fn v1_sidecar_is_refused_as_unsupported_version() {
    let grid = BinGrid::new(vec![2, 2]);
    let (rows, tree_dim, normal_dim) = (3u64, 5u32, 4u32);
    let mut bytes = b"EMDS".to_vec();
    bytes.push(1); // version
    bytes.extend_from_slice(&42u64.to_le_bytes()); // seed
    bytes.extend_from_slice(&(grid.feature_dims() as u32).to_le_bytes());
    bytes.extend_from_slice(&(grid.num_bins() as u32).to_le_bytes());
    bytes.extend_from_slice(&rows.to_le_bytes());
    bytes.extend_from_slice(&tree_dim.to_le_bytes());
    for _ in 0..rows * tree_dim as u64 {
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
    }
    bytes.extend_from_slice(&normal_dim.to_le_bytes());
    for _ in 0..rows * normal_dim as u64 {
        bytes.extend_from_slice(&0.25f64.to_le_bytes());
    }
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let path = tmp("v1.emds");
    std::fs::write(&path, bytes).unwrap();

    let msg = assert_invalid_data(SketchTier::load(&path, &grid), "v1 sidecar");
    assert!(msg.contains("unsupported version 1"), "{msg}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_and_bit_flipped_sidecars_are_invalid_data() {
    let grid = BinGrid::new(vec![4, 2, 2]);
    let db = corpus_db(&grid, 40);
    let path = saved_sidecar("damaged.emds", &db, &grid, 7);
    let good = std::fs::read(&path).unwrap();
    assert!(SketchTier::load(&path, &grid).is_ok());

    for keep in [0, 3, 12, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..keep]).unwrap();
        assert_invalid_data(SketchTier::load(&path, &grid), "truncated sidecar");
    }
    for byte in [0, 4, 5, 30, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[byte] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert_invalid_data(SketchTier::load(&path, &grid), "bit-flipped sidecar");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A well-formed sidecar of another database geometry: a different bin
/// count, and the same bin count over a different feature space.
#[test]
fn sidecar_built_over_another_grid_is_invalid_data() {
    let built = BinGrid::new(vec![4, 2, 2]);
    let db = corpus_db(&built, 40);
    let path = saved_sidecar("othergrid.emds", &db, &built, 7);

    for other in [BinGrid::new(vec![4, 4, 2]), BinGrid::new(vec![4, 4])] {
        assert_invalid_data(SketchTier::load(&path, &other), "sidecar of another grid");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Every block of `db`, or the first typed error.
fn read_all(db: &HistogramDb) -> Result<usize, earthmover::PipelineError> {
    let mut values = 0;
    for b in 0..db.num_blocks() {
        values += db.block(b)?.len();
    }
    Ok(values)
}

#[test]
fn truncated_column_file_is_a_typed_error() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let db = corpus_db(&grid, 300);
    let path = tmp("truncated.emdc");
    // 64 rows * 8 bins * 8 B = one page per block, five blocks.
    storage::save_paged_with(&storage::StdVfs, &db, &path, 64).unwrap();
    let good = std::fs::read(&path).unwrap();
    let opened = storage::open_paged(&path, 1 << 20).unwrap();
    assert_eq!(read_all(&opened).unwrap(), 300 * 8);

    // Cut inside the page-file header, inside the column meta page, and
    // in the middle of the block pages. The first two cannot open; the
    // last keeps an intact header, so the loss surfaces on the block.
    let phys_page = PAGE_SIZE + 8;
    for keep in [0, 10, phys_page - 1, phys_page + 100] {
        std::fs::write(&path, &good[..keep]).unwrap();
        assert!(storage::open_paged(&path, 1 << 20).is_err(), "kept {keep}");
    }
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let typed = match storage::open_paged(&path, 1 << 20) {
        Err(_) => true,
        Ok(cut) => read_all(&cut).is_err(),
    };
    assert!(typed, "half a column file must not read back whole");
    std::fs::remove_file(&path).unwrap();
}

/// A column file whose meta page claims another row width (under a
/// valid page checksum, so only the geometry check can catch it).
#[test]
fn wrong_dims_column_file_is_a_typed_error() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let db = corpus_db(&grid, 100);
    let path = tmp("wrongdims.emdc");
    storage::save_paged(&db, &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    let meta = PAGE_SIZE + 8; // physical offset of page 1
    for dims in [0u32, 64] {
        let mut bad = good.clone();
        bad[meta + 8..meta + 12].copy_from_slice(&dims.to_le_bytes());
        let mut covered = 1u32.to_le_bytes().to_vec(); // page id ‖ content
        covered.extend_from_slice(&bad[meta..meta + PAGE_SIZE]);
        let crc = crc32(&covered);
        bad[meta + PAGE_SIZE..meta + PAGE_SIZE + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        match storage::open_paged(&path, 1 << 20) {
            Err(storage::StorageError::Page(PageError::BadHeader(_))) => {}
            Err(other) => panic!("dims {dims}: expected a bad-header error, got {other}"),
            Ok(_) => panic!("dims {dims}: a wrong-dims column file must not open"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Where the column sidecar of the row file `emdb` lives.
fn sidecar_of(emdb: &Path) -> PathBuf {
    PathBuf::from(format!("{}.emdc", emdb.display()))
}

/// Mounts `emdb` through the daemons' open-or-convert policy with a
/// one-block pool; returns the database and what the policy logged.
fn open_or_convert(emdb: &Path) -> (HistogramDb, Vec<String>) {
    let mut log = Vec::new();
    let (db, source) =
        storage::open_paged_or_convert(emdb, 1, &mut |msg| log.push(msg.to_string())).unwrap();
    assert_eq!(source, sidecar_of(emdb));
    (db, log)
}

/// `paged` holds exactly the rows of the row file and ranks them as a
/// resident load of it does.
fn assert_serves(paged: &HistogramDb, emdb: &Path, grid: &BinGrid) {
    let resident = storage::load(emdb).unwrap();
    assert_eq!(
        (paged.len(), paged.dims()),
        (resident.len(), resident.dims())
    );
    for id in 0..resident.len() {
        assert_eq!(paged.try_row(id).unwrap().bins(), resident.get(id).bins());
    }
    let q = resident.get(resident.len() / 2).to_histogram();
    let knn = |db: &HistogramDb| {
        let engine = QueryEngine::builder(db, grid)
            .first_stage(FirstStage::ManhattanScan)
            .build();
        engine.knn(&q, 7).unwrap().items
    };
    assert_eq!(knn(paged), knn(&resident));
}

/// The `.emdb` was regenerated with another row count after its
/// sidecar was written: the old corpus must not be served.
#[test]
fn column_sidecar_of_another_row_count_is_rebuilt() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let emdb = tmp("regenerated.emdb");
    storage::save(&corpus_db(&grid, 300), &emdb).unwrap();
    let (first, log) = open_or_convert(&emdb);
    assert_eq!(first.len(), 300);
    assert!(log.iter().all(|l| l.starts_with("converted")), "{log:?}");

    storage::save(&corpus_db(&grid, 120), &emdb).unwrap();
    let (second, log) = open_or_convert(&emdb);
    assert!(log.iter().any(|l| l.contains("stale")), "{log:?}");
    assert_serves(&second, &emdb, &grid);
    std::fs::remove_file(sidecar_of(&emdb)).unwrap();
    std::fs::remove_file(&emdb).unwrap();
}

/// A conversion that died part-way — the state `ColumnWriter` leaves
/// when it never reaches `finish`, and cuts inside the file header, the
/// meta page and the block pages behind it — must not keep the daemon
/// from starting.
#[test]
fn torn_column_sidecar_is_rebuilt() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let emdb = tmp("torn.emdb");
    let sidecar = sidecar_of(&emdb);
    let db = corpus_db(&grid, 300);
    storage::save(&db, &emdb).unwrap();
    drop(open_or_convert(&emdb));
    let good = std::fs::read(&sidecar).unwrap();

    let phys_page = PAGE_SIZE + 8;
    let cuts = [
        0,
        10,
        phys_page - 1,
        phys_page + 100,
        2 * phys_page,
        3 * phys_page + 100,
        good.len() - 1,
    ];
    let mut torn: Vec<Vec<u8>> = cuts.iter().map(|&keep| good[..keep].to_vec()).collect();
    let mut writer = storage::ColumnWriter::create(&sidecar, db.dims(), 64).unwrap();
    writer.append_rows(db.arena()).unwrap();
    drop(writer);
    torn.push(std::fs::read(&sidecar).unwrap());

    for (case, bytes) in torn.iter().enumerate() {
        std::fs::write(&sidecar, bytes).unwrap();
        let (paged, log) = open_or_convert(&emdb);
        assert!(log.iter().any(|l| l.contains("rebuilding")), "{log:?}");
        assert_serves(&paged, &emdb, &grid);
        assert_eq!(std::fs::read(&sidecar).unwrap(), good, "case {case}");
    }
    std::fs::remove_file(&sidecar).unwrap();
    std::fs::remove_file(&emdb).unwrap();
}

#[test]
fn matching_column_sidecar_is_reused_not_rewritten() {
    let grid = BinGrid::new(vec![2, 2, 2]);
    let emdb = tmp("reused.emdb");
    let sidecar = sidecar_of(&emdb);
    storage::save(&corpus_db(&grid, 300), &emdb).unwrap();
    drop(open_or_convert(&emdb));
    let written = std::fs::metadata(&sidecar).unwrap().modified().unwrap();

    let (db, log) = open_or_convert(&emdb);
    assert!(log.is_empty(), "{log:?}");
    assert_serves(&db, &emdb, &grid);
    assert_eq!(
        std::fs::metadata(&sidecar).unwrap().modified().unwrap(),
        written
    );
    // A path that already is a column file is opened as it is.
    let (direct, source) =
        storage::open_paged_or_convert(&sidecar, 1, &mut |msg| panic!("logged {msg}")).unwrap();
    assert_eq!((direct.len(), source), (300, sidecar.clone()));
    std::fs::remove_file(&sidecar).unwrap();
    std::fs::remove_file(&emdb).unwrap();
}
