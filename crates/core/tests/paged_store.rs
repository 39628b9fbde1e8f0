//! Paged-store equivalence properties: a database answered through the
//! columnar pagefile + tiny buffer pool must be indistinguishable from
//! the fully-resident arena.
//!
//! Three families:
//!
//! 1. **Bit-identity** (the issue's acceptance criterion): over random
//!    corpora at least 4× larger than the pool, k-NN and range queries
//!    through a capacity-2 pool return *exactly* the results of the
//!    resident path — same ids, bit-identical distances.
//! 2. **Typed degradation**: a flipped bit in a cold data page surfaces
//!    as `PipelineError::Source` from the query, never a panic.
//! 3. **Pool behavior**: the tiny pool actually thrashes (misses and
//!    evictions observed), proving the equivalence is exercised cold.

use earthmover_core::db::HistogramDb;
use earthmover_core::error::PipelineError;
use earthmover_core::pipeline::{FirstStage, QueryEngine};
use earthmover_core::storage::{open_paged_with, save_paged_with};
use earthmover_core::{BinGrid, Histogram};
use earthmover_storage::{FaultVfs, StdVfs, PAGE_SIZE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

const DIMS: usize = 8;
const ROWS_PER_BLOCK: usize = 4;

fn random_histogram(rng: &mut StdRng, n: usize) -> Histogram {
    let mut bins: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    for b in bins.iter_mut() {
        if rng.gen_bool(0.4) {
            *b = 0.0;
        }
    }
    if bins.iter().sum::<f64>() == 0.0 {
        bins[rng.gen_range(0..n)] = 1.0;
    }
    Histogram::normalized(bins).unwrap()
}

fn build_db(seed: u64, rows: usize) -> HistogramDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = HistogramDb::new(DIMS);
    for _ in 0..rows {
        db.push(random_histogram(&mut rng, DIMS));
    }
    db
}

/// Saves `db` through the in-memory fault VFS and reopens it paged with
/// a pool of `pool_blocks` frames.
fn paged_copy(vfs: &FaultVfs, db: &HistogramDb, pool_blocks: usize) -> HistogramDb {
    let path = Path::new("paged.emdc");
    save_paged_with(vfs, db, path, ROWS_PER_BLOCK).unwrap();
    let budget = pool_blocks * ROWS_PER_BLOCK * DIMS * std::mem::size_of::<f64>();
    open_paged_with(vfs, path, budget).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// k-NN and range answers through a capacity-2 pool over a corpus
    /// ≥ 4× the pool are bit-identical to the resident arena.
    #[test]
    fn paged_queries_are_bit_identical_to_resident(
        seed in 0u64..1000,
        rows in 40usize..100,
        k in 1usize..60,
    ) {
        let resident = build_db(seed, rows);
        let vfs = FaultVfs::new();
        let paged = paged_copy(&vfs, &resident, 2);
        prop_assert!(paged.num_blocks() >= 4 * paged.pool_capacity());
        prop_assert_eq!(paged.len(), resident.len());

        let grid = BinGrid::new(vec![2, 2, 2]);
        let q = random_histogram(&mut StdRng::seed_from_u64(seed ^ QUERY_SALT), DIMS);
        // Same pipeline shape on both sides (a paged db silently
        // downgrades index stages, so pin the scan stage explicitly).
        let eng_res = QueryEngine::builder(&resident, &grid)
            .first_stage(FirstStage::ManhattanScan)
            .build();
        let eng_paged = QueryEngine::builder(&paged, &grid)
            .first_stage(FirstStage::ManhattanScan)
            .build();

        let r = eng_res.knn(&q, k).unwrap();
        let p = eng_paged.knn(&q, k).unwrap();
        prop_assert_eq!(&r.items, &p.items, "knn k={} diverged", k);

        let eps = 0.15;
        let r = eng_res.range(&q, eps).unwrap();
        let p = eng_paged.range(&q, eps).unwrap();
        let mut ri = r.items.clone();
        let mut pi = p.items.clone();
        ri.sort_by_key(|(id, _)| *id);
        pi.sort_by_key(|(id, _)| *id);
        prop_assert_eq!(ri, pi, "range eps={} diverged", eps);

        // The default (index) configuration must agree too, modulo the
        // automatic downgrade on the paged side.
        let combo_res = QueryEngine::builder(&resident, &grid).build();
        let combo_paged = QueryEngine::builder(&paged, &grid).build();
        let r = combo_res.knn(&q, k).unwrap();
        let p = combo_paged.knn(&q, k).unwrap();
        let rd: Vec<f64> = r.items.iter().map(|(_, d)| *d).collect();
        let pd: Vec<f64> = p.items.iter().map(|(_, d)| *d).collect();
        prop_assert_eq!(rd, pd, "combo pipeline diverged");

        // The tiny pool must actually have been streaming cold blocks.
        let stats = paged.pool_stats().unwrap();
        prop_assert!(stats.misses > 0, "pool never missed: {:?}", stats);
        prop_assert!(stats.evictions > 0, "pool never evicted: {:?}", stats);
    }
}

/// Salt decorrelating the query seed from the corpus seed.
const QUERY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[test]
fn corrupt_cold_block_degrades_typed_not_panic() {
    let resident = build_db(77, 64);
    let vfs = FaultVfs::new();
    let paged = paged_copy(&vfs, &resident, 2);
    assert!(paged.num_blocks() >= 8);

    // Flip a bit in block 0's first data page (pages 0..=1 are the
    // pagefile header and column meta; each physical slot is
    // PAGE_SIZE + 8 trailer bytes). The pool is cold, so the next read
    // must hit the corrupt bytes.
    assert!(vfs.flip_bit("paged.emdc", 2 * (PAGE_SIZE + 8) + 100, 3));

    let grid = BinGrid::new(vec![2, 2, 2]);
    let engine = QueryEngine::builder(&paged, &grid).build();
    let q = random_histogram(&mut StdRng::seed_from_u64(1), DIMS);
    // Both the first stage and the scan fallback read through the same
    // broken store, so the query must surface a typed source error.
    match engine.knn(&q, 3) {
        Err(PipelineError::Source { stage, reason }) => {
            assert!(!stage.is_empty());
            assert!(!reason.is_empty());
        }
        Err(other) => panic!("expected a Source error, got {other}"),
        Ok(_) => panic!("query through a corrupted store must not succeed"),
    }

    // Direct row access degrades the same way.
    assert!(matches!(
        paged.try_row(0),
        Err(PipelineError::Source { .. })
    ));
}

#[test]
fn fully_pinned_pool_still_answers_exactly() {
    // Pool of 1 frame, corpus of ≥ 16 blocks: every block swap is an
    // eviction or bypass, and answers still match the resident path.
    let resident = build_db(5, 70);
    let vfs = FaultVfs::new();
    let paged = paged_copy(&vfs, &resident, 1);

    let grid = BinGrid::new(vec![2, 2, 2]);
    let q = random_histogram(&mut StdRng::seed_from_u64(2), DIMS);
    let eng_res = QueryEngine::builder(&resident, &grid)
        .first_stage(FirstStage::ManhattanScan)
        .build();
    let eng_paged = QueryEngine::builder(&paged, &grid)
        .first_stage(FirstStage::ManhattanScan)
        .build();
    let r = eng_res.knn(&q, 5).unwrap();
    let p = eng_paged.knn(&q, 5).unwrap();
    assert_eq!(r.items, p.items);
    let stats = paged.pool_stats().unwrap();
    assert!(stats.evictions + stats.bypasses > 0);
}

#[test]
fn std_vfs_round_trip_matches_fault_vfs_layout() {
    // The on-disk format is VFS-independent: save through StdVfs, read
    // back paged, compare every row with the resident original.
    let resident = build_db(11, 50);
    let dir = std::env::temp_dir().join(format!("paged_store_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rt.emdc");
    save_paged_with(&StdVfs, &resident, &path, ROWS_PER_BLOCK).unwrap();
    let budget = 2 * ROWS_PER_BLOCK * DIMS * std::mem::size_of::<f64>();
    let paged = open_paged_with(&StdVfs, &path, budget).unwrap();
    for id in 0..resident.len() {
        let row = paged.try_row(id).unwrap();
        assert_eq!(row.bins(), resident.get(id).bins(), "row {id}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
