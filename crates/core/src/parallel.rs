//! Multi-threaded sequential-scan execution.
//!
//! Filter scans are embarrassingly parallel: every `(query, object)` pair
//! is independent. This module prepares the measure against the query
//! once ([`DistanceMeasure::prepare`]) and fans the resulting block
//! kernel out over contiguous slices of the database's columnar arena
//! with `crossbeam`'s scoped threads, so borrowed databases and measures
//! need no `Arc` plumbing. It is an engineering extension beyond the
//! paper (which ran single-threaded Java in 2006), used by the benchmark
//! harness to keep large-scale experiment sweeps tractable.

use crate::db::HistogramDb;
use crate::error::PipelineError;
use crate::histogram::Histogram;
use crate::lower_bounds::DistanceMeasure;
use earthmover_obs::{self as obs, names};

/// Computes `measure(q, o)` for every object of the database, in id
/// order, using up to `threads` worker threads.
///
/// The measure is compiled into a block kernel once per call; workers
/// then each sweep one contiguous arena block. Results are bit-identical
/// to the per-pair scalar path at any thread count. With `threads <= 1`
/// the kernel runs over the whole arena inline (no thread spawn
/// overhead).
///
/// # Panics
///
/// Panics when a paged database's block read fails — fallible callers
/// (and every paged scan path in the query engine) use
/// [`try_scan_distances`].
#[expect(clippy::expect_used, reason = "documented panicking convenience")]
pub fn scan_distances(
    db: &HistogramDb,
    q: &Histogram,
    measure: &dyn DistanceMeasure,
    threads: usize,
) -> Vec<f64> {
    try_scan_distances(db, q, measure, threads)
        .expect("paged block read failed during scan; use try_scan_distances")
}

/// [`scan_distances`] with typed errors: a paged database whose block
/// read fails (checksum mismatch, I/O fault) surfaces
/// [`PipelineError::Source`] instead of panicking.
///
/// Resident databases take the exact legacy code path — one
/// `eval_block` over the whole arena, or row-chunked workers — so their
/// results are bit-for-bit unchanged. Paged databases stream whole
/// blocks through the buffer pool (workers partition the *block* range,
/// never splitting a block), and the kernel block contract
/// (`out[i] == eval(row i)`) keeps that bit-identical too.
pub fn try_scan_distances(
    db: &HistogramDb,
    q: &Histogram,
    measure: &dyn DistanceMeasure,
    threads: usize,
) -> Result<Vec<f64>, PipelineError> {
    let n = db.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(n);
    let dims = db.dims();
    let kernel = measure.prepare(q);
    let mut out = vec![0.0f64; n];
    let _span = obs::span!(names::BLOCK_SCAN, rows = n, threads = threads);

    if let Some(arena) = db.resident_arena() {
        if threads == 1 {
            kernel.eval_block(arena, dims, &mut out);
            return Ok(out);
        }
        let chunk = n.div_ceil(threads);
        let kernel = &*kernel;
        #[expect(clippy::expect_used, reason = "a worker panic is a bug: re-raise it")]
        crossbeam::thread::scope(|scope| {
            for (slice, block) in out.chunks_mut(chunk).zip(arena.chunks(chunk * dims)) {
                scope.spawn(move |_| kernel.eval_block(block, dims, slice));
            }
        })
        .expect("scan worker panicked");
        return Ok(out);
    }

    // Paged database: stream pinned block leases through the pool.
    let rpb = db.rows_per_block().max(1);
    if threads == 1 {
        for (b, slot) in out.chunks_mut(rpb).enumerate() {
            let data = db.block(b)?;
            kernel.eval_block(&data, dims, slot);
        }
        return Ok(out);
    }
    let blocks = db.num_blocks();
    let threads = threads.min(blocks);
    let blocks_per_worker = blocks.div_ceil(threads);
    let kernel = &*kernel;
    let mut errors: Vec<Option<PipelineError>> = (0..threads).map(|_| None).collect();
    #[expect(clippy::expect_used, reason = "a worker panic is a bug: re-raise it")]
    crossbeam::thread::scope(|scope| {
        for ((worker, slice), error) in out
            .chunks_mut(blocks_per_worker * rpb)
            .enumerate()
            .zip(errors.iter_mut())
        {
            scope.spawn(move |_| {
                for (offset, slot) in slice.chunks_mut(rpb).enumerate() {
                    match db.block(worker * blocks_per_worker + offset) {
                        Ok(data) => kernel.eval_block(&data, dims, slot),
                        Err(e) => {
                            *error = Some(e);
                            return;
                        }
                    }
                }
            });
        }
    })
    .expect("scan worker panicked");
    if let Some(e) = errors.into_iter().flatten().next() {
        return Err(e);
    }
    Ok(out)
}

/// Parallel ε-range filter: ids (ascending) whose filter distance is at
/// most `epsilon`.
pub fn scan_range(
    db: &HistogramDb,
    q: &Histogram,
    measure: &dyn DistanceMeasure,
    epsilon: f64,
    threads: usize,
) -> Vec<(usize, f64)> {
    scan_distances(db, q, measure, threads)
        .into_iter()
        .enumerate()
        .filter(|(_, d)| *d <= epsilon)
        .collect()
}

/// Parallel exact k-NN baseline: the brute-force result computed with all
/// available cores. Returns `(id, distance)` ascending by distance.
pub fn scan_knn(
    db: &HistogramDb,
    q: &Histogram,
    measure: &dyn DistanceMeasure,
    k: usize,
    threads: usize,
) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = scan_distances(db, q, measure, threads)
        .into_iter()
        .enumerate()
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Executes a batch of k-NN queries against one engine across worker
/// threads (one query per task, queries distributed round-robin).
///
/// The engine is shared immutably — index structures are read-only after
/// construction — so a retrieval service can saturate all cores on a
/// query stream without duplicating the database or the index. Results
/// come back in input order; the first query error (after the engine's
/// own degradation handling) fails the batch.
#[expect(clippy::expect_used, reason = "the joined scope filled every slot")]
pub fn batch_knn(
    engine: &crate::pipeline::QueryEngine<'_>,
    queries: &[Histogram],
    k: usize,
    threads: usize,
) -> Result<Vec<crate::multistep::QueryResult>, crate::error::PipelineError> {
    let n = queries.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return queries.iter().map(|q| engine.knn(q, k)).collect();
    }
    type Slot = Option<Result<crate::multistep::QueryResult, crate::error::PipelineError>>;
    let mut out: Vec<Slot> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    #[expect(clippy::expect_used, reason = "a worker panic is a bug: re-raise it")]
    crossbeam::thread::scope(|scope| {
        for (worker, slice) in out.chunks_mut(chunk).enumerate() {
            let start = worker * chunk;
            scope.spawn(move |_| {
                for (offset, cell) in slice.iter_mut().enumerate() {
                    *cell = Some(engine.knn(&queries[start + offset], k));
                }
            });
        }
    })
    .expect("batch worker panicked");
    out.into_iter()
        .map(|r| r.expect("every slot is filled by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::BinGrid;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::lower_bounds::{ExactEmd, LbManhattan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize) -> (BinGrid, HistogramDb, Histogram) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(77);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let q = random_histogram(&mut rng, grid.num_bins());
        (grid, db, q)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (grid, db, q) = setup(97); // deliberately not a multiple of the thread count
        let filter = LbManhattan::new(&grid.cost_matrix());
        let seq = scan_distances(&db, &q, &filter, 1);
        // The block-kernel path must be bit-identical to the scalar
        // per-pair path — selectivity cannot shift with the executor.
        let scalar: Vec<f64> = db
            .iter()
            .map(|(_, h)| filter.distance(&q, &h.to_histogram()))
            .collect();
        assert_eq!(seq, scalar);
        for threads in [2, 3, 8, 200] {
            let par = scan_distances(&db, &q, &filter, threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a, b, "threads={threads}");
            }
        }
    }

    #[test]
    fn paged_scan_is_bit_identical_to_resident() {
        let (grid, db, q) = setup(97);
        let filter = LbManhattan::new(&grid.cost_matrix());
        let resident = scan_distances(&db, &q, &filter, 1);

        let dir = std::env::temp_dir().join("earthmover-parallel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.emdc");
        let _ = std::fs::remove_file(&path);
        // 7 rows per block -> 14 blocks; pool of 3 blocks forces steady
        // eviction during the scan.
        crate::storage::save_paged_with(&earthmover_storage::StdVfs, &db, &path, 7).unwrap();
        let paged = crate::storage::open_paged(&path, 3 * 7 * db.dims() * 8).unwrap();
        assert!(paged.num_blocks() >= 14);
        for threads in [1, 2, 5, 200] {
            let got = try_scan_distances(&paged, &q, &filter, threads).unwrap();
            assert_eq!(got, resident, "threads={threads}");
        }
        let stats = paged.pool_stats().unwrap();
        assert!(stats.misses > 0);
        assert!(stats.evictions > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_db() {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let db = HistogramDb::new(grid.num_bins());
        let q = random_histogram(&mut StdRng::seed_from_u64(1), grid.num_bins());
        let filter = LbManhattan::new(&grid.cost_matrix());
        assert!(scan_distances(&db, &q, &filter, 4).is_empty());
    }

    #[test]
    fn parallel_knn_matches_exact_scan() {
        let (grid, db, q) = setup(40);
        let exact = ExactEmd::new(grid.cost_matrix());
        let par = scan_knn(&db, &q, &exact, 5, 4);
        let seq = scan_knn(&db, &q, &exact, 5, 1);
        assert_eq!(par, seq);
        assert_eq!(par.len(), 5);
        for w in par.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn range_filters_by_epsilon() {
        let (grid, db, q) = setup(50);
        let filter = LbManhattan::new(&grid.cost_matrix());
        let eps = 0.05;
        let hits = scan_range(&db, &q, &filter, eps, 4);
        for (id, d) in &hits {
            assert!(*d <= eps);
            assert!((filter.distance(&q, &db.get(*id).to_histogram()) - d).abs() < 1e-12);
        }
        let full = scan_distances(&db, &q, &filter, 1);
        let expect = full.iter().filter(|d| **d <= eps).count();
        assert_eq!(hits.len(), expect);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::ground::BinGrid;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::pipeline::QueryEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batch_matches_sequential_queries() {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(404);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..150 {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        let engine = QueryEngine::builder(&db, &grid).build();
        let queries: Vec<Histogram> = (0..9)
            .map(|_| random_histogram(&mut rng, grid.num_bins()))
            .collect();
        let sequential = batch_knn(&engine, &queries, 5, 1).unwrap();
        for threads in [2, 4, 16] {
            let parallel = batch_knn(&engine, &queries, 5, threads).unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                let pd: Vec<f64> = p.items.iter().map(|(_, d)| *d).collect();
                let sd: Vec<f64> = s.items.iter().map(|(_, d)| *d).collect();
                assert_eq!(pd.len(), sd.len());
                for (a, b) in pd.iter().zip(&sd) {
                    assert!((a - b).abs() < 1e-9, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn empty_batch() {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut db = HistogramDb::new(grid.num_bins());
        db.push(random_histogram(&mut StdRng::seed_from_u64(1), 8));
        let engine = QueryEngine::builder(&db, &grid).build();
        assert!(batch_knn(&engine, &[], 5, 4).unwrap().is_empty());
    }
}
