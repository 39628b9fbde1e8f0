//! The multistep retrieval algorithms of §3 (and §4.7) of the paper.

use super::source::CandidateSource;
use crate::db::HistogramDb;
use crate::deadline::{Deadline, DEADLINE_NOTE};
use crate::error::PipelineError;
use crate::histogram::Histogram;
use crate::lower_bounds::{DistanceKernel, DistanceMeasure};
use crate::stats::{stage, QueryStats};
use earthmover_obs::{self as obs, names};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Marks `stats` as cut short by its deadline (flag + degradation note).
fn expire(stats: &mut QueryStats) {
    stats.deadline_expired = true;
    stats.record_degradation_once(DEADLINE_NOTE);
}

/// Runs `f`, adding its wall-clock time to `acc`. The per-stage timing
/// backbone: cheap enough (two monotonic clock reads) to wrap individual
/// filter evaluations, whose cost is dominated by the distance math.
#[inline]
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// The outcome of a multistep query: result objects with their exact
/// distances (ascending), plus the work performed.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// `(object id, exact distance)` pairs sorted by ascending distance
    /// (ties by id).
    pub items: Vec<(usize, f64)>,
    /// Work counters and timing.
    pub stats: QueryStats,
}

/// Max-heap entry over `(distance, id)` used to maintain the current
/// k-nearest candidates.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    id: usize,
}

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

fn sort_items(mut items: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
    items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    items
}

/// ε-range query: `{ o ∈ DB : dist_exact(q, o) ≤ ε }`.
///
/// The candidate source pre-selects with its (lower-bounding) filter at
/// the same ε; each intermediate filter then prunes candidates whose
/// bound already exceeds ε; survivors are refined with the exact
/// distance. Completeness follows from the lower-bounding lemma of §3.3.
pub fn range_query(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    epsilon: f64,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
) -> Result<QueryResult, PipelineError> {
    range_query_within(
        source,
        db,
        q,
        epsilon,
        intermediates,
        exact,
        Deadline::none(),
    )
}

/// [`range_query`] under a wall-clock budget. When `deadline` expires the
/// refinement loop stops where it is and the result set built so far is
/// returned, with [`QueryStats::deadline_expired`] set and a degradation
/// note recorded. Distances in a partial result are still exact; objects
/// never reached are simply absent.
pub fn range_query_within(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    epsilon: f64,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
    deadline: Deadline,
) -> Result<QueryResult, PipelineError> {
    let mut span = obs::span!(names::RANGE_QUERY, epsilon = epsilon);
    let start = Instant::now();
    let mut stats = QueryStats {
        db_size: db.len(),
        ..Default::default()
    };

    let mut source_time = Duration::ZERO;
    let (candidates, cost) = timed(&mut source_time, || source.range(q, epsilon))?;
    stats.add_filter_evaluations(source.name(), cost.filter_evaluations);
    stats.node_accesses += cost.node_accesses;

    // Compile every measure against the query once; candidates are then
    // evaluated straight off their arena rows.
    let kernels: Vec<Box<dyn DistanceKernel + '_>> =
        intermediates.iter().map(|f| f.prepare(q)).collect();
    let exact_kernel = exact.prepare(q);

    let mut filter_times: Vec<Duration> = vec![Duration::ZERO; intermediates.len()];
    let mut exact_time = Duration::ZERO;
    let mut items = Vec::new();
    'candidates: for (id, _) in candidates {
        if deadline.expired() {
            expire(&mut stats);
            break;
        }
        let h = db.try_row(id)?;
        for ((fi, filter), kernel) in intermediates.iter().enumerate().zip(&kernels) {
            stats.add_filter_evaluations(filter.name(), 1);
            if timed(&mut filter_times[fi], || kernel.eval(h.bins())) > epsilon {
                continue 'candidates;
            }
        }
        stats.exact_evaluations += 1;
        let (d, note) = timed(&mut exact_time, || exact_kernel.try_eval_noted(h.bins()))?;
        if let Some(note) = note {
            stats.record_degradation_once(note);
        }
        if d <= epsilon {
            items.push((id, d));
        }
    }

    stats.add_stage_elapsed(stage::CANDIDATES, source_time);
    for (filter, t) in intermediates.iter().zip(filter_times) {
        stats.add_stage_elapsed(filter.name(), t);
    }
    stats.add_stage_elapsed(stage::EXACT, exact_time);

    let items = sort_items(items);
    stats.results = items.len() as u64;
    stats.set_elapsed(start.elapsed());
    span.record("exact_evaluations", stats.exact_evaluations as f64);
    span.record("results", stats.results as f64);
    Ok(QueryResult { items, stats })
}

/// GEMINI k-NN (Faloutsos et al., §3.2 of the paper):
///
/// 1. fetch the `k` nearest objects *by filter distance*,
/// 2. refine them exactly; the largest exact distance becomes `ε'`,
/// 3. run a filter range query with `ε'` and refine every candidate.
///
/// Correct and complete, but `ε'` never shrinks once set — the
/// inefficiency the optimal algorithm removes.
pub fn gemini_knn(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    exact: &dyn DistanceMeasure,
) -> Result<QueryResult, PipelineError> {
    gemini_knn_within(source, db, q, k, exact, Deadline::none())
}

/// [`gemini_knn`] under a wall-clock budget. An expired deadline stops
/// refinement between candidates; whatever has been refined so far is
/// ranked and truncated to `k`, with [`QueryStats::deadline_expired`]
/// set. A partial GEMINI answer is a best-effort k-NN estimate: reported
/// distances are exact, but an unrefined candidate could have displaced a
/// reported one.
pub fn gemini_knn_within(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    exact: &dyn DistanceMeasure,
    deadline: Deadline,
) -> Result<QueryResult, PipelineError> {
    let mut span = obs::span!(names::GEMINI_KNN, k = k);
    let start = Instant::now();
    let mut stats = QueryStats {
        db_size: db.len(),
        ..Default::default()
    };
    if k == 0 || db.is_empty() {
        stats.set_elapsed(start.elapsed());
        return Ok(QueryResult {
            items: Vec::new(),
            stats,
        });
    }
    // No answer holds more rows than the database: `k` arrives off the
    // wire unchecked and sizes the allocations below.
    let k = k.min(db.len());

    let mut source_time = Duration::ZERO;
    let mut exact_time = Duration::ZERO;
    let exact_kernel = exact.prepare(q);

    // Step 1: k candidates by filter distance.
    let mut cursor = timed(&mut source_time, || source.ranking(q))?;
    let mut primaries = Vec::with_capacity(k);
    while primaries.len() < k {
        match timed(&mut source_time, || cursor.next())? {
            Some((id, _)) => primaries.push(id),
            None => break,
        }
    }
    let cost = cursor.cost();
    stats.add_filter_evaluations(source.name(), cost.filter_evaluations);
    stats.node_accesses += cost.node_accesses;

    // Step 2: exact distances of the primaries define ε'.
    let mut evaluated: Vec<(usize, f64)> = Vec::new();
    let mut epsilon = 0.0f64;
    for &id in &primaries {
        if deadline.expired() {
            expire(&mut stats);
            break;
        }
        stats.exact_evaluations += 1;
        let row = db.try_row(id)?;
        let (d, note) = timed(&mut exact_time, || exact_kernel.try_eval_noted(row.bins()))?;
        if let Some(note) = note {
            stats.record_degradation_once(note);
        }
        epsilon = epsilon.max(d);
        evaluated.push((id, d));
    }

    // Step 3: filter range query at ε', refine everything not yet
    // refined. Skipped entirely once the deadline has fired — ε' from a
    // partial step 2 would make the extra work meaningless anyway.
    if !stats.deadline_expired {
        let (candidates, cost) = timed(&mut source_time, || source.range(q, epsilon))?;
        stats.add_filter_evaluations(source.name(), cost.filter_evaluations);
        stats.node_accesses += cost.node_accesses;
        for (id, _) in candidates {
            if evaluated.iter().any(|(e, _)| *e == id) {
                continue;
            }
            if deadline.expired() {
                expire(&mut stats);
                break;
            }
            stats.exact_evaluations += 1;
            let row = db.try_row(id)?;
            let (d, note) = timed(&mut exact_time, || exact_kernel.try_eval_noted(row.bins()))?;
            if let Some(note) = note {
                stats.record_degradation_once(note);
            }
            evaluated.push((id, d));
        }
    }

    stats.add_stage_elapsed(stage::CANDIDATES, source_time);
    stats.add_stage_elapsed(stage::EXACT, exact_time);

    let mut items = sort_items(evaluated);
    items.truncate(k);
    stats.results = items.len() as u64;
    stats.set_elapsed(start.elapsed());
    span.record("exact_evaluations", stats.exact_evaluations as f64);
    Ok(QueryResult { items, stats })
}

/// Most candidates the optimal k-NN loop holds pulled from the ranking but
/// not yet refined. Each waiting candidate owns a copy of its row, so this
/// bounds the per-query copies whatever `k` is (`k` arrives off the wire).
const LOOKAHEAD: usize = 40;

/// A candidate pulled from the ranking and screened by the intermediate
/// filters, waiting to be refined. Ordered by its tightest lower bound,
/// then by pull order, so a min-heap refines the smallest bound first.
#[derive(Debug)]
struct Pending {
    bound: f64,
    seq: usize,
    id: usize,
    /// A copy of the row's bins: no row lease outlives the pull, so a
    /// paged pool of one or two frames still answers.
    row: Vec<f64>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Optimal multistep k-NN (Seidl & Kriegel, SIGMOD 1998), refined in
/// lower-bound order.
///
/// Candidates arrive from the source in nondecreasing filter-distance
/// order. Each pulled candidate is screened by the intermediate filters
/// and then waits, at most `LOOKAHEAD` (40) at a time, keyed by its
/// tightest lower bound: the largest of its filter distance and its
/// intermediate values. The loop refines the smallest waiting bound first
/// and pulls from the ranking only while the next filter distance could
/// come before it. The pruning radius `ε'` (the current k-th best exact
/// distance) *shrinks as refinements happen*: a waiting candidate whose
/// bound exceeds it is dropped unrefined, and the stream stops as soon as
/// the next filter distance exceeds it.
///
/// Without intermediates the refinement order is the ranking's, and the
/// loop does provably the minimum number of exact-distance computations
/// any complete multistep algorithm can do with this filter. With an
/// intermediate as tight as LB_IM, refining by the tighter bound first
/// brings `ε'` near the true k-th distance while few solves have
/// happened, so fewer candidates survive to be refined. The answer does
/// not depend on the order: it is the top k under `(distance, id)`.
pub fn optimal_knn(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
) -> Result<QueryResult, PipelineError> {
    optimal_knn_within(source, db, q, k, intermediates, exact, Deadline::none())
}

/// [`optimal_knn`] under a wall-clock budget. An expired deadline stops
/// the loop between two steps (never mid-refinement). The best k of the
/// candidates refined so far are returned as a best-effort partial answer
/// with [`QueryStats::deadline_expired`] set. Reported distances are
/// exact, but a candidate still waiting or not yet pulled could have
/// displaced a reported one.
pub fn optimal_knn_within(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
    deadline: Deadline,
) -> Result<QueryResult, PipelineError> {
    optimal_knn_relaxed_within(source, db, q, k, 0.0, intermediates, exact, deadline)
}

/// ε-relaxed optimal multistep k-NN — the approximate tier's refinement
/// loop (see [`crate::sketch_tier::RetrievalMode::Approximate`]).
///
/// Identical to [`optimal_knn_within`] except that the stream-stop and
/// prune conditions test against `ε' / (1 + relax)` instead of the
/// current k-th best distance `ε'`. A candidate is only skipped when one
/// of its *lower bounds* exceeds `ε' / (1 + relax)`, i.e. when its exact
/// distance is provably larger than `d_k(final) / (1 + relax)` (the
/// pruning radius only shrinks as refinement proceeds, in whatever order).
/// Every reported distance is therefore at most `(1 + relax)` times the
/// true k-th nearest distance, while the looser cutoff stops the stream
/// earlier and prunes more candidates before exact-EMD refinement.
/// Reported distances are still exact EMDs.
///
/// `relax = 0.0` reproduces [`optimal_knn_within`] bit for bit (the
/// threshold divides by exactly 1.0); a non-finite or negative `relax`
/// is treated as `0.0`.
#[allow(clippy::too_many_arguments)]
#[expect(clippy::float_cmp, reason = "a tie at the k-th distance breaks on id")]
pub fn optimal_knn_relaxed_within(
    source: &dyn CandidateSource,
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    relax: f64,
    intermediates: &[&dyn DistanceMeasure],
    exact: &dyn DistanceMeasure,
    deadline: Deadline,
) -> Result<QueryResult, PipelineError> {
    let relax = if relax.is_finite() && relax > 0.0 {
        relax
    } else {
        0.0
    };
    let mut span = obs::span!(names::OPTIMAL_KNN, k = k, relax = relax);
    let start = Instant::now();
    let mut stats = QueryStats {
        db_size: db.len(),
        ..Default::default()
    };
    if k == 0 || db.is_empty() {
        stats.set_elapsed(start.elapsed());
        return Ok(QueryResult {
            items: Vec::new(),
            stats,
        });
    }
    let k = k.min(db.len()); // untrusted, and sizes the allocations below

    let mut source_time = Duration::ZERO;
    let mut filter_times: Vec<Duration> = vec![Duration::ZERO; intermediates.len()];
    let mut exact_time = Duration::ZERO;

    // One query-compiled kernel per measure, shared by every candidate.
    let kernels: Vec<Box<dyn DistanceKernel + '_>> =
        intermediates.iter().map(|f| f.prepare(q)).collect();
    let exact_kernel = exact.prepare(q);

    let mut cursor = timed(&mut source_time, || source.ranking(q))?;
    // The candidate source is the first `filter_evaluations` entry; its
    // count is known only once the cursor is drained.
    stats.add_filter_evaluations(source.name(), 0);
    // Max-heap of the best k exact distances seen so far.
    let mut best: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    // Min-heap of the screened candidates awaiting refinement.
    let mut pending: BinaryHeap<Reverse<Pending>> = BinaryHeap::with_capacity(LOOKAHEAD);
    // The next ranked candidate, fetched but not yet taken; `stream_done`
    // once the ranking is exhausted or can no longer improve the answer.
    let mut next: Option<(usize, f64)> = None;
    let mut stream_done = false;
    let mut pulled = 0usize;
    let mut pending_max = 0usize;

    'step: loop {
        if deadline.expired() {
            expire(&mut stats);
            break;
        }
        let full = best.len() == k;
        // `full` guarantees the heap is nonempty (k > 0 checked above).
        let epsilon = match best.peek() {
            Some(top) if full => top.dist,
            _ => f64::INFINITY,
        };
        // Relaxed pruning radius: with relax = 0 this is exactly ε'.
        let threshold = epsilon / (1.0 + relax);

        if next.is_none() && !stream_done && pending.len() < LOOKAHEAD {
            next = timed(&mut source_time, || cursor.next())?;
            stream_done = next.is_none();
        }
        if full && next.is_some_and(|(_, filter_dist)| filter_dist > threshold) {
            // No remaining object can improve the result by > (1+relax).
            next = None;
            stream_done = true;
        }
        if let Some((id, filter_dist)) = next {
            let before_min = pending
                .peek()
                .is_none_or(|Reverse(min)| filter_dist <= min.bound);
            if before_min && pending.len() < LOOKAHEAD {
                next = None;
                pulled += 1;
                let h = db.try_row(id)?;
                let mut bound = filter_dist;
                for ((fi, filter), kernel) in intermediates.iter().enumerate().zip(&kernels) {
                    stats.add_filter_evaluations(filter.name(), 1);
                    let lb = timed(&mut filter_times[fi], || kernel.eval(h.bins()));
                    if lb > threshold {
                        continue 'step;
                    }
                    bound = bound.max(lb);
                }
                pending.push(Reverse(Pending {
                    bound,
                    seq: pulled,
                    id,
                    row: h.bins().to_vec(),
                }));
                pending_max = pending_max.max(pending.len());
                continue;
            }
        }

        // Nothing to pull before the smallest waiting bound: refine it.
        let Some(Reverse(cand)) = pending.pop() else {
            break; // nothing waits, and the stream is done
        };
        if full && cand.bound > threshold {
            // Every other waiting bound is at least as large.
            pending.clear();
            continue;
        }
        stats.exact_evaluations += 1;
        let (d, note) = timed(&mut exact_time, || exact_kernel.try_eval_noted(&cand.row))?;
        if let Some(note) = note {
            stats.record_degradation_once(note);
        }
        let id = cand.id;
        if !full {
            best.push(HeapEntry { dist: d, id });
        } else if d < epsilon || (d == epsilon && best.peek().is_some_and(|top| id < top.id)) {
            best.pop();
            best.push(HeapEntry { dist: d, id });
        }
    }

    let cost = cursor.cost();
    stats.add_filter_evaluations(source.name(), cost.filter_evaluations);
    stats.node_accesses += cost.node_accesses;

    stats.add_stage_elapsed(stage::CANDIDATES, source_time);
    for (filter, t) in intermediates.iter().zip(filter_times) {
        stats.add_stage_elapsed(filter.name(), t);
    }
    stats.add_stage_elapsed(stage::EXACT, exact_time);

    let items = sort_items(best.into_iter().map(|e| (e.id, e.dist)).collect());
    stats.results = items.len() as u64;
    stats.set_elapsed(start.elapsed());
    span.record("exact_evaluations", stats.exact_evaluations as f64);
    span.record("pulled", pulled as f64);
    span.record("pending_max", pending_max as f64);
    Ok(QueryResult { items, stats })
}

/// The baseline the paper compares against: a sequential scan evaluating
/// the exact distance for every database object.
pub fn linear_scan_knn(
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    exact: &dyn DistanceMeasure,
) -> Result<QueryResult, PipelineError> {
    linear_scan_knn_within(db, q, k, exact, Deadline::none())
}

/// [`linear_scan_knn`] under a wall-clock budget. An expired deadline
/// stops the scan; the k-best heap over the scanned prefix is returned
/// with [`QueryStats::deadline_expired`] set.
pub fn linear_scan_knn_within(
    db: &HistogramDb,
    q: &Histogram,
    k: usize,
    exact: &dyn DistanceMeasure,
    deadline: Deadline,
) -> Result<QueryResult, PipelineError> {
    let mut span = obs::span!(names::LINEAR_SCAN_KNN, k = k);
    let start = Instant::now();
    let mut stats = QueryStats {
        db_size: db.len(),
        ..Default::default()
    };
    if k == 0 || db.is_empty() {
        stats.set_elapsed(start.elapsed());
        return Ok(QueryResult {
            items: Vec::new(),
            stats,
        });
    }
    let k = k.min(db.len()); // untrusted, and sizes the allocations below
    let mut exact_time = Duration::ZERO;
    let exact_kernel = exact.prepare(q);
    let mut best: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for id in 0..db.len() {
        if deadline.expired() {
            expire(&mut stats);
            break;
        }
        let h = db.try_row(id)?;
        stats.exact_evaluations += 1;
        let (d, note) = timed(&mut exact_time, || exact_kernel.try_eval_noted(h.bins()))?;
        if let Some(note) = note {
            stats.record_degradation_once(note);
        }
        best.push(HeapEntry { dist: d, id });
        if best.len() > k {
            best.pop();
        }
    }
    stats.add_stage_elapsed(stage::EXACT, exact_time);
    let items = sort_items(best.into_iter().map(|e| (e.id, e.dist)).collect());
    stats.results = items.len() as u64;
    stats.set_elapsed(start.elapsed());
    span.record("exact_evaluations", stats.exact_evaluations as f64);
    Ok(QueryResult { items, stats })
}

#[cfg(test)]
mod tests {
    use super::super::source::ScanSource;
    use super::*;
    use crate::ground::BinGrid;
    use crate::lower_bounds::test_support::random_histogram;
    use crate::lower_bounds::{ExactEmd, LbIm, LbManhattan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(count: usize, seed: u64) -> (BinGrid, HistogramDb) {
        let grid = BinGrid::new(vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = HistogramDb::new(grid.num_bins());
        for _ in 0..count {
            db.push(random_histogram(&mut rng, grid.num_bins()));
        }
        (grid, db)
    }

    #[test]
    fn optimal_knn_matches_linear_scan() {
        let (grid, db) = setup(80, 11);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = random_histogram(&mut StdRng::seed_from_u64(5000), grid.num_bins());
        for k in [1, 3, 10] {
            let multi = optimal_knn(&source, &db, &q, k, &[], &exact).unwrap();
            let brute = linear_scan_knn(&db, &q, k, &exact).unwrap();
            let md: Vec<f64> = multi.items.iter().map(|(_, d)| *d).collect();
            let bd: Vec<f64> = brute.items.iter().map(|(_, d)| *d).collect();
            assert_eq!(md.len(), bd.len());
            for (a, b) in md.iter().zip(&bd) {
                assert!((a - b).abs() < 1e-9, "k={k}: {md:?} vs {bd:?}");
            }
            // The whole point: fewer exact evaluations than the scan.
            assert!(multi.stats.exact_evaluations <= brute.stats.exact_evaluations);
        }
    }

    #[test]
    fn gemini_knn_matches_linear_scan() {
        let (grid, db) = setup(60, 12);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = random_histogram(&mut StdRng::seed_from_u64(6000), grid.num_bins());
        for k in [1, 5] {
            let multi = gemini_knn(&source, &db, &q, k, &exact).unwrap();
            let brute = linear_scan_knn(&db, &q, k, &exact).unwrap();
            let md: Vec<f64> = multi.items.iter().map(|(_, d)| *d).collect();
            let bd: Vec<f64> = brute.items.iter().map(|(_, d)| *d).collect();
            for (a, b) in md.iter().zip(&bd) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn optimal_never_refines_more_than_gemini() {
        // The optimality theorem: candidate count of the optimal algorithm
        // is minimal, so in particular ≤ GEMINI's.
        let (grid, db) = setup(100, 13);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        for seed in 0..5 {
            let q = random_histogram(&mut StdRng::seed_from_u64(7000 + seed), grid.num_bins());
            let opt = optimal_knn(&source, &db, &q, 5, &[], &exact).unwrap();
            let gem = gemini_knn(&source, &db, &q, 5, &exact).unwrap();
            assert!(
                opt.stats.exact_evaluations <= gem.stats.exact_evaluations,
                "seed {seed}: optimal {} > gemini {}",
                opt.stats.exact_evaluations,
                gem.stats.exact_evaluations
            );
        }
    }

    #[test]
    fn range_query_matches_brute_force() {
        let (grid, db) = setup(70, 14);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);
        let q = random_histogram(&mut StdRng::seed_from_u64(8000), grid.num_bins());
        for eps in [0.02, 0.08, 0.2] {
            let result = range_query(&source, &db, &q, eps, &[&im], &exact).unwrap();
            let mut expect: Vec<(usize, f64)> = db
                .iter()
                .map(|(id, h)| (id, exact.distance(&q, &h.to_histogram())))
                .filter(|(_, d)| *d <= eps)
                .collect();
            expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(result.items.len(), expect.len(), "eps {eps}");
            for ((ida, da), (idb, db_)) in result.items.iter().zip(&expect) {
                assert_eq!(ida, idb);
                assert!((da - db_).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn intermediate_filter_reduces_exact_evaluations() {
        let (grid, db) = setup(120, 15);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);
        let q = random_histogram(&mut StdRng::seed_from_u64(9000), grid.num_bins());
        let without = optimal_knn(&source, &db, &q, 5, &[], &exact).unwrap();
        let with = optimal_knn(&source, &db, &q, 5, &[&im], &exact).unwrap();
        // Same results...
        let a: Vec<f64> = without.items.iter().map(|(_, d)| *d).collect();
        let b: Vec<f64> = with.items.iter().map(|(_, d)| *d).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
        // ...with no more (usually fewer) exact refinements.
        assert!(with.stats.exact_evaluations <= without.stats.exact_evaluations);
    }

    #[test]
    fn k_zero_and_empty_db() {
        let (grid, db) = setup(10, 16);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = db.get(0).to_histogram();
        assert!(optimal_knn(&source, &db, &q, 0, &[], &exact)
            .unwrap()
            .items
            .is_empty());
        assert!(gemini_knn(&source, &db, &q, 0, &exact)
            .unwrap()
            .items
            .is_empty());

        let empty = HistogramDb::new(grid.num_bins());
        let esource = ScanSource::new(&empty, LbManhattan::new(&cost));
        assert!(optimal_knn(&esource, &empty, &q, 3, &[], &exact)
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn k_larger_than_db_returns_everything() {
        let (grid, db) = setup(7, 17);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = db.get(0).to_histogram();
        let r = optimal_knn(&source, &db, &q, 50, &[], &exact).unwrap();
        assert_eq!(r.items.len(), 7);
        let g = gemini_knn(&source, &db, &q, 50, &exact).unwrap();
        assert_eq!(g.items.len(), 7);
    }

    #[test]
    fn stage_timings_cover_every_pipeline_stage() {
        let (grid, db) = setup(80, 19);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);
        let q = random_histogram(&mut StdRng::seed_from_u64(9500), grid.num_bins());
        let r = optimal_knn(&source, &db, &q, 5, &[&im], &exact).unwrap();
        let s = &r.stats;
        // The candidate source leads the filter counts, k-NN and range.
        let stages = |s: &QueryStats| -> Vec<String> {
            s.filter_evaluations
                .iter()
                .map(|(n, _)| n.clone())
                .collect()
        };
        assert_eq!(stages(s), [source.name(), "LB_IM"]);
        let range = range_query(&source, &db, &q, 0.2, &[&im], &exact).unwrap();
        assert_eq!(stages(&range.stats), [source.name(), "LB_IM"]);
        // All three stages appear, and exact refinement took real time.
        assert!(s.stage_time(stage::CANDIDATES).is_some());
        assert!(s.stage_time("LB_IM").is_some());
        assert!(s.stage_time(stage::EXACT).unwrap() > Duration::ZERO);
        // The breakdown never exceeds the total.
        let stage_sum: Duration = s.stage_elapsed.iter().map(|(_, d)| *d).sum();
        assert!(stage_sum <= s.elapsed, "{stage_sum:?} > {:?}", s.elapsed);
        assert_eq!(s.elapsed_max, s.elapsed, "single query: max == total");
    }

    /// An exact measure that reports a solver-degradation note on every
    /// pair — exercises the rung plumbing without needing a pathological
    /// transportation instance.
    struct DegradedExact(ExactEmd);
    impl DistanceMeasure for DegradedExact {
        fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
            self.0.distance(x, y)
        }
        fn try_distance_noted(
            &self,
            x: &Histogram,
            y: &Histogram,
        ) -> Result<(f64, Option<&'static str>), PipelineError> {
            self.0
                .try_distance(x, y)
                .map(|d| (d, Some("stub: solver recovered via Bland's rule")))
        }
        fn name(&self) -> &'static str {
            "EMD"
        }
    }

    #[test]
    fn solver_rung_notes_surface_once_in_degradations() {
        let (grid, db) = setup(40, 20);
        let cost = grid.cost_matrix();
        let exact = DegradedExact(ExactEmd::new(cost.clone()));
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = random_histogram(&mut StdRng::seed_from_u64(9600), grid.num_bins());
        for result in [
            optimal_knn(&source, &db, &q, 5, &[], &exact).unwrap(),
            gemini_knn(&source, &db, &q, 5, &exact).unwrap(),
            range_query(&source, &db, &q, 0.2, &[], &exact).unwrap(),
            linear_scan_knn(&db, &q, 5, &exact).unwrap(),
        ] {
            assert!(result.stats.exact_evaluations > 1);
            assert_eq!(
                result.stats.degradations,
                vec!["stub: solver recovered via Bland's rule".to_string()],
                "many degraded evaluations must collapse to one note"
            );
        }
    }

    #[test]
    fn relaxed_with_zero_slack_is_the_exact_algorithm() {
        let (grid, db) = setup(90, 21);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);
        let q = random_histogram(&mut StdRng::seed_from_u64(9700), grid.num_bins());
        let strict = optimal_knn(&source, &db, &q, 5, &[&im], &exact).unwrap();
        let relaxed =
            optimal_knn_relaxed_within(&source, &db, &q, 5, 0.0, &[&im], &exact, Deadline::none())
                .unwrap();
        assert_eq!(strict.items, relaxed.items);
        assert_eq!(
            strict.stats.exact_evaluations,
            relaxed.stats.exact_evaluations
        );
        // Garbage slack values degrade to exact, not to nonsense.
        let nan = optimal_knn_relaxed_within(
            &source,
            &db,
            &q,
            5,
            f64::NAN,
            &[&im],
            &exact,
            Deadline::none(),
        )
        .unwrap();
        assert_eq!(strict.items, nan.items);
    }

    #[test]
    fn relaxed_knn_honors_the_distance_ratio_guarantee() {
        let (grid, db) = setup(100, 22);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let im = LbIm::new(&cost);
        let k = 5;
        // Without intermediates the loop refines in ranking order; with
        // LB_IM it refines in lower-bound order.
        let chains: [&[&dyn DistanceMeasure]; 2] = [&[], &[&im]];
        for seed in 0..4 {
            let q = random_histogram(&mut StdRng::seed_from_u64(9800 + seed), grid.num_bins());
            let truth = linear_scan_knn(&db, &q, k, &exact).unwrap();
            let true_kth = truth.items.last().unwrap().1;
            for intermediates in chains {
                for relax in [0.25, 0.5, 1.0, 4.0] {
                    let r = optimal_knn_relaxed_within(
                        &source,
                        &db,
                        &q,
                        k,
                        relax,
                        intermediates,
                        &exact,
                        Deadline::none(),
                    )
                    .unwrap();
                    assert_eq!(r.items.len(), k);
                    for (_, d) in &r.items {
                        assert!(
                            *d <= (1.0 + relax) * true_kth + 1e-9,
                            "seed {seed} relax {relax}: {d} > (1+eps) * {true_kth}"
                        );
                    }
                    // More slack never costs more refinements than exact.
                    let strict = optimal_knn(&source, &db, &q, k, intermediates, &exact).unwrap();
                    assert!(r.stats.exact_evaluations <= strict.stats.exact_evaluations);
                }
            }
        }
    }

    #[test]
    fn query_in_db_is_its_own_nearest_neighbor() {
        let (grid, db) = setup(30, 18);
        let cost = grid.cost_matrix();
        let exact = ExactEmd::new(cost.clone());
        let source = ScanSource::new(&db, LbManhattan::new(&cost));
        let q = db.get(7).to_histogram();
        let r = optimal_knn(&source, &db, &q, 1, &[], &exact).unwrap();
        assert!(r.items[0].1 < 1e-12);
    }
}
