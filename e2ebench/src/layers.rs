//! The traced run: per-layer metrics, all taken from outside.
//!
//! One client sends a fixed prefix of the workload's request stream
//! through the served path (counts from the returned `QueryStats`, the
//! pool, the filter cache and the cluster registry). The same requests
//! run in-process on a `QueryEngine` built as the server builds its own,
//! and once more through the public `multistep` entry points with the
//! sources and filters `EngineBuilder::build` picks, each wrapped in a
//! [`crate::trace`] decorator. The decorated run must return the engine's
//! answer; its spans give each layer's self time. Codec, connect,
//! round-trip and cold block loads are timed by direct calls into the
//! layers' public functions.
//!
//! Every `*.busy_frac` is a share of the client-observed time of the
//! served pass; together with `bench.unaccounted_frac` they sum to 1.
//! Engine-side shares are the decorated run's proportions applied to the
//! server's own clock for the query (`QueryStats::elapsed`).

use crate::inputs::{Inputs, Op, Req, SHARDS};
use crate::load::{self, median, radius, retrieval_mode, Drive};
use crate::oracle;
use crate::run::{prepare, Prepared, RunArgs, RunResult};
use crate::serving::{self, Running, StartOptions, IO_TIMEOUT, SKETCH_SEED};
use crate::spec::{Kind, EPSILON, K, PER_LAYER, POOL_BYTES};
use crate::trace::{self, Recorder, Span, TimedMeasure, TimedSource, TimedVfs, NO_PARENT};
use earthmover_core::lower_bounds::{DistanceMeasure, ExactEmd, LbAvg, LbIm};
use earthmover_core::multistep::{
    optimal_knn_relaxed_within, range_query_within, CandidateSource, RtreeSource, ScanSource,
};
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::reduce::AvgReducer;
use earthmover_core::stats::QueryStats;
use earthmover_core::{storage, Deadline, HistogramDb, RetrievalMode, SketchTier};
use earthmover_obs::RingRecorder;
use earthmover_serve::client::{Client, Outcome};
use earthmover_serve::coord::shard_of;
use earthmover_serve::protocol::{self, Request, Response, DEFAULT_MAX_FRAME_LEN};
use earthmover_storage::{BlockPool, ColumnStore};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests whose spans are written to the trace file in full.
const DUMP_REQUESTS: u32 = 20;

/// Requests per block of the traced pass (see [`run_pass`]).
const BLOCK: usize = 16;

/// `(row, distance)` pairs of an answer, rows in corpus ids.
type Items = Vec<(usize, f64)>;

/// Metric name → value, filled in as the run goes.
type Values = HashMap<&'static str, f64>;

/// Requests of the traced pass at the contract's 24 s run length; other
/// lengths scale it. A fixed count, so every work counter repeats
/// exactly.
fn traced_requests(kind: Kind, seconds: f64, stream: usize) -> usize {
    let base = match kind {
        Kind::RefineMixed | Kind::WireSketch => 480.0,
        Kind::ScanPaged => 144.0,
        Kind::Cluster => 192.0,
    };
    ((base * seconds / 24.0).round() as usize).clamp(4.min(stream), stream)
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One served request of the traced pass.
struct Served {
    req: Req,
    latency_s: f64,
    /// The server's own clock for the query (`QueryStats::elapsed`); on
    /// the cluster, the slowest leg's.
    engine_s: f64,
    items: Items,
    stats: QueryStats,
}

/// The traced pass's one client: a kept connection, or a fresh one per
/// request.
struct Session<'a> {
    drive: Drive<'a>,
    kept: Option<Client>,
}

impl<'a> Session<'a> {
    fn connect(drive: &Drive<'_>) -> Result<Client, String> {
        Client::connect(drive.addr, IO_TIMEOUT).map_err(|e| format!("connect {}: {e}", drive.addr))
    }

    /// A session on one kept connection.
    fn kept(drive: Drive<'a>) -> Result<Self, String> {
        let kept = Some(Self::connect(&drive)?);
        Ok(Session { drive, kept })
    }

    /// What the workload's clients do: fresh connections on the wire
    /// workload, a kept one elsewhere.
    fn for_workload(drive: Drive<'a>) -> Result<Self, String> {
        if drive.inputs.workload.kind == Kind::WireSketch {
            Ok(Session { drive, kept: None })
        } else {
            Self::kept(drive)
        }
    }

    /// Sends `req` and returns its complete answer; anything else fails
    /// the run.
    fn ask(&mut self, req: Req) -> Result<Served, String> {
        let started = Instant::now();
        let mut fresh;
        let client = match self.kept.as_mut() {
            Some(client) => client,
            None => {
                fresh = Self::connect(&self.drive)?;
                &mut fresh
            }
        };
        match load::send(client, &self.drive, req) {
            Ok(Outcome::Complete { items, stats }) => Ok(Served {
                req,
                latency_s: started.elapsed().as_secs_f64(),
                engine_s: stats
                    .provenance
                    .iter()
                    .max_by_key(|leg| leg.latency)
                    .map_or(stats.elapsed, |leg| leg.stats.elapsed)
                    .as_secs_f64(),
                items: items.into_iter().map(|(id, d)| (id as usize, d)).collect(),
                stats,
            }),
            other => Err(format!("{req:?} was not answered completely: {other:?}")),
        }
    }
}

/// Nanoseconds per call of `f`: the median of five batches' means.
fn per_call_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    const BATCH: u32 = 40;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}

/// Codec cost on the run's real frames, averaged over a sample of them:
/// seconds of encode + decode of both frames per request. Fills in the
/// `protocol.*` metrics.
fn protocol_costs(prepared: &Prepared, served: &[Served], v: &mut Values) -> Result<f64, String> {
    let wire = |e: protocol::WireError| format!("codec: {e}");
    let inputs = &prepared.inputs;
    let sample: Vec<&Served> = served.iter().step_by((served.len() / 32).max(1)).collect();
    let (mut ns, mut req_bytes, mut resp_bytes) = ([0.0; 4], 0.0, 0.0);
    for (id, s) in sample.iter().enumerate() {
        let histogram = inputs.queries[s.req.query].clone();
        let request = match s.req.op {
            Op::Range => Request::Range {
                epsilon: radius(&prepared.truth, s.req.query),
                deadline_us: 0,
                histogram,
            },
            Op::Knn | Op::Approx => Request::Knn {
                k: K as u32,
                deadline_us: 0,
                histogram,
            },
        };
        let mode = retrieval_mode(inputs.workload.kind, s.req.op);
        let response = Response::Results {
            items: s.items.iter().map(|(id, d)| (*id as u64, *d)).collect(),
            stats: s.stats.clone(),
        };
        let id = id as u64 + 1;
        let req_frame = protocol::encode_request_full(id, &request, None, mode).map_err(wire)?;
        let resp_frame = protocol::encode_response(id, &response);
        // The frame must be the one the client sent: it has to decode
        // back to the request.
        let decoded = protocol::read_frame(&mut &req_frame[..], DEFAULT_MAX_FRAME_LEN)
            .map_err(wire)?
            .ok_or("codec: empty request frame")?
            .into_request_ext()
            .map_err(wire)?;
        if decoded.0 != request || decoded.1.mode != mode {
            return Err("codec: request did not round-trip".to_string());
        }
        ns[0] += per_call_ns(|| protocol::encode_request_full(id, &request, None, mode));
        ns[1] += per_call_ns(|| {
            protocol::read_frame(&mut &req_frame[..], DEFAULT_MAX_FRAME_LEN)
                .map(|f| f.map(protocol::RawFrame::into_request_ext))
        });
        ns[2] += per_call_ns(|| protocol::encode_response(id, &response));
        ns[3] += per_call_ns(|| {
            protocol::read_frame(&mut &resp_frame[..], DEFAULT_MAX_FRAME_LEN)
                .map(|f| f.map(protocol::RawFrame::into_response))
        });
        req_bytes += req_frame.len() as f64;
        resp_bytes += resp_frame.len() as f64;
    }
    let n = sample.len().max(1) as f64;
    let names = [
        "protocol.encode_req_ns",
        "protocol.decode_req_ns",
        "protocol.encode_resp_ns",
        "protocol.decode_resp_ns",
    ];
    for (name, total) in names.into_iter().zip(ns) {
        v.insert(name, total / n);
    }
    v.insert("protocol.req_bytes", req_bytes / n);
    v.insert("protocol.resp_bytes", resp_bytes / n);
    Ok(ns.iter().sum::<f64>() / n * 1e-9)
}

/// Median `health()` round trip on a warm connection, and median extra
/// cost of a fresh connection made right after the previous one closed
/// (accept poll + queue hand-off), in seconds.
fn round_trip_costs(addr: SocketAddr) -> Result<(f64, f64), String> {
    let err = |e| format!("health probe: {e}");
    let mut warm = Client::connect(addr, IO_TIMEOUT).map_err(err)?;
    warm.health().map_err(err)?;
    let mut floor = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        warm.health().map_err(err)?;
        floor.push(started.elapsed().as_secs_f64());
    }
    drop(warm);
    let floor = median(&floor);
    let mut fresh = Vec::new();
    for _ in 0..100 {
        let started = Instant::now();
        Client::connect(addr, IO_TIMEOUT)
            .and_then(|mut c| c.health())
            .map_err(err)?;
        fresh.push(started.elapsed().as_secs_f64());
    }
    Ok((floor, (median(&fresh) - floor).max(0.0)))
}

/// The multistep pipeline as `EngineBuilder::build` composes it, every
/// stage decorated.
struct Composed<'a> {
    db: &'a HistogramDb,
    source: Box<dyn CandidateSource + 'a>,
    im: TimedMeasure<'a, LbIm>,
    exact: TimedMeasure<'a, ExactEmd>,
    recorder: &'a Recorder,
}

impl<'a> Composed<'a> {
    /// `AvgIndex` on a resident database, downgraded to `AvgScan` on a
    /// paged one — the builder's own rule. Returns the pipeline and the
    /// seconds the first stage took to build.
    fn build(db: &'a HistogramDb, inputs: &Inputs, recorder: &'a Recorder) -> (Self, f64) {
        let cost = inputs.grid.cost_matrix();
        let centroids = inputs.grid.centroids().to_vec();
        let started = Instant::now();
        let source: Box<dyn CandidateSource + 'a> = if db.is_paged() {
            let filter = TimedMeasure {
                inner: LbAvg::new(centroids),
                recorder,
                eval: "lower_bounds.first_stage",
                block: "lower_bounds.first_stage_block",
            };
            Box::new(TimedSource {
                inner: ScanSource::new(db, filter),
                recorder,
                names: trace::SCAN,
            })
        } else {
            Box::new(TimedSource {
                inner: RtreeSource::build(db, AvgReducer::new(centroids)),
                recorder,
                names: trace::RTREE,
            })
        };
        let build_s = started.elapsed().as_secs_f64();
        let composed = Composed {
            db,
            source,
            im: TimedMeasure {
                inner: LbIm::new(&cost),
                recorder,
                eval: "lower_bounds.lb_im",
                block: "lower_bounds.lb_im_block",
            },
            exact: TimedMeasure {
                inner: ExactEmd::new(cost),
                recorder,
                eval: "transport.solve",
                block: "transport.solve_block",
            },
            recorder,
        };
        (composed, build_s)
    }

    fn run(&self, prepared: &Prepared, req: Req) -> Result<Items, String> {
        let q = &prepared.inputs.queries[req.query];
        let filters: [&dyn DistanceMeasure; 1] = [&self.im];
        let knn = |relax| {
            self.recorder.time("multistep.knn", || {
                optimal_knn_relaxed_within(
                    self.source.as_ref(),
                    self.db,
                    q,
                    K,
                    relax,
                    &filters,
                    &self.exact,
                    Deadline::none(),
                )
            })
        };
        match req.op {
            Op::Knn => knn(0.0),
            Op::Approx => knn(EPSILON),
            Op::Range => self.recorder.time("multistep.range", || {
                range_query_within(
                    self.source.as_ref(),
                    self.db,
                    q,
                    radius(&prepared.truth, req.query),
                    &filters,
                    &self.exact,
                    Deadline::none(),
                )
            }),
        }
        .map(|answer| answer.items)
        .map_err(|e| format!("composed pipeline: {e}"))
    }
}

/// What answers a request in-process, undecorated.
enum Reference<'a> {
    /// The engine the server would build over the same rows.
    Engine(Box<QueryEngine<'a>>),
    /// Sketch-only requests never reach the pipeline: the tier answers.
    Sketch(&'a SketchTier),
}

impl Reference<'_> {
    /// Seconds, answer and exact solves of one request.
    fn answer(&self, prepared: &Prepared, req: Req) -> Result<(f64, Items, u64), String> {
        let q = &prepared.inputs.queries[req.query];
        let started = Instant::now();
        let answer = match (self, req.op) {
            (Reference::Sketch(tier), _) => tier.knn(q, K).map(|items| (items, 0)),
            (Reference::Engine(engine), Op::Knn) => engine
                .knn(q, K)
                .map(|a| (a.items, a.stats.exact_evaluations)),
            (Reference::Engine(engine), Op::Approx) => engine
                .knn_mode(q, K, RetrievalMode::Approximate { epsilon: EPSILON })
                .map(|a| (a.items, a.stats.exact_evaluations)),
            (Reference::Engine(engine), Op::Range) => engine
                .range(q, radius(&prepared.truth, req.query))
                .map(|a| (a.items, a.stats.exact_evaluations)),
        };
        let secs = started.elapsed().as_secs_f64();
        let (items, solves) = answer.map_err(|e| format!("in-process reference: {e}"))?;
        Ok((secs, items, solves))
    }
}

/// One decorated leg of a request: the composed pipeline over one
/// database, or the sketch scan.
enum Leg<'a> {
    /// The multistep pipeline; `ids` maps its rows to corpus ids (the
    /// identity unless the database is a shard).
    Pipeline(Box<Composed<'a>>, Option<Vec<usize>>),
    /// `SketchTier::knn` inside a `sketch.scan` span.
    Sketch(&'a SketchTier, &'a Recorder),
}

impl Leg<'_> {
    fn run(&self, prepared: &Prepared, req: Req) -> Result<Items, String> {
        match self {
            Leg::Pipeline(composed, ids) => {
                let mut items = composed.run(prepared, req)?;
                if let Some(ids) = ids {
                    items.iter_mut().for_each(|(id, _)| *id = ids[*id]);
                }
                Ok(items)
            }
            Leg::Sketch(tier, recorder) => recorder
                .time("sketch.scan", || {
                    tier.knn(&prepared.inputs.queries[req.query], K)
                })
                .map_err(|e| format!("sketch scan: {e}")),
        }
    }
}

/// What the decorated pass adds up to.
#[derive(Default)]
struct SpanTotals {
    /// Self time in seconds by span name, over the critical path.
    self_s: BTreeMap<&'static str, f64>,
    /// Calls by span name.
    calls: BTreeMap<&'static str, u64>,
    /// Durations in seconds of every `transport.solve` span.
    solves_s: Vec<f64>,
    /// Sum of root-span durations in seconds.
    root_s: f64,
    /// The spans of the first requests, parents rebased for the dump.
    dump: Vec<Span>,
}

impl SpanTotals {
    fn add(&mut self, spans: &[Span]) {
        for (name, ns) in trace::self_times(spans) {
            *self.self_s.entry(name).or_default() += ns as f64 * 1e-9;
        }
        for span in spans {
            *self.calls.entry(span.name).or_default() += 1;
            let secs = span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-9;
            if span.name == "transport.solve" {
                self.solves_s.push(secs);
            }
            if span.parent == NO_PARENT {
                self.root_s += secs;
            }
        }
    }

    fn keep_for_dump(&mut self, spans: &[Span]) {
        let base = self.dump.len() as u32;
        self.dump.extend(spans.iter().map(|span| Span {
            parent: if span.parent == NO_PARENT {
                NO_PARENT
            } else {
                span.parent + base
            },
            ..*span
        }));
    }

    /// Self seconds of every span of `layer` (`<layer>.<what>`).
    fn layer_s(&self, layer: &str) -> f64 {
        self.self_s
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| *s)
            .sum()
    }

    fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

fn same_items(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ia, da), (ib, db))| ia == ib && da.to_bits() == db.to_bits())
}

fn same_distances(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((_, da), (_, db))| (da - db).abs() <= oracle::TOL * da.abs().max(1.0))
}

/// Corpus ids of each shard's rows, in local-id order: the placement
/// `inputs::generate` (and `emdtool shard-split`) used.
fn shard_ids(rows: usize) -> Vec<Vec<usize>> {
    let mut ids = vec![Vec::new(); SHARDS];
    for id in 0..rows {
        ids[shard_of(id as u64, SHARDS)].push(id);
    }
    ids
}

/// Counter snapshots of the served database.
#[derive(Clone, Copy, Default)]
struct StoreCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    bypasses: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: u64,
    read_calls: u64,
    read_bytes: u64,
}

fn store_counters(db: &HistogramDb, vfs: &TimedVfs) -> StoreCounters {
    let pool = db.pool_stats().unwrap_or_default();
    let cache = db.filter_cache().stats();
    StoreCounters {
        hits: pool.hits,
        misses: pool.misses,
        evictions: pool.evictions,
        bypasses: pool.bypasses,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_entries: cache.entries as u64,
        read_calls: vfs.counters.calls.load(Ordering::Relaxed),
        read_bytes: vfs.counters.bytes.load(Ordering::Relaxed),
    }
}

/// Median seconds of a `BlockPool::lease` that must load its block:
/// capacity 1 and a cycling block index make every lease a miss.
fn cold_lease_s(emdc: &Path) -> Result<f64, String> {
    let err = |e| format!("{}: {e}", emdc.display());
    let pool = BlockPool::new(ColumnStore::open(emdc).map_err(err)?, 1);
    let blocks = pool.meta().num_blocks().max(1);
    let mut secs = Vec::new();
    for i in 0..256 {
        let started = Instant::now();
        black_box(pool.lease(i % blocks).map_err(err)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// Throughput of the workload's two closed-loop clients for `secs`
/// seconds, in complete requests per second.
fn short_qps(running: &Running<'_>, prepared: &Prepared, secs: f64) -> f64 {
    let (tally, wall) = load::run(Drive {
        addr: running.addr,
        inputs: &prepared.inputs,
        truth: &prepared.truth,
        stream: &prepared.inputs.stream,
        stop_at: Some(Instant::now() + Duration::from_secs_f64(secs)),
    });
    tally.complete as f64 / wall.max(1e-9)
}

/// The in-process counterparts of the served path, over bench-owned
/// handles on the same files.
struct Lab<'a> {
    reference: Reference<'a>,
    legs: Vec<Leg<'a>>,
    /// The pipeline over a pool that already holds every block (paged
    /// workload only).
    resident: Option<Composed<'a>>,
    recorder: &'a Recorder,
}

/// What the traced pass measured.
#[derive(Default)]
struct Pass {
    served: Vec<Served>,
    /// Seconds of each request on the in-process reference.
    reference_s: Vec<f64>,
    /// Exact solves of the in-process reference, summed.
    reference_solves: u64,
    /// Decorated run over the workload's own storage.
    spans: SpanTotals,
    /// Decorated run over a pool that holds every block (paged only).
    resident_spans: SpanTotals,
}

/// The pass, in blocks: a block of requests is served, then run
/// in-process, then run decorated. Within a block each mode runs back to
/// back, as in the timed run; across the pass the three modes share
/// whatever the machine's speed does.
fn run_pass(
    prepared: &Prepared,
    requests: &[Req],
    session: &mut Session<'_>,
    lab: &Lab<'_>,
    result: &mut RunResult,
) -> Result<Pass, String> {
    let Lab {
        reference,
        legs,
        resident,
        recorder,
    } = lab;
    let sketch = matches!(reference, Reference::Sketch(_));
    let mut pass = Pass::default();
    for (block, chunk) in requests.chunks(BLOCK).enumerate() {
        let first = pass.served.len();
        for &req in chunk {
            result.attempted += 1;
            let s = session.ask(req)?;
            if let Some(truth) = prepared.truth.get(&req.query) {
                let items: Vec<(u64, f64)> =
                    s.items.iter().map(|(id, d)| (*id as u64, *d)).collect();
                if let Err(e) = oracle::check(req, sketch, &items, truth) {
                    result.failed += 1;
                    result.problem(format!("query {}: {e}", req.query));
                }
            }
            pass.served.push(s);
        }
        let mut references = Vec::with_capacity(chunk.len());
        for &req in chunk {
            let (secs, items, solves) = reference.answer(prepared, req)?;
            pass.reference_s.push(secs);
            pass.reference_solves += solves;
            references.push(items);
        }
        for (offset, (&req, reference)) in chunk.iter().zip(&references).enumerate() {
            let i = (block * BLOCK + offset) as u32;
            recorder.set_request(i);
            let mut merged: Items = Vec::new();
            let mut leg_spans: Vec<Vec<Span>> = Vec::new();
            for leg in legs {
                merged.extend(leg.run(prepared, req)?);
                leg_spans.push(recorder.take());
            }
            if legs.len() > 1 {
                merged.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if req.op != Op::Range {
                    merged.truncate(K);
                }
            }
            // The decorated legs are the served pipeline: bit-identical.
            // The single-node reference of the cluster workload ranks
            // candidates in another order, and a near-tie at the k-th
            // neighbour may then go to another row: same distances to
            // the oracle's tolerance.
            let agrees = if legs.len() > 1 {
                same_distances(&merged, reference)
            } else {
                same_items(&merged, reference)
            };
            if !agrees || !same_items(&merged, &pass.served[first + offset].items) {
                result.failed += 1;
                result.problem(format!(
                    "query {}: served, in-process and decorated answers disagree",
                    req.query
                ));
            }
            // A reply waits for its slowest leg: only that one is on the
            // critical path.
            if let Some(critical) = leg_spans.iter().max_by_key(|spans| root_ns(spans)) {
                pass.spans.add(critical);
            }
            if i < DUMP_REQUESTS {
                leg_spans
                    .iter()
                    .for_each(|spans| pass.spans.keep_for_dump(spans));
            }
        }
        if let Some(resident) = resident {
            for &req in chunk {
                resident.run(prepared, req)?;
                pass.resident_spans.add(&recorder.take());
            }
        }
    }
    Ok(pass)
}

/// Work counters: what the server returned, and what the served database
/// counted between `before` and `after`.
fn work_counters(pass: &Pass, before: StoreCounters, after: StoreCounters, v: &mut Values) {
    let served = &pass.served;
    let n = served.len() as u64;
    let solves: u64 = served.iter().map(|s| s.stats.exact_evaluations).sum();
    let stage_evals = |s: &Served, stage: &str| -> u64 {
        let evals = &s.stats.filter_evaluations;
        evals
            .iter()
            .filter(|(name, _)| name == stage)
            .map(|(_, c)| *c)
            .sum()
    };
    let im_evals: u64 = served.iter().map(|s| stage_evals(s, "LB_IM")).sum();
    // Candidates LB_IM let through: k-NN refines its first K candidates
    // before the filter applies.
    let im_passes: u64 = served
        .iter()
        .map(|s| match s.req.op {
            Op::Range => s.stats.exact_evaluations,
            Op::Knn | Op::Approx => s.stats.exact_evaluations.saturating_sub(K as u64),
        })
        .sum();
    let ranges: Vec<&Served> = served.iter().filter(|s| s.req.op == Op::Range).collect();
    v.insert("transport.solves_per_req", frac(solves, n));
    v.insert(
        "transport.useful_frac",
        frac(served.iter().map(|s| s.stats.results).sum(), solves),
    );
    v.insert(
        "transport.recovery_notes",
        served
            .iter()
            .flat_map(|s| &s.stats.degradations)
            .filter(|d| d.starts_with("exact EMD"))
            .count() as f64,
    );
    v.insert("lower_bounds.lb_im_evals_per_req", frac(im_evals, n));
    v.insert("lower_bounds.lb_im_pass_frac", frac(im_passes, im_evals));
    v.insert(
        "lower_bounds.first_stage_evals_per_req",
        frac(
            served
                .iter()
                .map(|s| s.stats.filter_evaluations.first().map_or(0, |(_, c)| *c))
                .sum(),
            n,
        ),
    );
    v.insert(
        "rtree.node_accesses_per_req",
        frac(served.iter().map(|s| s.stats.node_accesses).sum(), n),
    );
    v.insert(
        "multistep.range_candidates_per_req",
        frac(
            ranges.iter().map(|s| stage_evals(s, "LB_IM")).sum(),
            ranges.len() as u64,
        ),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    v.insert("storage.pool_hit_frac", frac(hits, hits + misses));
    v.insert("storage.block_loads_per_req", frac(misses, n));
    v.insert(
        "storage.evictions_per_req",
        frac(after.evictions - before.evictions, n),
    );
    v.insert(
        "storage.bypasses",
        (after.bypasses - before.bypasses) as f64,
    );
    v.insert(
        "storage.read_calls_per_req",
        frac(after.read_calls - before.read_calls, n),
    );
    v.insert(
        "storage.read_bytes_per_req",
        frac(after.read_bytes - before.read_bytes, n),
    );
    let (cache_hits, cache_misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    v.insert(
        "cache.filter_hit_frac",
        frac(cache_hits, cache_hits + cache_misses),
    );
    v.insert("cache.entries", after.cache_entries as f64);
}

/// Cluster only: the resilience counters, the legs' latencies as the
/// coordinator saw them, then the same queries straight to each shard
/// once the coordinator has let go of their workers. Returns the seconds
/// of the pass spent outside the slowest leg: the coordinator's share.
fn cluster_costs(
    running: &Running<'_>,
    drive: Drive<'_>,
    pass: &Pass,
    v: &mut Values,
) -> Result<f64, String> {
    let (Some(cluster), Some(front_stop)) = (&running.cluster, &running.front_stop) else {
        return Ok(0.0);
    };
    let counter = |name: &str| cluster.registry().counter(name).get() as f64;
    v.insert("coord.retries", counter("shard_retries_total"));
    v.insert("coord.hedges", counter("shard_hedges_total"));
    v.insert("coord.breaker_opens", counter("shard_breaker_open_total"));
    let solves: u64 = pass.served.iter().map(|s| s.stats.exact_evaluations).sum();
    v.insert(
        "coord.refine_amplification",
        frac(solves, pass.reference_solves),
    );
    // Fastest and slowest leg of each request, from `provenance[].latency`.
    let legs: Vec<(f64, f64)> = pass
        .served
        .iter()
        .map(|s| {
            let legs = s.stats.provenance.iter().map(|p| p.latency.as_secs_f64());
            legs.fold((f64::INFINITY, 0.0f64), |(lo, hi), l| {
                (lo.min(l), hi.max(l))
            })
        })
        .collect();
    let gaps: Vec<f64> = legs.iter().map(|(lo, hi)| (hi - lo).max(0.0)).collect();
    v.insert("coord.straggler_gap_ms_p50", 1e3 * median(&gaps));
    let outside_legs: f64 = pass
        .served
        .iter()
        .zip(&legs)
        .map(|(s, (_, slowest))| s.latency_s - slowest)
        .sum();

    // The issue's definition of coordinator overhead compares with
    // direct calls, one shard at a time: legs that do not run side by
    // side are a little faster, so this reads higher than the share.
    front_stop.stop();
    let mut slowest = vec![0.0f64; pass.served.len()];
    for &addr in &running.shard_addrs {
        let mut direct = Session::kept(Drive { addr, ..drive })?;
        for (slot, s) in slowest.iter_mut().zip(&pass.served) {
            *slot = slot.max(direct.ask(s.req)?.latency_s);
        }
    }
    let overheads: Vec<f64> = pass
        .served
        .iter()
        .zip(&slowest)
        .map(|(s, direct)| s.latency_s - direct)
        .collect();
    v.insert("coord.overhead_ms_p50", 1e3 * median(&overheads));
    Ok(outside_legs.max(0.0))
}

/// The traced run: per-layer metrics.
pub fn traced(args: &RunArgs) -> Result<RunResult, String> {
    let prepared = prepare(args)?;
    let inputs = &prepared.inputs;
    let kind = inputs.workload.kind;
    let requests: Vec<Req> = inputs
        .stream
        .iter()
        .copied()
        .take(traced_requests(kind, args.seconds, inputs.stream.len()))
        .collect();
    let n = requests.len() as f64;
    let mut result = RunResult::default();
    let mut v = Values::new();

    let served_vfs = TimedVfs::default();
    let recorder = Arc::new(Recorder::default());
    let options = StartOptions {
        vfs: Some(&served_vfs),
        subscriber: None,
    };
    let mut plain_qps = 0.0;
    let ring_secs = (0.1 * args.seconds).clamp(0.2, 2.0);

    serving::with_first_start(inputs, &options, |running| {
        // ---- Bench-owned handles on the files the server started from,
        // built the way the server builds its own.
        let emdc = serving::sidecar(&inputs.emdb, "emdc");
        let open = |vfs: Option<&TimedVfs>, budget: usize| {
            match vfs {
                Some(vfs) => storage::open_paged_with(vfs, &emdc, budget),
                None => storage::open_paged(&emdc, budget),
            }
            .map_err(|e| format!("{}: {e}", emdc.display()))
        };
        let traced_vfs = TimedVfs {
            recorder: Some(Arc::clone(&recorder)),
            ..TimedVfs::default()
        };
        let paged = kind == Kind::ScanPaged;
        let reference_db = paged.then(|| open(None, POOL_BYTES)).transpose()?;
        let cold_db = paged
            .then(|| open(Some(&traced_vfs), POOL_BYTES))
            .transpose()?;
        // The same store behind a pool that holds all of it: what the
        // pipeline costs when no block ever has to be loaded.
        let resident_db = paged.then(|| open(None, 1 << 30)).transpose()?;
        let shard_dbs = inputs
            .shard_files
            .iter()
            .map(|f| storage::load(f).map_err(|e| format!("{}: {e}", f.display())))
            .collect::<Result<Vec<_>, _>>()?;
        let tier = (kind == Kind::WireSketch)
            .then(|| SketchTier::build(&inputs.db, &inputs.grid, SKETCH_SEED))
            .transpose()
            .map_err(|e| format!("sketch build: {e}"))?;
        // On the cluster workload the reference is single-node: one
        // engine over the whole corpus.
        let reference = match &tier {
            Some(tier) => Reference::Sketch(tier),
            None => Reference::Engine(Box::new(
                QueryEngine::builder(reference_db.as_ref().unwrap_or(&inputs.db), &inputs.grid)
                    .build(),
            )),
        };
        let mut build_s = Vec::new();
        let mut pipeline = |db, ids| {
            let (composed, secs) = Composed::build(db, inputs, &recorder);
            build_s.push(secs);
            Leg::Pipeline(Box::new(composed), ids)
        };
        let legs: Vec<Leg<'_>> = match (kind, &tier, &cold_db) {
            (Kind::WireSketch, Some(tier), _) => vec![Leg::Sketch(tier, &recorder)],
            (Kind::ScanPaged, _, Some(db)) => vec![pipeline(db, None)],
            (Kind::Cluster, _, _) => shard_dbs
                .iter()
                .zip(shard_ids(inputs.db.len()))
                .map(|(db, ids)| pipeline(db, Some(ids)))
                .collect(),
            _ => vec![pipeline(&inputs.db, None)],
        };
        v.insert("rtree.build_s", if paged { 0.0 } else { median(&build_s) });
        let resident = match &resident_db {
            Some(db) => {
                for block in 0..db.num_blocks() {
                    db.block(block)
                        .map_err(|e| format!("filling the pool: {e}"))?;
                }
                Some(Composed::build(db, inputs, &recorder).0)
            }
            None => None,
        };

        // ---- The pass.
        let drive = Drive {
            addr: running.addr,
            inputs,
            truth: &prepared.truth,
            stream: &requests,
            stop_at: None,
        };
        let before = store_counters(&running.dbs[0], &served_vfs);
        let mut session = Session::for_workload(drive)?;
        let lab = Lab {
            reference,
            legs,
            resident,
            recorder: &recorder,
        };
        let pass = run_pass(&prepared, &requests, &mut session, &lab, &mut result)?;
        drop(session);
        let after = store_counters(&running.dbs[0], &served_vfs);
        work_counters(&pass, before, after, &mut v);
        let latencies: Vec<f64> = pass.served.iter().map(|s| s.latency_s).collect();
        let client_s: f64 = latencies.iter().sum();
        let client_p50 = median(&latencies);

        v.insert("storage.convert_s", running.setup.convert_s);
        v.insert("sketch.build_s", running.setup.sketch_build_s);
        v.insert("sketch.sidecar_bytes", running.setup.sidecar_bytes as f64);
        v.insert("sketch.distortion", running.setup.sketch_distortion);
        // ---- Fresh connections: the same requests once more on a kept
        // connection. The acceptor polls, so what a fresh connection
        // waits depends on when it arrives; only the difference between
        // two passes at the served pass's own cadence gives it.
        let mut accept_wait_s = 0.0;
        if tier.is_some() {
            v.insert("sketch.scan_us_p50", 1e6 * median(&pass.reference_s));
            v.insert(
                "sketch.rows_per_s",
                inputs.db.len() as f64 / median(&pass.reference_s).max(1e-12),
            );
            let mut kept = Session::kept(drive)?;
            let mut kept_s = Vec::with_capacity(requests.len());
            for &req in &requests {
                kept_s.push(kept.ask(req)?.latency_s);
            }
            accept_wait_s = (client_p50 - median(&kept_s)).max(0.0);
            drop(kept);
            plain_qps = short_qps(running, &prepared, ring_secs);
        }
        v.insert("server.accept_wait_ms_p50", 1e3 * accept_wait_s);

        let codec_s = protocol_costs(&prepared, &pass.served, &mut v)?;
        let coord_s = cluster_costs(running, drive, &pass, &mut v)?;
        // Behind a coordinator the hop that matters is the shard's.
        let hop_addr = running.shard_addrs.first().copied().unwrap_or(running.addr);
        let (rtt_floor_s, connect_s) = round_trip_costs(hop_addr)?;
        v.insert("server.rtt_floor_us", 1e6 * rtt_floor_s);
        v.insert("server.connect_ms_p50", 1e3 * connect_s);

        // ---- The budget: each layer's share of client-observed time.
        let spans = &pass.spans;
        let reference_total: f64 = pass.reference_s.iter().sum();
        v.insert("pipeline.engine_ms_p50", 1e3 * median(&pass.reference_s));
        v.insert(
            "server.overhead_ms_p50",
            1e3 * (client_p50 - median(&pass.reference_s)),
        );
        v.insert(
            "bench.trace_overhead_frac",
            (spans.root_s - reference_total) / reference_total.max(1e-12),
        );
        let mut solve_s = spans.solves_s.clone();
        solve_s.sort_by(f64::total_cmp);
        v.insert(
            "transport.solve_us_p50",
            1e6 * load::quantile(&solve_s, 0.5),
        );
        let im_s = spans.self_of("lower_bounds.lb_im");
        let im_calls = spans.calls.get("lower_bounds.lb_im").copied().unwrap_or(0);
        v.insert(
            "lower_bounds.lb_im_us_per_eval",
            1e6 * im_s / (im_calls as f64).max(1.0),
        );
        v.insert(
            "storage.cold_lease_us",
            if paged {
                1e6 * cold_lease_s(&emdc)?
            } else {
                0.0
            },
        );
        // The decorated run gives the proportions; the server's own clock
        // gives the time they are proportions of. (The decorated run's
        // absolute time is `bench.trace_overhead_frac` away from the
        // in-process engine's, and a served request runs on another core
        // over another copy of the rows: neither is the served time.)
        let served_engine_s: f64 = pass.served.iter().map(|s| s.engine_s).sum();
        let share = |secs: f64| secs / client_s.max(1e-12);
        let engine_share = |secs: f64| share(secs * served_engine_s / spans.root_s.max(1e-12));
        // Loading a block (pool, page checks, decode) happens inside
        // `multistep` spans, with no seam to decorate. What the same
        // requests cost with every block already in the pool is the
        // pipeline alone; the rest of the cold run is block loads.
        let read_s = spans.layer_s("storage");
        let load_s = if paged {
            (spans.root_s - pass.resident_spans.root_s).max(read_s)
        } else {
            0.0
        };
        let shares = [
            (
                "transport.busy_frac",
                engine_share(spans.layer_s("transport")),
            ),
            ("lower_bounds.lb_im_busy_frac", engine_share(im_s)),
            (
                "lower_bounds.first_stage_busy_frac",
                engine_share(spans.layer_s("lower_bounds") - im_s),
            ),
            ("rtree.rank_busy_frac", engine_share(spans.layer_s("rtree"))),
            (
                "multistep.self_frac",
                engine_share((spans.layer_s("multistep") - (load_s - read_s)).max(0.0)),
            ),
            ("storage.load_busy_frac", engine_share(load_s)),
            ("sketch.busy_frac", engine_share(spans.layer_s("sketch"))),
            ("protocol.busy_frac", share(codec_s * n)),
            ("server.busy_frac", share((rtt_floor_s + accept_wait_s) * n)),
            ("coord.busy_frac", share(coord_s)),
        ];
        let mut accounted = 0.0;
        for (name, part) in shares {
            v.insert(name, part);
            accounted += part;
        }
        v.insert("storage.read_busy_frac", engine_share(read_s));
        v.insert("bench.unaccounted_frac", 1.0 - accounted);

        // ---- One kernel alone: LB_IM's block evaluation over the arena.
        let im = LbIm::new(&inputs.grid.cost_matrix());
        let mut out = vec![0.0; inputs.db.len()];
        let scans = 3.min(inputs.queries.len());
        let started = Instant::now();
        for q in inputs.queries.iter().take(scans) {
            im.prepare(q)
                .eval_block(inputs.db.arena(), inputs.db.dims(), &mut out);
            black_box(&out);
        }
        v.insert(
            "lower_bounds.scan_pairs_per_s",
            (scans * inputs.db.len()) as f64 / started.elapsed().as_secs_f64().max(1e-12),
        );

        trace::dump(&spans.dump, DUMP_REQUESTS, &args.trace_file)
            .map_err(|e| format!("{}: {e}", args.trace_file.display()))
    })?;

    // ---- What a `RingRecorder` subscriber costs the wire workload.
    if kind == Kind::WireSketch {
        let ring = StartOptions {
            vfs: None,
            subscriber: Some(Arc::new(RingRecorder::new(4096))),
        };
        let ring_qps = serving::with_first_start(inputs, &ring, |running| {
            Ok(short_qps(running, &prepared, ring_secs))
        })?;
        v.insert(
            "obs.ring_overhead_frac",
            1.0 - ring_qps / plain_qps.max(1e-12),
        );
    }

    result.metrics = PER_LAYER
        .iter()
        .map(|m| (*m, v.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    result.info = vec![
        ("seed".into(), args.seed.to_string()),
        ("prepare_s".into(), format!("{:.3}", prepared.prepare_s)),
        ("traced_requests".into(), requests.len().to_string()),
        ("trace_file".into(), args.trace_file.display().to_string()),
    ];
    let unaccounted = v.get("bench.unaccounted_frac").copied().unwrap_or(1.0);
    if unaccounted.abs() >= 0.10 {
        result.problem(format!(
            "unaccounted share {unaccounted:.3} is not below 0.10"
        ));
    }
    result.correct = result.failed == 0 && result.problems.is_empty();
    Ok(result)
}
