//! `loadgen` — closed-loop concurrency sweep against an in-process
//! `emdd` server.
//!
//! Starts a daemon on an ephemeral loopback port with a deliberately
//! small worker pool and queue, then drives it with `C` client threads
//! (connection per request, like an impatient load balancer) for each
//! concurrency level. Every response is classified — complete, typed
//! partial (`DeadlineExceeded`), shed (`Overloaded`), dropped
//! connection, or error — and per-level throughput plus latency
//! quantiles land in one JSON document (`BENCH_serve.json` by default).
//! At the top concurrency levels more requests wait for a worker than
//! the queue depth allows, so the shed rate is expected to be positive:
//! that is admission control working, not a failure.
//!
//! ```sh
//! loadgen --out BENCH_serve.json --count 2000 --secs-per-level 1.0
//! ```
//!
//! With `--cluster true` the harness instead builds a **sharded
//! cluster** in-process: the corpus is split by the coordinator's hash
//! placement into `--shards` groups, each served by a primary and a
//! replica `emdd`; the ladder is driven through the scatter-gather
//! [`Coordinator`] twice — once healthy, once after killing shard
//! group 0's primary — and the per-level lines include the resilience
//! counters (`retries`, `failovers`, `hedges_fired`, `breaker_opens`)
//! plus straggler attribution from the merged stats' per-shard
//! provenance (each shard's p99 and the worst one), landing in
//! `BENCH_cluster.json` (schema `bench_cluster/v2`).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use earthmover_core::ground::BinGrid;
use earthmover_core::{Histogram, HistogramDb, QueryPlan};
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_obs::names::{self, Name};
use earthmover_obs::{json_f64, MetricsRegistry};
use earthmover_serve::client::{Client, Outcome};
use earthmover_serve::coord::{shard_of, ClusterConfig, ClusterShared, Coordinator, GroupSpec};
use earthmover_serve::retry::RetryPolicy;
use earthmover_serve::server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    out: String,
    count: usize,
    dims: usize,
    seed: u64,
    k: u32,
    workers: usize,
    queue: usize,
    secs_per_level: f64,
    levels: Vec<usize>,
    cluster: bool,
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_serve.json".to_string(),
        count: 2000,
        dims: 64,
        seed: 2006,
        k: 10,
        workers: 2,
        queue: 2,
        secs_per_level: 1.0,
        levels: vec![1, 2, 4, 8, 16, 32],
        cluster: false,
        shards: 3,
    };
    let mut out_set = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |what: &str| -> Result<usize, String> {
            value
                .parse()
                .map_err(|_| format!("{what} {value} is not a number"))
        };
        match flag.as_str() {
            "--out" => {
                args.out = value.clone();
                out_set = true;
            }
            "--count" => args.count = num("--count")?,
            "--cluster" => args.cluster = value == "true",
            "--shards" => args.shards = num("--shards")?,
            "--dims" => args.dims = num("--dims")?,
            "--seed" => args.seed = num("--seed")? as u64,
            "--k" => args.k = num("--k")? as u32,
            "--workers" => args.workers = num("--workers")?,
            "--queue" => args.queue = num("--queue")?,
            "--secs-per-level" => {
                args.secs_per_level = value
                    .parse()
                    .map_err(|_| format!("--secs-per-level {value} is not a number"))?
            }
            "--levels" => {
                args.levels = value
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad level {s}")))
                    .collect::<Result<Vec<usize>, String>>()?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.levels.is_empty() {
        return Err("--levels must name at least one concurrency level".to_string());
    }
    if args.cluster {
        if args.shards == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        if !out_set {
            args.out = "BENCH_cluster.json".to_string();
        }
    }
    Ok(args)
}

fn grid_for(dims: usize) -> Result<BinGrid, String> {
    BinGrid::for_bins(dims).ok_or_else(|| format!("unsupported --dims {dims} (use 16, 32, or 64)"))
}

/// Per-level tallies, merged across client threads.
#[derive(Debug, Default, Clone)]
struct Tally {
    ok: u64,
    partial: u64,
    shed: u64,
    dropped: u64,
    errors: u64,
    /// Client-side retry attempts (0 unless a retry policy is active).
    retries: u64,
    /// Latencies (seconds) of answered requests (complete + partial).
    latencies: Vec<f64>,
    /// `(shard, latency_secs)` pairs from the merged stats' per-shard
    /// provenance (cluster mode only); feeds straggler attribution.
    shard_latencies: Vec<(u32, f64)>,
}

impl Tally {
    fn requests(&self) -> u64 {
        self.ok + self.partial + self.shed + self.dropped + self.errors
    }

    fn partial_rate(&self) -> f64 {
        self.partial as f64 / self.requests().max(1) as f64
    }

    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.partial += other.partial;
        self.shed += other.shed;
        self.dropped += other.dropped;
        self.errors += other.errors;
        self.retries += other.retries;
        self.latencies.extend_from_slice(&other.latencies);
        self.shard_latencies
            .extend_from_slice(&other.shard_latencies);
    }
}

/// Nearest-rank quantile of an (unsorted-on-entry) latency set.
fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0) * 1e3
}

/// One client thread's closed loop: connect, one k-NN, classify, repeat.
fn drive(
    addr: std::net::SocketAddr,
    queries: &[Histogram],
    k: u32,
    stop_at: Instant,
    worker_index: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut query_index = worker_index;
    while Instant::now() < stop_at {
        let q = match queries.get(query_index % queries.len().max(1)) {
            Some(q) => q,
            None => break,
        };
        query_index += 1;
        let started = Instant::now();
        let outcome = Client::connect(addr, Duration::from_secs(10)).and_then(|mut c| {
            let r = c.knn(q, k, 0);
            tally.retries += c.retries();
            r
        });
        match outcome {
            Ok(Outcome::Complete { .. }) => {
                tally.ok += 1;
                tally.latencies.push(started.elapsed().as_secs_f64());
            }
            Ok(Outcome::Partial { .. }) => {
                tally.partial += 1;
                tally.latencies.push(started.elapsed().as_secs_f64());
            }
            Ok(Outcome::Overloaded { .. }) => tally.shed += 1,
            // A reset/EOF: the connection came past the daemon's cap on
            // connection threads and was dropped unread.
            Err(earthmover_serve::client::ClientError::Wire(_)) => tally.dropped += 1,
            Err(_) => tally.errors += 1,
        }
    }
    tally
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let grid = grid_for(args.dims)?;
    eprintln!(
        "loadgen: building {}-histogram corpus ({} bins)...",
        args.count, args.dims
    );
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(args.seed));
    let db = corpus.build_database(&grid, args.count);
    let queries: Vec<Histogram> = (0..64.min(db.len()))
        .map(|id| db.get(id).to_histogram())
        .collect();

    let cfg = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let stop = server.stop_handle();
    eprintln!(
        "loadgen: emdd on {addr} ({} workers, queue depth {})",
        args.workers, args.queue
    );

    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let db_ref = &db;
        let grid_ref = &grid;
        scope.spawn(move || {
            if let Err(e) = server.run(db_ref, grid_ref, None) {
                eprintln!("loadgen: server failed: {e}");
            }
        });
        // Wait until the daemon answers a health probe.
        let mut ready = false;
        for _ in 0..100 {
            if let Ok(mut c) = Client::connect(addr, Duration::from_secs(1)) {
                if c.health().is_ok() {
                    ready = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !ready {
            eprintln!("loadgen: daemon never became healthy");
            failed.store(true, Ordering::SeqCst);
            stop.stop();
            return;
        }

        for &concurrency in &args.levels {
            let level_started = Instant::now();
            let stop_at = level_started + Duration::from_secs_f64(args.secs_per_level);
            let mut tally = Tally::default();
            std::thread::scope(|level_scope| {
                let handles: Vec<_> = (0..concurrency)
                    .map(|i| {
                        let queries = queries.as_slice();
                        level_scope.spawn(move || drive(addr, queries, args.k, stop_at, i))
                    })
                    .collect();
                for h in handles {
                    if let Ok(t) = h.join() {
                        tally.merge(&t);
                    }
                }
            });
            let wall = level_started.elapsed().as_secs_f64().max(1e-9);
            let mut lat = tally.latencies.clone();
            lat.sort_by(f64::total_cmp);
            let answered = tally.ok + tally.partial;
            let shed_rate = (tally.shed + tally.dropped) as f64 / tally.requests().max(1) as f64;
            eprintln!(
                "loadgen: C={concurrency:<3} {} req, {answered} answered, {} shed, {} dropped, \
                 {:.0} qps, p50 {:.2} ms, p99 {:.2} ms, shed rate {:.1}%",
                tally.requests(),
                tally.shed,
                tally.dropped,
                answered as f64 / wall,
                quantile_ms(&lat, 0.50),
                quantile_ms(&lat, 0.99),
                100.0 * shed_rate,
            );
            let line = format!(
                "{{\"concurrency\":{},\"requests\":{},\"ok\":{},\"partial\":{},\"shed\":{},\
                 \"dropped\":{},\"errors\":{},\"retries\":{},\"failovers\":0,\
                 \"hedges_fired\":0,\"qps\":{},\"p50_ms\":{},\"p95_ms\":{},\
                 \"p99_ms\":{},\"shed_rate\":{},\"partial_rate\":{}}}",
                concurrency,
                tally.requests(),
                tally.ok,
                tally.partial,
                tally.shed,
                tally.dropped,
                tally.errors,
                tally.retries,
                json_f64(answered as f64 / wall),
                json_f64(quantile_ms(&lat, 0.50)),
                json_f64(quantile_ms(&lat, 0.95)),
                json_f64(quantile_ms(&lat, 0.99)),
                json_f64(shed_rate),
                json_f64(tally.partial_rate()),
            );
            lines.lock().unwrap_or_else(|e| e.into_inner()).push(line);
        }
        stop.stop();
    });
    if failed.load(Ordering::SeqCst) {
        return Err("daemon failed to start".to_string());
    }

    let doc = format!(
        "{{\"schema\":\"bench_serve/v1\",\"seed\":{},\"config\":{{\"count\":{},\"dims\":{},\
         \"k\":{},\"workers\":{},\"queue_depth\":{},\"secs_per_level\":{}}},\"levels\":[{}]}}",
        args.seed,
        args.count,
        args.dims,
        args.k,
        args.workers,
        args.queue,
        json_f64(args.secs_per_level),
        lines.lock().unwrap_or_else(|e| e.into_inner()).join(",")
    );
    std::fs::write(&args.out, &doc).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("loadgen: wrote {}", args.out);
    Ok(())
}

// ---------------------------------------------------------------------
// Cluster mode.

/// The four resilience counters snapshotted per level, in order:
/// retries, failovers, hedges fired, breaker opens.
const CLUSTER_COUNTERS: [Name; 4] = [
    names::SHARD_RETRIES_TOTAL,
    names::SHARD_FAILOVERS_TOTAL,
    names::SHARD_HEDGES_TOTAL,
    names::SHARD_BREAKER_OPEN_TOTAL,
];

fn counter_snapshot(registry: &MetricsRegistry) -> [u64; 4] {
    CLUSTER_COUNTERS.map(|name| registry.counter(&name).get())
}

/// Splits the corpus into per-shard databases using the coordinator's
/// own hash placement, global ids ascending (so local ids line up with
/// the coordinator's reconstructed id maps).
fn split_db(db: &HistogramDb, shards: usize) -> Vec<HistogramDb> {
    let mut parts: Vec<HistogramDb> = (0..shards).map(|_| HistogramDb::new(db.dims())).collect();
    for id in 0..db.len() {
        let shard = shard_of(id as u64, shards);
        if let Some(part) = parts.get_mut(shard) {
            part.push(db.get(id).to_histogram());
        }
    }
    parts
}

/// One client thread's closed loop through the coordinator.
fn drive_cluster(
    shared: &Arc<ClusterShared>,
    queries: &[Histogram],
    k: u32,
    stop_at: Instant,
    worker_index: usize,
) -> Tally {
    let mut coordinator = Coordinator::new(Arc::clone(shared));
    let plan = QueryPlan::Knn {
        k: k as usize,
        mode: None,
    };
    let mut tally = Tally::default();
    let mut query_index = worker_index;
    while Instant::now() < stop_at {
        let q = match queries.get(query_index % queries.len().max(1)) {
            Some(q) => q,
            None => break,
        };
        query_index += 1;
        let started = Instant::now();
        match coordinator.query(q, plan, 0) {
            Ok(Outcome::Complete { stats, .. }) => {
                tally.ok += 1;
                tally.latencies.push(started.elapsed().as_secs_f64());
                for p in &stats.provenance {
                    tally
                        .shard_latencies
                        .push((p.shard, p.latency.as_secs_f64()));
                }
            }
            Ok(Outcome::Partial { stats, .. }) => {
                tally.partial += 1;
                tally.latencies.push(started.elapsed().as_secs_f64());
                for p in &stats.provenance {
                    tally
                        .shard_latencies
                        .push((p.shard, p.latency.as_secs_f64()));
                }
            }
            Ok(Outcome::Overloaded { .. }) => tally.shed += 1,
            Err(_) => tally.errors += 1,
        }
    }
    tally
}

/// Runs the concurrency ladder through the coordinator and renders one
/// JSON line per level, including resilience-counter deltas.
fn cluster_ladder(
    args: &Args,
    shared: &Arc<ClusterShared>,
    queries: &[Histogram],
    scenario: &str,
) -> Vec<String> {
    let mut lines = Vec::new();
    for &concurrency in &args.levels {
        let level_started = Instant::now();
        let stop_at = level_started + Duration::from_secs_f64(args.secs_per_level);
        let before = counter_snapshot(shared.registry());
        let mut tally = Tally::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|i| scope.spawn(move || drive_cluster(shared, queries, args.k, stop_at, i)))
                .collect();
            for h in handles {
                if let Ok(t) = h.join() {
                    tally.merge(&t);
                }
            }
        });
        let after = counter_snapshot(shared.registry());
        let [retries, failovers, hedges, breaker_opens] = [0, 1, 2, 3]
            .map(|i| after.get(i).copied().unwrap_or(0) - before.get(i).copied().unwrap_or(0));
        let wall = level_started.elapsed().as_secs_f64().max(1e-9);
        let mut lat = tally.latencies.clone();
        lat.sort_by(f64::total_cmp);
        let answered = tally.ok + tally.partial;
        // Straggler attribution: per-shard p99 from the provenance the
        // coordinator now returns, plus the worst shard of the level.
        let mut per_shard: std::collections::BTreeMap<u32, Vec<f64>> =
            std::collections::BTreeMap::new();
        for (shard, latency) in &tally.shard_latencies {
            per_shard.entry(*shard).or_default().push(*latency);
        }
        let mut shard_entries: Vec<String> = Vec::new();
        let mut straggler: Option<(u32, f64)> = None;
        for (shard, lats) in &mut per_shard {
            lats.sort_by(f64::total_cmp);
            let p99 = quantile_ms(lats, 0.99);
            shard_entries.push(format!(
                "{{\"shard\":{shard},\"p99_ms\":{}}}",
                json_f64(p99)
            ));
            if straggler.is_none_or(|(_, worst)| p99 > worst) {
                straggler = Some((*shard, p99));
            }
        }
        let straggler_json = match straggler {
            Some((shard, p99)) => {
                format!("{{\"shard\":{shard},\"p99_ms\":{}}}", json_f64(p99))
            }
            None => "null".to_string(),
        };
        eprintln!(
            "loadgen[{scenario}]: C={concurrency:<3} {} req, {answered} answered, \
             {:.0} qps, p50 {:.2} ms, p99 {:.2} ms, partial rate {:.1}%, \
             retries {retries}, failovers {failovers}, hedges {hedges}, breaker opens {breaker_opens}{}",
            tally.requests(),
            answered as f64 / wall,
            quantile_ms(&lat, 0.50),
            quantile_ms(&lat, 0.99),
            100.0 * tally.partial_rate(),
            match straggler {
                Some((shard, p99)) => format!(", straggler shard {shard} (p99 {p99:.2} ms)"),
                None => String::new(),
            },
        );
        lines.push(format!(
            "{{\"concurrency\":{},\"requests\":{},\"ok\":{},\"partial\":{},\"shed\":{},\
             \"dropped\":{},\"errors\":{},\"retries\":{},\"failovers\":{},\"hedges_fired\":{},\
             \"breaker_opens\":{},\"qps\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\
             \"partial_rate\":{},\"shard_p99_ms\":[{}],\"straggler\":{}}}",
            concurrency,
            tally.requests(),
            tally.ok,
            tally.partial,
            tally.shed,
            tally.dropped,
            tally.errors,
            retries,
            failovers,
            hedges,
            breaker_opens,
            json_f64(answered as f64 / wall),
            json_f64(quantile_ms(&lat, 0.50)),
            json_f64(quantile_ms(&lat, 0.95)),
            json_f64(quantile_ms(&lat, 0.99)),
            json_f64(tally.partial_rate()),
            shard_entries.join(","),
            straggler_json,
        ));
    }
    lines
}

fn run_cluster(args: &Args) -> Result<(), String> {
    let grid = grid_for(args.dims)?;
    eprintln!(
        "loadgen: building {}-histogram corpus ({} bins), splitting into {} shards...",
        args.count, args.dims, args.shards
    );
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(args.seed));
    let db = corpus.build_database(&grid, args.count);
    let queries: Vec<Histogram> = (0..64.min(db.len()))
        .map(|id| db.get(id).to_histogram())
        .collect();
    let shard_dbs = split_db(&db, args.shards);

    // Each shard group: a primary and a replica serving the same shard.
    let server_cfg = ServerConfig {
        workers: args.workers.max(1),
        queue_depth: args.queue.max(8),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let mut primaries = Vec::new();
    let mut replicas = Vec::new();
    let mut group_specs = Vec::new();
    for _ in 0..args.shards {
        let primary = Server::bind("127.0.0.1:0", server_cfg.clone()).map_err(|e| e.to_string())?;
        let replica = Server::bind("127.0.0.1:0", server_cfg.clone()).map_err(|e| e.to_string())?;
        group_specs.push(GroupSpec {
            primary: primary.local_addr().map_err(|e| e.to_string())?,
            replica: Some(replica.local_addr().map_err(|e| e.to_string())?),
        });
        primaries.push(primary);
        replicas.push(replica);
    }

    let mut cluster_cfg = ClusterConfig::new(group_specs);
    cluster_cfg.io_timeout = Duration::from_millis(500);
    cluster_cfg.retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        jitter_seed: args.seed,
    };
    cluster_cfg.default_deadline = Some(Duration::from_millis(500));
    cluster_cfg.discover_timeout = Duration::from_secs(5);

    let sections: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let grid_ref = &grid;
        for (i, server) in primaries.iter().chain(replicas.iter()).enumerate() {
            let shard = i % args.shards;
            let db_ref = match shard_dbs.get(shard) {
                Some(d) => d,
                None => continue,
            };
            scope.spawn(move || {
                let _ = server.run(db_ref, grid_ref, None);
            });
        }
        let shared = match ClusterShared::discover(cluster_cfg.clone()) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("loadgen: cluster discovery failed: {e}");
                failed.store(true, Ordering::SeqCst);
                for s in primaries.iter().chain(replicas.iter()) {
                    s.stop_handle().stop();
                }
                return;
            }
        };
        eprintln!(
            "loadgen: cluster up — {} histograms across {} groups (primary + replica each)",
            shared.topology().total,
            args.shards
        );

        let healthy = cluster_ladder(args, &shared, &queries, "healthy");
        sections
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(format!(
                "{{\"name\":\"healthy\",\"levels\":[{}]}}",
                healthy.join(",")
            ));

        // Kill shard group 0's primary; the replica must absorb the
        // traffic (failovers and breaker transitions are the point).
        eprintln!("loadgen: killing shard group 0 primary");
        if let Some(s) = primaries.first() {
            s.stop_handle().stop();
        }
        std::thread::sleep(Duration::from_millis(100));
        let degraded = cluster_ladder(args, &shared, &queries, "primary0_down");
        sections
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(format!(
                "{{\"name\":\"primary0_down\",\"levels\":[{}]}}",
                degraded.join(",")
            ));

        for s in primaries.iter().chain(replicas.iter()) {
            s.stop_handle().stop();
        }
    });
    if failed.load(Ordering::SeqCst) {
        return Err("cluster failed to start".to_string());
    }

    let doc = format!(
        "{{\"schema\":\"bench_cluster/v2\",\"seed\":{},\"config\":{{\"count\":{},\"dims\":{},\
         \"k\":{},\"shards\":{},\"workers\":{},\"queue_depth\":{},\"secs_per_level\":{},\
         \"replicas\":true}},\"scenarios\":[{}]}}",
        args.seed,
        args.count,
        args.dims,
        args.k,
        args.shards,
        args.workers,
        args.queue,
        json_f64(args.secs_per_level),
        sections.lock().unwrap_or_else(|e| e.into_inner()).join(",")
    );
    std::fs::write(&args.out, &doc).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("loadgen: wrote {}", args.out);
    Ok(())
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(args) if args.cluster => run_cluster(&args),
        Ok(_) => run(),
        Err(msg) => Err(msg),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
