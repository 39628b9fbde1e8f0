//! `emdtool` — command-line front end for the earthmover library.
//!
//! ```sh
//! # Generate a synthetic-corpus histogram database:
//! emdtool generate --out photos.emdb --count 10000 --dims 64 --seed 7
//!
//! # Inspect it:
//! emdtool info --db photos.emdb
//!
//! # k-NN query using database object 42 as the query:
//! emdtool query --db photos.emdb --id 42 --k 10 --pipeline combo
//!
//! # Same query with telemetry: Prometheus + JSON metric dumps and a
//! # JSON-lines span trace on stderr:
//! emdtool query --db photos.emdb --id 42 --metrics-out run --trace-json -
//!
//! # Query a running daemon (`emdd --db photos.emdb --addr 127.0.0.1:4406`):
//! emdtool client --addr 127.0.0.1:4406 --op knn --db photos.emdb --id 42 --k 10
//! emdtool client --addr 127.0.0.1:4406 --op health
//! emdtool client --addr 127.0.0.1:4406 --op shutdown
//!
//! # Distributed tracing and fleet telemetry (against emdd-coord):
//! emdtool trace --addr 127.0.0.1:4410 --db photos.emdb --id 42 --k 10
//! emdtool top --addr 127.0.0.1:4410
//! ```
//!
//! Pipelines: `combo` (3-D LB_Avg index → LB_IM → EMD, the paper's best),
//! `man` (LB_Man scan → EMD), `im` (LB_IM scan → EMD),
//! `scan` (exact EMD over everything — the slow baseline).
//!
//! Flags are parsed by the daemons' parser (`serve::daemon::Flags`)
//! against the command's own usage lines: a flag they do not list
//! prints the usage and exits 2.

use earthmover::core::storage;
use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover::obs::{self, names};
use earthmover::serve as serve_api;
use earthmover::{linear_scan_knn, BinGrid, ExactEmd, FirstStage, HistogramDb, QueryEngine};
use serve_api::daemon::Flags;
use std::process::ExitCode;
use std::sync::Arc;

/// One subcommand: its name, its entry point and its usage lines —
/// which are also the list of flags it accepts.
type Command = (&'static str, fn(&Flags) -> Result<(), String>, &'static str);

const COMMANDS: &[Command] = &[
    (
        "generate",
        generate,
        "emdtool generate --out FILE [--count N] [--dims 16|32|64] [--seed S]",
    ),
    ("info", info, "emdtool info --db FILE"),
    (
        "query",
        query,
        "emdtool query --db FILE --id OBJ [--k K] [--pipeline combo|man|im|scan]\n    \
         [--metrics-out PATH]   write PATH.prom + PATH.json metric dumps\n    \
         [--trace-json PATH|-]  stream span records as JSON lines (- = stderr)",
    ),
    (
        "client",
        client,
        "emdtool client --addr HOST:PORT --op knn|range|health|stats|shutdown\n    \
         [--db FILE --id OBJ] [--k K] [--epsilon E] [--deadline-ms MS]\n    \
         [--mode exact|sketch|approx:EPS]  retrieval tier for --op knn",
    ),
    (
        "trace",
        trace,
        "emdtool trace --addr HOST:PORT --db FILE --id OBJ [--k K] [--deadline-ms MS]\n    \
         issue one sampled, traced k-NN and render the per-shard trace tree",
    ),
    (
        "top",
        top,
        "emdtool top --addr HOST:PORT\n    \
         per-shard fleet table from the coordinator's merged metrics",
    ),
    (
        "shard-split",
        shard_split,
        "emdtool shard-split --db FILE --shards N --out-prefix P\n    \
         writes P0.emdb .. P{N-1}.emdb by coordinator hash placement",
    ),
    (
        "store-stats",
        store_stats,
        "emdtool store-stats --db FILE [--pool-mb N]\n    \
         paged-store report: blocks, resident fraction, pool hit rate,\n    \
         filter-cache occupancy (converts FILE to FILE.emdc when missing or stale)",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.split_first() {
        None => Err("missing command".to_string()),
        Some((name, rest)) => match COMMANDS.iter().find(|(n, ..)| n == name) {
            None => Err(format!("unknown command {name}")),
            Some((_, run, usage)) => Flags::parse(rest, usage).map(|flags| (run, flags)),
        },
    };
    let (run, flags) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\nusage:");
            for (_, _, usage) in COMMANDS {
                eprintln!("  {usage}");
            }
            return ExitCode::from(2);
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn get<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn grid_for(dims: usize) -> Result<BinGrid, String> {
    BinGrid::for_bins(dims).ok_or_else(|| format!("unsupported --dims {dims} (use 16, 32, or 64)"))
}

fn generate(flags: &Flags) -> Result<(), String> {
    let out = get(flags, "out")?;
    let count: usize = flags.num("count", 1000)?;
    let dims: usize = flags.num("dims", 64)?;
    let seed: u64 = flags.num("seed", 2006)?;
    let grid = grid_for(dims)?;
    eprintln!("generating {count} synthetic images ({dims}-bin histograms, seed {seed})...");
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(seed));
    let db = corpus.build_database(&grid, count);
    storage::save(&db, out).map_err(|e| e.to_string())?;
    eprintln!("wrote {} histograms to {out}", db.len());
    Ok(())
}

fn load_db(flags: &Flags) -> Result<HistogramDb, String> {
    let path = get(flags, "db")?;
    storage::load(path).map_err(|e| format!("{path}: {e}"))
}

fn info(flags: &Flags) -> Result<(), String> {
    let db = load_db(flags)?;
    println!("histograms : {}", db.len());
    println!("dimensions : {}", db.dims());
    let variances = db.bin_variances();
    let mut top: Vec<(usize, f64)> = variances.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "top-variance bins (reduced LB_Man index candidates): {:?}",
        top.iter().take(3).map(|(i, _)| *i).collect::<Vec<_>>()
    );
    let nonzero: usize = db
        .iter()
        .map(|(_, h)| h.bins().iter().filter(|b| **b > 0.0).count())
        .sum();
    println!(
        "mean nonzero bins per histogram: {:.1}",
        nonzero as f64 / db.len().max(1) as f64
    );
    Ok(())
}

/// Fans one record out to several subscribers, so `--metrics-out` and
/// `--trace-json` can observe the same query.
struct Tee(Vec<Arc<dyn obs::Subscriber>>);

impl obs::Subscriber for Tee {
    fn on_close(&self, record: &obs::SpanRecord) {
        for s in &self.0 {
            s.on_close(record);
        }
    }

    fn flush(&self) {
        for s in &self.0 {
            s.flush();
        }
    }
}

/// Builds the subscriber stack requested by `--metrics-out` /
/// `--trace-json`. Returns the recorder (for post-hoc aggregation) and
/// the install guard keeping the stack live.
fn telemetry(
    flags: &Flags,
) -> Result<(Option<Arc<obs::RingRecorder>>, Option<obs::InstallGuard>), String> {
    let mut subscribers: Vec<Arc<dyn obs::Subscriber>> = Vec::new();
    let recorder = if flags.get("metrics-out").is_some() {
        let r = Arc::new(obs::RingRecorder::new(1 << 16));
        subscribers.push(r.clone());
        Some(r)
    } else {
        None
    };
    subscribers.extend(flags.subscriber()?);
    let guard = match subscribers.len() {
        0 => None,
        1 => Some(obs::install(subscribers.pop().expect("one subscriber"))),
        _ => Some(obs::install(Arc::new(Tee(subscribers)))),
    };
    Ok((recorder, guard))
}

/// Aggregates the recorded spans and the query's own stats into a
/// registry and writes `<base>.prom` and `<base>.json`.
fn write_metrics(
    base: &str,
    recorder: &obs::RingRecorder,
    stats: &earthmover::core::stats::QueryStats,
) -> Result<(), String> {
    let registry = obs::MetricsRegistry::new();
    for record in recorder.drain() {
        registry.observe_span(&record);
    }
    if recorder.dropped() > 0 {
        registry
            .counter(&names::TRACE_RECORDS_DROPPED_TOTAL)
            .inc(recorder.dropped());
    }
    for (name, elapsed) in &stats.stage_elapsed {
        registry
            .histogram(&format!("stage_{name}_seconds"))
            .observe(*elapsed);
    }
    registry
        .counter(&names::EXACT_EVALUATIONS_TOTAL)
        .inc(stats.exact_evaluations);
    for (name, evals) in &stats.filter_evaluations {
        registry
            .counter(&format!("filter_{name}_evaluations_total"))
            .inc(*evals);
    }
    registry
        .counter(&names::NODE_ACCESSES_TOTAL)
        .inc(stats.node_accesses);
    registry
        .counter(&names::DEGRADATIONS_TOTAL)
        .inc(stats.degradations.len() as u64);
    registry.gauge(&names::DB_SIZE).set(stats.db_size as f64);
    registry.gauge(&names::SELECTIVITY).set(stats.selectivity());
    registry
        .gauge(&names::QUERY_SECONDS)
        .set(stats.elapsed.as_secs_f64());
    let prom_path = format!("{base}.prom");
    let json_path = format!("{base}.json");
    std::fs::write(&prom_path, registry.to_prometheus())
        .map_err(|e| format!("{prom_path}: {e}"))?;
    std::fs::write(&json_path, registry.to_json()).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("metrics written to {prom_path} and {json_path}");
    Ok(())
}

fn query(flags: &Flags) -> Result<(), String> {
    let db = load_db(flags)?;
    let id: usize = flags.num("id", usize::MAX)?;
    if id >= db.len() {
        return Err(format!(
            "--id must name a database object (0..{})",
            db.len().saturating_sub(1)
        ));
    }
    let k: usize = flags.num("k", 10)?;
    let pipeline = flags.get("pipeline").unwrap_or("combo");
    let grid = grid_for(db.dims())?;
    let q = db.get(id).to_histogram();
    let (recorder, _guard) = telemetry(flags)?;

    let result = match pipeline {
        "scan" => {
            let exact = ExactEmd::new(grid.cost_matrix());
            linear_scan_knn(&db, &q, k, &exact)
        }
        name => {
            let builder = QueryEngine::builder(&db, &grid);
            let engine = match name {
                "combo" => builder.build(),
                "man" => builder
                    .first_stage(FirstStage::ManhattanScan)
                    .lb_im(false)
                    .build(),
                "im" => builder.first_stage(FirstStage::ImScan).build(),
                other => return Err(format!("unknown --pipeline {other}")),
            };
            engine.knn(&q, k)
        }
    }
    .map_err(|e| format!("query failed: {e}"))?;

    for note in &result.stats.degradations {
        eprintln!("warning: {note}");
    }
    println!("{k}-NN of object {id} ({} pipeline):", pipeline);
    for (rank, (oid, dist)) in result.items.iter().enumerate() {
        println!("  {rank:>2}. object {oid:>6}  emd {dist:.6}");
    }
    let s = &result.stats;
    println!(
        "work: {} exact EMD evaluations / {} objects (selectivity {:.3}%), {} index node reads, {:?}",
        s.exact_evaluations,
        s.db_size,
        100.0 * s.selectivity(),
        s.node_accesses,
        s.elapsed
    );
    if !s.stage_elapsed.is_empty() {
        let stages: Vec<String> = s
            .stage_elapsed
            .iter()
            .map(|(name, d)| format!("{name} {:.1}µs", d.as_secs_f64() * 1e6))
            .collect();
        println!("stages: {}", stages.join(", "));
    }
    if let Some(recorder) = &recorder {
        write_metrics(get(flags, "metrics-out")?, recorder, s)?;
    }
    Ok(())
}

/// `emdtool shard-split` — partition a database into shard files by the
/// coordinator's hash placement, so `emdd-coord` can reconstruct the
/// local→global id maps by replaying the same placement.
fn shard_split(flags: &Flags) -> Result<(), String> {
    let db = load_db(flags)?;
    let shards: usize = flags.num("shards", 0)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let prefix = get(flags, "out-prefix")?;
    let mut parts: Vec<HistogramDb> = (0..shards).map(|_| HistogramDb::new(db.dims())).collect();
    // Global ids ascending: local insertion order must match the
    // coordinator's replay of the placement.
    for id in 0..db.len() {
        let shard = serve_api::shard_of(id as u64, shards);
        if let Some(part) = parts.get_mut(shard) {
            part.push(db.get(id).to_histogram());
        }
    }
    for (i, part) in parts.iter().enumerate() {
        let path = format!("{prefix}{i}.emdb");
        storage::save(part, &path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote shard {i}: {} histograms to {path}", part.len());
    }
    eprintln!(
        "split {} histograms across {shards} shard(s); serve each with emdd \
         and point emdd-coord --shards at them in index order",
        db.len()
    );
    Ok(())
}

/// `emdtool store-stats` — open (converting if needed) a database
/// as a paged column store and report the storage-hierarchy picture:
/// block layout, buffer-pool residency and hit rate after a cold+warm
/// sweep, and filter-cache occupancy after two identical queries.
fn store_stats(flags: &Flags) -> Result<(), String> {
    let path = get(flags, "db")?;
    let pool_mb: usize = flags.num("pool-mb", 4)?;
    let budget = pool_mb.max(1).saturating_mul(1024 * 1024);
    let (db, source) = storage::open_paged_or_convert(path, budget, &mut |msg| eprintln!("{msg}"))
        .map_err(|e| format!("{path}: {e}"))?;
    let source = source.display();
    // Cold sweep touches every block once (all misses), the warm sweep
    // re-reads them (hits up to pool capacity) — so the printed hit rate
    // reflects how much of the corpus the pool can keep resident.
    for sweep in 0..2 {
        for b in 0..db.num_blocks() {
            if let Err(e) = db.block(b) {
                return Err(format!("block {b} unreadable on sweep {sweep}: {e}"));
            }
        }
    }
    // Two identical queries: the second one's filter distances come out
    // of the query-signature cache.
    if db.len() > 1 {
        let grid = grid_for(db.dims())?;
        let engine = QueryEngine::builder(&db, &grid).build();
        let q = db.try_row(0).map_err(|e| e.to_string())?.to_histogram();
        let k = 5.min(db.len());
        for _ in 0..2 {
            engine.knn(&q, k).map_err(|e| format!("probe query: {e}"))?;
        }
    }
    let resident = db.resident_block_count();
    let capacity = db.pool_capacity();
    println!("column file    : {source}");
    println!(
        "rows           : {} x {} bins, {} rows/block",
        db.len(),
        db.dims(),
        db.rows_per_block()
    );
    println!(
        "blocks         : {} total, {} resident ({:.1}% of corpus)",
        db.num_blocks(),
        resident,
        100.0 * resident as f64 / db.num_blocks().max(1) as f64
    );
    println!("pool capacity  : {capacity} blocks ({pool_mb} MiB budget)");
    if let Some(pool) = db.pool_stats() {
        println!(
            "pool traffic   : {} hits / {} misses ({:.1}% hit rate), {} evictions, {} bypasses",
            pool.hits,
            pool.misses,
            100.0 * pool.hit_rate(),
            pool.evictions,
            pool.bypasses
        );
    }
    let cache = db.filter_cache().stats();
    println!(
        "filter cache   : {} entries, {} hits / {} misses",
        cache.entries, cache.hits, cache.misses
    );
    Ok(())
}

/// Prints one query outcome (complete, partial, or shed) with its
/// server-side work breakdown.
fn print_outcome(outcome: serve_api::Outcome) {
    match outcome {
        serve_api::Outcome::Complete { items, stats }
        | serve_api::Outcome::Partial { items, stats } => {
            if stats.deadline_expired {
                eprintln!("warning: deadline expired — partial best-effort answer");
            }
            for note in &stats.degradations {
                eprintln!("warning: {note}");
            }
            for (rank, (oid, dist)) in items.iter().enumerate() {
                println!("  {rank:>2}. object {oid:>6}  emd {dist:.6}");
            }
            println!(
                "work: {} exact EMD evaluations / {} objects, {:?} server-side",
                stats.exact_evaluations, stats.db_size, stats.elapsed
            );
            if let Some(info) = &stats.retrieval {
                println!(
                    "retrieval: {} tier, guaranteed recall {:.3}",
                    info.mode, info.recall
                );
            }
        }
        serve_api::Outcome::Overloaded { queue_depth, stats } => {
            eprintln!("server overloaded (queue depth {queue_depth}); request shed");
            for note in &stats.degradations {
                eprintln!("note: {note}");
            }
        }
    }
}

/// `emdtool trace` — issue one sampled, traced k-NN and render the
/// linked result tree from the response's per-shard provenance. The
/// printed trace id greps straight into the daemons' `--trace-json`
/// JSONL output (`"trace_id":"<hex>"`), where the full span tree lives.
fn trace(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let db = load_db(flags)?;
    let id: usize = flags.num("id", usize::MAX)?;
    if id >= db.len() {
        return Err(format!(
            "--id must name a database object (0..{})",
            db.len().saturating_sub(1)
        ));
    }
    let k: u32 = flags.num("k", 10)?;
    let deadline_us: u64 = flags.num::<u64>("deadline-ms", 0)?.saturating_mul(1000);
    let q = db.get(id).to_histogram();
    // A fresh sampled root: the client call below forwards it on the
    // wire, so every process this query touches joins the same trace.
    let context = obs::TraceContext::root(true);
    let _scope = obs::set_trace(Some(context));
    let mut client = serve_api::Client::connect(addr, std::time::Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let started = std::time::Instant::now();
    let outcome = client.knn(&q, k, deadline_us).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    println!("trace {:016x} (sampled root)", context.trace_id);
    match outcome {
        serve_api::Outcome::Complete { items, stats }
        | serve_api::Outcome::Partial { items, stats } => {
            println!(
                "└─ request @ {addr}  {:.1}ms round-trip, {:.1}ms server-side, {} result(s){}",
                elapsed.as_secs_f64() * 1e3,
                stats.elapsed.as_secs_f64() * 1e3,
                items.len(),
                if stats.deadline_expired {
                    "  [partial]"
                } else {
                    ""
                }
            );
            let straggler = stats.straggler().map(|p| (p.shard, p.endpoint.clone()));
            let last = stats.provenance.len().saturating_sub(1);
            for (i, p) in stats.provenance.iter().enumerate() {
                let branch = if i == last { "└─" } else { "├─" };
                let role = if p.from_replica { "replica" } else { "primary" };
                let slowest = straggler
                    .as_ref()
                    .is_some_and(|(s, e)| *s == p.shard && *e == p.endpoint);
                println!(
                    "   {branch} shard {} @ {} ({role})  {:.1}ms  retries={} hedge={}  \
                     exact_emd={}{}",
                    p.shard,
                    p.endpoint,
                    p.latency.as_secs_f64() * 1e3,
                    p.retries,
                    if p.hedge_fired { "yes" } else { "no" },
                    p.stats.exact_evaluations,
                    if slowest { "  <- straggler" } else { "" }
                );
            }
            if stats.provenance.is_empty() {
                println!("   (no per-shard provenance: single-node server)");
            }
            for note in &stats.degradations {
                eprintln!("warning: {note}");
            }
        }
        serve_api::Outcome::Overloaded { queue_depth, .. } => {
            eprintln!("server overloaded (queue depth {queue_depth}); request shed");
        }
    }
    Ok(())
}

/// `emdtool top` — per-shard fleet table parsed out of the
/// coordinator's merged, per-shard-labeled metrics export.
fn top(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let mut client = serve_api::Client::connect(addr, std::time::Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let prom = client.stats().map_err(|e| e.to_string())?;
    let rows = serve_api::parse_fleet(&prom);
    if rows.is_empty() {
        return Err(
            "no per-shard series in the stats export — is the target an emdd-coord \
             with fleet scraping enabled, and has a scrape completed yet?"
                .to_string(),
        );
    }
    let fmt_ms = |v: Option<f64>| match v {
        Some(ms) => format!("{ms:.2}"),
        None => "-".to_string(),
    };
    let fmt_count = |v: Option<f64>| match v {
        Some(n) => format!("{n:.0}"),
        None => "-".to_string(),
    };
    let fmt_pct = |v: Option<f64>| match v {
        Some(frac) => format!("{:.1}%", 100.0 * frac),
        None => "-".to_string(),
    };
    println!(
        "{:>5}  {:<21}  {:>9}  {:>8}  {:>8}  {:>5}  {:>7}  {:>6}  {:>6}",
        "SHARD", "ENDPOINT", "REQUESTS", "P50(ms)", "P99(ms)", "QUEUE", "POOL%", "BLOCKS", "FCACHE"
    );
    for row in rows {
        println!(
            "{:>5}  {:<21}  {:>9}  {:>8}  {:>8}  {:>5}  {:>7}  {:>6}  {:>6}",
            row.shard,
            row.endpoint,
            row.requests,
            fmt_ms(row.p50_ms),
            fmt_ms(row.p99_ms),
            fmt_ms(row.queue_depth),
            fmt_pct(row.pool_hit_rate),
            fmt_count(row.pool_resident_blocks),
            fmt_count(row.filter_cache_entries),
        );
    }
    Ok(())
}

/// `emdtool client` — one request against a running daemon.
fn client(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let op = get(flags, "op")?;
    let mut client = serve_api::Client::connect(addr, std::time::Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let deadline_us: u64 = flags.num::<u64>("deadline-ms", 0)?.saturating_mul(1000);
    let query_histogram = || -> Result<earthmover::Histogram, String> {
        let db = load_db(flags)?;
        let id: usize = flags.num("id", usize::MAX)?;
        if id >= db.len() {
            return Err(format!(
                "--id must name a database object (0..{})",
                db.len().saturating_sub(1)
            ));
        }
        Ok(db.get(id).to_histogram())
    };
    match op {
        "knn" => {
            let k: usize = flags.num("k", 10)?;
            let q = query_histogram()?;
            let mode = match flags.get("mode") {
                None => None,
                Some(spec) => Some(earthmover::RetrievalMode::parse(spec).ok_or_else(|| {
                    format!("--mode {spec}: expected exact, sketch, or approx:EPS")
                })?),
            };
            let outcome = client
                .query(&q, earthmover::QueryPlan::Knn { k, mode }, deadline_us)
                .map_err(|e| e.to_string())?;
            print_outcome(outcome);
        }
        "range" => {
            let epsilon: f64 = flags.num("epsilon", 0.25)?;
            let q = query_histogram()?;
            let outcome = client
                .range(&q, epsilon, deadline_us)
                .map_err(|e| e.to_string())?;
            print_outcome(outcome);
        }
        "health" => {
            let h = client.health().map_err(|e| e.to_string())?;
            println!(
                "status   : {}",
                if h.draining { "draining" } else { "serving" }
            );
            println!("objects  : {}", h.db_size);
            println!("dims     : {}", h.dims);
            println!("uptime   : {:.1}s", h.uptime_ms as f64 / 1e3);
        }
        "stats" => {
            let prom = client.stats().map_err(|e| e.to_string())?;
            print!("{prom}");
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutdown acknowledged; server is draining");
        }
        other => return Err(format!("unknown --op {other}")),
    }
    Ok(())
}
