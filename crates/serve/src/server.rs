//! The single-node query daemon: the shared, crate-private daemon
//! runtime (`runtime` — acceptor, connection threads, worker permits,
//! shedding and drain, DESIGN.md §12) with a handler that runs
//! each decoded request against a [`QueryEngine`].
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] frame or the
//! process's stop flag (signal handler) makes the acceptor stop
//! accepting; idle connections close, the requests already read are
//! answered, each connection closes after its current response, and the
//! run returns after flushing telemetry.

use crate::protocol::{
    self, ErrorCode, Planned, Request, RequestExt, Response, DEFAULT_MAX_FRAME_LEN,
};
use crate::runtime::{self, Handler, Limits, Names};
use earthmover_core::ground::BinGrid;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::{HistogramDb, QueryPlan, RetrievalMode, SketchTier};
use earthmover_obs::{self as obs, names, MetricsRegistry, Subscriber};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`]. `Default` gives sensible production-ish
/// values; tests shrink the pool and queue to force admission control.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests executed at once, whatever the number of connections
    /// (min 1).
    pub workers: usize,
    /// Requests that may wait for a busy worker; one arriving beyond
    /// that is shed with a typed `overloaded` answer. `0` sheds every
    /// request that finds all workers busy.
    pub queue_depth: usize,
    /// Per-connection idle read timeout: an idle keep-alive connection
    /// is closed after this long without a frame, and a frame must
    /// arrive whole within it. An idle connection holds no worker.
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
    /// Deadline budget applied when a request carries `deadline_us == 0`.
    /// `None` means such requests run unbounded.
    pub default_deadline: Option<Duration>,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// Retrieval tier applied when a k-NN request carries no mode
    /// extension. `None` preserves the historical behavior: mode-less
    /// requests run the exact pipeline through the mode-less engine API
    /// (and their responses carry no retrieval-info extension).
    pub default_mode: Option<RetrievalMode>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            default_deadline: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            default_mode: None,
        }
    }
}

/// Sets the flag that makes a running server drain and stop. Cloneable
/// and cheap; safe to poke from any thread (the `emdd` binary bridges
/// its signal handler to one of these).
#[derive(Debug, Clone, Default)]
pub struct StopHandle(Arc<AtomicBool>);

impl StopHandle {
    /// Requests a drain-then-shutdown.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once a shutdown has been requested.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// State shared by the connection threads: the single-node [`Handler`].
pub(crate) struct Shared<'env> {
    engine: QueryEngine<'env>,
    db: &'env HistogramDb,
    cfg: ServerConfig,
    registry: MetricsRegistry,
    stop: StopHandle,
    started: Instant,
}

/// A running `emdd` server bound to its listener. Create with
/// [`Server::bind`], then block in [`Server::run`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    stop: StopHandle,
}

impl Server {
    /// Binds the listener (use port `0` for an ephemeral port) without
    /// starting any threads.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            cfg,
            stop: StopHandle::default(),
        })
    }

    /// The bound address — tells you the ephemeral port after
    /// `bind("127.0.0.1:0", ..)`.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] drain and return.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Runs the daemon until a shutdown is requested, then drains and
    /// returns. Blocks the calling thread; the connection threads are
    /// scoped inside, which is what lets the engine borrow `db` and
    /// `grid` instead of requiring `'static` ownership.
    ///
    /// `subscriber`, when given, is installed on every connection thread
    /// (so `serve_connection` / `serve_request` spans reach it) and
    /// flushed on the graceful-shutdown path.
    pub fn run(
        &self,
        db: &HistogramDb,
        grid: &BinGrid,
        subscriber: Option<Arc<dyn Subscriber>>,
    ) -> io::Result<()> {
        self.run_with(db, grid, subscriber, None)
    }

    /// [`Server::run`] with an optional sketch tier attached to the
    /// engine, enabling [`RetrievalMode::SketchOnly`] service. Without a
    /// tier, sketch-only requests degrade to exact answers with a
    /// `SKETCH_UNAVAILABLE` degradation note.
    pub fn run_with(
        &self,
        db: &HistogramDb,
        grid: &BinGrid,
        subscriber: Option<Arc<dyn Subscriber>>,
        sketch: Option<SketchTier>,
    ) -> io::Result<()> {
        let mut builder = QueryEngine::builder(db, grid);
        if let Some(tier) = sketch {
            builder = builder.sketch(tier);
        }
        let shared = Shared {
            engine: builder.build(),
            db,
            cfg: self.cfg.clone(),
            registry: MetricsRegistry::new(),
            stop: self.stop.clone(),
            started: Instant::now(),
        };
        let limits = Limits {
            db_size: db.len(),
            workers: self.cfg.workers,
            queue_depth: self.cfg.queue_depth,
            read_timeout: self.cfg.read_timeout,
            write_timeout: self.cfg.write_timeout,
            max_frame_len: self.cfg.max_frame_len,
        };
        runtime::run(&self.listener, limits, &self.stop, subscriber, &shared)
    }
}

impl Handler for Shared<'_> {
    type Worker = ();
    const NAMES: Names = Names {
        daemon: "emdd",
        connection_span: names::SERVE_CONNECTION,
        shed_event: names::SERVE_SHED,
        connections_total: names::SERVE_CONNECTIONS_TOTAL,
        shed_total: names::SERVE_SHED_TOTAL,
        errors_total: names::SERVE_ERRORS_TOTAL,
        requests_total: names::SERVE_REQUESTS_TOTAL,
        queue_depth: names::SERVE_QUEUE_DEPTH,
        queue_wait_seconds: names::SERVE_QUEUE_WAIT_SECONDS,
        active_connections: names::SERVE_ACTIVE_CONNECTIONS,
    };

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn worker(&self) {}

    fn respond(
        &self,
        _worker: &mut (),
        started: Instant,
        request: Result<(Request, RequestExt), Response>,
    ) -> (Response, bool) {
        let endpoint = match &request {
            Ok((Request::Knn { .. }, _)) => Some(names::SERVE_KNN_SECONDS),
            Ok((Request::Range { .. }, _)) => Some(names::SERVE_RANGE_SECONDS),
            Ok((Request::Health, _)) => Some(names::SERVE_HEALTH_SECONDS),
            Ok((Request::Stats, _)) => Some(names::SERVE_STATS_SECONDS),
            Ok((Request::Shutdown, _)) => Some(names::SERVE_SHUTDOWN_SECONDS),
            Err(_) => None,
        };
        // Adopt the caller's trace context (if the frame carried one) for
        // the duration of this request, so `serve_request` and everything
        // under it link into the distributed trace.
        let trace = request.as_ref().ok().and_then(|(_, exts)| exts.trace);
        let _trace_scope = trace.map(|t| obs::set_trace(Some(t)));
        let mut span = obs::span!(names::SERVE_REQUEST);
        let (response, keep_going) = match request {
            Ok((req, exts)) => execute(self, req, exts.mode, started),
            Err(bad_request) => (bad_request, true),
        };
        if matches!(response, Response::DeadlineExceeded { .. }) {
            self.registry
                .counter(&names::SERVE_DEADLINE_EXCEEDED_TOTAL)
                .inc(1);
        }
        let elapsed = started.elapsed();
        if let Some(endpoint) = endpoint {
            self.registry.histogram(&endpoint).observe(elapsed);
        }
        span.record("elapsed_us", elapsed.as_secs_f64() * 1e6);
        (response, keep_going)
    }
}

/// Runs one decoded request, whose frame arrived at `arrived`, against
/// the engine. Returns the response and whether the connection may
/// continue. `mode` is the request's retrieval-mode extension.
fn execute(
    shared: &Shared<'_>,
    req: Request,
    mode: Option<RetrievalMode>,
    arrived: Instant,
) -> (Response, bool) {
    match protocol::plan(&req, mode, shared.cfg.default_mode) {
        Planned::Query(histogram, plan, deadline_us) => {
            if histogram.len() != shared.db.dims() {
                return (arity_error(shared, histogram.len()), true);
            }
            if let QueryPlan::Knn {
                mode: Some(RetrievalMode::SketchOnly),
                ..
            } = plan
            {
                shared.registry.counter(&names::SKETCH_QUERIES_TOTAL).inc(1);
            }
            let deadline =
                protocol::deadline_from_wire(deadline_us, shared.cfg.default_deadline, arrived);
            match shared.engine.query(histogram, plan, deadline) {
                Ok(result) => (query_response(result), true),
                Err(e) => (internal_error(shared, &e.to_string()), true),
            }
        }
        Planned::Health => (
            Response::HealthReport {
                draining: shared.stop.is_stopped(),
                db_size: shared.db.len() as u64,
                dims: shared.db.dims() as u32,
                uptime_ms: shared.started.elapsed().as_millis() as u64,
            },
            true,
        ),
        Planned::Stats => {
            refresh_storage_gauges(shared);
            (
                Response::StatsReport {
                    prometheus: shared.registry.to_prometheus(),
                },
                true,
            )
        }
        Planned::Shutdown => {
            obs::event!(names::SERVE_DRAIN_BEGIN);
            shared.stop.stop();
            (Response::ShutdownStarted, false)
        }
    }
}

/// Copies the buffer-pool and filter-cache snapshots into gauges so a
/// stats scrape reports current tiered-storage traffic. Pool gauges only
/// exist for paged databases; the filter cache runs on both backings.
fn refresh_storage_gauges(shared: &Shared<'_>) {
    if let Some(pool) = shared.db.pool_stats() {
        let registry = &shared.registry;
        registry.gauge(&names::POOL_HIT_TOTAL).set(pool.hits as f64);
        registry
            .gauge(&names::POOL_MISS_TOTAL)
            .set(pool.misses as f64);
        registry
            .gauge(&names::POOL_EVICTIONS_TOTAL)
            .set(pool.evictions as f64);
        registry
            .gauge(&names::POOL_BYPASS_TOTAL)
            .set(pool.bypasses as f64);
        registry
            .gauge(&names::POOL_RESIDENT_BLOCKS)
            .set(shared.db.resident_block_count() as f64);
    }
    let cache = shared.db.filter_cache().stats();
    let registry = &shared.registry;
    registry
        .gauge(&names::FILTER_CACHE_HIT_TOTAL)
        .set(cache.hits as f64);
    registry
        .gauge(&names::FILTER_CACHE_MISS_TOTAL)
        .set(cache.misses as f64);
    registry
        .gauge(&names::FILTER_CACHE_ENTRIES)
        .set(cache.entries as f64);
}

/// Wraps an engine result as either a complete or a typed-partial
/// response, preserving the full stats breakdown.
fn query_response(result: earthmover_core::multistep::QueryResult) -> Response {
    let items: Vec<(u64, f64)> = result
        .items
        .iter()
        .map(|(id, d)| (*id as u64, *d))
        .collect();
    if result.stats.deadline_expired {
        Response::DeadlineExceeded {
            items,
            stats: result.stats,
        }
    } else {
        Response::Results {
            items,
            stats: result.stats,
        }
    }
}

fn arity_error(shared: &Shared<'_>, got: usize) -> Response {
    shared.registry.counter(&names::SERVE_ERRORS_TOTAL).inc(1);
    Response::Error {
        code: ErrorCode::BadRequest,
        message: format!(
            "query histogram has {got} bins, database stores {}",
            shared.db.dims()
        ),
    }
}

fn internal_error(shared: &Shared<'_>, message: &str) -> Response {
    shared.registry.counter(&names::SERVE_ERRORS_TOTAL).inc(1);
    Response::Error {
        code: ErrorCode::Internal,
        message: message.to_string(),
    }
}
