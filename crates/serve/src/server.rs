//! The query daemon runtime: acceptor, bounded request queue, worker
//! pool, admission control, and graceful drain-then-shutdown.
//!
//! Threading model (DESIGN.md §12): one non-blocking acceptor thread
//! polls the listener and the stop flag. Accepted connections enter a
//! *bounded* queue; when the queue is full the acceptor sheds the
//! connection to a dedicated shedder thread, which reads one request
//! (so the client's write is consumed and the close is a clean FIN, not
//! an RST) and answers with [`Response::Overloaded`]. A fixed pool of
//! worker threads pops connections and owns each one until the peer
//! hangs up, the idle read timeout fires, or a drain begins — requests
//! on one connection are served back-to-back (keep-alive).
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] frame or the
//! process's stop flag (signal handler) makes the acceptor stop
//! accepting; workers finish the queued and in-flight requests, close
//! their connections after the current response, and the run returns
//! after flushing telemetry.

use crate::protocol::{
    self, ErrorCode, RawFrame, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, OVERLOAD_NOTE,
};
use crate::queue::{ConnQueue, ShedLane};
use earthmover_core::deadline::Deadline;
use earthmover_core::ground::BinGrid;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::stats::QueryStats;
use earthmover_core::{HistogramDb, RetrievalMode, SketchTier};
use earthmover_obs::{self as obs, MetricsRegistry, Subscriber};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`]. `Default` gives sensible production-ish
/// values; tests shrink the pool and queue to force admission control.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (min 1).
    pub workers: usize,
    /// Bounded connection-queue depth. `0` sheds every request — useful
    /// for deterministic overload tests.
    pub queue_depth: usize,
    /// Per-connection idle read timeout; an idle keep-alive connection
    /// is closed after this long without a frame.
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

/// State shared by the acceptor, shedder, and workers.
struct Shared<'env> {
    engine: QueryEngine<'env>,
    db: &'env HistogramDb,
    cfg: ServerConfig,
    registry: MetricsRegistry,
    queue: ConnQueue,
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
    /// returns. Blocks the calling thread; the worker pool is scoped
    /// inside, which is what lets the engine borrow `db` and `grid`
    /// instead of requiring `'static` ownership.
    ///
    /// `subscriber`, when given, is installed on every worker thread (so
    /// `serve_connection` / `serve_request` spans reach it) and flushed
    /// on the graceful-shutdown path.
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
        self.listener.set_nonblocking(true)?;
        let mut builder = QueryEngine::builder(db, grid);
        if let Some(tier) = sketch {
            builder = builder.sketch(tier);
        }
        let shared = Shared {
            engine: builder.build(),
            db,
            cfg: self.cfg.clone(),
            registry: MetricsRegistry::new(),
            queue: ConnQueue::new(self.cfg.queue_depth),
            stop: self.stop.clone(),
            started: Instant::now(),
        };
        let shed = ShedLane::new();
        std::thread::scope(|scope| {
            for worker in 0..self.cfg.workers.max(1) {
                let shared = &shared;
                let subscriber = subscriber.clone();
                std::thread::Builder::new()
                    .name(format!("emdd-worker-{worker}"))
                    .spawn_scoped(scope, move || {
                        let _guard = subscriber.map(obs::install);
                        worker_loop(shared);
                    })?;
            }
            {
                let shared = &shared;
                let shed = &shed;
                // The shedder emits `serve_shed` events; it needs the
                // subscriber too, or the events silently hit Noop.
                let subscriber = subscriber.clone();
                std::thread::Builder::new()
                    .name("emdd-shedder".into())
                    .spawn_scoped(scope, move || {
                        let _guard = subscriber.map(obs::install);
                        shed_loop(shared, shed);
                    })?;
            }
            accept_loop(&self.listener, &shared, &shed);
            // Drain: wake every worker so the ones parked on an empty
            // queue observe the stop flag and exit.
            shared.queue.wake_all();
            shed.close();
            Ok::<(), io::Error>(())
        })?;
        if let Some(s) = &subscriber {
            s.flush();
        }
        Ok(())
    }
}

/// Accepts connections until a stop is requested, shedding when the
/// bounded queue is full.
fn accept_loop(listener: &TcpListener, shared: &Shared<'_>, shed: &ShedLane) {
    let depth_gauge = shared.registry.gauge("serve_queue_depth");
    while !shared.stop.is_stopped() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.registry.counter("serve_connections_total").inc(1);
                match shared.queue.push(stream) {
                    Ok(len) => depth_gauge.set(len as f64),
                    Err(stream) => {
                        shared.registry.counter("serve_shed_total").inc(1);
                        shed.offer(stream);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Accept errors (EMFILE, aborted handshakes) are
                // transient; back off briefly instead of spinning.
                shared.registry.counter("serve_errors_total").inc(1);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves shed connections: reads the peer's request (consuming its
/// write so the close is clean), answers [`Response::Overloaded`], and
/// hangs up.
fn shed_loop(shared: &Shared<'_>, lane: &ShedLane) {
    loop {
        let Some(mut stream) = lane.take() else {
            if lane.is_closed() {
                return;
            }
            continue;
        };
        obs::event!("serve_shed");
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
        let request_id = match protocol::read_frame(&mut stream, shared.cfg.max_frame_len) {
            Ok(Some(raw)) => raw.request_id,
            _ => 0,
        };
        let mut stats = QueryStats {
            db_size: shared.db.len(),
            ..QueryStats::default()
        };
        stats.record_degradation_once(OVERLOAD_NOTE);
        let resp = Response::Overloaded {
            queue_depth: shared.cfg.queue_depth as u32,
            stats,
        };
        let _ = protocol::write_frame(&mut stream, &protocol::encode_response(request_id, &resp));
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Pops connections and serves them until a drain begins and the queue
/// is empty.
fn worker_loop(shared: &Shared<'_>) {
    let depth_gauge = shared.registry.gauge("serve_queue_depth");
    loop {
        let (conn, len) = shared.queue.pop(Duration::from_millis(50));
        depth_gauge.set(len as f64);
        match conn {
            Some(stream) => serve_connection(shared, stream),
            None if shared.stop.is_stopped() => return,
            None => {}
        }
    }
}

/// Owns one connection: keep-alive loop reading frames until EOF, idle
/// timeout, a protocol error, or a drain.
fn serve_connection(shared: &Shared<'_>, mut stream: TcpStream) {
    let active = shared.registry.gauge("serve_active_connections");
    active.add(1.0);
    let mut span = obs::span!("serve_connection");
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut served: u64 = 0;
    loop {
        match protocol::read_frame(&mut stream, shared.cfg.max_frame_len) {
            Ok(Some(raw)) => {
                served += 1;
                let keep_going = handle_frame(shared, &mut stream, raw);
                if !keep_going || shared.stop.is_stopped() {
                    break;
                }
            }
            Ok(None) => break, // clean EOF at a frame boundary
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break; // idle keep-alive connection
            }
            Err(err) => {
                // Malformed bytes: answer with a typed error, then hang
                // up — the stream position is no longer trustworthy.
                shared.registry.counter("serve_errors_total").inc(1);
                let resp = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                };
                let _ = protocol::write_frame(&mut stream, &protocol::encode_response(0, &resp));
                break;
            }
        }
    }
    span.record("requests", served as f64);
    drop(span);
    let _ = stream.shutdown(Shutdown::Both);
    active.add(-1.0);
}

/// Decodes and executes one frame; returns `false` when the connection
/// must close (shutdown request, or a response write failed).
fn handle_frame(shared: &Shared<'_>, stream: &mut TcpStream, raw: RawFrame) -> bool {
    let request_id = raw.request_id;
    shared.registry.counter("serve_requests_total").inc(1);
    let started = Instant::now();
    let request = raw.into_request_ext();
    let endpoint = match &request {
        Ok((Request::Knn { .. }, _)) => "serve_knn_seconds",
        Ok((Request::Range { .. }, _)) => "serve_range_seconds",
        Ok((Request::Health, _)) => "serve_health_seconds",
        Ok((Request::Stats, _)) => "serve_stats_seconds",
        Ok((Request::Shutdown, _)) => "serve_shutdown_seconds",
        Err(_) => "serve_errors_total",
    };
    // Adopt the caller's trace context (if the frame carried one) for
    // the duration of this request, so `serve_request` and everything
    // under it link into the distributed trace.
    let trace = match &request {
        Ok((_, exts)) => exts.trace,
        Err(_) => None,
    };
    let _trace_scope = trace.map(|t| obs::set_trace(Some(t)));
    let mut span = obs::span!("serve_request");
    let (response, keep_going) = match request {
        Ok((req, exts)) => execute(shared, req, exts.mode),
        Err(err) => {
            shared.registry.counter("serve_errors_total").inc(1);
            (
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                },
                // Payload decoding failed but framing was intact, so the
                // stream is still aligned; keep the connection.
                true,
            )
        }
    };
    if matches!(response, Response::DeadlineExceeded { .. }) {
        shared
            .registry
            .counter("serve_deadline_exceeded_total")
            .inc(1);
    }
    let elapsed = started.elapsed();
    if endpoint != "serve_errors_total" {
        shared.registry.histogram(endpoint).observe(elapsed);
    }
    span.record("elapsed_us", elapsed.as_secs_f64() * 1e6);
    drop(span);
    let wrote =
        protocol::write_frame(stream, &protocol::encode_response(request_id, &response)).is_ok();
    keep_going && wrote
}

/// Runs one decoded request against the engine. Returns the response
/// and whether the connection may continue. `mode` is the request's
/// retrieval-mode extension; range queries ignore it (always exact).
fn execute(shared: &Shared<'_>, req: Request, mode: Option<RetrievalMode>) -> (Response, bool) {
    match req {
        Request::Knn {
            k,
            deadline_us,
            histogram,
        } => {
            if histogram.len() != shared.db.dims() {
                return (arity_error(shared, histogram.len()), true);
            }
            let deadline = request_deadline(shared, deadline_us);
            let result = match mode.or(shared.cfg.default_mode) {
                Some(mode) => {
                    if matches!(mode, RetrievalMode::SketchOnly) {
                        shared.registry.counter("sketch_queries_total").inc(1);
                    }
                    shared
                        .engine
                        .knn_mode_within(&histogram, k as usize, mode, deadline)
                }
                // Mode-less requests keep the historical path: exact
                // answers whose responses stay byte-identical to v1.
                None => shared.engine.knn_within(&histogram, k as usize, deadline),
            };
            match result {
                Ok(result) => (query_response(result), true),
                Err(e) => (internal_error(shared, &e.to_string()), true),
            }
        }
        Request::Range {
            epsilon,
            deadline_us,
            histogram,
        } => {
            if histogram.len() != shared.db.dims() {
                return (arity_error(shared, histogram.len()), true);
            }
            let deadline = request_deadline(shared, deadline_us);
            match shared.engine.range_within(&histogram, epsilon, deadline) {
                Ok(result) => (query_response(result), true),
                Err(e) => (internal_error(shared, &e.to_string()), true),
            }
        }
        Request::Health => (
            Response::HealthReport {
                draining: shared.stop.is_stopped(),
                db_size: shared.db.len() as u64,
                dims: shared.db.dims() as u32,
                uptime_ms: shared.started.elapsed().as_millis() as u64,
            },
            true,
        ),
        Request::Stats => {
            refresh_storage_gauges(shared);
            (
                Response::StatsReport {
                    prometheus: shared.registry.to_prometheus(),
                },
                true,
            )
        }
        Request::Shutdown => {
            obs::event!("serve_drain_begin");
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
        registry.gauge("pool_hit_total").set(pool.hits as f64);
        registry.gauge("pool_miss_total").set(pool.misses as f64);
        registry
            .gauge("pool_evictions_total")
            .set(pool.evictions as f64);
        registry
            .gauge("pool_bypass_total")
            .set(pool.bypasses as f64);
        registry
            .gauge("pool_resident_blocks")
            .set(shared.db.resident_block_count() as f64);
    }
    let cache = shared.db.filter_cache().stats();
    let registry = &shared.registry;
    registry
        .gauge("filter_cache_hit_total")
        .set(cache.hits as f64);
    registry
        .gauge("filter_cache_miss_total")
        .set(cache.misses as f64);
    registry
        .gauge("filter_cache_entries")
        .set(cache.entries as f64);
}

fn request_deadline(shared: &Shared<'_>, deadline_us: u64) -> Deadline {
    if deadline_us == 0 {
        match shared.cfg.default_deadline {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        }
    } else {
        Deadline::within(Duration::from_micros(deadline_us))
    }
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
    shared.registry.counter("serve_errors_total").inc(1);
    Response::Error {
        code: ErrorCode::BadRequest,
        message: format!(
            "query histogram has {got} bins, database stores {}",
            shared.db.dims()
        ),
    }
}

fn internal_error(shared: &Shared<'_>, message: &str) -> Response {
    shared.registry.counter("serve_errors_total").inc(1);
    Response::Error {
        code: ErrorCode::Internal,
        message: message.to_string(),
    }
}
