//! Wire-protocol front end for the scatter-gather [`Coordinator`]: the
//! `emdd-coord` daemon runtime.
//!
//! Speaks exactly the `emdd` protocol — a client cannot tell a
//! coordinator from a single node, which is what makes the healthy-
//! cluster parity tests meaningful. It *is* the daemon runtime
//! (`runtime`: non-blocking acceptor, connection threads, worker
//! permits, overflow answered with `Overloaded`) with a different
//! handler: each worker permit carries its own [`Coordinator`] (private
//! shard connections) over the shared [`ClusterShared`] state (breakers,
//! latency windows, metrics), and an extra thread keeps the fleet
//! telemetry cache fresh.
//!
//! A cluster-side degradation (unreachable shard group, shard deadline)
//! surfaces as the wire's typed-partial frame (`DeadlineExceeded`),
//! with the merged stats' degradation notes — e.g.
//! `SHARD_UNAVAILABLE: shard group 1 (...)` — telling the client *why*
//! the answer is partial.

use crate::client::Outcome;
use crate::coord::{ClusterShared, CoordError, Coordinator};
use crate::fleet::FleetTelemetry;
use crate::protocol::{self, ErrorCode, Planned, Request, RequestExt, Response};
use crate::runtime::{self, Background, Handler, Limits, Names};
use crate::server::StopHandle;
use earthmover_obs::{self as obs, names, MetricsRegistry, Subscriber};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for a [`CoordServer`]. The deadline default lives in
/// [`crate::coord::ClusterConfig`], not here — it is a property of the
/// cluster, shared by every front end.
#[derive(Debug, Clone)]
pub struct CoordServerConfig {
    /// Requests executed at once, each worker owning its own shard
    /// connections (min 1).
    pub workers: usize,
    /// Requests that may wait for a busy worker before one is shed with
    /// `Overloaded`; `0` sheds every request that finds all workers busy.
    pub queue_depth: usize,
    /// Per-connection idle read timeout, which also bounds one frame's
    /// arrival. An idle connection holds no worker.
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted frame payload length.
    pub max_frame_len: u32,
    /// Slow-query log threshold: a query request at least this slow
    /// emits a `coord_slow_query` event carrying its trace ids.
    /// `Some(Duration::ZERO)` logs every query; `None` disables the log.
    pub slow_query: Option<Duration>,
    /// Deterministic head sampling: every Nth query request arriving
    /// *without* a caller trace context starts a fresh sampled trace.
    /// `0` disables root creation (forwarded contexts are still
    /// honoured).
    pub trace_sample_every: u64,
    /// How often the fleet scraper pulls each shard's metrics; `None`
    /// disables scraping (the `stats` response then carries only the
    /// coordinator's own registry).
    pub fleet_scrape_interval: Option<Duration>,
    /// Retrieval tier for k-NN requests that arrive without a mode
    /// extension. `None` (the default) preserves the historical
    /// mode-less exact path byte-for-byte.
    pub default_mode: Option<earthmover_core::RetrievalMode>,
}

impl Default for CoordServerConfig {
    fn default() -> CoordServerConfig {
        CoordServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
            slow_query: None,
            trace_sample_every: 0,
            fleet_scrape_interval: Some(Duration::from_secs(2)),
            default_mode: None,
        }
    }
}

/// A running coordinator daemon bound to its listener. Create with
/// [`CoordServer::bind`] (after [`ClusterShared::discover`]), then
/// block in [`CoordServer::run`].
#[derive(Debug)]
pub struct CoordServer {
    listener: TcpListener,
    cfg: CoordServerConfig,
    cluster: Arc<ClusterShared>,
    stop: StopHandle,
}

/// State shared by the connection threads: the coordinator [`Handler`].
pub(crate) struct Shared {
    cfg: CoordServerConfig,
    cluster: Arc<ClusterShared>,
    stop: StopHandle,
    fleet: FleetTelemetry,
    /// Query requests seen without a caller trace context; drives the
    /// deterministic head sampler.
    sampler: AtomicU64,
}

impl CoordServer {
    /// Binds the listener (port `0` for ephemeral) without starting any
    /// threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: CoordServerConfig,
        cluster: Arc<ClusterShared>,
    ) -> io::Result<CoordServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(CoordServer {
            listener,
            cfg,
            cluster,
            stop: StopHandle::default(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`CoordServer::run`] drain and return.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// The shared cluster state this front end serves.
    pub fn cluster(&self) -> &Arc<ClusterShared> {
        &self.cluster
    }

    /// Runs the daemon until a shutdown is requested, then drains and
    /// returns. `subscriber`, when given, is installed on every
    /// connection thread and flushed on the way out.
    pub fn run(&self, subscriber: Option<Arc<dyn Subscriber>>) -> io::Result<()> {
        let shared = Shared {
            cfg: self.cfg.clone(),
            cluster: Arc::clone(&self.cluster),
            stop: self.stop.clone(),
            fleet: FleetTelemetry::new(self.cluster.config().groups.len()),
            sampler: AtomicU64::new(0),
        };
        let limits = Limits {
            db_size: usize::try_from(self.cluster.topology().total).unwrap_or(usize::MAX),
            workers: self.cfg.workers,
            queue_depth: self.cfg.queue_depth,
            read_timeout: self.cfg.read_timeout,
            write_timeout: self.cfg.write_timeout,
            max_frame_len: self.cfg.max_frame_len,
        };
        runtime::run(&self.listener, limits, &self.stop, subscriber, &shared)
    }
}

impl Handler for Shared {
    type Worker = Coordinator;
    const NAMES: Names = Names {
        daemon: "emdd-coord",
        connection_span: names::COORD_CONNECTION,
        shed_event: names::COORD_SHED,
        connections_total: names::COORD_CONNECTIONS_TOTAL,
        shed_total: names::COORD_SHED_TOTAL,
        errors_total: names::COORD_ERRORS_TOTAL,
        requests_total: names::COORD_REQUESTS_TOTAL,
        queue_depth: names::COORD_QUEUE_DEPTH,
        queue_wait_seconds: names::COORD_QUEUE_WAIT_SECONDS,
        active_connections: names::COORD_ACTIVE_CONNECTIONS,
    };

    fn registry(&self) -> &MetricsRegistry {
        self.cluster.registry()
    }

    fn worker(&self) -> Coordinator {
        Coordinator::new(Arc::clone(&self.cluster))
    }

    fn respond(
        &self,
        coordinator: &mut Coordinator,
        started: Instant,
        request: Result<(Request, RequestExt), Response>,
    ) -> (Response, bool) {
        let registry = self.cluster.registry();
        let is_query = matches!(
            &request,
            Ok((Request::Knn { .. } | Request::Range { .. }, _))
        );
        // Trace context: adopt the caller's when the frame carries one;
        // otherwise head-sample — every Nth uncontexted query starts a
        // fresh sampled trace rooted here.
        let trace = match &request {
            Ok((_, exts)) if exts.trace.is_some() => exts.trace,
            Ok((_, _)) if is_query && self.cfg.trace_sample_every > 0 => {
                let n = self.sampler.fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(self.cfg.trace_sample_every) {
                    registry.counter(&names::COORD_TRACES_SAMPLED_TOTAL).inc(1);
                    Some(obs::TraceContext::root(true))
                } else {
                    None
                }
            }
            _ => None,
        };
        let _trace_scope = trace.map(|t| obs::set_trace(Some(t)));
        let (response, keep_going) = match request {
            Ok((req, exts)) => execute(self, coordinator, req, exts.mode, started),
            Err(bad_request) => (bad_request, true),
        };
        let elapsed = started.elapsed();
        registry
            .histogram(&names::COORD_REQUEST_SECONDS)
            .observe(elapsed);
        if is_query {
            if let Some(threshold) = self.cfg.slow_query {
                if elapsed >= threshold {
                    registry.counter(&names::COORD_SLOW_QUERIES_TOTAL).inc(1);
                    // Emitted inside the trace scope: the event's trace_id
                    // links it to the coord_request span and every shard's
                    // serve_request span in the same tree.
                    obs::event!(
                        names::COORD_SLOW_QUERY,
                        elapsed_us = elapsed.as_micros() as u64
                    );
                }
            }
        }
        (response, keep_going)
    }

    fn background(&self) -> Option<Background<'_>> {
        let interval = self.cfg.fleet_scrape_interval?;
        Some((
            "emdd-coord-fleet",
            Box::new(move || fleet_loop(self, interval)),
        ))
    }
}

/// Periodically pulls every shard's metrics into the fleet cache. The
/// first scrape runs immediately so the `stats` response fills fast;
/// between scrapes the loop wakes every 50 ms to honour shutdown.
fn fleet_loop(shared: &Shared, interval: Duration) {
    while !shared.stop.is_stopped() {
        shared.fleet.scrape(&shared.cluster);
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.stop.is_stopped() {
            let step = Duration::from_millis(50).min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Runs one decoded request, whose frame arrived at `arrived`, through
/// the coordinator. Returns the response and whether the connection may
/// continue.
fn execute(
    shared: &Shared,
    coordinator: &mut Coordinator,
    req: Request,
    mode: Option<earthmover_core::RetrievalMode>,
    arrived: Instant,
) -> (Response, bool) {
    let registry = shared.cluster.registry();
    match protocol::plan(&req, mode, shared.cfg.default_mode) {
        // An explicit retrieval mode fans out as-is; mode-less traffic
        // keeps the historical exact path byte-for-byte unless the
        // operator set a cluster-wide default tier.
        Planned::Query(histogram, plan, deadline_us) => {
            let outcome = coordinator.query_arrived(histogram, plan, deadline_us, arrived);
            (outcome_response(outcome, registry), true)
        }
        Planned::Health => {
            let info = coordinator.health();
            (
                Response::HealthReport {
                    draining: shared.stop.is_stopped(),
                    db_size: info.db_size,
                    dims: info.dims,
                    uptime_ms: info.uptime_ms,
                },
                true,
            )
        }
        Planned::Stats => (
            Response::StatsReport {
                // The coordinator's own registry followed by every
                // shard's scraped series with per-shard labels — one
                // scrape of the coordinator yields the whole fleet.
                prometheus: shared.fleet.merged_prometheus(&registry.to_prometheus()),
            },
            true,
        ),
        Planned::Shutdown => {
            obs::event!(names::COORD_DRAIN_BEGIN);
            shared.stop.stop();
            (Response::ShutdownStarted, false)
        }
    }
}

/// Maps a coordinator outcome onto the wire: complete results, typed
/// partial (the `DeadlineExceeded` frame doubles as the generic
/// typed-partial carrier — the degradation notes say why), or a typed
/// error for an invalid query.
fn outcome_response(
    result: Result<Outcome, CoordError>,
    registry: &Arc<earthmover_obs::MetricsRegistry>,
) -> Response {
    match result {
        Ok(Outcome::Complete { items, stats }) => Response::Results { items, stats },
        Ok(Outcome::Partial { items, stats }) => Response::DeadlineExceeded { items, stats },
        Ok(Outcome::Overloaded { queue_depth, stats }) => {
            Response::Overloaded { queue_depth, stats }
        }
        Err(CoordError::BadQuery(m)) => {
            registry.counter(&names::COORD_ERRORS_TOTAL).inc(1);
            Response::Error {
                code: ErrorCode::BadRequest,
                message: m,
            }
        }
        Err(e) => {
            registry.counter(&names::COORD_ERRORS_TOTAL).inc(1);
            Response::Error {
                code: ErrorCode::Internal,
                message: e.to_string(),
            }
        }
    }
}
