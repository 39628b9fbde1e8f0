//! The daemon runtime both front ends run on (DESIGN.md §12). A
//! non-blocking acceptor hands each connection to a connection thread —
//! a spare one whose last connection closed, else a new one, up to
//! `workers + queue_depth + `[`CONN_HEADROOM`] — which owns the socket
//! until it closes. Each request it reads runs under one of `workers`
//! permits, or is shed with [`Response::Overloaded`] when none is idle
//! and `queue_depth` requests already wait. A drain closes idle
//! connections within [`IDLE_SLICE`] and answers what was already read.
//!
//! What a daemon *does* with a decoded request is its [`Handler`]:
//! [`crate::server`] runs it against a query engine,
//! [`crate::coord_server`] scatters it over the shards.

use crate::conn::Conn;
use crate::protocol::{
    self, ErrorCode, RawFrame, Request, RequestExt, Response, WireError, OVERLOAD_NOTE,
};
use crate::server::StopHandle;
use earthmover_core::deadline::Deadline;
use earthmover_core::stats::QueryStats;
use earthmover_obs::names::Name;
use earthmover_obs::{self as obs, Gauge, MetricsRegistry, Subscriber};
use std::io;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// The names one daemon's runtime emits under: `daemon` prefixes its
/// thread names, the rest are span, event and metric names.
pub(crate) struct Names {
    pub daemon: &'static str,
    pub connection_span: Name,
    pub shed_event: Name,
    pub connections_total: Name,
    pub shed_total: Name,
    pub errors_total: Name,
    pub requests_total: Name,
    pub queue_depth: Name,
    pub queue_wait_seconds: Name,
    pub active_connections: Name,
}

/// The admission and socket limits of one daemon, copied out of its
/// public config struct, and the `db_size` its `Overloaded` frames
/// report.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    pub db_size: usize,
    pub workers: usize,
    pub queue_depth: usize,
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    pub max_frame_len: u32,
}

/// An extra thread a daemon runs beside its connections: its name and
/// body.
pub(crate) type Background<'a> = (&'static str, Box<dyn FnOnce() + Send + 'a>);

/// What differs between the daemons that share this runtime.
pub(crate) trait Handler: Sync {
    /// The private state of one worker permit.
    type Worker: Send;
    /// The names this daemon's admission telemetry is emitted under.
    const NAMES: Names;

    /// The registry the runtime's counters, gauges and histograms live in.
    fn registry(&self) -> &MetricsRegistry;

    /// Builds one permit's state. All `workers` of them are built before
    /// the first connection is accepted; each request borrows one on the
    /// thread of the connection it arrived on.
    fn worker(&self) -> Self::Worker;

    /// Answers one request whose frame arrived at `started`. A frame whose
    /// payload did not decode arrives as the (already counted) `BadRequest`
    /// response it must get. Returns the response and whether the
    /// connection may continue.
    fn respond(
        &self,
        worker: &mut Self::Worker,
        started: Instant,
        request: Result<(Request, RequestExt), Response>,
    ) -> (Response, bool);

    /// An extra thread to run until the stop flag is set.
    fn background(&self) -> Option<Background<'_>> {
        None
    }
}

/// How long an idle connection waits for its next frame before it looks
/// at the stop flag again.
const IDLE_SLICE: Duration = Duration::from_millis(50);

/// Connection threads allowed beyond the pool and the waiting requests:
/// idle keep-alive peers, and shed peers reading their `Overloaded`.
const CONN_HEADROOM: usize = 64;

/// Runs `handler` behind `listener` until `stop` is set, then drains and
/// returns. Blocks the calling thread; every thread is scoped inside,
/// which is what lets a handler borrow instead of requiring `'static`
/// ownership. `subscriber`, when given, is installed on every spawned
/// thread and flushed on the way out.
pub(crate) fn run<H: Handler>(
    listener: &TcpListener,
    limits: Limits,
    stop: &StopHandle,
    subscriber: Option<Arc<dyn Subscriber>>,
    handler: &H,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let registry = handler.registry();
    let rt = Runtime {
        handler,
        limits,
        stop,
        permits: Mutex::new(Permits {
            idle: (0..limits.workers.max(1))
                .map(|_| handler.worker())
                .collect(),
            waiting: 0,
        }),
        freed: Condvar::new(),
        spare: Mutex::default(),
        handed: Condvar::new(),
        depth: registry.gauge(&H::NAMES.queue_depth),
        active: registry.gauge(&H::NAMES.active_connections),
    };
    std::thread::scope(|scope| {
        if let Some((name, body)) = handler.background() {
            spawn(scope, name.to_string(), &subscriber, body)?;
        }
        rt.accept_loop(scope, listener, &subscriber);
        // Wake the spare threads to see the stop flag. Notifying under
        // the mutex means a spare that saw the flag unset already waits.
        let spare = rt.spare.lock().unwrap_or_else(|e| e.into_inner());
        rt.handed.notify_all();
        drop(spare);
        Ok::<(), io::Error>(())
    })?;
    if let Some(s) = &subscriber {
        s.flush();
    }
    Ok(())
}

/// Spawns a named scoped thread with `subscriber` installed.
fn spawn<'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: String,
    subscriber: &Option<Arc<dyn Subscriber>>,
    body: impl FnOnce() + Send + 'scope,
) -> io::Result<()> {
    let subscriber = subscriber.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn_scoped(scope, move || {
            let _guard = subscriber.map(obs::install);
            body();
        })
        .map(drop)
}

/// The worker pool as permits: the idle handler states, and how many
/// requests wait for one.
struct Permits<W> {
    idle: Vec<W>,
    waiting: usize,
}

/// Connection threads whose connection has closed and that wait for the
/// acceptor to hand them another, and the connections handed to them.
#[derive(Default)]
struct Spare {
    waiting: usize,
    conns: Vec<Conn>,
}

/// State shared by the acceptor and the connection threads.
struct Runtime<'a, H: Handler> {
    handler: &'a H,
    limits: Limits,
    stop: &'a StopHandle,
    permits: Mutex<Permits<H::Worker>>,
    /// Signalled each time a permit is given back.
    freed: Condvar,
    spare: Mutex<Spare>,
    /// Signalled when a connection is handed to a spare thread, and at
    /// drain.
    handed: Condvar,
    /// The `queue_depth` gauge: requests waiting for a permit.
    depth: Arc<Gauge>,
    /// The `active_connections` gauge: connection threads, spare ones
    /// included. The acceptor counts a thread in before spawning it, so a
    /// burst of accepts cannot overrun the cap.
    active: Arc<Gauge>,
}

impl<H: Handler> Runtime<'_, H> {
    /// Accepts connections until a stop is requested, each onto a spare
    /// connection thread or a new one, and drops those beyond the cap.
    fn accept_loop<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        listener: &TcpListener,
        subscriber: &Option<Arc<dyn Subscriber>>,
    ) {
        let registry = self.handler.registry();
        let cap = (self.limits.workers.max(1) + self.limits.queue_depth + CONN_HEADROOM) as f64;
        while !self.stop.is_stopped() {
            match Conn::accept(listener) {
                Ok(conn) => {
                    registry.counter(&H::NAMES.connections_total).inc(1);
                    let Some(conn) = self.hand_off(conn) else {
                        continue;
                    };
                    if self.active.get() >= cap {
                        // Dropped unread: the peer sees a reset, the honest
                        // signal once even the headroom is taken.
                        registry.counter(&H::NAMES.shed_total).inc(1);
                        continue;
                    }
                    self.active.add(1.0);
                    let name = format!("{}-conn", H::NAMES.daemon);
                    if spawn(scope, name, subscriber, move || self.conn_thread(conn)).is_err() {
                        self.active.add(-1.0);
                        registry.counter(&H::NAMES.errors_total).inc(1);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Accept errors (EMFILE, aborted handshakes) are
                    // transient; back off briefly instead of spinning.
                    registry.counter(&H::NAMES.errors_total).inc(1);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Hands `conn` to a spare connection thread, or gives it back when
    /// none is free.
    fn hand_off(&self, conn: Conn) -> Option<Conn> {
        let mut spare = self.spare.lock().unwrap_or_else(|e| e.into_inner());
        if spare.waiting <= spare.conns.len() {
            return Some(conn);
        }
        spare.conns.push(conn);
        self.handed.notify_one();
        None
    }

    /// Serves `conn`, then each connection handed to this thread while it
    /// is spare. Reuse keeps request work on few threads: each new thread's
    /// malloc arena grows its own copy of the request working set (a new
    /// thread per connection cost `scan_paged_d16` 19 % peak RSS).
    fn conn_thread(&self, conn: Conn) {
        let mut next = Some(conn);
        while let Some(conn) = next {
            self.serve_connection(conn);
            next = self.next_connection();
        }
        self.active.add(-1.0);
    }

    /// Waits as a spare thread for the acceptor to hand over the next
    /// connection: `None` after `read_timeout`, or once a drain begins.
    fn next_connection(&self) -> Option<Conn> {
        let mut spare = self.spare.lock().unwrap_or_else(|e| e.into_inner());
        spare.waiting += 1;
        let (mut spare, _) = self
            .handed
            .wait_timeout_while(spare, self.limits.read_timeout, |s| {
                s.conns.is_empty() && !self.stop.is_stopped()
            })
            .unwrap_or_else(|e| e.into_inner());
        spare.waiting -= 1;
        spare.conns.pop()
    }

    /// Owns one connection: keep-alive loop reading frames until EOF,
    /// idle timeout, a protocol error, or a drain. Each frame must arrive
    /// whole within `read_timeout` of starting to wait for it, and each
    /// answer must leave within `write_timeout`.
    fn serve_connection(&self, mut conn: Conn) {
        let mut span = obs::span!(H::NAMES.connection_span);
        let write_by = || Deadline::within(self.limits.write_timeout);
        let mut served: u64 = 0;
        loop {
            let read_by = Deadline::within(self.limits.read_timeout);
            if !self.await_frame(&conn, read_by) {
                break; // idle past `read_timeout`, or draining
            }
            match conn.read_frame(self.limits.max_frame_len, read_by) {
                Ok(Some(raw)) => {
                    served += 1;
                    let request_id = raw.request_id;
                    let (response, keep_going) = self.answer(raw);
                    let frame = protocol::encode_response(request_id, &response);
                    let wrote = conn.write_frame(&frame, write_by()).is_ok();
                    if !(keep_going && wrote) || self.stop.is_stopped() {
                        break;
                    }
                }
                Ok(None) => break, // clean EOF at a frame boundary
                Err(WireError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                    break; // a frame too slow
                }
                Err(err) => {
                    // Malformed bytes: answer with a typed error, then
                    // hang up — the stream position is no longer
                    // trustworthy.
                    let frame = protocol::encode_response(0, &self.bad_request(&err));
                    let _ = conn.write_frame(&frame, write_by());
                    break;
                }
            }
        }
        span.record("requests", served as f64);
        drop(span);
        conn.shutdown();
    }

    /// Waits until the next frame starts to arrive, the peer closes, or
    /// the socket fails (`read_frame` reports which). False when `by`
    /// passes or a drain begins first; bytes already there are still
    /// served during a drain.
    fn await_frame(&self, conn: &Conn, by: Deadline) -> bool {
        loop {
            let slice = by
                .remaining()
                .map_or(IDLE_SLICE, |left| left.min(IDLE_SLICE));
            match conn.wait_readable(Deadline::within(slice)) {
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    if by.expired() || self.stop.is_stopped() {
                        return false;
                    }
                }
                _ => return true,
            }
        }
    }

    /// Answers one frame under a worker permit, or sheds it when none is
    /// idle and `queue_depth` requests already wait for one.
    fn answer(&self, raw: RawFrame) -> (Response, bool) {
        let registry = self.handler.registry();
        registry.counter(&H::NAMES.requests_total).inc(1);
        let started = Instant::now();
        let Some(mut worker) = self.acquire() else {
            registry.counter(&H::NAMES.shed_total).inc(1);
            obs::event!(H::NAMES.shed_event);
            let mut stats = QueryStats {
                db_size: self.limits.db_size,
                ..QueryStats::default()
            };
            stats.record_degradation_once(OVERLOAD_NOTE);
            let queue_depth = u32::try_from(self.limits.queue_depth).unwrap_or(u32::MAX);
            return (Response::Overloaded { queue_depth, stats }, true);
        };
        registry
            .histogram(&H::NAMES.queue_wait_seconds)
            .observe(started.elapsed());
        // Payload decoding failed but framing was intact, so the stream
        // is still aligned: the handler keeps the connection after
        // answering the typed error.
        let request = raw.into_request_ext().map_err(|e| self.bad_request(&e));
        let answer = self.handler.respond(&mut worker, started, request);
        self.release(worker);
        answer
    }

    /// Takes an idle permit, waiting for one unless `queue_depth`
    /// requests already do; `None` sheds the request.
    fn acquire(&self) -> Option<H::Worker> {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        if permits.idle.is_empty() {
            if permits.waiting >= self.limits.queue_depth {
                return None;
            }
            permits.waiting += 1;
            self.depth.set(permits.waiting as f64);
            permits = self
                .freed
                .wait_while(permits, |p| p.idle.is_empty())
                .unwrap_or_else(|e| e.into_inner());
            permits.waiting -= 1;
            self.depth.set(permits.waiting as f64);
        }
        permits.idle.pop()
    }

    /// Gives a permit back and wakes one waiting request.
    fn release(&self, worker: H::Worker) {
        self.permits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .idle
            .push(worker);
        self.freed.notify_one();
    }

    /// Counts a wire error and wraps it as the typed `BadRequest` frame.
    fn bad_request(&self, err: &WireError) -> Response {
        let registry = self.handler.registry();
        registry.counter(&H::NAMES.errors_total).inc(1);
        Response::Error {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthmover_core::Histogram;
    use earthmover_obs::names;
    use std::sync::mpsc::{self, Sender};

    /// A handler whose k-NN holds its permit until the test sends on the
    /// channel each one hands out through `entered`.
    struct Gated {
        registry: MetricsRegistry,
        entered: Sender<Sender<()>>,
    }

    impl Handler for Gated {
        type Worker = ();
        const NAMES: Names = Names {
            daemon: "gated",
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
            _started: Instant,
            request: Result<(Request, RequestExt), Response>,
        ) -> (Response, bool) {
            let response = match request {
                Ok((Request::Knn { .. }, _)) => {
                    let (release, gate) = mpsc::channel();
                    let _ = self.entered.send(release);
                    let _ = gate.recv_timeout(Duration::from_secs(10));
                    Response::Results {
                        items: Vec::new(),
                        stats: QueryStats::default(),
                    }
                }
                _ => Response::HealthReport {
                    draining: false,
                    db_size: 9,
                    dims: 2,
                    uptime_ms: 0,
                },
            };
            (response, true)
        }
    }

    fn call(conn: &mut Conn, id: u64, request: &Request) -> RawFrame {
        let budget = || Deadline::within(Duration::from_secs(10));
        let frame = protocol::encode_request(id, request).unwrap();
        conn.write_frame(&frame, budget()).unwrap();
        conn.read_frame(1 << 20, budget()).unwrap().unwrap()
    }

    #[test]
    fn request_beyond_the_permits_is_shed_and_its_connection_kept() {
        let (entered, entered_rx) = mpsc::channel();
        let handler = Gated {
            registry: MetricsRegistry::new(),
            entered,
        };
        let limits = Limits {
            db_size: 9,
            workers: 1,
            queue_depth: 0,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = StopHandle::default();
        let knn = Request::Knn {
            k: 1,
            deadline_us: 0,
            histogram: Histogram::new(vec![0.5, 0.5]).unwrap(),
        };
        let connect = || Conn::connect(&[addr], Deadline::within(Duration::from_secs(5))).unwrap();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| run(&listener, limits, &stop, None, &handler));
            let (mut holder, first) = (connect(), knn.clone());
            let held = scope.spawn(move || call(&mut holder, 1, &first));
            let release = entered_rx.recv_timeout(Duration::from_secs(10)).unwrap();

            // The one permit is held: a second connection's request is
            // shed with its own id, and its connection stays open.
            let mut other = connect();
            let shed = call(&mut other, 7, &knn);
            assert_eq!(shed.request_id, 7);
            let Ok(Response::Overloaded { queue_depth, stats }) = shed.into_response() else {
                panic!("the second request must be shed");
            };
            assert_eq!(queue_depth, 0);
            assert_eq!(stats.db_size, 9);
            assert!(stats.degradations.iter().any(|n| n == OVERLOAD_NOTE));

            release.send(()).unwrap();
            assert_eq!(held.join().unwrap().request_id, 1);
            let health = call(&mut other, 8, &Request::Health);
            assert_eq!(health.request_id, 8);
            assert!(matches!(
                health.into_response(),
                Ok(Response::HealthReport { db_size: 9, .. })
            ));

            stop.stop();
            server.join().unwrap().unwrap();
        });
    }
}
