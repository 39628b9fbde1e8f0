//! The daemon runtime both front ends run on (DESIGN.md §12): acceptor,
//! bounded connection queue, shed lane, worker pool, keep-alive
//! connection loop, and cooperative drain.
//!
//! One non-blocking acceptor thread polls the listener and the stop
//! flag. Accepted connections enter a *bounded* queue; when it is full
//! the acceptor sheds the connection to a dedicated shedder thread,
//! which reads one request (so the client's write is consumed and the
//! close is a clean FIN, not an RST) and answers [`Response::Overloaded`].
//! A fixed pool of worker threads pops connections and owns each one
//! until the peer hangs up, the idle read timeout fires, or a drain
//! begins. Once the stop flag is set the acceptor stops accepting,
//! workers finish the queued and in-flight requests, and [`run`]
//! returns after flushing telemetry.
//!
//! What a daemon *does* with a decoded request is its [`Handler`]:
//! [`crate::server`] runs it against a query engine,
//! [`crate::coord_server`] scatters it over the shards.

use crate::protocol::{self, ErrorCode, Request, RequestExt, Response, WireError, OVERLOAD_NOTE};
use crate::server::StopHandle;
use earthmover_core::stats::QueryStats;
use earthmover_obs::names::Name;
use earthmover_obs::{self as obs, MetricsRegistry, Subscriber};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
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

/// An extra thread a daemon runs beside the pool: its name and body.
pub(crate) type Background<'a> = (&'static str, Box<dyn FnOnce() + Send + 'a>);

/// What differs between the daemons that share this runtime.
pub(crate) trait Handler: Sync {
    /// State each worker thread owns for its lifetime.
    type Worker;
    /// The names this daemon's admission telemetry is emitted under.
    const NAMES: Names;

    /// The registry the runtime's counters, gauges and histograms live in.
    fn registry(&self) -> &MetricsRegistry;

    /// Builds one worker thread's private state, on that thread.
    fn worker(&self) -> Self::Worker;

    /// Answers one request read at `started`. A frame whose payload did
    /// not decode arrives as the (already counted) `BadRequest` response
    /// it must get. Returns the response and whether the connection may
    /// continue.
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
    let rt = Runtime {
        handler,
        limits,
        stop,
        queue: ConnQueue::new(limits.queue_depth),
        shed: ShedLane::new(),
    };
    std::thread::scope(|scope| {
        let rt = &rt;
        for worker in 0..limits.workers.max(1) {
            let name = format!("{}-worker-{worker}", H::NAMES.daemon);
            spawn(scope, name, &subscriber, move || rt.worker_loop())?;
        }
        // The shedder emits the shed event: it needs the subscriber
        // installed just like the workers, or the events hit Noop.
        let name = format!("{}-shedder", H::NAMES.daemon);
        spawn(scope, name, &subscriber, move || rt.shed_loop())?;
        if let Some((name, body)) = handler.background() {
            spawn(scope, name.to_string(), &subscriber, body)?;
        }
        rt.accept_loop(listener);
        // Drain: wake every worker so the ones parked on an empty queue
        // observe the stop flag and exit.
        rt.queue.wake_all();
        rt.shed.close();
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

/// State shared by the acceptor, shedder, and workers.
struct Runtime<'a, H> {
    handler: &'a H,
    limits: Limits,
    stop: &'a StopHandle,
    queue: ConnQueue,
    shed: ShedLane,
}

impl<H: Handler> Runtime<'_, H> {
    /// Accepts connections until a stop is requested, shedding when the
    /// bounded queue is full.
    fn accept_loop(&self, listener: &TcpListener) {
        let registry = self.handler.registry();
        let depth_gauge = registry.gauge(&H::NAMES.queue_depth);
        while !self.stop.is_stopped() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    registry.counter(&H::NAMES.connections_total).inc(1);
                    match self.queue.push(stream) {
                        Ok(len) => depth_gauge.set(len as f64),
                        Err(stream) => {
                            registry.counter(&H::NAMES.shed_total).inc(1);
                            self.shed.offer(stream);
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
                    registry.counter(&H::NAMES.errors_total).inc(1);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Serves shed connections: reads the peer's request (consuming its
    /// write so the close is clean), answers [`Response::Overloaded`],
    /// and hangs up.
    fn shed_loop(&self) {
        loop {
            let Some(mut stream) = self.shed.take() else {
                if self.shed.is_closed() {
                    return;
                }
                continue;
            };
            obs::event!(H::NAMES.shed_event);
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let _ = stream.set_write_timeout(Some(self.limits.write_timeout));
            let request_id = match protocol::read_frame(&mut stream, self.limits.max_frame_len) {
                Ok(Some(raw)) => raw.request_id,
                _ => 0,
            };
            let mut stats = QueryStats {
                db_size: self.limits.db_size,
                ..QueryStats::default()
            };
            stats.record_degradation_once(OVERLOAD_NOTE);
            let resp = Response::Overloaded {
                queue_depth: self.limits.queue_depth as u32,
                stats,
            };
            let frame = protocol::encode_response(request_id, &resp);
            let _ = protocol::write_frame(&mut stream, &frame);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Pops connections and serves them until a drain begins and the
    /// queue is empty.
    fn worker_loop(&self) {
        let registry = self.handler.registry();
        let depth_gauge = registry.gauge(&H::NAMES.queue_depth);
        let queue_wait = registry.histogram(&H::NAMES.queue_wait_seconds);
        let mut worker = self.handler.worker();
        loop {
            let (conn, len) = self.queue.pop(Duration::from_millis(50), self.stop);
            depth_gauge.set(len as f64);
            match conn {
                Some((stream, queued_at)) => {
                    queue_wait.observe(queued_at.elapsed());
                    self.serve_connection(&mut worker, stream);
                }
                None if self.stop.is_stopped() => return,
                None => {}
            }
        }
    }

    /// Owns one connection: keep-alive loop reading frames until EOF,
    /// idle timeout, a protocol error, or a drain. Requests on one
    /// connection are served back-to-back.
    fn serve_connection(&self, worker: &mut H::Worker, mut stream: TcpStream) {
        let registry = self.handler.registry();
        let active = registry.gauge(&H::NAMES.active_connections);
        active.add(1.0);
        let mut span = obs::span!(H::NAMES.connection_span);
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(self.limits.read_timeout));
        let _ = stream.set_write_timeout(Some(self.limits.write_timeout));
        let _ = stream.set_nodelay(true);
        let mut served: u64 = 0;
        loop {
            match protocol::read_frame(&mut stream, self.limits.max_frame_len) {
                Ok(Some(raw)) => {
                    served += 1;
                    registry.counter(&H::NAMES.requests_total).inc(1);
                    let started = Instant::now();
                    let request_id = raw.request_id;
                    // Payload decoding failed but framing was intact, so
                    // the stream is still aligned: the handler keeps the
                    // connection after answering the typed error.
                    let request = raw.into_request_ext().map_err(|e| self.bad_request(&e));
                    let (response, keep_going) = self.handler.respond(worker, started, request);
                    let frame = protocol::encode_response(request_id, &response);
                    let wrote = protocol::write_frame(&mut stream, &frame).is_ok();
                    if !(keep_going && wrote) || self.stop.is_stopped() {
                        break;
                    }
                }
                Ok(None) => break, // clean EOF at a frame boundary
                Err(WireError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break; // idle keep-alive connection
                }
                Err(err) => {
                    // Malformed bytes: answer with a typed error, then
                    // hang up — the stream position is no longer
                    // trustworthy.
                    let frame = protocol::encode_response(0, &self.bad_request(&err));
                    let _ = protocol::write_frame(&mut stream, &frame);
                    break;
                }
            }
        }
        span.record("requests", served as f64);
        drop(span);
        let _ = stream.shutdown(Shutdown::Both);
        active.add(-1.0);
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

/// Bounded hand-off queue between the acceptor and the workers. Each
/// connection carries the instant it was admitted, so the worker that
/// pops it can observe its queue wait.
struct ConnQueue {
    inner: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Enqueues unless full; returns the stream back on overflow.
    fn push(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.depth {
            return Err(stream);
        }
        q.push_back((stream, Instant::now()));
        let len = q.len();
        self.ready.notify_one();
        Ok(len)
    }

    /// Pops the next connection, waiting up to `wait` while the queue is
    /// empty and `stop` is unset; `None` on timeout or stop.
    fn pop(&self, wait: Duration, stop: &StopHandle) -> (Option<(TcpStream, Instant)>, usize) {
        let q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (mut q, _) = self
            .ready
            .wait_timeout_while(q, wait, |q| q.is_empty() && !stop.is_stopped())
            .unwrap_or_else(|e| e.into_inner());
        let conn = q.pop_front();
        (conn, q.len())
    }

    /// Wakes every waiting `pop` to re-check the stop flag. Notifying
    /// under the mutex means a `pop` that saw the flag unset is already
    /// waiting, so the wake cannot be lost.
    fn wake_all(&self) {
        let _q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.ready.notify_all();
    }
}

/// Hand-off lane for shed connections, so the acceptor never blocks on
/// a slow peer. Bounded: beyond [`SHED_LANE_DEPTH`] pending peers the
/// connection is dropped outright (still counted by the shed counter).
struct ShedLane {
    inner: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

const SHED_LANE_DEPTH: usize = 64;

impl ShedLane {
    fn new() -> ShedLane {
        ShedLane {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn offer(&self, stream: TcpStream) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.0.len() < SHED_LANE_DEPTH {
            g.0.push_back(stream);
            self.ready.notify_one();
        }
        // else: drop the stream here — the peer sees a reset, which is
        // the honest signal once even the shed lane is saturated.
    }

    fn take(&self) -> Option<TcpStream> {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (mut g, _) = self
            .ready
            .wait_timeout_while(g, Duration::from_millis(50), |(q, closed)| {
                q.is_empty() && !*closed
            })
            .unwrap_or_else(|e| e.into_inner());
        g.0.pop_front()
    }

    fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_wakes_an_idle_pop_at_once() {
        let queue = ConnQueue::new(4);
        let stop = StopHandle::default();
        let wait = Duration::from_secs(10);
        let waited = std::thread::scope(|scope| {
            let popper = scope.spawn(|| {
                let started = Instant::now();
                let (conn, _) = queue.pop(wait, &stop);
                (conn.is_none(), started.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            stop.stop();
            queue.wake_all();
            popper.join()
        });
        let (empty, elapsed) = waited.expect("popper thread");
        assert!(empty, "nothing was queued");
        assert!(elapsed < wait / 4, "pop slept {elapsed:?} after the stop");
    }
}
