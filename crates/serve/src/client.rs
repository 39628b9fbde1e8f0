//! Blocking client for the `emdd` wire protocol.
//!
//! One [`Client`] owns one keep-alive TCP connection and issues
//! requests sequentially; request ids are assigned monotonically and
//! responses are checked against them ([`Response::Overloaded`] may
//! legitimately carry id `0` when the server sheds before reading the
//! request — see the protocol docs).

use crate::protocol::{self, ErrorCode, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN};
use crate::retry::RetryPolicy;
use earthmover_core::stats::QueryStats;
use earthmover_core::{Histogram, QueryPlan, RetrievalMode};
use earthmover_obs as obs;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What a query came back as, from the client's point of view.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The server answered completely.
    Complete {
        /// `(object id, exact distance)` pairs, ascending by distance.
        items: Vec<(u64, f64)>,
        /// Server-side work breakdown.
        stats: QueryStats,
    },
    /// The deadline budget expired server-side: a flagged partial
    /// prefix, not an error.
    Partial {
        /// Best-effort `(object id, exact distance)` prefix.
        items: Vec<(u64, f64)>,
        /// Server-side work breakdown; `deadline_expired` is set.
        stats: QueryStats,
    },
    /// Admission control shed the request before execution.
    Overloaded {
        /// Server queue depth at shed time.
        queue_depth: u32,
        /// Minimal stats carrying the overload degradation note.
        stats: QueryStats,
    },
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with a structured error frame.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server sent a frame type that does not answer the request.
    UnexpectedResponse,
    /// The response's request id does not match the request's.
    IdMismatch {
        /// Id the client sent.
        sent: u64,
        /// Id the server echoed.
        got: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedResponse => write!(f, "response type does not match request"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "request id mismatch: sent {sent}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Wire(WireError::from(e))
    }
}

/// Answer to a health probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// True once the server has begun draining.
    pub draining: bool,
    /// Histograms served.
    pub db_size: u64,
    /// Histogram dimensionality queries must match.
    pub dims: u32,
    /// Milliseconds since server start.
    pub uptime_ms: u64,
}

/// A blocking `emdd` client over one keep-alive connection.
///
/// The historical behavior is fail-fast: a wire error surfaces
/// immediately and the connection is dead. Two opt-in escapes exist:
/// [`Client::reconnect`] replaces the underlying socket (the target
/// addresses are remembered from [`Client::connect`]), and
/// [`Client::with_retry`] installs a [`RetryPolicy`] that retries wire
/// failures transparently — reconnect, jittered backoff, re-issue —
/// which rides out a server restart mid-session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_frame_len: u32,
    addrs: Vec<SocketAddr>,
    io_timeout: Duration,
    retry: RetryPolicy,
    retries: u64,
}

impl Client {
    /// Connects with the given I/O timeout applied to connects, reads,
    /// and writes. Retries are off by default ([`RetryPolicy::none`]).
    pub fn connect(addr: impl ToSocketAddrs, io_timeout: Duration) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Client::open_stream(&addrs, io_timeout)?;
        Ok(Client {
            stream,
            next_id: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            addrs,
            io_timeout,
            retry: RetryPolicy::none(),
            retries: 0,
        })
    }

    fn open_stream(addrs: &[SocketAddr], io_timeout: Duration) -> Result<TcpStream, ClientError> {
        let mut last: Option<io::Error> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(addr, io_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(io_timeout))?;
                    stream.set_write_timeout(Some(io_timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Wire(WireError::from(last.unwrap_or_else(
            || {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "no addresses to connect to",
                )
            },
        ))))
    }

    /// Installs a retry policy: wire failures reconnect and re-issue the
    /// request with deterministic jittered backoff, up to
    /// `retry.max_retries` extra attempts. Typed server errors are never
    /// retried — the server is alive and retrying cannot change its
    /// answer.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Replaces the connection with a fresh one to the original target.
    /// Pending request ids keep incrementing across reconnects.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = Client::open_stream(&self.addrs, self.io_timeout)?;
        Ok(())
    }

    /// Changes the I/O timeout for the current connection and any later
    /// reconnects. Callers with a deadline trim this per request so a
    /// stalled server costs the remaining budget, not the idle timeout.
    pub fn set_io_timeout(&mut self, io_timeout: Duration) -> Result<(), ClientError> {
        self.stream.set_read_timeout(Some(io_timeout))?;
        self.stream.set_write_timeout(Some(io_timeout))?;
        self.io_timeout = io_timeout;
        Ok(())
    }

    /// How many retry attempts this client has performed (0 until a
    /// [`RetryPolicy`] is installed and a wire failure occurs).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn call(
        &mut self,
        req: &Request,
        mode: Option<RetrievalMode>,
    ) -> Result<(u64, Response), ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let result = if attempt == 0 {
                self.call_once(req, mode)
            } else {
                // A fresh socket: the old one died with a wire error.
                match self.reconnect() {
                    Ok(()) => self.call_once(req, mode),
                    Err(e) => Err(e),
                }
            };
            match result {
                Ok(ok) => return Ok(ok),
                Err(ClientError::Wire(_)) if attempt < self.retry.max_retries => {
                    self.retries += 1;
                    let sleep = self.retry.backoff(attempt, self.next_id);
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    fn call_once(
        &mut self,
        req: &Request,
        mode: Option<RetrievalMode>,
    ) -> Result<(u64, Response), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        // Ambient propagation: when the calling thread carries a
        // distributed trace context (see `earthmover_obs::set_trace`),
        // forward it so the server's spans link into the same trace.
        // Without a context or a mode the frame is byte-identical to
        // protocol v1.
        let frame = protocol::encode_request_full(id, req, obs::current_trace(), mode)?;
        protocol::write_frame(&mut self.stream, &frame)?;
        let raw = protocol::read_frame(&mut self.stream, self.max_frame_len)?
            .ok_or(ClientError::Wire(WireError::Truncated))?;
        let got = raw.request_id;
        let resp = raw.into_response()?;
        // A shed can happen before the server reads the request, in
        // which case it echoes id 0.
        let shed_at_accept = got == 0 && matches!(resp, Response::Overloaded { .. });
        if got != id && !shed_at_accept {
            return Err(ClientError::IdMismatch { sent: id, got });
        }
        Ok((id, resp))
    }

    /// Runs `plan` on the server. `deadline_us == 0` means "use the
    /// server default". A k-NN plan's `k` saturates at the wire's
    /// `u32::MAX` (any `k` at or above the row count returns every row);
    /// its mode travels as a version-2 frame extension and the
    /// response's stats carry the tier that actually answered
    /// (`stats.retrieval`). A mode-less plan sends a version-1 frame.
    pub fn query(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline_us: u64,
    ) -> Result<Outcome, ClientError> {
        let histogram = histogram.clone();
        let (req, mode) = match plan {
            QueryPlan::Knn { k, mode } => {
                let k = u32::try_from(k).unwrap_or(u32::MAX);
                let req = Request::Knn {
                    k,
                    deadline_us,
                    histogram,
                };
                (req, mode)
            }
            QueryPlan::Range { epsilon } => {
                let req = Request::Range {
                    epsilon,
                    deadline_us,
                    histogram,
                };
                (req, None)
            }
        };
        match self.call(&req, mode)?.1 {
            Response::Results { items, stats } => Ok(Outcome::Complete { items, stats }),
            Response::DeadlineExceeded { items, stats } => Ok(Outcome::Partial { items, stats }),
            Response::Overloaded { queue_depth, stats } => {
                Ok(Outcome::Overloaded { queue_depth, stats })
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Mode-less k-NN query: [`Client::query`] on [`QueryPlan::Knn`].
    pub fn knn(
        &mut self,
        histogram: &Histogram,
        k: u32,
        deadline_us: u64,
    ) -> Result<Outcome, ClientError> {
        let plan = QueryPlan::Knn {
            k: k as usize,
            mode: None,
        };
        self.query(histogram, plan, deadline_us)
    }

    /// [`Client::knn`] on an explicit retrieval tier.
    pub fn knn_mode(
        &mut self,
        histogram: &Histogram,
        k: u32,
        deadline_us: u64,
        mode: RetrievalMode,
    ) -> Result<Outcome, ClientError> {
        let plan = QueryPlan::Knn {
            k: k as usize,
            mode: Some(mode),
        };
        self.query(histogram, plan, deadline_us)
    }

    /// Range query: [`Client::query`] on [`QueryPlan::Range`].
    pub fn range(
        &mut self,
        histogram: &Histogram,
        epsilon: f64,
        deadline_us: u64,
    ) -> Result<Outcome, ClientError> {
        self.query(histogram, QueryPlan::Range { epsilon }, deadline_us)
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.call(&Request::Health, None)?.1 {
            Response::HealthReport {
                draining,
                db_size,
                dims,
                uptime_ms,
            } => Ok(HealthInfo {
                draining,
                db_size,
                dims,
                uptime_ms,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the server's metrics in Prometheus text format.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats, None)?.1 {
            Response::StatsReport { prometheus } => Ok(prometheus),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Asks the server to drain and stop. The server closes the
    /// connection after acknowledging.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown, None)?.1 {
            Response::ShutdownStarted => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}
