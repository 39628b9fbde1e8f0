//! The `emdd` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! magic "EMDQ" (4) | version u8 (1) | type u8 (1) | request id u64 LE (8)
//! | payload length u32 LE (4) | payload (length bytes)
//! ```
//!
//! Request frames carry k-NN / range queries (histograms travel in the
//! same `EMDB` codec the on-disk store uses, CRC and all), plus
//! `health`, `stats`, and `shutdown` control messages. Response frames
//! carry results with a full [`QueryStats`] work breakdown, the typed
//! partial-result `DeadlineExceeded`, the admission-control `Overloaded`
//! frame, and a structured `Error`.
//!
//! Decoding is hardened against arbitrary network bytes: every read is
//! bounds-checked, length prefixes are validated against the configured
//! maximum frame size *before* allocation, and malformed input returns a
//! typed [`WireError`] — never a panic. The proptest suite in
//! `tests/protocol.rs` round-trips every frame type and fuzzes the
//! decoder with truncated, oversized, and corrupted frames.
//!
//! # Extensions (version 2)
//!
//! After a frame's classic payload, version-2 frames may carry tagged
//! extension blocks (`tag u8 | len u32 LE | body`): a request-side
//! distributed [`TraceContext`] and a response-side per-shard
//! [`ShardProvenance`] list. Decoders skip unknown tags, and frames
//! without extensions are encoded byte-identically to version 1, so old
//! peers keep parsing everything a tracing-unaware sender produces and
//! new peers parse old frames cleanly.

use earthmover_core::stats::{QueryStats, ShardProvenance};
use earthmover_core::storage;
use earthmover_core::{Deadline, Histogram, HistogramDb, QueryPlan, RetrievalInfo, RetrievalMode};
use earthmover_obs::TraceContext;
use std::io::{self, Read, Write};
use std::time::Duration;

use crate::schema::{ext, request, response};
pub use crate::schema::{MIN_VERSION, VERSION};

/// Leading bytes of every frame. "EMDQ" = Earth Mover's Distance Query.
pub const MAGIC: [u8; 4] = *b"EMDQ";

/// Bytes in a frame header (magic + version + type + request id + len).
pub const HEADER_LEN: usize = 18;

/// Default cap on a frame's payload length. Large enough for a
/// several-thousand-bin histogram or a full Prometheus dump, small
/// enough that a hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Degradation note recorded when admission control sheds a request.
pub const OVERLOAD_NOTE: &str = "server overloaded; request shed before execution";

/// What went wrong while encoding or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is outside [`MIN_VERSION`]`..=`[`VERSION`].
    BadVersion(u8),
    /// The type byte names no known request or response.
    UnknownType(u8),
    /// The length prefix exceeds the configured maximum frame size.
    Oversized {
        /// Length the frame claimed.
        len: u32,
        /// Maximum the decoder accepts.
        max: u32,
    },
    /// The stream ended inside a header or payload.
    Truncated,
    /// The payload's internal structure is invalid (bad counts, trailing
    /// bytes, malformed strings, an un-decodable histogram, ...).
    BadPayload(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?} (want {MAGIC:?})"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (accept {MIN_VERSION}..={VERSION})"
                )
            }
            WireError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::BadPayload(why) => write!(f, "malformed payload: {why}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// k-nearest-neighbour query.
    Knn {
        /// Number of neighbours wanted.
        k: u32,
        /// Per-request deadline budget in microseconds; `0` means "use
        /// the server's default budget".
        deadline_us: u64,
        /// The (normalized) query histogram.
        histogram: Histogram,
    },
    /// Range (epsilon) query.
    Range {
        /// Inclusive EMD threshold.
        epsilon: f64,
        /// Per-request deadline budget in microseconds; `0` means "use
        /// the server's default budget".
        deadline_us: u64,
        /// The (normalized) query histogram.
        histogram: Histogram,
    },
    /// Liveness / readiness probe.
    Health,
    /// Request the server's metrics in Prometheus text format.
    Stats,
    /// Ask the server to drain and stop.
    Shutdown,
}

/// Error categories a server reports in an [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was well-framed but semantically invalid (histogram
    /// arity mismatch, non-finite epsilon, malformed payload).
    BadRequest,
    /// The query pipeline failed server-side.
    Internal,
    /// The server is draining and no longer accepts queries.
    ShuttingDown,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Internal => 2,
            ErrorCode::ShuttingDown => 3,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, WireError> {
        match v {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::Internal),
            3 => Ok(ErrorCode::ShuttingDown),
            other => Err(WireError::BadPayload(format!("unknown error code {other}"))),
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A complete query answer.
    Results {
        /// `(object id, exact distance)` pairs, ascending by distance.
        items: Vec<(u64, f64)>,
        /// Work and timing breakdown, including degradation notes.
        stats: QueryStats,
    },
    /// The deadline budget expired mid-query: a *typed partial* answer.
    /// `items` is the best-effort prefix computed before the cutoff and
    /// `stats.deadline_expired` is set.
    DeadlineExceeded {
        /// Partial `(object id, exact distance)` prefix.
        items: Vec<(u64, f64)>,
        /// Work and timing breakdown; `degradations` notes the cutoff.
        stats: QueryStats,
    },
    /// Admission control shed the request before execution. May be sent
    /// with request id `0` when the server sheds at accept time, before
    /// reading any request.
    Overloaded {
        /// Depth of the server's bounded request queue at shed time.
        queue_depth: u32,
        /// Minimal stats whose `degradations` records [`OVERLOAD_NOTE`].
        stats: QueryStats,
    },
    /// Answer to [`Request::Health`].
    HealthReport {
        /// True once the server has begun its drain-then-shutdown.
        draining: bool,
        /// Number of histograms served.
        db_size: u64,
        /// Histogram dimensionality the server expects of queries.
        dims: u32,
        /// Milliseconds since the server started.
        uptime_ms: u64,
    },
    /// Answer to [`Request::Stats`]: the metrics registry rendered in
    /// Prometheus text exposition format.
    StatsReport {
        /// Prometheus text payload.
        prometheus: String,
    },
    /// Acknowledges [`Request::Shutdown`]; the drain has begun.
    ShutdownStarted,
    /// The request could not be served.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Bounds-checked cursor over untrusted payload bytes.

struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.at)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or_else(|| WireError::BadPayload("length overflow".into()))?;
        let s = self
            .buf
            .get(self.at..end)
            .ok_or_else(|| WireError::BadPayload("payload shorter than declared".into()))?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?.first().copied().unwrap_or_default())
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::BadPayload("string is not UTF-8".into()))
    }

    /// Rejects element counts that could not possibly fit in the bytes
    /// left, so a hostile count cannot drive a huge allocation.
    fn count(&mut self, min_element_len: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(min_element_len.max(1));
        if need > self.remaining() {
            return Err(WireError::BadPayload(format!(
                "count {n} exceeds the {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::BadPayload(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Little-endian writers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Histogram payloads: reuse the on-disk EMDB codec (magic, version,
// CRC-32) by shipping a one-row database. Validation comes for free.

fn encode_histogram(h: &Histogram) -> Result<Vec<u8>, WireError> {
    if h.is_empty() {
        return Err(WireError::BadPayload("empty histogram".into()));
    }
    let mut db = HistogramDb::new(h.len());
    db.try_push(h.clone())
        .map_err(|e| WireError::BadPayload(format!("unencodable histogram: {e}")))?;
    Ok(storage::to_bytes(&db))
}

fn decode_histogram(bytes: &[u8]) -> Result<Histogram, WireError> {
    let db = storage::from_bytes(bytes)
        .map_err(|e| WireError::BadPayload(format!("histogram codec: {e}")))?;
    if db.len() != 1 {
        return Err(WireError::BadPayload(format!(
            "histogram payload holds {} rows, want exactly 1",
            db.len()
        )));
    }
    Ok(db.get(0).to_histogram())
}

// ---------------------------------------------------------------------
// QueryStats codec. Durations travel as u64 nanoseconds (saturating).

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn put_stats(out: &mut Vec<u8>, s: &QueryStats) {
    put_u64(out, s.db_size as u64);
    put_u64(out, s.node_accesses);
    put_u64(out, s.exact_evaluations);
    put_u64(out, s.results);
    put_u64(out, nanos(s.elapsed));
    put_u64(out, nanos(s.elapsed_max));
    out.push(u8::from(s.deadline_expired));
    put_u32(out, s.filter_evaluations.len() as u32);
    for (name, n) in &s.filter_evaluations {
        put_string(out, name);
        put_u64(out, *n);
    }
    put_u32(out, s.stage_elapsed.len() as u32);
    for (name, d) in &s.stage_elapsed {
        put_string(out, name);
        put_u64(out, nanos(*d));
    }
    put_u32(out, s.degradations.len() as u32);
    for note in &s.degradations {
        put_string(out, note);
    }
}

fn get_stats(cur: &mut Cur<'_>) -> Result<QueryStats, WireError> {
    let mut s = QueryStats {
        db_size: cur.u64()? as usize,
        node_accesses: cur.u64()?,
        exact_evaluations: cur.u64()?,
        results: cur.u64()?,
        elapsed: Duration::from_nanos(cur.u64()?),
        elapsed_max: Duration::from_nanos(cur.u64()?),
        ..QueryStats::default()
    };
    s.deadline_expired = cur.u8()? != 0;
    let n = cur.count(12)?;
    for _ in 0..n {
        let name = cur.string()?;
        let count = cur.u64()?;
        s.filter_evaluations.push((name, count));
    }
    let n = cur.count(12)?;
    for _ in 0..n {
        let name = cur.string()?;
        let d = Duration::from_nanos(cur.u64()?);
        s.stage_elapsed.push((name, d));
    }
    let n = cur.count(4)?;
    for _ in 0..n {
        s.degradations.push(cur.string()?);
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// Version-2 extension blocks: `tag u8 | len u32 LE | body`, zero or
// more, after the classic payload. Unknown tags are skipped.

fn put_ext_block(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

fn put_trace_context(out: &mut Vec<u8>, trace: &TraceContext) {
    let mut body = Vec::with_capacity(17);
    put_u64(&mut body, trace.trace_id);
    put_u64(&mut body, trace.parent_span);
    body.push(u8::from(trace.sampled));
    put_ext_block(out, ext::TRACE, &body);
}

fn put_mode(out: &mut Vec<u8>, mode: &RetrievalMode) {
    let mut body = Vec::with_capacity(9);
    body.push(mode.code());
    put_f64(&mut body, mode.epsilon());
    put_ext_block(out, ext::MODE, &body);
}

fn put_mode_info(out: &mut Vec<u8>, info: &RetrievalInfo) {
    let mut body = Vec::with_capacity(17);
    body.push(info.mode.code());
    put_f64(&mut body, info.mode.epsilon());
    put_f64(&mut body, info.recall);
    put_ext_block(out, ext::MODE_INFO, &body);
}

fn put_provenance(out: &mut Vec<u8>, entries: &[ShardProvenance]) {
    let mut body = Vec::new();
    put_u32(&mut body, entries.len() as u32);
    for p in entries {
        put_u32(&mut body, p.shard);
        put_string(&mut body, &p.endpoint);
        body.push(u8::from(p.from_replica) | (u8::from(p.hedge_fired) << 1));
        put_u32(&mut body, p.retries);
        put_u64(&mut body, nanos(p.latency));
        // The shard's own stats travel length-prefixed so the nested
        // parse is bounded. Attribution nests exactly one level: any
        // provenance inside `p.stats` is not encoded.
        let mut stats = Vec::new();
        put_stats(&mut stats, &p.stats);
        put_u32(&mut body, stats.len() as u32);
        body.extend_from_slice(&stats);
    }
    put_ext_block(out, ext::PROVENANCE, &body);
}

fn get_provenance(cur: &mut Cur<'_>) -> Result<Vec<ShardProvenance>, WireError> {
    // Minimum entry: shard (4) + empty endpoint (4) + flags (1)
    // + retries (4) + latency (8) + stats length (4).
    let n = cur.count(25)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let shard = cur.u32()?;
        let endpoint = cur.string()?;
        let flags = cur.u8()?;
        let retries = cur.u32()?;
        let latency = Duration::from_nanos(cur.u64()?);
        let stats_len = cur.u32()? as usize;
        let mut stats_cur = Cur::new(cur.take(stats_len)?);
        let stats = get_stats(&mut stats_cur)?;
        stats_cur.finish()?;
        entries.push(ShardProvenance {
            shard,
            endpoint,
            from_replica: flags & 1 != 0,
            retries,
            hedge_fired: flags & 2 != 0,
            latency,
            stats,
        });
    }
    Ok(entries)
}

/// Extensions decoded from a frame's trailing block area.
#[derive(Debug, Default)]
struct Extensions {
    trace: Option<TraceContext>,
    provenance: Option<Vec<ShardProvenance>>,
    mode: Option<RetrievalMode>,
    retrieval: Option<RetrievalInfo>,
}

/// Request-side extensions surfaced to callers of
/// [`RawFrame::into_request_ext`]. All fields are `None` on
/// extension-free (e.g. version-1) frames.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RequestExt {
    /// Forwarded distributed trace context.
    pub trace: Option<TraceContext>,
    /// Requested retrieval tier; `None` means the server's default.
    pub mode: Option<RetrievalMode>,
}

/// A decoded request as a front end runs it: a planned query or one of
/// the three control requests.
pub(crate) enum Planned<'a> {
    /// A k-NN or range query: its histogram, its plan and its wire
    /// `deadline_us`.
    Query(&'a Histogram, QueryPlan, u64),
    Health,
    Stats,
    Shutdown,
}

/// The one place a decoded request becomes a [`QueryPlan`]. `mode` is the
/// request's mode extension; a k-NN request without one takes
/// `default_mode`, and a range query ignores both (it is always exact).
pub(crate) fn plan(
    req: &Request,
    mode: Option<RetrievalMode>,
    default_mode: Option<RetrievalMode>,
) -> Planned<'_> {
    match req {
        Request::Knn {
            k,
            deadline_us,
            histogram,
        } => {
            let plan = QueryPlan::Knn {
                k: usize::try_from(*k).unwrap_or(usize::MAX),
                mode: mode.or(default_mode),
            };
            Planned::Query(histogram, plan, *deadline_us)
        }
        Request::Range {
            epsilon,
            deadline_us,
            histogram,
        } => Planned::Query(
            histogram,
            QueryPlan::Range { epsilon: *epsilon },
            *deadline_us,
        ),
        Request::Health => Planned::Health,
        Request::Stats => Planned::Stats,
        Request::Shutdown => Planned::Shutdown,
    }
}

/// The wire's `deadline_us` as a [`Deadline`]: `0` means the receiver's
/// `default` budget (unbounded when that is `None`).
pub(crate) fn deadline_from_wire(deadline_us: u64, default: Option<Duration>) -> Deadline {
    match (deadline_us, default) {
        (0, Some(budget)) => Deadline::within(budget),
        (0, None) => Deadline::none(),
        (us, _) => Deadline::within(Duration::from_micros(us)),
    }
}

/// A [`Deadline`] as the wire's `deadline_us`, the inverse of
/// [`deadline_from_wire`]. `0` would mean "receiver default", so a
/// bounded-but-expired deadline is clamped to 1 µs: the receiver answers
/// with an immediate typed partial rather than running unbounded.
pub(crate) fn deadline_to_wire(deadline: Deadline) -> u64 {
    match deadline.remaining() {
        None => 0,
        Some(rem) => u64::try_from(rem.as_micros()).unwrap_or(u64::MAX).max(1),
    }
}

/// Consumes the rest of the payload as extension blocks. Unknown tags
/// are skipped whole (their length prefix is trusted only up to the
/// remaining payload, which [`Cur::take`] enforces).
fn get_extensions(cur: &mut Cur<'_>) -> Result<Extensions, WireError> {
    let mut exts = Extensions::default();
    while cur.remaining() > 0 {
        let tag = cur.u8()?;
        let len = cur.u32()? as usize;
        let mut body = Cur::new(cur.take(len)?);
        match tag {
            ext::TRACE => {
                let trace_id = body.u64()?;
                let parent_span = body.u64()?;
                let flags = body.u8()?;
                body.finish()?;
                exts.trace = Some(TraceContext {
                    trace_id,
                    parent_span,
                    sampled: flags & 1 != 0,
                });
            }
            ext::PROVENANCE => {
                exts.provenance = Some(get_provenance(&mut body)?);
                body.finish()?;
            }
            ext::MODE => {
                let code = body.u8()?;
                let epsilon = body.f64()?;
                body.finish()?;
                exts.mode = Some(RetrievalMode::from_code(code, epsilon).ok_or_else(|| {
                    WireError::BadPayload(format!(
                        "invalid retrieval mode (code {code}, epsilon {epsilon})"
                    ))
                })?);
            }
            ext::MODE_INFO => {
                let code = body.u8()?;
                let epsilon = body.f64()?;
                let recall = body.f64()?;
                body.finish()?;
                let mode = RetrievalMode::from_code(code, epsilon).ok_or_else(|| {
                    WireError::BadPayload(format!(
                        "invalid retrieval mode (code {code}, epsilon {epsilon})"
                    ))
                })?;
                exts.retrieval = Some(RetrievalInfo { mode, recall });
            }
            _ => {}
        }
    }
    Ok(exts)
}

fn put_items(out: &mut Vec<u8>, items: &[(u64, f64)]) {
    put_u32(out, items.len() as u32);
    for (id, dist) in items {
        put_u64(out, *id);
        put_f64(out, *dist);
    }
}

fn get_items(cur: &mut Cur<'_>) -> Result<Vec<(u64, f64)>, WireError> {
    let n = cur.count(16)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let id = cur.u64()?;
        let dist = cur.f64()?;
        items.push((id, dist));
    }
    Ok(items)
}

// ---------------------------------------------------------------------
// Frame encode.

fn frame(version: u8, type_code: u8, request_id: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(type_code);
    put_u64(&mut out, request_id);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Serializes a request into one wire frame (no trace context; emitted
/// as a version-1 frame any peer parses).
pub fn encode_request(request_id: u64, req: &Request) -> Result<Vec<u8>, WireError> {
    encode_request_traced(request_id, req, None)
}

/// Serializes a request, attaching `trace` as a version-2 extension
/// block when present. Without a context this is byte-identical to
/// [`encode_request`].
pub fn encode_request_traced(
    request_id: u64,
    req: &Request,
    trace: Option<TraceContext>,
) -> Result<Vec<u8>, WireError> {
    encode_request_full(request_id, req, trace, None)
}

/// Serializes a request with every request-side extension: the trace
/// context and the retrieval-mode selector. Each extension is attached
/// only when present; with neither, the frame is byte-identical to
/// [`encode_request`], so mode-less exact traffic keeps parsing on
/// version-1 peers.
pub fn encode_request_full(
    request_id: u64,
    req: &Request,
    trace: Option<TraceContext>,
    mode: Option<RetrievalMode>,
) -> Result<Vec<u8>, WireError> {
    let (code, mut payload) = request_payload(req)?;
    let mut version = MIN_VERSION;
    if let Some(t) = trace {
        put_trace_context(&mut payload, &t);
        version = VERSION;
    }
    if let Some(m) = mode {
        put_mode(&mut payload, &m);
        version = VERSION;
    }
    Ok(frame(version, code, request_id, payload))
}

fn request_payload(req: &Request) -> Result<(u8, Vec<u8>), WireError> {
    let (code, payload) = match req {
        Request::Knn {
            k,
            deadline_us,
            histogram,
        } => {
            let hist = encode_histogram(histogram)?;
            let mut p = Vec::with_capacity(16 + hist.len());
            put_u32(&mut p, *k);
            put_u64(&mut p, *deadline_us);
            put_u32(&mut p, hist.len() as u32);
            p.extend_from_slice(&hist);
            (request::KNN, p)
        }
        Request::Range {
            epsilon,
            deadline_us,
            histogram,
        } => {
            let hist = encode_histogram(histogram)?;
            let mut p = Vec::with_capacity(20 + hist.len());
            put_f64(&mut p, *epsilon);
            put_u64(&mut p, *deadline_us);
            put_u32(&mut p, hist.len() as u32);
            p.extend_from_slice(&hist);
            (request::RANGE, p)
        }
        Request::Health => (request::HEALTH, Vec::new()),
        Request::Stats => (request::STATS, Vec::new()),
        Request::Shutdown => (request::SHUTDOWN, Vec::new()),
    };
    Ok((code, payload))
}

/// Serializes a response into one wire frame. Responses whose stats
/// carry per-shard provenance gain a version-2 extension block; all
/// others stay byte-identical to version 1.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    // Appends the stats block plus, when attached, the provenance and
    // retrieval-tier extensions; returns whether the frame needs
    // version 2.
    fn stats_payload(p: &mut Vec<u8>, stats: &QueryStats) -> bool {
        put_stats(p, stats);
        let mut extended = false;
        if !stats.provenance.is_empty() {
            put_provenance(p, &stats.provenance);
            extended = true;
        }
        if let Some(info) = &stats.retrieval {
            put_mode_info(p, info);
            extended = true;
        }
        extended
    }
    let mut version = MIN_VERSION;
    let (code, payload) = match resp {
        Response::Results { items, stats } | Response::DeadlineExceeded { items, stats } => {
            let mut p = Vec::new();
            put_items(&mut p, items);
            if stats_payload(&mut p, stats) {
                version = VERSION;
            }
            let code = if matches!(resp, Response::Results { .. }) {
                response::RESULTS
            } else {
                response::DEADLINE_EXCEEDED
            };
            (code, p)
        }
        Response::Overloaded { queue_depth, stats } => {
            let mut p = Vec::new();
            put_u32(&mut p, *queue_depth);
            if stats_payload(&mut p, stats) {
                version = VERSION;
            }
            (response::OVERLOADED, p)
        }
        Response::HealthReport {
            draining,
            db_size,
            dims,
            uptime_ms,
        } => {
            let mut p = Vec::with_capacity(21);
            p.push(u8::from(*draining));
            put_u64(&mut p, *db_size);
            put_u32(&mut p, *dims);
            put_u64(&mut p, *uptime_ms);
            (response::HEALTH_REPORT, p)
        }
        Response::StatsReport { prometheus } => {
            let mut p = Vec::new();
            put_string(&mut p, prometheus);
            (response::STATS_REPORT, p)
        }
        Response::ShutdownStarted => (response::SHUTDOWN_STARTED, Vec::new()),
        Response::Error { code, message } => {
            let mut p = Vec::new();
            p.push(code.to_u8());
            put_string(&mut p, message);
            (response::ERROR, p)
        }
    };
    frame(version, code, request_id, payload)
}

// ---------------------------------------------------------------------
// Frame decode.

/// One frame pulled off the wire, payload still undecoded.
#[derive(Debug)]
pub struct RawFrame {
    /// Protocol version byte the frame arrived with.
    pub version: u8,
    /// Frame type byte.
    pub type_code: u8,
    /// Client-chosen correlation id, echoed in responses.
    pub request_id: u64,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// Re-serializes this frame byte-identically to how it arrived —
    /// the fault-injection proxy relays (or deliberately truncates)
    /// frames without understanding their payloads.
    pub fn encode(&self) -> Vec<u8> {
        frame(
            self.version,
            self.type_code,
            self.request_id,
            self.payload.clone(),
        )
    }

    /// Decodes the payload as a request, discarding any extensions.
    pub fn into_request(self) -> Result<Request, WireError> {
        self.into_request_ext().map(|(req, _)| req)
    }

    /// Decodes the payload as a request plus its trailing extensions
    /// (see [`RequestExt`]); all fields are `None` on extension-free
    /// (e.g. version-1) frames.
    pub fn into_request_ext(self) -> Result<(Request, RequestExt), WireError> {
        let mut cur = Cur::new(&self.payload);
        let req = match self.type_code {
            request::KNN => {
                let k = cur.u32()?;
                let deadline_us = cur.u64()?;
                let hist_len = cur.u32()? as usize;
                let histogram = decode_histogram(cur.take(hist_len)?)?;
                Request::Knn {
                    k,
                    deadline_us,
                    histogram,
                }
            }
            request::RANGE => {
                let epsilon = cur.f64()?;
                let deadline_us = cur.u64()?;
                let hist_len = cur.u32()? as usize;
                let histogram = decode_histogram(cur.take(hist_len)?)?;
                if !epsilon.is_finite() {
                    return Err(WireError::BadPayload("epsilon must be finite".into()));
                }
                Request::Range {
                    epsilon,
                    deadline_us,
                    histogram,
                }
            }
            request::HEALTH => Request::Health,
            request::STATS => Request::Stats,
            request::SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownType(other)),
        };
        let exts = get_extensions(&mut cur)?;
        cur.finish()?;
        Ok((
            req,
            RequestExt {
                trace: exts.trace,
                mode: exts.mode,
            },
        ))
    }

    /// Decodes the payload as a response, folding a provenance
    /// extension (if present) into the response's stats.
    pub fn into_response(self) -> Result<Response, WireError> {
        let mut cur = Cur::new(&self.payload);
        let mut resp = match self.type_code {
            response::RESULTS => {
                let items = get_items(&mut cur)?;
                let stats = get_stats(&mut cur)?;
                Response::Results { items, stats }
            }
            response::DEADLINE_EXCEEDED => {
                let items = get_items(&mut cur)?;
                let stats = get_stats(&mut cur)?;
                Response::DeadlineExceeded { items, stats }
            }
            response::OVERLOADED => {
                let queue_depth = cur.u32()?;
                let stats = get_stats(&mut cur)?;
                Response::Overloaded { queue_depth, stats }
            }
            response::HEALTH_REPORT => {
                let draining = cur.u8()? != 0;
                let db_size = cur.u64()?;
                let dims = cur.u32()?;
                let uptime_ms = cur.u64()?;
                Response::HealthReport {
                    draining,
                    db_size,
                    dims,
                    uptime_ms,
                }
            }
            response::STATS_REPORT => Response::StatsReport {
                prometheus: cur.string()?,
            },
            response::SHUTDOWN_STARTED => Response::ShutdownStarted,
            response::ERROR => {
                let code = ErrorCode::from_u8(cur.u8()?)?;
                let message = cur.string()?;
                Response::Error { code, message }
            }
            other => return Err(WireError::UnknownType(other)),
        };
        let exts = get_extensions(&mut cur)?;
        cur.finish()?;
        if let Response::Results { stats, .. }
        | Response::DeadlineExceeded { stats, .. }
        | Response::Overloaded { stats, .. } = &mut resp
        {
            if let Some(provenance) = exts.provenance {
                stats.provenance = provenance;
            }
            stats.retrieval = exts.retrieval;
        }
        Ok(resp)
    }
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream at a
/// frame boundary; EOF *inside* a frame is [`WireError::Truncated`].
///
/// The header is validated (magic, version, payload length against
/// `max_frame_len`) before the payload is allocated or read, so hostile
/// prefixes cannot trigger large allocations.
pub fn read_frame(r: &mut impl Read, max_frame_len: u32) -> Result<Option<RawFrame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let Some(buf) = header.get_mut(filled..) else {
            return Err(WireError::Truncated);
        };
        match r.read(buf) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut cur = Cur::new(&header);
    let magic: [u8; 4] = cur.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = cur.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    let type_code = cur.u8()?;
    let request_id = cur.u64()?;
    let len = cur.u32()?;
    if len > max_frame_len {
        return Err(WireError::Oversized {
            len,
            max: max_frame_len,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(RawFrame {
        version,
        type_code,
        request_id,
        payload,
    }))
}

/// Writes a pre-encoded frame and flushes the transport.
pub fn write_frame(w: &mut impl Write, frame_bytes: &[u8]) -> Result<(), WireError> {
    w.write_all(frame_bytes)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(dims: usize) -> Histogram {
        let bins: Vec<f64> = (0..dims).map(|i| 1.0 + i as f64).collect();
        Histogram::new(bins).unwrap()
    }

    fn roundtrip_request(req: &Request) -> Request {
        let bytes = encode_request(7, req).unwrap();
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(raw.request_id, 7);
        raw.into_request().unwrap()
    }

    #[test]
    fn knn_request_roundtrips_normalized() {
        let h = hist(8);
        let got = roundtrip_request(&Request::Knn {
            k: 5,
            deadline_us: 1500,
            histogram: h.clone(),
        });
        // The codec normalizes on encode; compare against the
        // normalized original.
        let want = h.into_normalized().unwrap();
        match got {
            Request::Knn {
                k,
                deadline_us,
                histogram,
            } => {
                assert_eq!(k, 5);
                assert_eq!(deadline_us, 1500);
                assert_eq!(histogram.bins(), want.bins());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn control_requests_roundtrip() {
        assert_eq!(roundtrip_request(&Request::Health), Request::Health);
        assert_eq!(roundtrip_request(&Request::Stats), Request::Stats);
        assert_eq!(roundtrip_request(&Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn eof_at_boundary_is_none_mid_frame_is_truncated() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, 1024).unwrap().is_none());
        let bytes = encode_request(1, &Request::Health).unwrap();
        let cut = bytes.get(..bytes.len() - 1).unwrap();
        assert!(matches!(
            read_frame(&mut { cut }, 1024),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode_request(1, &Request::Health).unwrap();
        let at = HEADER_LEN - 4;
        bytes.splice(at.., u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(WireError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn plain_frames_stay_version_1() {
        let bytes = encode_request(1, &Request::Health).unwrap();
        assert_eq!(bytes[4], MIN_VERSION);
        let resp = encode_response(1, &Response::ShutdownStarted);
        assert_eq!(resp[4], MIN_VERSION);
    }

    #[test]
    fn traced_request_roundtrips_context() {
        let trace = TraceContext {
            trace_id: 0x1234_5678_9ABC_DEF0,
            parent_span: 42,
            sampled: true,
        };
        let bytes = encode_request_traced(
            7,
            &Request::Knn {
                k: 3,
                deadline_us: 0,
                histogram: hist(8),
            },
            Some(trace),
        )
        .unwrap();
        assert_eq!(bytes[4], VERSION, "extension frames are version 2");
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(raw.version, VERSION);
        let (req, got) = raw.into_request_ext().unwrap();
        assert!(matches!(req, Request::Knn { k: 3, .. }));
        assert_eq!(got.trace, Some(trace));
        assert_eq!(got.mode, None);
    }

    #[test]
    fn extension_free_frames_decode_without_context() {
        let bytes = encode_request(7, &Request::Stats).unwrap();
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        let (req, exts) = raw.into_request_ext().unwrap();
        assert_eq!(req, Request::Stats);
        assert_eq!(exts, RequestExt::default());
    }

    #[test]
    fn unknown_extension_tags_are_skipped() {
        let mut bytes = encode_request_traced(
            7,
            &Request::Health,
            Some(TraceContext {
                trace_id: 9,
                parent_span: 0,
                sampled: false,
            }),
        )
        .unwrap();
        // Append a future extension tag after the trace block and fix
        // up the payload length.
        bytes.push(0x7F);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"xyz");
        let new_len = (bytes.len() - HEADER_LEN) as u32;
        bytes.splice(HEADER_LEN - 4..HEADER_LEN, new_len.to_le_bytes());
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        let (req, exts) = raw.into_request_ext().unwrap();
        assert_eq!(req, Request::Health);
        assert_eq!(exts.trace.unwrap().trace_id, 9);
    }

    #[test]
    fn retrieval_mode_roundtrips_on_requests() {
        for mode in [
            RetrievalMode::Exact,
            RetrievalMode::Approximate { epsilon: 0.75 },
            RetrievalMode::SketchOnly,
        ] {
            let bytes = encode_request_full(
                9,
                &Request::Knn {
                    k: 2,
                    deadline_us: 0,
                    histogram: hist(8),
                },
                None,
                Some(mode),
            )
            .unwrap();
            assert_eq!(bytes[4], VERSION, "mode frames are version 2");
            let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            let (req, exts) = raw.into_request_ext().unwrap();
            assert!(matches!(req, Request::Knn { k: 2, .. }));
            assert_eq!(exts.mode, Some(mode));
            assert_eq!(exts.trace, None);
        }
    }

    #[test]
    fn trace_and_mode_extensions_compose_on_one_frame() {
        let trace = TraceContext {
            trace_id: 5,
            parent_span: 6,
            sampled: true,
        };
        let mode = RetrievalMode::Approximate { epsilon: 0.5 };
        let bytes = encode_request_full(3, &Request::Health, Some(trace), Some(mode)).unwrap();
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        let (_, exts) = raw.into_request_ext().unwrap();
        assert_eq!(exts.trace, Some(trace));
        assert_eq!(exts.mode, Some(mode));
    }

    #[test]
    fn invalid_mode_extension_is_a_typed_error() {
        let mut bytes =
            encode_request_full(3, &Request::Health, None, Some(RetrievalMode::SketchOnly))
                .unwrap();
        // Corrupt the mode code (last extension body starts 5 bytes
        // from the end: tag|len4|code|eps8 → code at len-9).
        let at = bytes.len() - 9;
        bytes[at] = 0x7E;
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert!(matches!(
            raw.into_request_ext(),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn retrieval_info_roundtrips_on_responses() {
        let stats = QueryStats {
            results: 1,
            retrieval: Some(RetrievalInfo {
                mode: RetrievalMode::SketchOnly,
                recall: 0.5,
            }),
            ..QueryStats::default()
        };
        let resp = Response::Results {
            items: vec![(4, 0.25)],
            stats,
        };
        let bytes = encode_response(11, &resp);
        assert_eq!(bytes[4], VERSION, "retrieval-info frames are version 2");
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(raw.into_response().unwrap(), resp);
    }

    #[test]
    fn provenance_roundtrips_on_results() {
        use earthmover_core::stats::ShardProvenance;
        let mut shard_stats = QueryStats {
            db_size: 50,
            exact_evaluations: 4,
            ..QueryStats::default()
        };
        shard_stats.add_stage_elapsed("exact", Duration::from_micros(120));
        let stats = QueryStats {
            provenance: vec![
                ShardProvenance {
                    shard: 0,
                    endpoint: "127.0.0.1:4411".into(),
                    from_replica: false,
                    retries: 1,
                    hedge_fired: true,
                    latency: Duration::from_millis(3),
                    stats: shard_stats.clone(),
                },
                ShardProvenance {
                    shard: 1,
                    endpoint: "127.0.0.1:4412".into(),
                    from_replica: true,
                    retries: 0,
                    hedge_fired: false,
                    latency: Duration::from_millis(9),
                    stats: shard_stats,
                },
            ],
            ..QueryStats::default()
        };
        let resp = Response::Results {
            items: vec![(1, 0.5)],
            stats,
        };
        let bytes = encode_response(7, &resp);
        assert_eq!(bytes[4], VERSION);
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!(raw.into_response().unwrap(), resp);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut bytes = encode_request(1, &Request::Health).unwrap();
        let orig = bytes.clone();
        bytes.splice(..4, *b"NOPE");
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(WireError::BadMagic(m)) if &m == b"NOPE"
        ));
        let mut bytes = orig;
        bytes.splice(4..5, [9u8]);
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(WireError::BadVersion(9))
        ));
    }
}
