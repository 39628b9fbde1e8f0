//! Distributed trace context: process-spanning trace/span identity.
//!
//! A [`TraceContext`] names one logical request (`trace_id`), the span
//! that caused the current work (`parent_span`), and whether the request
//! was head-sampled for full capture. The context rides in a thread-local
//! slot next to the subscriber: while it is set, every span closed on the
//! thread carries [`TraceIds`] linking it into the cross-process tree,
//! and [`crate::current_trace`] exposes the context so RPC clients can
//! forward it on the wire.
//!
//! Identity is decentralized — ids are generated per process by
//! [`fresh_id`] (a counter fed through a 64-bit finalizer, seeded from
//! the clock and pid), so no coordinator hands out ids and collisions
//! across a fleet are a birthday-bound non-issue at tracing volumes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// (trace_id, parent_span_id, sampled) for work on this thread.
    static TRACE: Cell<Option<(u64, u64, bool)>> = const { Cell::new(None) };
}

/// The portable identity of one distributed request, as propagated
/// between processes (client → coordinator → shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree; identical in every process the
    /// request touches.
    pub trace_id: u64,
    /// Span id of the caller's enclosing span — the parent of the first
    /// span the receiver opens. Zero means "no parent" (a root context).
    pub parent_span: u64,
    /// Head-sampling decision made at the root: when set, receivers
    /// should emit the full trace (e.g. to their JSONL sink).
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context (new trace id, no parent) with the given
    /// sampling decision.
    pub fn root(sampled: bool) -> TraceContext {
        TraceContext {
            trace_id: fresh_id(),
            parent_span: 0,
            sampled,
        }
    }
}

/// Trace linkage attached to a [`crate::SpanRecord`] closed while a
/// [`TraceContext`] was set on the thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceIds {
    /// The request tree this record belongs to.
    pub trace_id: u64,
    /// This record's own span id (events get a fresh id too).
    pub span_id: u64,
    /// Span id of the enclosing span — possibly one from another
    /// process. Zero means this is the root span of the trace.
    pub parent_span_id: u64,
}

impl TraceIds {
    /// `trace_id` as the canonical 16-digit lowercase hex string.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// `span_id` as 16-digit lowercase hex.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// `parent_span_id` as 16-digit lowercase hex.
    pub fn parent_hex(&self) -> String {
        format!("{:016x}", self.parent_span_id)
    }
}

/// Sets (or clears, with `None`) this thread's trace context, returning
/// a guard that restores the previous context on drop.
///
/// Spans opened while the context is set carry [`TraceIds`] and update
/// the parent-span chain, so nested spans — and spans in remote
/// processes that received the forwarded context — link into one tree.
pub fn set_trace(context: Option<TraceContext>) -> TraceGuard {
    let previous =
        TRACE.with(|t| t.replace(context.map(|c| (c.trace_id, c.parent_span, c.sampled))));
    TraceGuard { previous }
}

/// RAII guard of [`set_trace`]; restores the previously set trace
/// context when dropped.
#[must_use = "dropping the guard immediately restores the previous trace context"]
pub struct TraceGuard {
    previous: Option<(u64, u64, bool)>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE.with(|t| t.set(self.previous));
    }
}

/// This thread's current trace context, if one is set. The returned
/// `parent_span` is the innermost open span's id, so forwarding the
/// context to a remote peer parents the peer's spans correctly.
pub fn current_trace() -> Option<TraceContext> {
    TRACE
        .with(|t| t.get())
        .map(|(trace_id, parent_span, sampled)| TraceContext {
            trace_id,
            parent_span,
            sampled,
        })
}

/// Raw slot read for span bookkeeping.
pub(crate) fn current_raw() -> Option<(u64, u64, bool)> {
    TRACE.with(|t| t.get())
}

/// Makes `span_id` the current parent (a span just opened), returning
/// the previous slot value for [`restore_raw`] on close.
pub(crate) fn push_parent(span_id: u64) -> Option<(u64, u64, bool)> {
    TRACE.with(|t| {
        let prev = t.get();
        if let Some((trace_id, _, sampled)) = prev {
            t.set(Some((trace_id, span_id, sampled)));
        }
        prev
    })
}

/// Restores a slot value saved by [`push_parent`].
pub(crate) fn restore_raw(previous: Option<(u64, u64, bool)>) {
    TRACE.with(|t| t.set(previous));
}

/// Per-process seed for id generation: clock nanos mixed with the pid,
/// so two daemons started in the same nanosecond still diverge.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        mix(nanos ^ u64::from(std::process::id()).rotate_left(32))
    })
}

/// SplitMix64 finalizer — full-avalanche 64-bit mixing.
fn mix(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh nonzero 64-bit id for traces and spans: a process-local
/// counter fed through a full-avalanche mixer over a per-process seed.
/// Never returns zero (zero is the "no parent" sentinel).
pub fn fresh_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = mix(seed() ^ n.wrapping_mul(0xD605_0CDC_E50D_1E35));
    if id == 0 {
        1
    } else {
        id
    }
}

/// A captured telemetry scope — the current subscriber and trace
/// context — for re-installation inside a spawned worker or fan-out
/// thread, which otherwise starts with empty thread-locals and silently
/// drops every span.
///
/// ```
/// use earthmover_obs as obs;
/// let propagation = obs::Propagation::capture();
/// std::thread::scope(|scope| {
///     scope.spawn(move || {
///         let _telemetry = propagation.install();
///         let _span = obs::span!(obs::names::SHARD_CALL);
///     });
/// });
/// ```
#[derive(Clone)]
pub struct Propagation {
    subscriber: Option<std::sync::Arc<dyn crate::Subscriber>>,
    trace: Option<TraceContext>,
}

impl Propagation {
    /// Captures the calling thread's subscriber and trace context.
    pub fn capture() -> Propagation {
        Propagation {
            subscriber: crate::current_subscriber(),
            trace: current_trace(),
        }
    }

    /// Installs the captured scope on the current thread; the returned
    /// guard restores the previous state on drop.
    pub fn install(&self) -> PropagationGuard {
        PropagationGuard {
            _subscriber: self.subscriber.clone().map(crate::install),
            _trace: set_trace(self.trace),
        }
    }
}

/// RAII guard of [`Propagation::install`].
#[must_use = "dropping the guard immediately uninstalls the propagated scope"]
pub struct PropagationGuard {
    _subscriber: Option<crate::InstallGuard>,
    _trace: TraceGuard,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, RingRecorder, SpanKind};
    use std::sync::Arc;

    #[test]
    fn fresh_ids_are_nonzero_and_distinct() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn root_context_has_no_parent() {
        let root = TraceContext::root(true);
        assert_ne!(root.trace_id, 0);
        assert_eq!(root.parent_span, 0);
        assert!(root.sampled);
    }

    #[test]
    fn set_trace_guard_restores_previous() {
        let outer = TraceContext::root(false);
        let _g1 = set_trace(Some(outer));
        {
            let inner = TraceContext::root(true);
            let _g2 = set_trace(Some(inner));
            assert_eq!(current_trace().unwrap().trace_id, inner.trace_id);
        }
        assert_eq!(current_trace().unwrap().trace_id, outer.trace_id);
    }

    #[test]
    fn spans_without_context_carry_no_trace_ids() {
        let recorder = Arc::new(RingRecorder::new(4));
        let _guard = crate::install(recorder.clone());
        {
            let _span = crate::span!(names::EXACT_EMD);
        }
        assert!(recorder.snapshot()[0].trace.is_none());
    }

    #[test]
    fn nested_spans_chain_parent_ids() {
        let recorder = Arc::new(RingRecorder::new(8));
        let _guard = crate::install(recorder.clone());
        let root = TraceContext::root(true);
        let _trace = set_trace(Some(root));
        {
            let _outer = crate::span!(names::ENGINE_KNN);
            {
                let _inner = crate::span!(names::OPTIMAL_KNN);
            }
        }
        let records = recorder.snapshot();
        // Inner closes first.
        let inner = records[0].trace.unwrap();
        let outer = records[1].trace.unwrap();
        assert_eq!(inner.trace_id, root.trace_id);
        assert_eq!(outer.trace_id, root.trace_id);
        assert_eq!(outer.parent_span_id, 0);
        assert_eq!(inner.parent_span_id, outer.span_id);
        assert_ne!(inner.span_id, outer.span_id);
    }

    #[test]
    fn current_trace_points_at_innermost_span() {
        let recorder = Arc::new(RingRecorder::new(8));
        let _guard = crate::install(recorder.clone());
        let root = TraceContext::root(true);
        let _trace = set_trace(Some(root));
        let observed = {
            let _outer = crate::span!(names::ENGINE_KNN);
            current_trace().unwrap()
        };
        let outer = recorder.snapshot()[0].trace.unwrap();
        assert_eq!(observed.parent_span, outer.span_id);
        // After the span closes the parent pops back to the root.
        assert_eq!(current_trace().unwrap().parent_span, 0);
    }

    #[test]
    fn events_get_fresh_span_ids_under_parent() {
        let recorder = Arc::new(RingRecorder::new(8));
        let _guard = crate::install(recorder.clone());
        let _trace = set_trace(Some(TraceContext::root(true)));
        {
            let _outer = crate::span!(names::ENGINE_KNN);
            crate::event!(names::SHARD_RETRY);
        }
        let records = recorder.snapshot();
        assert_eq!(records[0].kind, SpanKind::Event);
        let event = records[0].trace.unwrap();
        let outer = records[1].trace.unwrap();
        assert_eq!(event.parent_span_id, outer.span_id);
        assert_ne!(event.span_id, outer.span_id);
    }

    #[test]
    fn propagation_carries_scope_into_thread() {
        let recorder = Arc::new(RingRecorder::new(8));
        let _guard = crate::install(recorder.clone());
        let root = TraceContext::root(true);
        let _trace = set_trace(Some(root));
        let propagation = Propagation::capture();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _telemetry = propagation.install();
                let _span = crate::span!(names::SHARD_CALL);
            });
        });
        let records = recorder.snapshot();
        assert_eq!(records.len(), 1, "span must reach the captured subscriber");
        assert_eq!(records[0].trace.unwrap().trace_id, root.trace_id);
    }

    #[test]
    fn hex_rendering_is_16_lowercase_digits() {
        let ids = TraceIds {
            trace_id: 0xABCD,
            span_id: 1,
            parent_span_id: 0,
        };
        assert_eq!(ids.trace_hex(), "000000000000abcd");
        assert_eq!(ids.span_hex(), "0000000000000001");
        assert_eq!(ids.parent_hex(), "0000000000000000");
    }
}
