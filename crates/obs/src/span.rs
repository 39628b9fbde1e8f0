//! Structured spans: named, nestable timing scopes with numeric
//! attributes, dispatched to the thread's installed [`Subscriber`].
//!
//! The design goal is a near-zero disabled cost: creating a [`Span`] when
//! no subscriber is installed performs one thread-local read and *never
//! touches the clock*. Only with a subscriber installed does a span take
//! timestamps, carry attributes, and report a [`SpanRecord`] on drop.

use crate::names::Name;
use crate::subscriber::Subscriber;
use crate::trace::{self, TraceIds};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// The subscriber receiving spans closed on this thread, if any.
    static SUBSCRIBER: RefCell<Option<Arc<dyn Subscriber>>> = const { RefCell::new(None) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Whether a [`SpanRecord`] came from a timed scope or an instantaneous
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A timed scope: `elapsed` is the scope's wall-clock duration.
    Span,
    /// An instantaneous occurrence: `elapsed` is zero.
    Event,
}

/// One closed span or emitted event, as delivered to a [`Subscriber`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (static — span names are code, not data).
    pub name: &'static str,
    /// Timed scope or instantaneous event.
    pub kind: SpanKind,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u16,
    /// Wall-clock duration of the scope (zero for events).
    pub elapsed: Duration,
    /// Numeric attributes attached at creation or via [`Span::record`].
    pub attrs: Vec<(&'static str, f64)>,
    /// Distributed trace linkage — present only when a
    /// [`crate::TraceContext`] was set on the thread (see
    /// [`crate::set_trace`]).
    pub trace: Option<TraceIds>,
}

impl SpanRecord {
    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Installs `subscriber` as this thread's span sink, returning a guard
/// that restores the previous subscriber (usually none) on drop.
///
/// Installation is per-thread by design: the registry-free architecture
/// means there is no global to contend on, and parallel query threads can
/// trace independently. Subscribers themselves are `Send + Sync`, so one
/// [`crate::RingRecorder`] can be installed on many threads at once.
pub fn install(subscriber: Arc<dyn Subscriber>) -> InstallGuard {
    let previous = SUBSCRIBER.with(|s| s.replace(Some(subscriber)));
    InstallGuard { previous }
}

/// RAII guard of [`install`]; restores the previously installed
/// subscriber when dropped.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub struct InstallGuard {
    previous: Option<Arc<dyn Subscriber>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        SUBSCRIBER.with(|s| s.replace(self.previous.take()));
    }
}

/// This thread's installed subscriber, if any. Exposed so spawn sites
/// (worker pools, scoped fan-out threads) can hand the subscriber to
/// child threads — see [`crate::Propagation`] for the one-call version
/// that also carries the trace context.
pub fn current_subscriber() -> Option<Arc<dyn Subscriber>> {
    SUBSCRIBER.with(|s| s.borrow().clone())
}

/// The live state of a span that is actually being recorded.
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    depth: u16,
    attrs: Vec<(&'static str, f64)>,
    subscriber: Arc<dyn Subscriber>,
    /// This span's trace linkage, when a trace context is set.
    trace: Option<TraceIds>,
    /// Trace slot to restore on close (the span made itself the
    /// current parent while open).
    prev_trace: Option<(u64, u64, bool)>,
}

/// A timing scope. Create with the [`crate::span!`] macro; the span
/// reports itself to the installed subscriber when dropped.
///
/// With no subscriber installed the span is inert: no timestamps, no
/// allocation, nothing on drop.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Opens a span named `name` with initial attributes. Prefer the
    /// [`crate::span!`] macro, which provides the `key = value` sugar.
    pub fn new(name: Name, attrs: &[(&'static str, f64)]) -> Span {
        let Some(subscriber) = current_subscriber() else {
            return Span { active: None };
        };
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        let (trace_ids, prev_trace) = match trace::current_raw() {
            Some((trace_id, parent, _sampled)) => {
                let span_id = trace::fresh_id();
                (
                    Some(TraceIds {
                        trace_id,
                        span_id,
                        parent_span_id: parent,
                    }),
                    trace::push_parent(span_id),
                )
            }
            None => (None, None),
        };
        Span {
            active: Some(ActiveSpan {
                name: name.as_str(),
                start: Instant::now(),
                depth,
                attrs: attrs.to_vec(),
                subscriber,
                trace: trace_ids,
                prev_trace,
            }),
        }
    }

    /// Sets (or overwrites) a numeric attribute on the span — for values
    /// only known after the work ran, e.g. a pivot count.
    pub fn record(&mut self, key: &'static str, value: f64) {
        if let Some(active) = &mut self.active {
            if let Some(slot) = active.attrs.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                active.attrs.push((key, value));
            }
        }
    }

    /// True when a subscriber is receiving this span — lets call sites
    /// skip computing expensive attributes when nobody is listening.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            if active.trace.is_some() {
                trace::restore_raw(active.prev_trace);
            }
            active.subscriber.on_close(&SpanRecord {
                name: active.name,
                kind: SpanKind::Span,
                depth: active.depth,
                elapsed: active.start.elapsed(),
                attrs: active.attrs,
                trace: active.trace,
            });
        }
    }
}

/// Emits an instantaneous event to the installed subscriber (no-op when
/// none is installed). Prefer the [`crate::event!`] macro.
pub fn emit_event(name: Name, attrs: &[(&'static str, f64)]) {
    if let Some(subscriber) = current_subscriber() {
        let trace_ids = trace::current_raw().map(|(trace_id, parent, _)| TraceIds {
            trace_id,
            span_id: trace::fresh_id(),
            parent_span_id: parent,
        });
        subscriber.on_close(&SpanRecord {
            name: name.as_str(),
            kind: SpanKind::Event,
            depth: DEPTH.with(|d| d.get()),
            elapsed: Duration::ZERO,
            attrs: attrs.to_vec(),
            trace: trace_ids,
        });
    }
}

/// Opens a [`Span`]: `span!(names::EXACT_EMD)` or
/// `span!(names::OPTIMAL_KNN, k = 5, relax = r)`. The name is a
/// [`crate::names`] constant; attribute values are converted with
/// `as f64`. A string literal does not compile:
///
/// ```compile_fail
/// let _span = earthmover_obs::span!("engine_knn");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::new($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::new($name, &[$((stringify!($key), $value as f64)),+])
    };
}

/// Emits an instantaneous event: `event!(names::SHARD_RETRY)` or
/// `event!(names::STORAGE_PAGE_READ, page = id)`. The name is a
/// [`crate::names`] constant; attribute values are converted with
/// `as f64`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::emit_event($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::emit_event($name, &[$((stringify!($key), $value as f64)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingRecorder;

    const NOTHING: Name = Name::new("nothing");
    const OUTER: Name = Name::new("outer");
    const INNER: Name = Name::new("inner");
    const S: Name = Name::new("s");
    const TICK: Name = Name::new("tick");
    const TO_A: Name = Name::new("to_a");
    const TO_B: Name = Name::new("to_b");
    const ONE: Name = Name::new("one");
    const TWO: Name = Name::new("two");

    #[test]
    fn no_subscriber_means_inert_span() {
        let span = crate::span!(NOTHING, x = 1);
        assert!(!span.is_recording());
    }

    #[test]
    fn spans_nest_and_report_depth() {
        let recorder = Arc::new(RingRecorder::new(16));
        let _guard = install(recorder.clone());
        {
            let _outer = crate::span!(OUTER);
            {
                let _inner = crate::span!(INNER, k = 3);
            }
        }
        let records = recorder.snapshot();
        assert_eq!(records.len(), 2);
        // Inner closes first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[0].attr("k"), Some(3.0));
        assert_eq!(records[1].name, "outer");
        assert_eq!(records[1].depth, 0);
    }

    #[test]
    fn record_overwrites_and_appends() {
        let recorder = Arc::new(RingRecorder::new(4));
        let _guard = install(recorder.clone());
        {
            let mut span = crate::span!(S, a = 1);
            span.record("a", 2.0);
            span.record("b", 9.0);
        }
        let r = &recorder.snapshot()[0];
        assert_eq!(r.attr("a"), Some(2.0));
        assert_eq!(r.attr("b"), Some(9.0));
    }

    #[test]
    fn events_are_instantaneous() {
        let recorder = Arc::new(RingRecorder::new(4));
        let _guard = install(recorder.clone());
        crate::event!(TICK, page = 7);
        let r = &recorder.snapshot()[0];
        assert_eq!(r.kind, SpanKind::Event);
        assert_eq!(r.elapsed, Duration::ZERO);
        assert_eq!(r.attr("page"), Some(7.0));
    }

    #[test]
    fn install_guard_restores_previous() {
        let a = Arc::new(RingRecorder::new(4));
        let b = Arc::new(RingRecorder::new(4));
        let _ga = install(a.clone());
        {
            let _gb = install(b.clone());
            crate::event!(TO_B);
        }
        crate::event!(TO_A);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(a.snapshot()[0].name, "to_a");
    }

    #[test]
    fn depth_recovers_after_guard_scopes() {
        let recorder = Arc::new(RingRecorder::new(8));
        let _guard = install(recorder.clone());
        {
            let _s = crate::span!(ONE);
        }
        {
            let _s = crate::span!(TWO);
        }
        let records = recorder.snapshot();
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[1].depth, 0);
    }
}
