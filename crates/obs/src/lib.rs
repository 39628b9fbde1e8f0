#![deny(missing_docs)]

//! Observability primitives for the earthmover workspace: structured
//! tracing spans and a global-free metrics registry.
//!
//! The paper's entire argument is quantitative — selectivity and response
//! time per filter stage — so the workspace instruments its hot paths end
//! to end. This crate supplies the two mechanisms everything else uses:
//!
//! * **Spans** ([`span!`]) and **events** ([`event!`]): nestable timing
//!   scopes named by a [`names`] constant, with numeric attributes,
//!   reported to a pluggable [`Subscriber`]. With no subscriber
//!   installed (the default) a span is a no-op that never reads the
//!   clock; installing a [`RingRecorder`] (in-memory ring buffer) or a
//!   [`JsonLinesEmitter`] (machine-readable JSON-lines stream) turns the
//!   same call sites into a trace.
//! * **Metrics** ([`MetricsRegistry`]): counters, gauges, and log-scale
//!   latency histograms (p50/p95/p99), exportable as Prometheus text
//!   format or JSON. The registry is an ordinary value — no global state;
//!   create one where you need it and pass it around.
//!
//! # Example
//!
//! ```
//! use earthmover_obs as obs;
//! use std::sync::Arc;
//!
//! // Record spans into a ring buffer for this scope.
//! let recorder = Arc::new(obs::RingRecorder::new(128));
//! let _guard = obs::install(recorder.clone());
//! {
//!     let mut span = obs::span!(obs::names::EXACT_EMD, pairs = 3);
//!     span.record("rung", 0.0);
//! } // closed on drop
//! assert_eq!(recorder.snapshot().len(), 1);
//!
//! // Aggregate into a registry and export.
//! let registry = obs::MetricsRegistry::new();
//! registry.counter(&obs::names::SERVE_REQUESTS_TOTAL).inc(1);
//! registry.histogram(&obs::names::SERVE_KNN_SECONDS).observe_secs(0.004);
//! let text = registry.to_prometheus();
//! assert!(text.contains("serve_requests_total 1"));
//! ```
//!
//! The crate is dependency-free by design: it is compiled into every hot
//! path of the workspace, and the no-subscriber fast path is a single
//! thread-local read.

mod metrics;
pub mod names;
mod span;
mod subscriber;
mod trace;

pub use metrics::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
pub use span::{current_subscriber, emit_event, install, InstallGuard, Span, SpanKind, SpanRecord};
pub use subscriber::{JsonLinesEmitter, NoopSubscriber, RingRecorder, Subscriber};
pub use trace::{
    current_trace, fresh_id, set_trace, Propagation, PropagationGuard, TraceContext, TraceGuard,
    TraceIds,
};

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included). Shared by the JSON exporters of this crate and the bench
/// emitter.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-safe number: finite values as-is, NaN and
/// infinities clamped to `0` / `±1e308` (JSON has no representation for
/// them and a telemetry file must stay parsable).
pub fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v == f64::INFINITY {
        "1e308".to_string()
    } else if v == f64::NEG_INFINITY {
        "-1e308".to_string()
    } else {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; that is still valid
        // JSON, so no fixup needed.
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_is_always_parsable() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3");
    }
}
