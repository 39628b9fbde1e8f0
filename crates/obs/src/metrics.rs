//! A global-free metrics registry: counters, gauges, and log-scale
//! latency histograms, exportable as Prometheus text format and JSON.
//!
//! The registry is an ordinary value — create one where you need it
//! (e.g. per CLI invocation, per bench run) and pass it around. Handles
//! returned by [`MetricsRegistry::counter`] & co. are `Arc`s backed by
//! atomics, so hot paths can keep a handle and update it without going
//! through the registry map again.

use crate::span::{SpanKind, SpanRecord};
use crate::{json_escape, json_f64};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of finite histogram buckets. Upper bounds are
/// `1µs · 2^i` for `i in 0..BUCKETS`, i.e. 1µs up to ~34s, plus an
/// implicit `+Inf` overflow bucket.
pub const BUCKETS: usize = 26;

/// Upper bound (in seconds) of finite bucket `i`.
fn bucket_bound(i: usize) -> f64 {
    1e-6 * (1u64 << i) as f64
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` (negative to decrement): a CAS loop on
    /// the bits, so concurrent adders never lose an update the way
    /// `set(get() + delta)` does.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log-scale latency histogram: 26 power-of-two buckets from 1µs to
/// ~34s plus overflow, with total sum and count. Quantiles (p50/p95/p99)
/// are estimated as the upper bound of the bucket containing the target
/// rank — the standard conservative estimate for bucketed histograms.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// `BUCKETS` finite buckets followed by the overflow bucket.
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    /// Sum of observed values in nanoseconds (keeps the atomic integral).
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation of `d`.
    pub fn observe(&self, d: Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    /// Records one observation of `secs` seconds. Negative and NaN
    /// values are clamped to zero (they can only come from clock bugs and
    /// must not poison the export).
    pub fn observe_secs(&self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let idx = self
            .bucket_index(secs)
            .unwrap_or(BUCKETS /* overflow slot */);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }

    fn bucket_index(&self, secs: f64) -> Option<usize> {
        (0..BUCKETS).find(|&i| secs <= bucket_bound(i))
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`) in seconds: the upper bound
    /// of the bucket containing the target rank. Returns 0 with no
    /// observations; observations in the overflow bucket report the last
    /// finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            if cumulative >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// `(upper_bound_secs, cumulative_count)` per finite bucket, plus the
    /// `+Inf` row — the Prometheus cumulative-bucket shape.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(BUCKETS + 1);
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push((bucket_bound(i), cumulative));
        }
        out.push((f64::INFINITY, self.count()));
        out
    }
}

/// A collection of named metrics with Prometheus and JSON export.
///
/// Names are sanitized at export time (`.`, `-`, and other characters
/// outside `[a-zA-Z0-9_:]` become `_`), so instrumentation can use
/// readable dotted names.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// The latency histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Folds one span record into the registry: spans feed a
    /// `<name>_seconds` histogram and a `<name>_total` counter; events
    /// feed only the counter. This is how a [`crate::RingRecorder`]
    /// snapshot becomes aggregated metrics.
    pub fn observe_span(&self, record: &SpanRecord) {
        self.counter(&format!("{}_total", record.name)).inc(1);
        if record.kind == SpanKind::Span {
            self.histogram(&format!("{}_seconds", record.name))
                .observe(record.elapsed);
        }
    }

    /// Exports every metric in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let name = sanitize(name);
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                json_f64(g.get())
            ));
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (bound, cumulative) in h.cumulative_buckets() {
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    json_f64(bound)
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", json_f64(h.sum_secs())));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    /// Exports every metric as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`. Histogram
    /// entries carry count, sum, p50/p95/p99, and the cumulative buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), c.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), json_f64(g.get())));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), histogram_json(h)));
        }
        out.push_str("}}");
        out
    }
}

/// JSON object for one histogram (shared with the bench emitter).
pub(crate) fn histogram_json(h: &LatencyHistogram) -> String {
    let buckets: Vec<String> = h
        .cumulative_buckets()
        .iter()
        .map(|(bound, cumulative)| format!("[{},{}]", json_f64(*bound), cumulative))
        .collect();
    format!(
        "{{\"count\":{},\"sum_seconds\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count(),
        json_f64(h.sum_secs()),
        json_f64(h.quantile(0.50)),
        json_f64(h.quantile(0.95)),
        json_f64(h.quantile(0.99)),
        buckets.join(",")
    )
}

impl LatencyHistogram {
    /// JSON object describing this histogram: count, sum, p50/p95/p99,
    /// cumulative buckets. The same shape [`MetricsRegistry::to_json`]
    /// uses.
    pub fn to_json(&self) -> String {
        histogram_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::new();
        r.counter("queries_total").inc(2);
        r.counter("queries_total").inc(3);
        r.gauge("db_size").set(128.0);
        assert_eq!(r.counter("queries_total").get(), 5);
        assert_eq!(r.gauge("db_size").get(), 128.0);
    }

    /// Two threads released together each add 1.0 a million
    /// times; a non-atomic `set(get() + 1.0)` loses updates here.
    #[test]
    fn gauge_add_loses_no_update_under_contention() {
        const ADDS: usize = 1_000_000;
        let gauge = Gauge::default();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ADDS {
                        gauge.add(1.0);
                    }
                });
            }
        });
        assert_eq!(gauge.get(), (2 * ADDS) as f64);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_bound(0), 1e-6);
        assert_eq!(bucket_bound(1), 2e-6);
        assert!(bucket_bound(BUCKETS - 1) > 30.0);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.observe_secs(1e-4); // ~100µs
        }
        for _ in 0..10 {
            h.observe_secs(1e-2); // ~10ms
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((1e-4..1e-3).contains(&p50), "p50 = {p50}");
        assert!((1e-2..1e-1).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert_eq!(h.count(), 100);
        assert!((h.sum_secs() - (90.0 * 1e-4 + 10.0 * 1e-2)).abs() < 1e-6);
    }

    #[test]
    fn overflow_and_degenerate_observations() {
        let h = LatencyHistogram::default();
        h.observe_secs(1e9); // far beyond the last bucket
        h.observe_secs(-1.0); // clamped to zero
        h.observe_secs(f64::NAN); // clamped to zero
        assert_eq!(h.count(), 3);
        let rows = h.cumulative_buckets();
        assert_eq!(rows.last().unwrap().1, 3);
        // The two clamped observations land in the first bucket.
        assert_eq!(rows[0].1, 2);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(LatencyHistogram::default().quantile(0.99), 0.0);
    }

    #[test]
    fn prometheus_export_shape() {
        let r = MetricsRegistry::new();
        r.counter("exact.evaluations").inc(7);
        r.gauge("selectivity").set(0.25);
        r.histogram("stage_exact_seconds").observe_secs(0.003);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE exact_evaluations counter"));
        assert!(text.contains("exact_evaluations 7"));
        assert!(text.contains("# TYPE selectivity gauge"));
        assert!(text.contains("selectivity 0.25"));
        assert!(text.contains("# TYPE stage_exact_seconds histogram"));
        assert!(text.contains("stage_exact_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stage_exact_seconds_count 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line: {line}");
        }
    }

    #[test]
    fn json_export_is_balanced_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("a").inc(1);
        r.gauge("g").set(2.5);
        r.histogram("h_seconds").observe_secs(0.5);
        let json = r.to_json();
        assert!(json.contains("\"counters\":{\"a\":1}"));
        assert!(json.contains("\"g\":2.5"));
        assert!(json.contains("\"p95\":"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn observe_span_feeds_counter_and_histogram() {
        use crate::span::{SpanKind, SpanRecord};
        let r = MetricsRegistry::new();
        r.observe_span(&SpanRecord {
            name: "exact_emd",
            kind: SpanKind::Span,
            depth: 0,
            elapsed: Duration::from_micros(40),
            attrs: vec![],
            trace: None,
        });
        r.observe_span(&SpanRecord {
            name: "crc_recovery",
            kind: SpanKind::Event,
            depth: 0,
            elapsed: Duration::ZERO,
            attrs: vec![],
            trace: None,
        });
        assert_eq!(r.counter("exact_emd_total").get(), 1);
        assert_eq!(r.histogram("exact_emd_seconds").count(), 1);
        assert_eq!(r.counter("crc_recovery_total").get(), 1);
        assert_eq!(r.histogram("crc_recovery_seconds").count(), 0);
    }

    #[test]
    fn sanitize_rules() {
        assert_eq!(sanitize("a.b-c"), "a_b_c");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
    }
}
