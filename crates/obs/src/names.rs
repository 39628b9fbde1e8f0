//! Canonical registry of every span, event, and metric name.
//!
//! Instrumentation names are stringly-typed: a typo at one call site
//! does not fail compilation — it silently forks the time series and
//! dashboards aggregate the halves separately. This module is the
//! single source of truth; `xlint`'s `obs_naming` rule checks every
//! `span!`/`event!`/`.counter(..)`/`.gauge(..)`/`.histogram(..)` literal
//! in the workspace against these lists, so an unregistered name is a
//! CI failure, not a 3 a.m. dashboard mystery.
//!
//! When adding instrumentation: add the name here first (keeping the
//! DESIGN.md §9 taxonomy table in sync), then use it at the call site.
//! Dynamically built names (`&format!(..)`) are exempt from the check;
//! keep their prefixes documented in DESIGN.md.

/// Every region-measuring span name, by pipeline layer.
pub const SPAN_NAMES: &[&str] = &[
    // pipeline
    "engine_knn",
    "engine_range",
    // multistep algorithms
    "range_query",
    "gemini_knn",
    "optimal_knn",
    "linear_scan_knn",
    // refinement
    "exact_emd",
    // parallel block-kernel scan executor
    "block_scan",
    // LP solver
    "lp_solve",
    // index structures
    "rtree_range",
    "mtree_knn",
    "mtree_range",
    // sketch tier: one build span per tier construction, one scan span
    // per sketch-only k-NN answered from the columnar arena.
    "sketch_build",
    "sketch_scan",
    // storage
    "storage_recovery_scan",
    // columnar block store: one span per buffer-pool miss (a block read
    // from the pagefile through the CRC layer).
    "store_block_load",
    // network query service (crates/serve)
    "serve_connection",
    "serve_request",
    // scatter-gather coordinator (crates/serve cluster mode)
    "coord_connection",
    "coord_request",
    // distributed tracing / fleet telemetry: one shard_call span per
    // fan-out leg on the coordinator, one fleet_scrape span per
    // telemetry pull cycle.
    "shard_call",
    "fleet_scrape",
];

/// Every point-in-time event name.
pub const EVENT_NAMES: &[&str] = &[
    "rtree_node_access",
    "mtree_node_access",
    "storage_page_read",
    "storage_page_write",
    "storage_crc_recovery",
    // network query service (crates/serve)
    "serve_shed",
    "serve_drain_begin",
    // scatter-gather coordinator (crates/serve cluster mode):
    // per-endpoint circuit breaker transitions, shard-call resilience
    // actions, and coordinator-level degradation/lifecycle marks.
    "breaker_open",
    "breaker_half_open",
    "breaker_close",
    "shard_retry",
    "shard_failover",
    "shard_hedge",
    "coord_shard_unavailable",
    "coord_shed",
    "coord_drain_begin",
    // slow-query log: emitted (with the linked trace ids) when a
    // coordinator request crosses the configured latency threshold.
    "coord_slow_query",
];

/// Every statically named metric (counters, gauges, histograms).
///
/// Two dynamic families exist alongside these, built with `format!`:
/// `stage_<name>_seconds` histograms and
/// `filter_<name>_evaluations_total` counters (one per filter display
/// name), plus the `<span>_total` / `<span>_seconds` series that
/// [`crate::MetricsRegistry::observe_span`] derives from span names.
pub const METRIC_NAMES: &[&str] = &[
    "trace_records_dropped_total",
    "exact_evaluations_total",
    "node_accesses_total",
    "degradations_total",
    "db_size",
    "selectivity",
    "query_seconds",
    // network query service (crates/serve): admission control and
    // per-endpoint latency. `serve_queue_depth` / `serve_active_connections`
    // are point-in-time gauges; `serve_queue_wait_seconds` is the time an
    // admitted connection sat in the queue before a worker popped it;
    // the other `serve_*_seconds` are request-latency histograms per
    // endpoint.
    "serve_requests_total",
    "serve_shed_total",
    "serve_deadline_exceeded_total",
    "serve_errors_total",
    "serve_connections_total",
    "serve_queue_depth",
    "serve_queue_wait_seconds",
    "serve_active_connections",
    "serve_knn_seconds",
    "serve_range_seconds",
    "serve_health_seconds",
    "serve_stats_seconds",
    "serve_shutdown_seconds",
    // scatter-gather coordinator (crates/serve cluster mode):
    // `shard_*` count per-endpoint call outcomes and resilience actions;
    // `coord_*` count coordinator requests, degradations, and admission.
    "shard_calls_total",
    "shard_retries_total",
    "shard_failovers_total",
    "shard_hedges_total",
    "shard_breaker_open_total",
    "shard_breaker_rejections_total",
    "coord_knn_total",
    "coord_range_total",
    "coord_partial_total",
    "coord_shard_unavailable_total",
    "coord_requests_total",
    "coord_connections_total",
    "coord_shed_total",
    "coord_errors_total",
    "coord_queue_depth",
    "coord_queue_wait_seconds",
    "coord_active_connections",
    "coord_request_seconds",
    // distributed tracing / fleet telemetry plane. The per-group
    // straggler histograms are a dynamic family:
    // `coord_group_<i>_latency_seconds` (format!-built, one per shard
    // group).
    "coord_slow_queries_total",
    "coord_traces_sampled_total",
    "fleet_scrapes_total",
    "fleet_scrape_errors_total",
    // tiered storage (paged column store): buffer-pool traffic and the
    // query-signature filter-distance cache. Refreshed as absolute
    // gauges from the pool/cache snapshots on every stats scrape.
    "pool_hit_total",
    "pool_miss_total",
    "pool_evictions_total",
    "pool_bypass_total",
    "pool_resident_blocks",
    "filter_cache_hit_total",
    "filter_cache_miss_total",
    "filter_cache_entries",
    // approximate retrieval: sketch-only k-NN requests admitted by the
    // single-node server or fanned out by the coordinator.
    "sketch_queries_total",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = Vec::new();
        all.extend(SPAN_NAMES);
        all.extend(EVENT_NAMES);
        all.extend(METRIC_NAMES);
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(name), "duplicate registered name: {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "name {name:?} must be snake_case ASCII (Prometheus-safe)"
            );
            assert!(!name.is_empty());
        }
    }
}
