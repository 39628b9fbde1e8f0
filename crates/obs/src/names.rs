//! Every span, event, and metric name, one constant each.
//!
//! A name is a [`Name`], which only this crate can build, and
//! [`crate::span!`] / [`crate::event!`] take nothing else: a misspelled
//! span or event name is a compile error, not a silently forked time
//! series. Metric writers *and* readers (the fleet view, `loadgen`,
//! tests) pass `&names::X` to [`crate::MetricsRegistry::counter`] and
//! its siblings, so both ends of a series share one spelling. [`Name::new`]
//! is a `const fn` that rejects anything but non-empty snake_case ASCII
//! (Prometheus-safe), so a malformed constant fails to compile.
//!
//! Four metric families are built with `format!` at their one site and
//! are therefore not listed here:
//!
//! - `stage_<filter>_seconds` histograms and
//!   `filter_<filter>_evaluations_total` counters, one per filter
//!   display name (`emdtool`'s metrics export);
//! - `coord_group_<i>_latency_seconds` histograms, one per shard group
//!   (the coordinator's straggler view);
//! - `<span>_total` / `<span>_seconds`, which
//!   [`crate::MetricsRegistry::observe_span`] derives from span names.
//!
//! When adding instrumentation, add the constant here (keeping the
//! DESIGN.md §9 taxonomy table in sync) and use it at the call site.

use std::ops::Deref;

/// An instrumentation name: non-empty snake_case ASCII, constructible
/// only inside this crate.
#[derive(Debug, Clone, Copy)]
pub struct Name(&'static str);

impl Name {
    /// Checks `name` and wraps it; in a `const` a bad name fails the
    /// build.
    pub(crate) const fn new(name: &'static str) -> Name {
        let bytes = name.as_bytes();
        let mut ok = !bytes.is_empty();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            ok &= c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_';
            i += 1;
        }
        assert!(ok, "instrumentation names are snake_case ASCII");
        Name(name)
    }

    /// The name as a string.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

/// Declares one `pub const` per name, documented by kind and spelling,
/// plus the test-only list of all of them.
macro_rules! names {
    ($($kind:literal: { $($id:ident = $name:literal,)* })*) => {
        $($(
            #[doc = concat!($kind, " `", $name, "`.")]
            pub const $id: Name = Name::new($name);
        )*)*

        #[cfg(test)]
        const ALL: &[Name] = &[$($($id,)*)*];
    };
}

names! {
    "Span": {
        // pipeline and multistep algorithms
        ENGINE_KNN = "engine_knn",
        ENGINE_RANGE = "engine_range",
        RANGE_QUERY = "range_query",
        GEMINI_KNN = "gemini_knn",
        OPTIMAL_KNN = "optimal_knn",
        LINEAR_SCAN_KNN = "linear_scan_knn",
        // refinement, block-kernel scan, LP solver
        EXACT_EMD = "exact_emd",
        BLOCK_SCAN = "block_scan",
        LP_SOLVE = "lp_solve",
        // index structures
        RTREE_RANGE = "rtree_range",
        MTREE_KNN = "mtree_knn",
        MTREE_RANGE = "mtree_range",
        // sketch tier: one build per tier, one scan per sketch-only k-NN
        SKETCH_BUILD = "sketch_build",
        SKETCH_SCAN = "sketch_scan",
        // storage; one block load per buffer-pool miss
        STORAGE_RECOVERY_SCAN = "storage_recovery_scan",
        STORE_BLOCK_LOAD = "store_block_load",
        // network query service and coordinator
        SERVE_CONNECTION = "serve_connection",
        SERVE_REQUEST = "serve_request",
        COORD_CONNECTION = "coord_connection",
        COORD_REQUEST = "coord_request",
        // one per fan-out leg; one per telemetry pull cycle
        SHARD_CALL = "shard_call",
        FLEET_SCRAPE = "fleet_scrape",
    }
    "Event": {
        RTREE_NODE_ACCESS = "rtree_node_access",
        MTREE_NODE_ACCESS = "mtree_node_access",
        STORAGE_PAGE_READ = "storage_page_read",
        STORAGE_PAGE_WRITE = "storage_page_write",
        STORAGE_CRC_RECOVERY = "storage_crc_recovery",
        SERVE_SHED = "serve_shed",
        SERVE_DRAIN_BEGIN = "serve_drain_begin",
        // coordinator: breaker transitions, shard-call resilience
        // actions, degradation and lifecycle marks
        BREAKER_OPEN = "breaker_open",
        BREAKER_HALF_OPEN = "breaker_half_open",
        BREAKER_CLOSE = "breaker_close",
        SHARD_RETRY = "shard_retry",
        SHARD_FAILOVER = "shard_failover",
        SHARD_HEDGE = "shard_hedge",
        COORD_SHARD_UNAVAILABLE = "coord_shard_unavailable",
        COORD_SHED = "coord_shed",
        COORD_DRAIN_BEGIN = "coord_drain_begin",
        // slow-query log, with the linked trace ids
        COORD_SLOW_QUERY = "coord_slow_query",
    }
    "Metric": {
        // emdtool's per-query export
        TRACE_RECORDS_DROPPED_TOTAL = "trace_records_dropped_total",
        EXACT_EVALUATIONS_TOTAL = "exact_evaluations_total",
        NODE_ACCESSES_TOTAL = "node_accesses_total",
        DEGRADATIONS_TOTAL = "degradations_total",
        DB_SIZE = "db_size",
        SELECTIVITY = "selectivity",
        QUERY_SECONDS = "query_seconds",
        // network query service: admission control, queue-depth and
        // connection gauges, queue wait and per-endpoint latency
        SERVE_REQUESTS_TOTAL = "serve_requests_total",
        SERVE_SHED_TOTAL = "serve_shed_total",
        SERVE_DEADLINE_EXCEEDED_TOTAL = "serve_deadline_exceeded_total",
        SERVE_ERRORS_TOTAL = "serve_errors_total",
        SERVE_CONNECTIONS_TOTAL = "serve_connections_total",
        SERVE_QUEUE_DEPTH = "serve_queue_depth",
        SERVE_QUEUE_WAIT_SECONDS = "serve_queue_wait_seconds",
        SERVE_ACTIVE_CONNECTIONS = "serve_active_connections",
        SERVE_KNN_SECONDS = "serve_knn_seconds",
        SERVE_RANGE_SECONDS = "serve_range_seconds",
        SERVE_HEALTH_SECONDS = "serve_health_seconds",
        SERVE_STATS_SECONDS = "serve_stats_seconds",
        SERVE_SHUTDOWN_SECONDS = "serve_shutdown_seconds",
        // coordinator: per-endpoint call outcomes and resilience
        // actions (`shard_*`), requests, degradations and admission
        // (`coord_*`)
        SHARD_CALLS_TOTAL = "shard_calls_total",
        SHARD_RETRIES_TOTAL = "shard_retries_total",
        SHARD_FAILOVERS_TOTAL = "shard_failovers_total",
        SHARD_HEDGES_TOTAL = "shard_hedges_total",
        SHARD_BREAKER_OPEN_TOTAL = "shard_breaker_open_total",
        SHARD_BREAKER_REJECTIONS_TOTAL = "shard_breaker_rejections_total",
        COORD_KNN_TOTAL = "coord_knn_total",
        COORD_RANGE_TOTAL = "coord_range_total",
        COORD_PARTIAL_TOTAL = "coord_partial_total",
        COORD_SHARD_UNAVAILABLE_TOTAL = "coord_shard_unavailable_total",
        COORD_REQUESTS_TOTAL = "coord_requests_total",
        COORD_CONNECTIONS_TOTAL = "coord_connections_total",
        COORD_SHED_TOTAL = "coord_shed_total",
        COORD_ERRORS_TOTAL = "coord_errors_total",
        COORD_QUEUE_DEPTH = "coord_queue_depth",
        COORD_QUEUE_WAIT_SECONDS = "coord_queue_wait_seconds",
        COORD_ACTIVE_CONNECTIONS = "coord_active_connections",
        COORD_REQUEST_SECONDS = "coord_request_seconds",
        // tracing and fleet telemetry
        COORD_SLOW_QUERIES_TOTAL = "coord_slow_queries_total",
        COORD_TRACES_SAMPLED_TOTAL = "coord_traces_sampled_total",
        FLEET_SCRAPES_TOTAL = "fleet_scrapes_total",
        FLEET_SCRAPE_ERRORS_TOTAL = "fleet_scrape_errors_total",
        // paged store: buffer pool and filter-distance cache, set as
        // absolute gauges from their snapshots on every stats scrape
        POOL_HIT_TOTAL = "pool_hit_total",
        POOL_MISS_TOTAL = "pool_miss_total",
        POOL_EVICTIONS_TOTAL = "pool_evictions_total",
        POOL_BYPASS_TOTAL = "pool_bypass_total",
        POOL_RESIDENT_BLOCKS = "pool_resident_blocks",
        FILTER_CACHE_HIT_TOTAL = "filter_cache_hit_total",
        FILTER_CACHE_MISS_TOTAL = "filter_cache_miss_total",
        FILTER_CACHE_ENTRIES = "filter_cache_entries",
        // sketch-only k-NN requests, single node or fanned out
        SKETCH_QUERIES_TOTAL = "sketch_queries_total",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name.as_str()), "duplicate name: {name:?}");
        }
    }

    #[test]
    #[should_panic(expected = "snake_case ASCII")]
    fn malformed_names_are_rejected() {
        let _ = Name::new("Bad-Name");
    }
}
