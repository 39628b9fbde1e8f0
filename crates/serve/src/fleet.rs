//! Fleet telemetry plane: periodic scraping of every shard's metrics
//! into one labeled, cluster-wide Prometheus view.
//!
//! The coordinator cannot see inside a shard from its own counters —
//! `shard_calls_total` says how often it *asked*, not what the shard
//! *did*. [`FleetTelemetry`] closes that gap: a background thread
//! periodically issues the ordinary `Stats` request to each group
//! (primary first, replica on failure) and caches the returned
//! Prometheus text. [`FleetTelemetry::merged_prometheus`] then renders
//! the coordinator's own registry followed by every shard's series with
//! `shard="<group>",endpoint="<addr>"` labels injected, so one scrape
//! of the coordinator yields the whole fleet with per-shard
//! attribution. [`parse_fleet`] parses that merged text back into
//! per-shard rows for human front ends (`emdtool top`).

use crate::client::{Client, ClientError};
use crate::coord::{ClusterShared, GroupSpec};
use earthmover_obs::{self as obs, names};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One shard group's most recent successful telemetry pull.
#[derive(Debug, Clone)]
pub struct ShardScrape {
    /// Shard-map position of the scraped group.
    pub group: usize,
    /// The endpoint that answered (primary, or replica on failover).
    pub endpoint: SocketAddr,
    /// The shard's metrics in Prometheus text format, as returned.
    pub prometheus: String,
    /// When the scrape completed.
    pub taken: Instant,
}

impl ShardScrape {
    /// How long ago this scrape was taken.
    pub fn age(&self) -> Duration {
        self.taken.elapsed()
    }
}

/// Latest per-group scrapes plus the merge/export logic. One instance
/// is shared by the scraper thread and every coordinator worker.
#[derive(Debug, Default)]
pub struct FleetTelemetry {
    scrapes: Mutex<Vec<Option<ShardScrape>>>,
}

impl FleetTelemetry {
    /// An empty cache with one slot per shard group.
    pub fn new(groups: usize) -> FleetTelemetry {
        FleetTelemetry {
            scrapes: Mutex::new(vec![None; groups]),
        }
    }

    /// Pulls every shard group's metrics once. A failed group keeps its
    /// previous scrape (stale beats blank for a dashboard); failures
    /// count into `fleet_scrape_errors_total` on the cluster registry.
    pub fn scrape(&self, cluster: &ClusterShared) {
        let _span = obs::span!(names::FLEET_SCRAPE);
        let registry = cluster.registry();
        let io_timeout = cluster.config().io_timeout;
        for (group, spec) in cluster.config().groups.iter().enumerate() {
            registry.counter(&names::FLEET_SCRAPES_TOTAL).inc(1);
            match scrape_group(spec, io_timeout) {
                Ok((endpoint, prometheus)) => {
                    let mut slots = self.scrapes.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(slot) = slots.get_mut(group) {
                        *slot = Some(ShardScrape {
                            group,
                            endpoint,
                            prometheus,
                            taken: Instant::now(),
                        });
                    }
                }
                Err(_) => {
                    registry.counter(&names::FLEET_SCRAPE_ERRORS_TOTAL).inc(1);
                }
            }
        }
    }

    /// Snapshot of the cached scrapes (present groups only).
    pub fn scrapes(&self) -> Vec<ShardScrape> {
        self.scrapes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// The coordinator's own Prometheus text followed by every cached
    /// shard scrape with `shard`/`endpoint` labels injected into each
    /// sample line. `# TYPE` headers are deduplicated across shards
    /// (all shards export the same metric names).
    pub fn merged_prometheus(&self, coordinator: &str) -> String {
        let mut out = String::from(coordinator);
        let mut typed: BTreeSet<String> = BTreeSet::new();
        for scrape in self.scrapes() {
            inject_labels(
                &scrape.prometheus,
                scrape.group,
                &scrape.endpoint,
                &mut out,
                &mut typed,
            );
        }
        out
    }
}

/// Scrapes one group: primary first, replica on failure.
fn scrape_group(
    spec: &GroupSpec,
    io_timeout: Duration,
) -> Result<(SocketAddr, String), ClientError> {
    match Client::connect(spec.primary, io_timeout).and_then(|mut c| c.stats()) {
        Ok(text) => Ok((spec.primary, text)),
        Err(primary_err) => match spec.replica {
            Some(replica) => Client::connect(replica, io_timeout)
                .and_then(|mut c| c.stats())
                .map(|text| (replica, text)),
            None => Err(primary_err),
        },
    }
}

/// Rewrites one shard's Prometheus text into `out` with
/// `shard="<group>",endpoint="<addr>"` prepended to each sample's label
/// set (created when the sample had none). `# TYPE` lines pass through
/// once per metric name via `typed`.
fn inject_labels(
    text: &str,
    group: usize,
    endpoint: &SocketAddr,
    out: &mut String,
    typed: &mut BTreeSet<String>,
) {
    let labels = format!("shard=\"{group}\",endpoint=\"{endpoint}\"");
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if typed.insert(rest.to_string()) {
                let _ = writeln!(out, "# TYPE {rest}");
            }
            continue;
        }
        if line.starts_with('#') {
            // Other comments (HELP…) are not worth deduplicating.
            continue;
        }
        // `name{existing} value` or `name value`.
        match line.split_once('{') {
            Some((name, rest)) => {
                let _ = writeln!(out, "{name}{{{labels},{rest}");
            }
            None => match line.split_once(' ') {
                Some((name, value)) => {
                    let _ = writeln!(out, "{name}{{{labels}}} {value}");
                }
                None => {
                    let _ = writeln!(out, "{line}");
                }
            },
        }
    }
}

/// One shard's headline numbers parsed back out of a merged fleet
/// export ([`FleetTelemetry::merged_prometheus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// Shard-map position (the `shard` label).
    pub shard: u32,
    /// The scraped endpoint (the `endpoint` label).
    pub endpoint: String,
    /// The shard's `serve_requests_total`.
    pub requests: u64,
    /// Median k-NN latency in milliseconds from the
    /// `serve_knn_seconds` buckets, when any were observed.
    pub p50_ms: Option<f64>,
    /// p99 k-NN latency in milliseconds.
    pub p99_ms: Option<f64>,
    /// The shard's `serve_queue_depth` gauge.
    pub queue_depth: Option<f64>,
    /// Buffer-pool hit rate computed from the shard's `pool_hit_total`
    /// and `pool_miss_total` gauges; `None` when the shard serves a
    /// fully resident (non-paged) store or has seen no pool traffic.
    pub pool_hit_rate: Option<f64>,
    /// The shard's `pool_resident_blocks` gauge.
    pub pool_resident_blocks: Option<f64>,
    /// The shard's `filter_cache_entries` gauge.
    pub filter_cache_entries: Option<f64>,
}

/// Parses a merged fleet export into one row per `(shard, endpoint)`
/// pair, ascending by shard. Input without any `shard=`-labeled series
/// (fleet scraping disabled or not yet run) yields an empty vector.
pub fn parse_fleet(merged: &str) -> Vec<FleetRow> {
    let mut rows: Vec<FleetRow> = Vec::new();
    for (shard, endpoint) in fleet_keys(merged) {
        let labels = format!("shard=\"{shard}\",endpoint=\"{endpoint}\"");
        let requests = sample_value(merged, &names::SERVE_REQUESTS_TOTAL, &labels)
            .map(|v| v as u64)
            .unwrap_or(0);
        let queue_depth = sample_value(merged, &names::SERVE_QUEUE_DEPTH, &labels);
        let buckets = histogram_buckets(merged, &names::SERVE_KNN_SECONDS, &labels);
        let pool_hits = sample_value(merged, &names::POOL_HIT_TOTAL, &labels);
        let pool_misses = sample_value(merged, &names::POOL_MISS_TOTAL, &labels);
        let pool_hit_rate = match (pool_hits, pool_misses) {
            (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
            _ => None,
        };
        rows.push(FleetRow {
            shard,
            endpoint,
            requests,
            p50_ms: bucket_quantile(&buckets, 0.5).map(|s| s * 1000.0),
            p99_ms: bucket_quantile(&buckets, 0.99).map(|s| s * 1000.0),
            queue_depth,
            pool_hit_rate,
            pool_resident_blocks: sample_value(merged, &names::POOL_RESIDENT_BLOCKS, &labels),
            filter_cache_entries: sample_value(merged, &names::FILTER_CACHE_ENTRIES, &labels),
        });
    }
    rows
}

/// Distinct `(shard, endpoint)` label pairs in the export, ascending.
fn fleet_keys(merged: &str) -> Vec<(u32, String)> {
    let mut keys: BTreeSet<(u32, String)> = BTreeSet::new();
    for line in merged.lines() {
        let Some(shard) = label_value(line, "shard") else {
            continue;
        };
        let Some(endpoint) = label_value(line, "endpoint") else {
            continue;
        };
        if let Ok(shard) = shard.parse::<u32>() {
            keys.insert((shard, endpoint.to_string()));
        }
    }
    keys.into_iter().collect()
}

/// The value of `label="…"` inside a sample line's label set.
fn label_value<'a>(line: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let start = line.find(&needle)? + needle.len();
    let rest = line.get(start..)?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// The value of the sample `name{labels…} value` whose label set starts
/// with `labels` (the injected pair always comes first).
fn sample_value(merged: &str, name: &str, labels: &str) -> Option<f64> {
    let prefix = format!("{name}{{{labels}");
    for line in merged.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            // Exact-name match only: the remainder must open with `,`
            // (more labels) or `}` (end of the set).
            if !(rest.starts_with(',') || rest.starts_with('}')) {
                continue;
            }
            let value = line.rsplit(' ').next()?;
            return value.parse::<f64>().ok();
        }
    }
    None
}

/// The `(upper_bound_secs, cumulative_count)` rows of one labeled
/// histogram, in export order (`+Inf` last).
fn histogram_buckets(merged: &str, name: &str, labels: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{name}_bucket{{{labels},le=\"");
    let mut out = Vec::new();
    for line in merged.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((bound, value)) = rest.split_once("\"} ") else {
            continue;
        };
        let bound = if bound == "+Inf" {
            f64::INFINITY
        } else {
            match bound.parse::<f64>() {
                Ok(b) => b,
                Err(_) => continue,
            }
        };
        if let Ok(count) = value.trim().parse::<u64>() {
            out.push((bound, count));
        }
    }
    out
}

/// Nearest-rank quantile over cumulative Prometheus buckets: the upper
/// bound of the first bucket whose cumulative count reaches the rank.
/// `None` when the histogram is empty. The `+Inf` bound degrades to the
/// last finite bound (an answer of "infinity milliseconds" helps
/// nobody).
fn bucket_quantile(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut last_finite = 0.0;
    for (bound, cumulative) in buckets {
        if bound.is_finite() {
            last_finite = *bound;
        }
        if *cumulative >= rank {
            return Some(if bound.is_finite() {
                *bound
            } else {
                last_finite
            });
        }
    }
    Some(last_finite)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_text() -> &'static str {
        "# TYPE serve_requests_total counter\n\
         serve_requests_total 42\n\
         # TYPE serve_queue_depth gauge\n\
         serve_queue_depth 3\n\
         # TYPE serve_knn_seconds histogram\n\
         serve_knn_seconds_bucket{le=\"0.001\"} 10\n\
         serve_knn_seconds_bucket{le=\"0.01\"} 99\n\
         serve_knn_seconds_bucket{le=\"+Inf\"} 100\n\
         serve_knn_seconds_sum 0.5\n\
         serve_knn_seconds_count 100\n"
    }

    #[test]
    fn inject_labels_prefixes_every_sample_and_dedupes_types() {
        let mut out = String::new();
        let mut typed = BTreeSet::new();
        let ep: SocketAddr = "127.0.0.1:4411".parse().expect("addr");
        inject_labels(shard_text(), 0, &ep, &mut out, &mut typed);
        inject_labels(shard_text(), 1, &ep, &mut out, &mut typed);
        assert!(out.contains("serve_requests_total{shard=\"0\",endpoint=\"127.0.0.1:4411\"} 42"));
        assert!(out.contains(
            "serve_knn_seconds_bucket{shard=\"1\",endpoint=\"127.0.0.1:4411\",le=\"0.01\"} 99"
        ));
        assert_eq!(
            out.matches("# TYPE serve_requests_total counter").count(),
            1,
            "TYPE headers must be deduplicated across shards"
        );
    }

    #[test]
    fn parse_fleet_round_trips_injected_rows() {
        let mut out = String::from("# TYPE coord_requests_total counter\ncoord_requests_total 7\n");
        let mut typed = BTreeSet::new();
        let ep: SocketAddr = "127.0.0.1:4411".parse().expect("addr");
        inject_labels(shard_text(), 2, &ep, &mut out, &mut typed);
        let rows = parse_fleet(&out);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.shard, 2);
        assert_eq!(row.endpoint, "127.0.0.1:4411");
        assert_eq!(row.requests, 42);
        assert_eq!(row.queue_depth, Some(3.0));
        // p50 rank 50 falls in the le="0.01" bucket; p99 rank 99 too.
        assert_eq!(row.p50_ms, Some(10.0));
        assert_eq!(row.p99_ms, Some(10.0));
    }

    #[test]
    fn parse_fleet_of_unlabeled_export_is_empty() {
        assert!(parse_fleet(shard_text()).is_empty());
    }

    #[test]
    fn bucket_quantile_handles_empty_and_inf() {
        assert_eq!(bucket_quantile(&[], 0.5), None);
        assert_eq!(bucket_quantile(&[(0.1, 0), (f64::INFINITY, 0)], 0.5), None);
        // Everything landed past the last finite bound: degrade to it.
        let b = [(0.1, 0), (f64::INFINITY, 4)];
        assert_eq!(bucket_quantile(&b, 0.99), Some(0.1));
    }
}
