//! Scatter-gather coordinator over a sharded `emdd` cluster.
//!
//! The database is split across N **shard groups** (primary plus
//! optional replica, see [`crate::shard`]) by hashing each global object
//! id with [`shard_of`]. A [`Coordinator`] fans a k-NN or range query
//! out to every group concurrently, hands each leg a deadline
//! **sub-budget** (a fraction of the request budget, keeping a reserve
//! for the merge), and folds the per-shard partials into one
//! [`Outcome`]:
//!
//! - k-NN asks every shard for the full `k` (any shard could hold all
//!   `k` true neighbours) and keeps the best `k` of the union — exactly
//!   the multistep k-NN bound argument applied across shards;
//! - range concatenates and re-sorts;
//! - per-shard [`QueryStats`] are merged (sums, maxes, deduplicated
//!   degradation notes), with `db_size` rewritten to the cluster total
//!   so selectivity stays meaningful;
//! - an unreachable shard group never fails the query: the merged
//!   outcome downgrades to [`Outcome::Partial`] and carries a
//!   [`SHARD_UNAVAILABLE_NOTE`]-prefixed degradation note naming the
//!   group and the cause.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::client::{Client, ClientError, HealthInfo, Outcome};
use crate::protocol;
use crate::retry::{splitmix64, RetryPolicy};
use crate::shard::{GroupReply, LatencyTracker, ShardEndpoint, ShardGroup};
use earthmover_core::stats::{QueryStats, ShardProvenance};
use earthmover_core::{Deadline, Histogram, QueryPlan, RetrievalMode};
use earthmover_obs::{self as obs, names, MetricsRegistry};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prefix of the degradation note recorded when a shard group could not
/// be reached; the full note is
/// `"SHARD_UNAVAILABLE: shard group <i> (<cause>)"`.
pub const SHARD_UNAVAILABLE_NOTE: &str = "SHARD_UNAVAILABLE";

/// Stage name under which the coordinator accounts its own scatter +
/// merge wall-clock in the merged [`QueryStats`].
pub const COORD_STAGE: &str = "coord_scatter";

/// Maps a global object id to its shard group by hashing — splitmix64
/// keeps placement stable, uniform, and independent of insertion order.
/// `shards` must be nonzero.
pub fn shard_of(global_id: u64, shards: usize) -> usize {
    let n = shards.max(1) as u64;
    (splitmix64(global_id) % n) as usize
}

/// One shard group's endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// The primary `emdd` endpoint.
    pub primary: SocketAddr,
    /// Optional replica serving the same shard.
    pub replica: Option<SocketAddr>,
}

/// Hedging tunables. A hedge fires when the primary has been silent for
/// `clamp(p99 * p99_factor, min_delay, max_delay)`, where p99 is taken
/// from the group's recent-latency window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Floor for the hedge delay (protects against a cold/noisy p99).
    pub min_delay: Duration,
    /// Ceiling for the hedge delay; also used before any latency
    /// samples exist.
    pub max_delay: Duration,
    /// Multiplier on the observed p99.
    pub p99_factor: f64,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            min_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            p99_factor: 1.5,
        }
    }
}

/// Cluster topology and resilience tunables for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shard groups, in shard-map order. `shard_of(id, groups.len())`
    /// decides placement.
    pub groups: Vec<GroupSpec>,
    /// Socket timeout for shard connects, reads, and writes.
    pub io_timeout: Duration,
    /// Retry policy for each shard endpoint.
    pub retry: RetryPolicy,
    /// Circuit-breaker tunables (one breaker per endpoint, shared by
    /// all coordinator workers).
    pub breaker: BreakerConfig,
    /// Hedged-request tunables; `None` disables hedging (failover still
    /// applies).
    pub hedge: Option<HedgeConfig>,
    /// Fraction of the request budget each shard leg receives; the
    /// remainder is the coordinator's merge reserve.
    pub sub_budget_fraction: f64,
    /// Budget applied when a request carries `deadline_us == 0`;
    /// `None` means unbounded.
    pub default_deadline: Option<Duration>,
    /// How long discovery keeps re-probing unreachable groups before
    /// giving up.
    pub discover_timeout: Duration,
}

impl ClusterConfig {
    /// A config with production-shaped defaults for the given groups.
    pub fn new(groups: Vec<GroupSpec>) -> ClusterConfig {
        ClusterConfig {
            groups,
            io_timeout: Duration::from_secs(2),
            retry: RetryPolicy::standard(0xC00D),
            breaker: BreakerConfig::default(),
            hedge: Some(HedgeConfig::default()),
            sub_budget_fraction: 0.8,
            default_deadline: None,
            discover_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a coordinator could not be built or a query could not run.
#[derive(Debug)]
pub enum CoordError {
    /// The cluster config is unusable (no groups, bad fraction…).
    Config(String),
    /// Discovery could not reach every shard group in time, or the
    /// groups disagree on dimensionality.
    Discover(String),
    /// Observed shard sizes contradict the hash placement — the shards
    /// were not produced by [`shard_of`] over one corpus.
    Topology(String),
    /// The query itself is invalid against the discovered topology.
    BadQuery(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Config(m) => write!(f, "bad cluster config: {m}"),
            CoordError::Discover(m) => write!(f, "cluster discovery failed: {m}"),
            CoordError::Topology(m) => write!(f, "cluster topology mismatch: {m}"),
            CoordError::BadQuery(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// The discovered cluster shape.
#[derive(Debug)]
pub struct Topology {
    /// Histogram dimensionality every shard agreed on.
    pub dims: u32,
    /// Total objects across all shards.
    pub total: u64,
    /// Objects per shard group, in shard-map order.
    pub shard_sizes: Vec<u64>,
    /// `id_maps[group][local_id] = global_id`, reconstructed from the
    /// hash placement.
    id_maps: Vec<Vec<u64>>,
}

impl Topology {
    /// Translates a shard-local id back to the global id space.
    pub fn global_id(&self, group: usize, local_id: u64) -> Option<u64> {
        self.id_maps
            .get(group)
            .and_then(|m| m.get(usize::try_from(local_id).ok()?))
            .copied()
    }
}

/// State shared by every coordinator worker: config, topology, breakers
/// (endpoint health is global), latency windows (hedge delays learn
/// from all workers), and the metrics registry.
#[derive(Debug)]
pub struct ClusterShared {
    cfg: ClusterConfig,
    topology: Topology,
    registry: Arc<MetricsRegistry>,
    /// `(primary, replica)` breaker per group.
    breakers: Vec<(Arc<CircuitBreaker>, Option<Arc<CircuitBreaker>>)>,
    latency: Vec<Arc<LatencyTracker>>,
    started: Instant,
}

impl ClusterShared {
    /// Probes every shard group, validates the topology, and builds the
    /// shared cluster state. Discovery requires **every** group to be
    /// reachable (primary or replica) — a coordinator that starts
    /// against a hole in the shard map would silently serve a subset
    /// forever.
    pub fn discover(cfg: ClusterConfig) -> Result<ClusterShared, CoordError> {
        if cfg.groups.is_empty() {
            return Err(CoordError::Config("no shard groups".to_string()));
        }
        if !cfg.sub_budget_fraction.is_finite()
            || cfg.sub_budget_fraction <= 0.0
            || cfg.sub_budget_fraction > 1.0
        {
            return Err(CoordError::Config(format!(
                "sub_budget_fraction must be in (0, 1], got {}",
                cfg.sub_budget_fraction
            )));
        }
        let give_up = Instant::now() + cfg.discover_timeout;
        let mut infos: Vec<Option<HealthInfo>> = vec![None; cfg.groups.len()];
        let mut last_err = String::new();
        loop {
            for (i, spec) in cfg.groups.iter().enumerate() {
                let slot = match infos.get_mut(i) {
                    Some(slot) if slot.is_none() => slot,
                    _ => continue,
                };
                match probe_group(spec, cfg.io_timeout) {
                    Ok(info) => *slot = Some(info),
                    Err(e) => last_err = format!("shard group {i}: {e}"),
                }
            }
            if infos.iter().all(Option::is_some) {
                break;
            }
            if Instant::now() >= give_up {
                return Err(CoordError::Discover(format!(
                    "not all shard groups reachable within {:?} ({last_err})",
                    cfg.discover_timeout
                )));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let infos: Vec<HealthInfo> = infos.into_iter().flatten().collect();
        let dims = infos.first().map(|i| i.dims).unwrap_or(0);
        if let Some((i, info)) = infos.iter().enumerate().find(|(_, inf)| inf.dims != dims) {
            return Err(CoordError::Discover(format!(
                "dimensionality disagreement: group 0 serves {dims} dims, group {i} serves {}",
                info.dims
            )));
        }
        let shard_sizes: Vec<u64> = infos.iter().map(|i| i.db_size).collect();
        let total: u64 = shard_sizes.iter().sum();
        let id_maps = build_id_maps(total, cfg.groups.len());
        for (i, map) in id_maps.iter().enumerate() {
            let observed = shard_sizes.get(i).copied().unwrap_or(0);
            if map.len() as u64 != observed {
                return Err(CoordError::Topology(format!(
                    "group {i}: hash placement predicts {} objects, shard reports {observed} — \
                     shards were not split with shard_of over one corpus",
                    map.len()
                )));
            }
        }
        let breakers = cfg
            .groups
            .iter()
            .map(|spec| {
                (
                    Arc::new(CircuitBreaker::new(cfg.breaker)),
                    spec.replica
                        .map(|_| Arc::new(CircuitBreaker::new(cfg.breaker))),
                )
            })
            .collect();
        let latency = cfg
            .groups
            .iter()
            .map(|_| Arc::new(LatencyTracker::new()))
            .collect();
        Ok(ClusterShared {
            cfg,
            topology: Topology {
                dims,
                total,
                shard_sizes,
                id_maps,
            },
            registry: Arc::new(MetricsRegistry::new()),
            breakers,
            latency,
            started: Instant::now(),
        })
    }

    /// The discovered topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cluster-wide metrics registry (coordinator + shard-call
    /// counters).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The cluster config.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Milliseconds since discovery completed.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The hedge delay for one group right now: p99 of its recent
    /// latencies times the configured factor, clamped; `None` when
    /// hedging is disabled.
    fn hedge_after(&self, group: usize) -> Option<Duration> {
        let hedge = self.cfg.hedge?;
        let p99 = self
            .latency
            .get(group)
            .and_then(|t| t.quantile(0.99))
            .unwrap_or(hedge.max_delay);
        let factor = if hedge.p99_factor.is_finite() && hedge.p99_factor > 0.0 {
            hedge.p99_factor
        } else {
            1.0
        };
        Some(p99.mul_f64(factor).clamp(hedge.min_delay, hedge.max_delay))
    }
}

/// Reconstructs each shard's local→global id map by replaying the hash
/// placement over `0..total` in ascending order — the same order
/// `shard-split` feeds objects to each shard, so local ids (dense,
/// insertion-ordered) line up.
fn build_id_maps(total: u64, shards: usize) -> Vec<Vec<u64>> {
    let mut maps: Vec<Vec<u64>> = vec![Vec::new(); shards.max(1)];
    for global in 0..total {
        if let Some(map) = maps.get_mut(shard_of(global, shards)) {
            map.push(global);
        }
    }
    maps
}

fn probe_group(spec: &GroupSpec, io_timeout: Duration) -> Result<HealthInfo, ClientError> {
    let primary = Client::connect(spec.primary, io_timeout).and_then(|mut c| c.health());
    match primary {
        Ok(info) => Ok(info),
        Err(primary_err) => match spec.replica {
            Some(replica) => Client::connect(replica, io_timeout).and_then(|mut c| c.health()),
            None => Err(primary_err),
        },
    }
}

/// A scatter-gather front end over one discovered cluster.
///
/// Holds its own (non-shared) shard connections; build one per worker
/// thread from the same [`ClusterShared`].
#[derive(Debug)]
pub struct Coordinator {
    shared: Arc<ClusterShared>,
    groups: Vec<ShardGroup>,
    salt_counter: u64,
}

impl Coordinator {
    /// A worker-local coordinator over shared cluster state.
    pub fn new(shared: Arc<ClusterShared>) -> Coordinator {
        let registry = Arc::clone(&shared.registry);
        let groups = shared
            .cfg
            .groups
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (primary_breaker, replica_breaker) =
                    shared.breakers.get(i).cloned().unwrap_or_else(|| {
                        (Arc::new(CircuitBreaker::new(shared.cfg.breaker)), None)
                    });
                let primary = ShardEndpoint::new(
                    spec.primary,
                    shared.cfg.io_timeout,
                    shared.cfg.retry.clone(),
                    primary_breaker,
                    Arc::clone(&registry),
                );
                let replica = spec.replica.map(|addr| {
                    ShardEndpoint::new(
                        addr,
                        shared.cfg.io_timeout,
                        shared.cfg.retry.clone(),
                        replica_breaker
                            .unwrap_or_else(|| Arc::new(CircuitBreaker::new(shared.cfg.breaker))),
                        Arc::clone(&registry),
                    )
                });
                ShardGroup::new(i, primary, replica, Arc::clone(&registry))
            })
            .collect();
        Coordinator {
            shared,
            groups,
            salt_counter: 0,
        }
    }

    /// Discovers the cluster and builds a single-worker coordinator in
    /// one step.
    pub fn connect(cfg: ClusterConfig) -> Result<Coordinator, CoordError> {
        Ok(Coordinator::new(Arc::new(ClusterShared::discover(cfg)?)))
    }

    /// The shared cluster state (for building sibling workers).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// Runs `plan` across the cluster. k-NN keeps the best `k` of the
    /// union of per-shard top-k answers; its mode is forwarded to every
    /// shard leg, and the merged stats carry the tier each shard answered
    /// with (first shard's entry wins the merge — all partials of one
    /// query run the same mode). Range returns the union of per-shard
    /// answers, re-sorted. `deadline_us == 0` applies the configured
    /// default.
    pub fn query(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline_us: u64,
    ) -> Result<Outcome, CoordError> {
        self.query_arrived(histogram, plan, deadline_us, Instant::now())
    }

    /// [`Coordinator::query`] for a request whose frame arrived at
    /// `arrived`: its budget counts from then.
    pub(crate) fn query_arrived(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline_us: u64,
        arrived: Instant,
    ) -> Result<Outcome, CoordError> {
        let _span = obs::span!(names::COORD_REQUEST);
        let registry = &self.shared.registry;
        match plan {
            QueryPlan::Knn { mode, .. } => {
                registry.counter(&names::COORD_KNN_TOTAL).inc(1);
                if mode == Some(RetrievalMode::SketchOnly) {
                    registry.counter(&names::SKETCH_QUERIES_TOTAL).inc(1);
                }
            }
            QueryPlan::Range { .. } => registry.counter(&names::COORD_RANGE_TOTAL).inc(1),
        }
        let dims = self.shared.topology.dims as usize;
        if histogram.len() != dims {
            return Err(CoordError::BadQuery(format!(
                "query histogram has {} bins, cluster serves {dims}",
                histogram.len()
            )));
        }
        let deadline =
            protocol::deadline_from_wire(deadline_us, self.shared.cfg.default_deadline, arrived);
        Ok(self.scatter_gather(histogram, plan, deadline))
    }

    /// Aggregated cluster health from the coordinator's view: total
    /// corpus size, agreed dims, coordinator uptime.
    pub fn health(&self) -> HealthInfo {
        HealthInfo {
            draining: false,
            db_size: self.shared.topology.total,
            dims: self.shared.topology.dims,
            uptime_ms: self.shared.uptime_ms(),
        }
    }

    /// Fans the query out to every shard group concurrently and merges
    /// the replies. Never fails: unreachable groups degrade the merged
    /// outcome to a typed partial.
    fn scatter_gather(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline: Deadline,
    ) -> Outcome {
        let started = Instant::now();
        let shard_deadline = deadline.sub_budget(self.shared.cfg.sub_budget_fraction);
        self.salt_counter = self.salt_counter.wrapping_add(1);
        let salt = splitmix64(self.salt_counter);
        let shared = Arc::clone(&self.shared);
        let hedges: Vec<Option<Duration>> = (0..self.groups.len())
            .map(|i| shared.hedge_after(i))
            .collect();

        let mut replies: Vec<Option<GroupReply>> = Vec::new();
        replies.resize_with(self.groups.len(), || None);
        // Scoped threads start with empty observability thread-locals:
        // hand each fan-out leg the caller's subscriber and trace
        // context so its shard_call span (and the client call beneath
        // it) link into the request's trace tree.
        let telemetry = obs::Propagation::capture();
        std::thread::scope(|scope| {
            for ((slot, group), hedge_after) in replies
                .iter_mut()
                .zip(self.groups.iter_mut())
                .zip(hedges.iter().copied())
            {
                let leg_telemetry = telemetry.clone();
                scope.spawn(move || {
                    let _scope = leg_telemetry.install();
                    let _span = obs::span!(names::SHARD_CALL, group = group.index() as u32);
                    *slot = Some(group.call(histogram, plan, shard_deadline, hedge_after, salt));
                });
            }
        });

        let mut stats = QueryStats::default();
        let mut items: Vec<(u64, f64)> = Vec::new();
        let mut degraded = false;
        for (i, reply) in replies.into_iter().enumerate() {
            match reply {
                Some(GroupReply::Answered {
                    outcome,
                    from_replica,
                    latency,
                    endpoint,
                    retries,
                    hedge_fired,
                }) => {
                    if let Some(tracker) = shared.latency.get(i) {
                        tracker.record(latency);
                    }
                    // Per-group straggler attribution: a dynamic
                    // histogram family, one series per shard group.
                    shared
                        .registry
                        .histogram(&format!("coord_group_{i}_latency_seconds"))
                        .observe(latency);
                    let (shard_items, shard_stats, partial) = match *outcome {
                        Outcome::Complete { items, stats } => (items, stats, false),
                        Outcome::Partial { items, stats } => (items, stats, true),
                        // ShardEndpoint::call never returns Overloaded
                        // (it retries and exhausts instead), but the
                        // merge stays total just in case.
                        Outcome::Overloaded { stats, .. } => (Vec::new(), stats, true),
                    };
                    degraded |= partial;
                    stats.merge(&shard_stats);
                    stats.provenance.push(ShardProvenance {
                        shard: i as u32,
                        endpoint: endpoint.to_string(),
                        from_replica,
                        retries,
                        hedge_fired,
                        latency,
                        stats: shard_stats,
                    });
                    for (local_id, dist) in shard_items {
                        match shared.topology.global_id(i, local_id) {
                            Some(global) => items.push((global, dist)),
                            None => {
                                degraded = true;
                                stats.record_degradation_once(&format!(
                                    "shard group {i} returned unknown local id {local_id}"
                                ));
                            }
                        }
                    }
                }
                other => {
                    degraded = true;
                    let reason = match other {
                        Some(GroupReply::Unavailable { reason }) if !reason.is_empty() => reason,
                        _ => "no reply".to_string(),
                    };
                    shared
                        .registry
                        .counter(&names::COORD_SHARD_UNAVAILABLE_TOTAL)
                        .inc(1);
                    obs::event!(names::COORD_SHARD_UNAVAILABLE);
                    stats.record_degradation_once(&format!(
                        "{SHARD_UNAVAILABLE_NOTE}: shard group {i} ({reason})"
                    ));
                }
            }
        }
        items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        if let QueryPlan::Knn { k, .. } = plan {
            items.truncate(k);
        }
        stats.db_size = usize::try_from(shared.topology.total).unwrap_or(usize::MAX);
        stats.results = items.len() as u64;
        stats.add_stage_elapsed(COORD_STAGE, started.elapsed());
        if degraded || stats.deadline_expired {
            self.shared
                .registry
                .counter(&names::COORD_PARTIAL_TOTAL)
                .inc(1);
            Outcome::Partial { items, stats }
        } else {
            Outcome::Complete { items, stats }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for id in 0..1000u64 {
            let s = shard_of(id, 3);
            assert!(s < 3);
            assert_eq!(s, shard_of(id, 3), "placement must be deterministic");
        }
        // Pinned placements: changing the hash silently re-shards every
        // deployed database.
        assert_eq!(shard_of(0, 3), (splitmix64(0) % 3) as usize);
        assert_eq!(shard_of(1, 4), (splitmix64(1) % 4) as usize);
    }

    #[test]
    fn shard_of_spreads_reasonably() {
        let mut counts = [0usize; 4];
        for id in 0..10_000u64 {
            if let Some(c) = counts.get_mut(shard_of(id, 4)) {
                *c += 1;
            }
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (2_000..=3_000).contains(c),
                "shard {i} got {c} of 10000 — placement is badly skewed"
            );
        }
    }

    #[test]
    fn id_maps_partition_the_global_space() {
        let maps = build_id_maps(1000, 3);
        let mut seen = vec![false; 1000];
        for (g, map) in maps.iter().enumerate() {
            // Local ids are dense and ascending in global order.
            let mut prev = None;
            for (local, global) in map.iter().enumerate() {
                assert_eq!(shard_of(*global, 3), g);
                if let Some(p) = prev {
                    assert!(*global > p, "map must ascend");
                }
                prev = Some(*global);
                let slot = seen.get_mut(usize::try_from(*global).unwrap_or(usize::MAX));
                let slot = slot.expect("global id in range");
                assert!(!*slot, "global id {global} appears twice (local {local})");
                *slot = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "every global id is placed");
    }

    #[test]
    fn discover_rejects_empty_and_bad_fraction() {
        let err = ClusterShared::discover(ClusterConfig::new(Vec::new()));
        assert!(matches!(err, Err(CoordError::Config(_))));
        let mut cfg = ClusterConfig::new(vec![GroupSpec {
            primary: "127.0.0.1:1".parse().expect("addr"),
            replica: None,
        }]);
        cfg.sub_budget_fraction = 0.0;
        assert!(matches!(
            ClusterShared::discover(cfg),
            Err(CoordError::Config(_))
        ));
    }
}
