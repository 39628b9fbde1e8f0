//! `emdd-coord` — scatter-gather coordinator over sharded `emdd`
//! backends.
//!
//! ```sh
//! # Three shard groups, the second with a replica:
//! emdd-coord --shards "127.0.0.1:4411;127.0.0.1:4412,127.0.0.1:4422;127.0.0.1:4413" \
//!            --addr 127.0.0.1:4410 --workers 4
//!
//! # With retries, hedging, and a default deadline budget:
//! emdd-coord --shards "..." --retries 3 --hedge-ms 25 --default-deadline-ms 100
//! ```
//!
//! `--shards` is a `;`-separated list of shard groups in shard-map
//! order; each group is `primary[,replica]`. The shard databases must
//! have been produced by `emdtool shard-split` (hash placement) from
//! one corpus. The coordinator speaks the same wire protocol as `emdd`,
//! so any client (emdtool, loadgen) works unchanged against it.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use earthmover_serve::coord::{ClusterConfig, ClusterShared, GroupSpec, HedgeConfig};
use earthmover_serve::coord_server::{CoordServer, CoordServerConfig};
use earthmover_serve::daemon::{self, Flags};
use earthmover_serve::retry::RetryPolicy;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: emdd-coord --shards \"primary[,replica];...\" [--addr HOST:PORT]
  [--workers N] [--queue N] [--read-timeout-ms MS] [--io-timeout-ms MS]
  [--retries N] [--retry-base-ms MS] [--jitter-seed N] [--hedge-ms MS]
  [--no-hedge true] [--sub-budget F] [--default-deadline-ms MS]
  [--discover-timeout-ms MS] [--trace-json PATH] [--slow-query-ms MS]
  [--sample-every N] [--scrape-interval-ms MS]
  [--default-mode MODE]   retrieval tier for mode-less k-NN requests:
                          exact | sketch | approx:EPS
unknown flags are errors";

fn main() -> ExitCode {
    daemon::main(USAGE, serve)
}

/// Parses `primary[,replica];primary[,replica];...` into group specs.
fn parse_shards(spec: &str) -> Result<Vec<GroupSpec>, String> {
    let mut groups = Vec::new();
    for (i, group) in spec.split(';').enumerate() {
        let group = group.trim();
        if group.is_empty() {
            continue;
        }
        let mut endpoints = group.split(',').map(str::trim);
        let primary: SocketAddr = endpoints
            .next()
            .ok_or_else(|| format!("shard group {i} is empty"))?
            .parse()
            .map_err(|e| format!("shard group {i} primary: {e}"))?;
        let replica: Option<SocketAddr> = match endpoints.next() {
            None => None,
            Some(addr) => Some(
                addr.parse()
                    .map_err(|e| format!("shard group {i} replica: {e}"))?,
            ),
        };
        if endpoints.next().is_some() {
            return Err(format!(
                "shard group {i} lists more than two endpoints (primary,replica)"
            ));
        }
        groups.push(GroupSpec { primary, replica });
    }
    if groups.is_empty() {
        return Err("--shards names no shard groups".to_string());
    }
    Ok(groups)
}

fn serve(flags: &Flags) -> Result<(), String> {
    let shards = flags
        .get("shards")
        .ok_or_else(|| "missing required flag --shards".to_string())?;
    let groups = parse_shards(shards)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:4410");

    let default_deadline_ms: u64 = flags.num("default-deadline-ms", 0)?;
    let hedge_ms: u64 = flags.num("hedge-ms", 25)?;
    let no_hedge = flags.get("no-hedge") == Some("true");
    let mut cluster_cfg = ClusterConfig::new(groups);
    cluster_cfg.io_timeout = Duration::from_millis(flags.num("io-timeout-ms", 2_000)?);
    cluster_cfg.retry = RetryPolicy {
        max_retries: flags.num("retries", 3)?,
        base_backoff: Duration::from_millis(flags.num("retry-base-ms", 10)?),
        max_backoff: Duration::from_millis(500),
        jitter_seed: flags.num("jitter-seed", 0xC00D)?,
    };
    cluster_cfg.hedge = (!no_hedge).then(|| HedgeConfig {
        max_delay: Duration::from_millis(hedge_ms.max(1)),
        ..HedgeConfig::default()
    });
    cluster_cfg.sub_budget_fraction = flags.num("sub-budget", 0.8)?;
    cluster_cfg.default_deadline =
        (default_deadline_ms > 0).then(|| Duration::from_millis(default_deadline_ms));
    cluster_cfg.discover_timeout = Duration::from_millis(flags.num("discover-timeout-ms", 10_000)?);

    let subscriber = flags.subscriber()?;

    eprintln!(
        "emdd-coord: discovering {} shard group(s)...",
        cluster_cfg.groups.len()
    );
    let cluster = Arc::new(ClusterShared::discover(cluster_cfg).map_err(|e| e.to_string())?);
    let topo = cluster.topology();
    eprintln!(
        "emdd-coord: cluster holds {} histograms ({} bins) across {} shard group(s)",
        topo.total,
        topo.dims,
        topo.shard_sizes.len()
    );

    // Tracing / fleet-telemetry knobs: `--slow-query-ms 0` logs every
    // query (the threshold is "at least this slow"); the flag absent
    // disables the slow-query log entirely.
    let slow_query = match flags.get("slow-query-ms") {
        None => None,
        Some(_) => Some(Duration::from_millis(flags.num("slow-query-ms", 0)?)),
    };
    let scrape_interval_ms: u64 = flags.num("scrape-interval-ms", 2_000)?;
    let cfg = CoordServerConfig {
        workers: flags.num("workers", 4)?,
        queue_depth: flags.num("queue", 64)?,
        read_timeout: Duration::from_millis(flags.num("read-timeout-ms", 30_000)?),
        slow_query,
        trace_sample_every: flags.num("sample-every", 0)?,
        fleet_scrape_interval: (scrape_interval_ms > 0)
            .then(|| Duration::from_millis(scrape_interval_ms)),
        default_mode: flags.default_mode()?,
        ..CoordServerConfig::default()
    };
    let server = CoordServer::bind(addr, cfg, cluster).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("emdd-coord: serving on {local}");
    daemon::watch_signals("emdd-coord", server.stop_handle());
    server.run(subscriber).map_err(|e| e.to_string())?;
    eprintln!("emdd-coord: drained, bye");
    Ok(())
}
