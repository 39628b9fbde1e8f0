//! Network query service for the EMD multistep pipeline.
//!
//! `earthmover-serve` turns the in-process [`QueryEngine`] into a small
//! production-shaped daemon (`emdd`) with the operational behaviours a
//! real service needs and a paper prototype never has:
//!
//! - a versioned, length-prefixed binary **wire protocol**
//!   ([`protocol`]) hardened against arbitrary network bytes;
//! - **admission control**: a bounded request queue; when it is full
//!   the request is shed with a typed `Overloaded` frame instead of
//!   queueing without bound ([`server`]);
//! - **deadline budgets**: each request carries a time budget that is
//!   threaded into the multistep pipeline, which returns a *typed
//!   partial* result (`DeadlineExceeded`) instead of overshooting;
//! - **graceful shutdown**: a `shutdown` frame or a signal (bridged by
//!   [`daemon`], the scaffolding both binaries share) drains in-flight
//!   work, flushes telemetry, and then exits;
//! - first-class **observability**: `serve_*` metrics (queue depth,
//!   shed counter, per-endpoint latency histograms) and spans, with a
//!   Prometheus text dump served over the `stats` request;
//! - **cluster mode**: an `emdd-coord` scatter-gather coordinator
//!   ([`coord`], [`coord_server`]) over hash-sharded `emdd` backends,
//!   with bounded retries and deterministic backoff ([`retry`]),
//!   replica failover and hedged requests ([`shard`]), per-endpoint
//!   circuit breakers ([`breaker`]), and a seeded fault-injection proxy
//!   ([`fault`]) that makes distributed-failure tests reproducible;
//! - a **fleet telemetry plane** ([`fleet`]): the coordinator scrapes
//!   every shard's metrics and exports one per-shard-labeled Prometheus
//!   view, while distributed trace contexts ride the wire protocol so
//!   client → coordinator → shard spans link into one trace tree.
//!
//! Everything is built on `std::net` — no third-party dependencies, in
//! keeping with the rest of the workspace. Every socket is a
//! [`conn::Conn`], whose connect, frame read and frame write each take a
//! `Deadline`.
//!
//! [`QueryEngine`]: earthmover_core::pipeline::QueryEngine

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod breaker;
pub mod client;
pub mod conn;
pub mod coord;
pub mod coord_server;
pub mod daemon;
pub mod fault;
pub mod fleet;
pub mod protocol;
pub mod retry;
mod runtime;
pub mod schema;
pub mod server;
pub mod shard;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{Client, ClientError, HealthInfo, Outcome};
pub use coord::{
    shard_of, ClusterConfig, ClusterShared, CoordError, Coordinator, GroupSpec, HedgeConfig,
    SHARD_UNAVAILABLE_NOTE,
};
pub use coord_server::{CoordServer, CoordServerConfig};
pub use fault::{FaultClass, FaultProxy, FaultProxyConfig, FaultSchedule};
pub use fleet::{parse_fleet, FleetRow, FleetTelemetry, ShardScrape};
pub use protocol::{Request, Response, WireError};
pub use retry::{splitmix64, RetryPolicy};
pub use server::{Server, ServerConfig, StopHandle};
