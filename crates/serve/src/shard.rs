//! Resilient connections to one shard group: bounded retries with
//! deterministic backoff, automatic reconnect, replica failover, and
//! hedged duplicate requests.
//!
//! A [`ShardEndpoint`] wraps one `emdd` endpoint behind a shared
//! [`CircuitBreaker`] and a [`RetryPolicy`]: wire failures reconnect and
//! retry with jittered backoff, typed server errors fail fast (the
//! endpoint is alive — retrying cannot help), and a tripped breaker
//! rejects without touching the network. A [`ShardGroup`] pairs a
//! primary endpoint with an optional replica and adds the two
//! availability moves on top: **failover** (the primary failed — run the
//! replica instead) and **hedging** (the primary is *slow* — race a
//! duplicate request against the replica after a latency-derived delay
//! and take whichever answers first).

use crate::breaker::{Admission, CircuitBreaker};
use crate::client::{Client, ClientError, Outcome};
use crate::protocol;
use crate::retry::RetryPolicy;
use earthmover_core::deadline::Deadline;
use earthmover_core::{Histogram, QueryPlan};
use earthmover_obs::{self as obs, names, MetricsRegistry};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a call through a [`ShardEndpoint`] did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallFailure {
    /// The endpoint's circuit breaker is open; no I/O was attempted.
    BreakerOpen,
    /// Every allowed attempt failed (or the deadline ran out between
    /// attempts); carries the last failure's description.
    Exhausted(String),
    /// The endpoint answered with a non-retryable error (bad request,
    /// internal failure): retrying cannot help.
    Fatal(String),
}

impl std::fmt::Display for CallFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallFailure::BreakerOpen => write!(f, "circuit breaker open"),
            CallFailure::Exhausted(why) => write!(f, "retries exhausted: {why}"),
            CallFailure::Fatal(why) => write!(f, "fatal: {why}"),
        }
    }
}

/// A resilient client for one `emdd` endpoint.
///
/// Owns (at most) one keep-alive [`Client`] connection, reconnecting
/// lazily after wire failures. Not `Sync`: each coordinator worker holds
/// its own `ShardEndpoint`s; only the breaker (endpoint health) is
/// shared between workers.
#[derive(Debug)]
pub struct ShardEndpoint {
    addr: SocketAddr,
    io_timeout: Duration,
    retry: RetryPolicy,
    breaker: Arc<CircuitBreaker>,
    registry: Arc<MetricsRegistry>,
    client: Option<Client>,
}

impl ShardEndpoint {
    /// A lazily-connecting endpoint. No I/O happens until the first
    /// call.
    pub fn new(
        addr: SocketAddr,
        io_timeout: Duration,
        retry: RetryPolicy,
        breaker: Arc<CircuitBreaker>,
        registry: Arc<MetricsRegistry>,
    ) -> ShardEndpoint {
        ShardEndpoint {
            addr,
            io_timeout,
            retry,
            breaker,
            registry,
            client: None,
        }
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One attempt: connect if needed, issue the query, classify.
    fn attempt(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline: Deadline,
    ) -> Result<Outcome, ClientError> {
        // One socket budget for the dial, the write and the read, trimmed
        // to the remaining deadline so a stalled shard costs roughly the
        // deadline, not the full idle I/O timeout. The 5 ms floor lets an
        // expired leg still fetch the shard's typed partial.
        let socket = Deadline::within(match deadline.remaining() {
            Some(rem) => self
                .io_timeout
                .min(rem + Duration::from_millis(10))
                .max(Duration::from_millis(5)),
            None => self.io_timeout,
        });
        let client = match &mut self.client {
            Some(client) => client,
            empty => empty.insert(Client::connect_within(self.addr, self.io_timeout, socket)?),
        };
        client.query_within(
            histogram,
            plan,
            protocol::deadline_to_wire(deadline),
            socket,
        )
    }

    /// Calls the endpoint with retry, reconnect, backoff, and the
    /// breaker gate. Returns the shard's answer (complete or typed
    /// partial) plus the successful attempt's latency and how many
    /// retries were burned before it (0 = first attempt won).
    ///
    /// `salt` decorrelates the jitter streams of concurrent callers
    /// (pass the request id or shard index).
    pub fn call(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline: Deadline,
        salt: u64,
    ) -> Result<(Outcome, Duration, u32), CallFailure> {
        let mut last_failure = String::new();
        for attempt in 0..=self.retry.max_retries {
            if attempt > 0 && deadline.expired() {
                last_failure = "deadline expired between retries".to_string();
                break;
            }
            match self.breaker.try_acquire() {
                Admission::Rejected => {
                    self.registry
                        .counter(&names::SHARD_BREAKER_REJECTIONS_TOTAL)
                        .inc(1);
                    return Err(CallFailure::BreakerOpen);
                }
                Admission::Allowed | Admission::Probe => {}
            }
            self.registry.counter(&names::SHARD_CALLS_TOTAL).inc(1);
            let started = Instant::now();
            match self.attempt(histogram, plan, deadline) {
                Ok(Outcome::Overloaded { .. }) => {
                    // The shard's admission control shed us: it is alive
                    // (no breaker failure) but retrying immediately would
                    // make the overload worse — back off, on the same
                    // connection.
                    self.breaker.record_success();
                    last_failure = "shard shed the request (overloaded)".to_string();
                }
                Ok(outcome) => {
                    self.breaker.record_success();
                    return Ok((outcome, started.elapsed(), attempt));
                }
                Err(ClientError::Server { code, message }) => {
                    // A structured error frame proves the endpoint is
                    // healthy; the request itself is the problem.
                    self.breaker.record_success();
                    return Err(CallFailure::Fatal(format!("{code:?}: {message}")));
                }
                Err(err) => {
                    // Wire failures, id mismatches, unexpected frames:
                    // the connection is no longer trustworthy.
                    last_failure = err.to_string();
                    self.client = None;
                    if self.breaker.record_failure() {
                        self.registry
                            .counter(&names::SHARD_BREAKER_OPEN_TOTAL)
                            .inc(1);
                    }
                }
            }
            if attempt < self.retry.max_retries {
                self.registry.counter(&names::SHARD_RETRIES_TOTAL).inc(1);
                obs::event!(names::SHARD_RETRY);
                let mut sleep = self.retry.backoff(attempt, salt);
                if let Some(rem) = deadline.remaining() {
                    sleep = sleep.min(rem);
                }
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
        }
        Err(CallFailure::Exhausted(if last_failure.is_empty() {
            "no attempt ran".to_string()
        } else {
            last_failure
        }))
    }
}

/// Sliding window of recent shard latencies; feeds the hedging delay.
#[derive(Debug, Default)]
pub struct LatencyTracker {
    samples: Mutex<Vec<Duration>>,
}

/// Window size: enough for a stable tail estimate, small enough that a
/// recovering shard sheds its bad history quickly.
const LATENCY_WINDOW: usize = 256;

impl LatencyTracker {
    /// An empty tracker.
    pub fn new() -> LatencyTracker {
        LatencyTracker::default()
    }

    /// Records one observed call latency.
    pub fn record(&self, d: Duration) {
        let mut g = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if g.len() >= LATENCY_WINDOW {
            g.remove(0);
        }
        g.push(d);
    }

    /// Nearest-rank quantile over the window; `None` with no samples.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let g = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if g.is_empty() {
            return None;
        }
        let mut sorted: Vec<Duration> = g.clone();
        drop(g);
        sorted.sort_unstable();
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted.get(idx).copied()
    }
}

/// What a [`ShardGroup`] produced for one fan-out leg.
#[derive(Debug)]
pub enum GroupReply {
    /// Some endpoint of the group answered.
    Answered {
        /// The shard's outcome (complete or typed partial).
        outcome: Box<Outcome>,
        /// True when the replica produced the winning answer.
        from_replica: bool,
        /// Latency of the winning call (feeds the hedge delay).
        latency: Duration,
        /// Address of the endpoint that produced the winning answer.
        endpoint: SocketAddr,
        /// Retries burned by the winning endpoint before it answered.
        retries: u32,
        /// True when a hedged duplicate was dispatched for this leg
        /// (regardless of which side ultimately won).
        hedge_fired: bool,
    },
    /// Neither the primary nor the replica could answer.
    Unavailable {
        /// Human-readable causes, primary first.
        reason: String,
    },
}

/// A primary endpoint plus an optional replica, with failover and
/// hedging across the pair.
#[derive(Debug)]
pub struct ShardGroup {
    index: usize,
    primary: ShardEndpoint,
    replica: Option<ShardEndpoint>,
    registry: Arc<MetricsRegistry>,
}

impl ShardGroup {
    /// Builds the group. `index` is the shard-map position (used for
    /// jitter salts and log context).
    pub fn new(
        index: usize,
        primary: ShardEndpoint,
        replica: Option<ShardEndpoint>,
        registry: Arc<MetricsRegistry>,
    ) -> ShardGroup {
        ShardGroup {
            index,
            primary,
            replica,
            registry,
        }
    }

    /// The group's shard-map position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Runs one fan-out leg: primary with retries, failover to the
    /// replica when the primary fails, and — when `hedge_after` is set
    /// and a replica exists — a hedged duplicate dispatched once the
    /// primary has been silent that long.
    pub fn call(
        &mut self,
        histogram: &Histogram,
        plan: QueryPlan,
        deadline: Deadline,
        hedge_after: Option<Duration>,
        salt: u64,
    ) -> GroupReply {
        let salt = salt ^ (self.index as u64).wrapping_mul(0x9E37);
        if let (Some(replica), Some(hedge_after)) = (&mut self.replica, hedge_after) {
            return hedged_call(
                &mut self.primary,
                replica,
                &self.registry,
                histogram,
                plan,
                deadline,
                hedge_after,
                salt,
            );
        }
        let primary_failure = match self.primary.call(histogram, plan, deadline, salt) {
            Ok(answer) => return answered(answer, false, self.primary.addr),
            Err(e) => format!("primary {}: {e}", self.primary.addr),
        };
        let Some(replica) = &mut self.replica else {
            return GroupReply::Unavailable {
                reason: primary_failure,
            };
        };
        // Sequential failover, no hedging.
        self.registry.counter(&names::SHARD_FAILOVERS_TOTAL).inc(1);
        obs::event!(names::SHARD_FAILOVER);
        match replica.call(histogram, plan, deadline, salt ^ 1) {
            Ok(answer) => answered(answer, true, replica.addr),
            Err(e) => GroupReply::Unavailable {
                reason: format!("{primary_failure}; replica {}: {e}", replica.addr),
            },
        }
    }
}

/// An unhedged call's answer as the group's reply.
fn answered(
    (outcome, latency, retries): (Outcome, Duration, u32),
    from_replica: bool,
    endpoint: SocketAddr,
) -> GroupReply {
    GroupReply::Answered {
        outcome: Box::new(outcome),
        from_replica,
        latency,
        endpoint,
        retries,
        hedge_fired: false,
    }
}

/// Races the primary against a delayed replica duplicate; first answer
/// wins. A fast primary *failure* dispatches the replica immediately
/// (that is failover, not a hedge).
#[expect(
    clippy::too_many_arguments,
    reason = "the two endpoints, the query and the hedge timing are all per call"
)]
fn hedged_call(
    primary: &mut ShardEndpoint,
    replica: &mut ShardEndpoint,
    registry: &Arc<MetricsRegistry>,
    histogram: &Histogram,
    plan: QueryPlan,
    deadline: Deadline,
    hedge_after: Duration,
    salt: u64,
) -> GroupReply {
    type LegResult = (bool, Result<(Outcome, Duration, u32), CallFailure>);
    let primary_addr = primary.addr;
    let replica_addr = replica.addr;
    // Scoped threads start with an empty observability thread-local:
    // capture this thread's subscriber + trace context and re-install
    // them in each leg so retry/hedge events and spans stay linked.
    let telemetry = obs::Propagation::capture();
    let (tx, rx) = mpsc::channel::<LegResult>();
    let reply = std::thread::scope(|scope| {
        let tx_primary = tx.clone();
        let mut tx_replica = Some(tx);
        let primary_telemetry = telemetry.clone();
        scope.spawn(move || {
            let _scope = primary_telemetry.install();
            let r = primary.call(histogram, plan, deadline, salt);
            let _ = tx_primary.send((false, r));
        });
        let mut replica_slot = Some(replica);
        let mut failures: Vec<String> = Vec::new();
        let mut outstanding = 1u32;
        let mut hedge_fired = false;
        loop {
            // Until the replica is dispatched we wait exactly the hedge
            // delay; afterwards senders dropping ends the loop, so a
            // plain blocking recv cannot hang.
            let next = if replica_slot.is_some() {
                rx.recv_timeout(hedge_after).map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => None,
                    mpsc::RecvTimeoutError::Disconnected => Some(()),
                })
            } else {
                rx.recv().map_err(|_| Some(()))
            };
            match next {
                Ok((from_replica, Ok((outcome, latency, retries)))) => {
                    break GroupReply::Answered {
                        outcome: Box::new(outcome),
                        from_replica,
                        latency,
                        endpoint: if from_replica {
                            replica_addr
                        } else {
                            primary_addr
                        },
                        retries,
                        hedge_fired,
                    };
                }
                Ok((from_replica, Err(e))) => {
                    outstanding = outstanding.saturating_sub(1);
                    let addr = if from_replica {
                        replica_addr
                    } else {
                        primary_addr
                    };
                    let role = if from_replica { "replica" } else { "primary" };
                    failures.push(format!("{role} {addr}: {e}"));
                    if replica_slot.is_some() {
                        // Primary failed before the hedge timer: classic
                        // failover.
                        registry.counter(&names::SHARD_FAILOVERS_TOTAL).inc(1);
                        obs::event!(names::SHARD_FAILOVER);
                    } else if outstanding == 0 {
                        break GroupReply::Unavailable {
                            reason: failures.join("; "),
                        };
                    }
                }
                Err(None) => {
                    // Hedge timer fired with the primary still silent (the
                    // timer only runs while the replica waits).
                    registry.counter(&names::SHARD_HEDGES_TOTAL).inc(1);
                    obs::event!(names::SHARD_HEDGE);
                    hedge_fired = true;
                }
                Err(Some(())) => {
                    // All senders gone without a success.
                    break GroupReply::Unavailable {
                        reason: if failures.is_empty() {
                            "all legs disconnected".to_string()
                        } else {
                            failures.join("; ")
                        },
                    };
                }
            }
            // The race goes on. If the replica still waits, this event was
            // the primary's failure or the hedge timer: dispatch it.
            if let (Some(replica), Some(tx)) = (replica_slot.take(), tx_replica.take()) {
                outstanding += 1;
                let leg_telemetry = telemetry.clone();
                scope.spawn(move || {
                    let _scope = leg_telemetry.install();
                    let r = replica.call(histogram, plan, deadline, salt ^ 1);
                    let _ = tx.send((true, r));
                });
            }
        }
    });
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;

    fn endpoint(addr: SocketAddr, retries: u32) -> ShardEndpoint {
        ShardEndpoint::new(
            addr,
            Duration::from_millis(200),
            RetryPolicy {
                max_retries: retries,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                jitter_seed: 7,
            },
            Arc::new(CircuitBreaker::new(BreakerConfig::default())),
            Arc::new(MetricsRegistry::new()),
        )
    }

    fn dead_addr() -> SocketAddr {
        // Bind an ephemeral port, then drop the listener: nothing
        // listens there for the rest of the test.
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        drop(l);
        addr
    }

    fn histogram() -> Histogram {
        Histogram::new(vec![1.0, 2.0, 3.0, 4.0]).expect("histogram")
    }

    const KNN: QueryPlan = QueryPlan::Knn { k: 3, mode: None };

    #[test]
    fn dead_endpoint_exhausts_retries_with_typed_failure() {
        let mut ep = endpoint(dead_addr(), 2);
        let registry = Arc::clone(&ep.registry);
        let got = ep.call(&histogram(), KNN, Deadline::none(), 0);
        assert!(matches!(got, Err(CallFailure::Exhausted(_))), "{got:?}");
        assert_eq!(registry.counter(&names::SHARD_RETRIES_TOTAL).get(), 2);
        assert_eq!(registry.counter(&names::SHARD_CALLS_TOTAL).get(), 3);
    }

    #[test]
    fn tripped_breaker_rejects_without_io() {
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_secs(60),
            half_open_probes: 1,
        }));
        let registry = Arc::new(MetricsRegistry::new());
        let mut ep = ShardEndpoint::new(
            dead_addr(),
            Duration::from_millis(100),
            RetryPolicy::none(),
            Arc::clone(&breaker),
            Arc::clone(&registry),
        );
        assert!(matches!(
            ep.call(&histogram(), KNN, Deadline::none(), 0),
            Err(CallFailure::Exhausted(_))
        ));
        // The first failure tripped the breaker; the second call is
        // rejected without any connect attempt.
        let calls_before = registry.counter(&names::SHARD_CALLS_TOTAL).get();
        assert!(matches!(
            ep.call(&histogram(), KNN, Deadline::none(), 0),
            Err(CallFailure::BreakerOpen)
        ));
        assert_eq!(
            registry.counter(&names::SHARD_CALLS_TOTAL).get(),
            calls_before
        );
        assert_eq!(
            registry
                .counter(&names::SHARD_BREAKER_REJECTIONS_TOTAL)
                .get(),
            1
        );
        assert_eq!(registry.counter(&names::SHARD_BREAKER_OPEN_TOTAL).get(), 1);
    }

    #[test]
    fn group_without_replica_reports_unavailable() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut group = ShardGroup::new(1, endpoint(dead_addr(), 0), None, Arc::clone(&registry));
        let GroupReply::Unavailable { reason } =
            group.call(&histogram(), KNN, Deadline::none(), None, 0)
        else {
            panic!("dead group must be unavailable");
        };
        assert!(reason.contains("primary"), "{reason}");
    }

    #[test]
    fn latency_tracker_quantiles() {
        let t = LatencyTracker::new();
        assert_eq!(t.quantile(0.99), None);
        for ms in 1..=100u64 {
            t.record(Duration::from_millis(ms));
        }
        assert_eq!(t.quantile(0.0), Some(Duration::from_millis(1)));
        assert_eq!(t.quantile(1.0), Some(Duration::from_millis(100)));
        let p50 = t.quantile(0.5).expect("p50");
        assert!(p50 >= Duration::from_millis(45) && p50 <= Duration::from_millis(55));
    }
}
