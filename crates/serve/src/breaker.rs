//! Per-endpoint circuit breaker: closed → open → half-open → closed.
//!
//! Without a breaker a dead shard costs every query a full
//! connect-timeout; with one, the first few failures open the circuit
//! and subsequent queries skip the endpoint instantly, re-probing it
//! with a bounded number of trial calls once a cooldown elapses. The
//! state machine is the textbook three-state breaker:
//!
//! ```text
//!            failures >= threshold                cooldown elapsed
//!  Closed ────────────────────────────► Open ───────────────────────► HalfOpen
//!    ▲                                   ▲                               │
//!    │            probe succeeds         │       probe fails             │
//!    └───────────────────────────────────┴───────────────────────────────┘
//! ```
//!
//! One breaker guards one endpoint and is shared (via `Arc`) by every
//! connection the coordinator holds to it, so an endpoint's health is
//! judged globally, not per-worker. All transitions are driven by the
//! calls themselves — there is no background thread.

use earthmover_obs::{self as obs, names};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// The endpoint is presumed dead; calls are rejected without I/O.
    Open,
    /// Cooldown elapsed; a bounded number of probe calls may test the
    /// endpoint.
    HalfOpen,
}

/// Tunables for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// How long the breaker stays Open before allowing probes.
    pub open_cooldown: Duration,
    /// Probe calls admitted concurrently while HalfOpen.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_secs(5),
            half_open_probes: 1,
        }
    }
}

/// Verdict of [`CircuitBreaker::try_acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The call may proceed normally.
    Allowed,
    /// The call may proceed as a half-open probe; its outcome decides
    /// whether the breaker closes again.
    Probe,
    /// The breaker is open; skip the endpoint without touching the
    /// network.
    Rejected,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probes_in_flight: u32,
}

/// A shareable three-state circuit breaker for one endpoint.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tunables.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probes_in_flight: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current state (Open flips to HalfOpen lazily on the next
    /// [`CircuitBreaker::try_acquire`] after the cooldown, so `Open`
    /// here may admit a probe a moment later).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Asks to place one call through this endpoint.
    pub fn try_acquire(&self) -> Admission {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => {
                let cooled = g
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= self.cfg.open_cooldown);
                if !cooled {
                    return Admission::Rejected;
                }
                g.state = BreakerState::HalfOpen;
                g.probes_in_flight = 1;
                obs::event!(names::BREAKER_HALF_OPEN);
                Admission::Probe
            }
            BreakerState::HalfOpen => {
                if g.probes_in_flight < self.cfg.half_open_probes {
                    g.probes_in_flight += 1;
                    Admission::Probe
                } else {
                    Admission::Rejected
                }
            }
        }
    }

    /// Reports a successful call: closes the breaker from any state.
    pub fn record_success(&self) {
        let mut g = self.lock();
        let was = g.state;
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        g.opened_at = None;
        g.probes_in_flight = 0;
        if was != BreakerState::Closed {
            obs::event!(names::BREAKER_CLOSE);
        }
    }

    /// Reports a failed call. Returns `true` when this failure *opened*
    /// the breaker (so the caller can bump an open-transition counter).
    pub fn record_failure(&self) -> bool {
        let mut g = self.lock();
        match g.state {
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately and restarts the
                // cooldown clock.
                g.state = BreakerState::Open;
                g.opened_at = Some(Instant::now());
                g.probes_in_flight = 0;
                obs::event!(names::BREAKER_OPEN);
                true
            }
            BreakerState::Closed => {
                g.consecutive_failures = g.consecutive_failures.saturating_add(1);
                if g.consecutive_failures >= self.cfg.failure_threshold {
                    g.state = BreakerState::Open;
                    g.opened_at = Some(Instant::now());
                    obs::event!(names::BREAKER_OPEN);
                    true
                } else {
                    false
                }
            }
            // Late failure report while already Open (e.g. a slow call
            // that started before the trip): nothing changes.
            BreakerState::Open => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            open_cooldown: Duration::from_millis(20),
            half_open_probes: 1,
        }
    }

    #[test]
    fn trips_open_after_threshold_and_rejects() {
        let b = CircuitBreaker::new(fast());
        assert_eq!(b.try_acquire(), Admission::Allowed);
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure(), "second failure must trip the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.try_acquire(), Admission::Rejected);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = CircuitBreaker::new(fast());
        b.record_failure();
        b.record_failure();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.try_acquire(), Admission::Probe);
        // Only one probe is admitted while it is in flight.
        assert_eq!(b.try_acquire(), Admission::Rejected);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_acquire(), Admission::Allowed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = CircuitBreaker::new(fast());
        b.record_failure();
        b.record_failure();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.try_acquire(), Admission::Probe);
        assert!(b.record_failure(), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.try_acquire(), Admission::Rejected);
        // ... until the cooldown elapses again.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.try_acquire(), Admission::Probe);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(fast());
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak restarted after a success");
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
