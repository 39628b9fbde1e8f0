//! Deterministic cluster fault injection.
//!
//! A [`FaultProxy`] sits between the coordinator and one `emdd`
//! backend, relaying frames and injecting one fault class per accepted
//! connection according to a seeded, fully deterministic
//! [`FaultSchedule`]:
//!
//! - [`FaultClass::Refuse`] — close at accept (connection refused from
//!   the caller's point of view);
//! - [`FaultClass::CutMidFrame`] — forward half of the response frame's
//!   bytes, then close (truncated stream);
//! - [`FaultClass::Stall`] — read the request, then go silent for the
//!   configured stall and close without answering (deadline blower);
//! - [`FaultClass::Garbage`] — answer with seeded non-protocol bytes
//!   (codec hardening);
//! - [`FaultClass::Healthy`] — relay frames untouched.
//!
//! Determinism is the point: the integration suite replays the same
//! seed and asserts the exact same retry/failover/breaker behavior,
//! which is how distributed-failure handling stays testable.

use crate::conn::Conn;
use crate::protocol::DEFAULT_MAX_FRAME_LEN;
use crate::retry::splitmix64;
use crate::server::StopHandle;
use earthmover_core::deadline::Deadline;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One injectable failure mode, applied per accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Relay frames untouched.
    Healthy,
    /// Close the connection immediately at accept.
    Refuse,
    /// Forward half of the backend's response frame, then close.
    CutMidFrame,
    /// Swallow the request, sleep the configured stall, close silently.
    Stall,
    /// Answer the request with deterministic non-protocol bytes.
    Garbage,
}

impl FaultClass {
    fn index(self) -> usize {
        match self {
            FaultClass::Healthy => 0,
            FaultClass::Refuse => 1,
            FaultClass::CutMidFrame => 2,
            FaultClass::Stall => 3,
            FaultClass::Garbage => 4,
        }
    }
}

/// A deterministic per-connection fault sequence.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seq: Vec<FaultClass>,
    next: usize,
}

impl FaultSchedule {
    /// Injects `class` on every connection.
    pub fn always(class: FaultClass) -> FaultSchedule {
        FaultSchedule {
            seq: vec![class],
            next: 0,
        }
    }

    /// Cycles through `seq` connection by connection. An empty sequence
    /// behaves as always-healthy.
    pub fn cycle(seq: Vec<FaultClass>) -> FaultSchedule {
        FaultSchedule { seq, next: 0 }
    }

    /// A pseudo-random (but fully seed-determined) sequence of `len`
    /// draws from `menu`, cycled thereafter. The same seed always
    /// yields the same schedule.
    pub fn seeded(seed: u64, menu: &[FaultClass], len: usize) -> FaultSchedule {
        let seq = (0..len.max(1))
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                menu.get((h % menu.len().max(1) as u64) as usize)
                    .copied()
                    .unwrap_or(FaultClass::Healthy)
            })
            .collect();
        FaultSchedule { seq, next: 0 }
    }

    fn draw(&mut self) -> FaultClass {
        let Some(&class) = self.seq.get(self.next % self.seq.len().max(1)) else {
            return FaultClass::Healthy;
        };
        self.next = self.next.wrapping_add(1);
        class
    }
}

/// Tunables for a [`FaultProxy`].
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// How long a [`FaultClass::Stall`] connection stays silent before
    /// closing. Pick it longer than the caller's deadline.
    pub stall: Duration,
    /// Budget for each proxy-side connect, frame read and frame write.
    pub io_timeout: Duration,
    /// Maximum relayed frame payload length.
    pub max_frame_len: u32,
}

impl Default for FaultProxyConfig {
    fn default() -> FaultProxyConfig {
        FaultProxyConfig {
            stall: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Per-class injection counters (indexed by [`FaultClass::index`]).
#[derive(Debug, Default)]
struct FaultCounters {
    injected: [AtomicU64; 5],
}

/// A frame-aware TCP proxy injecting deterministic faults between a
/// client and one backend `emdd`.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: StopHandle,
    counters: Arc<FaultCounters>,
}

impl FaultProxy {
    /// Binds an ephemeral loopback port and starts relaying to
    /// `backend` with the given schedule. The proxy runs on background
    /// threads until [`FaultProxy::stop`].
    pub fn spawn(
        backend: SocketAddr,
        schedule: FaultSchedule,
        cfg: FaultProxyConfig,
    ) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = StopHandle::default();
        let counters = Arc::new(FaultCounters::default());
        {
            let stop = stop.clone();
            let counters = Arc::clone(&counters);
            let schedule = Mutex::new(schedule);
            std::thread::Builder::new()
                .name("fault-proxy-acceptor".into())
                .spawn(move || {
                    accept_loop(&listener, backend, &schedule, &cfg, &stop, &counters);
                })?;
        }
        Ok(FaultProxy {
            addr,
            stop,
            counters,
        })
    }

    /// The proxy's listening address — point the coordinator here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting; existing handler threads die with their streams.
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// How many connections have had `class` injected so far
    /// ([`FaultClass::Healthy`] counts healthy relays).
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.counters
            .injected
            .get(class.index())
            .map(|c| c.load(Ordering::SeqCst))
            .unwrap_or(0)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    backend: SocketAddr,
    schedule: &Mutex<FaultSchedule>,
    cfg: &FaultProxyConfig,
    stop: &StopHandle,
    counters: &Arc<FaultCounters>,
) {
    let mut conn_index: u64 = 0;
    while !stop.is_stopped() {
        match Conn::accept(listener) {
            Ok(client) => {
                let class = schedule.lock().unwrap_or_else(|e| e.into_inner()).draw();
                if let Some(c) = counters.injected.get(class.index()) {
                    c.fetch_add(1, Ordering::SeqCst);
                }
                let cfg = cfg.clone();
                let this_conn = conn_index;
                conn_index = conn_index.wrapping_add(1);
                let spawned = std::thread::Builder::new()
                    .name("fault-proxy-conn".into())
                    .spawn(move || handle_connection(client, backend, class, &cfg, this_conn));
                // Thread-spawn failure (fd/thread exhaustion): drop the
                // connection; the caller sees a wire error, which is a
                // fault class it already handles.
                drop(spawned);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Runs one proxied connection under its drawn fault class.
fn handle_connection(
    mut client: Conn,
    backend: SocketAddr,
    class: FaultClass,
    cfg: &FaultProxyConfig,
    conn_index: u64,
) {
    if class == FaultClass::Refuse {
        // Closing immediately (before reading) is the closest a
        // userspace proxy gets to ECONNREFUSED: the caller's first
        // write or read fails with a reset.
        client.shutdown();
        return;
    }
    let budget = || Deadline::within(cfg.io_timeout);
    let Ok(mut upstream) = Conn::connect(&[backend], budget()) else {
        client.shutdown();
        return;
    };
    // Frame-by-frame relay: read a request from the client, decide what
    // to do with the backend's response.
    while let Ok(Some(request)) = client.read_frame(cfg.max_frame_len, budget()) {
        match class {
            FaultClass::Stall => {
                // Swallow the request and go silent past the caller's
                // deadline.
                std::thread::sleep(cfg.stall);
                break;
            }
            FaultClass::Garbage => {
                let _ = client.write_frame(&garbage_bytes(conn_index), budget());
                break;
            }
            FaultClass::Healthy | FaultClass::CutMidFrame => {
                if upstream.write_frame(&request.encode(), budget()).is_err() {
                    break;
                }
                let Ok(Some(response)) = upstream.read_frame(cfg.max_frame_len, budget()) else {
                    break;
                };
                let bytes = response.encode();
                if class == FaultClass::CutMidFrame {
                    let half = bytes.get(..bytes.len() / 2).unwrap_or(&bytes);
                    let _ = client.write_frame(half, budget());
                    break;
                }
                if client.write_frame(&bytes, budget()).is_err() {
                    break;
                }
            }
            FaultClass::Refuse => break, // handled above; unreachable here
        }
    }
    client.shutdown();
    upstream.shutdown();
}

/// 64 deterministic bytes that can never parse as a frame (the first
/// byte differs from the protocol magic).
fn garbage_bytes(conn_index: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let mut state = splitmix64(conn_index ^ 0xBAD_F00D);
    for _ in 0..8 {
        state = splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    if let Some(first) = out.first_mut() {
        // Protocol magic starts with b'E'; make a collision impossible.
        *first = first.wrapping_add(1).max(1);
        if *first == b'E' {
            *first = b'X';
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        let menu = [FaultClass::Healthy, FaultClass::Refuse, FaultClass::Stall];
        let mut a = FaultSchedule::seeded(99, &menu, 32);
        let mut b = FaultSchedule::seeded(99, &menu, 32);
        for _ in 0..64 {
            assert_eq!(a.draw(), b.draw());
        }
        let mut c = FaultSchedule::seeded(100, &menu, 32);
        let differs = (0..64).any(|_| a.draw() != c.draw());
        // Not a hard guarantee per position, but across 64 draws two
        // seeds agreeing everywhere would mean the mixer is broken.
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn cycle_wraps_and_empty_is_healthy() {
        let mut s = FaultSchedule::cycle(vec![FaultClass::Refuse, FaultClass::Healthy]);
        assert_eq!(s.draw(), FaultClass::Refuse);
        assert_eq!(s.draw(), FaultClass::Healthy);
        assert_eq!(s.draw(), FaultClass::Refuse);
        let mut empty = FaultSchedule::cycle(Vec::new());
        assert_eq!(empty.draw(), FaultClass::Healthy);
    }

    #[test]
    fn garbage_never_begins_with_the_magic() {
        for i in 0..100 {
            let g = garbage_bytes(i);
            assert_eq!(g.len(), 64);
            assert_ne!(g.first().copied(), Some(b'E'));
            assert_eq!(garbage_bytes(i), g, "garbage must be deterministic");
        }
    }
}
