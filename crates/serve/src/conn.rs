//! The one TCP connection type of the workspace: every socket read and
//! write is bounded by a [`Deadline`].
//!
//! A [`Conn`] owns the only `std::net::TcpStream`; `clippy.toml` bans
//! the type and `TcpListener::{accept, incoming}` everywhere else. Its
//! frame read and write take a `Deadline`, so a frame cannot be moved
//! without a budget:
//!
//! ```compile_fail
//! # use earthmover_serve::conn::Conn;
//! fn read(conn: &mut Conn) {
//!     let _ = conn.read_frame(1 << 20);
//! }
//! ```
//!
//! ```no_run
//! # use earthmover_serve::conn::Conn;
//! # use earthmover_core::deadline::Deadline;
//! # use std::time::Duration;
//! fn read(conn: &mut Conn) {
//!     let _ = conn.read_frame(1 << 20, Deadline::within(Duration::from_secs(1)));
//! }
//! ```
//!
//! Before each read or write syscall the socket timeout is re-armed to
//! what is left of the deadline, so the deadline bounds the whole frame,
//! not each syscall: a peer that drips one byte per timeout cannot hold
//! the connection past it. An expired deadline fails with
//! [`io::ErrorKind::TimedOut`] without touching the socket, and so does
//! a syscall the armed timeout cut short.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one owner of a raw TCP stream; everything else goes through Conn"
)]

use crate::protocol::{self, RawFrame, WireError};
use earthmover_core::deadline::Deadline;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// One blocking TCP connection whose frame I/O runs under a
/// [`Deadline`].
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects to the first of `addrs` that answers before `deadline`.
    /// The deadline bounds all the attempts together.
    pub fn connect(addrs: &[SocketAddr], deadline: Deadline) -> io::Result<Conn> {
        let mut last = None;
        for addr in addrs {
            let stream = match arm(deadline)? {
                Some(budget) => TcpStream::connect_timeout(addr, budget),
                None => TcpStream::connect(addr),
            };
            match stream {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Conn { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no addresses to connect to",
            )
        }))
    }

    /// Accepts one connection from `listener` (which may be
    /// non-blocking) and makes it blocking with `TCP_NODELAY` set.
    pub fn accept(listener: &TcpListener) -> io::Result<Conn> {
        let (stream, _peer) = listener.accept()?;
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    /// Reads one frame ([`protocol::read_frame`]) before `deadline`.
    /// `Ok(None)` is a clean end of stream at a frame boundary.
    pub fn read_frame(
        &mut self,
        max_frame_len: u32,
        deadline: Deadline,
    ) -> Result<Option<RawFrame>, WireError> {
        protocol::read_frame(&mut self.within(deadline), max_frame_len)
    }

    /// Writes `bytes` ([`protocol::write_frame`]) before `deadline`. The
    /// bytes are written as given, frame or not.
    pub fn write_frame(&mut self, bytes: &[u8], deadline: Deadline) -> Result<(), WireError> {
        protocol::write_frame(&mut self.within(deadline), bytes)
    }

    /// Waits until a read would not block — bytes arrived, the peer
    /// closed, or the socket failed — without reading anything. Fails
    /// with `TimedOut` once `deadline` passes first.
    pub(crate) fn wait_readable(&self, deadline: Deadline) -> io::Result<()> {
        self.stream.set_read_timeout(arm(deadline)?)?;
        timed_out(self.stream.peek(&mut [0; 1])).map(drop)
    }

    /// Shuts both directions down. A peer that is already gone is not
    /// an error worth reporting: the connection is over either way.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn within(&self, deadline: Deadline) -> Timed<'_> {
        Timed {
            stream: &self.stream,
            deadline,
        }
    }
}

/// The stream under one deadline: each `read` and `write` re-arms the
/// socket timeout to the time left first.
struct Timed<'a> {
    stream: &'a TcpStream,
    deadline: Deadline,
}

impl Read for Timed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(arm(self.deadline)?)?;
        timed_out(self.stream.read(buf))
    }
}

impl Write for Timed<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(arm(self.deadline)?)?;
        timed_out(self.stream.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // TCP has no user-space buffer to flush
    }
}

/// The socket timeout for what is left of `deadline`: `None` when it is
/// unbounded, `TimedOut` once it has expired (`set_read_timeout` refuses
/// a zero timeout as `InvalidInput`).
fn arm(deadline: Deadline) -> io::Result<Option<Duration>> {
    match deadline.remaining() {
        Some(rem) if rem.is_zero() => Err(expired()),
        rem => Ok(rem),
    }
}

/// A blocking socket reports its timeout as `WouldBlock`; callers see
/// one kind for "the deadline passed".
fn timed_out(result: io::Result<usize>) -> io::Result<usize> {
    match result {
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(expired()),
        other => other,
    }
}

fn expired() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "socket deadline expired")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A connected pair over loopback: (client side, server side).
    fn pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = Conn::connect(&[addr], Deadline::within(Duration::from_secs(5))).unwrap();
        let server = Conn::accept(&listener).unwrap();
        (client, server)
    }

    fn is_timed_out(err: &WireError) -> bool {
        matches!(err, WireError::Io(e) if e.kind() == io::ErrorKind::TimedOut)
    }

    #[test]
    fn expired_deadline_times_out_without_io() {
        let expired = Deadline::within(Duration::ZERO);
        let (mut client, mut server) = pair();
        let err = client.write_frame(b"EMDQ", expired).unwrap_err();
        assert!(is_timed_out(&err), "write: {err:?}");
        let err = server.read_frame(1 << 20, expired).unwrap_err();
        assert!(is_timed_out(&err), "read: {err:?}");
        // Nothing was written: a live read sees the close, not bytes.
        drop(client);
        let live = Deadline::within(Duration::from_secs(5));
        assert!(matches!(server.read_frame(1 << 20, live), Ok(None)));

        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = Conn::connect(&[addr], expired).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn silent_peer_read_ends_by_the_deadline() {
        let (_client, mut server) = pair();
        let started = Instant::now();
        let err = server
            .read_frame(1 << 20, Deadline::within(Duration::from_millis(50)))
            .unwrap_err();
        let took = started.elapsed();
        assert!(is_timed_out(&err), "{err:?}");
        assert!(took < Duration::from_millis(250), "read took {took:?}");
    }
}
