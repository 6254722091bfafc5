//! The transport seam of the event-driven server: how bytes arrive,
//! abstracted from *what* they mean.
//!
//! [`Transport`] is the listening side — it owns a non-blocking acceptor
//! and hands out [`TransportStream`]s — and a `TransportStream` is one
//! accepted connection's byte pipe, also non-blocking. The server's I/O
//! loops ([`crate::Server`]) are written entirely against these traits:
//! they register the transport's raw fds with a [`polling::Poller`],
//! wait for readiness, and call `read`/`write` until `WouldBlock`. The
//! loop never learns what kind of socket it is driving, which is the
//! point — a TLS or Unix-socket transport drops in by implementing two
//! traits, without touching the readiness loop, the connection state
//! machine, or dispatch.
//!
//! [`TcpTransport`] is the concrete transport served today: plain TCP
//! with `TCP_NODELAY` on accepted streams (the protocol is
//! request/response; Nagle only adds latency).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

/// One accepted connection's non-blocking byte pipe.
///
/// `read` and `write` follow non-blocking socket semantics: they return
/// `Err(WouldBlock)` when the socket isn't ready, `Ok(0)` from `read`
/// on orderly peer close, and any other error means the connection is
/// dead. The I/O loop only calls them when the poller reported the
/// matching readiness, but must still tolerate spurious `WouldBlock`.
pub trait TransportStream: Send {
    /// The fd the I/O loop registers with its poller.
    fn fd(&self) -> RawFd;
    /// Non-blocking read into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Non-blocking write of `buf`, returning bytes accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

/// The listening side: a non-blocking acceptor the I/O loop polls like
/// any other fd.
pub trait Transport: Send + 'static {
    /// The bound address (with the OS-chosen port resolved).
    fn local_addr(&self) -> SocketAddr;
    /// The listener fd the I/O loop registers for readability.
    fn listener_fd(&self) -> RawFd;
    /// Accepts one pending connection, or `Ok(None)` when the backlog
    /// is empty (`WouldBlock` is not an error on this path — the loop
    /// re-polls). Transient per-connection failures (a peer that reset
    /// between readiness and accept) also surface as `Ok(None)`.
    fn accept(&self) -> io::Result<Option<Box<dyn TransportStream>>>;
}

/// Plain-TCP [`Transport`]: the production transport.
pub struct TcpTransport {
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `addr` and switches the listener non-blocking, ready for
    /// poller registration.
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(TcpTransport { listener, local_addr })
    }
}

impl Transport for TcpTransport {
    fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn listener_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn accept(&self) -> io::Result<Option<Box<dyn TransportStream>>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                // A peer can die between readiness and these setsockopts;
                // that's its problem, not the accept loop's.
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    return Ok(None);
                }
                Ok(Some(Box::new(TcpTransportStream { stream })))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// One accepted TCP connection.
struct TcpTransportStream {
    stream: TcpStream,
}

impl TransportStream for TcpTransportStream {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_transport_accepts_nonblockingly() {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        assert!(transport.accept().expect("empty backlog").is_none(), "no pending connection");
        let client = TcpStream::connect(transport.local_addr()).expect("connect");
        // The handshake may still be settling; poll briefly.
        let mut accepted = None;
        for _ in 0..100 {
            if let Some(s) = transport.accept().expect("accept") {
                accepted = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut server_side = accepted.expect("connection surfaced");
        drop(client);
        // Orderly close reads as Ok(0) once the FIN arrives.
        let mut buf = [0u8; 8];
        for _ in 0..100 {
            match server_side.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => panic!("no bytes were sent"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        panic!("peer close never surfaced");
    }
}
