//! A small blocking `sd-wire` client: one connection, one frame in
//! flight. The loopback tests and `sd-serve selftest` drive the server
//! through it; it is deliberately simple rather than pooled or
//! pipelined.
//!
//! [`ClientConfig`] adds the operational knobs a caller outside a test
//! wants: a connect timeout, a per-frame I/O timeout, and optional
//! retry-on-[`Response::Overloaded`] that honors the server's
//! `retry_after_ms` hint (the server *tells* the client when capacity
//! should exist again; a client that retries sooner just feeds the
//! overload). Retries are off by default — a shed surfaces as
//! [`ServeError::Overloaded`] immediately — because tests assert on the
//! shed itself.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;
use sd_core::GraphFingerprint;
use sd_graph::GraphUpdate;

use crate::proto::{
    server_scope, ErrorResponse, Frame, OverloadInfo, QueryRequest, QueryResponse, Request,
    Response, ServerStatsWire, StatsResponse, TenantStatsWire, UpdateRequest, UpdateResponse, Verb,
    WireError, WireQuery, FRAME_HEADER_BYTES,
};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The socket failed (connect, read, or write).
    Io(io::Error),
    /// The server's response frame did not decode.
    Wire(WireError),
    /// The server answered with a typed [`Verb::Error`] frame.
    Rejected(ErrorResponse),
    /// The server shed the request with a [`Verb::Overloaded`] frame
    /// (and retries, if configured, were exhausted).
    Overloaded(OverloadInfo),
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request that was sent.
    UnexpectedResponse {
        /// The verb the response frame carried.
        got: Verb,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Wire(e) => write!(f, "malformed response: {e}"),
            ServeError::Rejected(e) => write!(f, "server error ({:?}): {}", e.code, e.message),
            ServeError::Overloaded(o) => write!(
                f,
                "overloaded ({:?}): measured {} over limit {}, retry in {} ms",
                o.reason, o.measured, o.limit, o.retry_after_ms
            ),
            ServeError::UnexpectedResponse { got } => {
                write!(f, "unexpected response verb {:?}", got)
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// Connection and retry policy for a [`Client`]. The default is no
/// timeouts and no retries — what the assertion-heavy tests want.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection; `None` blocks.
    pub connect_timeout: Option<Duration>,
    /// Cap on each socket read/write while exchanging frames; `None`
    /// blocks. A request that trips this surfaces as
    /// [`ServeError::Io`] with kind `WouldBlock`/`TimedOut`.
    pub io_timeout: Option<Duration>,
    /// How many times a typed-request call re-sends after an
    /// [`Response::Overloaded`] shed, sleeping the server's
    /// `retry_after_ms` hint first. A connection-level shed closes the
    /// socket, so retries reconnect as needed. 0 disables retrying.
    pub retries: u32,
}

/// One blocking connection to an `sd-serve` instance.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    config: ClientConfig,
}

impl Client {
    /// Connects with the default [`ClientConfig`] (no timeouts, no
    /// retries).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects under `config`.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = Client::open(addr, &config)?;
        Ok(Client { stream, addr, config })
    }

    fn open(addr: SocketAddr, config: &ClientConfig) -> io::Result<TcpStream> {
        let stream = match config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(config.io_timeout)?;
        stream.set_write_timeout(config.io_timeout)?;
        Ok(stream)
    }

    /// Drops the current socket and dials a fresh one to the same
    /// server. Typed-request retries use this after a connection-level
    /// shed (the server closed the shed connection behind the
    /// `Overloaded` frame).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Client::open(self.addr, &self.config)?;
        Ok(())
    }

    /// Writes raw bytes to the connection — the adversarial tests use
    /// this to send deliberately malformed frames.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.stream, bytes)
    }

    /// Reads and decodes one response frame.
    pub fn read_response(&mut self) -> Result<Response, ServeError> {
        let frame = self.read_frame()?;
        Ok(Response::from_frame(&frame)?)
    }

    /// Reads one raw frame off the connection.
    pub fn read_frame(&mut self) -> Result<Frame, ServeError> {
        let mut header_bytes = [0u8; FRAME_HEADER_BYTES];
        io::Read::read_exact(&mut self.stream, &mut header_bytes)?;
        let header = Frame::decode_header(&header_bytes)?;
        let mut payload = vec![0u8; header.payload_len as usize];
        io::Read::read_exact(&mut self.stream, &mut payload)?;
        Ok(Frame::new(header.verb, header.fingerprint, Bytes::from(payload)))
    }

    /// Sends one request frame and reads the response frame — a single
    /// shot, no retrying (the raw-frame seam the adversarial tests use).
    pub fn roundtrip(&mut self, frame: &Frame) -> Result<Response, ServeError> {
        self.send_bytes(frame.encode().as_ref())?;
        self.read_response()
    }

    /// The typed-request path: roundtrip, retrying on `Overloaded` per
    /// [`ClientConfig::retries`], honoring each shed's `retry_after_ms`
    /// before re-sending (reconnecting if the shed closed the socket).
    fn request(
        &mut self,
        request: &Request,
        fingerprint: GraphFingerprint,
    ) -> Result<Response, ServeError> {
        let frame = request.to_frame(fingerprint);
        let mut attempts_left = self.config.retries;
        loop {
            let response = match self.roundtrip(&frame) {
                Ok(response) => response,
                // A connection-shed server writes the Overloaded frame
                // and closes; a retry that raced the close sees an I/O
                // error on the dead socket. Reconnect and try again if
                // we still may.
                Err(ServeError::Io(_)) if attempts_left < self.config.retries => {
                    self.reconnect()?;
                    self.roundtrip(&frame)?
                }
                Err(e) => return Err(e),
            };
            match response {
                Response::Error(e) => return Err(ServeError::Rejected(e)),
                Response::Overloaded(o) => {
                    if attempts_left == 0 {
                        return Err(ServeError::Overloaded(o));
                    }
                    attempts_left -= 1;
                    std::thread::sleep(Duration::from_millis(u64::from(o.retry_after_ms)));
                }
                other => return Ok(other),
            }
        }
    }

    /// Runs a batch of queries against the tenant routed by
    /// `fingerprint`. `deadline_ms` of 0 means no deadline.
    pub fn query(
        &mut self,
        fingerprint: GraphFingerprint,
        deadline_ms: u32,
        queries: Vec<WireQuery>,
    ) -> Result<QueryResponse, ServeError> {
        let request = Request::Query(QueryRequest { deadline_ms, queries });
        match self.request(&request, fingerprint)? {
            Response::Query(resp) => Ok(resp),
            other => Err(ServeError::UnexpectedResponse { got: other.verb() }),
        }
    }

    /// Applies a batch of edge updates to the tenant routed by
    /// `fingerprint` (one new epoch).
    pub fn update(
        &mut self,
        fingerprint: GraphFingerprint,
        updates: Vec<GraphUpdate>,
    ) -> Result<UpdateResponse, ServeError> {
        let request = Request::Update(UpdateRequest { updates });
        match self.request(&request, fingerprint)? {
            Response::Update(resp) => Ok(resp),
            other => Err(ServeError::UnexpectedResponse { got: other.verb() }),
        }
    }

    /// Fetches one tenant's live counters.
    pub fn tenant_stats(
        &mut self,
        fingerprint: GraphFingerprint,
    ) -> Result<TenantStatsWire, ServeError> {
        match self.request(&Request::Stats, fingerprint)? {
            Response::Stats(StatsResponse::Tenant(t)) => Ok(t),
            other => Err(ServeError::UnexpectedResponse { got: other.verb() }),
        }
    }

    /// Fetches the whole-server counters (the all-zero fingerprint
    /// scope).
    pub fn server_stats(&mut self) -> Result<ServerStatsWire, ServeError> {
        match self.request(&Request::Stats, server_scope())? {
            Response::Stats(StatsResponse::Server(s)) => Ok(s),
            other => Err(ServeError::UnexpectedResponse { got: other.verb() }),
        }
    }

    /// Asks the server to begin graceful shutdown. The connection closes
    /// after the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown, server_scope())? {
            Response::Shutdown => Ok(()),
            other => Err(ServeError::UnexpectedResponse { got: other.verb() }),
        }
    }
}
