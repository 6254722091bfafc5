//! The per-connection protocol state machine of the event-driven server.
//!
//! A [`Conn`] owns one [`TransportStream`] and walks it through the
//! frame cycle — **header → payload → dispatched → writing → header** —
//! one non-blocking step at a time. The I/O loop calls
//! [`Conn::on_readable`] / [`Conn::on_writable`] when the poller reports
//! readiness, and [`Conn::wanted_interest`] tells the loop what to arm
//! next; the machine itself never blocks and never talks to the poller.
//!
//! One frame is in flight per connection at a time, matching the
//! blocking server's request/response discipline: once a full frame is
//! assembled the state parks at `Dispatched` and the
//! connection's interest drops to peer-hangup only — pipelined bytes
//! wait in the kernel buffer (level-triggered polling re-reports them
//! the moment the machine returns to header reading), and a client that
//! disconnects mid-query is still *observed* so its queued work can be
//! cancelled.
//!
//! Two asymmetries are deliberate:
//!
//! - A malformed **header** desynchronizes the stream (the length
//!   prefix can't be trusted), so the machine answers with a typed
//!   `BadRequest` error and closes after the write. A malformed
//!   **payload** is length-framed and therefore recoverable — that error
//!   is dispatch's to produce, and the connection survives.
//! - While **writing**, interest is writable-only: a peer that
//!   half-closes after sending a request still gets its response
//!   flushed; a full reset surfaces as a write error and closes.
//!
//! The payload buffer grows as bytes arrive: it starts at 64 KiB (or the
//! declared length, if smaller) and doubles each time it fills, never
//! past the declared length. A peer that sends a header declaring the
//! 16 MiB maximum and then stalls holds 64 KiB, not the length it
//! declared.

use bytes::Bytes;
use polling::Interest;
use sd_core::CancelToken;

use crate::proto::{
    server_scope, ErrorCode, ErrorResponse, Frame, FrameHeader, Response, FRAME_HEADER_BYTES,
};
use crate::transport::TransportStream;

/// The payload buffer a validated header gets before any payload byte
/// has arrived (see the module docs).
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Where a [`Conn`] stands in the frame cycle.
enum ConnState {
    /// Assembling the fixed-size frame header.
    ReadingHeader { buf: [u8; FRAME_HEADER_BYTES], filled: usize },
    /// Header validated; assembling `payload_len` payload bytes into
    /// `buf`, which grows as it fills.
    ReadingPayload { header: FrameHeader, buf: Vec<u8>, filled: usize },
    /// A full frame was handed to dispatch; awaiting its response.
    Dispatched,
    /// Flushing a response (or a pre-dispatch error frame).
    Writing { buf: Bytes, written: usize, close_after: bool },
    /// Dead. Every entry point is a no-op that reports closure.
    Closed,
}

/// What a readiness step produced, for the I/O loop to act on.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete request frame: dispatch it. The machine is now
    /// the dispatched state and reads nothing until
    /// [`Conn::start_write`] delivers the response.
    Frame(Frame),
    /// Nothing actionable; re-arm [`Conn::wanted_interest`] and wait.
    Continue,
    /// A response finished flushing and the machine returned to header
    /// reading — the natural point to close a draining connection.
    Idle,
    /// The connection is finished (peer closed, I/O error, or a
    /// close-after-write completed): deregister and drop it.
    Close,
}

/// One connection's state machine. See the [module docs](self).
pub struct Conn {
    stream: Box<dyn TransportStream>,
    state: ConnState,
    /// Cancels the in-flight frame's queries when the poller observes a
    /// disconnect while [`ConnState::Dispatched`].
    cancel: Option<CancelToken>,
}

impl Conn {
    /// Wraps a freshly accepted stream, ready to read a header.
    pub fn new(stream: Box<dyn TransportStream>) -> Conn {
        Conn { stream, state: fresh_header(), cancel: None }
    }

    /// The fd the I/O loop registers this connection under.
    pub fn fd(&self) -> std::os::fd::RawFd {
        self.stream.fd()
    }

    /// The readiness the I/O loop should arm for the current state.
    pub fn wanted_interest(&self) -> Interest {
        match self.state {
            ConnState::ReadingHeader { .. } | ConnState::ReadingPayload { .. } => {
                Interest::READABLE.or(Interest::PEER_HANGUP)
            }
            // Nothing to read until the response exists, but a client
            // abandoning its query must still be seen.
            ConnState::Dispatched => Interest::PEER_HANGUP,
            ConnState::Writing { .. } => Interest::WRITABLE,
            ConnState::Closed => Interest::NONE,
        }
    }

    /// Whether the connection sits between frames with nothing buffered —
    /// safe to close instantly on drain without dropping accepted work.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ConnState::ReadingHeader { filled: 0, .. })
    }

    /// Whether a frame is parked in dispatch awaiting its response.
    pub fn is_dispatched(&self) -> bool {
        matches!(self.state, ConnState::Dispatched)
    }

    /// Attaches the token that [`Conn::cancel_inflight`] will flip if
    /// the peer disconnects while the frame is dispatched.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Cancels the in-flight frame's work, if any. Called by the I/O
    /// loop when the poller reports the peer gone.
    pub fn cancel_inflight(&mut self) {
        if let Some(token) = self.cancel.take() {
            token.cancel();
        }
    }

    /// Advances the read side: pulls bytes until `WouldBlock`, a
    /// complete frame, or closure. Malformed headers are answered with
    /// a typed error and a close-after-write, handled internally — the
    /// caller just re-arms for the returned state.
    pub fn on_readable(&mut self) -> ConnEvent {
        loop {
            match &mut self.state {
                ConnState::ReadingHeader { buf, filled } => {
                    match self.stream.read(&mut buf[*filled..]) {
                        Ok(0) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                        Ok(n) => {
                            *filled += n;
                            if *filled < FRAME_HEADER_BYTES {
                                continue;
                            }
                            match Frame::decode_header(&buf[..]) {
                                Ok(header) if header.payload_len == 0 => {
                                    let frame =
                                        Frame::new(header.verb, header.fingerprint, Bytes::new());
                                    self.state = ConnState::Dispatched;
                                    return ConnEvent::Frame(frame);
                                }
                                Ok(header) => {
                                    let len = (header.payload_len as usize).min(PAYLOAD_CHUNK);
                                    let buf = vec![0u8; len];
                                    self.state =
                                        ConnState::ReadingPayload { header, buf, filled: 0 };
                                }
                                Err(err) => {
                                    // A malformed header desynchronizes
                                    // the stream: answer with the typed
                                    // error, then close.
                                    let resp = Response::Error(ErrorResponse {
                                        code: ErrorCode::BadRequest,
                                        message: err.to_string(),
                                    });
                                    let bytes = resp.to_frame(server_scope()).encode();
                                    return self.start_write(bytes, true);
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return ConnEvent::Continue;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                    }
                }
                ConnState::ReadingPayload { header, buf, filled } => {
                    let len = header.payload_len as usize;
                    if *filled == len {
                        let frame = Frame::new(
                            header.verb,
                            header.fingerprint,
                            Bytes::from(std::mem::take(buf)),
                        );
                        self.state = ConnState::Dispatched;
                        return ConnEvent::Frame(frame);
                    }
                    if *filled == buf.len() {
                        // Full but short of the declared length: double
                        // the buffer, never past that length.
                        let grown = len.min(2 * buf.len());
                        buf.reserve_exact(grown - buf.len());
                        buf.resize(grown, 0);
                    }
                    match self.stream.read(&mut buf[*filled..]) {
                        Ok(0) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                        Ok(n) => *filled += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return ConnEvent::Continue;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                    }
                }
                // Readability means nothing mid-dispatch or mid-write;
                // the poller isn't even armed for it. Tolerate the call.
                ConnState::Dispatched | ConnState::Writing { .. } => return ConnEvent::Continue,
                ConnState::Closed => return ConnEvent::Close,
            }
        }
    }

    /// Begins flushing `bytes` as the current frame's response (or a
    /// pre-dispatch error), closing afterwards if `close_after`. Writes
    /// optimistically — most responses fit the socket buffer and finish
    /// here without ever arming `WRITABLE`.
    pub fn start_write(&mut self, bytes: Bytes, close_after: bool) -> ConnEvent {
        if matches!(self.state, ConnState::Closed) {
            return ConnEvent::Close;
        }
        self.cancel = None;
        self.state = ConnState::Writing { buf: bytes, written: 0, close_after };
        self.on_writable()
    }

    /// Advances the write side: flushes until `WouldBlock` or the
    /// response completes, then returns to header reading (or closes).
    pub fn on_writable(&mut self) -> ConnEvent {
        loop {
            match &mut self.state {
                ConnState::Writing { buf, written, close_after } => {
                    if *written == buf.len() {
                        if *close_after {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                        self.state = fresh_header();
                        return ConnEvent::Idle;
                    }
                    match self.stream.write(&buf.as_ref()[*written..]) {
                        Ok(0) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                        Ok(n) => *written += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return ConnEvent::Continue;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.state = ConnState::Closed;
                            return ConnEvent::Close;
                        }
                    }
                }
                ConnState::Closed => return ConnEvent::Close,
                // Spurious writability outside a write is ignorable.
                _ => return ConnEvent::Continue,
            }
        }
    }
}

fn fresh_header() -> ConnState {
    ConnState::ReadingHeader { buf: [0u8; FRAME_HEADER_BYTES], filled: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Request, Verb, WireError};
    use std::collections::VecDeque;
    use std::io;
    use std::sync::{Arc, Mutex};

    /// What one scripted `read` call should produce.
    enum Step {
        Bytes(Vec<u8>),
        WouldBlock,
        Eof,
    }

    /// A scripted [`TransportStream`]: reads replay `Step`s, writes
    /// accept at most `write_cap` bytes per call and are captured.
    struct MockStream {
        reads: VecDeque<Step>,
        written: Arc<Mutex<Vec<u8>>>,
        write_cap: usize,
        write_blocks_first: usize,
    }

    impl MockStream {
        fn new(reads: Vec<Step>) -> (MockStream, Arc<Mutex<Vec<u8>>>) {
            let written = Arc::new(Mutex::new(Vec::new()));
            let stream = MockStream {
                reads: reads.into(),
                written: written.clone(),
                write_cap: usize::MAX,
                write_blocks_first: 0,
            };
            (stream, written)
        }
    }

    impl TransportStream for MockStream {
        fn fd(&self) -> std::os::fd::RawFd {
            -1
        }

        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.reads.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Step::WouldBlock) | None => Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Eof) => Ok(0),
            }
        }

        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_blocks_first > 0 {
                self.write_blocks_first -= 1;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.write_cap);
            self.written.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    fn stats_frame() -> Bytes {
        Request::Stats.to_frame(server_scope()).encode()
    }

    #[test]
    fn header_split_across_reads_still_assembles_a_frame() {
        let wire = stats_frame();
        let (a, b) = wire.as_ref().split_at(7);
        let (stream, _) = MockStream::new(vec![
            Step::Bytes(a.to_vec()),
            Step::WouldBlock,
            Step::Bytes(b.to_vec()),
        ]);
        let mut conn = Conn::new(Box::new(stream));
        assert!(matches!(conn.on_readable(), ConnEvent::Continue), "half a header parks");
        assert!(conn.wanted_interest().contains(Interest::READABLE));
        let ConnEvent::Frame(frame) = conn.on_readable() else {
            panic!("second read completes the frame");
        };
        assert_eq!(frame.verb, Verb::Stats);
        assert!(conn.is_dispatched());
        assert!(
            !conn.wanted_interest().contains(Interest::READABLE),
            "a dispatched connection reads nothing — hangup interest only"
        );
    }

    #[test]
    fn payload_is_assembled_across_reads() {
        let wire = Request::Query(crate::proto::QueryRequest {
            deadline_ms: 0,
            queries: vec![crate::proto::WireQuery::new(3, 2)],
        })
        .to_frame(server_scope())
        .encode();
        assert!(wire.len() > FRAME_HEADER_BYTES, "query frames carry a payload");
        let (head, tail) = wire.as_ref().split_at(FRAME_HEADER_BYTES + 2);
        let (stream, _) = MockStream::new(vec![
            Step::Bytes(head.to_vec()),
            Step::WouldBlock,
            Step::Bytes(tail.to_vec()),
        ]);
        let mut conn = Conn::new(Box::new(stream));
        assert!(matches!(conn.on_readable(), ConnEvent::Continue), "payload still short");
        let ConnEvent::Frame(frame) = conn.on_readable() else {
            panic!("payload completes the frame");
        };
        assert_eq!(frame.verb, Verb::Query);
        assert_eq!(frame.payload.len(), wire.len() - FRAME_HEADER_BYTES);
    }

    /// A header declaring the largest payload, then silence: the machine
    /// holds one chunk, not the 16 MiB the header declared.
    #[test]
    fn a_stalled_maximal_header_holds_one_chunk() {
        let mut wire = Request::Stats.to_frame(server_scope()).encode().as_ref().to_vec();
        wire[8..16].copy_from_slice(&crate::proto::MAX_FRAME_PAYLOAD.to_le_bytes());
        let (stream, _) = MockStream::new(vec![Step::Bytes(wire), Step::WouldBlock]);
        let mut conn = Conn::new(Box::new(stream));
        assert!(matches!(conn.on_readable(), ConnEvent::Continue), "no payload yet");
        let ConnState::ReadingPayload { header, buf, filled: 0 } = &conn.state else {
            panic!("a valid header moves to payload reading");
        };
        assert_eq!(header.payload_len, crate::proto::MAX_FRAME_PAYLOAD);
        assert!(buf.capacity() <= PAYLOAD_CHUNK, "allocated {} bytes", buf.capacity());
    }

    /// A payload several chunks long, delivered in uneven pieces with
    /// stalls between them, assembles into the frame that was sent, and
    /// the buffer never outgrows the declared length.
    #[test]
    fn a_multi_chunk_payload_in_pieces_yields_the_identical_frame() {
        let payload: Vec<u8> =
            (0..3 * PAYLOAD_CHUNK + 12_345).map(|i| (i * 7 % 251) as u8).collect();
        let sent = Frame::new(Verb::Query, server_scope(), Bytes::from(payload));
        let wire = sent.encode();
        let mut steps = Vec::new();
        let mut rest = wire.as_ref();
        for piece in [3, 40, 1, PAYLOAD_CHUNK - 1, 2, PAYLOAD_CHUNK + 17, 9_000].into_iter().cycle()
        {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            steps.push(Step::Bytes(head.to_vec()));
            steps.push(Step::WouldBlock);
            rest = tail;
        }
        let (stream, _) = MockStream::new(steps);
        let mut conn = Conn::new(Box::new(stream));
        let received = loop {
            match conn.on_readable() {
                ConnEvent::Continue => {
                    if let ConnState::ReadingPayload { buf, .. } = &conn.state {
                        assert!(buf.capacity() <= sent.payload.len(), "outgrew the payload");
                    }
                }
                ConnEvent::Frame(frame) => break frame,
                other => panic!("unexpected event {other:?}"),
            }
        };
        assert_eq!(received, sent);
    }

    #[test]
    fn garbage_header_writes_a_typed_error_and_closes() {
        let (stream, written) = MockStream::new(vec![Step::Bytes(vec![0xAB; 64])]);
        let mut conn = Conn::new(Box::new(stream));
        // The optimistic flush completes immediately, so the error frame
        // is already on the wire and the machine reports closure.
        assert!(matches!(conn.on_readable(), ConnEvent::Close));
        let bytes = written.lock().unwrap().clone();
        let frame = Frame::decode(Bytes::from(bytes)).expect("a well-formed error frame");
        let Response::Error(err) = Response::from_frame(&frame).expect("decodes") else {
            panic!("expected an error response");
        };
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.message, WireError::BadMagic.to_string());
    }

    #[test]
    fn partial_writes_backpressure_then_finish() {
        let (mut stream, written) = MockStream::new(vec![]);
        stream.write_cap = 5;
        stream.write_blocks_first = 1;
        let mut conn = Conn::new(Box::new(stream));
        // Force the machine into Dispatched so start_write is legal.
        conn.state = ConnState::Dispatched;
        let response = Response::Shutdown.to_frame(server_scope()).encode();
        assert!(
            matches!(conn.start_write(response.clone(), false), ConnEvent::Continue),
            "first write blocks — backpressure"
        );
        assert!(conn.wanted_interest().contains(Interest::WRITABLE));
        assert!(!conn.wanted_interest().contains(Interest::READABLE));
        // Each poll drains another 5 bytes until done.
        let mut events = 0;
        loop {
            events += 1;
            assert!(events < 100, "write never completed");
            match conn.on_writable() {
                ConnEvent::Continue => {}
                ConnEvent::Idle => break,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(written.lock().unwrap().as_slice(), response.as_ref());
        assert!(conn.is_idle(), "machine returned to header reading");
        assert!(conn.wanted_interest().contains(Interest::READABLE));
    }

    #[test]
    fn orderly_peer_close_reports_close() {
        let (stream, _) = MockStream::new(vec![Step::Eof]);
        let mut conn = Conn::new(Box::new(stream));
        assert!(matches!(conn.on_readable(), ConnEvent::Close));
        assert!(matches!(conn.on_readable(), ConnEvent::Close), "closed is terminal");
    }

    #[test]
    fn cancel_inflight_flips_the_attached_token_once() {
        let (stream, _) = MockStream::new(vec![]);
        let mut conn = Conn::new(Box::new(stream));
        let token = CancelToken::new();
        conn.set_cancel(token.clone());
        conn.cancel_inflight();
        assert!(token.is_cancelled());
        // Idempotent and token-consuming.
        conn.cancel_inflight();
    }
}
