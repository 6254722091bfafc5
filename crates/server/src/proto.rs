//! The `sd-wire` protocol: length-prefixed, fingerprint-routed binary
//! frames between `sd-serve` and its clients.
//!
//! Same discipline as [`sd_core::IndexBundle`]: every integer is
//! little-endian, every length field is validated before a single byte is
//! sliced or allocated, and a malformed input of *any* shape — truncation
//! at any offset, a wrong magic, a future version, an oversized length
//! prefix, an unknown verb — fails with a typed [`WireError`], never a
//! panic. The adversarial suite in `tests/wire_protocol.rs` walks every
//! one of those shapes.
//!
//! ## Frame layout
//!
//! Every message — request or response — is one frame: a fixed 40-byte
//! header followed by a verb-specific payload.
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `"SDRP"` ([`WIRE_MAGIC`]) |
//! | 4 | 2 | protocol version ([`WIRE_VERSION`]) |
//! | 6 | 1 | verb tag ([`Verb::tag`]) |
//! | 7 | 1 | reserved (zero) |
//! | 8 | 8 | payload length (≤ [`MAX_FRAME_PAYLOAD`]) |
//! | 16 | 8 | tenant fingerprint: vertex count `n` |
//! | 24 | 8 | tenant fingerprint: edge count `m` |
//! | 32 | 8 | tenant fingerprint: FNV-1a edge checksum |
//! | 40 | … | payload |
//!
//! The fingerprint routes the frame to a tenant (the
//! [`GraphFingerprint`] its service was registered under); verbs that
//! address the server itself (`Stats` in server scope, `Shutdown`) send
//! the all-zero fingerprint. Responses echo the request's fingerprint.
//!
//! The payload length cap exists so a hostile length prefix cannot make
//! the server allocate or read unboundedly: the header is rejected before
//! any payload byte is read.
//!
//! ## Verbs and payloads
//!
//! See [`Request`] / [`Response`] for the per-verb payload layouts; each
//! is documented on its struct, and `crates/server/README.md` carries the
//! full byte tables.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sd_core::{EngineKind, GraphFingerprint, QuerySpec, SearchError, TopREntry};
use sd_graph::GraphUpdate;

/// Frame magic (`"SDRP"` — Structural Diversity Request Protocol).
pub const WIRE_MAGIC: u32 = 0x5344_5250;

/// Current protocol version. Decoding rejects any other value with
/// [`WireError::UnsupportedVersion`]. Versions 2 to 6 each changed the
/// `StatsOk` layout. Version 4 retired engine tag 5 from query frames.
/// Version 5 retired overload reason 2, the build-queue shed. Version 6
/// carries 10 server-scope and 13 tenant-scope counters, and drops
/// `UpdateOk`'s TSD-carry byte: the service serves the GCT-index alone.
pub const WIRE_VERSION: u16 = 6;

/// Fixed size of the frame header preceding the payload.
pub const FRAME_HEADER_BYTES: usize = 40;

/// Hard cap on a frame's payload length. A header whose length field
/// exceeds this is rejected as [`WireError::OversizedPayload`] *before*
/// any payload byte is read or allocated.
pub const MAX_FRAME_PAYLOAD: u64 = 16 * 1024 * 1024;

/// A decode failure. Every variant is reachable from hostile input; none
/// of them panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than its own framing promises.
    Truncated,
    /// Wrong magic number — not an `sd-wire` frame.
    BadMagic,
    /// A frame written by a future (or corrupted) protocol revision.
    UnsupportedVersion {
        /// The version the frame claims.
        version: u16,
    },
    /// A verb tag this build does not know.
    UnknownVerb {
        /// The raw verb tag from the header.
        verb: u8,
    },
    /// A payload length above [`MAX_FRAME_PAYLOAD`] — rejected before any
    /// allocation.
    OversizedPayload {
        /// The length the header claims.
        len: u64,
    },
    /// Bytes after the end of the declared payload.
    TrailingBytes,
    /// A structurally well-framed payload whose contents violate the
    /// verb's invariants (unknown engine tag, unknown update op, invalid
    /// UTF-8, a count that contradicts the payload length, …).
    InvalidPayload {
        /// What was wrong, for the error report.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported protocol version {version}")
            }
            WireError::UnknownVerb { verb } => write!(f, "unknown verb tag {verb:#04x}"),
            WireError::OversizedPayload { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_FRAME_PAYLOAD}")
            }
            WireError::TrailingBytes => write!(f, "bytes after declared payload"),
            WireError::InvalidPayload { what } => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The verb of a frame. Requests use the low tag space, responses the
/// high one, so a desynchronized peer fails fast on the verb check
/// instead of misparsing a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// A batch of top-r queries against one tenant.
    Query,
    /// A batch of edge updates against one tenant.
    Update,
    /// Live counters: tenant scope (tenant fingerprint) or server scope
    /// (all-zero fingerprint).
    Stats,
    /// Begin graceful shutdown: stop accepting, drain, exit.
    Shutdown,
    /// Response to [`Verb::Query`].
    QueryOk,
    /// Response to [`Verb::Update`].
    UpdateOk,
    /// Response to [`Verb::Stats`].
    StatsOk,
    /// Response to [`Verb::Shutdown`]: draining has begun.
    ShutdownOk,
    /// A typed failure (unknown tenant, malformed payload, internal).
    Error,
    /// The request was shed by admission control; carries the measured
    /// pressure, the limit it crossed, and a retry hint.
    Overloaded,
}

impl Verb {
    /// The tag encoded in the frame header.
    pub fn tag(self) -> u8 {
        match self {
            Verb::Query => 0x01,
            Verb::Update => 0x02,
            Verb::Stats => 0x03,
            Verb::Shutdown => 0x0F,
            Verb::QueryOk => 0x81,
            Verb::UpdateOk => 0x82,
            Verb::StatsOk => 0x83,
            Verb::ShutdownOk => 0x8F,
            Verb::Error => 0xE0,
            Verb::Overloaded => 0xE1,
        }
    }

    /// Inverse of [`Self::tag`]; unknown tags return `None`.
    pub fn from_tag(tag: u8) -> Option<Verb> {
        match tag {
            0x01 => Some(Verb::Query),
            0x02 => Some(Verb::Update),
            0x03 => Some(Verb::Stats),
            0x0F => Some(Verb::Shutdown),
            0x81 => Some(Verb::QueryOk),
            0x82 => Some(Verb::UpdateOk),
            0x83 => Some(Verb::StatsOk),
            0x8F => Some(Verb::ShutdownOk),
            0xE0 => Some(Verb::Error),
            0xE1 => Some(Verb::Overloaded),
            _ => None,
        }
    }
}

/// A decoded frame header: everything before the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame's verb.
    pub verb: Verb,
    /// The tenant the frame addresses (all-zero for server-scoped verbs).
    pub fingerprint: GraphFingerprint,
    /// Declared payload length, already validated ≤ [`MAX_FRAME_PAYLOAD`].
    pub payload_len: u64,
}

/// The all-zero fingerprint, addressing the server itself rather than a
/// tenant.
pub fn server_scope() -> GraphFingerprint {
    GraphFingerprint { n: 0, m: 0, edge_checksum: 0 }
}

/// One wire frame: header plus opaque payload. [`Request`] and
/// [`Response`] give the payload its meaning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame's verb.
    pub verb: Verb,
    /// The tenant the frame addresses (all-zero for server scope).
    pub fingerprint: GraphFingerprint,
    /// The verb-specific payload bytes.
    pub payload: Bytes,
}

impl Frame {
    /// Frames `payload` under `verb` for `fingerprint`.
    pub fn new(verb: Verb, fingerprint: GraphFingerprint, payload: Bytes) -> Self {
        Frame { verb, fingerprint, payload }
    }

    /// Encodes header + payload into one buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        buf.put_u32_le(WIRE_MAGIC);
        buf.put_u16_le(WIRE_VERSION);
        buf.put_u8(self.verb.tag());
        buf.put_u8(0); // reserved
        buf.put_u64_le(self.payload.len() as u64);
        buf.put_u64_le(self.fingerprint.n);
        buf.put_u64_le(self.fingerprint.m);
        buf.put_u64_le(self.fingerprint.edge_checksum);
        buf.extend_from_slice(self.payload.as_ref());
        buf.freeze()
    }

    /// Decodes the 40-byte header alone — the streaming path: the server
    /// reads exactly [`FRAME_HEADER_BYTES`], validates them, and only then
    /// reads `payload_len` more. A hostile length prefix is rejected here,
    /// before any payload I/O or allocation.
    pub fn decode_header(header: &[u8]) -> Result<FrameHeader, WireError> {
        if header.len() < FRAME_HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let mut buf = Bytes::from(&header[..FRAME_HEADER_BYTES]);
        if buf.get_u32_le() != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { version });
        }
        let verb_tag = buf.get_u8();
        let _reserved = buf.get_u8();
        let Some(verb) = Verb::from_tag(verb_tag) else {
            return Err(WireError::UnknownVerb { verb: verb_tag });
        };
        let payload_len = buf.get_u64_le();
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(WireError::OversizedPayload { len: payload_len });
        }
        let fingerprint = GraphFingerprint {
            n: buf.get_u64_le(),
            m: buf.get_u64_le(),
            edge_checksum: buf.get_u64_le(),
        };
        Ok(FrameHeader { verb, fingerprint, payload_len })
    }

    /// Decodes one complete frame from a buffer that must contain exactly
    /// that frame: shorter inputs are [`WireError::Truncated`], longer
    /// ones [`WireError::TrailingBytes`].
    pub fn decode(blob: Bytes) -> Result<Frame, WireError> {
        let header = Self::decode_header(blob.as_ref())?;
        let total = (FRAME_HEADER_BYTES as u64).saturating_add(header.payload_len);
        if (blob.len() as u64) < total {
            return Err(WireError::Truncated);
        }
        if blob.len() as u64 > total {
            return Err(WireError::TrailingBytes);
        }
        let payload = blob.slice(FRAME_HEADER_BYTES..blob.len());
        Ok(Frame { verb: header.verb, fingerprint: header.fingerprint, payload })
    }
}

/// Fails with [`WireError::Truncated`] unless `buf` still holds `bytes`
/// more bytes — called before every fixed-width read, mirroring the
/// index-bundle decoder's length-before-slice discipline.
fn need(buf: &Bytes, bytes: usize) -> Result<(), WireError> {
    if buf.remaining() < bytes {
        return Err(WireError::Truncated);
    }
    Ok(())
}

/// Fails with [`WireError::TrailingBytes`] unless `buf` is exhausted —
/// every payload decoder ends with this, so a padded payload cannot hide
/// smuggled bytes.
fn done(buf: &Bytes) -> Result<(), WireError> {
    if buf.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.put_u16_le(len as u16);
    buf.extend_from_slice(&bytes[..len]);
}

fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    need(buf, 2)?;
    let len = buf.get_u16_le() as usize;
    need(buf, len)?;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(buf.get_u8());
    }
    String::from_utf8(bytes).map_err(|_| WireError::InvalidPayload { what: "non-UTF-8 string" })
}

// ---------------------------------------------------------------------------
// Requests

/// One query inside a [`QueryRequest`] frame: 13 bytes on the wire —
/// `k: u32`, `r: u64`, engine tag `u8` (0 routes [`EngineKind::Auto`]).
/// Every [`EngineKind`] decodes, but a server serves only
/// [`sd_core::SearchService::SERVED`] (GCT) and Auto: a query for Online, Bound or
/// TSD (tags 1, 2 and 3) is answered [`QueryOutcome::Failed`] with
/// [`ErrorCode::BadRequest`], and the frame's other queries still run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireQuery {
    /// Trussness threshold (the paper's `k ≥ 2`).
    pub k: u32,
    /// Result size.
    pub r: u64,
    /// Engine to route to; [`EngineKind::Auto`] lets the service decide.
    pub engine: EngineKind,
}

impl WireQuery {
    /// A query routed by [`EngineKind::Auto`].
    pub fn new(k: u32, r: u64) -> Self {
        WireQuery { k, r, engine: EngineKind::Auto }
    }

    /// Resolves into the service's spec type; fails (as the service
    /// would) on `k < 2`, `r == 0`, or an `r` beyond `usize`.
    pub fn to_spec(self) -> Result<QuerySpec, SearchError> {
        let r = usize::try_from(self.r).map_err(|_| SearchError::InvalidR)?;
        Ok(QuerySpec::new(self.k, r)?.with_engine(self.engine))
    }
}

/// Payload of [`Verb::Query`]: `deadline_ms u32` (0 = none), `count u16`,
/// then `count` × [`WireQuery`]. Every query in the frame shares the
/// deadline, measured by the server from frame receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Per-request deadline in milliseconds from server receipt; 0 means
    /// none. Queries still pending when it expires come back
    /// [`QueryOutcome::Expired`] — a partial batch, not a dropped one.
    pub deadline_ms: u32,
    /// The queries, answered in order.
    pub queries: Vec<WireQuery>,
}

impl QueryRequest {
    /// Encodes the payload (header not included).
    pub fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(6 + self.queries.len() * 13);
        buf.put_u32_le(self.deadline_ms);
        buf.put_u16_le(self.queries.len().min(u16::MAX as usize) as u16);
        for q in self.queries.iter().take(u16::MAX as usize) {
            buf.put_u32_le(q.k);
            buf.put_u64_le(q.r);
            buf.put_u8(q.engine.tag());
        }
        buf.freeze()
    }

    /// Decodes a payload, validating the count against the bytes actually
    /// present before any allocation.
    pub fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 6)?;
        let deadline_ms = buf.get_u32_le();
        let count = buf.get_u16_le() as usize;
        need(&buf, count.saturating_mul(13))?;
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            let k = buf.get_u32_le();
            let r = buf.get_u64_le();
            let tag = buf.get_u8();
            let engine = if tag == 0 {
                EngineKind::Auto
            } else {
                EngineKind::from_tag(tag)
                    .ok_or(WireError::InvalidPayload { what: "unknown engine tag" })?
            };
            queries.push(WireQuery { k, r, engine });
        }
        done(&buf)?;
        Ok(QueryRequest { deadline_ms, queries })
    }
}

/// Payload of [`Verb::Update`]: `count u32`, then `count` × 9-byte update
/// (`op u8` — 1 insert, 2 remove — then `u u32`, `v u32`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateRequest {
    /// The edge updates, applied as one
    /// [`sd_core::SearchService::apply_updates`] batch (one new epoch).
    pub updates: Vec<GraphUpdate>,
}

impl UpdateRequest {
    /// Encodes the payload (header not included).
    pub fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.updates.len() * 9);
        buf.put_u32_le(self.updates.len().min(u32::MAX as usize) as u32);
        for upd in &self.updates {
            let (op, u, v) = match *upd {
                GraphUpdate::Insert { u, v } => (1u8, u, v),
                GraphUpdate::Remove { u, v } => (2u8, u, v),
            };
            buf.put_u8(op);
            buf.put_u32_le(u);
            buf.put_u32_le(v);
        }
        buf.freeze()
    }

    /// Decodes a payload, count-validated before allocation.
    pub fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 4)?;
        let count = buf.get_u32_le() as usize;
        need(&buf, count.saturating_mul(9))?;
        let mut updates = Vec::with_capacity(count);
        for _ in 0..count {
            let op = buf.get_u8();
            let u = buf.get_u32_le();
            let v = buf.get_u32_le();
            updates.push(match op {
                1 => GraphUpdate::Insert { u, v },
                2 => GraphUpdate::Remove { u, v },
                _ => return Err(WireError::InvalidPayload { what: "unknown update op" }),
            });
        }
        done(&buf)?;
        Ok(UpdateRequest { updates })
    }
}

/// A decoded request frame: verb + payload, with the routing fingerprint
/// alongside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A [`Verb::Query`] frame.
    Query(QueryRequest),
    /// A [`Verb::Update`] frame.
    Update(UpdateRequest),
    /// A [`Verb::Stats`] frame (empty payload).
    Stats,
    /// A [`Verb::Shutdown`] frame (empty payload).
    Shutdown,
}

impl Request {
    /// Frames this request for `fingerprint`.
    pub fn to_frame(&self, fingerprint: GraphFingerprint) -> Frame {
        let (verb, payload) = match self {
            Request::Query(q) => (Verb::Query, q.encode_payload()),
            Request::Update(u) => (Verb::Update, u.encode_payload()),
            Request::Stats => (Verb::Stats, Bytes::new()),
            Request::Shutdown => (Verb::Shutdown, Bytes::new()),
        };
        Frame::new(verb, fingerprint, payload)
    }

    /// Interprets a frame as a request. Response verbs are
    /// [`WireError::UnknownVerb`] here: a server never accepts them.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        match frame.verb {
            Verb::Query => Ok(Request::Query(QueryRequest::decode_payload(frame.payload.clone())?)),
            Verb::Update => {
                Ok(Request::Update(UpdateRequest::decode_payload(frame.payload.clone())?))
            }
            Verb::Stats => {
                done(&frame.payload)?;
                Ok(Request::Stats)
            }
            Verb::Shutdown => {
                done(&frame.payload)?;
                Ok(Request::Shutdown)
            }
            other => Err(WireError::UnknownVerb { verb: other.tag() }),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses

/// Why a request was shed, inside [`Response::Overloaded`]. Tag 2, the
/// retired build-queue shed, is never reused: decoders refuse it like any
/// unassigned byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The connection limit was reached; the new connection was refused.
    Connections,
    /// The tenant's query-coalescing accumulator was full.
    QueryQueue,
}

impl OverloadReason {
    fn tag(self) -> u8 {
        match self {
            OverloadReason::Connections => 1,
            OverloadReason::QueryQueue => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(OverloadReason::Connections),
            3 => Some(OverloadReason::QueryQueue),
            _ => None,
        }
    }
}

/// Payload of [`Verb::Overloaded`]: `reason u8`, `measured u64`,
/// `limit u64`, `retry_after_ms u32` — the typed shed response. The
/// request it answers was **not** executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadInfo {
    /// Which limit was crossed.
    pub reason: OverloadReason,
    /// The pressure measured at admission time.
    pub measured: u64,
    /// The configured limit it crossed.
    pub limit: u64,
    /// Client retry hint, in milliseconds.
    pub retry_after_ms: u32,
}

impl OverloadInfo {
    fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(21);
        buf.put_u8(self.reason.tag());
        buf.put_u64_le(self.measured);
        buf.put_u64_le(self.limit);
        buf.put_u32_le(self.retry_after_ms);
        buf.freeze()
    }

    fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 21)?;
        let reason = OverloadReason::from_tag(buf.get_u8())
            .ok_or(WireError::InvalidPayload { what: "unknown overload reason" })?;
        let info = OverloadInfo {
            reason,
            measured: buf.get_u64_le(),
            limit: buf.get_u64_le(),
            retry_after_ms: buf.get_u32_le(),
        };
        done(&buf)?;
        Ok(info)
    }
}

/// Error class inside [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame's fingerprint routes to no registered tenant.
    UnknownTenant,
    /// The payload decoded but was semantically unusable.
    BadRequest,
    /// The server failed internally while executing the request.
    Internal,
    /// The server is draining and no longer accepts new work.
    Draining,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::UnknownTenant => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
            ErrorCode::Draining => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ErrorCode::UnknownTenant),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::Internal),
            4 => Some(ErrorCode::Draining),
            _ => None,
        }
    }
}

/// Payload of [`Verb::Error`]: `code u8`, then a length-prefixed UTF-8
/// message (`len u16`, bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorResponse {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorResponse {
    fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(3 + self.message.len());
        buf.put_u8(self.code.tag());
        put_str(&mut buf, &self.message);
        buf.freeze()
    }

    fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 1)?;
        let code = ErrorCode::from_tag(buf.get_u8())
            .ok_or(WireError::InvalidPayload { what: "unknown error code" })?;
        let message = get_str(&mut buf)?;
        done(&buf)?;
        Ok(ErrorResponse { code, message })
    }
}

/// Per-query outcome inside a [`QueryResponse`] — `status u8` on the
/// wire: 0 answered, 1 failed, 2 deadline-expired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query ran; the entries are exactly the in-process
    /// [`sd_core::TopRResult`] entries for the response's epoch.
    Answered(Vec<TopREntry>),
    /// The query failed (e.g. `r` beyond the tenant's vertex count);
    /// siblings in the same frame still ran.
    Failed {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The request deadline expired before this query ran — the partial-
    /// batch marker.
    Expired,
}

/// Payload of [`Verb::QueryOk`]: `epoch u64`, `count u16`, then `count`
/// outcomes. An answered outcome is `0u8`, `entry_count u32`, then per
/// entry `vertex u32`, `score u32`, `context_count u32`, and per context
/// `len u32` + `len` × `u32` vertex ids — the exact in-process
/// [`TopREntry`] contents, so loopback answers compare with `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResponse {
    /// The epoch every answered query in this response was pinned to —
    /// reported by [`sd_core::SearchService::top_r_many`], so it is
    /// exact, not sampled.
    pub epoch: u64,
    /// One outcome per request query, in request order.
    pub outcomes: Vec<QueryOutcome>,
}

impl QueryResponse {
    fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.epoch);
        buf.put_u16_le(self.outcomes.len().min(u16::MAX as usize) as u16);
        for outcome in self.outcomes.iter().take(u16::MAX as usize) {
            match outcome {
                QueryOutcome::Answered(entries) => {
                    buf.put_u8(0);
                    buf.put_u32_le(entries.len().min(u32::MAX as usize) as u32);
                    for e in entries {
                        buf.put_u32_le(e.vertex);
                        buf.put_u32_le(e.score);
                        buf.put_u32_le(e.contexts.len().min(u32::MAX as usize) as u32);
                        for ctx in &e.contexts {
                            buf.put_u32_le(ctx.len().min(u32::MAX as usize) as u32);
                            for &v in ctx {
                                buf.put_u32_le(v);
                            }
                        }
                    }
                }
                QueryOutcome::Failed { code, message } => {
                    buf.put_u8(1);
                    buf.put_u8(code.tag());
                    put_str(&mut buf, message);
                }
                QueryOutcome::Expired => buf.put_u8(2),
            }
        }
        buf.freeze()
    }

    fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 10)?;
        let epoch = buf.get_u64_le();
        let count = buf.get_u16_le() as usize;
        let mut outcomes = Vec::with_capacity(count.min(buf.remaining()));
        for _ in 0..count {
            need(&buf, 1)?;
            match buf.get_u8() {
                0 => {
                    need(&buf, 4)?;
                    let entry_count = buf.get_u32_le() as usize;
                    // Each entry is ≥ 12 bytes; bound before allocating.
                    need(&buf, entry_count.saturating_mul(12))?;
                    let mut entries = Vec::with_capacity(entry_count);
                    for _ in 0..entry_count {
                        need(&buf, 12)?;
                        let vertex = buf.get_u32_le();
                        let score = buf.get_u32_le();
                        let ctx_count = buf.get_u32_le() as usize;
                        need(&buf, ctx_count.saturating_mul(4))?;
                        let mut contexts = Vec::with_capacity(ctx_count);
                        for _ in 0..ctx_count {
                            need(&buf, 4)?;
                            let len = buf.get_u32_le() as usize;
                            need(&buf, len.saturating_mul(4))?;
                            let mut ctx = Vec::with_capacity(len);
                            for _ in 0..len {
                                ctx.push(buf.get_u32_le());
                            }
                            contexts.push(ctx);
                        }
                        entries.push(TopREntry { vertex, score, contexts });
                    }
                    outcomes.push(QueryOutcome::Answered(entries));
                }
                1 => {
                    need(&buf, 1)?;
                    let code = ErrorCode::from_tag(buf.get_u8())
                        .ok_or(WireError::InvalidPayload { what: "unknown error code" })?;
                    let message = get_str(&mut buf)?;
                    outcomes.push(QueryOutcome::Failed { code, message });
                }
                2 => outcomes.push(QueryOutcome::Expired),
                _ => return Err(WireError::InvalidPayload { what: "unknown outcome status" }),
            }
        }
        done(&buf)?;
        Ok(QueryResponse { epoch, outcomes })
    }
}

/// Payload of [`Verb::UpdateOk`] — the [`sd_core::UpdateStats`] of the
/// applied batch: `epoch u64`, `applied u64`, `rejected u64`,
/// `tsd_repairs u64`, `n u64`, `m u64`. `n`/`m` let the
/// updater track the tenant's *current* fingerprint shape; routing stays
/// keyed by the registration fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateResponse {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Updates that changed the graph.
    pub applied: u64,
    /// Rejected updates: no-ops (duplicate inserts, absent removes,
    /// self-loops) and ops naming a vertex past the batch's growth bound.
    pub rejected: u64,
    /// Ego-networks the batch touched, `2 + |N(u) ∩ N(v)|` per applied
    /// update ([`sd_core::UpdateStats::tsd_repairs`]).
    pub tsd_repairs: u64,
    /// Vertex count after the batch.
    pub n: u64,
    /// Edge count after the batch.
    pub m: u64,
}

impl UpdateResponse {
    fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(48);
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.applied);
        buf.put_u64_le(self.rejected);
        buf.put_u64_le(self.tsd_repairs);
        buf.put_u64_le(self.n);
        buf.put_u64_le(self.m);
        buf.freeze()
    }

    fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 48)?;
        let resp = UpdateResponse {
            epoch: buf.get_u64_le(),
            applied: buf.get_u64_le(),
            rejected: buf.get_u64_le(),
            tsd_repairs: buf.get_u64_le(),
            n: buf.get_u64_le(),
            m: buf.get_u64_le(),
        };
        done(&buf)?;
        Ok(resp)
    }
}

/// Server-scope counters inside [`StatsResponse::Server`] — 10 × `u64`
/// after the scope byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsWire {
    /// Registered tenants.
    pub tenants: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections accepted over the server's lifetime (shed ones
    /// included).
    pub accepted_connections: u64,
    /// Request frames answered: responses started on a connection still
    /// open. A response whose peer has hung up is discarded uncounted.
    pub requests_served: u64,
    /// Queries that went through tenant batchers.
    pub queries_batched: u64,
    /// `top_r_many` batches those queries coalesced into.
    pub batches_executed: u64,
    /// Requests shed by admission control (all reasons).
    pub shed_overload: u64,
    /// Batched queries answered `Dropped` because their
    /// [`sd_core::CancelToken`] was cancelled before their batch slot ran
    /// (a client disconnect is the only cancel source).
    pub cancelled: u64,
    /// Worker threads alive in the process-wide pool.
    pub pool_threads: u64,
    /// Jobs queued (not yet running) in the process-wide pool.
    pub pool_queued_jobs: u64,
}

/// Tenant-scope counters inside [`StatsResponse::Tenant`] — 13 × `u64`
/// after the scope byte: the tenant's *current* fingerprint (which drifts
/// from its routing key as updates land), its epoch, and its
/// [`sd_core::ServiceStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStatsWire {
    /// Fingerprint of the current epoch's graph.
    pub fingerprint: GraphFingerprint,
    /// Current epoch number.
    pub epoch: u64,
    /// Queries served.
    pub queries_served: u64,
    /// Engines constructed (any path).
    pub engines_built: u64,
    /// Builds that a scheduled worker-pool job ran.
    pub background_builds: u64,
    /// Queries that found their index unbuilt and joined its build.
    pub foreground_fallbacks: u64,
    /// Epochs published (update batches).
    pub epochs: u64,
    /// Individual updates applied.
    pub updates_applied: u64,
    /// GCT entries repaired in place across epoch publishes.
    pub gct_repairs: u64,
    /// Queries answered through the parallel fan-out path.
    pub parallel_queries: u64,
    /// Worker threads alive in the tenant's pool.
    pub pool_threads: u64,
}

/// Payload of [`Verb::StatsOk`]: `scope u8` (0 server, 1 tenant), then
/// the fixed-width scope struct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatsResponse {
    /// Whole-server counters (requested with the all-zero fingerprint).
    Server(ServerStatsWire),
    /// One tenant's counters (requested with its routing fingerprint).
    Tenant(TenantStatsWire),
}

impl StatsResponse {
    fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            StatsResponse::Server(s) => {
                buf.put_u8(0);
                for v in [
                    s.tenants,
                    s.active_connections,
                    s.accepted_connections,
                    s.requests_served,
                    s.queries_batched,
                    s.batches_executed,
                    s.shed_overload,
                    s.cancelled,
                    s.pool_threads,
                    s.pool_queued_jobs,
                ] {
                    buf.put_u64_le(v);
                }
            }
            StatsResponse::Tenant(t) => {
                buf.put_u8(1);
                for v in [
                    t.fingerprint.n,
                    t.fingerprint.m,
                    t.fingerprint.edge_checksum,
                    t.epoch,
                    t.queries_served,
                    t.engines_built,
                    t.background_builds,
                    t.foreground_fallbacks,
                    t.epochs,
                    t.updates_applied,
                    t.gct_repairs,
                    t.parallel_queries,
                    t.pool_threads,
                ] {
                    buf.put_u64_le(v);
                }
            }
        }
        buf.freeze()
    }

    fn decode_payload(mut buf: Bytes) -> Result<Self, WireError> {
        need(&buf, 1)?;
        match buf.get_u8() {
            0 => {
                need(&buf, 10 * 8)?;
                let s = StatsResponse::Server(ServerStatsWire {
                    tenants: buf.get_u64_le(),
                    active_connections: buf.get_u64_le(),
                    accepted_connections: buf.get_u64_le(),
                    requests_served: buf.get_u64_le(),
                    queries_batched: buf.get_u64_le(),
                    batches_executed: buf.get_u64_le(),
                    shed_overload: buf.get_u64_le(),
                    cancelled: buf.get_u64_le(),
                    pool_threads: buf.get_u64_le(),
                    pool_queued_jobs: buf.get_u64_le(),
                });
                done(&buf)?;
                Ok(s)
            }
            1 => {
                // 3 fingerprint words, the epoch, then 9 counters.
                need(&buf, 13 * 8)?;
                let fingerprint = GraphFingerprint {
                    n: buf.get_u64_le(),
                    m: buf.get_u64_le(),
                    edge_checksum: buf.get_u64_le(),
                };
                let t = TenantStatsWire {
                    fingerprint,
                    epoch: buf.get_u64_le(),
                    queries_served: buf.get_u64_le(),
                    engines_built: buf.get_u64_le(),
                    background_builds: buf.get_u64_le(),
                    foreground_fallbacks: buf.get_u64_le(),
                    epochs: buf.get_u64_le(),
                    updates_applied: buf.get_u64_le(),
                    gct_repairs: buf.get_u64_le(),
                    parallel_queries: buf.get_u64_le(),
                    pool_threads: buf.get_u64_le(),
                };
                done(&buf)?;
                Ok(StatsResponse::Tenant(t))
            }
            _ => Err(WireError::InvalidPayload { what: "unknown stats scope" }),
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A [`Verb::QueryOk`] frame.
    Query(QueryResponse),
    /// A [`Verb::UpdateOk`] frame.
    Update(UpdateResponse),
    /// A [`Verb::StatsOk`] frame.
    Stats(StatsResponse),
    /// A [`Verb::ShutdownOk`] frame.
    Shutdown,
    /// A [`Verb::Error`] frame.
    Error(ErrorResponse),
    /// A [`Verb::Overloaded`] frame.
    Overloaded(OverloadInfo),
}

impl Response {
    /// The verb this response is framed under.
    pub fn verb(&self) -> Verb {
        match self {
            Response::Query(_) => Verb::QueryOk,
            Response::Update(_) => Verb::UpdateOk,
            Response::Stats(_) => Verb::StatsOk,
            Response::Shutdown => Verb::ShutdownOk,
            Response::Error(_) => Verb::Error,
            Response::Overloaded(_) => Verb::Overloaded,
        }
    }

    /// Frames this response, echoing the request's `fingerprint`.
    pub fn to_frame(&self, fingerprint: GraphFingerprint) -> Frame {
        let payload = match self {
            Response::Query(q) => q.encode_payload(),
            Response::Update(u) => u.encode_payload(),
            Response::Stats(s) => s.encode_payload(),
            Response::Shutdown => Bytes::new(),
            Response::Error(e) => e.encode_payload(),
            Response::Overloaded(o) => o.encode_payload(),
        };
        Frame::new(self.verb(), fingerprint, payload)
    }

    /// Interprets a frame as a response. Request verbs are
    /// [`WireError::UnknownVerb`] here: a client never accepts them.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        match frame.verb {
            Verb::QueryOk => {
                Ok(Response::Query(QueryResponse::decode_payload(frame.payload.clone())?))
            }
            Verb::UpdateOk => {
                Ok(Response::Update(UpdateResponse::decode_payload(frame.payload.clone())?))
            }
            Verb::StatsOk => {
                Ok(Response::Stats(StatsResponse::decode_payload(frame.payload.clone())?))
            }
            Verb::ShutdownOk => {
                done(&frame.payload)?;
                Ok(Response::Shutdown)
            }
            Verb::Error => {
                Ok(Response::Error(ErrorResponse::decode_payload(frame.payload.clone())?))
            }
            Verb::Overloaded => {
                Ok(Response::Overloaded(OverloadInfo::decode_payload(frame.payload.clone())?))
            }
            other => Err(WireError::UnknownVerb { verb: other.tag() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> GraphFingerprint {
        GraphFingerprint { n: seed, m: seed * 2 + 1, edge_checksum: seed ^ 0xDEAD_BEEF }
    }

    #[test]
    fn verb_tags_round_trip() {
        for verb in [
            Verb::Query,
            Verb::Update,
            Verb::Stats,
            Verb::Shutdown,
            Verb::QueryOk,
            Verb::UpdateOk,
            Verb::StatsOk,
            Verb::ShutdownOk,
            Verb::Error,
            Verb::Overloaded,
        ] {
            assert_eq!(Verb::from_tag(verb.tag()), Some(verb));
        }
        assert_eq!(Verb::from_tag(0x00), None);
        assert_eq!(Verb::from_tag(0x42), None);
    }

    #[test]
    fn frame_round_trips_header_and_payload() {
        let frame = Frame::new(Verb::Query, fp(7), Bytes::from(vec![1, 2, 3, 4, 5]));
        let decoded = Frame::decode(frame.encode()).expect("round trip");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn query_request_round_trips() {
        let req = QueryRequest {
            deadline_ms: 250,
            queries: vec![
                WireQuery::new(3, 5),
                WireQuery { k: 4, r: 10, engine: EngineKind::Online },
                WireQuery { k: 2, r: 1, engine: EngineKind::Gct },
            ],
        };
        let decoded = QueryRequest::decode_payload(req.encode_payload()).expect("round trip");
        assert_eq!(decoded, req);
    }

    #[test]
    fn update_request_round_trips() {
        let req = UpdateRequest {
            updates: vec![GraphUpdate::Insert { u: 1, v: 9 }, GraphUpdate::Remove { u: 0, v: 3 }],
        };
        let decoded = UpdateRequest::decode_payload(req.encode_payload()).expect("round trip");
        assert_eq!(decoded, req);
    }

    #[test]
    fn every_response_round_trips_through_frames() {
        let responses = vec![
            Response::Query(QueryResponse {
                epoch: 4,
                outcomes: vec![
                    QueryOutcome::Answered(vec![TopREntry {
                        vertex: 3,
                        score: 2,
                        contexts: vec![vec![1, 2, 3], vec![4]],
                    }]),
                    QueryOutcome::Failed {
                        code: ErrorCode::BadRequest,
                        message: "r exceeds n".into(),
                    },
                    QueryOutcome::Expired,
                ],
            }),
            Response::Update(UpdateResponse {
                epoch: 9,
                applied: 3,
                rejected: 1,
                tsd_repairs: 17,
                n: 100,
                m: 412,
            }),
            Response::Stats(StatsResponse::Server(ServerStatsWire {
                tenants: 2,
                active_connections: 5,
                accepted_connections: 19,
                requests_served: 120,
                queries_batched: 340,
                batches_executed: 41,
                shed_overload: 3,
                cancelled: 2,
                pool_threads: 8,
                pool_queued_jobs: 0,
            })),
            Response::Stats(StatsResponse::Tenant(TenantStatsWire {
                fingerprint: fp(11),
                epoch: 6,
                queries_served: 77,
                engines_built: 3,
                background_builds: 2,
                foreground_fallbacks: 1,
                epochs: 6,
                updates_applied: 44,
                gct_repairs: 39,
                parallel_queries: 70,
                pool_threads: 4,
            })),
            Response::Shutdown,
            Response::Error(ErrorResponse {
                code: ErrorCode::UnknownTenant,
                message: "no such tenant".into(),
            }),
            Response::Overloaded(OverloadInfo {
                reason: OverloadReason::QueryQueue,
                measured: 71,
                limit: 64,
                retry_after_ms: 50,
            }),
        ];
        for resp in responses {
            let frame = resp.to_frame(fp(11));
            assert_eq!(resp.verb(), frame.verb);
            let wire = frame.encode();
            let back = Response::from_frame(&Frame::decode(wire).expect("frame")).expect("payload");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn every_request_round_trips_through_frames() {
        let requests = vec![
            Request::Query(QueryRequest { deadline_ms: 0, queries: vec![WireQuery::new(2, 3)] }),
            Request::Update(UpdateRequest { updates: vec![GraphUpdate::Insert { u: 0, v: 1 }] }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let frame = req.to_frame(fp(5));
            let back =
                Request::from_frame(&Frame::decode(frame.encode()).expect("frame")).expect("req");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn wire_query_resolves_to_spec() {
        let spec = WireQuery { k: 3, r: 5, engine: EngineKind::Bound }.to_spec().expect("valid");
        assert_eq!((spec.k(), spec.r(), spec.engine()), (3, 5, EngineKind::Bound));
        assert!(WireQuery::new(1, 5).to_spec().is_err(), "k < 2 rejected");
        assert!(WireQuery::new(3, 0).to_spec().is_err(), "r = 0 rejected");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_payload() {
        let mut bytes = Frame::new(Verb::Query, fp(1), Bytes::new()).encode().as_ref().to_vec();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode_header(&bytes),
            Err(WireError::OversizedPayload { len: u64::MAX })
        );
    }

    #[test]
    fn server_scope_fingerprint_is_all_zero() {
        let fp = server_scope();
        assert_eq!((fp.n, fp.m, fp.edge_checksum), (0, 0, 0));
    }
}
