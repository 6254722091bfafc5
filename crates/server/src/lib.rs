//! `sd-server`: the network front-end for the structural diversity
//! serving stack.
//!
//! [`sd_core::SearchService`] answers top-r structural diversity queries
//! (Huang, Huang & Xu, ICDE 2021) in-process. This crate puts it behind
//! an **event-driven** network front-end speaking **`sd-wire`**, a
//! length-prefixed binary frame protocol with the same adversarial
//! decode discipline as the on-disk [`sd_core::IndexBundle`]: magic,
//! version, fingerprint routing, and every length validated before it
//! is trusted.
//!
//! The serving pipeline, front to back:
//!
//! - [`proto`] — the wire format: [`Frame`] headers,
//!   request/response payloads, typed [`WireError`]s.
//! - [`transport`] — the byte-pipe seam: [`Transport`] accepts,
//!   [`TransportStream`] carries one connection; [`TcpTransport`] is
//!   today's implementation, TLS-shaped tomorrow's.
//! - [`conn`] — the per-connection state machine ([`Conn`]): header →
//!   payload → dispatched → writing, advanced one non-blocking step per
//!   readiness event.
//! - [`server`] — the readiness-loop front-end: a fixed set of
//!   `sd-io-{i}` threads multiplexing every connection over epoll, with
//!   graceful draining that answers every accepted request.
//! - [`registry`] — multi-tenant routing: one service per graph, keyed by
//!   the [`GraphFingerprint`](sd_core::GraphFingerprint) it was
//!   registered under.
//! - [`batch`] — group-commit query coalescing: concurrent connections'
//!   queries flush as one [`top_r_many`](sd_core::SearchService::top_r_many)
//!   fan-out on the shared worker pool, with completion callbacks back
//!   to the I/O loops and [`CancelToken`]-based disconnect cancellation.
//! - [`admission`] — typed load shedding: connection and query-queue
//!   pressure both answer [`Overloaded`](proto::Response::Overloaded),
//!   never a hang.
//! - [`client`] — a small blocking client ([`ClientConfig`]: timeouts,
//!   retry-on-overload), used by the loopback tests and
//!   `sd-serve selftest`.
//!
//! Locking: the server's three lock classes (`server.tenants`,
//! `server.io`, `server.batch`) rank below every service-layer class in
//! [`sd_core::lock_order`], so an I/O loop may hold server state across
//! any `SearchService` entry point; the `lock-order-check` sentinel
//! enforces it at runtime.

pub mod admission;
pub mod batch;
pub mod client;
pub mod conn;
mod io;
pub mod proto;
pub mod registry;
pub mod server;
pub mod transport;

pub use admission::AdmissionLimits;
pub use batch::{BatchLimits, BatchReply, BatchStats, Batcher, QueueFull};
pub use client::{Client, ClientConfig, ServeError};
pub use conn::{Conn, ConnEvent};
pub use proto::{
    server_scope, ErrorCode, ErrorResponse, Frame, OverloadInfo, OverloadReason, QueryOutcome,
    QueryRequest, QueryResponse, Request, Response, ServerStatsWire, StatsResponse,
    TenantStatsWire, UpdateRequest, UpdateResponse, Verb, WireError, WireQuery, FRAME_HEADER_BYTES,
    MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
pub use registry::{Tenant, TenantRegistry};
pub use sd_core::CancelToken;
pub use server::{DrainReport, Server, ServerConfig};
pub use transport::{TcpTransport, Transport, TransportStream};
