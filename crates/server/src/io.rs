//! The readiness loops: a fixed set of `sd-io-{i}` threads multiplexing
//! every client connection over one [`polling::Poller`] each.
//!
//! ## Shape
//!
//! Each I/O thread owns a poller, a [`Waker`], and a private table of
//! the [`Conn`]s assigned to it — the table is thread-local state, never
//! locked. Thread 0 additionally owns the [`Transport`] and accepts;
//! accepted connections are handed round-robin to their owning thread
//! through that thread's [`IoHandle`] — a small mutex-protected command
//! queue (`server.io` in the lock hierarchy) plus the waker. Commands
//! are how *everything* external reaches a loop: adoption, query/update
//! completions, drain control. The queue lock is only ever taken with
//! an otherwise-empty held set (push, drop, wake), so it cannot deadlock
//! against anything.
//!
//! ## No blocking, ever
//!
//! An I/O thread never blocks outside `Poller::wait`: reads and writes
//! stop at `WouldBlock` (the [`Conn`] state machine resumes them on the
//! next readiness event), and query work is dispatched **asynchronously**
//! onto the tenant's batcher — the reply comes back as an
//! [`IoCmd::Complete`] posted by the batch leader's completion callback
//! from a worker-pool thread. Updates, which run the epoch publish
//! machinery and may block on the updater lock, get a short-lived
//! dedicated thread for the same reason. The worker pool itself is
//! never borrowed by I/O: with a one-thread pool, a blocking I/O thread
//! inside it would deadlock the very batches it is waiting on.
//!
//! ## Disconnect cancellation
//!
//! While a frame is dispatched, the connection's interest narrows to
//! peer-hangup only. If the poller then reports the peer gone, the loop
//! flips the frame's [`CancelToken`] and closes the connection: queries
//! still parked (or already coalesced into a batch) are skipped at
//! their batch-slot boundary and counted `cancelled` instead of burning
//! pool time for a reader that no longer exists. The late `Complete` that the batcher still posts finds the
//! connection gone and is discarded.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use polling::{Event, Events, Interest, Poller, Waker};
use sd_core::lock_order::SERVER_IO;
use sd_core::{CancelToken, SearchError};

use crate::batch::BatchReply;
use crate::conn::{Conn, ConnEvent};
use crate::proto::{
    server_scope, ErrorCode, ErrorResponse, Frame, QueryOutcome, QueryRequest, QueryResponse,
    Request, Response, UpdateResponse,
};
use crate::server::ServerShared;
use crate::transport::{Transport, TransportStream};

/// Poller key of a loop's waker.
const WAKER_KEY: u64 = u64::MAX;
/// Poller key of the listener (thread 0 only).
pub(crate) const LISTENER_KEY: u64 = u64::MAX - 1;

/// A command posted into an I/O loop from outside it.
pub(crate) enum IoCmd {
    /// Take ownership of an accepted connection under the given id.
    Adopt(Box<dyn TransportStream>, u64),
    /// A dispatched frame's response is ready: write it.
    Complete {
        /// The connection the response belongs to.
        conn: u64,
        /// The encoded response frame.
        bytes: Bytes,
        /// Close once flushed (the `Shutdown` ack).
        close_after: bool,
    },
    /// Draining began: stop accepting, close idle connections.
    Drain,
    /// The grace period expired: close everything, answered or not.
    ForceCloseAll,
    /// Exit the loop (sent after the last connection is gone).
    Stop,
}

/// One I/O thread's inbox: the only way other threads talk to it.
pub(crate) struct IoHandle {
    queue: Mutex<Vec<IoCmd>>,
    waker: Waker,
}

impl IoHandle {
    pub(crate) fn new(poller: &Poller) -> std::io::Result<IoHandle> {
        Ok(IoHandle { queue: SERVER_IO.mutex(Vec::new()), waker: Waker::new(poller, WAKER_KEY)? })
    }

    /// Posts `cmd` and wakes the loop. Safe from any thread; takes only
    /// the `server.io` leaf lock.
    pub(crate) fn post(&self, cmd: IoCmd) {
        self.queue.lock().push(cmd); // lock: server.io
        let _ = self.waker.wake();
    }

    fn take_all(&self) -> Vec<IoCmd> {
        std::mem::take(&mut *self.queue.lock()) // lock: server.io
    }
}

/// One connection as the loop tracks it: the state machine plus the
/// interest currently armed in the poller.
pub(crate) struct ConnEntry {
    conn: Conn,
    armed: Interest,
}

/// The per-thread loop state. Constructed by [`crate::Server`], consumed
/// by [`IoLoop::run`] on the `sd-io-{index}` thread.
pub(crate) struct IoLoop {
    pub(crate) index: usize,
    pub(crate) poller: Poller,
    pub(crate) handle: Arc<IoHandle>,
    pub(crate) shared: Arc<ServerShared>,
    /// Thread 0 owns the transport; everyone else has `None`.
    pub(crate) transport: Option<Box<dyn Transport>>,
    pub(crate) conns: HashMap<u64, ConnEntry>,
}

impl IoLoop {
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let mut stopping = false;
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                return; // the epoll fd itself failed; nothing to salvage
            }
            let mut accept_ready = false;
            let mut ready: Vec<Event> = Vec::new();
            for event in events.iter() {
                match event.key() {
                    WAKER_KEY => self.handle.waker.drain(),
                    LISTENER_KEY => accept_ready = true,
                    _ => ready.push(event),
                }
            }
            for cmd in self.handle.take_all() {
                match cmd {
                    IoCmd::Adopt(stream, id) => self.adopt(stream, id),
                    IoCmd::Complete { conn, bytes, close_after } => {
                        self.complete(conn, bytes, close_after);
                    }
                    IoCmd::Drain => self.begin_drain(),
                    IoCmd::ForceCloseAll => {
                        let keys: Vec<u64> = self.conns.keys().copied().collect();
                        for key in keys {
                            if let Some(entry) = self.conns.get_mut(&key) {
                                entry.conn.cancel_inflight();
                            }
                            self.close(key);
                        }
                    }
                    IoCmd::Stop => stopping = true,
                }
            }
            for event in ready {
                self.ready(event.key(), event);
            }
            if accept_ready {
                self.accept_all();
            }
            if stopping && self.conns.is_empty() {
                return;
            }
        }
    }

    /// Drains the accept backlog (thread 0 only; level-triggered, so an
    /// unfinished backlog re-reports next wait).
    fn accept_all(&mut self) {
        loop {
            let accepted = match &self.transport {
                Some(transport) => transport.accept(),
                None => return,
            };
            match accepted {
                Ok(Some(stream)) => self.admit(stream),
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    /// Admission control at the accept edge, mirroring the blocking
    /// server: count the accept, shed with a typed `Overloaded` frame
    /// when over the connection cap, otherwise claim the gauge slot and
    /// hand the stream to its owning loop.
    fn admit(&mut self, stream: Box<dyn TransportStream>) {
        let shared = Arc::clone(&self.shared);
        let id = shared.accepted_connections.fetch_add(1, Ordering::Relaxed) + 1;
        if shared.draining.load(Ordering::SeqCst) {
            return; // refuse: dropping the stream closes it
        }
        let active = shared.active_connections.load(Ordering::SeqCst);
        if let Err(info) = shared.admission.admit_connection(active as usize) {
            shared.shed_overload.fetch_add(1, Ordering::Relaxed);
            let frame = Response::Overloaded(info).to_frame(server_scope()).encode();
            write_best_effort(stream, frame);
            return;
        }
        // Claim the gauge at accept (not adoption) so a burst cannot
        // slip past the cap while handoffs are in flight.
        shared.active_connections.fetch_add(1, Ordering::SeqCst);
        let target = (id as usize) % shared.io.len();
        if target == self.index {
            self.adopt(stream, id);
        } else {
            shared.io[target].post(IoCmd::Adopt(stream, id));
        }
    }

    /// Registers an accepted connection with this loop's poller.
    fn adopt(&mut self, stream: Box<dyn TransportStream>, id: u64) {
        if self.shared.draining.load(Ordering::SeqCst) {
            self.shared.active_connections.fetch_sub(1, Ordering::SeqCst);
            return; // raced with drain; refuse like the acceptor would
        }
        let conn = Conn::new(stream);
        let interest = conn.wanted_interest();
        if self.poller.add(conn.fd(), id, interest).is_err() {
            self.shared.active_connections.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(id, ConnEntry { conn, armed: interest });
    }

    /// One readiness event for one connection.
    fn ready(&mut self, key: u64, event: Event) {
        if !self.conns.contains_key(&key) {
            return; // closed earlier this round
        }
        if event.error() {
            if let Some(entry) = self.conns.get_mut(&key) {
                entry.conn.cancel_inflight();
            }
            self.close(key);
            return;
        }
        if event.readable() {
            let Some(entry) = self.conns.get_mut(&key) else { return };
            let ev = entry.conn.on_readable();
            self.step(key, ev);
        } else if event.writable() {
            let Some(entry) = self.conns.get_mut(&key) else { return };
            let ev = entry.conn.on_writable();
            self.step(key, ev);
        } else if event.hangup() {
            // Nothing readable, peer gone: the client abandoned whatever
            // is in flight. Cancel it and drop the connection — the
            // response (if any still materializes) has no reader.
            if let Some(entry) = self.conns.get_mut(&key) {
                entry.conn.cancel_inflight();
            }
            self.close(key);
            return;
        }
        self.rearm(key);
    }

    /// Applies a state-machine result.
    fn step(&mut self, key: u64, ev: ConnEvent) {
        match ev {
            ConnEvent::Frame(frame) => self.dispatch(key, frame),
            ConnEvent::Continue => {}
            // Between frames is the drain point: an answered connection
            // closes instead of reading the next request.
            ConnEvent::Idle => {
                if self.shared.draining.load(Ordering::SeqCst) {
                    self.close(key);
                }
            }
            ConnEvent::Close => self.close(key),
        }
    }

    /// Syncs the poller with what the state machine wants armed.
    fn rearm(&mut self, key: u64) {
        let Some(entry) = self.conns.get_mut(&key) else { return };
        let wanted = entry.conn.wanted_interest();
        if wanted == entry.armed {
            return;
        }
        if self.poller.modify(entry.conn.fd(), key, wanted).is_ok() {
            entry.armed = wanted;
        } else {
            entry.conn.cancel_inflight();
            self.close(key);
        }
    }

    fn close(&mut self, key: u64) {
        if let Some(entry) = self.conns.remove(&key) {
            let _ = self.poller.delete(entry.conn.fd());
            self.shared.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Starts writing an encoded response: a dispatched frame's, arrived
    /// from the pool (or an update thread), or one [`Self::respond`]
    /// answered on this thread. A connection that disconnected meanwhile
    /// is simply gone: the response is discarded unread, like the blocking
    /// server's failed `write_all`, and not counted as served.
    fn complete(&mut self, key: u64, bytes: Bytes, close_after: bool) {
        let Some(entry) = self.conns.get_mut(&key) else { return };
        self.shared.requests_served.fetch_add(1, Ordering::Relaxed);
        let ev = entry.conn.start_write(bytes, close_after);
        self.step(key, ev);
        self.rearm(key);
    }

    /// Synchronous response path: everything answerable on the I/O
    /// thread itself (stats, typed errors, sheds, the shutdown ack).
    fn respond(
        &mut self,
        key: u64,
        response: Response,
        reply_fp: sd_core::GraphFingerprint,
        close_after: bool,
    ) {
        self.complete(key, response.to_frame(reply_fp).encode(), close_after);
    }

    /// Drain onset for this loop: refuse future connects (thread 0 drops
    /// the transport) and close connections idle between frames.
    /// Mid-frame connections finish, are answered, and close at their
    /// write-complete (`ConnEvent::Idle`).
    fn begin_drain(&mut self) {
        if let Some(transport) = self.transport.take() {
            let _ = self.poller.delete(transport.listener_fd());
            // Dropping the listener closes it: late connects are refused
            // by the kernel, not parked in a backlog nobody will serve.
        }
        let idle: Vec<u64> =
            self.conns.iter().filter(|(_, e)| e.conn.is_idle()).map(|(k, _)| *k).collect();
        for key in idle {
            self.close(key);
        }
    }

    /// Handles one fully received frame, mirroring the blocking server's
    /// dispatch: a malformed payload is a typed error on a *surviving*
    /// connection (the stream is length-framed, still in sync).
    fn dispatch(&mut self, key: u64, frame: Frame) {
        let request = match Request::from_frame(&frame) {
            Ok(request) => request,
            Err(err) => {
                let resp = Response::Error(ErrorResponse {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                });
                self.respond(key, resp, frame.fingerprint, false);
                return;
            }
        };
        match request {
            Request::Query(query) => self.dispatch_query(key, &frame, query),
            Request::Update(update) => self.dispatch_update(key, &frame, update.updates),
            Request::Stats => {
                let resp = crate::server::handle_stats(&self.shared, &frame);
                self.respond(key, resp, frame.fingerprint, false);
            }
            Request::Shutdown => {
                crate::server::trigger_drain(&self.shared);
                self.respond(key, Response::Shutdown, frame.fingerprint, true);
            }
        }
    }

    /// The asynchronous query path: per-slot spec resolution, then a
    /// batcher submission (shed whole when the tenant's accumulator is
    /// full) whose completion callback posts the encoded response back to
    /// this loop. A query the service refuses — an invalid spec, or an
    /// engine it does not serve — fails its own slot. The connection
    /// carries the frame's [`CancelToken`] so a disconnect observed while
    /// the batch is pending cancels the queries instead of orphaning them.
    fn dispatch_query(&mut self, key: u64, frame: &Frame, query: QueryRequest) {
        let shared = Arc::clone(&self.shared);
        let Some(tenant) = shared.registry.lookup(&frame.fingerprint) else {
            self.respond(key, unknown_tenant(frame), frame.fingerprint, false);
            return;
        };
        let deadline = if query.deadline_ms == 0 {
            None
        } else {
            Instant::now().checked_add(Duration::from_millis(u64::from(query.deadline_ms)))
        };
        // Resolve specs per query: an invalid one fails alone (its
        // outcome slot), never the frame.
        let mut outcomes: Vec<Option<QueryOutcome>> = Vec::with_capacity(query.queries.len());
        let mut specs = Vec::new();
        let mut spec_slots = Vec::new();
        for (i, wire_query) in query.queries.iter().enumerate() {
            match wire_query.to_spec() {
                Ok(spec) => {
                    outcomes.push(None);
                    specs.push(spec);
                    spec_slots.push(i);
                }
                Err(err) => outcomes.push(Some(QueryOutcome::Failed {
                    code: error_code_of(&err),
                    message: err.to_string(),
                })),
            }
        }
        if specs.is_empty() {
            // Nothing to batch (every spec was invalid, or the frame was
            // empty): answer inline.
            let resp = Response::Query(QueryResponse {
                epoch: tenant.service.epoch(),
                outcomes: seal_outcomes(outcomes),
            });
            self.respond(key, resp, frame.fingerprint, false);
            return;
        }
        let token = CancelToken::new();
        if let Some(entry) = self.conns.get_mut(&key) {
            entry.conn.set_cancel(token.clone());
        }
        let reply_fp = frame.fingerprint;
        let service = Arc::clone(&tenant.service);
        let io = Arc::clone(&self.handle);
        let done = move |replies: Vec<BatchReply>| {
            let mut outcomes = outcomes;
            let mut epoch = None;
            for (slot, reply) in spec_slots.into_iter().zip(replies) {
                outcomes[slot] = Some(match reply {
                    BatchReply::Answered { epoch: e, result } => {
                        epoch = epoch.or(Some(e));
                        QueryOutcome::Answered(result.entries)
                    }
                    BatchReply::Failed(err) => {
                        QueryOutcome::Failed { code: error_code_of(&err), message: err.to_string() }
                    }
                    BatchReply::Expired => QueryOutcome::Expired,
                    // The peer is gone; nobody will read this response.
                    // Any outcome works — Failed keeps the slot
                    // accounted for.
                    BatchReply::Dropped => QueryOutcome::Failed {
                        code: ErrorCode::Internal,
                        message: "connection closed before the query ran".into(),
                    },
                });
            }
            let response = Response::Query(QueryResponse {
                epoch: epoch.unwrap_or_else(|| service.epoch()),
                outcomes: seal_outcomes(outcomes),
            });
            io.post(IoCmd::Complete {
                conn: key,
                bytes: response.to_frame(reply_fp).encode(),
                close_after: false,
            });
        };
        match tenant.batcher.submit_many_async(&tenant.service, specs, deadline, Some(token), done)
        {
            Ok(()) => {}
            Err(full) => {
                shared.shed_overload.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Overloaded(shared.admission.queue_full(full));
                self.respond(key, resp, frame.fingerprint, false);
            }
        }
    }

    /// Updates run the epoch-publish machinery, which serializes on the
    /// updater lock and may block — so each gets a short-lived dedicated
    /// thread, never an I/O thread and never the worker pool (whose
    /// threads the publish path itself may need).
    fn dispatch_update(&mut self, key: u64, frame: &Frame, updates: Vec<sd_graph::GraphUpdate>) {
        let shared = Arc::clone(&self.shared);
        let Some(tenant) = shared.registry.lookup(&frame.fingerprint) else {
            self.respond(key, unknown_tenant(frame), frame.fingerprint, false);
            return;
        };
        let reply_fp = frame.fingerprint;
        let io = Arc::clone(&self.handle);
        let spawned = std::thread::Builder::new().name(format!("sd-upd-{key}")).spawn(move || {
            let response = match tenant.service.apply_updates(&updates) {
                Ok(stats) => Response::Update(UpdateResponse {
                    epoch: stats.epoch,
                    applied: stats.applied as u64,
                    rejected: stats.rejected as u64,
                    tsd_repairs: stats.tsd_repairs as u64,
                    n: stats.n as u64,
                    m: stats.m as u64,
                }),
                Err(err) => Response::Error(ErrorResponse {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }),
            };
            io.post(IoCmd::Complete {
                conn: key,
                bytes: response.to_frame(reply_fp).encode(),
                close_after: false,
            });
        });
        if spawned.is_err() {
            let resp = Response::Error(ErrorResponse {
                code: ErrorCode::Internal,
                message: "could not spawn an update thread".into(),
            });
            self.respond(key, resp, frame.fingerprint, false);
        }
    }
}

/// Writes a frame to a connection that is being refused, in one
/// non-blocking write, then closes it: the socket is fresh, so its send
/// buffer is empty and takes the whole `Overloaded` frame. A write that
/// fails or falls short is dropped with the connection; the accept path
/// never waits on a refused peer.
fn write_best_effort(mut stream: Box<dyn TransportStream>, bytes: Bytes) {
    let _ = stream.write(bytes.as_ref());
}

fn seal_outcomes(outcomes: Vec<Option<QueryOutcome>>) -> Vec<QueryOutcome> {
    outcomes
        .into_iter()
        .map(|o| {
            o.unwrap_or(QueryOutcome::Failed {
                code: ErrorCode::Internal,
                message: "query slot left unfilled".into(),
            })
        })
        .collect()
}

pub(crate) fn unknown_tenant(frame: &Frame) -> Response {
    let fp = frame.fingerprint;
    Response::Error(ErrorResponse {
        code: ErrorCode::UnknownTenant,
        message: format!(
            "no tenant registered under fingerprint (n={}, m={}, checksum={:#018x})",
            fp.n, fp.m, fp.edge_checksum
        ),
    })
}

pub(crate) fn error_code_of(err: &SearchError) -> ErrorCode {
    match err {
        SearchError::Internal { .. } => ErrorCode::Internal,
        _ => ErrorCode::BadRequest,
    }
}
