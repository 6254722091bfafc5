//! The event-driven front-end: a fixed set of readiness-loop I/O
//! threads speaking the `sd-wire` protocol of [`crate::proto`] over a
//! pluggable [`Transport`].
//!
//! ## Threading
//!
//! `io_threads` loops (`sd-io-0` … `sd-io-{n-1}`), each multiplexing its
//! share of the client connections over one epoll instance — connection
//! count no longer implies thread count. Thread 0 also owns the
//! transport and accepts; accepted connections are assigned round-robin
//! and never migrate. All CPU work — engine builds, batch fan-out,
//! coalescing — runs on the shared [`sd_core::WorkerPool`]; query
//! replies return to the owning I/O loop as completion commands through
//! its wake pipe. I/O threads never block and never
//! borrow the pool, so a one-core deployment cannot deadlock itself.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] (or a wire `Shutdown` frame) flips the drain
//! flag and broadcasts a drain command to every loop. From that point no
//! new connection is admitted, idle connections close immediately, and a
//! connection mid-frame is answered first — a frame whose first byte has
//! been read is always read to completion and answered, so an accepted
//! request is never dropped. The drain waits on the open-connection
//! count: a connection whose query or update is dispatched stays open
//! until its reply is written, whatever epoch the work pinned, so
//! waiting for every connection to close waits for every accepted
//! request. Connections are only force-closed after the grace period
//! expires.
//!
//! ## Disconnect cancellation
//!
//! A client that disconnects while its queries are queued or batched is
//! observed by its loop's poller; the frame's
//! [`CancelToken`](sd_core::CancelToken) is flipped and the queries are
//! skipped at their batch-slot boundary — see [`crate::batch`].

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Interest, Poller};

use crate::admission::AdmissionLimits;
use crate::io::{IoCmd, IoHandle, IoLoop, LISTENER_KEY};
use crate::proto::{
    server_scope, Frame, Response, ServerStatsWire, StatsResponse, TenantStatsWire,
};
use crate::registry::TenantRegistry;
use crate::transport::{TcpTransport, Transport};

/// Everything tunable about a [`Server`], builder-style:
///
/// ```no_run
/// # use sd_server::{Server, ServerConfig, TenantRegistry};
/// # use std::sync::Arc;
/// # let registry = Arc::new(TenantRegistry::new(Default::default()));
/// let server = Server::start(
///     ServerConfig::new()
///         .addr("127.0.0.1:7071")
///         .io_threads(4)
///         .drain_grace(std::time::Duration::from_secs(10)),
///     registry,
/// )?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    addr: String,
    io_threads: usize,
    admission: AdmissionLimits,
    drain_grace: Duration,
}

impl ServerConfig {
    /// The defaults: an ephemeral loopback port, 2 I/O threads, default
    /// admission limits, and a 5 s drain grace. The listener keeps the
    /// accept backlog [`std::net::TcpListener::bind`] gives it.
    pub fn new() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            io_threads: 2,
            admission: AdmissionLimits::default(),
            drain_grace: Duration::from_secs(5),
        }
    }

    /// Bind address, e.g. `"127.0.0.1:7071"`; port 0 picks an ephemeral
    /// port (read it back with [`Server::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.addr = addr.into();
        self
    }

    /// How many readiness-loop threads multiplex the connections
    /// (clamped to at least 1). This is the server's *total* I/O thread
    /// count, independent of connection count.
    pub fn io_threads(mut self, io_threads: usize) -> ServerConfig {
        self.io_threads = io_threads;
        self
    }

    /// Admission thresholds (the connection limit and the base retry
    /// hint).
    pub fn admission(mut self, admission: AdmissionLimits) -> ServerConfig {
        self.admission = admission;
        self
    }

    /// How long [`Server::shutdown`] waits for connections to finish
    /// before force-closing them.
    pub fn drain_grace(mut self, drain_grace: Duration) -> ServerConfig {
        self.drain_grace = drain_grace;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Connections that were open when draining was triggered (all of
    /// them are closed by the time the report exists).
    pub connections_joined: usize,
    /// Connections force-closed because the grace period expired.
    pub forced_closes: usize,
    /// Whether every connection finished within the grace period.
    pub within_grace: bool,
}

pub(crate) struct ServerShared {
    pub(crate) registry: Arc<TenantRegistry>,
    pub(crate) admission: AdmissionLimits,
    pub(crate) local_addr: SocketAddr,
    pub(crate) draining: AtomicBool,
    /// One inbox per I/O loop, indexed by thread.
    pub(crate) io: Vec<Arc<IoHandle>>,
    pub(crate) active_connections: AtomicU64,
    pub(crate) accepted_connections: AtomicU64,
    pub(crate) requests_served: AtomicU64,
    pub(crate) shed_overload: AtomicU64,
    /// Signalled once when draining is first triggered; [`Server::join`]
    /// parks on the paired receiver.
    pub(crate) drain_tx: Sender<()>,
}

/// A running `sd-wire` server. Dropping it drains; prefer
/// [`Server::shutdown`] to also read the [`DrainReport`].
pub struct Server {
    shared: Arc<ServerShared>,
    threads: Vec<JoinHandle<()>>,
    drain_grace: Duration,
    drain_rx: Receiver<()>,
}

impl Server {
    /// Binds a [`TcpTransport`] on `config.addr` and starts serving the
    /// tenants of `registry`.
    pub fn start(config: ServerConfig, registry: Arc<TenantRegistry>) -> io::Result<Server> {
        let transport = TcpTransport::bind(&config.addr)?;
        Server::start_with_transport(Box::new(transport), config, registry)
    }

    /// As [`Server::start`], over any [`Transport`] — the seam a TLS or
    /// Unix-socket front-end plugs into. `config.addr` is ignored (the
    /// transport already bound).
    pub fn start_with_transport(
        transport: Box<dyn Transport>,
        config: ServerConfig,
        registry: Arc<TenantRegistry>,
    ) -> io::Result<Server> {
        let io_threads = config.io_threads.max(1);
        let local_addr = transport.local_addr();
        // Pollers and wakers are created *before* the loops spawn, so
        // the shared handle table is complete before any thread runs.
        let mut pollers = Vec::with_capacity(io_threads);
        let mut handles = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new()?;
            let handle = Arc::new(IoHandle::new(&poller)?);
            pollers.push(poller);
            handles.push(handle);
        }
        // The listener lives in loop 0's poller; register it before the
        // loop starts so a connect racing startup is never missed.
        pollers[0].add(transport.listener_fd(), LISTENER_KEY, Interest::READABLE)?;
        let (drain_tx, drain_rx) = unbounded();
        let shared = Arc::new(ServerShared {
            registry,
            admission: config.admission,
            local_addr,
            draining: AtomicBool::new(false),
            io: handles,
            active_connections: AtomicU64::new(0),
            accepted_connections: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            drain_tx,
        });
        let mut threads = Vec::with_capacity(io_threads);
        let mut transport = Some(transport);
        for (index, poller) in pollers.into_iter().enumerate() {
            let io_loop = IoLoop {
                index,
                poller,
                handle: Arc::clone(&shared.io[index]),
                shared: Arc::clone(&shared),
                transport: if index == 0 { transport.take() } else { None },
                conns: Default::default(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("sd-io-{index}"))
                .spawn(move || io_loop.run())?;
            threads.push(thread);
        }
        Ok(Server { shared, threads, drain_grace: config.drain_grace, drain_rx })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The registry this server routes to.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.shared.registry
    }

    /// Whether draining has been triggered (locally or over the wire).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Live server-scope counters (the same numbers the `stats` verb
    /// exports).
    pub fn stats(&self) -> ServerStatsWire {
        server_stats(&self.shared)
    }

    /// Flips the drain flag and notifies every I/O loop, without
    /// waiting. Idempotent; [`Server::shutdown`] calls it first.
    pub fn trigger_drain(&self) {
        trigger_drain(&self.shared);
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish (up to the grace period), then force-close stragglers and
    /// join every I/O thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.drain()
    }

    /// Blocks until draining is triggered by someone else — a wire
    /// `Shutdown` frame, or [`Server::trigger_drain`] from another
    /// thread — then drains and reports. This is `sd-serve`'s main loop.
    pub fn join(mut self) -> DrainReport {
        let _ = self.drain_rx.recv();
        self.drain()
    }

    fn drain(&mut self) -> DrainReport {
        if self.threads.is_empty() {
            // Already drained (shutdown/join ran; Drop re-enters here).
            return DrainReport { connections_joined: 0, forced_closes: 0, within_grace: true };
        }
        trigger_drain(&self.shared);
        let connections_joined = self.shared.active_connections.load(Ordering::SeqCst) as usize;
        let deadline = Instant::now().checked_add(self.drain_grace);
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 {
            match deadline {
                Some(d) if Instant::now() < d => std::thread::sleep(Duration::from_millis(2)),
                _ => break,
            }
        }
        let forced = self.shared.active_connections.load(Ordering::SeqCst) as usize;
        if forced > 0 {
            for handle in &self.shared.io {
                handle.post(IoCmd::ForceCloseAll);
            }
            // Force-closing is prompt (each loop just drops its table);
            // bound the wait anyway so a wedged loop cannot hang drop.
            let force_deadline = Instant::now() + Duration::from_secs(5);
            while self.shared.active_connections.load(Ordering::SeqCst) > 0
                && Instant::now() < force_deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for handle in &self.shared.io {
            handle.post(IoCmd::Stop);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        DrainReport { connections_joined, forced_closes: forced, within_grace: forced == 0 }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Idempotent: a server consumed by `shutdown`/`join` has no
        // threads left to join.
        let _ = self.drain();
    }
}

pub(crate) fn trigger_drain(shared: &ServerShared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // already draining; the loops already know
    }
    for handle in &shared.io {
        handle.post(IoCmd::Drain);
    }
    let _ = shared.drain_tx.send(());
}

pub(crate) fn handle_stats(shared: &ServerShared, frame: &Frame) -> Response {
    if frame.fingerprint == server_scope() {
        return Response::Stats(StatsResponse::Server(server_stats(shared)));
    }
    let Some(tenant) = shared.registry.lookup(&frame.fingerprint) else {
        return crate::io::unknown_tenant(frame);
    };
    let service = &tenant.service;
    let stats = service.stats();
    Response::Stats(StatsResponse::Tenant(TenantStatsWire {
        fingerprint: service.fingerprint(),
        epoch: service.epoch(),
        queries_served: stats.queries_served as u64,
        engines_built: stats.engines_built as u64,
        background_builds: stats.background_builds as u64,
        foreground_fallbacks: stats.foreground_fallbacks as u64,
        epochs: stats.epochs as u64,
        updates_applied: stats.updates_applied as u64,
        gct_repairs: stats.gct_repairs as u64,
        parallel_queries: stats.parallel_queries as u64,
        pool_threads: stats.pool_threads as u64,
    }))
}

pub(crate) fn server_stats(shared: &ServerShared) -> ServerStatsWire {
    let mut queries_batched = 0u64;
    let mut batches_executed = 0u64;
    let mut shed_queue_full = 0u64;
    let mut cancelled = 0u64;
    // Walking tenants under the routing-table read lock while each
    // batcher snapshot runs is the documented
    // `server.tenants → epoch.ptr`-compatible nesting (batcher stats are
    // lock-free atomics; the service snapshot below pins nothing here).
    shared.registry.for_each(|tenant| {
        let stats = tenant.batcher.stats();
        queries_batched += stats.queries_batched;
        batches_executed += stats.batches_executed;
        shed_queue_full += stats.shed_queue_full;
        cancelled += stats.cancelled;
    });
    let pool = sd_core::pool::global();
    ServerStatsWire {
        tenants: shared.registry.len() as u64,
        active_connections: shared.active_connections.load(Ordering::SeqCst),
        accepted_connections: shared.accepted_connections.load(Ordering::Relaxed),
        requests_served: shared.requests_served.load(Ordering::Relaxed),
        queries_batched,
        batches_executed,
        shed_overload: shared.shed_overload.load(Ordering::Relaxed) + shed_queue_full,
        cancelled,
        pool_threads: pool.spawned_threads() as u64,
        pool_queued_jobs: pool.queued_jobs() as u64,
    }
}
