//! [`SearchService`]: the concurrent serving layer — one shared graph, the
//! paper's GCT-index built lazily, `&self` queries from any number of
//! threads, index builds that run in chunks on the shared worker pool, and
//! **epoch-swapped snapshots** so the graph itself can mutate under
//! traffic.
//!
//! The paper frames structural diversity search as an *online service* over
//! a large social graph; a production deployment answers many `(k, r)`
//! queries concurrently against a graph that keeps evolving (Section 5.3's
//! dynamic-update remark). `SearchService` is built for exactly that shape:
//!
//! * **it serves the GCT-index** ([`SearchService::SERVED`]), the paper's
//!   compressed form of the TSD-index, and [`EngineKind::Auto`] names it.
//!   The index-free Online and Bound scans (Algorithms 3 and 4) and the
//!   uncompressed TSD-index (Algorithms 5–6) are the paper's baselines,
//!   not a serving path: a query naming one of them is refused with
//!   [`SearchError::EngineNotServed`] before anything is built or scanned,
//!   a warmup skips it, and [`crate::build_engine`] still builds them;
//! * all per-graph state — the `Arc<CsrGraph>`, its [`GraphFingerprint`],
//!   and the engine slot — lives in one immutable *epoch*; queries clone
//!   the current epoch's `Arc` and run entirely against that snapshot, so
//!   a concurrent [`SearchService::apply_updates`] can never tear a query
//!   between two graphs;
//! * the engine slot is an interior-mutable cache (an `RwLock`) holding an
//!   `Arc<GctEngine>`; construction happens under the slot's
//!   write lock, double-checked, so the index is built exactly once per
//!   epoch no matter how many threads race;
//! * **a cold query costs one parallel build**: [`SearchService::top_r`]
//!   on an unbuilt index joins its build — running it on the calling
//!   thread if nobody has started it — and the index answers. Every build
//!   runs in fixed vertex chunks on the **process-wide [`WorkerPool`]**
//!   (shared by every service in the process), with the building thread
//!   taking part, so the query pays for that build instead of a full
//!   per-ego scan competing with it for the same cores;
//! * **queries use the hardware**: besides the index builds, the same
//!   pool fans [`SearchService::top_r_many`] batches out as independent
//!   tasks, each pinned to the batch's epoch snapshot. A lone query runs
//!   on its caller's thread. Pooled builds are byte-identical to
//!   sequential ones (see [`crate::parallel`]);
//!   [`ServiceStats::pool_threads`] and [`ServiceStats::parallel_queries`]
//!   surface what the pool is doing for this service;
//! * **the graph is mutable under traffic**:
//!   [`SearchService::apply_updates`] applies a batch of edge
//!   insertions/deletions to the published snapshot, repairs the
//!   GCT-index *incrementally* from the epoch it replaces (only the
//!   endpoints' and their common neighbors' entries are recomputed, never
//!   the whole index), re-enqueues a scheduled build it could not repair,
//!   and publishes the next epoch with a single pointer swap; in-flight
//!   queries keep reading their snapshot, new queries see the new graph.
//!   Nothing is kept between batches;
//! * [`SearchService::warmup`] is non-blocking (it enqueues); the matching
//!   join is [`SearchService::wait_ready`], which returns once the index
//!   is built — lending the calling thread to a build not yet started, so
//!   it can never wait on an empty queue;
//! * query, build and cold-query counters are atomics, surfaced as
//!   [`ServiceStats`] (including `updates_applied` and `gct_repairs`),
//!   with `epochs` read from the serving epoch;
//! * persistence goes through one fingerprinted, checksummed frame:
//!   [`SearchService::export_bundle`] writes the GCT-index behind the
//!   graph's fingerprint, and [`SearchService::import_bundle`] reads it
//!   back.
//!   Every epoch has its own fingerprint, so the import refuses
//!   blobs from any other graph — including this service's *own*
//!   pre-update epochs. It is computed once per epoch, on first use
//!   (`O(m)`): an update publishes without hashing the edge list, and the
//!   first export, import, [`SearchService::fingerprint`] call or tenant
//!   stats request of the new epoch pays for it.
//!
//! ```
//! use std::sync::Arc;
//! use sd_core::{paper_figure1_edges, EngineKind, QuerySpec, SearchService};
//! use sd_graph::{GraphBuilder, GraphUpdate};
//!
//! let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
//! let service = Arc::new(SearchService::new(g));
//! // Non-blocking warmup + explicit join: after `wait_ready` returns, the
//! // index serves every query without a build.
//! service.warmup([EngineKind::Gct]);
//! service.wait_ready([EngineKind::Gct]);
//!
//! // `&self` queries — clone the Arc into any number of worker threads.
//! let spec = QuerySpec::new(4, 1)?;
//! let handle = {
//!     let service = service.clone();
//!     std::thread::spawn(move || service.top_r(&spec).map(|r| r.entries[0].score))
//! };
//! assert_eq!(service.top_r(&spec)?.entries[0].score, 3);
//! assert_eq!(handle.join().unwrap()?, 3);
//!
//! // The graph mutates *under* that traffic: the GCT-index is repaired
//! // into the new epoch, not rebuilt.
//! let stats = service.apply_updates(&[GraphUpdate::Remove { u: 2, v: 5 }])?;
//! assert_eq!((stats.applied, stats.gct_carried), (1, true));
//! assert_eq!(service.top_r(&spec)?.entries[0].score, 3);
//! # Ok::<(), sd_core::SearchError>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use sd_graph::{CsrGraph, DynamicGraph, GraphUpdate, VertexId};

use crate::cancel::CancelToken;
use crate::config::TopRResult;
use crate::engine::{build_engine_in, DiversityEngine, EngineKind, GctEngine, QuerySpec};
use crate::envelope::{GraphFingerprint, IndexBundle};
use crate::error::SearchError;
use crate::gct::GctIndex;
use crate::lock_order;
use crate::parallel::write_gct;
use crate::pool::{self, Job, WorkerPool};

/// How far past the published graph's vertex count an update batch may
/// reach: [`GROWTH_FLOOR`] ids, plus [`GROWTH_PER_OP`] per op in the
/// batch. Every per-vertex table grows to the largest endpoint, so without
/// this bound one op naming vertex `u32::MAX` would allocate for four
/// billion vertices.
const GROWTH_FLOOR: usize = 1 << 16;

/// See [`GROWTH_FLOOR`]: each op may name two new vertices.
const GROWTH_PER_OP: usize = 2;

/// The engine slot: a lazily initialized, concurrently readable cache.
/// Construction happens *under the write lock* (double-checked), which is
/// what makes "exactly one build per epoch" a structural guarantee rather
/// than a counter discipline.
type EngineSlot = RwLock<Option<Arc<GctEngine>>>;

/// The one place that decides what a service serves:
/// [`SearchService::SERVED`], which [`EngineKind::Auto`] names. It guards
/// the calls that name a kind — queries, warmups and
/// [`SearchService::engine`]: any other kind is
/// [`SearchError::EngineNotServed`] to a query, is skipped by a warmup and
/// is built uncached by `engine`. A bundle names no kind; its frame holds
/// the GCT-index alone.
fn served(kind: EngineKind) -> Result<(), SearchError> {
    if kind == EngineKind::Auto || SearchService::SERVED.contains(&kind) {
        Ok(())
    } else {
        Err(SearchError::EngineNotServed { engine: kind })
    }
}

/// Snapshot of a service's atomic counters ([`SearchService::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Successful queries served over the service's lifetime, each
    /// answered by the GCT-index.
    pub queries_served: usize,
    /// Engines constructed or installed across all epochs: each build,
    /// each epoch an update publishes with a repaired index, and each
    /// import.
    pub engines_built: usize,
    /// Engines constructed by a scheduled pool job — a warmup's, or an
    /// update's re-queued build (a subset of `engines_built`).
    pub background_builds: usize,
    /// Queries that found their GCT-index unbuilt, and so joined its build
    /// before the index answered them.
    pub foreground_fallbacks: usize,
    /// Epochs published so far, the serving epoch's id plus one; 1 until
    /// the first successful [`SearchService::apply_updates`].
    pub epochs: usize,
    /// Edge updates that mutated the graph over the service's lifetime
    /// (rejected no-ops are not counted).
    pub updates_applied: usize,
    /// GCT entries repaired in place by affected-region re-decomposition
    /// across all update batches ([`UpdateStats::gct_repairs`], summed).
    pub gct_repairs: usize,
    /// Worker threads currently alive in the [`WorkerPool`] this service
    /// schedules onto. The pool is process-wide by default, so this is a
    /// *shared* figure — N services over the global pool report the same
    /// value, bounded by the pool size, not N times it.
    pub pool_threads: usize,
    /// Successful queries that ran as [`SearchService::top_r_many`]
    /// fan-out tasks on the pool.
    pub parallel_queries: usize,
}

/// Outcome of one [`SearchService::apply_updates`] batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// The epoch serving once this call returned. Unchanged from before the
    /// call if the whole batch was rejected (`applied == 0`).
    pub epoch: u64,
    /// Updates that mutated the graph.
    pub applied: usize,
    /// Updates rejected: no-ops (duplicate or self-loop inserts, removes
    /// of absent edges) and ops naming a vertex past the batch's growth
    /// bound (see [`SearchService::apply_updates`]).
    pub rejected: usize,
    /// Ego-networks the applied updates invalidated, `2 + |N(u) ∩ N(v)|`
    /// per applied update — counted once per update that touched them, so
    /// a vertex two updates touch counts twice here and is re-decomposed
    /// once (`gct_repairs`).
    pub tsd_repairs: usize,
    /// Distinct ego-networks re-decomposed for this batch, each once
    /// against the final graph. 0 when GCT was not carried (no built GCT
    /// engine to repair) or the batch published nothing.
    pub gct_repairs: usize,
    /// Whether the new epoch's GCT engine was published warm from
    /// affected-region repair. False when the old epoch had no built GCT
    /// engine to repair — then a GCT build that was scheduled is re-queued
    /// on the new epoch — or when the batch published nothing.
    pub gct_carried: bool,
    /// Vertex count of the published graph.
    pub n: usize,
    /// Edge count of the published graph.
    pub m: usize,
}

/// What one batch's ops did to the graph ([`apply_ops`]).
#[derive(Default)]
struct BatchRepair {
    /// Ops that changed the graph.
    applied: usize,
    /// Ops rejected: the no-ops [`apply_ops`] met (duplicate or self-loop
    /// inserts, removes of absent edges), plus the ops past the batch's
    /// growth bound, which never reach it.
    rejected: usize,
    /// `2 + |N(u) ∩ N(v)|` per applied op: the ego-networks each op
    /// touched, counted once per op that touched them.
    touched: usize,
    /// Distinct ego-networks touched, each repaired once however many ops
    /// touched it.
    repaired: usize,
}

/// Applies `batch` to `graph` in order, and returns what it did with the
/// ego-networks it touched: each applied op's endpoints and their common
/// neighbors in the graph it left, sorted and deduplicated. A rejected op
/// (duplicate or self-loop insert, absent remove) touches nothing.
///
/// This is the affected-ego strategy for the paper's Section 5.3 remark on
/// dynamic graphs. Inserting or deleting edge `{u, v}` changes the
/// ego-networks of exactly `u`, `v` (each gains or loses the other, with
/// the ego edges it closes) and every common neighbor `w ∈ N(u) ∩ N(v)`
/// (which gains or loses the ego edge `(u, v)`). Over a batch, the union
/// of those sets covers every ego the batch changed: a vertex never
/// touched as an endpoint keeps its neighbor set, so it is a common
/// neighbor of every edit inside its ego. Rebuilding each distinct
/// affected entry once against the final graph therefore restores the
/// exact index (`tests/dynamic_updates.rs` checks this under random edit
/// scripts).
fn apply_ops(graph: &mut DynamicGraph, batch: &[GraphUpdate]) -> (BatchRepair, Arc<[VertexId]>) {
    let mut out = BatchRepair::default();
    let mut affected: Vec<VertexId> = Vec::new();
    for &update in batch {
        if !graph.apply(update) {
            out.rejected += 1;
            continue;
        }
        out.applied += 1;
        let (u, v) = update.endpoints();
        let before = affected.len();
        affected.extend(graph.common_neighbors(u, v));
        affected.extend([u, v]);
        out.touched += affected.len() - before;
    }
    affected.sort_unstable();
    affected.dedup();
    out.repaired = affected.len();
    (out, affected.into())
}

/// Everything per-graph: one immutable serving snapshot. Queries pin an
/// epoch by cloning its `Arc` and never observe a later one mid-flight;
/// [`SearchService::apply_updates`] builds the next epoch off to the side
/// and publishes it with a single pointer swap. The graph's fingerprint is
/// computed once per epoch, on first use.
struct EpochState {
    /// Monotonic epoch number (0 = construction).
    id: u64,
    graph: Arc<CsrGraph>,
    /// `GraphFingerprint::of(&graph)`, filled in by the first caller of
    /// [`Self::fingerprint`]: only export, import, tenant registration and
    /// the stats verb read it, so neither construction nor a publish pays
    /// the `O(m)` hash.
    fingerprint: OnceLock<GraphFingerprint>,
    /// The GCT engine, once built, repaired or imported.
    slot: EngineSlot,
    /// Set by the first thread to enqueue the build in this epoch, so a
    /// cold-start spike of N threads produces one queue entry, not N.
    scheduled: AtomicBool,
}

impl EpochState {
    /// A fresh epoch over `graph`, the engine slot cold and the
    /// fingerprint not yet computed.
    fn over(id: u64, graph: Arc<CsrGraph>) -> Self {
        EpochState {
            id,
            graph,
            fingerprint: OnceLock::new(),
            slot: lock_order::ENGINE_SLOT.rwlock(None),
            scheduled: AtomicBool::new(false),
        }
    }

    /// The graph's fingerprint, computed once per epoch, on first use.
    fn fingerprint(&self) -> GraphFingerprint {
        *self.fingerprint.get_or_init(|| GraphFingerprint::of(&self.graph))
    }

    /// Non-blocking cache probe: `None` when the engine was never built,
    /// and while it is *being* built (the builder holds the write lock) —
    /// the serving path's "is my index unbuilt" test.
    fn cached(&self) -> Option<Arc<GctEngine>> {
        self.slot.try_read()?.clone() // lock: engine.slot
    }

    fn is_built(&self) -> bool {
        self.cached().is_some()
    }

    /// Checks `spec` against this epoch before anything is built or
    /// scanned: a kind the service does not serve is refused, and so is an
    /// `r` past the vertex count.
    fn check(&self, spec: &QuerySpec) -> Result<(), SearchError> {
        served(spec.engine())?;
        spec.config().check_against(self.graph.n())
    }
}

/// The shared interior of a [`SearchService`]: everything a scheduled pool
/// job needs to outlive the facade that enqueued it. Lifetime counters
/// live here; per-graph state lives in the current [`EpochState`].
struct ServiceCore {
    /// The serving epoch. Readers clone the `Arc` under the read lock (a
    /// pointer copy); [`SearchService::apply_updates`] swaps it under the
    /// write lock. This is the *only* lock a query shares with an update.
    current: RwLock<Arc<EpochState>>,
    /// The worker pool this service runs its index builds and batch
    /// fan-out on — the process-wide [`pool::global`] unless constructed
    /// via [`SearchService::with_pool`].
    pool: Arc<WorkerPool>,
    /// Set when the owning `SearchService` drops; scheduled build jobs
    /// still queued become no-ops.
    shutdown: AtomicBool,
    queries_served: AtomicUsize,
    engines_built: AtomicUsize,
    background_builds: AtomicUsize,
    foreground_fallbacks: AtomicUsize,
    updates_applied: AtomicUsize,
    gct_repairs: AtomicUsize,
    parallel_queries: AtomicUsize,
}

impl ServiceCore {
    /// The serving epoch, pinned: the returned snapshot stays valid (and
    /// immutable) however many updates publish after this call.
    fn current(&self) -> Arc<EpochState> {
        self.current.read().clone() // lock: epoch.ptr
    }

    /// The GCT engine of `epoch`, built on the calling thread if absent.
    /// Blocks while another thread builds it (and then reuses that build);
    /// returns whether *this* call performed the build.
    fn build_if_absent(&self, epoch: &EpochState) -> (Arc<GctEngine>, bool) {
        let cached = epoch.slot.read().clone(); // lock: engine.slot
        if let Some(engine) = cached {
            return (engine, false);
        }
        // Double-check under the write lock: another thread may have built
        // the engine while we waited for it.
        let mut guard = epoch.slot.write(); // lock: engine.slot
        if let Some(engine) = guard.as_ref() {
            return (engine.clone(), false);
        }
        #[cfg(test)]
        tests::fail_if_injected();
        // An index build runs its chunks under this write lock, through
        // `run_all`, which never runs another caller's jobs on this thread
        // and hands each chunk's output back by value, so no chunk locks.
        let engine = Arc::new(GctEngine::build_in(epoch.graph.clone(), &self.pool));
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        *guard = Some(engine.clone());
        (engine, true)
    }

    /// Installs an externally produced engine into `epoch`, replacing any
    /// cached one.
    fn install(&self, epoch: &EpochState, engine: Arc<GctEngine>) {
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        *epoch.slot.write() = Some(engine); // lock: engine.slot
    }

    /// Enqueues a background build of `epoch`'s index onto the shared
    /// pool, exactly once per epoch (later calls are no-ops, as are queued
    /// jobs for an index that got built through another path first).
    fn schedule_build(self: &Arc<Self>, epoch: &EpochState) {
        let latch = &epoch.scheduled;
        if latch.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            let core = self.clone();
            self.pool.submit(move || core.run_scheduled_build());
        }
    }

    /// [`Self::build_if_absent`] with a panicking build contained: the
    /// slot stays empty, the schedule latch resets, and `None` comes back,
    /// so a later query, job or `wait_ready` retries the build.
    fn join_build(&self, epoch: &EpochState) -> Option<(Arc<GctEngine>, bool)> {
        let build = catch_unwind(AssertUnwindSafe(|| self.build_if_absent(epoch)));
        if build.is_err() {
            epoch.scheduled.store(false, Ordering::Relaxed);
        }
        build.ok()
    }

    /// One scheduled build job, run by a pool worker. Resolved against the
    /// epoch current *at execution time* — a job that raced an
    /// [`SearchService::apply_updates`] warms the live graph, never a
    /// superseded snapshot. A job whose index got built in the meantime —
    /// by a query, `wait_ready`, a blocking `engine()` call, or an import
    /// — is a no-op, as is a job outliving its dropped service.
    fn run_scheduled_build(&self) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let Some((_, true)) = self.join_build(&self.current()) {
            self.background_builds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One query against one pinned epoch — the body of
    /// [`SearchService::top_r`], also run as a pool task by the
    /// [`SearchService::top_r_many`] fan-out (`fanned` marks those for the
    /// `parallel_queries` accounting).
    fn top_r_on(
        &self,
        epoch: &EpochState,
        spec: &QuerySpec,
        fanned: bool,
    ) -> Result<TopRResult, SearchError> {
        epoch.check(spec)?;
        let engine = match epoch.cached() {
            Some(engine) => engine,
            None => {
                // Unbuilt: join the build (running it here if nobody has
                // started it), then answer from the engine. A panicking
                // build fails this query alone — it must not unwind into
                // a batch leader.
                self.foreground_fallbacks.fetch_add(1, Ordering::Relaxed);
                self.join_build(epoch)
                    .ok_or(SearchError::Internal {
                        invariant: "an engine build completes without panicking",
                    })?
                    .0
            }
        };
        let result = engine.top_r(spec)?;
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        if fanned {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }
}

/// Thread-safe facade over the GCT-index: owns the graph, builds the index
/// once per epoch behind a lock (in chunks on the shared pool), routes
/// [`QuerySpec`]s through `&self` methods, refuses the kinds it does not
/// serve, mutates the graph under traffic via epoch-swapped snapshots
/// ([`Self::apply_updates`]), and imports/exports the index as a
/// fingerprinted index bundle.
///
/// Share it as `Arc<SearchService>`; every method takes `&self`.
///
/// Dropping the service is non-blocking even with builds in flight: the
/// pool is shared (its workers outlive any one service), a shutdown latch
/// voids build jobs still queued, and a job already running holds only the
/// service's internal core `Arc`, which it releases when it finishes.
pub struct SearchService {
    core: Arc<ServiceCore>,
    /// Serializes writers: held by [`Self::apply_updates`] from reading
    /// the published epoch to publishing the next, so batches apply in
    /// call order. The query path never touches it.
    updater: Mutex<()>,
}

impl std::fmt::Debug for SearchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let epoch = self.core.current();
        f.debug_struct("SearchService")
            .field("epoch", &epoch.id)
            .field("n", &epoch.graph.n())
            .field("m", &epoch.graph.m())
            .field("built", &self.built_engines())
            .field("queries_served", &self.queries_served())
            .finish()
    }
}

impl Drop for SearchService {
    fn drop(&mut self) {
        // Builds queued but not started are pointless now; the latch makes
        // the pool jobs return immediately when they come up. The pool
        // itself is untouched — it is shared with every other service.
        self.core.shutdown.store(true, Ordering::Relaxed);
    }
}

impl SearchService {
    /// The engine kinds a service serves: the GCT-index, which
    /// [`EngineKind::Auto`] names. A query for any other kind — the
    /// index-free Online and Bound scans, and the TSD-index — fails with
    /// [`SearchError::EngineNotServed`] before anything is built or
    /// scanned; build those with [`crate::build_engine`].
    pub const SERVED: [EngineKind; 1] = [EngineKind::Gct];

    /// A service over `graph`, scheduling onto the **process-wide**
    /// [`pool::global`] worker pool. No engine and no thread is built yet,
    /// and the graph is not hashed: its fingerprint is computed once per
    /// epoch, on first use (`O(m)`). The shared pool spawns workers lazily
    /// when a cold query or a warmup enqueues work — N services cost one
    /// pool's worth of threads between them, not N private builder pairs.
    pub fn new(graph: CsrGraph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// As [`Self::new`] over an already-shared graph.
    pub fn from_arc(graph: Arc<CsrGraph>) -> Self {
        Self::from_arc_with_pool(graph, pool::global().clone())
    }

    /// A service scheduling onto an explicit [`WorkerPool`] instead of the
    /// process-wide one — for tests and benchmarks that need a pinned
    /// thread count, or callers isolating a service's work from the global
    /// pool. The pool runs this service's index builds and its
    /// [`Self::top_r_many`] fan-out.
    pub fn with_pool(graph: CsrGraph, pool: Arc<WorkerPool>) -> Self {
        Self::from_arc_with_pool(Arc::new(graph), pool)
    }

    /// As [`Self::with_pool`] over an already-shared graph.
    pub fn from_arc_with_pool(graph: Arc<CsrGraph>, pool: Arc<WorkerPool>) -> Self {
        let core = Arc::new(ServiceCore {
            current: lock_order::EPOCH_PTR.rwlock(Arc::new(EpochState::over(0, graph))),
            pool,
            shutdown: AtomicBool::new(false),
            queries_served: AtomicUsize::new(0),
            engines_built: AtomicUsize::new(0),
            background_builds: AtomicUsize::new(0),
            foreground_fallbacks: AtomicUsize::new(0),
            updates_applied: AtomicUsize::new(0),
            gct_repairs: AtomicUsize::new(0),
            parallel_queries: AtomicUsize::new(0),
        });
        SearchService { core, updater: lock_order::SVC_UPDATER.mutex(()) }
    }

    /// The graph the *current* epoch answers queries about, as a pinned
    /// snapshot: the returned `Arc` stays valid (and unchanged) however
    /// many [`Self::apply_updates`] batches publish after this call.
    pub fn graph(&self) -> Arc<CsrGraph> {
        self.core.current().graph.clone()
    }

    /// The current epoch's identity as recorded in exported bundles.
    /// Changes whenever [`Self::apply_updates`] publishes.
    ///
    /// Computed once per epoch, on first use: the first call after a
    /// publish (or the first export or import) hashes the edge list in
    /// `O(m)`, and later calls read the stored value.
    pub fn fingerprint(&self) -> GraphFingerprint {
        self.core.current().fingerprint()
    }

    /// The current epoch number: 0 at construction, +1 per published
    /// update batch.
    pub fn epoch(&self) -> u64 {
        self.core.current().id
    }

    /// Queries served so far ([`ServiceStats::queries_served`]).
    pub fn queries_served(&self) -> usize {
        self.stats().queries_served
    }

    /// A consistent-enough snapshot of the service counters. Individual
    /// counters are exact; mutual consistency is best-effort under
    /// concurrent traffic (they are independent relaxed atomics).
    pub fn stats(&self) -> ServiceStats {
        let epoch = self.core.current();
        ServiceStats {
            queries_served: self.core.queries_served.load(Ordering::Relaxed),
            engines_built: self.core.engines_built.load(Ordering::Relaxed),
            background_builds: self.core.background_builds.load(Ordering::Relaxed),
            foreground_fallbacks: self.core.foreground_fallbacks.load(Ordering::Relaxed),
            epochs: epoch.id as usize + 1,
            updates_applied: self.core.updates_applied.load(Ordering::Relaxed),
            gct_repairs: self.core.gct_repairs.load(Ordering::Relaxed),
            pool_threads: self.core.pool.spawned_threads(),
            parallel_queries: self.core.parallel_queries.load(Ordering::Relaxed),
        }
    }

    /// The worker pool this service schedules onto — the process-wide pool
    /// unless constructed via [`Self::with_pool`].
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.core.pool
    }

    /// The kinds of engines built and ready to serve in the current epoch:
    /// `[Gct]` or nothing. An engine still under construction is not
    /// listed.
    pub fn built_engines(&self) -> Vec<EngineKind> {
        if self.core.current().is_built() {
            Self::SERVED.to_vec()
        } else {
            Vec::new()
        }
    }

    /// The engine of the given kind. The GCT engine ([`EngineKind::Auto`]
    /// names it too) is **built on the calling thread** if absent (joined
    /// if a build is in flight) and cached — the blocking accessor, shared
    /// with [`Self::wait_ready`], the export path and a cold
    /// [`Self::top_r`]. Use `warmup` to start a build without blocking. A
    /// kind the service does not serve is built over the current graph on
    /// every call, with [`build_engine_in`], and is not cached.
    pub fn engine(&self, kind: EngineKind) -> Arc<dyn DiversityEngine> {
        let epoch = self.core.current();
        match served(kind) {
            Ok(()) => self.core.build_if_absent(&epoch).0,
            Err(_) => Arc::from(build_engine_in(kind, epoch.graph.clone(), &self.core.pool)),
        }
    }

    /// Runs `each` on the serving epoch if `kinds` names a served kind,
    /// and again on each epoch an [`Self::apply_updates`] published
    /// meanwhile. Returns [`Self::SERVED`] if it ran, and nothing if every
    /// named kind is one the service does not serve.
    fn for_each_served(
        &self,
        kinds: impl IntoIterator<Item = EngineKind>,
        mut each: impl FnMut(&EpochState),
    ) -> Vec<EngineKind> {
        if !kinds.into_iter().any(|kind| served(kind).is_ok()) {
            return Vec::new();
        }
        let mut epoch = self.core.current();
        loop {
            each(&epoch);
            let now = self.core.current();
            if Arc::ptr_eq(&epoch, &now) {
                return Self::SERVED.to_vec();
            }
            epoch = now;
        }
    }

    /// Enqueues the index build if `kinds` names a served kind, without
    /// blocking on it; a kind the service does not serve is skipped.
    /// Returns the served kinds now building or built: `[Gct]`, or nothing.
    /// Join with [`Self::wait_ready`].
    ///
    /// Like [`Self::wait_ready`], this re-reads the serving epoch after
    /// enqueueing: if an [`Self::apply_updates`] published mid-call, the
    /// warmup is re-applied to the *new* epoch, so the index it promised
    /// is warming wherever traffic actually goes — not only on a
    /// superseded snapshot.
    pub fn warmup(&self, kinds: impl IntoIterator<Item = EngineKind>) -> Vec<EngineKind> {
        self.for_each_served(kinds, |epoch| self.core.schedule_build(epoch))
    }

    /// Blocks until the index is built in the **serving** epoch, if
    /// `kinds` names a served kind, and returns the served kinds waited on:
    /// `[Gct]`, or nothing (a kind the service does not serve is skipped)
    /// — the join half of the non-blocking [`Self::warmup`].
    ///
    /// A background build in flight is joined (construction happens under
    /// the slot's write lock, so waiting for that lock *is* the join); an
    /// index nobody scheduled is simply built on the calling thread.
    /// Either way the build still happens exactly once per epoch.
    ///
    /// "Serving" is re-checked after the join: if an
    /// [`Self::apply_updates`] published a new epoch while this call was
    /// building against the one it pinned at entry, the loop re-runs
    /// against the new epoch (warming it on the calling thread), so the
    /// guarantee callers rely on — *after `wait_ready` returns, the index
    /// serves queries without a build* — holds for the epoch queries will
    /// actually hit, not a superseded snapshot.
    pub fn wait_ready(&self, kinds: impl IntoIterator<Item = EngineKind>) -> Vec<EngineKind> {
        self.for_each_served(kinds, |epoch| {
            self.core.build_if_absent(epoch);
        })
    }

    /// Applies a batch of edge updates and publishes the result as the
    /// next epoch — **without blocking concurrent queries**, which keep
    /// serving from whatever epoch they pinned.
    ///
    /// The batch is built from the epoch it replaces, and nothing is kept
    /// between batches:
    ///
    /// * a copy-on-write [`DynamicGraph`] over the published snapshot
    ///   takes the ops, and collects the ego-networks they touch (each
    ///   op's endpoints and their common neighbors, the Section 5.3
    ///   strategy);
    /// * the new epoch's CSR is copied from its rows
    ///   ([`DynamicGraph::to_csr`]; no edge ids are derived, and the
    ///   fingerprint waits for its first reader);
    /// * if the old epoch's GCT engine is built, each distinct affected
    ///   ego is re-decomposed once from that CSR, in chunks on the
    ///   service's pool ([`crate::parallel`]), and the repaired entries
    ///   are spliced into a fresh flat index with contiguous copies of the
    ///   rest. The new epoch publishes warm with that index. The slot read
    ///   blocks, so a build in flight on the old epoch is joined and
    ///   repaired rather than redone;
    /// * otherwise no index is built: a GCT build the old epoch had
    ///   scheduled re-enters the background queue on the new epoch, and a
    ///   query that arrives first joins it.
    ///
    /// Every per-vertex table grows to the largest vertex an op names, so
    /// an op naming a vertex at or past `n + 65_536 + 2 · batch.len()`
    /// (`n` the published vertex count) is rejected before anything is
    /// allocated, and counted in [`UpdateStats::rejected`] like a
    /// duplicate insert.
    ///
    /// Writers are serialized (batches apply in call order); the query
    /// path is affected only by the final pointer swap. A batch in which
    /// *no* update applies (all duplicates/self-loops/absent removes)
    /// publishes nothing and leaves the epoch untouched; an empty batch is
    /// an error ([`SearchError::EmptyUpdateBatch`]). A batch whose ops or
    /// repair panic fails with [`SearchError::Internal`] and publishes
    /// nothing, so the next batch applies to the same epoch.
    ///
    /// Bundles exported from superseded epochs no longer
    /// match [`Self::fingerprint`], so re-importing them fails with
    /// [`SearchError::FingerprintMismatch`] — stale indexes cannot be
    /// smuggled past an update.
    pub fn apply_updates(&self, batch: &[GraphUpdate]) -> Result<UpdateStats, SearchError> {
        if batch.is_empty() {
            return Err(SearchError::EmptyUpdateBatch);
        }
        let _writer = self.updater.lock(); // lock: svc.updater
        let old = self.core.current();
        // A panic while the batch is staged fails this batch alone, as a
        // panicking build fails its query: nothing is published.
        let staged = catch_unwind(AssertUnwindSafe(|| self.stage(&old, batch)));
        let (repair, next) = staged.map_err(|_| SearchError::Internal {
            invariant: "an update batch is staged without panicking",
        })??;
        let Some(next) = next else {
            return Ok(UpdateStats {
                epoch: old.id,
                applied: 0,
                rejected: repair.rejected,
                tsd_repairs: 0,
                gct_repairs: 0,
                gct_carried: false,
                n: old.graph.n(),
                m: old.graph.m(),
            });
        };
        // Nobody else sees `next` yet, so its slot is built iff the batch
        // repaired the old epoch's index into it.
        let carried = next.is_built();
        let gct_repairs = if carried { repair.repaired } else { 0 };

        // Publish: one pointer swap. In-flight queries keep their pinned
        // epoch; everything after this line sees the new graph.
        *self.core.current.write() = next.clone(); // lock: epoch.ptr
        self.core.updates_applied.fetch_add(repair.applied, Ordering::Relaxed);
        self.core.gct_repairs.fetch_add(gct_repairs, Ordering::Relaxed);

        // A build the old epoch had scheduled but the batch could not
        // repair (it had not finished) re-enters the background queue,
        // and its first queries join that build.
        if old.scheduled.load(Ordering::Relaxed) && !next.is_built() {
            self.core.schedule_build(&next);
        }

        Ok(UpdateStats {
            epoch: next.id,
            applied: repair.applied,
            rejected: repair.rejected,
            tsd_repairs: repair.touched,
            gct_repairs,
            gct_carried: carried,
            n: next.graph.n(),
            m: next.graph.m(),
        })
    }

    /// Everything [`Self::apply_updates`] does between taking the writer
    /// lock and the publish: applies `batch` to `old`'s graph, and returns
    /// what its ops did with the next epoch, assembled off to the side
    /// with the repaired index installed — or with no epoch, when no op
    /// applied.
    fn stage(
        &self,
        old: &EpochState,
        batch: &[GraphUpdate],
    ) -> Result<(BatchRepair, Option<Arc<EpochState>>), SearchError> {
        // Drop the ops that would grow the vertex set past the batch's
        // bound, before anything sized by a vertex id is allocated.
        let limit = batch
            .len()
            .saturating_mul(GROWTH_PER_OP)
            .saturating_add(GROWTH_FLOOR)
            .saturating_add(old.graph.n());
        let ops: Vec<GraphUpdate> = batch
            .iter()
            .copied()
            .filter(|op| {
                let (u, v) = op.endpoints();
                (u.max(v) as usize) < limit
            })
            .collect();

        let mut graph = DynamicGraph::from_base(old.graph.clone());
        let (mut repair, affected) = apply_ops(&mut graph, &ops);
        repair.rejected += batch.len() - ops.len();
        if repair.applied == 0 {
            return Ok((repair, None));
        }

        // Install the repaired index so it is warm before anyone can query
        // the epoch. The engine `Arc` is cloned *out* of the old slot, so
        // the repair does not run under the slot lock, where it would stall
        // that epoch's importers.
        let snapshot = Arc::new(graph.to_csr());
        let next = Arc::new(EpochState::over(old.id + 1, snapshot.clone()));
        let built = old.slot.read().clone(); // lock: engine.slot
        if let Some(engine) = built {
            #[cfg(test)]
            tests::fail_if_injected();
            let patch = write_gct(&self.core.pool, &snapshot, affected.clone());
            let index = engine.index().splice(snapshot.n(), &affected, &patch);
            // The splice covers exactly the snapshot's vertices; surface a
            // broken repair as an error (nothing published) rather than
            // poisoning the service with a panic.
            let engine = GctEngine::from_parts(snapshot, index).map_err(|_| {
                SearchError::Internal { invariant: "a repaired index covers the repaired graph" }
            })?;
            self.core.install(&next, Arc::new(engine));
        }
        Ok((repair, Some(next)))
    }

    /// Answers one top-r query against one consistent epoch snapshot. A
    /// kind the service does not serve fails with
    /// [`SearchError::EngineNotServed`] before anything is built or
    /// scanned. A query that finds the index unbuilt joins its build — one
    /// in flight on the pool, or one this thread runs, in chunks on the
    /// pool with this thread taking part — and the index answers;
    /// [`ServiceStats::foreground_fallbacks`] counts such queries. A build
    /// that panics fails the query with [`SearchError::Internal`] and
    /// leaves the index unbuilt, so a later query retries it. The result's
    /// metrics name the engine that answered.
    pub fn top_r(&self, spec: &QuerySpec) -> Result<TopRResult, SearchError> {
        let epoch = self.core.current();
        self.core.top_r_on(&epoch, spec, false)
    }

    /// Answers a batch of queries against **one** epoch snapshot (an
    /// update landing mid-batch does not split it across graphs) and
    /// returns that epoch's id with **one result per slot**, in spec
    /// order: the query's answer, `Ok(None)` when the slot was cancelled,
    /// or the query's own error. An invalid spec (say, `r` past the
    /// vertex count, or a kind the service does not serve) fails its slot
    /// alone; its batch-mates still run.
    /// Remote callers (`sd-server`) stamp every reply with the returned
    /// epoch, so a client can tell its answers came from one published
    /// snapshot even while updates land concurrently.
    ///
    /// `cancels` aligns with `specs` (shorter is fine: missing and `None`
    /// entries are never cancelled). Each token is checked at its query's
    /// *batch-slot boundary*, just before that query would start running;
    /// a query already running is not interrupted. That is what lets a
    /// server drop a disconnected client's queries out of a batch without
    /// touching anyone else's.
    ///
    /// When the service's pool has more than one thread, a batch of two or
    /// more **fans out**: each query becomes a pool task (the calling
    /// thread participates too), so a batch of B queries uses up to
    /// `min(B, pool)` cores. Results are byte-identical to the sequential
    /// path: each task runs the same per-query code against the same
    /// pinned epoch.
    pub fn top_r_many(
        &self,
        specs: &[QuerySpec],
        cancels: &[Option<CancelToken>],
    ) -> (u64, Vec<Result<Option<TopRResult>, SearchError>>) {
        let epoch = self.core.current();
        (epoch.id, self.top_r_many_on(&epoch, specs, cancels))
    }

    /// The all-or-nothing form of [`Self::top_r_many`]: every spec is
    /// validated against the pinned epoch first, and the first invalid
    /// one — a kind the service does not serve among them — fails the
    /// whole call before any query runs. Otherwise returns the epoch id
    /// and every answer in spec order.
    pub fn top_r_many_pinned(
        &self,
        specs: &[QuerySpec],
    ) -> Result<(u64, Vec<TopRResult>), SearchError> {
        let epoch = self.core.current();
        for spec in specs {
            epoch.check(spec)?;
        }
        let results = self.top_r_many_on(&epoch, specs, &[]).into_iter().map(|slot| {
            slot?.ok_or(SearchError::Internal {
                invariant: "no cancel tokens were attached, so no slot is cancelled",
            })
        });
        Ok((epoch.id, results.collect::<Result<_, _>>()?))
    }

    /// The body of [`Self::top_r_many`] against an already pinned epoch:
    /// one `run_all` job per query, so a lone query — or any batch on a
    /// one-thread pool — runs inline on this thread, and results come back
    /// in spec order whatever order the jobs finish in.
    fn top_r_many_on(
        &self,
        epoch: &Arc<EpochState>,
        specs: &[QuerySpec],
        cancels: &[Option<CancelToken>],
    ) -> Vec<Result<Option<TopRResult>, SearchError>> {
        let fanned = specs.len() > 1 && self.core.pool.max_threads() > 1;
        let jobs: Vec<Job<_>> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let (core, epoch) = (self.core.clone(), epoch.clone());
                let cancel = cancels.get(i).cloned().flatten();
                Box::new(move || match cancel {
                    // The slot boundary: the last point this query can be
                    // skipped without interrupting engine code.
                    Some(c) if c.is_cancelled() => Ok(None),
                    _ => core.top_r_on(&epoch, &spec, fanned).map(Some),
                }) as Job<_>
            })
            .collect();
        self.core.pool.run_all(jobs)
    }

    /// Serializes the GCT-index (building it if missing — this path
    /// blocks; it is an export, not a query) into one fingerprinted
    /// [`IndexBundle`] blob that [`Self::import_bundle`] — on a service
    /// over the *same* graph — accepts.
    pub fn export_bundle(&self) -> Bytes {
        let epoch = self.core.current();
        let payload = self.core.build_if_absent(&epoch).0.index().to_bytes();
        IndexBundle { fingerprint: epoch.fingerprint(), payload }.encode()
    }

    /// Installs the GCT-index carried by a bundle blob produced by
    /// [`Self::export_bundle`], replacing any cached engine in the current
    /// epoch.
    ///
    /// All-or-nothing: the frame is decoded first, then the fingerprint
    /// is checked (wrong-graph and superseded-epoch bundles are refused
    /// whole, as [`SearchError::FingerprintMismatch`] — a same-`n`
    /// snapshot from before edge churn cannot slip through), and the
    /// payload is decoded and checked before it is installed. This is the
    /// *only* way to attach serialized index bytes to a service: there is
    /// no fingerprint-less public decode path.
    pub fn import_bundle(&self, blob: Bytes) -> Result<(), SearchError> {
        let IndexBundle { fingerprint, payload } = IndexBundle::decode(blob)?;
        let epoch = self.core.current();
        if fingerprint != epoch.fingerprint() {
            return Err(SearchError::FingerprintMismatch {
                expected: epoch.fingerprint(),
                found: fingerprint,
            });
        }
        let engine = GctEngine::from_parts(epoch.graph.clone(), GctIndex::from_bytes(payload)?)?;
        // Install under the epoch-pointer read lock (which excludes the
        // publish swap) and re-verify the fingerprint there: an
        // `apply_updates` that landed while we decoded must fail the
        // import, not let it install into a superseded epoch and report
        // success. The fingerprint — not pointer identity — is the real
        // validity condition, so an update that round-trips back to the
        // blob's exact edge set still imports. Only such a racing publish
        // makes the check below hash under the lock; otherwise the guard
        // holds the epoch whose fingerprint was just computed.
        let guard = self.core.current.read(); // lock: epoch.ptr
        if guard.fingerprint() != fingerprint {
            return Err(SearchError::FingerprintMismatch {
                expected: guard.fingerprint(),
                found: fingerprint,
            });
        }
        self.core.install(&guard, Arc::new(engine));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_engine;
    use crate::error::DecodeError;
    use crate::paper::paper_figure1_graph;

    fn service() -> SearchService {
        let (g, _, _) = paper_figure1_graph();
        SearchService::new(g)
    }

    thread_local! {
        /// Set by a test thread to make every engine build it runs panic.
        static FAIL_BUILDS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// The injected build failure, checked under the slot's write lock.
    pub(super) fn fail_if_injected() {
        assert!(!FAIL_BUILDS.get(), "injected build failure");
    }

    /// A graph of `n` vertices with many triangles: each new vertex closes
    /// one with two random earlier vertices.
    fn clustered_graph(n: u32, seed: u64) -> CsrGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (2..n)
            .flat_map(|v| {
                let (a, b) = (rng.gen_range(0..v), rng.gen_range(0..v));
                [(v, a), (v, b), (a, b)]
            })
            .collect();
        sd_graph::GraphBuilder::new().extend_edges(edges).build()
    }

    /// A Bound engine built on a multi-thread pool reports Algorithm 4's
    /// own search space: the scan runs single-threaded on any pool, so its
    /// entries and `score_computations` equal the sequential scan's — on
    /// Figure 1, and on a graph spanning several 1,024-vertex blocks. A
    /// service on the same pool answers each query from its GCT index
    /// with the same scores.
    #[test]
    fn pooled_services_report_algorithm_4s_bound_search_space() {
        let (figure1, _, _) = paper_figure1_graph();
        let generated = clustered_graph(3 * 1024 + 100, 7);
        for (g, queries) in [(figure1, vec![(4, 1)]), (generated, vec![(2, 5), (3, 1), (3, 10)])] {
            let g = Arc::new(g);
            for threads in [2, 4] {
                let pool = Arc::new(WorkerPool::new(threads));
                let bound = build_engine_in(EngineKind::Bound, g.clone(), &pool);
                let s = SearchService::from_arc_with_pool(g.clone(), pool);
                for (k, r) in queries.iter().copied() {
                    let spec = QuerySpec::new(k, r).unwrap().with_engine(EngineKind::Bound);
                    let want = crate::bound::bound_top_r(&g, spec.config());
                    let got = bound.top_r(&spec).unwrap();
                    let at = format!("n={} k={k} r={r} on {threads} threads", g.n());
                    assert_eq!(got.entries, want.entries, "{at}");
                    let (got, want) =
                        (got.metrics.score_computations, want.metrics.score_computations);
                    assert_eq!(got, want, "{at}");
                    let served = s.top_r(&spec.with_engine(EngineKind::Gct)).unwrap();
                    assert_eq!(served.scores(), bound.top_r(&spec).unwrap().scores(), "{at}");
                }
            }
        }
    }

    /// A warmed-and-joined service routes each served kind to its own
    /// engine — the pre-0.4 deterministic behaviour, now behind
    /// `wait_ready` — and each answers as the Online and Bound scans do.
    #[test]
    fn explicit_routing_reaches_every_engine_once_ready() {
        let s = service();
        assert_eq!(s.warmup(EngineKind::ALL), SearchService::SERVED.to_vec());
        assert_eq!(s.wait_ready(EngineKind::ALL), SearchService::SERVED.to_vec());
        let spec = QuerySpec::new(4, 3).unwrap();
        let scans = [EngineKind::Online, EngineKind::Bound]
            .map(|kind| build_engine(kind, s.graph()).top_r(&spec).unwrap().scores());
        for kind in SearchService::SERVED {
            let result = s.top_r(&spec.with_engine(kind)).unwrap();
            assert_eq!(result.metrics.engine, kind.name());
            assert!(scans.iter().all(|scan| *scan == result.scores()), "{kind}: {scans:?}");
        }
        assert_eq!(s.built_engines(), SearchService::SERVED.to_vec());
        let stats = s.stats();
        assert_eq!(stats.queries_served, SearchService::SERVED.len());
        assert_eq!(stats.engines_built, SearchService::SERVED.len());
        assert_eq!(stats.foreground_fallbacks, 0, "ready engines must serve directly");
    }

    /// The kinds a service does not serve — TSD among them — are refused
    /// before anything is built or scanned, on every path: one query, a
    /// slot of a batch (its mates still answer), and the all-or-nothing
    /// batch, which then runs nothing. Warming or joining them schedules
    /// and builds nothing.
    #[test]
    fn unserved_kinds_are_refused_on_a_cold_service_without_building() {
        let s = service();
        let unserved = [EngineKind::Online, EngineKind::Bound, EngineKind::Tsd];
        let spec = QuerySpec::new(4, 1).unwrap();
        for kind in unserved {
            let refused = SearchError::EngineNotServed { engine: kind };
            assert_eq!(s.top_r(&spec.with_engine(kind)).unwrap_err(), refused);
            let batch = [spec.with_engine(kind), spec.with_engine(EngineKind::Gct)];
            assert_eq!(s.top_r_many_pinned(&batch).unwrap_err(), refused);
        }
        assert_eq!(s.warmup(unserved), vec![]);
        assert_eq!(s.wait_ready(unserved), vec![]);
        assert!(s.built_engines().is_empty());
        assert_eq!((s.stats().engines_built, s.queries_served()), (0, 0));

        let batch = unserved.map(|kind| spec.with_engine(kind));
        let (_, results) = s.top_r_many(&[batch[0], batch[2], spec], &[]);
        for (slot, kind) in [(0, EngineKind::Online), (1, EngineKind::Tsd)] {
            let Err(refused) = &results[slot] else { panic!("slot {slot}: {results:?}") };
            assert_eq!(*refused, SearchError::EngineNotServed { engine: kind });
        }
        let Ok(Some(answer)) = &results[2] else { panic!("slot 2 is answered: {results:?}") };
        assert_eq!((answer.metrics.engine, answer.entries[0].score), ("gct", 3));
        assert_eq!(s.built_engines(), vec![EngineKind::Gct], "only the GCT slot built");
        assert_eq!((s.stats().engines_built, s.queries_served()), (1, 1));
    }

    /// A cold query routed to an index engine joins its build and the
    /// index answers it, with Online's answer; no Online engine is built.
    #[test]
    fn cold_index_query_joins_the_build_and_the_index_answers() {
        let s = service();
        let spec = QuerySpec::new(4, 2).unwrap().with_engine(EngineKind::Gct);
        let first = s.top_r(&spec).unwrap();
        assert_eq!(first.metrics.engine, "gct", "the index answers its cold query");
        let online = build_engine(EngineKind::Online, s.graph());
        assert_eq!(first.scores(), online.top_r(&spec).unwrap().scores());
        assert_eq!(s.built_engines(), vec![EngineKind::Gct], "no Online engine was built");
        let stats = s.stats();
        assert_eq!((stats.foreground_fallbacks, stats.engines_built), (1, 1));

        let warm = s.top_r(&spec).unwrap();
        assert_eq!(warm.entries, first.entries);
        assert_eq!(s.stats().foreground_fallbacks, 1, "a built index is not counted again");
    }

    /// A Bound engine the service hands out is not cached, so it cannot
    /// answer a cold index query: the index does, once its build is
    /// joined, with the Bound engine's answer.
    #[test]
    fn cold_index_query_is_answered_by_its_index_even_with_bound_cached() {
        let s = service();
        let bound = s.engine(EngineKind::Bound);
        assert!(s.built_engines().is_empty(), "a Bound engine is never cached");
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        let first = s.top_r(&spec).unwrap();
        assert_eq!(first.metrics.engine, "gct");
        assert_eq!(first.entries, bound.top_r(&spec).unwrap().entries);
        assert_eq!(first.entries[0].score, 3);
        let stats = s.stats();
        assert_eq!((stats.foreground_fallbacks, stats.queries_served), (1, 1));
    }

    /// A build that panics on the query path fails that query, and every
    /// query that joined it, with `Internal`; the slot stays empty, the
    /// schedule latch resets, and a later query builds and answers.
    #[test]
    fn a_panicking_cold_build_fails_its_queries_and_a_later_query_retries() {
        let (graph, _, _) = paper_figure1_graph();
        let s = SearchService::with_pool(graph, Arc::new(WorkerPool::new(1)));
        // Park the pool's only worker so warmup's job stays queued with
        // the latch set.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        s.pool().submit(move || {
            let _ = parked.recv();
        });
        s.warmup([EngineKind::Gct]);
        assert!(s.core.current().scheduled.load(Ordering::Relaxed));

        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        std::thread::scope(|scope| {
            let queries: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        FAIL_BUILDS.set(true);
                        s.top_r(&spec)
                    })
                })
                .collect();
            for query in queries {
                let err = query.join().expect("the panic stays inside the service").unwrap_err();
                assert!(matches!(err, SearchError::Internal { .. }), "{err:?}");
            }
        });
        assert!(s.built_engines().is_empty(), "the slot stays empty");
        assert!(!s.core.current().scheduled.load(Ordering::Relaxed), "the latch reset");
        assert_eq!(s.stats().queries_served, 0);

        let retry = s.top_r(&spec).unwrap();
        assert_eq!((retry.metrics.engine, retry.entries[0].score), ("gct", 3));
        let _ = release.send(());
    }

    #[test]
    fn engines_are_cached_not_rebuilt() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        s.top_r(&spec).unwrap();
        let first = s.engine(EngineKind::Gct);
        s.top_r(&spec).unwrap();
        let second = s.engine(EngineKind::Gct);
        assert!(Arc::ptr_eq(&first, &second), "engine was rebuilt");
        assert_eq!(s.stats().engines_built, 1);
    }

    #[test]
    fn auto_on_small_graph_resolves_to_gct() {
        let s = service();
        // Cold: the query joins the GCT build, and GCT answers.
        let result = s.top_r(&QuerySpec::new(4, 1).unwrap()).unwrap();
        assert_eq!(result.metrics.engine, "gct");
        assert_eq!(result.entries[0].score, 3);
        assert_eq!(s.wait_ready([EngineKind::Auto]), vec![EngineKind::Gct]);
    }

    #[test]
    fn warmup_schedules_and_wait_ready_joins() {
        let s = service();
        // Auto and GCT name one index; TSD is skipped.
        let warmed = s.warmup([EngineKind::Auto, EngineKind::Tsd, EngineKind::Gct]);
        assert_eq!(warmed, vec![EngineKind::Gct]);
        let ready = s.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
        assert_eq!(ready, vec![EngineKind::Gct]);
        assert_eq!(s.built_engines(), vec![EngineKind::Gct]);
        assert_eq!(s.stats().engines_built, 1);
        assert_eq!(s.queries_served(), 0, "warmup must not count as traffic");
    }

    #[test]
    fn invalid_specs_fail_before_building_engines() {
        let s = service();
        let n = s.graph().n();
        let err = s.top_r(&QuerySpec::new(4, n + 1).unwrap()).unwrap_err();
        assert_eq!(err, SearchError::ResultSizeExceedsGraph { r: n + 1, n });
        assert!(s.built_engines().is_empty(), "engine built for an invalid query");
        assert_eq!(s.queries_served(), 0);
    }

    #[test]
    fn batch_queries_agree_with_singles() {
        let s = service();
        let specs: Vec<QuerySpec> = (2..=5).map(|k| QuerySpec::new(k, 2).unwrap()).collect();
        let (_, batch) = s.top_r_many_pinned(&specs).unwrap();
        assert_eq!(batch.len(), specs.len());
        let fresh = service();
        for (spec, result) in specs.iter().zip(&batch) {
            let single = fresh.top_r(spec).unwrap();
            assert_eq!(single.scores(), result.scores());
        }
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let s = service();
        let n = s.graph().n();
        let specs = [QuerySpec::new(4, 1).unwrap(), QuerySpec::new(4, n + 1).unwrap()];
        assert!(s.top_r_many_pinned(&specs).is_err());
        assert_eq!(s.queries_served(), 0, "no query may run when the batch is invalid");
    }

    #[test]
    fn an_invalid_slot_fails_alone_on_both_paths() {
        for threads in [1, 4] {
            let (graph, _, _) = paper_figure1_graph();
            let s = SearchService::with_pool(graph, Arc::new(WorkerPool::new(threads)));
            let n = s.graph().n();
            let good = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
            let bad = QuerySpec::new(3, n + 1).unwrap();
            let (epoch, results) = s.top_r_many(&[good, bad, good], &[]);
            assert_eq!(epoch, 0);
            let want = build_engine(EngineKind::Online, s.graph()).top_r(&good).unwrap().entries;
            for i in [0, 2] {
                let answer = results[i].as_ref().expect("valid slot runs").as_ref().expect("ran");
                assert_eq!(answer.entries, want, "{threads} threads, slot {i}");
            }
            let Err(err) = &results[1] else { panic!("r > n must fail its slot: {results:?}") };
            assert_eq!(*err, SearchError::ResultSizeExceedsGraph { r: n + 1, n });
        }
    }

    #[test]
    fn cancelled_slots_come_back_none_and_mates_still_run_sequentially() {
        // A 1-thread pool forces the sequential path: the slot-boundary
        // check there is what the batcher relies on when the shared pool
        // has a single worker.
        let (graph, _, _) = paper_figure1_graph();
        let s = SearchService::with_pool(graph, Arc::new(WorkerPool::new(1)));
        s.wait_ready([EngineKind::Gct]);
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
        let cancelled = crate::cancel::CancelToken::new();
        cancelled.cancel();
        let cancels = vec![None, Some(cancelled)];
        let (epoch, results) = s.top_r_many(&[spec, spec], &cancels);
        assert_eq!(epoch, 0);
        assert!(matches!(results[0], Ok(Some(_))), "the uncancelled mate ran");
        assert!(matches!(results[1], Ok(None)), "the cancelled slot was skipped");
        assert_eq!(s.queries_served(), 1, "the cancelled query never executed");
    }

    #[test]
    fn cancelled_slots_come_back_none_on_the_fanout_path() {
        let (graph, _, _) = paper_figure1_graph();
        let s = SearchService::with_pool(graph, Arc::new(WorkerPool::new(4)));
        s.wait_ready([EngineKind::Gct]);
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
        let cancelled = crate::cancel::CancelToken::new();
        cancelled.cancel();
        let cancels = vec![Some(cancelled.clone()), None, Some(cancelled)];
        let (_, results) = s.top_r_many(&[spec, spec, spec], &cancels);
        assert!(matches!(results[0], Ok(None)), "cancelled slot skipped");
        assert!(matches!(results[2], Ok(None)), "cancelled slot skipped");
        let Ok(Some(live)) = &results[1] else { panic!("uncancelled mate ran: {results:?}") };
        assert_eq!(live.entries, s.top_r(&spec).unwrap().entries, "mate answer unaffected");
    }

    #[test]
    fn empty_cancel_list_means_nothing_is_cancelled() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        let spec = QuerySpec::new(4, 2).unwrap().with_engine(EngineKind::Gct);
        let (epoch, results) = s.top_r_many(&[spec, spec], &[]);
        assert_eq!(epoch, 0);
        assert!(results.iter().all(|r| matches!(r, Ok(Some(_)))), "{results:?}");
    }

    /// Auto needs no warm-up on any graph: its first query, on a graph
    /// far larger than Figure 1, builds GCT and GCT answers it.
    #[test]
    fn auto_resolves_to_gct_from_the_first_query_on_any_graph() {
        let path = (0..30_000).map(|v| (v, v + 1));
        let s = SearchService::new(sd_graph::GraphBuilder::new().extend_edges(path).build());
        let spec = QuerySpec::new(2, 1).unwrap();
        assert_eq!(s.top_r(&spec).unwrap().metrics.engine, "gct");
        assert_eq!(s.built_engines(), vec![EngineKind::Gct], "no index-free engine was built");
        assert_eq!(s.stats().foreground_fallbacks, 1);
    }

    /// A cold batch, sequential or fanned out, builds the index once,
    /// whether its queries name GCT or Auto; the index answers every
    /// query with Online's answer.
    #[test]
    fn a_cold_batch_builds_each_index_once_and_the_indexes_answer() {
        let (graph, _, _) = paper_figure1_graph();
        let online = build_engine(EngineKind::Online, Arc::new(graph.clone()));
        let specs: Vec<QuerySpec> = (2..=5)
            .flat_map(|k| {
                [EngineKind::Gct, EngineKind::Auto]
                    .map(|e| QuerySpec::new(k, 3).unwrap().with_engine(e))
            })
            .collect();
        for threads in [1, 4] {
            let s = SearchService::with_pool(graph.clone(), Arc::new(WorkerPool::new(threads)));
            let (_, results) = s.top_r_many_pinned(&specs).unwrap();
            for (spec, result) in specs.iter().zip(&results) {
                assert_eq!(result.metrics.engine, "gct", "{threads} threads");
                assert_eq!(result.scores(), online.top_r(spec).unwrap().scores());
            }
            assert_eq!(s.built_engines(), vec![EngineKind::Gct]);
            assert_eq!(s.stats().engines_built, 1, "{threads} threads: one build");
        }
    }

    #[test]
    fn bundle_roundtrip_through_the_service() {
        let s = service();
        let fresh = service();
        fresh.import_bundle(s.export_bundle()).unwrap();
        assert_eq!(fresh.built_engines(), [EngineKind::Gct]);
        assert_eq!(fresh.stats().engines_built, 1);
        let result = fresh.top_r(&QuerySpec::new(4, 1).unwrap()).unwrap();
        assert_eq!(result.metrics.engine, "gct", "the bundled engine serves directly");
        assert_eq!(result.entries[0].score, 3);
        assert_eq!(fresh.stats().foreground_fallbacks, 0);
    }

    #[test]
    fn import_rejects_wrong_graph_and_garbage() {
        let s = service();
        let bundle = s.export_bundle();
        let other = SearchService::new(
            sd_graph::GraphBuilder::new().extend_edges([(0, 1), (1, 2)]).build(),
        );
        assert_eq!(
            other.import_bundle(bundle).unwrap_err(),
            SearchError::FingerprintMismatch {
                expected: other.fingerprint(),
                found: s.fingerprint()
            }
        );
        assert_eq!(
            s.import_bundle(Bytes::from_static(b"garbage")).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated)
        );
    }

    #[test]
    fn concurrent_cold_start_builds_each_engine_once() {
        let s = service();
        let spec = QuerySpec::new(4, 2).unwrap();
        let reference = build_engine(EngineKind::Online, s.graph()).top_r(&spec).unwrap().scores();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for kind in EngineKind::ALL {
                        let answer = s.top_r(&spec.with_engine(kind));
                        if !SearchService::SERVED.contains(&kind) {
                            assert_eq!(
                                answer.unwrap_err(),
                                SearchError::EngineNotServed { engine: kind }
                            );
                            continue;
                        }
                        // Cold index kinds are joined, then answer.
                        let result = answer.unwrap();
                        assert_eq!(result.metrics.engine, kind.name());
                        assert_eq!(result.scores(), reference);
                    }
                });
            }
        });
        s.wait_ready(EngineKind::ALL);
        let stats = s.stats();
        assert_eq!(
            stats.engines_built,
            SearchService::SERVED.len(),
            "racing threads must not duplicate builds"
        );
        assert_eq!(stats.queries_served, 8 * SearchService::SERVED.len());
    }

    #[test]
    fn apply_updates_publishes_a_new_epoch_and_carries_gct() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        assert_eq!((s.epoch(), s.stats().epochs), (0, 1));
        let before = s.fingerprint();

        // Connect the two free corners; reject a duplicate and a self-loop.
        let stats = s
            .apply_updates(&[
                GraphUpdate::Insert { u: 1, v: 6 },
                GraphUpdate::Insert { u: 0, v: 1 },
                GraphUpdate::Insert { u: 3, v: 3 },
            ])
            .unwrap();
        assert_eq!((stats.epoch, stats.applied, stats.rejected), (1, 1, 2));
        assert!(stats.gct_carried, "a built GCT engine is repaired");
        assert!(stats.tsd_repairs >= 2, "both endpoints' egos repair");
        assert_eq!(stats.gct_repairs, stats.tsd_repairs, "one op touches each ego once");
        assert_eq!(stats.m as u64, before.m + 1);

        assert_eq!(s.epoch(), 1);
        assert_ne!(s.fingerprint(), before, "fingerprint must track the epoch");
        let service_stats = s.stats();
        assert_eq!(service_stats.epochs, 2);
        assert_eq!(service_stats.updates_applied, 1);
        assert_eq!(service_stats.gct_repairs, stats.gct_repairs);

        // The repaired engine is warm (no build) and answers for the *new*
        // graph, identically to a fresh build.
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        let live = s.top_r(&spec).unwrap();
        assert_eq!(live.metrics.engine, "gct", "the repaired index serves without a build");
        assert_eq!(s.stats().foreground_fallbacks, 0);
        let fresh = SearchService::new((*s.graph()).clone());
        assert_eq!(live.entries, fresh.top_r(&spec).unwrap().entries);
    }

    /// Ops that share egos repair each of them once: all three applied
    /// ops below touch vertices 0 and 1, yet the batch re-decomposes fewer
    /// egos than its ops touched, and the published index equals a full
    /// build of the final graph.
    #[test]
    fn a_batch_repairs_each_affected_ego_once() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        let stats = s
            .apply_updates(&[
                GraphUpdate::Insert { u: 1, v: 6 },
                GraphUpdate::Remove { u: 0, v: 1 },
                GraphUpdate::Insert { u: 0, v: 1 },
                GraphUpdate::Insert { u: 0, v: 1 }, // duplicate by now
            ])
            .unwrap();
        assert_eq!((stats.applied, stats.rejected), (3, 1));
        assert!(stats.gct_carried, "{stats:?}");
        assert!(stats.tsd_repairs >= 2 * stats.applied, "{stats:?}");
        assert!(stats.gct_repairs < stats.tsd_repairs, "{stats:?}");
        let engine = s.core.current().cached().expect("the repair publishes warm");
        let published = engine.gct_index().expect("a GCT engine").to_bytes();
        assert_eq!(published, GctIndex::build(&s.graph()).to_bytes());
    }

    /// A repair that panics fails its batch with `Internal` and publishes
    /// nothing: the epoch, the graph and the applied count stay. The next
    /// batch repairs the same epoch, and publishes an index equal to a
    /// full build of its graph.
    #[test]
    fn a_panicking_repair_fails_its_batch_and_publishes_nothing() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        let (epoch, graph) = (s.epoch(), s.graph());
        let batch = [GraphUpdate::Insert { u: 1, v: 6 }];
        FAIL_BUILDS.set(true);
        let err = s.apply_updates(&batch).unwrap_err();
        FAIL_BUILDS.set(false);
        assert!(matches!(err, SearchError::Internal { .. }), "{err:?}");
        assert_eq!((s.epoch(), s.stats().updates_applied), (epoch, 0));
        assert!(Arc::ptr_eq(&s.graph(), &graph), "the graph was not published");

        let stats = s.apply_updates(&batch).unwrap();
        assert_eq!((stats.epoch, stats.applied), (epoch + 1, 1));
        assert!(stats.gct_carried, "{stats:?}");
        let engine = s.core.current().cached().expect("the repair publishes warm");
        assert_eq!(*engine.index(), GctIndex::build(&s.graph()));
    }

    /// A batch on a service with nothing built publishes its snapshot and
    /// builds no index; the next query builds GCT on the new graph and
    /// answers as Online does there.
    #[test]
    fn a_batch_on_a_cold_service_publishes_its_snapshot_and_builds_nothing() {
        let s = service();
        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert_eq!((stats.epoch, stats.applied, stats.gct_repairs), (1, 1, 0));
        assert!(!stats.gct_carried);
        assert!(s.graph().has_edge(1, 6));
        assert!(s.built_engines().is_empty());
        assert_eq!(s.stats().engines_built, 0, "the batch built no index");

        let spec = QuerySpec::new(3, 4).unwrap();
        let answer = s.top_r(&spec).unwrap();
        assert_eq!(answer.metrics.engine, "gct");
        let online = build_engine(EngineKind::Online, s.graph()).top_r(&spec).unwrap();
        assert_eq!(answer.entries, online.entries);
        let stats = s.stats();
        assert_eq!((stats.engines_built, stats.epochs, stats.updates_applied), (1, 2, 1));
    }

    #[test]
    fn rejected_only_batches_publish_nothing() {
        let s = service();
        let stats = s
            .apply_updates(&[
                GraphUpdate::Insert { u: 0, v: 1 },  // duplicate
                GraphUpdate::Insert { u: 2, v: 2 },  // self-loop
                GraphUpdate::Remove { u: 0, v: 40 }, // absent
            ])
            .unwrap();
        assert_eq!((stats.epoch, stats.applied, stats.rejected), (0, 0, 3));
        assert_eq!(s.epoch(), 0, "a no-op batch must not publish an epoch");
        assert_eq!(s.stats().epochs, 1);
        assert_eq!(s.apply_updates(&[]).unwrap_err(), SearchError::EmptyUpdateBatch);
    }

    #[test]
    fn updates_carry_every_live_engine_warm_across_the_swap() {
        let s = service();
        s.wait_ready(EngineKind::ALL);
        let before = s.stats();
        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();

        // The new epoch publishes with its index already warm, repaired
        // over the affected region. Nothing re-enters the background queue.
        assert!(stats.gct_carried);
        assert!(stats.gct_repairs > 0, "affected egos were re-decomposed");
        assert_eq!(s.built_engines(), SearchService::SERVED.to_vec(), "warm right after the swap");
        let after = s.stats();
        assert_eq!(
            after.background_builds, before.background_builds,
            "a warm update must not enqueue any full rebuild"
        );
        assert!(after.gct_repairs >= before.gct_repairs + stats.gct_repairs);
        // And the repaired engine answers directly (no build window).
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
        assert_eq!(s.top_r(&spec).unwrap().metrics.engine, "gct");
        assert_eq!(s.stats().foreground_fallbacks, 0);
    }

    /// A batch landing while GCT is scheduled but not yet built has no GCT
    /// index to repair, so the new epoch re-queues the build; a GCT query
    /// that arrives first joins it, and the next batch carries the index.
    #[test]
    fn updates_without_gct_state_requeue_the_build_and_queries_join_it() {
        let (graph, _, _) = paper_figure1_graph();
        let s = SearchService::with_pool(graph, Arc::new(WorkerPool::new(1)));
        // Park the pool's only worker so the GCT build stays queued.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        s.pool().submit(move || {
            let _ = parked.recv();
        });
        assert_eq!(s.warmup([EngineKind::Gct]), vec![EngineKind::Gct]);
        assert!(s.built_engines().is_empty(), "the GCT build is queued, not run");

        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert_eq!((stats.epoch, stats.applied), (1, 1));
        assert!(!stats.gct_carried, "no built GCT index to carry");
        assert_eq!(stats.gct_repairs, 0);
        assert!(!s.built_engines().contains(&EngineKind::Gct));
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
        let during = s.top_r(&spec).unwrap();
        assert_eq!(during.metrics.engine, "gct", "the query joined the re-queued build");
        let online = build_engine(EngineKind::Online, s.graph());
        assert_eq!(during.scores(), online.top_r(&spec).unwrap().scores());

        let _ = release.send(());
        s.wait_ready([EngineKind::Gct]);
        assert_eq!(s.stats().background_builds, 0, "the query built GCT, so the jobs no-op");
        let stats = s.apply_updates(&[GraphUpdate::Remove { u: 1, v: 6 }]).unwrap();
        assert!(stats.gct_carried, "a built GCT engine seeds the carry");
        assert!(stats.gct_repairs > 0);
    }

    /// An op naming a vertex far past the graph is rejected before any
    /// per-vertex table grows; the rest of its batch still applies.
    #[test]
    fn updates_reaching_past_the_growth_bound_are_rejected() {
        let s = service();
        s.wait_ready([EngineKind::Gct]);
        let n = s.graph().n();
        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 0, v: u32::MAX }]).unwrap();
        assert_eq!((stats.epoch, stats.applied, stats.rejected), (0, 0, 1));
        assert_eq!((s.epoch(), s.graph().n()), (0, n), "nothing published");

        let limit = n + GROWTH_FLOOR + 2 * GROWTH_PER_OP;
        let stats = s
            .apply_updates(&[
                GraphUpdate::Insert { u: 0, v: limit as u32 },
                GraphUpdate::Insert { u: 0, v: limit as u32 - 1 },
            ])
            .unwrap();
        assert_eq!((stats.applied, stats.rejected), (1, 1), "the bound is exclusive");
        assert_eq!(stats.n, limit);
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Gct);
        assert_eq!(s.top_r(&spec).unwrap().metrics.engine, "gct");
    }

    #[test]
    fn stale_epoch_blobs_are_refused_after_updates() {
        let s = service();
        let stale = s.export_bundle();
        let old_fingerprint = s.fingerprint();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert_eq!(
            s.import_bundle(stale).unwrap_err(),
            SearchError::FingerprintMismatch { expected: s.fingerprint(), found: old_fingerprint }
        );
        // The *new* epoch's export re-imports fine into a fresh service on
        // the same final graph.
        let fresh = SearchService::new((*s.graph()).clone());
        fresh.import_bundle(s.export_bundle()).unwrap();
    }

    /// The fingerprint is computed on first use but is never stale: with
    /// nothing asking for the new epoch's fingerprint between the batch
    /// and the import, a one-index bundle exported before the batch is
    /// refused, and one exported after it imports.
    #[test]
    fn an_unread_fingerprint_still_refuses_a_pre_batch_envelope() {
        let s = service();
        let old_graph = s.graph();
        let before = s.export_bundle();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert!(s.core.current().fingerprint.get().is_none(), "the publish hashed nothing");
        assert_eq!(
            s.import_bundle(before).unwrap_err(),
            SearchError::FingerprintMismatch {
                expected: GraphFingerprint::of(&s.graph()),
                found: GraphFingerprint::of(&old_graph),
            }
        );
        s.import_bundle(s.export_bundle()).unwrap();
    }

    #[test]
    fn updates_can_grow_the_vertex_set() {
        let s = service();
        let n0 = s.graph().n();
        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 0, v: n0 as u32 + 2 }]).unwrap();
        assert_eq!(stats.n, n0 + 3);
        assert_eq!(s.graph().n(), n0 + 3);
        let spec = QuerySpec::new(2, n0 + 3).unwrap().with_engine(EngineKind::Gct);
        assert_eq!(s.top_r(&spec).unwrap().entries.len(), n0 + 3);
    }

    /// Serving reads a snapshot's rows only, never its edge ids: a cold
    /// batch, a GCT build on the snapshot it published, a repair, GCT and
    /// Auto queries, the fingerprint and an export leave each published
    /// graph holding its rows and nothing else.
    #[test]
    fn serving_never_derives_a_snapshots_edge_ids() {
        let rows_only = |g: &CsrGraph| {
            g.heap_bytes()
                == (g.n() + 1) * std::mem::size_of::<usize>()
                    + 2 * g.m() * std::mem::size_of::<VertexId>()
        };
        let s = service();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        let first = s.graph();
        s.wait_ready([EngineKind::Gct]);
        let grow = GraphUpdate::Insert { u: 2, v: first.n() as VertexId + 1 };
        let stats = s.apply_updates(&[GraphUpdate::Remove { u: 0, v: 1 }, grow]).unwrap();
        assert!(stats.gct_carried, "{stats:?}");
        for kind in [EngineKind::Gct, EngineKind::Auto] {
            let spec = QuerySpec::new(3, 4).unwrap().with_engine(kind);
            assert!(!s.top_r(&spec).unwrap().entries.is_empty(), "{kind:?}");
        }
        assert_eq!(s.fingerprint(), GraphFingerprint::of(&s.graph()));
        s.export_bundle();
        assert!(rows_only(&first), "the snapshot GCT was built on");
        assert!(rows_only(&s.graph()), "the published snapshot");
    }

    /// The repair writes exactly what a full build of the final graph
    /// would: over batches that grow the vertex set, and over an insert
    /// whose endpoints share 300 neighbours, whose 302 affected egos span
    /// two chunks. On 1-, 2- and 4-thread pools the published index
    /// equals the sequential build byte for byte.
    #[test]
    fn repaired_indexes_equal_the_sequential_build_on_any_pool() {
        let published = |s: &SearchService| {
            let engine = s.core.current().cached().expect("the repair publishes warm");
            engine.gct_index().expect("a GCT engine").to_bytes()
        };
        let (figure1, _, _) = paper_figure1_graph();
        let figure1_batches = vec![
            vec![GraphUpdate::Insert { u: 1, v: 6 }, GraphUpdate::Remove { u: 2, v: 5 }],
            vec![GraphUpdate::Insert { u: 0, v: 20 }, GraphUpdate::Insert { u: 6, v: 20 }],
            vec![GraphUpdate::Remove { u: 1, v: 6 }],
        ];
        let edges = (2..302u32).flat_map(|w| [(0, w), (1, w), (w, w + 1), (w, w + 2)]);
        let fan = sd_graph::GraphBuilder::new().extend_edges(edges).build();
        let fan_batch =
            vec![GraphUpdate::Insert { u: 0, v: 1 }, GraphUpdate::Remove { u: 2, v: 3 }];
        for threads in [1, 2, 4] {
            let pool = Arc::new(WorkerPool::new(threads));
            let s = SearchService::with_pool(figure1.clone(), pool.clone());
            s.wait_ready([EngineKind::Gct]);
            for batch in &figure1_batches {
                assert!(s.apply_updates(batch).unwrap().gct_carried);
                let want = GctIndex::build(&s.graph()).to_bytes();
                assert_eq!(published(&s), want, "after {batch:?} t={threads}");
            }

            let s = SearchService::with_pool(fan.clone(), pool);
            s.wait_ready([EngineKind::Gct]);
            let stats = s.apply_updates(&fan_batch).unwrap();
            assert!(stats.gct_repairs > crate::parallel::SCAN_CHUNK, "{stats:?}");
            assert_eq!(s.graph().m(), fan.m(), "one insert, one removal");
            assert_eq!(published(&s), GctIndex::build(&s.graph()).to_bytes(), "t={threads}");
        }
    }

    #[test]
    fn queries_pin_their_epoch_snapshot() {
        let s = service();
        // Pin the construction-epoch graph, then mutate heavily.
        let old_graph = s.graph();
        let old_m = old_graph.m();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }, GraphUpdate::Remove { u: 0, v: 1 }])
            .unwrap();
        assert_eq!(old_graph.m(), old_m, "a pinned snapshot must never change");
        assert!(!old_graph.has_edge(1, 6) && old_graph.has_edge(0, 1));
        let new_graph = s.graph();
        assert!(new_graph.has_edge(1, 6) && !new_graph.has_edge(0, 1));
    }
}
