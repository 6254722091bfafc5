//! [`SearchService`]: the concurrent serving layer — one shared graph, four
//! lazily built engines, `&self` queries from any number of threads, index
//! builds that run in chunks on the shared worker pool, and
//! **epoch-swapped snapshots** so the graph itself can mutate under
//! traffic.
//!
//! The paper frames structural diversity search as an *online service* over
//! a large social graph; a production deployment answers many `(k, r)`
//! queries concurrently against a graph that keeps evolving (Section 5.3's
//! dynamic-update remark). `SearchService` is built for exactly that shape:
//!
//! * all per-graph state — the `Arc<CsrGraph>`, its [`GraphFingerprint`],
//!   and the four engine slots — lives in one immutable *epoch*; queries
//!   clone the current epoch's `Arc` and run entirely against that
//!   snapshot, so a concurrent [`SearchService::apply_updates`] can never
//!   tear a query between two graphs;
//! * each engine slot is an interior-mutable cache (`RwLock` per
//!   [`EngineKind`]) holding an `Arc<dyn DiversityEngine>`; construction
//!   happens under the slot's write lock, double-checked, so every engine
//!   is built exactly once per epoch no matter how many threads race;
//! * **a cold query costs one parallel build**: [`SearchService::top_r`]
//!   on an unbuilt TSD/GCT engine joins that engine's build — running it
//!   on the calling thread if nobody has started it — and the index
//!   answers. Every build runs in fixed vertex chunks on the
//!   **process-wide [`WorkerPool`]** (shared by every service in the
//!   process), with the building thread taking part, so the query pays
//!   for that build instead of a full per-ego scan competing with it for
//!   the same cores;
//! * **queries use the hardware**: besides the index builds, the same
//!   pool fans [`SearchService::top_r_many`] batches out as independent
//!   tasks, each pinned to the batch's epoch snapshot. A lone query runs
//!   on its caller's thread; the Online and Bound engines scan
//!   single-threaded, as in the paper. Pooled builds are byte-identical
//!   to sequential ones (see [`crate::parallel`]);
//!   [`ServiceStats::pool_threads`] and [`ServiceStats::parallel_queries`]
//!   surface what the pool is doing for this service;
//! * **the graph is mutable under traffic**:
//!   [`SearchService::apply_updates`] applies a batch of edge
//!   insertions/deletions, carries the TSD- and GCT-indexes across
//!   *incrementally* (the [`DynamicTsd`] affected-ego-network repair — only
//!   the endpoints' and their common neighbors' entries are recomputed,
//!   never the whole index), derives the O(1) engines, re-enqueues the
//!   invalidated ones, and publishes the next epoch with a single pointer
//!   swap; in-flight queries keep reading their snapshot, new queries see
//!   the new graph;
//! * [`SearchService::warmup`] is non-blocking (it enqueues); the matching
//!   join is [`SearchService::wait_ready`], which returns once the named
//!   engines are built — lending the calling thread to any build not yet
//!   started, so it can never wait on an empty queue;
//! * query, build, cold-query, and epoch counters are atomics, surfaced as
//!   [`ServiceStats`] (including `epochs`, `updates_applied`, and
//!   `incremental_tsd_carries`);
//! * persistence goes through fingerprinted frames: one index per blob via
//!   [`SearchService::export_index`] / [`SearchService::import_index`], or
//!   every serializable index behind a single fingerprint via
//!   [`SearchService::export_bundle`] / [`SearchService::import_bundle`].
//!   Every epoch has its own fingerprint, so both import paths refuse
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
//! // named engines serve every query without a build.
//! service.warmup([EngineKind::Tsd, EngineKind::Gct]);
//! service.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
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
//! // The graph mutates *under* that traffic: the TSD-index is carried
//! // incrementally into the new epoch, not rebuilt.
//! let stats = service.apply_updates(&[GraphUpdate::Remove { u: 2, v: 5 }])?;
//! assert_eq!((stats.applied, stats.tsd_carried), (1, true));
//! assert_eq!(service.top_r(&spec.with_engine(EngineKind::Tsd))?.entries[0].score, 3);
//! # Ok::<(), sd_core::SearchError>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use sd_graph::{CowStats, CsrGraph, DynamicGraph, GraphUpdate, VertexId};

use crate::cancel::CancelToken;
use crate::config::TopRResult;
use crate::dynamic::DynamicTsd;
use crate::engine::{
    build_engine_in, decode_engine, DiversityEngine, EngineKind, GctEngine, QuerySpec, TsdEngine,
};
use crate::envelope::{GraphFingerprint, IndexBundle, IndexEnvelope};
use crate::error::SearchError;
use crate::lock_order;
use crate::pool::{self, Job, WorkerPool};

/// Batches below this size are not worth fanning out onto the pool.
const FANOUT_MIN_SPECS: usize = 2;

/// How far past the published graph's vertex count an update batch may
/// reach: [`GROWTH_FLOOR`] ids, plus [`GROWTH_PER_OP`] per op in the
/// batch. Every per-vertex table grows to the largest endpoint, so without
/// this bound one op naming vertex `u32::MAX` would allocate for four
/// billion vertices.
const GROWTH_FLOOR: usize = 1 << 16;

/// See [`GROWTH_FLOOR`]: each op may name two new vertices.
const GROWTH_PER_OP: usize = 2;

/// One `top_r_many` fan-out result slot, filled by its pool task.
type BatchSlot = Mutex<Option<Result<Option<TopRResult>, SearchError>>>;

/// One engine slot: a lazily initialized, concurrently readable cache.
/// Construction happens *under the write lock* (double-checked), which is
/// what makes "exactly one build per kind per epoch" a structural guarantee
/// rather than a counter discipline.
type EngineSlot = RwLock<Option<Arc<dyn DiversityEngine>>>;

/// Snapshot of a service's atomic counters ([`SearchService::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Successful queries served over the service's lifetime.
    pub queries_served: usize,
    /// Engines constructed (cache misses across all epochs; grows past one
    /// per concrete kind when updates publish new epochs or indexes are
    /// re-imported).
    pub engines_built: usize,
    /// Engines constructed by a scheduled pool job — a warmup's, or an
    /// update's re-queued build (a subset of `engines_built`).
    pub background_builds: usize,
    /// Queries that found their TSD or GCT index unbuilt, and so joined
    /// its build before the index answered them.
    pub foreground_fallbacks: usize,
    /// Epochs published so far; 1 until the first successful
    /// [`SearchService::apply_updates`].
    pub epochs: usize,
    /// Edge updates that mutated the graph over the service's lifetime
    /// (rejected no-ops are not counted).
    pub updates_applied: usize,
    /// Epoch publications whose TSD-index was carried *incrementally* —
    /// repaired per affected ego-network from retained state — rather than
    /// built from scratch. At most one less than `epochs`.
    pub incremental_tsd_carries: usize,
    /// GCT entries repaired in place by affected-region re-decomposition
    /// across all update batches ([`UpdateStats::gct_repairs`], summed).
    pub gct_repairs: usize,
    /// Successful queries answered per concrete engine, in
    /// [`EngineKind::ALL`] order ([`EngineKind::Auto`] queries count toward
    /// the engine they resolved to).
    pub queries_by_engine: [usize; EngineKind::ALL.len()],
    /// Worker threads currently alive in the [`WorkerPool`] this service
    /// schedules onto. The pool is process-wide by default, so this is a
    /// *shared* figure — N services over the global pool report the same
    /// value, bounded by the pool size, not N times it.
    pub pool_threads: usize,
    /// Successful queries that ran as [`SearchService::top_r_many`]
    /// fan-out tasks on the pool.
    pub parallel_queries: usize,
}

impl ServiceStats {
    /// Queries answered by `kind` ([`EngineKind::Auto`] returns 0 — it is
    /// always resolved to a concrete engine before serving).
    pub fn queries_for(&self, kind: EngineKind) -> usize {
        match kind {
            EngineKind::Auto => 0,
            concrete => self.queries_by_engine[ServiceCore::slot(concrete)],
        }
    }
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
    /// Ego-network forests the applied updates invalidated, `2 + |N(u) ∩
    /// N(v)|` per applied update — counted once per update that touched
    /// them, so a vertex two updates touch counts twice here and is
    /// re-decomposed once (`gct_repairs`).
    pub tsd_repairs: usize,
    /// Whether the new epoch's TSD-index was carried from retained state
    /// (an earlier batch's [`DynamicTsd`] or an already-built TSD engine)
    /// rather than seeded by a from-scratch build in this call.
    pub tsd_carried: bool,
    /// Distinct ego-networks re-decomposed for this batch, each once
    /// against the final graph, with one decomposition feeding both its
    /// TSD forest and its GCT entry. 0 when GCT was not carried (no built
    /// GCT engine to seed from) or the batch published nothing.
    pub gct_repairs: usize,
    /// Whether the new epoch's GCT engine was published warm from
    /// affected-region repair. False when the old epoch had no built GCT
    /// engine to seed the carry from — then a GCT build that was scheduled
    /// is re-queued on the new epoch — or when the batch published nothing.
    pub gct_carried: bool,
    /// Vertex count of the published graph.
    pub n: usize,
    /// Edge count of the published graph.
    pub m: usize,
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
    /// One slot per concrete engine, in [`EngineKind::ALL`] order.
    slots: [EngineSlot; EngineKind::ALL.len()],
    /// One latch per slot: set by the first thread to enqueue that kind in
    /// this epoch, so a cold-start spike of N threads produces one queue
    /// entry, not N.
    scheduled: [AtomicBool; EngineKind::ALL.len()],
}

impl EpochState {
    /// A fresh epoch over `graph`, all engine slots cold and the
    /// fingerprint not yet computed.
    fn over(id: u64, graph: Arc<CsrGraph>) -> Self {
        EpochState {
            id,
            graph,
            fingerprint: OnceLock::new(),
            slots: std::array::from_fn(|_| lock_order::ENGINE_SLOT.rwlock(None)),
            scheduled: std::array::from_fn(|_| AtomicBool::new(false)),
        }
    }

    /// The graph's fingerprint, computed once per epoch, on first use.
    fn fingerprint(&self) -> GraphFingerprint {
        *self.fingerprint.get_or_init(|| GraphFingerprint::of(&self.graph))
    }

    /// Non-blocking cache probe: `None` both when the engine was never
    /// built and while it is *being* built (the builder holds the write
    /// lock) — the serving path's "is my index unbuilt" test, and
    /// [`Self::resolve`]'s "is it built" one.
    fn cached(&self, kind: EngineKind) -> Option<Arc<dyn DiversityEngine>> {
        self.slots[ServiceCore::slot(kind)].try_read()?.clone() // lock: engine.slot
    }

    fn is_built(&self, kind: EngineKind) -> bool {
        self.cached(kind).is_some()
    }

    /// Whether `kind` is either built or latched for a background build in
    /// this epoch — i.e. traffic (or warmup) has expressed interest in it.
    fn is_live(&self, kind: EngineKind) -> bool {
        self.is_built(kind) || self.scheduled[ServiceCore::slot(kind)].load(Ordering::Relaxed)
    }

    /// Resolves [`EngineKind::Auto`] in this epoch: GCT, or TSD while TSD
    /// is built and GCT is not. Concrete kinds resolve to themselves.
    fn resolve(&self, kind: EngineKind) -> EngineKind {
        match kind {
            EngineKind::Auto
                if !self.is_built(EngineKind::Gct) && self.is_built(EngineKind::Tsd) =>
            {
                EngineKind::Tsd
            }
            EngineKind::Auto => EngineKind::Gct,
            concrete => concrete,
        }
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
    epochs: AtomicUsize,
    updates_applied: AtomicUsize,
    incremental_tsd_carries: AtomicUsize,
    gct_repairs: AtomicUsize,
    parallel_queries: AtomicUsize,
    queries_by_slot: [AtomicUsize; EngineKind::ALL.len()],
}

impl ServiceCore {
    fn slot(kind: EngineKind) -> usize {
        match kind {
            EngineKind::Online => 0,
            EngineKind::Bound => 1,
            EngineKind::Tsd => 2,
            EngineKind::Gct => 3,
            // sd-lint: allow(no-panic) every public entry resolves Auto via resolve_kind first
            EngineKind::Auto => unreachable!("Auto is resolved before slot lookup"),
        }
    }

    /// The serving epoch, pinned: the returned snapshot stays valid (and
    /// immutable) however many updates publish after this call.
    fn current(&self) -> Arc<EpochState> {
        self.current.read().clone() // lock: epoch.ptr
    }

    /// The engine of `kind` in `epoch`, built on the calling thread if
    /// absent. Blocks while another thread builds the same kind (and then
    /// reuses that build); returns whether *this* call performed the build.
    fn build_if_absent(
        &self,
        epoch: &EpochState,
        kind: EngineKind,
    ) -> (Arc<dyn DiversityEngine>, bool) {
        let slot = &epoch.slots[Self::slot(kind)];
        let cached = slot.read().clone(); // lock: engine.slot
        if let Some(engine) = cached {
            return (engine, false);
        }
        // Double-check under the write lock: another thread may have built
        // the engine while we waited for it.
        let mut guard = slot.write(); // lock: engine.slot
        if let Some(engine) = guard.as_ref() {
            return (engine.clone(), false);
        }
        #[cfg(test)]
        tests::fail_if_injected();
        // An index build runs its chunks under this write lock, through
        // `run_all`, which never runs another caller's jobs on this thread.
        let engine: Arc<dyn DiversityEngine> =
            Arc::from(build_engine_in(kind, epoch.graph.clone(), &self.pool));
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        *guard = Some(engine.clone());
        (engine, true)
    }

    /// Installs an externally produced engine into `epoch`, replacing any
    /// cached one.
    fn install(&self, epoch: &EpochState, kind: EngineKind, engine: Arc<dyn DiversityEngine>) {
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        *epoch.slots[Self::slot(kind)].write() = Some(engine); // lock: engine.slot
    }

    /// Enqueues a background build for `kind` onto the shared pool,
    /// exactly once per epoch (later calls are no-ops, as are queued jobs
    /// for a kind that got built through another path first).
    fn schedule_build(self: &Arc<Self>, epoch: &EpochState, kind: EngineKind) {
        let latch = &epoch.scheduled[Self::slot(kind)];
        if latch.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            let core = self.clone();
            self.pool.submit(move || core.run_scheduled_build(kind));
        }
    }

    /// [`Self::build_if_absent`] with a panicking build contained: the
    /// slot stays empty, the kind's schedule latch resets, and `None` comes
    /// back, so a later query, job or `wait_ready` retries the build.
    fn join_build(
        &self,
        epoch: &EpochState,
        kind: EngineKind,
    ) -> Option<(Arc<dyn DiversityEngine>, bool)> {
        let build = catch_unwind(AssertUnwindSafe(|| self.build_if_absent(epoch, kind)));
        if build.is_err() {
            epoch.scheduled[Self::slot(kind)].store(false, Ordering::Relaxed);
        }
        build.ok()
    }

    /// One scheduled build job, run by a pool worker. Resolved against the
    /// epoch current *at execution time* — a job that raced an
    /// [`SearchService::apply_updates`] warms the live graph, never a
    /// superseded snapshot. Jobs for a kind that got built in the meantime
    /// — by a query, `wait_ready`, a blocking `engine()` call, or an
    /// import — are no-ops, as are jobs outliving their dropped service.
    fn run_scheduled_build(&self, kind: EngineKind) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let Some((_, true)) = self.join_build(&self.current(), kind) {
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
        // Validate before building anything: a bad spec must not cost an
        // index construction.
        spec.config().check_against(epoch.graph.n())?;
        let kind = epoch.resolve(spec.engine());
        let engine = match epoch.cached(kind) {
            Some(engine) => engine,
            None => {
                // Unbuilt: join the build (running it here if nobody has
                // started it), then answer from the engine. A panicking
                // build fails this query alone — it must not unwind into
                // a batch leader.
                if !kind.builds_inline() {
                    self.foreground_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                self.join_build(epoch, kind)
                    .ok_or(SearchError::Internal {
                        invariant: "an engine build completes without panicking",
                    })?
                    .0
            }
        };
        let result = engine.top_r(spec)?;
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        self.queries_by_slot[Self::slot(engine.kind())].fetch_add(1, Ordering::Relaxed);
        if fanned {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }
}

/// Thread-safe facade over the four engines: owns the graph, builds each
/// engine once per epoch behind per-kind locks (in chunks on the shared
/// pool), routes [`QuerySpec`]s (including [`EngineKind::Auto`]) through
/// `&self` methods, mutates the graph under traffic via epoch-swapped
/// snapshots ([`Self::apply_updates`]), and imports/exports indexes as
/// fingerprinted envelopes or multi-index bundles.
///
/// Share it as `Arc<SearchService>`; every method takes `&self`.
///
/// Dropping the service is non-blocking even with builds in flight: the
/// pool is shared (its workers outlive any one service), a shutdown latch
/// voids build jobs still queued, and a job already running holds only the
/// service's internal core `Arc`, which it releases when it finishes.
pub struct SearchService {
    core: Arc<ServiceCore>,
    /// Serializes writers and retains the incremental maintenance state
    /// between batches: the copy-on-write graph and the published TSD (and
    /// GCT, once seeded) indexes. Held only by [`Self::apply_updates`]
    /// (and the read-only [`Self::updater_cow`] diagnostic) — the query
    /// path never touches it.
    updater: Mutex<Option<DynamicTsd>>,
}

/// Copy-on-write diagnostics for the retained updater
/// ([`SearchService::updater_cow`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdaterCow {
    /// Shared-vs-owned adjacency slot accounting.
    pub stats: CowStats,
    /// Whether every shared slot serves the current epoch's CSR storage
    /// verbatim (pointer + length identity, not just equal contents) —
    /// i.e. the updater is genuinely aliasing the published graph rather
    /// than holding a private copy.
    pub aliases_current_epoch: bool,
    /// Whether the retained TSD-index — and GCT-index, when carried — is
    /// the very `Arc` the current epoch's engine serves (pointer
    /// identity): the publish handed the updater's indexes to the epoch
    /// and kept no copy aside.
    pub indexes_alias_current_epoch: bool,
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
            epochs: AtomicUsize::new(1),
            updates_applied: AtomicUsize::new(0),
            incremental_tsd_carries: AtomicUsize::new(0),
            gct_repairs: AtomicUsize::new(0),
            parallel_queries: AtomicUsize::new(0),
            queries_by_slot: std::array::from_fn(|_| AtomicUsize::new(0)),
        });
        SearchService { core, updater: lock_order::SVC_UPDATER.mutex(None) }
    }

    /// The graph the *current* epoch answers queries about, as a pinned
    /// snapshot: the returned `Arc` stays valid (and unchanged) however
    /// many [`Self::apply_updates`] batches publish after this call.
    pub fn graph(&self) -> Arc<CsrGraph> {
        self.core.current().graph.clone()
    }

    /// The current epoch's identity as recorded in exported envelopes and
    /// bundles. Changes whenever [`Self::apply_updates`] publishes.
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

    /// Queries served so far.
    pub fn queries_served(&self) -> usize {
        self.core.queries_served.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of the service counters. Individual
    /// counters are exact; mutual consistency is best-effort under
    /// concurrent traffic (they are independent relaxed atomics).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries_served: self.core.queries_served.load(Ordering::Relaxed),
            engines_built: self.core.engines_built.load(Ordering::Relaxed),
            background_builds: self.core.background_builds.load(Ordering::Relaxed),
            foreground_fallbacks: self.core.foreground_fallbacks.load(Ordering::Relaxed),
            epochs: self.core.epochs.load(Ordering::Relaxed),
            updates_applied: self.core.updates_applied.load(Ordering::Relaxed),
            incremental_tsd_carries: self.core.incremental_tsd_carries.load(Ordering::Relaxed),
            gct_repairs: self.core.gct_repairs.load(Ordering::Relaxed),
            queries_by_engine: std::array::from_fn(|i| {
                self.core.queries_by_slot[i].load(Ordering::Relaxed)
            }),
            pool_threads: self.core.pool.spawned_threads(),
            parallel_queries: self.core.parallel_queries.load(Ordering::Relaxed),
        }
    }

    /// Copy-on-write diagnostics for the retained updater: `None` when no
    /// update session is active (nothing retained yet), otherwise the
    /// shared/owned slot split plus whether the shared slots and the
    /// retained indexes genuinely alias the current epoch's storage.
    /// Acquires `svc.updater` then `epoch.ptr`, the same order as
    /// [`Self::apply_updates`], and only try-reads the engine slots.
    pub fn updater_cow(&self) -> Option<UpdaterCow> {
        let retained = self.updater.lock(); // lock: svc.updater
        let carry = retained.as_ref()?;
        let epoch = self.core.current();
        let g = carry.graph();
        let csr = &epoch.graph;
        let aliases_current_epoch = g.n() == csr.n()
            && (0..g.n() as VertexId).all(|v| {
                !g.is_cow_shared(v) || {
                    let (ours, theirs) = (g.neighbors(v), csr.neighbors(v));
                    ours.as_ptr() == theirs.as_ptr() && ours.len() == theirs.len()
                }
            });
        let (tsd, gct) = (epoch.cached(EngineKind::Tsd), epoch.cached(EngineKind::Gct));
        let tsd_shared = tsd
            .as_deref()
            .and_then(DiversityEngine::tsd_index)
            .is_some_and(|index| Arc::ptr_eq(index, carry.index()));
        let gct_shared = match carry.gct_index() {
            None => true,
            Some(ours) => gct
                .as_deref()
                .and_then(DiversityEngine::gct_index)
                .is_some_and(|index| Arc::ptr_eq(index, ours)),
        };
        Some(UpdaterCow {
            stats: g.cow_stats(),
            aliases_current_epoch,
            indexes_alias_current_epoch: tsd_shared && gct_shared,
        })
    }

    /// The worker pool this service schedules onto — the process-wide pool
    /// unless constructed via [`Self::with_pool`].
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.core.pool
    }

    /// The kinds of engines built and ready to serve in the current epoch.
    /// An engine still under construction is not listed.
    pub fn built_engines(&self) -> Vec<EngineKind> {
        let epoch = self.core.current();
        EngineKind::ALL.into_iter().filter(|&k| epoch.is_built(k)).collect()
    }

    pub(crate) fn slot(kind: EngineKind) -> usize {
        ServiceCore::slot(kind)
    }

    /// Resolves [`EngineKind::Auto`] against the current epoch: GCT, or
    /// TSD while TSD is built and GCT is not (a GCT build still running
    /// counts as not yet built). Concrete kinds resolve to themselves.
    pub fn resolve(&self, kind: EngineKind) -> EngineKind {
        self.core.current().resolve(kind)
    }

    /// The engine of the given kind ([`EngineKind::Auto`] resolves first),
    /// **built on the calling thread** if absent (joined if a build is in
    /// flight) — the blocking accessor, shared with [`Self::wait_ready`],
    /// the export paths and a cold [`Self::top_r`]. Use `warmup` to start a
    /// build without blocking.
    pub fn engine(&self, kind: EngineKind) -> Arc<dyn DiversityEngine> {
        let epoch = self.core.current();
        self.core.build_if_absent(&epoch, epoch.resolve(kind)).0
    }

    /// Enqueues builds for the given engines without blocking on any of
    /// them ([`EngineKind::Auto`] resolves first, so `warmup([Auto])`
    /// schedules the GCT build unless TSD alone is built; index-free kinds
    /// are constructed inline since that is O(1)).
    /// Returns the concrete kinds now building or built, deduplicated, in
    /// [`EngineKind::ALL`] order. Join with [`Self::wait_ready`].
    ///
    /// Like [`Self::wait_ready`], this re-resolves the serving epoch after
    /// working through the requested kinds: if an [`Self::apply_updates`]
    /// published mid-call, the warmup is re-applied to the *new* epoch, so
    /// the engines it promised are warming wherever traffic actually goes —
    /// not only on a superseded snapshot.
    pub fn warmup(&self, kinds: impl IntoIterator<Item = EngineKind>) -> Vec<EngineKind> {
        let mut warmed = [false; EngineKind::ALL.len()];
        let mut epoch = self.core.current();
        let kinds: Vec<EngineKind> = kinds.into_iter().collect();
        loop {
            for &kind in &kinds {
                let kind = epoch.resolve(kind);
                warmed[Self::slot(kind)] = true;
                if kind.builds_inline() {
                    self.core.build_if_absent(&epoch, kind);
                } else {
                    self.core.schedule_build(&epoch, kind);
                }
            }
            let now = self.core.current();
            if Arc::ptr_eq(&epoch, &now) {
                break;
            }
            epoch = now;
        }
        EngineKind::ALL.into_iter().filter(|&k| warmed[Self::slot(k)]).collect()
    }

    /// Blocks until every named engine is built in the **serving** epoch
    /// and returns the concrete kinds waited on, deduplicated, in
    /// [`EngineKind::ALL`] order — the join half of the non-blocking
    /// [`Self::warmup`].
    ///
    /// A kind whose background build is in flight is joined (construction
    /// happens under the slot's write lock, so waiting for that lock *is*
    /// the join); a kind nobody scheduled is simply built on the calling
    /// thread. Either way the per-kind build still happens exactly once
    /// per epoch.
    ///
    /// "Serving" is re-checked after the joins: if an
    /// [`Self::apply_updates`] published a new epoch while this call was
    /// building against the one it pinned at entry, the loop re-runs
    /// against the new epoch (warming it on the calling thread), so the
    /// guarantee callers rely on — *after `wait_ready(K)` returns, `K`
    /// serves queries without a build* — holds for the epoch queries will
    /// actually hit, not a superseded snapshot.
    pub fn wait_ready(&self, kinds: impl IntoIterator<Item = EngineKind>) -> Vec<EngineKind> {
        let mut waited = [false; EngineKind::ALL.len()];
        let mut epoch = self.core.current();
        let kinds: Vec<EngineKind> = kinds.into_iter().collect();
        loop {
            for &kind in &kinds {
                let kind = epoch.resolve(kind);
                waited[Self::slot(kind)] = true;
                self.core.build_if_absent(&epoch, kind);
            }
            let now = self.core.current();
            if Arc::ptr_eq(&epoch, &now) {
                break;
            }
            epoch = now;
        }
        EngineKind::ALL.into_iter().filter(|&k| waited[Self::slot(k)]).collect()
    }

    /// Applies a batch of edge updates and publishes the result as the
    /// next epoch — **without blocking concurrent queries**, which keep
    /// serving from whatever epoch they pinned.
    ///
    /// The heart of the call is the *incremental carry*: instead of
    /// rebuilding indexes for the new graph, the service retains
    /// maintenance state across batches and repairs only the ego-networks
    /// an update actually touches (its endpoints and their common
    /// neighbors, the Section 5.3 strategy) —
    ///
    /// * **TSD** and **GCT** are maintained by a retained [`DynamicTsd`],
    ///   seeded with an `Arc` clone of the current epoch's built TSD
    ///   engine's index (and its GCT engine's, once one is built). Each
    ///   distinct affected vertex is re-decomposed once against the
    ///   batch's final graph, the one decomposition feeding both its TSD
    ///   forest and its GCT entry, and the repaired entries are spliced
    ///   into fresh flat indexes with contiguous copies of the rest. The
    ///   new epoch's TSD and GCT engines serve those very `Arc`s. A batch
    ///   that lands while GCT is only scheduled, not yet built, has no GCT
    ///   state to repair, so GCT re-enters the background queue, and a GCT
    ///   query that arrives first joins that build.
    /// * The O(1) index-free kinds that were live are derived inline.
    ///
    /// The retained updater's adjacency is **copy-on-write** against the
    /// published CSR ([`DynamicGraph::rebase`] after every publish), so an
    /// idle update session holds `O(n)` slot pointers and the published
    /// indexes, not a second copy of either. The new epoch's CSR is
    /// spliced from the published one ([`DynamicGraph::to_csr`]): the
    /// batch's rows plus contiguous copies of the rest. Its fingerprint is
    /// not computed here but by its first reader.
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
    /// an error ([`SearchError::EmptyUpdateBatch`]).
    ///
    /// Exported envelopes and bundles from superseded epochs no longer
    /// match [`Self::fingerprint`], so re-importing them fails with
    /// [`SearchError::FingerprintMismatch`] — stale indexes cannot be
    /// smuggled past an update.
    pub fn apply_updates(&self, batch: &[GraphUpdate]) -> Result<UpdateStats, SearchError> {
        if batch.is_empty() {
            return Err(SearchError::EmptyUpdateBatch);
        }
        let mut retained = self.updater.lock(); // lock: svc.updater
        let old = self.core.current();
        let unchanged = |rejected: usize| UpdateStats {
            epoch: old.id,
            applied: 0,
            rejected,
            tsd_repairs: 0,
            tsd_carried: false,
            gct_repairs: 0,
            gct_carried: false,
            n: old.graph.n(),
            m: old.graph.m(),
        };

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
        let oversized = batch.len() - ops.len();

        // Seed or carry the incremental maintenance state. Anything but a
        // cold start (no retained state, no built TSD engine) is a carry.
        // The seed probes *block* on the slot locks — unlike the serving
        // path's `cached` — so an in-flight build is joined and carried
        // rather than duplicated by a from-scratch rebuild. Each
        // guard is released at the end of its statement: the engine `Arc`
        // is cloned *out* of the slot, so no seed path runs under a slot
        // lock, where it would stall the old epoch's builders and
        // importers.
        let mut carried = true;
        let mut carry = match retained.take() {
            Some(carry) => carry,
            None => {
                let seed = old.slots[Self::slot(EngineKind::Tsd)].read().clone(); // lock: engine.slot
                match seed.as_deref().and_then(DiversityEngine::tsd_index) {
                    Some(index) => DynamicTsd::from_shared_index(old.graph.clone(), index.clone()),
                    None => {
                        // Cold start: seeding costs a full TSD build, so
                        // first make sure the batch mutates anything at
                        // all — an idempotent replay (all duplicates and
                        // absent removes) must return in copy-on-write
                        // probe time, not index-build time.
                        let mut probe = DynamicGraph::from_base(old.graph.clone());
                        if probe.apply_batch(&ops).applied == 0 {
                            return Ok(unchanged(batch.len()));
                        }
                        carried = false;
                        DynamicTsd::from_shared_csr(old.graph.clone())
                    }
                }
            }
        };
        if carry.gct_index().is_none() {
            let seed = old.slots[Self::slot(EngineKind::Gct)].read().clone(); // lock: engine.slot
            if let Some(index) = seed.as_deref().and_then(DiversityEngine::gct_index) {
                carry.adopt_gct(index.clone());
            }
        }

        let repair = carry.apply_batch(&ops);
        let rejected = repair.rejected + oversized;
        if repair.applied == 0 {
            // Pure no-op batch: retain the state, publish nothing.
            *retained = Some(carry);
            return Ok(unchanged(rejected));
        }

        // Assemble the next epoch off to the side: splice the mutated
        // graph's snapshot from the published one (its fingerprint waits
        // for its first reader), and install the carried indexes — the
        // carry's own `Arc`s — so they are warm before anyone can query
        // them.
        let graph = Arc::new(carry.graph().to_csr());
        let next = Arc::new(EpochState::over(old.id + 1, graph.clone()));
        // `from_shared` only rejects an index/graph size mismatch, and
        // both sides here come from the same maintained state; surface a
        // broken carry as an error (nothing published, carry dropped)
        // rather than poisoning the service with a panic.
        let mismatch = |_| SearchError::Internal {
            invariant: "the maintained indexes cover exactly the maintained graph",
        };
        let tsd_engine =
            TsdEngine::from_shared(graph.clone(), carry.index().clone()).map_err(mismatch)?;
        self.core.install(&next, EngineKind::Tsd, Arc::new(tsd_engine));
        let gct_carried = match carry.gct_index() {
            Some(gct) => {
                let engine =
                    GctEngine::from_shared(graph.clone(), gct.clone()).map_err(mismatch)?;
                self.core.install(&next, EngineKind::Gct, Arc::new(engine));
                true
            }
            None => false,
        };

        // Publish: one pointer swap. In-flight queries keep their pinned
        // epoch; everything after this line sees the new graph.
        *self.core.current.write() = next.clone(); // lock: epoch.ptr
        self.core.epochs.fetch_add(1, Ordering::Relaxed);
        self.core.updates_applied.fetch_add(repair.applied, Ordering::Relaxed);
        if carried {
            self.core.incremental_tsd_carries.fetch_add(1, Ordering::Relaxed);
        }
        let gct_repairs = if gct_carried { repair.repaired } else { 0 };
        self.core.gct_repairs.fetch_add(gct_repairs, Ordering::Relaxed);

        // Re-establish whatever the old epoch was serving that the carry
        // paths above did not already install: the O(1) kinds are derived
        // inline; an index engine that could not be carried (today: GCT
        // scheduled but not yet built when the batch landed) re-enters the
        // background queue, and its first queries join that build.
        for kind in EngineKind::ALL {
            if !old.is_live(kind) || next.is_built(kind) {
                continue;
            }
            if kind.builds_inline() {
                self.core.build_if_absent(&next, kind);
            } else {
                self.core.schedule_build(&next, kind);
            }
        }

        // Re-arm copy-on-write sharing against the CSR just published:
        // the owned overlay this batch accumulated is released and the
        // idle updater goes back to `O(n)` slot pointers over the epoch's
        // own storage.
        carry.rebase(graph.clone());
        *retained = Some(carry);
        Ok(UpdateStats {
            epoch: next.id,
            applied: repair.applied,
            rejected,
            tsd_repairs: repair.touched,
            tsd_carried: carried,
            gct_repairs,
            gct_carried,
            n: graph.n(),
            m: graph.m(),
        })
    }

    /// Answers one top-r query, routing by the spec's engine kind, against
    /// one consistent epoch snapshot. A query routed to an unbuilt engine
    /// joins its build — a TSD/GCT build in flight on the pool, or one this
    /// thread runs, in chunks on the pool with this thread taking part —
    /// and that engine answers; [`ServiceStats::foreground_fallbacks`]
    /// counts such queries. A build that panics fails the query with
    /// [`SearchError::Internal`] and leaves the engine unbuilt, so a later
    /// query retries it. The result's metrics name the engine that
    /// answered.
    pub fn top_r(&self, spec: &QuerySpec) -> Result<TopRResult, SearchError> {
        let epoch = self.core.current();
        self.core.top_r_on(&epoch, spec, false)
    }

    /// Answers a batch of queries against **one** epoch snapshot (an
    /// update landing mid-batch does not split it across graphs) and
    /// returns that epoch's id with **one result per slot**, in spec
    /// order: the query's answer, `Ok(None)` when the slot was cancelled,
    /// or the query's own error. An invalid spec (say, `r` past the
    /// vertex count) fails its slot alone; its batch-mates still run.
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
    /// one fails the whole call before any query runs. Otherwise returns
    /// the epoch id and every answer in spec order.
    pub fn top_r_many_pinned(
        &self,
        specs: &[QuerySpec],
    ) -> Result<(u64, Vec<TopRResult>), SearchError> {
        let epoch = self.core.current();
        for spec in specs {
            spec.config().check_against(epoch.graph.n())?;
        }
        let results = self.top_r_many_on(&epoch, specs, &[]).into_iter().map(|slot| {
            slot?.ok_or(SearchError::Internal {
                invariant: "no cancel tokens were attached, so no slot is cancelled",
            })
        });
        Ok((epoch.id, results.collect::<Result<_, _>>()?))
    }

    /// The body of [`Self::top_r_many`] against an already pinned epoch.
    fn top_r_many_on(
        &self,
        epoch: &Arc<EpochState>,
        specs: &[QuerySpec],
        cancels: &[Option<CancelToken>],
    ) -> Vec<Result<Option<TopRResult>, SearchError>> {
        let token = |i: usize| cancels.get(i).and_then(Option::as_ref);
        if specs.len() < FANOUT_MIN_SPECS || self.core.pool.max_threads() <= 1 {
            return specs
                .iter()
                .enumerate()
                .map(|(i, spec)| match token(i) {
                    Some(c) if c.is_cancelled() => Ok(None),
                    _ => self.core.top_r_on(epoch, spec, false).map(Some),
                })
                .collect();
        }
        // Fan out: one pool task per query, writing into its own slot so
        // results return in spec order whatever order tasks finish in.
        let slots: Arc<Vec<BatchSlot>> =
            Arc::new(specs.iter().map(|_| lock_order::BATCH_SLOT.mutex(None)).collect());
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let core = self.core.clone();
                let epoch = epoch.clone();
                let slots = slots.clone();
                let cancel = token(i).cloned();
                Box::new(move || {
                    // The slot boundary: the last point this query can be
                    // skipped without interrupting engine code. The query
                    // runs before the slot is locked: `batch.slot` stays a
                    // leaf held only for the store.
                    let result = match cancel {
                        Some(c) if c.is_cancelled() => Ok(None),
                        _ => core.top_r_on(&epoch, &spec, true).map(Some),
                    };
                    *slots[i].lock() = Some(result); // lock: batch.slot
                }) as Job
            })
            .collect();
        self.core.pool.run_all(jobs);
        slots
            .iter()
            .map(|slot| {
                let filled = slot.lock().take(); // lock: batch.slot
                filled.unwrap_or(Err(SearchError::Internal {
                    invariant: "run_all returns only after every batch job filled its slot",
                }))
            })
            .collect()
    }

    /// Serializes the engine of `kind` (building it first if needed — this
    /// path blocks; it is an export, not a query) into a fingerprinted
    /// [`IndexEnvelope`] blob that [`Self::import_index`] — on a service
    /// over the *same* graph — accepts. Engines without a serialized form
    /// return [`SearchError::SerializationUnsupported`] *before* any
    /// engine is built ([`EngineKind::Auto`] resolves first, so it exports
    /// whichever index Auto queries currently route to).
    pub fn export_index(&self, kind: EngineKind) -> Result<Bytes, SearchError> {
        let epoch = self.core.current();
        let kind = epoch.resolve(kind);
        if !kind.serializable() {
            return Err(SearchError::SerializationUnsupported { engine: kind.name() });
        }
        let engine = self.core.build_if_absent(&epoch, kind).0;
        let payload = engine.to_bytes()?;
        Ok(IndexEnvelope::new(kind, epoch.fingerprint(), payload).encode())
    }

    /// Installs an engine from an envelope blob produced by
    /// [`Self::export_index`], replacing any cached engine of that kind in
    /// the current epoch, and returns the installed kind.
    ///
    /// Rejects blobs whose graph fingerprint (`n`, `m`, edge checksum)
    /// differs from the current epoch's graph with
    /// [`SearchError::FingerprintMismatch`] — a same-`n` snapshot from
    /// before edge churn, or from one of this service's own superseded
    /// epochs, cannot slip through. This and [`Self::import_bundle`] are
    /// the *only* ways to attach serialized index bytes to a service:
    /// there is no fingerprint-less public decode path.
    pub fn import_index(&self, blob: Bytes) -> Result<EngineKind, SearchError> {
        let epoch = self.core.current();
        let envelope = IndexEnvelope::decode(blob)?;
        if envelope.fingerprint != epoch.fingerprint() {
            return Err(SearchError::FingerprintMismatch {
                expected: epoch.fingerprint(),
                found: envelope.fingerprint,
            });
        }
        let engine = decode_engine(envelope.kind, epoch.graph.clone(), envelope.payload)?;
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
        if guard.fingerprint() != envelope.fingerprint {
            return Err(SearchError::FingerprintMismatch {
                expected: guard.fingerprint(),
                found: envelope.fingerprint,
            });
        }
        self.core.install(&guard, envelope.kind, Arc::from(engine));
        Ok(envelope.kind)
    }

    /// Serializes every named engine (building any that are missing — this
    /// path blocks, like [`Self::export_index`]) into one fingerprinted
    /// [`IndexBundle`] blob, so a fully warmed service (TSD + GCT)
    /// persists as a single artifact. Kinds are deduplicated and
    /// encoded in [`EngineKind::ALL`] order; [`EngineKind::Auto`] resolves
    /// first. Fails with [`SearchError::SerializationUnsupported`] if any
    /// requested kind is index-free — *before* building anything — and
    /// with [`SearchError::EmptyBundleRequest`] if no kind was named.
    pub fn export_bundle(
        &self,
        kinds: impl IntoIterator<Item = EngineKind>,
    ) -> Result<Bytes, SearchError> {
        let epoch = self.core.current();
        let mut requested = [false; EngineKind::ALL.len()];
        for kind in kinds {
            requested[Self::slot(epoch.resolve(kind))] = true;
        }
        let kinds: Vec<EngineKind> =
            EngineKind::ALL.into_iter().filter(|&k| requested[Self::slot(k)]).collect();
        if kinds.is_empty() {
            return Err(SearchError::EmptyBundleRequest);
        }
        if let Some(&kind) = kinds.iter().find(|k| !k.serializable()) {
            return Err(SearchError::SerializationUnsupported { engine: kind.name() });
        }
        let mut entries = Vec::with_capacity(kinds.len());
        for kind in kinds {
            entries.push((kind, self.core.build_if_absent(&epoch, kind).0.to_bytes()?));
        }
        Ok(IndexBundle::new(epoch.fingerprint(), entries).encode())
    }

    /// Installs every engine carried by a bundle blob produced by
    /// [`Self::export_bundle`], replacing any cached engines of those
    /// kinds in the current epoch, and returns the installed kinds in
    /// bundle order.
    ///
    /// All-or-nothing: the fingerprint is checked first (wrong-graph and
    /// superseded-epoch bundles are refused whole, as
    /// [`SearchError::FingerprintMismatch`]) and every entry is decoded
    /// before *any* engine is installed, so a bundle with one corrupt
    /// payload installs nothing.
    pub fn import_bundle(&self, blob: Bytes) -> Result<Vec<EngineKind>, SearchError> {
        let epoch = self.core.current();
        let bundle = IndexBundle::decode(blob)?;
        if bundle.fingerprint != epoch.fingerprint() {
            return Err(SearchError::FingerprintMismatch {
                expected: epoch.fingerprint(),
                found: bundle.fingerprint,
            });
        }
        let fingerprint = bundle.fingerprint;
        let mut decoded = Vec::with_capacity(bundle.entries.len());
        for (kind, payload) in bundle.entries {
            decoded.push((kind, decode_engine(kind, epoch.graph.clone(), payload)?));
        }
        // As in [`Self::import_index`]: install under the epoch-pointer
        // read lock, re-verifying the fingerprint, so a concurrent
        // `apply_updates` cannot turn the import into a silent no-op
        // against a superseded epoch.
        let guard = self.core.current.read(); // lock: epoch.ptr
        if guard.fingerprint() != fingerprint {
            return Err(SearchError::FingerprintMismatch {
                expected: guard.fingerprint(),
                found: fingerprint,
            });
        }
        let mut installed = Vec::with_capacity(decoded.len());
        for (kind, engine) in decoded {
            self.core.install(&guard, kind, Arc::from(engine));
            installed.push(kind);
        }
        Ok(installed)
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

    /// Bound queries through a service on a multi-thread pool report
    /// Algorithm 4's own search space: the scan runs single-threaded on
    /// any pool, so entries and `score_computations` equal the sequential
    /// scan's — on Figure 1, and on a graph spanning several 1,024-vertex
    /// blocks.
    #[test]
    fn pooled_services_report_algorithm_4s_bound_search_space() {
        let (figure1, _, _) = paper_figure1_graph();
        let generated = clustered_graph(3 * 1024 + 100, 7);
        for (g, queries) in [(figure1, vec![(4, 1)]), (generated, vec![(2, 5), (3, 1), (3, 10)])] {
            let g = Arc::new(g);
            for threads in [2, 4] {
                let pool = Arc::new(WorkerPool::new(threads));
                let s = SearchService::from_arc_with_pool(g.clone(), pool);
                for (k, r) in queries.iter().copied() {
                    let spec = QuerySpec::new(k, r).unwrap().with_engine(EngineKind::Bound);
                    let options = crate::bound::BoundOptions::default();
                    let want = crate::bound::bound_top_r_with(&g, spec.config(), options);
                    let got = s.top_r(&spec).unwrap();
                    let at = format!("n={} k={k} r={r} on {threads} threads", g.n());
                    assert_eq!(got.entries, want.entries, "{at}");
                    let (got, want) =
                        (got.metrics.score_computations, want.metrics.score_computations);
                    assert_eq!(got, want, "{at}");
                }
            }
        }
    }

    /// A warmed-and-joined service routes every explicit kind to its own
    /// engine — the pre-0.4 deterministic behaviour, now behind
    /// `wait_ready`.
    #[test]
    fn explicit_routing_reaches_every_engine_once_ready() {
        let s = service();
        assert_eq!(s.warmup(EngineKind::ALL), EngineKind::ALL.to_vec());
        assert_eq!(s.wait_ready(EngineKind::ALL), EngineKind::ALL.to_vec());
        let mut scores = Vec::new();
        for kind in EngineKind::ALL {
            let spec = QuerySpec::new(4, 3).unwrap().with_engine(kind);
            let result = s.top_r(&spec).unwrap();
            assert_eq!(result.metrics.engine, kind.name());
            scores.push(result.scores());
        }
        assert!(scores.windows(2).all(|w| w[0] == w[1]), "engines disagree: {scores:?}");
        assert_eq!(s.built_engines(), EngineKind::ALL.to_vec());
        let stats = s.stats();
        assert_eq!(stats.queries_served, EngineKind::ALL.len());
        assert_eq!(stats.engines_built, EngineKind::ALL.len());
        assert_eq!(stats.foreground_fallbacks, 0, "ready engines must serve directly");
        assert!(EngineKind::ALL.into_iter().all(|k| stats.queries_for(k) == 1), "{stats:?}");
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

    /// A cached Bound engine does not answer a cold index query: the index
    /// does, once its build is joined.
    #[test]
    fn cold_index_query_is_answered_by_its_index_even_with_bound_cached() {
        let s = service();
        s.warmup([EngineKind::Bound]); // inline O(1) construction
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        let first = s.top_r(&spec).unwrap();
        assert_eq!(first.metrics.engine, "gct");
        assert_eq!(first.entries[0].score, 3);
        let stats = s.stats();
        assert_eq!(stats.foreground_fallbacks, 1);
        assert_eq!(stats.queries_for(EngineKind::Bound), 0, "the bound search never ran");
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
        let gct = ServiceCore::slot(EngineKind::Gct);
        assert!(s.core.current().scheduled[gct].load(Ordering::Relaxed));

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
        assert!(!s.core.current().scheduled[gct].load(Ordering::Relaxed), "the latch reset");
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
        assert_eq!(s.resolve(EngineKind::Auto), EngineKind::Gct);
        // Cold: the query joins the GCT build, and GCT answers.
        let result = s.top_r(&QuerySpec::new(4, 1).unwrap()).unwrap();
        assert_eq!(result.metrics.engine, "gct");
        assert_eq!(result.entries[0].score, 3);
        assert_eq!(s.wait_ready([EngineKind::Auto]), vec![EngineKind::Gct]);
    }

    #[test]
    fn auto_prefers_an_existing_tsd_index() {
        let s = service();
        s.wait_ready([EngineKind::Tsd]);
        // GCT is not built; TSD is — Auto must reuse it rather than build.
        assert_eq!(s.resolve(EngineKind::Auto), EngineKind::Tsd);
    }

    #[test]
    fn warmup_schedules_and_wait_ready_joins() {
        let s = service();
        // Duplicates and Auto (→ GCT on this small graph) collapse.
        let warmed = s.warmup([EngineKind::Auto, EngineKind::Tsd, EngineKind::Tsd]);
        assert_eq!(warmed, vec![EngineKind::Tsd, EngineKind::Gct]);
        let ready = s.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
        assert_eq!(ready, vec![EngineKind::Tsd, EngineKind::Gct]);
        assert_eq!(s.built_engines(), vec![EngineKind::Tsd, EngineKind::Gct]);
        assert_eq!(s.stats().engines_built, 2);
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
            let good = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Online);
            let bad = QuerySpec::new(3, n + 1).unwrap();
            let (epoch, results) = s.top_r_many(&[good, bad, good], &[]);
            assert_eq!(epoch, 0);
            let want = s.top_r(&good).unwrap().entries;
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
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Online);
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
        let spec = QuerySpec::new(3, 2).unwrap().with_engine(EngineKind::Online);
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
        let spec = QuerySpec::new(4, 2).unwrap().with_engine(EngineKind::Online);
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

    /// A cold batch, sequential or fanned out, builds each index it names
    /// once; every query is answered by its index, with Online's answer.
    #[test]
    fn a_cold_batch_builds_each_index_once_and_the_indexes_answer() {
        let (graph, _, _) = paper_figure1_graph();
        let online = build_engine(EngineKind::Online, Arc::new(graph.clone()));
        let specs: Vec<QuerySpec> = (2..=5)
            .flat_map(|k| {
                [EngineKind::Gct, EngineKind::Tsd]
                    .map(|e| QuerySpec::new(k, 3).unwrap().with_engine(e))
            })
            .collect();
        for threads in [1, 4] {
            let s = SearchService::with_pool(graph.clone(), Arc::new(WorkerPool::new(threads)));
            let (_, results) = s.top_r_many_pinned(&specs).unwrap();
            for (spec, result) in specs.iter().zip(&results) {
                assert_eq!(result.metrics.engine, spec.engine().name(), "{threads} threads");
                assert_eq!(result.scores(), online.top_r(spec).unwrap().scores());
            }
            assert_eq!(s.built_engines(), vec![EngineKind::Tsd, EngineKind::Gct]);
            assert_eq!(s.stats().engines_built, 2, "{threads} threads: one build per index");
        }
    }

    #[test]
    fn envelope_roundtrip_through_the_service() {
        let s = service();
        let blob = s.export_index(EngineKind::Gct).unwrap();
        let fresh = service();
        assert_eq!(fresh.import_index(blob).unwrap(), EngineKind::Gct);
        assert_eq!(fresh.built_engines(), vec![EngineKind::Gct]);
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct);
        let result = fresh.top_r(&spec).unwrap();
        assert_eq!(result.metrics.engine, "gct", "imported engines serve without a build");
        assert_eq!(result.entries[0].score, 3);
    }

    #[test]
    fn bundle_roundtrip_through_the_service() {
        let s = service();
        let kinds = [EngineKind::Tsd, EngineKind::Gct];
        let blob = s.export_bundle(kinds).unwrap();
        let fresh = service();
        assert_eq!(fresh.import_bundle(blob).unwrap(), kinds.to_vec());
        assert_eq!(fresh.built_engines(), kinds.to_vec());
        assert_eq!(fresh.stats().engines_built, 2);
        for kind in kinds {
            let spec = QuerySpec::new(4, 1).unwrap().with_engine(kind);
            let result = fresh.top_r(&spec).unwrap();
            assert_eq!(result.metrics.engine, kind.name(), "bundled engines serve directly");
            assert_eq!(result.entries[0].score, 3);
        }
    }

    #[test]
    fn export_bundle_rejects_index_free_kinds_and_empty_requests() {
        let s = service();
        assert_eq!(
            s.export_bundle([EngineKind::Tsd, EngineKind::Online]).unwrap_err(),
            SearchError::SerializationUnsupported { engine: "online" }
        );
        assert_eq!(s.export_bundle([]).unwrap_err(), SearchError::EmptyBundleRequest);
        assert!(s.built_engines().is_empty(), "failed exports must not cost engine builds");
    }

    #[test]
    fn import_rejects_wrong_graph_and_garbage() {
        let s = service();
        let blob = s.export_index(EngineKind::Gct).unwrap();
        let bundle = s.export_bundle([EngineKind::Gct]).unwrap();
        let other = SearchService::new(
            sd_graph::GraphBuilder::new().extend_edges([(0, 1), (1, 2)]).build(),
        );
        assert_eq!(
            other.import_index(blob).unwrap_err(),
            SearchError::FingerprintMismatch {
                expected: other.fingerprint(),
                found: s.fingerprint()
            }
        );
        assert_eq!(
            other.import_bundle(bundle).unwrap_err(),
            SearchError::FingerprintMismatch {
                expected: other.fingerprint(),
                found: s.fingerprint()
            }
        );
        assert_eq!(
            s.import_index(Bytes::from_static(b"garbage")).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated)
        );
        assert_eq!(
            s.import_bundle(Bytes::from_static(b"garbage")).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated)
        );
    }

    #[test]
    fn export_unsupported_kinds_fails_before_building_anything() {
        let s = service();
        for kind in [EngineKind::Online, EngineKind::Bound] {
            assert_eq!(
                s.export_index(kind).unwrap_err(),
                SearchError::SerializationUnsupported { engine: kind.name() }
            );
        }
        assert!(s.built_engines().is_empty(), "a failed export must not cost an engine build");
    }

    #[test]
    fn concurrent_cold_start_builds_each_engine_once() {
        let s = service();
        let reference =
            s.engine(EngineKind::Online).top_r(&QuerySpec::new(4, 2).unwrap()).unwrap().scores();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for kind in EngineKind::ALL {
                        let spec = QuerySpec::new(4, 2).unwrap().with_engine(kind);
                        let result = s.top_r(&spec).unwrap();
                        // Cold index kinds are joined, then answer.
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
            EngineKind::ALL.len(),
            "racing threads must not duplicate builds"
        );
        assert_eq!(stats.queries_served, 8 * EngineKind::ALL.len());
    }

    #[test]
    fn apply_updates_publishes_a_new_epoch_and_carries_tsd() {
        let s = service();
        s.wait_ready([EngineKind::Tsd]);
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
        assert!(stats.tsd_carried, "a built TSD engine must seed the carry");
        assert!(stats.tsd_repairs >= 2, "both endpoints' forests repair");
        assert_eq!(stats.m as u64, before.m + 1);

        assert_eq!(s.epoch(), 1);
        assert_ne!(s.fingerprint(), before, "fingerprint must track the epoch");
        let service_stats = s.stats();
        assert_eq!(service_stats.epochs, 2);
        assert_eq!(service_stats.updates_applied, 1);
        assert_eq!(service_stats.incremental_tsd_carries, 1);

        // The carried TSD engine is warm (no build) and answers for the
        // *new* graph, identically to a fresh build.
        let spec = QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Tsd);
        let live = s.top_r(&spec).unwrap();
        assert_eq!(live.metrics.engine, "tsd", "carried TSD must serve without a build");
        assert_eq!(s.stats().foreground_fallbacks, 0);
        let fresh = SearchService::new((*s.graph()).clone());
        fresh.wait_ready([EngineKind::Tsd]);
        assert_eq!(live.scores(), fresh.top_r(&spec).unwrap().scores());
    }

    #[test]
    fn apply_updates_without_prior_tsd_seeds_then_carries() {
        let s = service();
        // Epoch 0 has no TSD engine and no retained state: the first batch
        // seeds from scratch (not a carry), the second carries.
        let first = s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert!(!first.tsd_carried);
        let second = s.apply_updates(&[GraphUpdate::Remove { u: 1, v: 6 }]).unwrap();
        assert!(second.tsd_carried);
        let stats = s.stats();
        assert_eq!(stats.epochs, 3);
        assert_eq!(stats.incremental_tsd_carries, 1);
        assert_eq!(stats.updates_applied, 2);
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

        // The new epoch publishes with *every* previously live engine
        // already warm: TSD repaired in place, GCT repaired over the same
        // affected region, and the O(1) kinds derived inline. Nothing
        // re-enters the background queue.
        assert!(stats.tsd_carried && stats.gct_carried);
        assert!(stats.gct_repairs > 0, "affected egos were re-decomposed");
        let built = s.built_engines();
        for kind in EngineKind::ALL {
            assert!(built.contains(&kind), "{kind} must be warm right after the swap");
        }
        let after = s.stats();
        assert_eq!(
            after.background_builds, before.background_builds,
            "a warm update must not enqueue any full rebuild"
        );
        assert!(after.gct_repairs >= before.gct_repairs + stats.gct_repairs);
        // The epoch serves the updater's own indexes, not copies.
        let cow = s.updater_cow().unwrap();
        assert!(cow.aliases_current_epoch && cow.indexes_alias_current_epoch, "{cow:?}");
        // And the carried engines answer directly (no build window).
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
        s.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
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
        let stale = s.export_index(EngineKind::Gct).unwrap();
        let stale_bundle = s.export_bundle([EngineKind::Tsd, EngineKind::Gct]).unwrap();
        let old_fingerprint = s.fingerprint();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        for err in [s.import_index(stale).unwrap_err(), s.import_bundle(stale_bundle).unwrap_err()]
        {
            assert_eq!(
                err,
                SearchError::FingerprintMismatch {
                    expected: s.fingerprint(),
                    found: old_fingerprint
                }
            );
        }
        // The *new* epoch's export re-imports fine into a fresh service on
        // the same final graph.
        let blob = s.export_index(EngineKind::Tsd).unwrap();
        let fresh = SearchService::new((*s.graph()).clone());
        assert_eq!(fresh.import_index(blob).unwrap(), EngineKind::Tsd);
    }

    /// The fingerprint is computed on first use but is never stale: with
    /// nothing asking for the new epoch's fingerprint between the batch
    /// and the import, an envelope exported before the batch is refused,
    /// and one exported after it imports.
    #[test]
    fn an_unread_fingerprint_still_refuses_a_pre_batch_envelope() {
        let s = service();
        let old_graph = s.graph();
        let before = s.export_index(EngineKind::Tsd).unwrap();
        s.apply_updates(&[GraphUpdate::Insert { u: 1, v: 6 }]).unwrap();
        assert!(s.core.current().fingerprint.get().is_none(), "the publish hashed nothing");
        assert_eq!(
            s.import_index(before).unwrap_err(),
            SearchError::FingerprintMismatch {
                expected: GraphFingerprint::of(&s.graph()),
                found: GraphFingerprint::of(&old_graph),
            }
        );
        let after = s.export_index(EngineKind::Tsd).unwrap();
        assert_eq!(s.import_index(after).unwrap(), EngineKind::Tsd);
    }

    #[test]
    fn updates_can_grow_the_vertex_set() {
        let s = service();
        let n0 = s.graph().n();
        let stats = s.apply_updates(&[GraphUpdate::Insert { u: 0, v: n0 as u32 + 2 }]).unwrap();
        assert_eq!(stats.n, n0 + 3);
        assert_eq!(s.graph().n(), n0 + 3);
        let spec = QuerySpec::new(2, n0 + 3).unwrap().with_engine(EngineKind::Tsd);
        assert_eq!(s.top_r(&spec).unwrap().entries.len(), n0 + 3);
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
