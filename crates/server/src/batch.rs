//! Query coalescing: concurrent connections park their queries in a
//! per-tenant accumulator and a single **leader** flushes them as one
//! [`SearchService::top_r_many`] batch, fanning the whole coalesced set
//! onto the shared worker pool at once.
//!
//! The shape is group commit without a timer, made **asynchronous** for
//! the event-driven server: [`Batcher::submit_many_async`] parks a
//! frame's queries and returns immediately; a completion callback fires
//! — off the submitting thread — once every query in the frame has a
//! reply. The first submission to find the accumulator leaderless
//! schedules a leader onto the tenant's worker pool (never on the
//! submitting thread: submitters are I/O-loop threads that must not
//! block). The leader flushes as soon as its pool job runs: it drains
//! every pending frame, executes their queries as one pinned-epoch
//! batch, and hands each frame its own results, in spec order. Nothing
//! waits on a clock; batches form under load instead. Frames that arrive
//! while a batch executes pile up, and the continuation the leader
//! submits to the pool before resigning takes them all as the next
//! batch, so no parked query ever waits for a fresh arrival to wake the
//! accumulator.
//!
//! A query whose deadline passed while it waited (behind a running batch
//! or a busy pool) is answered [`BatchReply::Expired`] without running,
//! and its batch-mates still run — the partial-batch contract.
//!
//! Frames can carry a [`CancelToken`]: when the server's I/O loop sees a
//! client disconnect, it cancels the token, and the frame's queries are
//! skipped at their **batch-slot boundary** — the instant each would
//! start executing inside [`SearchService::top_r_many`] — and answered
//! [`BatchReply::Dropped`]. A dead client's queries thus stop occupying
//! execution slots even when cancellation lands after the batch was
//! dequeued, without anything being interrupted mid-computation.
//!
//! `top_r_many` returns a result per slot, so one connection cannot
//! poison another's coalesced queries: an invalid query is answered
//! [`BatchReply::Failed`], and its batch-mates are answered through the
//! same fan-out, from the same epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sd_core::lock_order::SERVER_BATCH;
use sd_core::{CancelToken, QuerySpec, SearchError, SearchService, TopRResult};

/// Sizing for a tenant's [`Batcher`].
#[derive(Clone, Copy, Debug)]
pub struct BatchLimits {
    /// Most queries allowed to park; beyond it new arrivals are shed
    /// with a typed queue-full rejection.
    pub max_pending: usize,
}

impl Default for BatchLimits {
    fn default() -> Self {
        BatchLimits { max_pending: 1024 }
    }
}

/// One parked query's reply.
#[derive(Clone, Debug)]
pub enum BatchReply {
    /// The query ran; `epoch` is the snapshot the whole batch pinned.
    Answered {
        /// Epoch the batch executed against.
        epoch: u64,
        /// The query's result.
        result: TopRResult,
    },
    /// The query failed; its batch-mates were unaffected.
    Failed(SearchError),
    /// The deadline passed before the query ran.
    Expired,
    /// The frame's [`CancelToken`] was cancelled (the submitting
    /// connection disconnected) before the query's batch slot ran; the
    /// query was skipped without executing.
    Dropped,
}

/// Where a finished frame's replies go: invoked exactly once, off the
/// submitting thread, with one reply per submitted spec in spec order.
type FrameDone = Box<dyn FnOnce(Vec<BatchReply>) + Send>;

/// One parked frame: its queries, which share a deadline and a cancel
/// token, and the callback its replies go to. A frame is parked, drained
/// and answered whole.
struct Pending {
    specs: Vec<QuerySpec>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    done: FrameDone,
}

struct Accumulator {
    pending: Vec<Pending>,
    /// Whether some pool continuation currently owns flushing; at most
    /// one leader exists per batcher.
    leader_active: bool,
}

impl Accumulator {
    /// Queries parked across the pending frames.
    fn queries(&self) -> usize {
        self.pending.iter().map(|frame| frame.specs.len()).sum()
    }
}

/// Counters the server's `stats` verb exports (snapshot of independent
/// relaxed atomics, like [`sd_core::ServiceStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries that entered the accumulator.
    pub queries_batched: u64,
    /// `top_r_many` flushes those queries coalesced into.
    pub batches_executed: u64,
    /// Queries answered [`BatchReply::Expired`].
    pub expired: u64,
    /// Queries shed because the accumulator was full.
    pub shed_queue_full: u64,
    /// Queries skipped at a batch-slot boundary by a cancelled
    /// [`CancelToken`] and answered [`BatchReply::Dropped`]. A client
    /// disconnect is the only thing that cancels a token.
    pub cancelled: u64,
}

/// The typed queue-full rejection [`Batcher::submit_many_async`] sheds
/// with.
#[derive(Clone, Copy, Debug)]
pub struct QueueFull {
    /// Queries parked when the submission was rejected.
    pub pending: u64,
    /// The configured cap.
    pub limit: u64,
}

/// A tenant's query-coalescing accumulator. See the [module docs](self).
pub struct Batcher {
    state: Mutex<Accumulator>,
    limits: BatchLimits,
    queries_batched: AtomicU64,
    batches_executed: AtomicU64,
    expired: AtomicU64,
    shed_queue_full: AtomicU64,
    cancelled: AtomicU64,
}

impl Batcher {
    /// A batcher honoring `limits`.
    pub fn new(limits: BatchLimits) -> Self {
        Batcher {
            state: SERVER_BATCH.mutex(Accumulator { pending: Vec::new(), leader_active: false }),
            limits,
            queries_batched: AtomicU64::new(0),
            batches_executed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            queries_batched: self.queries_batched.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Queries currently parked.
    pub fn pending(&self) -> usize {
        self.state.lock().queries() // lock: server.batch
    }

    /// Parks `specs` (one frame's queries, all sharing `deadline` and
    /// the optional `cancel` token) and returns **immediately**; `done`
    /// is invoked exactly once — on a worker-pool thread, never the
    /// submitting one — with one [`BatchReply`] per spec in spec order,
    /// after the frame coalesces with whatever else arrives and flushes.
    /// Shed atomically with [`QueueFull`] if parking the frame would
    /// overflow the accumulator (either the whole frame is admitted or
    /// none of it; `done` is not invoked on a shed). An empty frame
    /// completes inline with an empty reply vector.
    ///
    /// This is the server's submission path: I/O-loop threads must not
    /// block, so replies flow back through `done`, which posts a
    /// completion command to the connection's I/O thread.
    pub fn submit_many_async(
        self: &Arc<Self>,
        service: &Arc<SearchService>,
        specs: Vec<QuerySpec>,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
        done: impl FnOnce(Vec<BatchReply>) + Send + 'static,
    ) -> Result<(), QueueFull> {
        if specs.is_empty() {
            done(Vec::new());
            return Ok(());
        }
        let done: FrameDone = Box::new(done);
        let lead = {
            let mut state = self.state.lock(); // lock: server.batch
            let parked = state.queries();
            if parked.saturating_add(specs.len()) > self.limits.max_pending {
                let info =
                    QueueFull { pending: parked as u64, limit: self.limits.max_pending as u64 };
                self.shed_queue_full.fetch_add(specs.len() as u64, Ordering::Relaxed);
                return Err(info);
            }
            state.pending.push(Pending { specs, deadline, cancel, done });
            if state.leader_active {
                false
            } else {
                state.leader_active = true;
                true
            }
        };
        if lead {
            // Leadership always runs on the pool: the submitter may be
            // an I/O-loop thread, which must never run a batch.
            let this = Arc::clone(self);
            let svc = Arc::clone(service);
            service.pool().submit(move || this.lead(&svc));
        }
        Ok(())
    }

    /// Leader duty: flush everything pending once, then either resign
    /// (if the accumulator emptied) or hand leadership to a worker-pool
    /// continuation, which takes the frames that arrived during this
    /// flush as the next batch.
    fn lead(self: &Arc<Self>, service: &Arc<SearchService>) {
        let batch = {
            let mut state = self.state.lock(); // lock: server.batch
            std::mem::take(&mut state.pending)
        };
        if !batch.is_empty() {
            self.execute(service, batch);
        }
        let handoff = {
            let mut state = self.state.lock(); // lock: server.batch
            if state.pending.is_empty() {
                state.leader_active = false;
                false
            } else {
                true // stay leader on paper; a pool continuation takes over
            }
        };
        if handoff {
            let this = Arc::clone(self);
            let svc = Arc::clone(service);
            service.pool().submit(move || this.lead(&svc));
        }
    }

    /// Flushes one drained batch of frames: expire the frames whose
    /// deadline passed, run every live frame's queries as one
    /// `top_r_many` call (skipping cancelled slots), and hand each frame
    /// the next `specs.len()` results.
    fn execute(&self, service: &Arc<SearchService>, batch: Vec<Pending>) {
        let now = Instant::now();
        let (expired, live): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|frame| frame.deadline.is_some_and(|d| d <= now));
        let expired_queries: usize = expired.iter().map(|frame| frame.specs.len()).sum();
        let specs: Vec<QuerySpec> =
            live.iter().flat_map(|frame| frame.specs.iter().copied()).collect();
        // A frame's counters move *before* its replies are delivered: a
        // caller reading stats from its completion callback must see its
        // own expiries and drops.
        self.queries_batched.fetch_add((specs.len() + expired_queries) as u64, Ordering::Relaxed);
        self.expired.fetch_add(expired_queries as u64, Ordering::Relaxed);
        for frame in expired {
            (frame.done)(vec![BatchReply::Expired; frame.specs.len()]);
        }
        if live.is_empty() {
            return;
        }
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        let cancels: Vec<Option<CancelToken>> = live
            .iter()
            .flat_map(|frame| std::iter::repeat_n(frame.cancel.clone(), frame.specs.len()))
            .collect();
        let (epoch, results) = service.top_r_many(&specs, &cancels);
        let skipped = results.iter().filter(|r| matches!(r, Ok(None))).count() as u64;
        self.cancelled.fetch_add(skipped, Ordering::Relaxed);
        let mut results = results.into_iter();
        for frame in live {
            let replies = results.by_ref().take(frame.specs.len()).map(|result| match result {
                Ok(Some(result)) => BatchReply::Answered { epoch, result },
                // The slot boundary found the token cancelled: the query
                // was skipped, not run-and-discarded.
                Ok(None) => BatchReply::Dropped,
                Err(err) => BatchReply::Failed(err),
            });
            (frame.done)(replies.collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Tenant;
    use crate::TenantRegistry;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use sd_core::{paper_figure1_graph, EngineKind, WorkerPool};
    use std::time::Duration;

    /// A Figure-1 tenant on the global pool, or on a private pool of
    /// `threads` workers.
    fn tenant_with(
        max_pending: usize,
        threads: Option<usize>,
    ) -> (Arc<SearchService>, Arc<Tenant>, TenantRegistry) {
        let reg = TenantRegistry::new(BatchLimits { max_pending });
        let (graph, _, _) = paper_figure1_graph();
        let svc = Arc::new(match threads {
            Some(threads) => SearchService::with_pool(graph, Arc::new(WorkerPool::new(threads))),
            None => SearchService::new(graph),
        });
        let key = reg.register(svc.clone()).expect("register");
        let tenant = reg.lookup(&key).expect("tenant");
        (svc, tenant, reg)
    }

    /// As [`tenant_with`], with the GCT index already built, so a query
    /// runs without a build.
    fn warm_tenant_with(
        max_pending: usize,
        threads: Option<usize>,
    ) -> (Arc<SearchService>, Arc<Tenant>, TenantRegistry) {
        let warm = tenant_with(max_pending, threads);
        warm.0.wait_ready([EngineKind::Gct]);
        warm
    }

    /// A GCT query for `(k, r)`.
    fn gct(k: u32, r: usize) -> QuerySpec {
        QuerySpec::new(k, r).expect("spec").with_engine(EngineKind::Gct)
    }

    /// Parks one frame; its replies arrive on the returned channel.
    fn park(
        tenant: &Tenant,
        specs: Vec<QuerySpec>,
        deadline: Option<Instant>,
    ) -> Receiver<Vec<BatchReply>> {
        let (tx, rx) = unbounded();
        tenant
            .batcher
            .submit_many_async(&tenant.service, specs, deadline, None, move |replies| {
                let _ = tx.send(replies);
            })
            .expect("admitted");
        rx
    }

    /// A parked frame's replies; a hang fails the test instead of the
    /// suite.
    fn replies(rx: &Receiver<Vec<BatchReply>>) -> Vec<BatchReply> {
        rx.recv_timeout(Duration::from_secs(10)).expect("completion fires")
    }

    /// Occupies the only worker of `svc`'s 1-thread pool until the
    /// returned sender is dropped, so every leader job queues behind it.
    fn park_pool(svc: &SearchService) -> Sender<()> {
        let (release, parked) = unbounded::<()>();
        svc.pool().submit(move || {
            let _ = parked.recv();
        });
        release
    }

    /// Runs a one-query batch whose completion callback blocks until the
    /// returned sender is dropped: the leader stays inside that batch, so
    /// later frames queue behind a batch that is still executing.
    fn hold_a_running_batch(tenant: &Tenant, spec: QuerySpec) -> Sender<()> {
        let (entered_tx, entered) = unbounded();
        let (release, held) = unbounded::<()>();
        tenant
            .batcher
            .submit_many_async(&tenant.service, vec![spec], None, None, move |replies| {
                let _ = entered_tx.send(replies);
                let _ = held.recv();
            })
            .expect("admitted");
        let first = replies(&entered);
        assert!(matches!(first[0], BatchReply::Answered { .. }), "got {first:?}");
        release
    }

    #[test]
    fn single_query_round_trips() {
        let (svc, tenant, _reg) = warm_tenant_with(8, None);
        let spec = gct(3, 4);
        let replies = replies(&park(&tenant, vec![spec], None));
        assert_eq!(replies.len(), 1);
        let BatchReply::Answered { epoch, result } = &replies[0] else {
            panic!("expected answer, got {replies:?}");
        };
        assert_eq!(*epoch, 0);
        let expected = svc.top_r(&spec).expect("in-process");
        assert_eq!(result.entries, expected.entries);
    }

    #[test]
    fn async_submission_completes_off_the_submitting_thread() {
        let (svc, tenant, _reg) = warm_tenant_with(8, None);
        let spec = gct(3, 2);
        let (tx, rx) = unbounded();
        let submitter = std::thread::current().id();
        tenant
            .batcher
            .submit_many_async(&svc, vec![spec, spec], None, None, move |replies| {
                let _ = tx.send((std::thread::current().id(), replies));
            })
            .expect("admitted");
        let (completer, replies) =
            rx.recv_timeout(Duration::from_secs(10)).expect("completion fires");
        assert_ne!(completer, submitter, "done runs on a pool thread, not the submitter");
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| matches!(r, BatchReply::Answered { .. })), "{replies:?}");
    }

    #[test]
    fn concurrent_submissions_coalesce_into_one_batch() {
        // The leader is a pool job: with the only worker parked, both
        // frames wait in the accumulator for the same flush.
        let (svc, tenant, _reg) = warm_tenant_with(64, Some(1));
        let release = park_pool(&svc);
        let spec = gct(3, 2);
        let lead = park(&tenant, vec![spec], None);
        let follow = park(&tenant, vec![spec, spec], None);
        assert_eq!(tenant.batcher.pending(), 3);
        drop(release);
        let (lead_replies, follow_replies) = (replies(&lead), replies(&follow));
        assert_eq!(lead_replies.len(), 1);
        assert_eq!(follow_replies.len(), 2);
        let stats = tenant.batcher.stats();
        assert_eq!(stats.queries_batched, 3);
        assert_eq!(stats.batches_executed, 1, "three queries, one coalesced flush");
        for reply in lead_replies.iter().chain(&follow_replies) {
            assert!(matches!(reply, BatchReply::Answered { epoch: 0, .. }), "got {reply:?}");
        }
    }

    /// Frames with different specs coalesce into one fanned-out batch, and
    /// each frame gets its own answers back, in spec order; an expired and
    /// a cancelled frame in the same flush are answered whole, and every
    /// counter counts queries, not frames.
    #[test]
    fn coalesced_frames_get_their_own_answers_in_spec_order() {
        let (svc, tenant, _reg) = warm_tenant_with(64, Some(2));
        // Park both workers, one at a time, so every frame waits for the
        // same flush and the batch then fans out over both of them.
        let (release, held) = unbounded::<()>();
        let (started_tx, started) = unbounded::<()>();
        for _ in 0..2 {
            let (held, started_tx) = (held.clone(), started_tx.clone());
            svc.pool().submit(move || {
                let _ = started_tx.send(());
                let _ = held.recv();
            });
            started.recv_timeout(Duration::from_secs(10)).expect("a worker parks");
        }
        let frames =
            [vec![gct(2, 1)], vec![gct(3, 2), gct(4, 3), gct(2, 5)], vec![gct(4, 1), gct(3, 4)]];
        let live: Vec<_> = frames.iter().map(|specs| park(&tenant, specs.clone(), None)).collect();
        let past = Instant::now() - Duration::from_millis(1);
        let expired = park(&tenant, vec![gct(3, 3), gct(2, 2)], Some(past));
        let token = CancelToken::new();
        token.cancel();
        let (tx, cancelled) = unbounded();
        tenant
            .batcher
            .submit_many_async(&svc, vec![gct(4, 2), gct(2, 3)], None, Some(token), move |r| {
                let _ = tx.send(r);
            })
            .expect("admitted");
        assert_eq!(tenant.batcher.pending(), 10);
        drop(release);

        let live: Vec<Vec<BatchReply>> = live.iter().map(replies).collect();
        let (expired, cancelled) = (replies(&expired), replies(&cancelled));
        let stats = tenant.batcher.stats();
        assert_eq!(stats.batches_executed, 1, "every frame coalesced into one flush");
        assert_eq!((stats.queries_batched, stats.expired, stats.cancelled), (10, 2, 2));
        assert_eq!(svc.stats().parallel_queries, 6, "the live queries fanned out");
        assert!(expired.len() == 2 && expired.iter().all(|r| matches!(r, BatchReply::Expired)));
        assert!(cancelled.len() == 2 && cancelled.iter().all(|r| matches!(r, BatchReply::Dropped)));
        for (specs, got) in frames.iter().zip(&live) {
            assert_eq!(got.len(), specs.len());
            for (spec, reply) in specs.iter().zip(got) {
                let BatchReply::Answered { epoch: 0, result } = reply else {
                    panic!("expected an answer, got {reply:?}");
                };
                let expected = svc.top_r(spec).expect("in-process");
                assert_eq!(result.entries, expected.entries, "k={} r={}", spec.k(), spec.r());
            }
        }
    }

    #[test]
    fn queue_overflow_is_shed_atomically() {
        let (svc, tenant, _reg) = tenant_with(2, None);
        let spec = QuerySpec::new(3, 1).expect("spec");
        let err = tenant
            .batcher
            .submit_many_async(&svc, vec![spec; 3], None, None, |_| {
                panic!("a shed frame never completes")
            })
            .expect_err("3 queries over a 2-cap accumulator");
        assert_eq!(err.limit, 2);
        assert_eq!(tenant.batcher.stats().shed_queue_full, 3);
        assert_eq!(tenant.batcher.pending(), 0, "nothing half-admitted");
        // A fitting frame still goes through afterwards.
        assert_eq!(replies(&park(&tenant, vec![spec, spec], None)).len(), 2);
    }

    #[test]
    fn expired_deadline_queries_skip_execution_but_mates_run() {
        // Deadline already in the past: expires at flush. A second frame
        // without a deadline is parked for the same flush and runs.
        let (svc, tenant, _reg) = tenant_with(8, Some(1));
        let release = park_pool(&svc);
        let spec = QuerySpec::new(3, 2).expect("spec");
        let past = Instant::now() - Duration::from_millis(1);
        let expired = park(&tenant, vec![spec], Some(past));
        let ran = park(&tenant, vec![spec], None);
        drop(release);
        let (expired, ran) = (replies(&expired), replies(&ran));
        assert!(matches!(expired[0], BatchReply::Expired), "got {expired:?}");
        assert!(matches!(ran[0], BatchReply::Answered { .. }), "got {ran:?}");
        assert_eq!(tenant.batcher.stats().expired, 1);
        assert_eq!(tenant.batcher.stats().batches_executed, 1);
    }

    /// No window and no deadline-capped wait: a short deadline that
    /// passes while its frame waits behind a running batch is answered
    /// `Expired`, and the frame that waited beside it still runs.
    #[test]
    fn short_deadline_behind_a_running_batch_expires_but_mates_run() {
        let (_svc, tenant, _reg) = warm_tenant_with(8, Some(1));
        let spec = gct(3, 2);
        let release = hold_a_running_batch(&tenant, spec);
        let deadline = Instant::now() + Duration::from_millis(5);
        let late = park(&tenant, vec![spec, spec], Some(deadline));
        let mate = park(&tenant, vec![spec], None);
        assert_eq!(tenant.batcher.pending(), 3, "both frames wait behind the running batch");
        while Instant::now() <= deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(release);
        let (late, mate) = (replies(&late), replies(&mate));
        assert!(late.iter().all(|r| matches!(r, BatchReply::Expired)), "got {late:?}");
        assert!(matches!(mate[0], BatchReply::Answered { .. }), "got {mate:?}");
        let stats = tenant.batcher.stats();
        assert_eq!((stats.expired, stats.queries_batched, stats.batches_executed), (2, 4, 2));
    }

    /// Batching without a timer: frames that arrive while a batch
    /// executes leave together in the next one.
    #[test]
    fn arrivals_during_a_flush_leave_together_in_the_next_batch() {
        let (_svc, tenant, _reg) = warm_tenant_with(8, Some(1));
        let spec = gct(3, 2);
        let release = hold_a_running_batch(&tenant, spec);
        let frames: Vec<_> = (1..=3).map(|n| park(&tenant, vec![spec; n], None)).collect();
        assert_eq!(tenant.batcher.pending(), 6);
        assert_eq!(tenant.batcher.stats().batches_executed, 1, "the held batch only");
        drop(release);
        for (frame, n) in frames.iter().zip(1..) {
            let replies = replies(frame);
            assert_eq!(replies.len(), n);
            assert!(replies.iter().all(|r| matches!(r, BatchReply::Answered { epoch: 0, .. })));
        }
        let stats = tenant.batcher.stats();
        assert_eq!((stats.queries_batched, stats.batches_executed), (7, 2), "one more flush");
    }

    #[test]
    fn cancelled_frames_queries_are_dropped_at_their_slots() {
        let (svc, tenant, _reg) = tenant_with(8, None);
        let spec = QuerySpec::new(3, 2).expect("spec");
        let token = CancelToken::new();
        token.cancel();
        let (tx, rx) = unbounded();
        tenant
            .batcher
            .submit_many_async(&svc, vec![spec, spec], None, Some(token), move |replies| {
                let _ = tx.send(replies);
            })
            .expect("admitted");
        let replies = rx.recv_timeout(Duration::from_secs(10)).expect("completion fires");
        assert!(replies.iter().all(|r| matches!(r, BatchReply::Dropped)), "got {replies:?}");
        let stats = tenant.batcher.stats();
        assert_eq!(stats.cancelled, 2);
        assert_eq!(svc.queries_served(), 0, "cancelled slots never reach an engine");
        // An un-cancelled token executes normally.
        let live = CancelToken::new();
        let (tx, rx) = unbounded();
        tenant
            .batcher
            .submit_many_async(&svc, vec![spec], None, Some(live), move |replies| {
                let _ = tx.send(replies);
            })
            .expect("admitted");
        let replies = rx.recv_timeout(Duration::from_secs(10)).expect("completion fires");
        assert!(matches!(replies[0], BatchReply::Answered { .. }), "got {replies:?}");
    }

    /// Cold index queries build inside their batch, and the batch keeps
    /// its contract: a cancelled slot is dropped without building, a short
    /// deadline that passes behind a batch running a cold build expires,
    /// and its live mate is answered by the index that batch built.
    #[test]
    fn cold_index_batches_keep_cancellation_and_expiry() {
        let (svc, tenant, _reg) = tenant_with(8, Some(1));
        let gct = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Gct);
        let token = CancelToken::new();
        token.cancel();
        let (tx, rx) = unbounded();
        tenant
            .batcher
            .submit_many_async(&svc, vec![gct], None, Some(token), move |replies| {
                let _ = tx.send(replies);
            })
            .expect("admitted");
        assert!(matches!(replies(&rx)[0], BatchReply::Dropped));
        assert!(svc.built_engines().is_empty(), "a cancelled slot builds nothing");

        // The held batch builds GCT on the pool's only thread.
        let release = hold_a_running_batch(&tenant, gct);
        let deadline = Instant::now() + Duration::from_millis(5);
        let late = park(&tenant, vec![gct], Some(deadline));
        let mate = park(&tenant, vec![gct], None);
        while Instant::now() <= deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(release);
        assert!(matches!(replies(&late)[0], BatchReply::Expired));
        let mate = replies(&mate);
        let BatchReply::Answered { result, .. } = &mate[0] else {
            panic!("the mate is answered, got {mate:?}");
        };
        assert_eq!(result.metrics.engine, "gct");
        let stats = svc.stats();
        assert_eq!((stats.engines_built, stats.foreground_fallbacks), (1, 1), "{stats:?}");
    }

    /// An invalid query fails its own slot only: its mates run through
    /// the batch's fan-out, on the batch's one epoch.
    #[test]
    fn invalid_query_fails_alone_not_its_batch_mates() {
        let (svc, tenant, _reg) = tenant_with(8, Some(4));
        svc.wait_ready([EngineKind::Gct]);
        let n = svc.graph().n();
        let good = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Gct);
        let bad = QuerySpec::new(3, n + 1).expect("spec"); // r > n: rejected at run time
        let fanned_before = svc.stats().parallel_queries;
        let replies = replies(&park(&tenant, vec![good, bad, good], None));
        assert_eq!(svc.stats().parallel_queries - fanned_before, 2, "both mates fanned out");
        assert!(
            matches!(replies[1], BatchReply::Failed(SearchError::ResultSizeExceedsGraph { .. })),
            "got {:?}",
            replies[1]
        );
        let (BatchReply::Answered { epoch: first, .. }, BatchReply::Answered { epoch: last, .. }) =
            (&replies[0], &replies[2])
        else {
            panic!("both mates answered, got {replies:?}");
        };
        assert_eq!(first, last, "one frame, one epoch");
    }
}
