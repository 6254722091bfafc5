//! Query coalescing: concurrent connections park their queries in a
//! per-tenant accumulator and a single **leader** flushes them as one
//! [`SearchService::top_r_many`] batch, fanning the whole coalesced set
//! onto the shared worker pool at once.
//!
//! The shape is group commit, made **asynchronous** for the event-driven
//! server: [`Batcher::submit_many_async`] parks a frame's queries and
//! returns immediately; a completion callback fires — off the submitting
//! thread — once every query in the frame has a reply. The first
//! submission to find the accumulator leaderless schedules a leader onto
//! the tenant's worker pool (never on the submitting thread: submitters
//! are I/O-loop threads that must not block). The leader waits one batch
//! window so concurrent arrivals can pile in, drains everything pending,
//! and executes it as one pinned-epoch batch. Queries that arrive
//! *during* the flush are handled by a continuation the leader submits
//! to the pool before resigning, so no parked query ever waits for a
//! fresh arrival to wake the accumulator.
//!
//! Deadlines cap the leader's wait: the target flush instant is the
//! window end, shortened to the earliest pending deadline (less a small
//! execution margin), so a query whose `deadline_ms` is shorter than the
//! batch window is flushed early and *runs* instead of expiring while
//! the leader sleeps. The leader parks on a condition variable that
//! every submission signals, so a short-deadline query arriving
//! mid-wait wakes the leader to recompute the target — it no longer
//! waits out a sleep computed before that query existed. A query whose
//! deadline nevertheless passed while parked is answered
//! [`BatchReply::Expired`] without running, and its frame-mates still
//! run — the partial-batch contract.
//!
//! Frames can carry a [`CancelToken`]: when the server's I/O loop sees a
//! client disconnect, it cancels the token, and the frame's queries are
//! skipped at their **batch-slot boundary** — the instant each would
//! start executing inside
//! [`SearchService::top_r_many_pinned_cancellable`] — and answered
//! [`BatchReply::Dropped`]. A dead client's queries thus stop occupying
//! execution slots even when cancellation lands after the batch was
//! dequeued, without anything being interrupted mid-computation.
//!
//! A batch executes all-or-nothing inside the service (`top_r_many`
//! surfaces the first per-query error as a batch error), which must not
//! let one connection poison another's coalesced queries: on a
//! batch-level error the leader falls back to per-query execution, so
//! only the offending query fails.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use parking_lot::{Condvar, Mutex};
use sd_core::lock_order::{SERVER_BATCH, SERVER_FRAME};
use sd_core::{CancelToken, QuerySpec, SearchError, SearchService, TopRResult};

use crate::registry::Inflight;

/// Sizing and pacing for a tenant's [`Batcher`].
#[derive(Clone, Copy, Debug)]
pub struct BatchLimits {
    /// How long a leader waits before flushing, so concurrent arrivals
    /// coalesce. Zero flushes immediately (still coalescing whatever is
    /// already parked).
    pub window: Duration,
    /// Most queries allowed to park; beyond it new arrivals are shed
    /// with a typed queue-full rejection.
    pub max_pending: usize,
}

impl Default for BatchLimits {
    fn default() -> Self {
        BatchLimits { window: Duration::from_micros(500), max_pending: 1024 }
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

/// Margin subtracted from a pending deadline when capping the leader's
/// wait, so the flush leaves the query time to actually execute instead
/// of waking exactly as it expires.
const DEADLINE_FLUSH_MARGIN: Duration = Duration::from_millis(5);

/// Where a finished frame's replies go: invoked exactly once, off the
/// submitting thread, with one reply per submitted spec in spec order.
type FrameDone = Box<dyn FnOnce(Vec<BatchReply>) + Send>;

/// One frame's reply-aggregation state: per-query slots filled as the
/// leader resolves them, and the completion callback the last fill
/// hands the replies to.
struct FrameAggState {
    slots: Vec<Option<BatchReply>>,
    missing: usize,
    done: Option<FrameDone>,
}

/// Aggregates one submitted frame's replies. The batcher fills slots in
/// any order; whichever fill completes the frame takes the callback out
/// under the lock, **releases it**, and then invokes — so the callback
/// (which typically takes an I/O thread's `server.io` queue lock) runs
/// with an empty held set.
struct FrameAgg {
    state: Mutex<FrameAggState>,
}

impl FrameAgg {
    fn new(len: usize, done: FrameDone) -> Arc<FrameAgg> {
        Arc::new(FrameAgg {
            state: SERVER_FRAME.mutex(FrameAggState {
                slots: (0..len).map(|_| None).collect(),
                missing: len,
                done: Some(done),
            }),
        })
    }

    fn fill(&self, index: usize, reply: BatchReply) {
        let finished = {
            let mut state = self.state.lock(); // lock: server.frame
            debug_assert!(state.slots[index].is_none(), "slot {index} filled twice");
            state.slots[index] = Some(reply);
            state.missing -= 1;
            if state.missing == 0 {
                Some((std::mem::take(&mut state.slots), state.done.take()))
            } else {
                None
            }
        };
        if let Some((slots, done)) = finished {
            let replies = slots
                .into_iter()
                .map(|slot| {
                    slot.unwrap_or(BatchReply::Failed(SearchError::Internal {
                        invariant: "a completed frame has every reply slot filled",
                    }))
                })
                .collect();
            if let Some(done) = done {
                done(replies);
            }
        }
    }
}

/// One query's address within its frame's [`FrameAgg`].
struct FrameSlot {
    agg: Arc<FrameAgg>,
    index: usize,
}

impl FrameSlot {
    fn deliver(self, reply: BatchReply) {
        self.agg.fill(self.index, reply);
    }
}

struct Pending {
    spec: QuerySpec,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    reply: FrameSlot,
}

struct Accumulator {
    pending: Vec<Pending>,
    /// Whether some pool continuation currently owns flushing; at most
    /// one leader exists per batcher.
    leader_active: bool,
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
    /// Signalled on every submission so a parked leader wakes and
    /// recomputes its flush target against the new arrivals' deadlines.
    arrivals: Condvar,
    limits: BatchLimits,
    inflight: Arc<Inflight>,
    queries_batched: AtomicU64,
    batches_executed: AtomicU64,
    expired: AtomicU64,
    shed_queue_full: AtomicU64,
    cancelled: AtomicU64,
}

impl Batcher {
    /// A batcher honoring `limits`, reporting execution to `inflight`.
    pub fn new(limits: BatchLimits, inflight: Arc<Inflight>) -> Self {
        Batcher {
            state: SERVER_BATCH.mutex(Accumulator { pending: Vec::new(), leader_active: false }),
            arrivals: Condvar::new(),
            limits,
            inflight,
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
        self.state.lock().pending.len() // lock: server.batch
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
        let agg = FrameAgg::new(specs.len(), Box::new(done));
        let lead = {
            let mut state = self.state.lock(); // lock: server.batch
            if state.pending.len().saturating_add(specs.len()) > self.limits.max_pending {
                let info = QueueFull {
                    pending: state.pending.len() as u64,
                    limit: self.limits.max_pending as u64,
                };
                self.shed_queue_full.fetch_add(specs.len() as u64, Ordering::Relaxed);
                return Err(info);
            }
            for (index, spec) in specs.into_iter().enumerate() {
                state.pending.push(Pending {
                    spec,
                    deadline,
                    cancel: cancel.clone(),
                    reply: FrameSlot { agg: agg.clone(), index },
                });
            }
            // Wake a parked leader: these arrivals may carry a deadline
            // shorter than its current flush target.
            self.arrivals.notify_all();
            if state.leader_active {
                false
            } else {
                state.leader_active = true;
                true
            }
        };
        if lead {
            // Leadership always runs on the pool: the submitter may be
            // an I/O-loop thread, which must never sleep out a window.
            let this = Arc::clone(self);
            let svc = Arc::clone(service);
            service.pool().submit(move || this.lead(&svc));
        }
        Ok(())
    }

    /// Blocking convenience over [`Self::submit_many_async`]: parks the
    /// frame and waits for its replies. For tests and synchronous tools;
    /// the server itself never blocks a thread here.
    pub fn submit_many(
        self: &Arc<Self>,
        service: &Arc<SearchService>,
        specs: Vec<QuerySpec>,
        deadline: Option<Instant>,
    ) -> Result<Vec<BatchReply>, QueueFull> {
        let (tx, rx) = unbounded();
        self.submit_many_async(service, specs, deadline, None, move |replies| {
            let _ = tx.send(replies);
        })?;
        Ok(rx.recv().unwrap_or_default())
    }

    /// Leader duty: wait out the flush target (window end, capped by
    /// pending deadlines, re-evaluated on every arrival), flush once,
    /// then either resign (if the accumulator emptied) or hand
    /// leadership to a worker-pool continuation for the next flush.
    fn lead(self: &Arc<Self>, service: &Arc<SearchService>) {
        self.wait_out_window();
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

    /// The leader's wait. The flush target is the window end (fixed when
    /// the wait starts) capped at the earliest pending deadline minus
    /// [`DEADLINE_FLUSH_MARGIN`]; the leader parks on [`Self::arrivals`]
    /// until the target passes, recomputing it after every wake — so an
    /// arrival whose deadline undercuts the current target pulls the
    /// flush forward instead of expiring while the leader sleeps.
    fn wait_out_window(&self) {
        let window = self.limits.window;
        if window.is_zero() {
            return;
        }
        let window_end = Instant::now() + window;
        let mut state = self.state.lock(); // lock: server.batch
        loop {
            let earliest = state.pending.iter().filter_map(|p| p.deadline).min();
            let target = match earliest {
                Some(deadline) => {
                    window_end.min(deadline.checked_sub(DEADLINE_FLUSH_MARGIN).unwrap_or(deadline))
                }
                None => window_end,
            };
            let now = Instant::now();
            if target <= now {
                return;
            }
            self.arrivals.wait_for(&mut state, target - now);
        }
    }

    /// Flushes one drained batch: expire, execute (skipping cancelled
    /// slots), deliver.
    fn execute(&self, service: &Arc<SearchService>, batch: Vec<Pending>) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        let mut expired = 0u64;
        for entry in batch {
            match entry.deadline {
                Some(d) if d <= now => {
                    expired += 1;
                    entry.reply.deliver(BatchReply::Expired);
                }
                _ => live.push(entry),
            }
        }
        self.queries_batched.fetch_add(live.len() as u64 + expired, Ordering::Relaxed);
        self.expired.fetch_add(expired, Ordering::Relaxed);
        if live.is_empty() {
            return;
        }
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        let _guard = self.inflight.begin(service.epoch());
        let specs: Vec<QuerySpec> = live.iter().map(|p| p.spec).collect();
        let cancels: Vec<Option<CancelToken>> = live.iter().map(|p| p.cancel.clone()).collect();
        // Counters are bumped *before* the reply that completes a frame is
        // delivered: the completion callback races this function's tail, and
        // a caller inspecting stats from it must see its own drops.
        match service.top_r_many_pinned_cancellable(&specs, &cancels) {
            Ok((epoch, results)) => {
                let skipped = results.iter().filter(|r| r.is_none()).count() as u64;
                self.cancelled.fetch_add(skipped, Ordering::Relaxed);
                for (entry, result) in live.into_iter().zip(results) {
                    match result {
                        Some(result) => entry.reply.deliver(BatchReply::Answered { epoch, result }),
                        // The slot boundary found the token cancelled:
                        // the query was skipped, not run-and-discarded.
                        None => entry.reply.deliver(BatchReply::Dropped),
                    }
                }
            }
            Err(_) => {
                // Batch-level failure: one query's error (say, its `r`
                // exceeds the tenant's vertex count) poisoned the
                // all-or-nothing call. Isolate it: run each query alone
                // so only the offender fails. Tokens are re-checked —
                // the fallback is a fresh slot boundary per query.
                for entry in live {
                    if entry.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        self.cancelled.fetch_add(1, Ordering::Relaxed);
                        entry.reply.deliver(BatchReply::Dropped);
                        continue;
                    }
                    let epoch = service.epoch();
                    let reply = match service.top_r(&entry.spec) {
                        Ok(result) => BatchReply::Answered { epoch, result },
                        Err(err) => BatchReply::Failed(err),
                    };
                    entry.reply.deliver(reply);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantRegistry;
    use sd_core::{paper_figure1_graph, EngineKind};

    fn tenant_with(
        limits: BatchLimits,
    ) -> (Arc<SearchService>, Arc<crate::registry::Tenant>, TenantRegistry) {
        let reg = TenantRegistry::new(limits);
        let (graph, _, _) = paper_figure1_graph();
        let svc = Arc::new(SearchService::new(graph));
        let key = reg.register(svc.clone()).expect("register");
        let tenant = reg.lookup(&key).expect("tenant");
        (svc, tenant, reg)
    }

    #[test]
    fn single_query_round_trips() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::ZERO, max_pending: 8 });
        let spec = QuerySpec::new(3, 4).expect("spec").with_engine(EngineKind::Online);
        let replies = tenant.batcher.submit_many(&svc, vec![spec], None).expect("admitted");
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
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::ZERO, max_pending: 8 });
        let spec = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Online);
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
        // A wide window makes coalescing deterministic: the follower
        // parks long before the leader's flush fires.
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::from_millis(300), max_pending: 64 });
        let spec = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Online);
        let follower = {
            let svc = svc.clone();
            let tenant = tenant.clone();
            std::thread::spawn(move || {
                // Give the leader time to take the accumulator first.
                std::thread::sleep(Duration::from_millis(60));
                tenant.batcher.submit_many(&svc, vec![spec, spec], None)
            })
        };
        let lead_replies =
            tenant.batcher.submit_many(&svc, vec![spec], None).expect("leader admitted");
        let follow_replies = follower.join().expect("join").expect("follower admitted");
        assert_eq!(lead_replies.len(), 1);
        assert_eq!(follow_replies.len(), 2);
        let stats = tenant.batcher.stats();
        assert_eq!(stats.queries_batched, 3);
        assert_eq!(stats.batches_executed, 1, "three queries, one coalesced flush");
        for reply in lead_replies.iter().chain(&follow_replies) {
            assert!(matches!(reply, BatchReply::Answered { epoch: 0, .. }), "got {reply:?}");
        }
    }

    #[test]
    fn queue_overflow_is_shed_atomically() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::ZERO, max_pending: 2 });
        let spec = QuerySpec::new(3, 1).expect("spec");
        let err = tenant
            .batcher
            .submit_many(&svc, vec![spec; 3], None)
            .expect_err("3 queries over a 2-cap accumulator");
        assert_eq!(err.limit, 2);
        assert_eq!(tenant.batcher.stats().shed_queue_full, 3);
        assert_eq!(tenant.batcher.pending(), 0, "nothing half-admitted");
        // A fitting frame still goes through afterwards.
        let ok = tenant.batcher.submit_many(&svc, vec![spec, spec], None).expect("fits");
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn expired_deadline_queries_skip_execution_but_mates_run() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::from_millis(40), max_pending: 8 });
        let spec = QuerySpec::new(3, 2).expect("spec");
        // Deadline already in the past: expires at flush. A second frame
        // without a deadline coalesces into the same flush and runs.
        let past = Instant::now() - Duration::from_millis(1);
        let follower = {
            let svc = svc.clone();
            let tenant = tenant.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                tenant.batcher.submit_many(&svc, vec![spec], None)
            })
        };
        let expired = tenant.batcher.submit_many(&svc, vec![spec], Some(past)).expect("admitted");
        assert!(matches!(expired[0], BatchReply::Expired), "got {expired:?}");
        let ran = follower.join().expect("join").expect("admitted");
        assert!(matches!(ran[0], BatchReply::Answered { .. }), "got {ran:?}");
        assert_eq!(tenant.batcher.stats().expired, 1);
    }

    /// Regression: the leader used to sleep the *full* window and only
    /// then enforce deadlines, so any query with `deadline_ms` shorter
    /// than the remaining window was answered `Expired` without ever
    /// running. Against that code this test fails (reply is `Expired`
    /// after ~300 ms); with the deadline-capped wait the flush happens
    /// before the deadline and the query runs.
    #[test]
    fn short_deadline_flushes_early_instead_of_expiring() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::from_millis(300), max_pending: 8 });
        let spec = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Online);
        let deadline = Instant::now() + Duration::from_millis(60);
        let start = Instant::now();
        let replies =
            tenant.batcher.submit_many(&svc, vec![spec], Some(deadline)).expect("admitted");
        assert!(
            matches!(replies[0], BatchReply::Answered { .. }),
            "a deadline shorter than the window must flush early and run, got {replies:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(300),
            "flush must not wait out the full window"
        );
        assert_eq!(tenant.batcher.stats().expired, 0);
    }

    /// Regression: the leader's wait used to be a plain `thread::sleep`
    /// whose duration was fixed when the wait *started* — a query with a
    /// short deadline arriving mid-sleep could not shorten it, so the
    /// leader slept out the full window and answered that query
    /// `Expired`. Against that code this test fails (the late frame
    /// expires after ~300 ms); with the condvar-parked leader the
    /// arrival wakes it, the target is recomputed, and the query runs
    /// well inside the window.
    #[test]
    fn late_short_deadline_arrival_wakes_the_parked_leader() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::from_millis(300), max_pending: 8 });
        let spec = QuerySpec::new(3, 2).expect("spec").with_engine(EngineKind::Online);
        // Frame A (no deadline) makes the leader park for the window.
        let leader = {
            let svc = svc.clone();
            let tenant = tenant.clone();
            std::thread::spawn(move || tenant.batcher.submit_many(&svc, vec![spec], None))
        };
        // Frame B arrives mid-wait with a deadline far shorter than the
        // window's remainder.
        std::thread::sleep(Duration::from_millis(40));
        let start = Instant::now();
        let deadline = start + Duration::from_millis(60);
        let late = tenant.batcher.submit_many(&svc, vec![spec], Some(deadline)).expect("admitted");
        let elapsed = start.elapsed();
        assert!(
            matches!(late[0], BatchReply::Answered { .. }),
            "a short-deadline arrival must wake the parked leader and run, got {late:?}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "the flush must be pulled forward by the arrival, not wait out the window \
             (took {elapsed:?})"
        );
        let first = leader.join().expect("join").expect("admitted");
        assert!(matches!(first[0], BatchReply::Answered { .. }), "got {first:?}");
        assert_eq!(tenant.batcher.stats().expired, 0);
        assert_eq!(tenant.batcher.stats().batches_executed, 1, "both frames share the flush");
    }

    #[test]
    fn cancelled_frames_queries_are_dropped_at_their_slots() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::ZERO, max_pending: 8 });
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

    #[test]
    fn invalid_query_fails_alone_not_its_batch_mates() {
        let (svc, tenant, _reg) =
            tenant_with(BatchLimits { window: Duration::ZERO, max_pending: 8 });
        let good = QuerySpec::new(3, 2).expect("spec");
        let bad = QuerySpec::new(3, 10_000).expect("spec"); // r ≫ n: rejected at run time
        let replies =
            tenant.batcher.submit_many(&svc, vec![good, bad, good], None).expect("admitted");
        assert!(matches!(replies[0], BatchReply::Answered { .. }), "got {:?}", replies[0]);
        assert!(matches!(replies[1], BatchReply::Failed(_)), "got {:?}", replies[1]);
        assert!(matches!(replies[2], BatchReply::Answered { .. }), "got {:?}", replies[2]);
    }
}
