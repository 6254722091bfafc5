//! The process-wide worker pool: one set of lazily spawned threads serving
//! **both** index builds (every [`crate::SearchService`]'s scheduled build
//! jobs and the vertex chunks of every build) and
//! [`crate::SearchService::top_r_many`] fan-out, one query per task. The
//! Online and Bound scans never run here: they are the paper's
//! single-threaded algorithms.
//!
//! Before 0.6 each service owned a private 2-thread build queue, so N
//! services parked 2·N mostly idle OS threads and the query path never used
//! more than one core. A [`WorkerPool`] inverts that: there is one
//! [`global`] pool per process, sized by `available_parallelism` (override
//! with the `SD_POOL_THREADS` environment variable, read once), and its
//! threads are spawned *on demand* — a process that never goes cold and
//! never fans out a batch spawns none at all.
//!
//! ## Execution model
//!
//! Jobs go through one shared MPMC injector queue (the `crossbeam::channel`
//! shim). Two entry points:
//!
//! * [`WorkerPool::submit`] — fire-and-forget, for scheduled index builds
//!   and batch leaders. Spawns a worker lazily when queued work exceeds
//!   idle capacity.
//! * [`WorkerPool::run_all`] — structured fan-out: the batch goes into a
//!   batch-local queue, the shared injector gets one *ticket* per thread
//!   the pool may run (never more than the batch has jobs; a worker
//!   picking a ticket up claims the batch's jobs until none is left), and
//!   the **calling thread participates** by claiming jobs from its own
//!   batch while it waits. So a batch puts at most
//!   [`WorkerPool::max_threads`] entries on the queue that `sd-server`'s
//!   admission control sheds on, however many jobs it has. Caller
//!   participation is what makes nested use safe: a fan-out task running
//!   on a pool worker can itself `run_all` a chunked index build without
//!   deadlocking, because a caller can always drain its own batch instead
//!   of parking. The caller never executes *foreign* work —
//!   it may hold locks (an index build runs its vertex chunks under an
//!   `engine.slot` write lock), and an arbitrary injector job such as a
//!   queued build re-enters those lock classes; see
//!   `crates/core/src/lock_order.rs`.
//!
//! A panicking job never takes a worker down (each job runs under
//! `catch_unwind`); [`WorkerPool::run_all`] re-raises the panic on the
//! calling thread once the batch has fully drained, so no sibling job is
//! left dangling.
//!
//! ## Determinism
//!
//! The pool itself imposes no ordering. Determinism is the *callers'*
//! contract — see [`crate::parallel`], which statically chunks index
//! builds by vertex ranges and joins the parts in chunk order, making
//! pooled indexes byte-identical to the sequential build at any thread
//! count — and `top_r_many` fills one result slot per query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{Receiver, Sender};

/// One unit of pool work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// What the shared injector queue carries.
enum Task {
    /// A [`WorkerPool::submit`]ted job.
    Job(Job),
    /// A ticket into one [`WorkerPool::run_all`] batch: the worker claims
    /// that batch's jobs until none is left.
    Ticket(Receiver<Job>),
}

/// Hard ceiling on pool size, protecting against a runaway
/// `SD_POOL_THREADS` value.
pub const MAX_POOL_THREADS: usize = 256;

/// Counters shared between the pool handle and its workers.
struct PoolShared {
    /// Sizing bound: workers never exceed this.
    max: usize,
    /// Worker threads currently alive.
    spawned: AtomicUsize,
    /// Workers currently parked in `recv` (no job in hand).
    idle: AtomicUsize,
    /// Submitted and batch jobs fully executed (including panicked ones).
    executed: AtomicUsize,
}

/// A shared worker pool; see the [module docs](self) for the execution
/// model. Cheap to share as `Arc<WorkerPool>`; dropping the last handle
/// disconnects the injector queue and every worker exits on its own (after
/// finishing its current job), so test-local pools leak no threads.
pub struct WorkerPool {
    tx: Sender<Task>,
    rx: Receiver<Task>,
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("max_threads", &self.shared.max)
            .field("spawned_threads", &self.spawned_threads())
            .field("queued", &self.rx.len())
            .finish()
    }
}

/// The pool size [`global`] uses: `SD_POOL_THREADS` when set to a positive
/// integer, `available_parallelism` otherwise; both capped at
/// [`MAX_POOL_THREADS`].
pub fn default_threads() -> usize {
    let configured = std::env::var("SD_POOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    configured
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
        .min(MAX_POOL_THREADS)
}

/// The process-wide pool, created on first use with [`default_threads`]
/// workers. Every [`crate::SearchService`] built through the plain
/// constructors shares it; [`WorkerPool::new`] makes an isolated pool for
/// tests and benchmarks that need an exact thread count.
pub fn global() -> &'static Arc<WorkerPool> {
    static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(default_threads())))
}

impl WorkerPool {
    /// A pool bounded to `threads` workers (clamped to
    /// `1..=`[`MAX_POOL_THREADS`]). No thread is spawned until work
    /// demands it; a 1-thread pool never spawns at all — [`Self::run_all`]
    /// runs its batch inline, which is what makes explicit
    /// `WorkerPool::new(1)` the exact sequential reference.
    pub fn new(threads: usize) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded();
        WorkerPool {
            tx,
            rx,
            shared: Arc::new(PoolShared {
                max: threads.clamp(1, MAX_POOL_THREADS),
                spawned: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
                executed: AtomicUsize::new(0),
            }),
        }
    }

    /// The sizing bound this pool was created with.
    pub fn max_threads(&self) -> usize {
        self.shared.max
    }

    /// Worker threads currently alive — at most [`Self::max_threads`],
    /// starting at 0 (workers spawn lazily).
    pub fn spawned_threads(&self) -> usize {
        self.shared.spawned.load(Ordering::SeqCst)
    }

    /// Jobs fully executed over the pool's lifetime: submitted jobs and
    /// [`Self::run_all`] batch jobs, panicked ones included (a batch's
    /// tickets are not jobs).
    pub fn jobs_executed(&self) -> usize {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Entries sitting in the shared injector queue right now, not yet
    /// picked up by any worker: submitted jobs, plus at most
    /// [`Self::max_threads`] tickets per running [`Self::run_all`] batch —
    /// the backlog signal `sd-server`'s admission control sheds on.
    /// Instantaneous and advisory: the value may be stale by the time the
    /// caller acts on it, which is fine for a load-shedding threshold.
    pub fn queued_jobs(&self) -> usize {
        self.rx.len()
    }

    /// Enqueues a fire-and-forget job (the background-build entry point).
    /// Never blocks; spawns a worker if the queue is outgrowing idle
    /// capacity. On a 1-thread pool the job runs on the single lazily
    /// spawned worker, never on the caller.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        // Cannot fail: `self.rx` keeps the receiver count nonzero for as
        // long as this handle exists.
        let _ = self.tx.send(Task::Job(Box::new(job)));
        self.maybe_spawn();
    }

    /// Runs a batch of jobs to completion, with the calling thread
    /// participating (see the [module docs](self)). Returns once every job
    /// in `jobs` has finished; if any of them panicked, re-raises a panic
    /// on the calling thread *after* the batch has drained.
    pub fn run_all(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        if self.shared.max <= 1 || jobs.len() == 1 {
            // Inline fast path: no worker threads, no queueing, panics
            // propagate directly. This is the sequential reference that
            // parallel results are byte-identical to.
            for job in jobs {
                job();
            }
            return;
        }
        let total = jobs.len();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<bool>();
        // Batch-local queue: the caller claims work from *here*, never from
        // the shared injector. Callers reach `run_all` holding locks (an
        // index build holds its `engine.slot` write lock while its chunks
        // run), and an arbitrary injector job — say, a queued build job —
        // re-enters those same lock classes.
        // Running one on the caller is a lock-order inversion and, with
        // two such callers stealing each other's builds, a deadlock; the
        // lock-order sentinel (`lock-order-check`) catches exactly this.
        let (batch_tx, batch_rx) = crossbeam::channel::unbounded::<Job>();
        for job in jobs {
            let done = done_tx.clone();
            // The batch owner holds `done_rx` until every signal is in,
            // so the completion send cannot fail while anyone waits on it.
            let _ = batch_tx.send(Box::new(move || {
                let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                let _ = done.send(panicked);
            }));
        }
        drop(done_tx);
        drop(batch_tx);
        // What goes on the shared injector is one *ticket* per thread the
        // pool may run: a worker that picks a ticket up claims this batch's
        // jobs until none is left. Workers start from an empty held-lock
        // stack, so foreign work is safe there — only the caller isn't.
        for _ in 0..total.min(self.shared.max) {
            let _ = self.tx.send(Task::Ticket(batch_rx.clone()));
        }
        self.maybe_spawn();

        let mut completed = 0usize;
        let mut panicked = false;
        while completed < total {
            if let Ok(p) = done_rx.try_recv() {
                completed += 1;
                panicked |= p;
                continue;
            }
            // Claim one of our own unclaimed jobs instead of parking. The
            // caller alone can drain the whole batch through this arm, so
            // `run_all` completes even if every worker is busy elsewhere —
            // including nested `run_all` on a worker thread.
            if let Ok(job) = batch_rx.try_recv() {
                job(); // contains its own catch_unwind + completion send
                self.shared.executed.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            // Every remaining job is mid-flight on some worker. Park until
            // one reports in.
            match done_rx.recv() {
                Ok(p) => {
                    completed += 1;
                    panicked |= p;
                }
                Err(_) => break, // unreachable: senders live inside pending jobs
            }
        }
        if panicked {
            // sd-lint: allow(no-panic) re-raises a contained batch-job panic on the caller
            panic!("a worker-pool job panicked (batch drained before re-raise)");
        }
    }

    /// Spawns one worker when queued work exceeds idle capacity and the
    /// pool is below its bound. Workers live until the pool handle drops
    /// (the disconnected queue is their exit signal).
    fn maybe_spawn(&self) {
        loop {
            let spawned = self.shared.spawned.load(Ordering::SeqCst);
            if spawned >= self.shared.max {
                return;
            }
            if self.tx.len() <= self.shared.idle.load(Ordering::SeqCst) {
                return; // parked workers will absorb the queue
            }
            if self
                .shared
                .spawned
                .compare_exchange(spawned, spawned + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let shared = self.shared.clone();
                let rx = self.rx.clone();
                let spawn = std::thread::Builder::new()
                    .name("sd-pool-worker".into())
                    .spawn(move || worker_loop(shared, rx));
                if spawn.is_err() {
                    // Out of threads: undo the claim; submitted work still
                    // completes via existing workers or `run_all` callers.
                    self.shared.spawned.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// Worker body: drain the injector until the owning pool handle drops.
fn worker_loop(shared: Arc<PoolShared>, rx: Receiver<Task>) {
    loop {
        shared.idle.fetch_add(1, Ordering::SeqCst);
        let msg = rx.recv();
        shared.idle.fetch_sub(1, Ordering::SeqCst);
        match msg {
            Ok(Task::Job(job)) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
                shared.executed.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Task::Ticket(batch)) => {
                while let Ok(job) = batch.try_recv() {
                    job(); // contains its own catch_unwind + completion send
                    shared.executed.fetch_add(1, Ordering::SeqCst);
                }
            }
            Err(_) => {
                // Disconnected: the last pool handle is gone.
                shared.spawned.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..deadline_ms {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn spawns_lazily_and_never_exceeds_max() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.spawned_threads(), 0, "no work, no threads");
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let hits = hits.clone();
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(wait_until(2000, || hits.load(Ordering::SeqCst) == 32));
        assert!(pool.spawned_threads() <= 3, "spawned {}", pool.spawned_threads());
        assert!(pool.spawned_threads() >= 1);
    }

    #[test]
    fn run_all_executes_every_job_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let counts: Arc<Vec<AtomicUsize>> =
                Arc::new((0..40).map(|_| AtomicUsize::new(0)).collect());
            let jobs: Vec<Job> = (0..40)
                .map(|i| {
                    let counts = counts.clone();
                    Box::new(move || {
                        counts[i].fetch_add(1, Ordering::SeqCst);
                    }) as Job
                })
                .collect();
            pool.run_all(jobs);
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "job {i} on {threads} threads");
            }
        }
    }

    /// A batch queues at most one ticket per pool thread, so a many-chunk
    /// index build cannot flood the queue `sd-server` sheds on; and
    /// `jobs_executed` counts the batch's jobs, not its tickets.
    #[test]
    fn run_all_queues_at_most_one_ticket_per_thread() {
        for threads in [2, 4] {
            let pool = Arc::new(WorkerPool::new(threads));
            let peak = Arc::new(AtomicUsize::new(0));
            let jobs: Vec<Job> = (0..200)
                .map(|_| {
                    let (pool, peak) = (pool.clone(), peak.clone());
                    Box::new(move || {
                        peak.fetch_max(pool.queued_jobs(), Ordering::SeqCst);
                    }) as Job
                })
                .collect();
            pool.run_all(jobs);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= pool.max_threads(), "{peak} queued on {threads} threads");
            // A worker counts its last job just after reporting it done.
            assert!(wait_until(2000, || pool.jobs_executed() >= 200));
            assert_eq!(pool.jobs_executed(), 200, "{threads} threads");
        }
    }

    #[test]
    fn run_all_is_reentrant_from_pool_workers() {
        // Fan-out tasks that each run a nested chunked batch — the exact
        // shape of `top_r_many` over cold index builds. Caller
        // participation is what keeps this from deadlocking on a pool
        // smaller than the nesting depth.
        let pool = Arc::new(WorkerPool::new(2));
        let leaves = Arc::new(AtomicUsize::new(0));
        let outer: Vec<Job> = (0..6)
            .map(|_| {
                let pool = pool.clone();
                let leaves = leaves.clone();
                Box::new(move || {
                    let inner: Vec<Job> = (0..8)
                        .map(|_| {
                            let leaves = leaves.clone();
                            Box::new(move || {
                                leaves.fetch_add(1, Ordering::SeqCst);
                            }) as Job
                        })
                        .collect();
                    pool.run_all(inner);
                }) as Job
            })
            .collect();
        pool.run_all(outer);
        assert_eq!(leaves.load(Ordering::SeqCst), 6 * 8);
    }

    #[test]
    fn run_all_reraises_panics_after_draining() {
        let pool = WorkerPool::new(2);
        let survivors = Arc::new(AtomicUsize::new(0));
        let mut jobs: Vec<Job> = Vec::new();
        for i in 0..10 {
            let survivors = survivors.clone();
            jobs.push(Box::new(move || {
                if i == 3 {
                    panic!("boom");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let res = catch_unwind(AssertUnwindSafe(|| pool.run_all(jobs)));
        assert!(res.is_err(), "panic must surface on the caller");
        assert_eq!(survivors.load(Ordering::SeqCst), 9, "siblings still ran");
        // The pool survives: workers contained the panic.
        let after = Arc::new(AtomicUsize::new(0));
        let a = after.clone();
        pool.run_all(vec![
            Box::new(move || {
                a.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|| {}),
        ]);
        assert_eq!(after.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_thread_pool_runs_batches_inline() {
        let pool = WorkerPool::new(1);
        let tid = std::thread::current().id();
        let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let jobs: Vec<Job> = (0..4)
            .map(|_| {
                let ran_on = ran_on.clone();
                Box::new(move || ran_on.lock().push(std::thread::current().id())) as Job
            })
            .collect();
        pool.run_all(jobs);
        assert!(ran_on.lock().iter().all(|&t| t == tid), "1-thread pools run inline");
        assert_eq!(pool.spawned_threads(), 0);
    }

    #[test]
    fn run_all_never_executes_foreign_jobs_on_the_caller() {
        // Regression: `run_all` used to steal *any* injector job while
        // waiting, so a queued background build could run on a caller
        // that was mid-fan-out holding an `engine.slot` write lock — a
        // lock-order inversion (caught by the `lock-order-check`
        // sentinel), and a deadlock once two such callers steal each
        // other's builds. The caller must only ever claim its own batch.
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();

        // Occupy every worker the pool may spawn, so the foreign job is
        // still queued when the caller starts working through its batch.
        let (hold_tx, hold_rx) = crossbeam::channel::unbounded::<()>();
        let parked = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let hold_rx = hold_rx.clone();
            let parked = parked.clone();
            pool.submit(move || {
                parked.fetch_add(1, Ordering::SeqCst);
                let _ = hold_rx.recv();
            });
        }
        assert!(wait_until(2000, || parked.load(Ordering::SeqCst) == 2));

        // The foreign job, now at the head of the injector.
        let foreign_ran_on = Arc::new(parking_lot::Mutex::new(None));
        let record = foreign_ran_on.clone();
        pool.submit(move || {
            *record.lock() = Some(std::thread::current().id());
        });

        // With the workers parked, the caller alone drains this batch.
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let hits = hits.clone();
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        pool.run_all(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 8);

        // Release the workers; the foreign job runs — on one of them.
        drop(hold_tx);
        assert!(wait_until(2000, || foreign_ran_on.lock().is_some()));
        assert_ne!(
            foreign_ran_on.lock().unwrap(),
            caller,
            "foreign work must never run on a run_all caller"
        );
    }

    #[test]
    fn dropping_the_pool_retires_its_workers() {
        let pool = WorkerPool::new(2);
        let shared = pool.shared.clone();
        pool.submit(|| {});
        assert!(wait_until(2000, || shared.executed.load(Ordering::SeqCst) == 1));
        assert!(shared.spawned.load(Ordering::SeqCst) >= 1);
        drop(pool);
        assert!(
            wait_until(2000, || shared.spawned.load(Ordering::SeqCst) == 0),
            "workers must exit once the handle drops"
        );
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let d = default_threads();
        assert!((1..=MAX_POOL_THREADS).contains(&d));
        assert!(global().max_threads() >= 1);
    }
}
