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
//!   and batch leaders. Spawns workers lazily when queued work exceeds
//!   idle capacity.
//! * [`WorkerPool::run_all`] — structured fan-out that returns each job's
//!   output, in job order: the batch goes into a batch-local queue, the
//!   shared injector gets one *ticket* per thread the pool may run (never
//!   more than the batch has jobs; a worker picking a ticket up claims
//!   the batch's jobs until none is left), and the **calling thread
//!   participates** by claiming jobs from its own batch while it waits.
//!   Each job's output comes back on the batch's completion channel, so
//!   no job needs a lock to hand it over. A batch puts at most
//!   [`WorkerPool::max_threads`] entries on the shared queue, however
//!   many jobs it has. Caller
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
//! The pool runs jobs in no particular order, but [`WorkerPool::run_all`]
//! returns their outputs in job order. Determinism is the *callers'*
//! contract — see [`crate::parallel`], which statically chunks index
//! builds by vertex ranges and joins the parts in chunk order, making
//! pooled indexes byte-identical to the sequential build at any thread
//! count — and `top_r_many` returns one result per query, in spec order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{Receiver, Sender};

/// One unit of pool work: a [`WorkerPool::submit`]ted job returns `()`, a
/// [`WorkerPool::run_all`] job returns its output.
pub type Job<T = ()> = Box<dyn FnOnce() -> T + Send + 'static>;

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
    /// Workers with no job in hand: parked in `recv`, or spawned and not
    /// yet there (a new worker counts as idle from its spawn, so the next
    /// [`WorkerPool::maybe_spawn`] does not spawn again for the same job).
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
    /// [`Self::run_all`] batch jobs — those a batch runs inline on its
    /// caller included — and panicked ones (a batch's tickets are not
    /// jobs; an inline job that panics unwinds into its caller uncounted).
    pub fn jobs_executed(&self) -> usize {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Entries sitting in the shared injector queue right now, not yet
    /// picked up by any worker: submitted jobs, plus at most
    /// [`Self::max_threads`] tickets per running [`Self::run_all`] batch —
    /// `sd-server` reports it as `pool_queued_jobs`. Instantaneous and
    /// advisory: the value may be stale by the time the caller reads it.
    pub fn queued_jobs(&self) -> usize {
        self.rx.len()
    }

    /// Enqueues a fire-and-forget job (the background-build entry point).
    /// Never blocks; spawns workers if the queue is outgrowing idle
    /// capacity. On a 1-thread pool the job runs on the single lazily
    /// spawned worker, never on the caller.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        // Cannot fail: `self.rx` keeps the receiver count nonzero for as
        // long as this handle exists.
        let _ = self.tx.send(Task::Job(Box::new(job)));
        self.maybe_spawn();
    }

    /// Runs a batch of jobs to completion, with the calling thread
    /// participating (see the [module docs](self)), and returns each job's
    /// output in job order, whatever order the jobs finished in. Returns
    /// once every job in `jobs` has finished; if any of them panicked,
    /// re-raises a panic on the calling thread *after* the batch has
    /// drained.
    pub fn run_all<T: Send + 'static>(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        if self.shared.max <= 1 || jobs.len() <= 1 {
            // Inline fast path: no worker threads, no queueing, panics
            // propagate directly. This is the sequential reference that
            // parallel results are byte-identical to.
            let run = |job: Job<T>| {
                let output = job();
                self.shared.executed.fetch_add(1, Ordering::SeqCst);
                output
            };
            return jobs.into_iter().map(run).collect();
        }
        let total = jobs.len();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<(usize, std::thread::Result<T>)>();
        // Batch-local queue: the caller claims work from *here*, never from
        // the shared injector. Callers reach `run_all` holding locks (an
        // index build holds its `engine.slot` write lock while its chunks
        // run), and an arbitrary injector job — say, a queued build job —
        // re-enters those same lock classes.
        // Running one on the caller is a lock-order inversion and, with
        // two such callers stealing each other's builds, a deadlock; the
        // lock-order sentinel (`lock-order-check`) catches exactly this.
        let (batch_tx, batch_rx) = crossbeam::channel::unbounded::<Job>();
        for (index, job) in jobs.into_iter().enumerate() {
            let done = done_tx.clone();
            // The batch owner holds `done_rx` until every output is in,
            // so the completion send cannot fail while anyone waits on it.
            let _ = batch_tx.send(Box::new(move || {
                let _ = done.send((index, catch_unwind(AssertUnwindSafe(job))));
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

        let mut outputs: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
        let mut completed = 0usize;
        let mut panicked = false;
        while completed < total {
            let (index, output) = if let Ok(report) = done_rx.try_recv() {
                report
            } else if let Ok(job) = batch_rx.try_recv() {
                // Claim one of our own unclaimed jobs instead of parking. The
                // caller alone can drain the whole batch through this arm, so
                // `run_all` completes even if every worker is busy elsewhere —
                // including nested `run_all` on a worker thread.
                job(); // contains its own catch_unwind + completion send
                self.shared.executed.fetch_add(1, Ordering::SeqCst);
                continue;
            } else {
                // Every remaining job is mid-flight on some worker. Park until
                // one reports in.
                match done_rx.recv() {
                    Ok(report) => report,
                    Err(_) => break, // unreachable: senders live inside pending jobs
                }
            };
            completed += 1;
            match output {
                Ok(value) => outputs[index] = Some(value),
                Err(_) => panicked = true,
            }
        }
        if panicked || completed < total {
            // sd-lint: allow(no-panic) re-raises a contained batch-job panic on the caller
            panic!("a worker-pool job panicked (batch drained before re-raise)");
        }
        outputs.into_iter().flatten().collect()
    }

    /// Spawns as many workers as queued work exceeds idle capacity by, up
    /// to the pool's bound, so one call grows a fresh pool to what its
    /// queue needs (all of a `run_all` batch's tickets, say) rather than
    /// by one thread. Workers live until the pool handle drops (the
    /// disconnected queue is their exit signal).
    fn maybe_spawn(&self) {
        let wanted = self.tx.len().saturating_sub(self.shared.idle.load(Ordering::SeqCst));
        for _ in 0..wanted {
            let max = self.shared.max;
            let claimed =
                self.shared.spawned.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < max).then_some(n + 1)
                });
            if claimed.is_err() {
                return; // at the bound
            }
            self.shared.idle.fetch_add(1, Ordering::SeqCst);
            let shared = self.shared.clone();
            let rx = self.rx.clone();
            let spawn = std::thread::Builder::new()
                .name("sd-pool-worker".into())
                .spawn(move || worker_loop(shared, rx));
            if spawn.is_err() {
                // Out of threads: undo the claim; submitted work still
                // completes via existing workers or `run_all` callers.
                self.shared.idle.fetch_sub(1, Ordering::SeqCst);
                self.shared.spawned.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Worker body: drain the injector until the owning pool handle drops.
/// The worker starts counted as idle (its spawner counted it).
fn worker_loop(shared: Arc<PoolShared>, rx: Receiver<Task>) {
    loop {
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
        shared.idle.fetch_add(1, Ordering::SeqCst);
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

    /// One `run_all` on a fresh pool spawns a worker for each of its
    /// tickets, not one per call.
    #[test]
    fn a_fresh_pools_first_run_all_spawns_every_worker() {
        let pool = WorkerPool::new(4);
        pool.run_all((0..8).map(|_| Box::new(|| {}) as Job).collect());
        assert_eq!(pool.spawned_threads(), 4);
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

    /// Outputs come back in job order, not finishing order: job i sleeps
    /// (16 − i) × 200 µs, so later jobs finish first.
    #[test]
    fn run_all_returns_outputs_in_job_order() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let jobs: Vec<Job<usize>> = (0..16usize)
                .map(|i| {
                    Box::new(move || {
                        std::thread::sleep(Duration::from_micros((16 - i as u64) * 200));
                        i
                    }) as Job<usize>
                })
                .collect();
            assert_eq!(pool.run_all(jobs), (0..16).collect::<Vec<_>>(), "{threads} threads");
            let one: Vec<Job<&str>> = vec![Box::new(|| "only")];
            assert_eq!(pool.run_all(one), ["only"], "{threads} threads");
        }
    }

    /// A batch queues at most one ticket per pool thread, so a many-chunk
    /// index build cannot flood the shared queue; and `jobs_executed`
    /// counts the batch's jobs, not its tickets.
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

    /// `jobs_executed` counts the jobs `run_all` runs inline on its
    /// caller: every job of a batch on a 1-thread pool, and the one job of
    /// a one-job batch on a wider pool.
    #[test]
    fn jobs_executed_counts_inline_run_all_jobs() {
        let single = WorkerPool::new(1);
        single.run_all((0..4).map(|_| Box::new(|| {}) as Job).collect());
        assert_eq!(single.jobs_executed(), 4);
        let wider = WorkerPool::new(2);
        assert_eq!(wider.run_all(vec![Box::new(|| 7) as Job<i32>]), [7]);
        assert_eq!((wider.jobs_executed(), wider.spawned_threads()), (1, 0), "ran inline");
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
