//! The canonical lock hierarchy of the serving stack.
//!
//! Every lock in `sd-core` and `sd-server` belongs to a **lock class**
//! declared in this file, and the declaration order below *is* the
//! hierarchy: a thread may only acquire a lock whose class rank is
//! strictly greater than every rank it already holds. Two layers enforce
//! it:
//!
//! - **Statically**, `tools/sd-lint` (rule `lock-tag`) requires every
//!   acquisition site in `sd-core` and `sd-server` to carry a trailing
//!   `// lock: <class>` tag naming a class declared here, and checks the
//!   declarations stay in strictly increasing rank order.
//! - **Dynamically**, the `parking_lot` shim's lock-order sentinel (the
//!   `lock-order-check` feature) threads each class's rank into the lock
//!   itself via `with_rank`, and panics — naming both lock classes — the
//!   moment any thread acquires out of order, deadlock or not.
//!
//! ## The hierarchy
//!
//! | rank | class             | guards                                               |
//! |------|-------------------|------------------------------------------------------|
//! | 3    | `server.tenants`  | the `sd-server` tenant routing table                 |
//! | 5    | `server.io`       | one I/O-loop thread's command injection queue        |
//! | 6    | `server.batch`    | one tenant's query-coalescing accumulator            |
//! | 10   | `svc.updater`     | nothing (`()`): serializes `apply_updates`           |
//! | 20   | `epoch.ptr`       | the serving-epoch pointer swap                       |
//! | 30   | `engine.slot`     | one engine cache slot of an epoch                    |
//!
//! The `server.*` classes live in this file (not in `sd-server`) because
//! the hierarchy must stay total and single-sourced across every crate
//! that locks: a class declared elsewhere could silently tie with one
//! here. They rank *below* every service class so the network layer may
//! hold its own locks across any `SearchService` entry point — the stats
//! verb, for example, walks the tenant table under `server.tenants` while
//! each `ServiceStats` snapshot pins `epoch.ptr` inside.
//!
//! The load-bearing edges, i.e. the nestings the code actually performs:
//!
//! - `server.tenants → epoch.ptr` — the stats verb snapshots every
//!   tenant's service while holding the routing-table read lock.
//!
//! - `svc.updater → epoch.ptr` — `apply_updates` publishes the next epoch
//!   while holding the writer lock.
//! - `svc.updater → engine.slot` — a batch reads the old epoch's GCT slot
//!   (blocking, so a build in flight is joined) to repair its index.
//! - `epoch.ptr → engine.slot` — `import_bundle` installs into the epoch it
//!   verified, under the epoch read lock.
//!
//! A GCT build runs its vertex chunks on the pool (`run_all`)
//! while holding the `engine.slot` write lock of the slot it will fill,
//! and an update's repair while holding `svc.updater`. That is safe
//! because `run_all` never runs another caller's jobs on its caller, and
//! the chunk jobs take no lock.
//!
//! No class exists to hand a pool job's output back: `run_all` returns
//! each job's output by value, and the batcher answers each parked frame
//! from its share of one `top_r_many` call. `engine.slot` is the
//! innermost class. Ranks are spaced by 10 so a future class can slot
//! between existing levels without renumbering the world.

/// One level of the lock hierarchy: a rank and the name the sentinel
/// reports on inversion. Construct locks through [`LockClass::mutex`] /
/// [`LockClass::rwlock`] so the class and the lock cannot drift apart.
#[derive(Clone, Copy, Debug)]
pub struct LockClass {
    rank: u8,
    name: &'static str,
}

impl LockClass {
    const fn new(rank: u8, name: &'static str) -> Self {
        LockClass { rank, name }
    }

    /// The class's position in the hierarchy.
    pub fn rank(self) -> u8 {
        self.rank
    }

    /// The name inversion panics identify the lock by.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// A mutex ranked at this class.
    pub fn mutex<T>(self, value: T) -> parking_lot::Mutex<T> {
        parking_lot::Mutex::with_rank(value, self.rank, self.name)
    }

    /// A reader–writer lock ranked at this class.
    pub fn rwlock<T>(self, value: T) -> parking_lot::RwLock<T> {
        parking_lot::RwLock::with_rank(value, self.rank, self.name)
    }
}

// The canonical hierarchy. Declaration order here is normative: sd-lint
// verifies ranks are strictly increasing top to bottom, so "where does
// this class sit" has exactly one answer — this file, read downward.

/// The `sd-server` tenant routing table ([`GraphFingerprint`] → service).
///
/// [`GraphFingerprint`]: crate::GraphFingerprint
pub const SERVER_TENANTS: LockClass = LockClass::new(3, "server.tenants");

/// One `sd-server` I/O-loop thread's command injection queue: other
/// threads (the batcher's completion callbacks, the acceptor, drain
/// control) push commands here and wake the loop's poller. Always
/// acquired with an otherwise-empty held set by design — push, drop,
/// wake.
pub const SERVER_IO: LockClass = LockClass::new(5, "server.io");

/// One tenant's query-coalescing accumulator: concurrent connections park
/// queries here and a single leader flushes them as one
/// [`crate::SearchService::top_r_many`] batch.
pub const SERVER_BATCH: LockClass = LockClass::new(6, "server.batch");

/// Serializes [`crate::SearchService::apply_updates`] batches; it guards
/// no data, since a batch keeps nothing for the next one.
pub const SVC_UPDATER: LockClass = LockClass::new(10, "svc.updater");

/// The serving-epoch pointer: readers pin a snapshot, updates swap it.
pub const EPOCH_PTR: LockClass = LockClass::new(20, "epoch.ptr");

/// An epoch's engine cache slot: each epoch has one, for its GCT engine.
pub const ENGINE_SLOT: LockClass = LockClass::new(30, "engine.slot");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_increasing_in_declaration_order() {
        let classes =
            [SERVER_TENANTS, SERVER_IO, SERVER_BATCH, SVC_UPDATER, EPOCH_PTR, ENGINE_SLOT];
        for pair in classes.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "{} (rank {}) must rank below {} (rank {})",
                pair[0].name(),
                pair[0].rank(),
                pair[1].name(),
                pair[1].rank()
            );
        }
    }

    #[test]
    fn class_constructors_produce_working_locks() {
        let m = SVC_UPDATER.mutex(3u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 4);
        let l = EPOCH_PTR.rwlock(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(l.try_read().map(|g| *g), Some(6));
    }
}
