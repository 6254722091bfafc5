//! The canonical lock hierarchy of the serving stack.
//!
//! Every lock in `sd-core` belongs to a **lock class** declared in this
//! file, and the declaration order below *is* the hierarchy: a thread may
//! only acquire a lock whose class rank is strictly greater than every
//! rank it already holds. Two layers enforce it:
//!
//! - **Statically**, `tools/sd-lint` (rule `lock-tag`) requires every
//!   acquisition site in this crate to carry a trailing `// lock: <class>`
//!   tag naming a class declared here, and checks the declarations stay in
//!   strictly increasing rank order.
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
//! | 7    | `server.frame`    | one request frame's reply-aggregation slots          |
//! | 8    | `server.inflight` | the per-epoch in-flight gauge draining consults      |
//! | 10   | `svc.updater`     | the retained carry ([`crate::dynamic::DynamicTsd`]: COW adjacency + the published TSD/GCT `Arc`s); serializes `apply_updates` |
//! | 20   | `epoch.ptr`       | the serving-epoch pointer swap                       |
//! | 30   | `engine.slot`     | one engine cache slot of an epoch                    |
//! | 40   | `batch.slot`      | one result slot of a `top_r_many` fan-out            |
//! | 50   | `scan.chunk`      | one vertex chunk's part of a chunked index build     |
//! | 60   | `tsd.scratch`     | the TSD engine's per-query scratch buffer            |
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
//!   while holding the updater carry.
//! - `svc.updater → engine.slot` — a batch seeds its carry from the old
//!   epoch's TSD and GCT slots, and `updater_cow` compares the carry's
//!   indexes with the current epoch's.
//! - `epoch.ptr → engine.slot` — `import_index` installs into the epoch it
//!   verified, under the epoch read lock.
//! - `engine.slot → scan.chunk` — a TSD or GCT build runs its vertex
//!   chunks on the pool (`run_all`) while holding the slot it will fill.
//!   Safe because `run_all` never runs another caller's jobs on its
//!   caller, so no build's chunk waits on a slot.
//!
//! `batch.slot` and `tsd.scratch` are leaves: acquired with at most
//! try-held locks below them, released before anything else is taken.
//! Ranks are spaced by 10 so a future class can slot between existing
//! levels without renumbering the world.

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

/// One request frame's reply-aggregation slots: the batch leader fills
/// per-query replies here as they resolve; the last fill hands the
/// completed frame to its I/O thread (taking `server.io` only *after*
/// this lock is released — the completion callback runs lock-free).
pub const SERVER_FRAME: LockClass = LockClass::new(7, "server.frame");

/// The `sd-server` in-flight gauge: which epochs still have queries or
/// update batches executing, consulted by epoch-aware draining.
pub const SERVER_INFLIGHT: LockClass = LockClass::new(8, "server.inflight");

/// Serializes [`crate::SearchService::apply_updates`] batches and guards
/// the retained carry state: the COW graph plus the published TSD and GCT
/// indexes the next batch repairs against.
pub const SVC_UPDATER: LockClass = LockClass::new(10, "svc.updater");

/// The serving-epoch pointer: readers pin a snapshot, updates swap it.
pub const EPOCH_PTR: LockClass = LockClass::new(20, "epoch.ptr");

/// One engine cache slot of an epoch (one per concrete kind).
pub const ENGINE_SLOT: LockClass = LockClass::new(30, "engine.slot");

/// One result slot of a [`crate::SearchService::top_r_many`] fan-out.
pub const BATCH_SLOT: LockClass = LockClass::new(40, "batch.slot");

/// One vertex chunk's part of a chunked TSD or GCT index build (see
/// [`crate::parallel`]).
pub const SCAN_CHUNK: LockClass = LockClass::new(50, "scan.chunk");

/// The TSD engine's per-query scratch buffer.
pub const TSD_SCRATCH: LockClass = LockClass::new(60, "tsd.scratch");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_increasing_in_declaration_order() {
        let classes = [
            SERVER_TENANTS,
            SERVER_IO,
            SERVER_BATCH,
            SERVER_FRAME,
            SERVER_INFLIGHT,
            SVC_UPDATER,
            EPOCH_PTR,
            ENGINE_SLOT,
            BATCH_SLOT,
            SCAN_CHUNK,
            TSD_SCRATCH,
        ];
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
