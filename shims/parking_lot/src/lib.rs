//! Offline stand-in for `parking_lot 0.12` — see `shims/README.md`.
//!
//! Thin wrappers over `std::sync` primitives exposing parking_lot's
//! unpoisoned API (`lock()` returns the guard directly). A poisoned std
//! lock is recovered with `into_inner`, matching parking_lot's behaviour of
//! not poisoning at all.
//!
//! ## Lock-order sentinel (`lock-order-check` feature)
//!
//! Beyond the parking_lot subset, every `Mutex`/`RwLock` can carry an
//! optional **lock class** — a `(rank, name)` pair attached via the
//! [`Mutex::with_rank`] / [`RwLock::with_rank`] constructors. Locks built
//! through the plain constructors are *unranked* and exempt from checking.
//!
//! With the `lock-order-check` feature enabled, a thread-local held-lock
//! stack asserts on every **blocking** acquisition that the incoming rank
//! is **strictly greater** than every rank already held by the thread; an
//! inversion panics with both lock class names, which turns a latent
//! deadlock into a deterministic test failure at the first wrong-order
//! acquisition — no unlucky interleaving required. `try_*` acquisitions
//! cannot deadlock and are therefore recorded on the stack but not
//! order-asserted. Without the feature the rank is not even stored; the
//! constructors compile to the plain ones.
//!
//! The canonical rank assignment for this workspace lives in
//! `crates/core/src/lock_order.rs` and is enforced by `tools/sd-lint`.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

#[cfg(feature = "lock-order-check")]
mod order {
    //! The thread-local held-lock stack behind the sentinel.

    use std::cell::{Cell, RefCell};

    /// One held ranked lock: a per-acquisition id (so guards dropped out of
    /// acquisition order release the right entry), the class rank, and the
    /// class name for diagnostics.
    type Held = (u64, u8, &'static str);

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    }

    /// Pops its stack entry on drop; stored inside every guard of a ranked
    /// lock.
    #[derive(Debug)]
    pub struct HeldToken {
        id: u64,
    }

    /// Records an acquisition of class `(rank, name)`. For blocking
    /// acquisitions, first asserts the rank is strictly greater than every
    /// rank this thread already holds — panicking with both class names on
    /// inversion. `try_*` acquisitions skip the assertion (they cannot
    /// deadlock) but are still recorded, so a blocking acquisition *under*
    /// a try-held lock is checked against it.
    pub fn acquire(rank: u8, name: &'static str, blocking: bool) -> HeldToken {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if blocking {
                if let Some(&(_, held_rank, held_name)) = held.iter().max_by_key(|e| e.1) {
                    assert!(
                        rank > held_rank,
                        "lock-order inversion: acquiring `{name}` (rank {rank}) while holding \
                         `{held_name}` (rank {held_rank}); the canonical hierarchy (see \
                         crates/core/src/lock_order.rs) requires strictly increasing ranks"
                    );
                }
            }
            let id = NEXT_ID.with(|n| {
                let id = n.get();
                n.set(id + 1);
                id
            });
            held.push((id, rank, name));
            HeldToken { id }
        })
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(at) = held.iter().rposition(|&(id, _, _)| id == self.id) {
                    held.remove(at);
                }
            });
        }
    }

    /// Ranks currently held by this thread (test hook).
    #[cfg(test)]
    pub fn held_ranks() -> Vec<u8> {
        HELD.with(|held| held.borrow().iter().map(|&(_, r, _)| r).collect())
    }
}

/// The optional lock class of a ranked primitive. Feature-gated so the
/// plain build stores nothing.
#[cfg(feature = "lock-order-check")]
type ClassField = Option<(u8, &'static str)>;

#[cfg(feature = "lock-order-check")]
fn enter(class: &ClassField, blocking: bool) -> Option<order::HeldToken> {
    class.map(|(rank, name)| order::acquire(rank, name, blocking))
}

pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    class: ClassField,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "lock-order-check")]
            class: None,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A mutex carrying a lock class for the lock-order sentinel: `rank`
    /// positions it in the canonical hierarchy (acquired-later classes have
    /// strictly greater ranks), `name` identifies it in inversion panics.
    /// Without the `lock-order-check` feature this is exactly [`Mutex::new`].
    pub fn with_rank(value: T, rank: u8, name: &'static str) -> Self {
        #[cfg(not(feature = "lock-order-check"))]
        let _ = (rank, name);
        Mutex {
            #[cfg(feature = "lock-order-check")]
            class: Some((rank, name)),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            #[cfg(feature = "lock-order-check")]
            _token: enter(&self.class, true),
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

// Real parking_lot's Mutex is Debug (printing `<locked>` when contended);
// holders deriving Debug rely on it.
impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard of [`Mutex::lock`]; releases the sentinel's held-stack entry
/// (when the lock is ranked) together with the lock itself.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    _token: Option<order::HeldToken>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    class: ClassField,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "lock-order-check")]
            class: None,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// As [`Mutex::with_rank`], for an `RwLock`: shared and exclusive
    /// acquisitions both participate in the sentinel's ordering check.
    pub fn with_rank(value: T, rank: u8, name: &'static str) -> Self {
        #[cfg(not(feature = "lock-order-check"))]
        let _ = (rank, name);
        RwLock {
            #[cfg(feature = "lock-order-check")]
            class: Some((rank, name)),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            #[cfg(feature = "lock-order-check")]
            _token: enter(&self.class, true),
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            #[cfg(feature = "lock-order-check")]
            _token: enter(&self.class, true),
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Non-blocking read: `None` whenever the lock cannot be acquired
    /// immediately (a writer holds it, or the platform reports contention).
    /// Matches real parking_lot's `try_read` closely enough for the
    /// in-tree use — a cache probe that treats "being written" as "absent".
    /// A try-acquisition cannot deadlock, so the sentinel records it on the
    /// held stack without asserting rank order.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(RwLockReadGuard {
                #[cfg(feature = "lock-order-check")]
                _token: enter(&self.class, false),
                inner: guard,
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard {
                #[cfg(feature = "lock-order-check")]
                _token: enter(&self.class, false),
                inner: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// RAII guard of [`RwLock::read`] / [`RwLock::try_read`]; releases the
/// sentinel's held-stack entry (when the lock is ranked) with the lock.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    _token: Option<order::HeldToken>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard of [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    _token: Option<order::HeldToken>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1u32]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn try_read_fails_while_written_and_succeeds_after() {
        let l = RwLock::new(7u32);
        {
            let _w = l.write();
            assert!(l.try_read().is_none(), "try_read must not block on a writer");
        }
        assert_eq!(*l.try_read().expect("uncontended try_read succeeds"), 7);
    }

    #[test]
    fn ranked_constructors_behave_like_plain_ones() {
        let m = Mutex::with_rank(5u32, 10, "m");
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
        let l = RwLock::with_rank(vec![1u32], 20, "l");
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.try_read().map(|g| g.len()), Some(2));
    }
}

/// Sentinel self-tests: only meaningful (and only compiled) with the
/// checker on — run them via
/// `cargo test -p parking_lot --features lock-order-check`.
#[cfg(all(test, feature = "lock-order-check"))]
mod order_tests {
    use super::*;

    #[test]
    fn increasing_ranks_pass_and_release() {
        let a = Mutex::with_rank((), 10, "order-a");
        let b = RwLock::with_rank((), 20, "order-b");
        {
            let _ga = a.lock();
            let _gb = b.read();
            assert_eq!(order::held_ranks(), vec![10, 20]);
        }
        assert!(order::held_ranks().is_empty(), "guards must pop their entries");
        // Out-of-acquisition-order guard drops release the right entries.
        let ga = a.lock();
        let gb = b.write();
        drop(ga);
        assert_eq!(order::held_ranks(), vec![20]);
        drop(gb);
        assert!(order::held_ranks().is_empty());
    }

    #[test]
    fn inversion_panics_with_both_lock_names() {
        let low = Mutex::with_rank((), 10, "inv-low");
        let high = Mutex::with_rank((), 30, "inv-high");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gh = high.lock();
            let _gl = low.lock(); // 10 while holding 30: inversion
        }))
        .expect_err("acquiring a lower rank while holding a higher one must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(msg.contains("inv-low") && msg.contains("inv-high"), "panic names both: {msg}");
        assert!(order::held_ranks().is_empty(), "unwound guards must still pop");
    }

    #[test]
    fn equal_ranks_are_an_inversion_too() {
        let a = Mutex::with_rank((), 10, "eq-a");
        let b = Mutex::with_rank((), 10, "eq-b");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        }));
        assert!(err.is_err(), "same-rank nesting is unordered and must panic");
    }

    #[test]
    fn unranked_locks_are_exempt() {
        let ranked = Mutex::with_rank((), 30, "exempt-high");
        let plain = Mutex::new(());
        let _gr = ranked.lock();
        let _gp = plain.lock(); // unranked: no assertion, no stack entry
        assert_eq!(order::held_ranks(), vec![30]);
    }

    #[test]
    fn try_read_records_but_does_not_assert() {
        let high = RwLock::with_rank((), 30, "try-high");
        let low = RwLock::with_rank((), 10, "try-low");
        let _gh = high.read();
        // A try-acquisition below the held rank is allowed (cannot
        // deadlock)...
        let gl = low.try_read().expect("uncontended");
        // ...but it still lands on the stack: a *blocking* acquisition
        // under it is checked against everything held.
        assert_eq!(order::held_ranks(), vec![30, 10]);
        drop(gl);
        let mid = Mutex::with_rank((), 20, "try-mid");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gm = mid.lock(); // 20 while holding 30: inversion
        }));
        assert!(err.is_err());
    }
}
