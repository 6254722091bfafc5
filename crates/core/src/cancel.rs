//! Cooperative cancellation for in-flight query work.
//!
//! A [`CancelToken`] is a cloneable flag shared between the party that
//! *observes* an abandonment (the server's I/O loop noticing a client
//! disconnect) and the work that should stop caring about its result
//! (that client's queries parked in a batch accumulator or occupying
//! fan-out slots). Cancellation is **cooperative and slot-granular**:
//! nothing is interrupted mid-computation — the token is checked at
//! dequeue time and at batch-slot boundaries
//! ([`crate::SearchService::top_r_many`]), which is
//! where skipping work actually frees pool capacity without poisoning a
//! batch's shared epoch pin.
//!
//! The token is a plain `Arc<AtomicBool>` underneath: checking it is a
//! relaxed-ish load (`Acquire`, so a cancel published by the I/O thread
//! is seen by pool workers), and cancelling is idempotent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; see the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled(), "a clone's cancel reaches the original");
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
