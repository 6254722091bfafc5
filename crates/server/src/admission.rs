//! Admission control: the pure decision logic for when to shed.
//!
//! Two pressure points, two typed sheds — both surfaced to clients as
//! a [`Verb::Overloaded`](crate::proto::Verb::Overloaded) frame rather
//! than a hang or a silent drop:
//!
//! 1. **Connections** — the acceptor refuses a connection past the
//!    configured limit (the refused socket still gets the Overloaded
//!    frame before close, so the client learns *why*).
//! 2. **Query queue** — a query frame is shed when the tenant's
//!    coalescing accumulator is full (see
//!    [`Batcher`](crate::batch::Batcher)).
//!
//! The decisions live here as pure functions over sampled pressure
//! values so they are testable without sockets; the server samples the
//! pressures and maps rejections onto [`OverloadInfo`] frames.
//!
//! The `retry_after_ms` hint is **scaled by the shedding resource**, not
//! a flat constant: a client shed behind an accumulator at twice its cap
//! is told to stay away two base intervals, and one shed past the
//! connection limit one more base interval per connection over it. A
//! flat hint makes every well-behaved client stampede back in lockstep at
//! the same instant, re-creating the overload it was shed for.

use crate::proto::{OverloadInfo, OverloadReason};

/// Hints never exceed this, however deep the backlog — a client told to
/// stay away longer than this would be better served by giving up.
pub const RETRY_AFTER_CAP_MS: u32 = 5_000;

/// Admission thresholds; crossing any of them sheds with the matching
/// [`OverloadReason`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionLimits {
    /// Most simultaneously open connections.
    pub max_connections: usize,
    /// Base retry hint, in milliseconds: the floor every scaled hint
    /// starts from.
    pub retry_after_ms: u32,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits { max_connections: 256, retry_after_ms: 50 }
    }
}

impl AdmissionLimits {
    /// Decides whether a fresh connection may be admitted given the
    /// current open-connection count (the new one not yet counted).
    ///
    /// The hint grows with the overshoot: at the limit it is the base
    /// interval (slots turn over as clients disconnect), and each
    /// connection *beyond* the limit adds another base interval — the
    /// line in front of the door, not just the closed door.
    pub fn admit_connection(&self, active: usize) -> Result<(), OverloadInfo> {
        if active >= self.max_connections {
            let overshoot = (active - self.max_connections) as u64;
            return Err(OverloadInfo {
                reason: OverloadReason::Connections,
                measured: active as u64,
                limit: self.max_connections as u64,
                retry_after_ms: scaled_hint(self.retry_after_ms, 1 + overshoot),
            });
        }
        Ok(())
    }

    /// Maps a batcher queue-full rejection onto the wire shed type. The
    /// hint scales with how far over the accumulator cap the queue is:
    /// one base interval per whole multiple of the cap (a queue at 2× its
    /// cap needs at least two full batches to drain).
    pub fn queue_full(&self, rejection: crate::batch::QueueFull) -> OverloadInfo {
        let ratio = rejection.pending.div_ceil(rejection.limit.max(1));
        OverloadInfo {
            reason: OverloadReason::QueryQueue,
            measured: rejection.pending,
            limit: rejection.limit,
            retry_after_ms: scaled_hint(self.retry_after_ms, ratio),
        }
    }
}

/// `max(base, units × base)`, capped at [`RETRY_AFTER_CAP_MS`].
fn scaled_hint(base_ms: u32, units: u64) -> u32 {
    let scaled = units.saturating_mul(u64::from(base_ms)).min(u64::from(RETRY_AFTER_CAP_MS)) as u32;
    scaled.max(base_ms).min(RETRY_AFTER_CAP_MS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueueFull;

    #[test]
    fn connection_admission_boundary() {
        let limits = AdmissionLimits { max_connections: 2, ..AdmissionLimits::default() };
        assert!(limits.admit_connection(0).is_ok());
        assert!(limits.admit_connection(1).is_ok());
        let shed = limits.admit_connection(2).expect_err("at the limit");
        assert_eq!(shed.reason, OverloadReason::Connections);
        assert_eq!((shed.measured, shed.limit), (2, 2));
    }

    #[test]
    fn connection_hint_grows_past_the_limit() {
        let limits = AdmissionLimits { max_connections: 2, ..AdmissionLimits::default() };
        let at_limit = limits.admit_connection(2).expect_err("at the limit");
        assert_eq!(at_limit.retry_after_ms, 50, "no overshoot: base interval");
        let over = limits.admit_connection(5).expect_err("past the limit");
        assert_eq!(over.retry_after_ms, 200, "3 over the limit: 4 base intervals");
    }

    #[test]
    fn queue_full_maps_to_query_queue_reason() {
        let limits = AdmissionLimits { retry_after_ms: 25, ..Default::default() };
        let info = limits.queue_full(QueueFull { pending: 17, limit: 16 });
        assert_eq!(info.reason, OverloadReason::QueryQueue);
        // Two whole multiples of the cap pending (ceil 17/16) → two base
        // intervals.
        assert_eq!((info.measured, info.limit, info.retry_after_ms), (17, 16, 50));
    }
}
