//! Offline stand-in for `crossbeam 0.8` — see `shims/README.md`.
//!
//! One subset is provided: [`channel`] (an unbounded MPMC queue over
//! `Mutex` + `Condvar`, the `crossbeam-channel` subset the `sd-core`
//! worker pool uses).

#![forbid(unsafe_code)]

pub mod channel;
