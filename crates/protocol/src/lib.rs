//! # scd-protocol — the DASH-style directory coherence protocol
//!
//! Building blocks of the inter-cluster protocol described in §2 of the
//! paper:
//!
//! * [`msg`] — the protocol message vocabulary and its mapping onto the
//!   paper's four traffic classes (request / reply / invalidation /
//!   acknowledgement);
//! * [`arena`] — the generational slab arena in-flight messages are parked
//!   in while they traverse the simulated network (8-byte [`MsgRef`]
//!   handles in the event queue instead of whole messages, with
//!   use-after-free detection via slot generations);
//! * [`rac`] — the Remote Access Cache: per-cluster bookkeeping of
//!   outstanding requests (MSHRs) and expected invalidation
//!   acknowledgements, including the replacement acknowledgements a sparse
//!   directory generates (§7);
//! * [`serializer`] — per-block transaction serialization at the home
//!   cluster: while a forwarded transaction or sparse replacement is in
//!   flight, later requests for the block queue (in place of DASH's
//!   NAK-and-retry; same message counts on the common paths);
//! * [`sync`] — each cluster's lock and barrier tables: directory-based
//!   queue locks (with the §7 coarse-vector grant-to-region behaviour)
//!   and centralized barriers, requester and home halves together.
//!
//! The flows themselves (who sends what when) are driven by `scd-machine`,
//! which owns the event loop, caches and network; this crate keeps every
//! state machine that can be tested in isolation.

#![warn(missing_docs)]

pub mod arena;
pub mod msg;
pub mod rac;
pub mod serializer;
pub mod sync;

pub use arena::{MsgArena, MsgRef};
pub use msg::{message, KindInfo, Msg, MsgKind, MESSAGES};
pub use rac::{Mshr, MshrKind, Rac, Waiters};
pub use serializer::{BusyReason, EarlyKind, HomeSerializer, QueuedReq};
pub use sync::{LocalRelease, LockOutcome, SyncTables, UnlockOutcome};
