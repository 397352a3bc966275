//! # scd-check — exhaustive small-config model checking
//!
//! Where the rest of the workspace *simulates* the DASH-style coherence
//! protocol along one interleaving per seed, this crate *model-checks* it:
//! for machine configurations small enough to enumerate (2–3 processors,
//! a handful of blocks), it explores **every** reachable interleaving of
//! protocol events — and, optionally, every placement of a bounded number
//! of injected faults (NACKs, delays, duplicated requests) — asserting the
//! coherence invariants at each reached state.
//!
//! Built from three pieces:
//!
//! * a [`litmus`] corpus: tiny adversarial workloads (store buffering,
//!   message passing, an invalidation/replacement race, sparse-directory
//!   eviction during a fan-out, a NACK/retry livelock probe, a broadcast
//!   overflow transition), each instantiated across every directory scheme
//!   and organization;
//! * an [`explorer`]: depth-first search over the machine's exploration
//!   API (`scd_machine::machine::explore`) with canonical state-digest
//!   deduplication, a fault budget, random-walk cross-checking, and
//!   iterative-deepening counterexample minimization;
//! * counterexample emission: a violating choice sequence is replayed on a
//!   trace-enabled machine and dumped as standard `scd-trace` JSONL, so
//!   `scd-telemetry validate` and the Perfetto exporter consume it
//!   unchanged.
//!
//! The `scd-check` binary (in the workspace root crate) fronts all of
//! this on the command line; the pieces are libraries so the integration
//! tests in `tests/` gate on them directly.

#![warn(missing_docs)]

pub mod explorer;
pub mod litmus;

pub use explorer::{
    explore, minimize, random_walk, replay_trace, Counterexample, ExploreConfig, Outcome,
    WalkOutcome,
};
pub use litmus::{corpus, scenarios, Litmus, Scenario};
