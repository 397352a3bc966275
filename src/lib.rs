//! # scd — scalable directory-based cache coherence
//!
//! A from-scratch Rust reproduction of Gupta, Weber & Mowry, *"Reducing
//! Memory and Traffic Requirements for Scalable Directory-Based Cache
//! Coherence Schemes"* (ICPP 1990): the **coarse vector** directory scheme
//! and **sparse directories**, evaluated on an event-driven simulator of
//! the Stanford DASH multiprocessor driven by re-implementations of the
//! paper's four benchmark applications.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `scd-core` | directory schemes, sparse organization, overhead model, Figure-2 analysis |
//! | [`sim`] | `scd-sim` | deterministic event queue and RNG |
//! | [`mem`] | `scd-mem` | set-associative caches, L1/L2 hierarchy, cluster snoop group |
//! | [`noc`] | `scd-noc` | 2D mesh interconnect and latency models |
//! | [`protocol`] | `scd-protocol` | DASH protocol messages, RAC, home serialization, queue locks |
//! | [`machine`] | `scd-machine` | the assembled machine and run loop |
//! | [`tango`] | `scd-tango` | `Op` streams, the `Script` cursor, trace capture/replay |
//! | [`apps`] | `scd-apps` | LU, DWF, MP3D, LocusRoute workload generators |
//! | [`stats`] | `scd-stats` | traffic counters, histograms, table rendering |
//! | [`trace`] | `scd-trace` | transaction tracing, metrics registry, JSON telemetry |
//! | [`check`] | `scd-check` | exhaustive small-config model checker and litmus corpus |
//!
//! ## Quickstart
//!
//! ```
//! use scd::apps::{lu, LuParams};
//! use scd::machine::{Machine, MachineConfig};
//! use scd::core::Scheme;
//!
//! // A small LU factorization on an 8-cluster machine with Dir3CV2.
//! let app = lu(&LuParams { n: 16, update_cost: 2 }, 8, 1);
//! let mut cfg = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(3, 2));
//! cfg.clusters = 8;
//! let stats = Machine::new(cfg, app.scripts()).run();
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.shared_refs(), app.shared_refs());
//! ```

pub use scd_apps as apps;
pub use scd_check as check;
pub use scd_core as core;
pub use scd_machine as machine;
pub use scd_mem as mem;
pub use scd_noc as noc;
pub use scd_protocol as protocol;
pub use scd_sim as sim;
pub use scd_stats as stats;
pub use scd_tango as tango;
pub use scd_trace as trace;
