//! # scd-stats — measurement and reporting
//!
//! Counters, histograms, and plain-text rendering shared by the simulator
//! and the experiment harness. The paper reports three kinds of artifact:
//!
//! * **message traffic** broken down by class (requests incl. writebacks,
//!   replies, invalidations + acknowledgements) — [`traffic::Traffic`];
//! * **invalidation distributions** (Figures 3–6) — [`histogram::Histogram`];
//! * **normalized bar charts and tables** (Table 1/2, Figures 7–14) —
//!   [`table`].

#![warn(missing_docs)]

pub mod histogram;
pub mod table;
pub mod traffic;

pub use histogram::Histogram;
pub use table::{render_table, Align};
pub use traffic::{AttribClass, MessageClass, Traffic};
