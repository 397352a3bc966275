//! # bench — the reproduction driver and the sweep engine
//!
//! * [`repro`] — the one table of paper artifacts (Figures 2–14, Tables
//!   1–2, the cross-check, the anatomy table and nine ablations) behind
//!   the `repro` binary: `repro [artifact…] [--scale f] [--jobs n]`
//!   prints each artifact's rows and writes them as CSV under `results/`;
//!   `repro --check` regenerates in memory and compares with the
//!   committed files byte for byte. `repro --help` lists the artifacts;
//!   DESIGN.md §3 maps each to the paper.
//! * [`sweep`] — the deterministic parallel grid engine under
//!   `scd-sweep`, whose job pool `repro` shares.
//! * [`runner`] — building §6.3 machines, running one app, and writing
//!   `BENCH_*.json` points.
//! * [`cli`] — the one argument loop and the one refusal of the
//!   workspace's five binaries.
//!
//! `benches/trace_overhead.rs` holds the ceilings on what telemetry may
//! cost once switched on. Host performance is measured by the stand-alone
//! `benchmark/` crate, not here.

pub mod cli;
pub mod repro;
pub mod runner;
pub mod sweep;

pub use runner::{
    bench_json_name, bench_point_document, run_app_attributed, run_app_with, scheme_suite, slug,
    sparse_config, sparse_config_with, write_bench_json_in, SPARSE_CACHE_RATIO,
};
pub use sweep::{
    build_config, generate_app, parse_scale, parse_seed, run_sweep, run_sweep_with,
    sweep_begin_record, sweep_document, sweep_end_record, RunDescriptor, SparseVariant, SweepOutcome, SweepProgress,
    SweepRun, SweepSpec, APP_NAMES, CANONICAL_SPARSE, RUN_SEED,
};
