//! # bench — experiment harness regenerating every table and figure
//!
//! One binary per artifact (see DESIGN.md §3 for the index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig2` | Figure 2a/2b — invalidations vs. sharers per scheme |
//! | `table1` | Table 1 — machine configurations and directory overhead |
//! | `table2` | Table 2 — application characteristics |
//! | `fig3_6` | Figures 3–6 — LocusRoute invalidation distributions |
//! | `fig7_10` | Figures 7–10 — exec time + traffic per scheme per app |
//! | `fig11_12` | Figures 11/12 — sparse directory size-factor sweeps |
//! | `fig13` | Figure 13 — sparse associativity sweep (LU) |
//! | `fig14` | Figure 14 — sparse replacement-policy sweep (LU) |
//! | `ablation_locks` | §7 queue-lock grant-to-region behaviour |
//! | `ablation_pending` | home pending-queue depth (NAK-replacement design) |
//! | `ablation_region` | coarse-vector region-size sensitivity |
//!
//! Each binary prints the paper-style table/chart to stdout and writes CSV
//! under `results/`. Criterion benches in `benches/` time the hot paths.

pub mod runner;
pub mod sweep;

pub use runner::{
    bench_json_name, bench_point_document, run_app, run_app_attributed, run_app_with,
    scheme_suite, slug, sparse_config, sparse_config_with, write_bench_json, write_bench_json_in,
    write_results, SPARSE_CACHE_RATIO,
};
pub use sweep::{
    build_config, generate_app, run_sweep, run_sweep_with, sweep_begin_record, sweep_document,
    sweep_end_record, RunDescriptor, SparseVariant, SweepOutcome, SweepProgress, SweepRun,
    SweepSpec, APP_NAMES, CANONICAL_SPARSE,
};
