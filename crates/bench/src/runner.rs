//! Shared experiment plumbing: building machines, running apps, and
//! writing results.

use scd_apps::AppRun;
use scd_core::Scheme;
use scd_machine::{Machine, MachineConfig, RunStats};
use scd_trace::{Json, TraceConfig};

/// The paper's four evaluated schemes for 32 processors with a ~13%
/// directory-memory budget (§5): full vector plus the three-pointer
/// limited schemes.
pub fn scheme_suite() -> Vec<(&'static str, Scheme)> {
    vec![
        ("Full Vector", Scheme::FullVector),
        ("Coarse Vector", Scheme::dir_cv(3, 2)),
        ("Broadcast", Scheme::dir_b(3)),
        ("Non Broadcast", Scheme::dir_nb(3)),
    ]
}

/// Runs `app` on an explicit machine configuration.
pub fn run_app_with(app: &AppRun, cfg: MachineConfig) -> RunStats {
    assert_eq!(
        app.programs.len(),
        cfg.processors(),
        "application generated for a different machine size"
    );
    Machine::new(cfg, app.scripts()).run()
}

/// Runs `app` with traffic-attribution counters enabled (no event ring,
/// no metrics — just the byte/flit/link accounting), returning the stats
/// together with the `scd-attrib/v1` section for the bench document and
/// the machine's `trace` bookkeeping section (`recorded` /
/// `dropped_events`), which the sweep engine surfaces in each per-run
/// `scd-sweep/v1` document so truncated telemetry is never silent.
///
/// Attribution counters live outside [`RunStats`], so the stats returned
/// here are identical to what [`run_app_with`] produces for the same
/// configuration — bench points gain an attribution section without
/// perturbing any tracked metric.
pub fn run_app_attributed(
    app: &AppRun,
    cfg: MachineConfig,
) -> (RunStats, Option<Json>, Option<Json>) {
    assert_eq!(
        app.programs.len(),
        cfg.processors(),
        "application generated for a different machine size"
    );
    let mut tc = TraceConfig::none();
    tc.attribution = true;
    let mut machine = Machine::new(cfg.with_trace(tc), app.scripts());
    let stats = machine.run();
    let attrib = machine.attribution_json(stats.cycles);
    let trace = machine.trace_json();
    (stats, attrib, trace)
}

/// Ratio of data-set size to total cache size used by the sparse-directory
/// experiments (§6.3 methodology). The paper's full-blown DWF problem has
/// ratio 64; our scaled problems use 8 so per-processor caches stay
/// non-degenerate — what matters is that the data set comfortably exceeds
/// the caches, forcing replacement activity.
pub const SPARSE_CACHE_RATIO: u64 = 8;

/// Builds the §6.3 scaled-cache machine for `app`: caches sized to
/// `data set / SPARSE_CACHE_RATIO`, and (for `size_factor > 0`) a sparse
/// directory with `size_factor x` the total cache blocks, `ways`-way
/// associative, using `policy`. `size_factor == 0` means non-sparse.
pub fn sparse_config(
    app: &AppRun,
    scheme: Scheme,
    size_factor: usize,
    ways: usize,
    policy: scd_core::Replacement,
) -> MachineConfig {
    sparse_config_with(
        MachineConfig::paper_32().with_scheme(scheme),
        app,
        size_factor,
        ways,
        policy,
    )
}

/// [`sparse_config`] on an explicit base machine (scheme already set):
/// scales the caches to the §6.3 ratio and, for `size_factor > 0`, attaches
/// the sparse directory. Used by the sweep engine, whose grids may override
/// cluster counts.
pub fn sparse_config_with(
    mut cfg: MachineConfig,
    app: &AppRun,
    size_factor: usize,
    ways: usize,
    policy: scd_core::Replacement,
) -> MachineConfig {
    let dataset_blocks = app.shared_bytes / cfg.block_bytes;
    // At least 8 blocks per *processor*: with one processor per cluster
    // (the paper's runs) this equals the old `clusters * 8` floor, but on
    // DASH-shaped machines (4 processors per cluster) the cluster-based
    // floor under-sized the caches by 4x.
    let total_cache = ((dataset_blocks / SPARSE_CACHE_RATIO) as usize)
        .max(cfg.processors() * 8);
    cfg = cfg.with_scaled_caches(total_cache);
    if size_factor > 0 {
        let per_home = (cfg.total_cache_blocks() * size_factor)
            .div_ceil(cfg.clusters)
            .div_ceil(ways)
            * ways;
        cfg = cfg.with_sparse(per_home.max(ways), ways, policy);
    }
    cfg
}

/// Lower-cases `s` and collapses every non-alphanumeric run to a single
/// `_`, producing the file-system-safe slugs used in `BENCH_*.json` names
/// and sweep run identifiers. Leading/trailing punctuation is dropped
/// entirely (no leading or trailing `_`), and an all-punctuation or empty
/// input slugs to the empty string.
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut gap = false;
    for ch in s.chars() {
        if ch.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(ch.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// The `BENCH_<app>_<scheme>.json` file name for one benchmark data point.
pub fn bench_json_name(app_name: &str, scheme_name: &str) -> String {
    format!("BENCH_{}_{}.json", slug(app_name), slug(scheme_name))
}

/// Writes one perf-trajectory data point as `BENCH_<app>_<scheme>.json`
/// into `dir` (created if missing), using the `scd-run-stats/v1` schema
/// (the same document `scdsim --stats-json` emits). Successive PRs compare
/// these files (`scd-telemetry report` does it) to track simulator behaviour
/// over time. `attribution` is the optional `scd-attrib/v1` section from
/// [`run_app_attributed`]. `scd-sweep --bench-out` lands its per-run
/// points this way.
pub fn write_bench_json_in(
    dir: &std::path::Path,
    app: &AppRun,
    scheme_name: &str,
    stats: &RunStats,
    attribution: Option<Json>,
) {
    let doc = bench_point_document(app, scheme_name, stats, attribution);
    std::fs::create_dir_all(dir).expect("create bench output dir");
    let path = dir.join(bench_json_name(app.name, scheme_name));
    std::fs::write(&path, format!("{doc}\n")).expect("write bench json");
    println!("[bench point written to {}]", path.display());
}

/// The `scd-run-stats/v1` document for one bench point, with the standard
/// `run` meta section (app, scheme, shared refs/bytes).
pub fn bench_point_document(
    app: &AppRun,
    scheme_name: &str,
    stats: &RunStats,
    attribution: Option<Json>,
) -> Json {
    let run = Json::obj()
        .with("app", Json::Str(app.name.into()))
        .with("scheme", Json::Str(scheme_name.into()))
        .with("shared_refs", Json::U64(app.shared_refs()))
        .with("shared_bytes", Json::U64(app.shared_bytes));
    stats.to_json_document(Some(run), None, attribution, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_apps::{synth, SharingPattern, SynthParams};

    #[test]
    fn slug_lowercases_and_collapses_separators() {
        assert_eq!(slug("Dir4CV4 Sparse"), "dir4cv4_sparse");
        assert_eq!(slug("Full Vector"), "full_vector");
        assert_eq!(slug("a - b -- c"), "a_b_c", "separator runs collapse to one _");
    }

    #[test]
    fn slug_drops_leading_and_trailing_punctuation() {
        assert_eq!(slug("--LU--"), "lu");
        assert_eq!(slug("!x"), "x", "no leading underscore");
        assert_eq!(slug("x!"), "x", "no trailing underscore");
        assert_eq!(slug(" (Dir3 NB) "), "dir3_nb");
    }

    #[test]
    fn slug_degenerate_inputs() {
        assert_eq!(slug(""), "");
        assert_eq!(slug("---"), "", "all-punctuation slugs to empty");
        assert_eq!(slug("7"), "7");
    }

    #[test]
    fn bench_json_name_edge_cases() {
        assert_eq!(
            bench_json_name("MP3D", "Dir4CV4 Sparse"),
            "BENCH_mp3d_dir4cv4_sparse.json"
        );
        // An empty scheme name degrades to a trailing underscore before the
        // extension — ugly but stable and collision-free per app.
        assert_eq!(bench_json_name("lu", ""), "BENCH_lu_.json");
        assert_eq!(bench_json_name("l u", "--"), "BENCH_l_u_.json");
    }

    /// §6.3's floor is per *processor*; with several processors per cluster
    /// the old `clusters * 8` floor under-sized the scaled caches.
    #[test]
    fn sparse_config_floor_counts_processors_not_clusters() {
        // A tiny data set so the floor (not the data-set ratio) decides.
        let app = synth(
            &SynthParams {
                pattern: SharingPattern::Migratory,
                blocks: 8,
                rounds: 2,
            },
            8,
            1,
        );
        let mut base = MachineConfig::paper_32().with_scheme(Scheme::FullVector);
        base.clusters = 2;
        base.procs_per_cluster = 4;
        let cfg = sparse_config_with(base, &app, 0, 4, scd_core::Replacement::Random);
        assert_eq!(cfg.processors(), 8);
        assert!(
            cfg.total_cache_blocks() >= cfg.processors() * 8,
            "total cache {} below 8 blocks/processor",
            cfg.total_cache_blocks()
        );
    }

    /// With one processor per cluster (every committed baseline) the
    /// floor change is a no-op: `clusters * 8 == processors() * 8`, so the
    /// `BENCH_*_sparse.json` baselines are untouched by the fix.
    #[test]
    fn sparse_config_unchanged_for_one_proc_per_cluster() {
        let app = synth(
            &SynthParams {
                pattern: SharingPattern::Migratory,
                blocks: 8,
                rounds: 2,
            },
            32,
            1,
        );
        let cfg = sparse_config(&app, Scheme::dir_cv(4, 4), 2, 4, scd_core::Replacement::Random);
        let floor = {
            let base = MachineConfig::paper_32();
            base.clusters * 8
        };
        assert_eq!(cfg.total_cache_blocks(), floor);
    }
}
