//! Quick end-to-end calibration: run every app on every scheme at a given
//! scale and print wall time, simulated cycles and traffic. Used to tune
//! problem sizes before the real experiments.
//!
//! `smoke <scale> trajectory [jobs]` runs the perf-trajectory suite
//! instead: every app under `Dir4CV4`, full directory and sparse (size
//! factor 2, 4-way), writing `BENCH_<app>_dir4cv4[_sparse].json` bench
//! points with traffic-attribution sections. These are the baselines
//! `scd-report` compares against across PRs. The trajectory grid runs on
//! the parallel sweep engine (`bench::sweep`) — `jobs` defaults to all
//! hardware threads, and the results are byte-identical whatever the
//! thread count.

use bench::{run_app_attributed, scheme_suite, write_bench_json, SweepSpec};
use scd_apps::suite;

fn trajectory(scale: f64, jobs: usize) {
    let spec = SweepSpec::trajectory(scale);
    let outcome = bench::run_sweep(&spec, jobs);
    for run in &outcome.runs {
        let app = &outcome.apps[run.desc.app_idx];
        println!(
            "  {:<36} cycles={:>9} wall={:>6.2}s  {}  inval_events={} avg_inv={:.2}",
            run.desc.id,
            run.stats.cycles,
            run.wall_seconds,
            run.stats.traffic,
            run.stats.invalidations.events(),
            run.stats.invalidations.mean(),
        );
        write_bench_json(app, &run.desc.scheme_label, &run.stats, run.attribution.clone());
    }
    println!(
        "[trajectory: {} points in {:.2}s wall on {} jobs ({:.2}s serial-equivalent)]",
        outcome.runs.len(),
        outcome.wall_seconds,
        outcome.jobs,
        outcome.serial_seconds(),
    );
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    if std::env::args().nth(2).is_some_and(|s| s == "trajectory") {
        let jobs = std::env::args()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, usize::from)
            });
        trajectory(scale, jobs);
        return;
    }
    let apps = suite(32, 0xD45B, scale);
    for app in &apps {
        println!(
            "== {} | ops={} refs={} reads={} writes={} sync={} shared={}KB",
            app.name,
            app.total_ops(),
            app.shared_refs(),
            app.reads(),
            app.writes(),
            app.sync_ops(),
            app.shared_bytes / 1024,
        );
        for (name, scheme) in scheme_suite() {
            let cfg = scd_machine::MachineConfig::paper_32().with_scheme(scheme);
            let t0 = std::time::Instant::now();
            let (stats, attrib, _) =
                run_app_attributed(app, cfg, 1).expect("one shard accepts any configuration");
            println!(
                "  {name:<14} cycles={:>9} wall={:>6.2}s  {}  inval_events={} avg_inv={:.2}",
                stats.cycles,
                t0.elapsed().as_secs_f64(),
                stats.traffic,
                stats.invalidations.events(),
                stats.invalidations.mean(),
            );
            write_bench_json(app, name, &stats, attrib);
        }
    }
}
