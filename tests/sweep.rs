//! `scd-sweep` CLI suite: byte-identical output across `--jobs`, the
//! `scd-sweep/v1` document shape, `--bench-out` file
//! emission, the usage-error contract, and the committed `BENCH_*.json`
//! trajectory regenerated byte for byte.

use scd::trace::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-sweep-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scd-sweep"))
        .args(args)
        .output()
        .expect("spawn scd-sweep")
}

/// A scaled-down grid that still covers both axes of interest (two apps,
/// a sparse and a full point) without taking seconds per run.
const GRID: &[&str] = &[
    "--apps",
    "lu,mp3d",
    "--schemes",
    "cv:4:4,nb:3",
    "--sparse",
    "full,2:4:rand",
    "--seeds",
    "0xD45B",
    "--scale",
    "0.02",
    "--clusters",
    "8",
];

/// The tentpole promise: `--jobs 1` and `--jobs 4` produce byte-identical
/// documents once the (inherently wall-clock) timing section is omitted.
#[test]
fn jobs_1_and_jobs_4_are_byte_identical() {
    let dir = scratch("determinism");
    let docs = [["--jobs", "1"], ["--jobs", "4"]].map(|threads| {
        let path = dir.join(format!("{}{}.json", &threads[0][2..], threads[1]));
        let out_args = ["--no-timing", "--out", path.to_str().unwrap()];
        let out = run(&[GRID, &threads, &out_args].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).expect("read the sweep document")
    });
    assert!(!docs[0].is_empty());
    assert!(docs[0] == docs[1], "--jobs 1 and --jobs 4 documents differ");
}

/// Document shape: schema tag, grid echo, one `scd-run-stats/v1` run per
/// grid point in canonical order, and a timing section (by default) whose
/// per-run list matches the grid.
#[test]
fn sweep_document_shape_and_order() {
    let out = run(&[GRID, &["--jobs", "2"]].concat());
    assert_eq!(out.status.code(), Some(0));
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("parse sweep doc");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("scd-sweep/v1"));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 8, "2 apps x 2 schemes x 2 sparse x 1 seed");
    let ids: Vec<&str> = runs
        .iter()
        .map(|r| r.get("run").unwrap().get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        ids,
        [
            "lu/dir4cv4/s54363",
            "lu/dir4cv4_sparse/s54363",
            "lu/dir3nb/s54363",
            "lu/dir3nb_sparse/s54363",
            "mp3d/dir4cv4/s54363",
            "mp3d/dir4cv4_sparse/s54363",
            "mp3d/dir3nb/s54363",
            "mp3d/dir3nb_sparse/s54363",
        ],
        "descriptor order is apps > schemes > sparse > seeds"
    );
    for r in runs {
        assert_eq!(
            r.get("schema").and_then(Json::as_str),
            Some("scd-run-stats/v1"),
            "each run is a full stats document"
        );
        assert!(r.get("stats").unwrap().get("cycles").unwrap().as_u64().unwrap() > 0);
    }
    let timing = doc.get("timing").expect("timing present by default");
    assert_eq!(timing.get("jobs").and_then(Json::as_u64), Some(2));
    assert_eq!(
        timing.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(8)
    );
    assert!(timing.get("wall_seconds").and_then(Json::as_f64).is_some());
    assert!(timing.get("serial_seconds").and_then(Json::as_f64).is_some());
    assert!(timing.get("speedup").and_then(Json::as_f64).is_some());
}

/// `--bench-out` writes the same per-point files the trajectory baselines
/// use, named by the slug rules.
#[test]
fn bench_out_writes_named_points() {
    let dir = scratch("bench-out");
    let bench_dir = dir.join("points");
    let out = run(
        &[
            GRID,
            &[
                "--jobs",
                "2",
                "--no-timing",
                "--bench-out",
                bench_dir.to_str().unwrap(),
                "--out",
                dir.join("sweep.json").to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in [
        "BENCH_lu_dir4cv4.json",
        "BENCH_lu_dir4cv4_sparse.json",
        "BENCH_mp3d_dir3nb.json",
        "BENCH_mp3d_dir3nb_sparse.json",
    ] {
        let path = bench_dir.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing bench point {}: {e}", path.display()));
        let doc = Json::parse(&text).expect("bench point parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("scd-run-stats/v1")
        );
    }
}

#[test]
fn usage_errors_exit_two() {
    for (case, args) in [
        ("unknown flag", vec!["--bogus"]),
        ("sharding is gone", vec!["--shards", "2"]),
        ("unknown app", vec!["--apps", "quicksort"]),
        ("bad scheme", vec!["--schemes", "cv:4"]),
        ("bad sparse", vec!["--sparse", "2:4:fifo"]),
        ("bad jobs", vec!["--jobs", "0"]),
        ("bad scale", vec!["--scale", "7"]),
        ("bad geometry", vec!["--schemes", "b:0"]),
        ("empty apps", vec!["--apps", ","]),
        (
            "too few mp3d particles",
            vec!["--apps", "mp3d", "--clusters", "1024", "--scale", "0.1", "--schemes", "full"],
        ),
        (
            "empty grid",
            vec!["--protocol", "tardis,dls", "--sparse", "2:4:rand", "--apps", "lu", "--scale", "0.02"],
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{case}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{case}: {stderr}");
        assert_eq!(lines[1], "run `scd-sweep --help` for the options", "{case}");
    }
}

/// Golden gate for the committed perf-trajectory baselines: regenerate
/// the eight scale-0.25 points **in-process** (same spec the
/// `BENCH_*.json` files were produced with) and require the rendered
/// documents to be byte-identical to the files in the repository root
/// (and, being stats documents, to pass the `scd-run-stats/v1` validator).
///
/// This is the determinism contract at its sharpest: the timing-wheel
/// event queue, the message arena, and the NodeSet fanout paths must
/// reproduce the exact delivery order — and therefore the exact stats —
/// of every committed baseline, byte for byte.
#[test]
fn trajectory_points_regenerate_byte_identically() {
    use bench::{bench_json_name, bench_point_document, run_sweep, SweepSpec};

    let outcome = run_sweep(&SweepSpec::trajectory(0.25), 2);
    assert_eq!(outcome.runs.len(), 8, "4 apps x full+sparse");

    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for run in &outcome.runs {
        let app = &outcome.apps[run.desc.app_idx];
        let doc =
            bench_point_document(app, &run.desc.scheme_label, &run.stats, run.attribution.clone());
        let fresh = format!("{doc}\n");
        scd::trace::validate_stats_json(&fresh).unwrap_or_else(|e| panic!("{e}"));
        let name = bench_json_name(app.name, &run.desc.scheme_label);
        let committed = std::fs::read_to_string(repo.join(&name))
            .unwrap_or_else(|e| panic!("missing committed baseline {name}: {e}"));
        assert_eq!(
            fresh, committed,
            "{name}: regenerated point is not byte-identical to the committed baseline \
             (if the change is intentional, regenerate with \
             `scd-sweep --trajectory --scale 0.25 --bench-out .`)"
        );
    }
}
