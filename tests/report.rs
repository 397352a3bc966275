//! `scd-telemetry report` CLI suite: golden comparison output for canned
//! stats documents, tolerance-boundary behaviour, and the exit-code
//! contract (0 clean, 1 regression, 2 usage).

use scd::trace::{compare_docs, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A canned `scd-run-stats/v1` document, identical in shape to what
/// `scdsim --stats-json` and `BENCH_*.json` carry (the fields the report
/// tracks, at least).
fn canned_doc(cycles: u64, invals: u64) -> String {
    let total = 80 + invals + 10;
    format!(
        r#"{{"schema":"scd-run-stats/v1",
            "run":{{"app":"mp3d","scheme":"Dir4CV4"}},
            "stats":{{"cycles":{cycles},"shared_reads":50,"shared_writes":25,
              "l2_misses":0,
              "traffic":{{"requests":40,"replies":40,"invalidations":{invals},
                "acks":10,"total":{total}}},
              "network":{{"messages":{total},"hops":10,"mean_hops":2.5,
                "contention_cycles":0}}}},
            "metrics":null,"attribution":null}}"#
    )
}

/// Writes `content` as `<name>` in a per-test scratch dir and returns the
/// path.
fn scratch(test: &str, name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-report-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write canned doc");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scd-telemetry"))
        .arg("report")
        .args(args)
        .output()
        .expect("spawn scd-telemetry")
}

#[test]
fn self_comparison_exits_zero() {
    let doc = scratch("self", "base.json", &canned_doc(1000, 10));
    let out = run(&[doc.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("PASS: 4 metrics within 5% of baseline"), "{stdout}");
    assert!(stdout.contains("mp3d/Dir4CV4"), "{stdout}");
}

#[test]
fn doctored_regression_exits_nonzero() {
    let base = scratch("doctored", "base.json", &canned_doc(1000, 10));
    // +20% cycles: well past a 10% tolerance.
    let cand = scratch("doctored", "cand.json", &canned_doc(1200, 10));
    let out = run(&[
        "--baseline",
        base.to_str().unwrap(),
        "--tolerance",
        "10%",
        cand.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("FAIL: 1 of 4 metrics regressed beyond 10%"), "{stdout}");
}

#[test]
fn tolerance_boundary_is_exact_at_the_cli() {
    let base = scratch("boundary", "base.json", &canned_doc(1000, 10));
    let under = scratch("boundary", "under.json", &canned_doc(1049, 10));
    let over = scratch("boundary", "over.json", &canned_doc(1051, 10));
    // +4.9% is within a 5% tolerance...
    let ok = run(&[base.to_str().unwrap(), under.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0));
    // ...and +5.1% is not.
    let bad = run(&[base.to_str().unwrap(), over.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    let stdout = String::from_utf8(bad.stdout).unwrap();
    assert!(stdout.contains("cycles"), "{stdout}");
}

/// Golden output: the CLI's table for two canned documents is exactly the
/// library's `Comparison::render` under a `==` header line, and the
/// regressed row prints with the pinned fixed-width layout.
#[test]
fn comparison_output_is_golden() {
    let base_doc = canned_doc(1000, 10);
    let cand_doc = canned_doc(1100, 10);
    let base = scratch("golden", "base.json", &base_doc);
    let cand = scratch("golden", "cand.json", &cand_doc);
    let out = run(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");

    let expected_table = compare_docs(
        &Json::parse(&base_doc).unwrap(),
        &Json::parse(&cand_doc).unwrap(),
        5.0,
    )
    .unwrap()
    .render();
    let expected = format!(
        "== {} (mp3d/Dir4CV4) vs {} (mp3d/Dir4CV4)\n{}",
        base.display(),
        cand.display(),
        expected_table
    );
    assert_eq!(stdout, expected);
    // Pin the exact layout of a couple of rows so the format cannot
    // drift silently.
    assert!(
        stdout.contains(
            "cycles                       1000           1100    +10.00%  REGRESSED"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "mean_hops                  2.5000         2.5000     +0.00%  ok"
        ),
        "{stdout}"
    );
}

/// `out` is a refusal: exit 2, the reason on one stderr line and on the
/// next the subcommand's `--help`.
#[track_caller]
fn refused(out: &Output, case: &str) {
    assert_eq!(out.status.code(), Some(2), "{case}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{case}: {stderr}");
    assert_eq!(lines[1], "run `scd-telemetry report --help` for the options", "{case}");
}

#[test]
fn usage_and_parse_errors_exit_two() {
    refused(&run(&[]), "no files");
    refused(&run(&["--bogus"]), "unknown flag");
    let retired = run(&["--throughput-tolerance", "15%", "BENCH_lu_dir4cv4.json"]);
    refused(&retired, "host throughput lives in benchmark/");
    assert!(String::from_utf8_lossy(&retired.stderr).contains("unknown flag --throughput-tolerance"));
    refused(&run(&["/nonexistent/scd-report-base.json"]), "unreadable file");
    let garbage = scratch("usage", "garbage.json", "not json at all");
    refused(&run(&[garbage.to_str().unwrap()]), "unparseable file");
    let foreign = scratch("usage", "foreign.json", r#"{"schema":"other/v1"}"#);
    refused(&run(&[foreign.to_str().unwrap()]), "wrong schema");
}

/// `scd-telemetry report` accepts real machine output end-to-end: a live
/// run's stats document compares cleanly against itself.
#[test]
fn accepts_real_stats_documents() {
    use scd::machine::{Machine, MachineConfig};
    use scd::tango::{Op, Script};
    let cfg = MachineConfig::tiny(4);
    let programs: Vec<Script> = (0..cfg.processors())
        .map(|p| {
            Script::from(vec![
                Op::Read(p as u64 * 16),
                Op::Write((p as u64 % 2) * 64),
            ])
        })
        .collect();
    let mut machine = Machine::new(cfg, programs);
    let stats = machine.try_run().expect("run must quiesce");
    let doc = stats.to_json_document(None, None, None, None, None).to_string();
    let path = scratch("real", "live.json", &doc);
    let out = run(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
}
