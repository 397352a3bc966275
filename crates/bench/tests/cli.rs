//! `repro`'s command line, driven through `CARGO_BIN_EXE_repro`: a value
//! that does not parse is named, not reported missing; every refusal is
//! two stderr lines and exit 2; `--help` is the artifact list on stdout.

use std::process::{Command, Output};

/// Runs `repro` in an empty directory, which has no `results/`.
fn repro(args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("scd-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = Command::new(env!("CARGO_BIN_EXE_repro")).current_dir(&dir).args(args).output();
    run.expect("spawn repro")
}

/// `args` are refused in two stderr lines, the first saying `reason`.
#[track_caller]
fn refused(args: &[&str], reason: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines, [&format!("repro: {reason}")[..], "run `repro --help` for the options"]);
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn a_scale_that_does_not_parse_is_named() {
    refused(&["--scale", "abc"], "bad --scale `abc` (want 0 < f <= 1)");
}

#[test]
fn a_scale_out_of_range_is_refused_as_parse_scale_refuses_it() {
    let reason = bench::parse_scale("7").unwrap_err();
    refused(&["fig2", "--scale", "7"], &reason);
}

#[test]
fn an_unknown_artifact_is_refused_in_two_lines() {
    refused(&["fig99"], "unknown artifact or flag `fig99`");
}

/// Without `results/` there is nothing to compare with: refused before
/// any simulation, not reported as every file differing.
#[test]
fn check_without_results_is_refused_before_regenerating() {
    let reason = "results/ not found in the working directory (--check compares with it)";
    refused(&["--check", "table1"], reason);
}

#[test]
fn help_is_the_artifact_list_on_stdout() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 help");
    assert!(stdout.starts_with("usage: repro [artifact...]"), "{stdout}");
    for artifact in &bench::repro::ARTIFACTS {
        let row = format!("  {:<20} {}\n", artifact.name, artifact.about);
        assert!(stdout.contains(&row), "{stdout}");
    }
}
