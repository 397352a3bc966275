//! Drives the built benchmark end to end at smoke size: every workload,
//! one small pass, untraced and traced. No timing assertions; what is
//! checked is that outputs are correct and that the metrics printed are
//! exactly the ones `BENCHMARK.json` promises.

use std::path::Path;
use std::process::Command;

use scd_trace::Json;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate sits in the repository")
}

fn manifest_names(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload and returns its result line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_scd-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(root())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.trim_end().lines().last().expect("a result line"))
        .expect("result line parses")
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_promised_metrics() {
    for workload in manifest_names("workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(&workload, trace);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {line}"
            );
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            assert!(line
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            let metrics = line.get("metrics").expect("metrics");
            let printed: Vec<String> = metrics
                .field_map()
                .expect("metrics is an object")
                .keys()
                .map(|k| k.to_string())
                .collect();
            let mut promised = manifest_names(key);
            promised.sort();
            assert_eq!(printed, promised, "{workload} --trace {trace}");
            if trace == "0" {
                for name in &printed {
                    let v = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{workload} {name} = {v:?}, must never be 0"
                    );
                }
            }
        }
        let spans = root().join(format!("benchmark/out/spans-{workload}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        let first = Json::parse(text.lines().next().expect("a span")).expect("span line parses");
        for key in [
            "id", "parent", "name", "label", "start_ns", "end_ns", "self_ns",
        ] {
            assert!(
                first.get(key).is_some(),
                "{}: span lacks `{key}`",
                spans.display()
            );
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_scd-benchmark"))
        .args(["--workload", "wide_256c"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
}
