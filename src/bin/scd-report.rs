//! Cross-run regression reporter over `scd-run-stats/v1` documents.
//!
//! Loads a baseline stats document (`scdsim --stats-json`, `BENCH_*.json`)
//! and one or more candidates, prints a comparison table of the tracked
//! metrics (execution cycles, traffic per shared reference, invalidations
//! per write, mean hops, and — when both documents carry a metrics
//! section — read/write latency percentiles), and exits non-zero when any
//! metric regresses beyond the tolerance. All tracked metrics are
//! lower-is-better, so this is the CI perf gate: commit `BENCH_*.json`
//! baselines, regenerate a point, and let the exit code decide.
//!
//! ```text
//! scd-report [--baseline <file>] [--tolerance <pct>[%]] <file>...
//! ```
//!
//! Without `--baseline`, the first file is the baseline and the rest are
//! candidates; a single file self-compares (always a pass — useful as a
//! schema smoke test). Exit codes: 0 all candidates within tolerance,
//! 1 at least one regression, 2 usage or parse error.

use scd::trace::{compare_docs, doc_label, Json};
use std::process::exit;

const HELP: &str = "\
scd-report: compare scd-run-stats/v1 documents and flag regressions

usage: scd-report [--baseline <file>] [--tolerance <pct>[%]] <file>...

  --baseline <file>   stats document to compare against (default: the
                      first positional file)
  --tolerance <pct>   allowed worsening per metric, in percent
                      (default 5; `10` and `10%` both accepted)
  <file>...           candidate documents (scdsim --stats-json output or
                      BENCH_*.json bench points)
  -h, --help          show this help

Every tracked metric is lower-is-better. Exit code 0 when every candidate
stays within tolerance of the baseline, 1 on any regression, 2 on usage
or parse errors.
";

fn usage_err(msg: &str) -> ! {
    eprintln!("scd-report: {msg}\n{HELP}");
    exit(2);
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("scd-report: cannot read {path}: {e}");
            exit(2);
        }
    };
    match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("scd-report: {path}: not a JSON document: {e}");
            exit(2);
        }
    }
}

fn parse_pct(flag: &str, raw: Option<String>) -> f64 {
    let Some(raw) = raw else {
        usage_err(&format!("{flag} needs a percentage argument"));
    };
    match raw.trim_end_matches('%').parse::<f64>() {
        Ok(pct) if pct >= 0.0 && pct.is_finite() => pct,
        _ => usage_err(&format!("invalid tolerance `{raw}`")),
    }
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut tolerance = 5.0f64;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                return;
            }
            "--baseline" => match args.next() {
                Some(path) => baseline = Some(path),
                None => usage_err("--baseline needs a file argument"),
            },
            "--tolerance" => tolerance = parse_pct("--tolerance", args.next()),
            path if !path.starts_with('-') => files.push(path.to_string()),
            other => usage_err(&format!("unknown flag {other}")),
        }
    }

    let (base_path, candidates) = match (baseline, files.as_slice()) {
        (Some(base), []) => (base.clone(), vec![base]), // self-comparison
        (Some(base), rest) => (base, rest.to_vec()),
        (None, [only]) => (only.clone(), vec![only.clone()]), // self-comparison
        (None, [first, rest @ ..]) => (first.clone(), rest.to_vec()),
        (None, []) => usage_err("no files given"),
    };

    let base = load(&base_path);
    let mut regressions = 0usize;
    for (i, path) in candidates.iter().enumerate() {
        let cand = load(path);
        if i > 0 {
            println!();
        }
        let cmp = match compare_docs(&base, &cand, tolerance) {
            Ok(cmp) => cmp,
            Err(e) => {
                eprintln!("scd-report: {base_path} vs {path}: {e}");
                exit(2);
            }
        };
        println!(
            "== {} ({}) vs {} ({})",
            base_path,
            doc_label(&base),
            path,
            doc_label(&cand)
        );
        print!("{}", cmp.render());
        regressions += cmp.regressions().count();
    }
    if regressions > 0 {
        exit(1);
    }
}
