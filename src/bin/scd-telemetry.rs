//! scd-telemetry — the offline tools over the telemetry formats, as
//! subcommands of one binary:
//!
//! ```text
//! scd-telemetry validate [--trace <f>]... [--stats <f>]... [--patterns <f>]...
//!                        [--perfetto <f>]... [--stream <f>]...
//!                        [--extract-trace <f>] [<f>]...
//! scd-telemetry patterns <trace.jsonl> [--out <f>] [--compare <f>] [--json]
//! scd-telemetry report   [--baseline <f>] [--tolerance <pct>[%]] <f>...
//! ```
//!
//! `validate` checks trace logs (`scdsim --trace-out`) against the
//! per-transaction lifecycle invariants, stats dumps (`--stats-json`,
//! `BENCH_*.json`) against `scd-run-stats/v1`, pattern documents against
//! `scd-patterns/v1`, Perfetto exports against the chrome `trace_event`
//! format and live streams (`--stream-out`) against the record grammar;
//! `--extract-trace` is a filter, not a check: it prints a stream's
//! trace-event lines verbatim, byte-comparable with the `--trace-out`
//! file of the same run. `patterns` replays a recorded trace through the
//! [`scd::trace::PatternTable`] classifier — a pure function of the event
//! stream, so the replay's classifier and invalidation sections equal the
//! online `scdsim --patterns-out` document's byte for byte, which
//! `--compare` checks. `report` compares `scd-run-stats/v1` documents
//! metric by metric (all lower-is-better) against a baseline.
//!
//! Exit codes, every subcommand: 0 = ok, 1 = a file failed validation,
//! a comparison mismatched or a metric regressed, 2 = usage error or an
//! unreadable / unparseable input.

use scd::stats::table::{render_bars, render_table, Align};
use scd::trace::{
    compare_docs, doc_label, extract_trace_lines, validate_patterns_json, validate_perfetto,
    validate_stats_json, validate_stream, validate_trace, Json, PatternTable,
};
use std::process::exit;

const HELP: &str = "\
scd-telemetry: offline tools over scd telemetry files

usage: scd-telemetry <validate|patterns|report> [options]   (each takes --help)

  validate   check trace, stats, patterns, Perfetto and stream files
             against their schemas
  patterns   classify sharing patterns from a recorded trace
  report     compare scd-run-stats/v1 documents and flag regressions

Exit codes: 0 ok; 1 validation failure, mismatch or regression;
2 usage error or unreadable input.
";

const VALIDATE_HELP: &str = "\
scd-telemetry validate: check scd telemetry files against their schemas

usage: scd-telemetry validate [--trace <file>]... [--stats <file>]...
                              [--patterns <file>]... [--perfetto <file>]...
                              [--stream <file>]... [--extract-trace <file>]
                              [<file>]...

  --trace <file>         validate a JSONL transaction trace
                         (scdsim --trace-out)
  --stats <file>         validate an scd-run-stats/v1 document
                         (scdsim --stats-json, BENCH_*.json)
  --patterns <file>      validate an scd-patterns/v1 document
                         (scdsim --patterns-out, scd-telemetry patterns
                         --out): class counts sum to tracked blocks, the
                         invalidation distribution sums to its counters,
                         occupancy invariants hold
  --perfetto <file>      validate a chrome trace_event export
                         (scdsim --perfetto-out)
  --stream <file>        validate a live telemetry stream
                         (scdsim --stream-out, scd-sweep --stream-out):
                         record shapes, event/interval ordering, interval
                         tiling, sweep progress monotonicity, closing
                         run_end/sweep_end
  --extract-trace <file> print the stream's trace-event lines verbatim to
                         stdout (byte-comparable with --trace-out output)
  <file>                 auto-detect: .jsonl -> trace, otherwise stats
  -h, --help             show this help
";

const PATTERNS_HELP: &str = "\
scd-telemetry patterns: classify sharing patterns from a recorded trace

usage: scd-telemetry patterns <trace.jsonl> [--out <file>] [--compare <file>]
                              [--json]

  <trace.jsonl>    transaction trace recorded with scdsim --trace-out
                   (the trace must have been recorded with --patterns-out
                   also active, so it carries inval events)
  --out <file>     write the scd-patterns/v1 document (occupancy is null:
                   a replay cannot see live directory state)
  --compare <file> parse an online document (scdsim --patterns-out) and
                   check its classifier + invalidation sections are
                   byte-identical to this replay's; exits 1 on mismatch
  --json           print the document to stdout instead of the report
  -h, --help       show this help
";

const REPORT_HELP: &str = "\
scd-telemetry report: compare scd-run-stats/v1 documents and flag regressions

usage: scd-telemetry report [--baseline <file>] [--tolerance <pct>[%]]
                            <file>...

  --baseline <file>   stats document to compare against (default: the
                      first positional file)
  --tolerance <pct>   allowed worsening per metric, in percent
                      (default 5; `10` and `10%` both accepted)
  <file>...           candidate documents (scdsim --stats-json output or
                      BENCH_*.json bench points)
  -h, --help          show this help

Every tracked metric is lower-is-better. Without --baseline the first file
is the baseline; a single file self-compares (always a pass). Exit code 0
when every candidate stays within tolerance of the baseline, 1 on any
regression, 2 on usage or parse errors.
";

type Args = std::iter::Skip<std::env::Args>;

fn usage_err(help: &str, msg: &str) -> ! {
    eprintln!("scd-telemetry: {msg}\n{help}");
    exit(2);
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("scd-telemetry: {msg}");
    exit(code);
}

/// The value of `flag`, or a usage error.
fn value(args: &mut Args, help: &str, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_err(help, &format!("{flag} needs an argument")))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(2, &format!("cannot read {path}: {e}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("validate") => validate(args),
        Some("patterns") => patterns(args),
        Some("report") => report(args),
        Some("-h" | "--help") => print!("{HELP}"),
        Some(other) => usage_err(HELP, &format!("unknown subcommand {other}")),
        None => usage_err(HELP, "no subcommand given"),
    }
}

/// What one `validate` argument asks of its file.
enum Kind {
    Trace,
    Stats,
    Patterns,
    Perfetto,
    Stream,
    ExtractTrace,
}

fn validate(mut args: Args) {
    let mut jobs: Vec<(Kind, String)> = Vec::new();
    while let Some(arg) = args.next() {
        let kind = match arg.as_str() {
            "-h" | "--help" => return print!("{VALIDATE_HELP}"),
            "--trace" => Kind::Trace,
            "--stats" => Kind::Stats,
            "--patterns" => Kind::Patterns,
            "--perfetto" => Kind::Perfetto,
            "--stream" => Kind::Stream,
            "--extract-trace" => Kind::ExtractTrace,
            path if !path.starts_with('-') => {
                let kind = if path.ends_with(".jsonl") { Kind::Trace } else { Kind::Stats };
                jobs.push((kind, arg));
                continue;
            }
            other => usage_err(VALIDATE_HELP, &format!("unknown flag {other}")),
        };
        let path = value(&mut args, VALIDATE_HELP, &arg);
        jobs.push((kind, path));
    }
    if jobs.is_empty() {
        usage_err(VALIDATE_HELP, "no files given");
    }

    let mut failures = 0usize;
    for (kind, path) in &jobs {
        let text = read(path);
        let verdict = match kind {
            Kind::Trace => validate_trace(&text).map(|s| {
                let mut ok = format!(
                    "{} events, {} transactions ({} completed)",
                    s.events, s.transactions, s.completed
                );
                for (ty, n) in &s.by_type {
                    ok.push_str(&format!("\n    {ty:<14} {n}"));
                }
                ok
            }),
            Kind::Stats => validate_stats_json(&text).map(|()| "scd-run-stats/v1".to_string()),
            Kind::Patterns => validate_patterns_json(&text).map(|()| "scd-patterns/v1".to_string()),
            Kind::Perfetto => validate_perfetto(&text).map(|s| {
                format!(
                    "{} events ({} slices, {} msg ops, {} counters, {} meta)",
                    s.events, s.slices, s.async_ops, s.counters, s.meta
                )
            }),
            Kind::Stream => validate_stream(&text).map(|s| {
                format!(
                    "{} lines ({} events, {} intervals, {} attrib deltas, {} sweep runs{}{})",
                    s.lines,
                    s.events,
                    s.intervals,
                    s.attrib_deltas,
                    s.sweep_runs,
                    if s.run_ended { ", run_end" } else { "" },
                    if s.sweep_ended { ", sweep_end" } else { "" },
                )
            }),
            Kind::ExtractTrace => {
                print!("{}", extract_trace_lines(&text));
                continue;
            }
        };
        match verdict {
            Ok(ok) => println!("{path}: OK — {ok}"),
            Err(e) => {
                eprintln!("{path}: FAIL — {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        fail(1, &format!("{failures} of {} files failed", jobs.len()));
    }
}

/// The three stream-derived sections of a patterns document, as one
/// canonical string — the unit of online-vs-replay comparison.
fn stream_sections(doc: &Json) -> Result<String, String> {
    let mut j = Json::obj();
    for key in ["thresholds", "classifier", "invalidations"] {
        j.set(key, doc.get(key).cloned().ok_or_else(|| format!("missing `{key}`"))?);
    }
    Ok(j.to_string())
}

fn render_patterns(table: &PatternTable) -> String {
    let mut out = String::new();

    let classes: Vec<Vec<String>> = table
        .class_counts()
        .into_iter()
        .map(|(label, count)| {
            let pct = if table.tracked_blocks() == 0 {
                0.0
            } else {
                100.0 * count as f64 / table.tracked_blocks() as f64
            };
            vec![label.to_string(), count.to_string(), format!("{pct:.1}%")]
        })
        .collect();
    out.push_str(&render_table(
        &["class", "blocks", "share"],
        &[Align::Left],
        &classes,
    ));
    out.push_str(&format!(
        "\n{} events observed, {} blocks tracked\n\n",
        table.events(),
        table.tracked_blocks()
    ));

    let dist = table.inval_dist();
    if dist.iter().any(|&n| n > 0) {
        let rows: Vec<(String, f64)> = dist
            .iter()
            .enumerate()
            .map(|(n, &count)| (format!("{n} inv"), count as f64))
            .collect();
        out.push_str(&render_bars(
            &format!(
                "invalidation distribution (mean {:.2} per decision)",
                table.inval_mean()
            ),
            &rows,
            40,
        ));
        out.push('\n');
    } else {
        out.push_str("no invalidation events in trace (recorded without --patterns-out?)\n");
    }
    out
}

fn patterns(mut args: Args) {
    let mut trace_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return print!("{PATTERNS_HELP}"),
            "--out" => out_path = Some(value(&mut args, PATTERNS_HELP, &arg)),
            "--compare" => compare_path = Some(value(&mut args, PATTERNS_HELP, &arg)),
            "--json" => json = true,
            path if !path.starts_with('-') => {
                if trace_path.replace(arg).is_some() {
                    usage_err(PATTERNS_HELP, "more than one trace file given");
                }
            }
            other => usage_err(PATTERNS_HELP, &format!("unknown flag {other}")),
        }
    }
    let Some(trace_path) = trace_path else {
        usage_err(PATTERNS_HELP, "no trace file given");
    };

    let table = PatternTable::from_trace(&read(&trace_path))
        .unwrap_or_else(|e| fail(1, &format!("{trace_path}: {e}")));
    let doc = table.document(None, None);

    if let Some(path) = &out_path {
        std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| fail(2, &format!("cannot write {path}: {e}")));
        println!("patterns written to {path}");
    }

    if json {
        println!("{doc}");
    } else {
        print!("{}", render_patterns(&table));
    }

    if let Some(path) = &compare_path {
        let sections = Json::parse(&read(path))
            .map_err(|e| e.to_string())
            .and_then(|online| Ok((stream_sections(&online)?, stream_sections(&doc)?)));
        let (online, replay) = sections.unwrap_or_else(|e| fail(1, &format!("{path}: {e}")));
        if online != replay {
            eprintln!(
                "compare: MISMATCH — replayed classifier/invalidations differ from {path}\n\
                 online: {online}\n\
                 replay: {replay}"
            );
            exit(1);
        }
        println!("compare: OK — replay matches {path} byte-for-byte");
    }
}

fn report(mut args: Args) {
    let mut baseline: Option<String> = None;
    let mut tolerance = 5.0f64;
    let mut files: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return print!("{REPORT_HELP}"),
            "--baseline" => baseline = Some(value(&mut args, REPORT_HELP, &arg)),
            "--tolerance" => {
                let raw = value(&mut args, REPORT_HELP, &arg);
                match raw.trim_end_matches('%').parse::<f64>() {
                    Ok(pct) if pct >= 0.0 && pct.is_finite() => tolerance = pct,
                    _ => usage_err(REPORT_HELP, &format!("invalid tolerance `{raw}`")),
                }
            }
            path if !path.starts_with('-') => files.push(arg),
            other => usage_err(REPORT_HELP, &format!("unknown flag {other}")),
        }
    }

    let (base_path, candidates) = match (baseline, files.as_slice()) {
        (Some(base), []) => (base.clone(), vec![base]), // self-comparison
        (Some(base), rest) => (base, rest.to_vec()),
        (None, [only]) => (only.clone(), vec![only.clone()]), // self-comparison
        (None, [first, rest @ ..]) => (first.clone(), rest.to_vec()),
        (None, []) => usage_err(REPORT_HELP, "no files given"),
    };

    let load = |path: &str| {
        Json::parse(&read(path))
            .unwrap_or_else(|e| fail(2, &format!("{path}: not a JSON document: {e}")))
    };
    let base = load(&base_path);
    let mut regressions = 0usize;
    for (i, path) in candidates.iter().enumerate() {
        let cand = load(path);
        if i > 0 {
            println!();
        }
        let cmp = compare_docs(&base, &cand, tolerance)
            .unwrap_or_else(|e| fail(2, &format!("{base_path} vs {path}: {e}")));
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
