//! scd-telemetry — the offline tools over the telemetry formats, as
//! subcommands of one binary: `scdsim` records a run, this binary reads
//! it. `validate` checks files against their schemas, `patterns`
//! classifies sharing patterns and `spans` profiles transactions from a
//! trace or a single-run stream alike (both read it through
//! [`scd::trace::run_lines`]), and `report` flags regressions between
//! `scd-run-stats/v1` documents. `HELP` and the per-subcommand help texts
//! below are the one copy of the options.
//!
//! Exit codes, every subcommand: 0 = ok, 1 = a file failed validation,
//! a comparison mismatched or a metric regressed, 2 = usage error or an
//! unreadable / unparseable input.

use scd::stats::table::{render_bars, render_table, Align};
use scd::trace::json::records;
use scd::trace::{
    analyze, compare_docs, doc_label, extract_trace_lines, is_event_line, run_lines,
    to_perfetto, validate_patterns_json, validate_perfetto, validate_stats_json, validate_stream,
    validate_trace, Json, PatternTable, RunLine, SpanTree,
};
use std::process::exit;

const HELP: &str = "\
scd-telemetry: offline tools over scd telemetry files

usage: scd-telemetry <validate|patterns|spans|report> [options]
       (each takes --help)

  validate   check trace, stats, patterns, Perfetto and stream files
             against their schemas
  patterns   classify sharing patterns from a recorded trace or stream
  spans      span profile of a recorded trace or stream: Perfetto export,
             folded stacks, slowest transactions
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
                         (scd-telemetry spans --perfetto-out)
  --stream <file>        validate a live telemetry stream
                         (scdsim --stream-out, scd-sweep --stream-out):
                         record shapes, event/interval ordering, interval
                         tiling, sweep progress monotonicity, closing
                         run_end/sweep_end
  --extract-trace <file> print the stream's trace-event lines verbatim to
                         stdout (byte-comparable with --trace-out output)
  <file>                 auto-detect: a .jsonl file is a trace if its
                         first record is a trace event, else a stream;
                         any other file is a stats document
  -h, --help             show this help
";

const PATTERNS_HELP: &str = "\
scd-telemetry patterns: classify sharing patterns from a recorded run

usage: scd-telemetry patterns <trace.jsonl | stream.jsonl> [--out <file>]
                              [--compare <file>] [--json]

  <trace.jsonl>    transaction trace recorded with scdsim --trace-out, or
  <stream.jsonl>   a single-run stream recorded with scdsim --stream-out
                   (the run must have been recorded with --patterns-out
                   also active, so it carries inval events)
  --out <file>     write the scd-patterns/v1 document (occupancy is null:
                   a replay cannot see live directory state)
  --compare <file> parse an online document (scdsim --patterns-out) and
                   check its classifier + invalidation sections are
                   byte-identical to this replay's; exits 1 on mismatch
  --json           print the document to stdout instead of the report
  -h, --help       show this help
";

const SPANS_HELP: &str = "\
scd-telemetry spans: the span profile of a recorded run

usage: scd-telemetry spans <trace.jsonl | stream.jsonl> [--perfetto-out <file>]
                           [--folded-out <file>] [--critical <k>]

  <file>                 scdsim --trace-out or --stream-out, folded into one
                         causal span tree (txn -> phase -> message)
  --perfetto-out <file>  write a chrome trace_event JSON (chrome://tracing,
                         ui.perfetto.dev); only a stream has counter tracks
  --folded-out <file>    write folded stacks (flamegraph input; cycles)
  --critical <k>         print the top-k slowest transactions: per-phase
                         queueing/service split, blocking message per phase
  -h, --help             show this help
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

fn write(path: &str, text: String) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(2, &format!("cannot write {path}: {e}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("validate") => validate(args),
        Some("patterns") => patterns(args),
        Some("spans") => spans(args),
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
    // `None`: a `.jsonl` file, a trace or a stream by its first record.
    let mut jobs: Vec<(Option<Kind>, String)> = Vec::new();
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
                let kind = (!path.ends_with(".jsonl")).then_some(Kind::Stats);
                jobs.push((kind, arg));
                continue;
            }
            other => usage_err(VALIDATE_HELP, &format!("unknown flag {other}")),
        };
        let path = value(&mut args, VALIDATE_HELP, &arg);
        jobs.push((Some(kind), path));
    }
    if jobs.is_empty() {
        usage_err(VALIDATE_HELP, "no files given");
    }

    let mut failures = 0usize;
    for (kind, path) in &jobs {
        let text = read(path);
        let kind = kind.as_ref().unwrap_or_else(|| {
            let trace = records(&text).next().is_some_and(|(_, first)| is_event_line(first));
            if trace { &Kind::Trace } else { &Kind::Stream }
        });
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
        write(path, format!("{doc}\n"));
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

fn spans(mut args: Args) {
    let (mut run_path, mut perfetto_out, mut folded_out, mut critical) = (None, None, None, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return print!("{SPANS_HELP}"),
            "--perfetto-out" => perfetto_out = Some(value(&mut args, SPANS_HELP, &arg)),
            "--folded-out" => folded_out = Some(value(&mut args, SPANS_HELP, &arg)),
            "--critical" => {
                let raw = value(&mut args, SPANS_HELP, &arg);
                let bad = || usage_err(SPANS_HELP, &format!("bad --critical `{raw}`"));
                critical = Some(raw.parse::<usize>().unwrap_or_else(|_| bad()));
            }
            path if !path.starts_with('-') => {
                if run_path.replace(arg).is_some() {
                    usage_err(SPANS_HELP, "more than one trace or stream file given");
                }
            }
            other => usage_err(SPANS_HELP, &format!("unknown flag {other}")),
        }
    }
    let Some(run_path) = run_path else {
        usage_err(SPANS_HELP, "no trace or stream file given");
    };
    if perfetto_out.is_none() && folded_out.is_none() && critical.is_none() {
        usage_err(SPANS_HELP, "nothing to write: give --perfetto-out, --folded-out or --critical");
    }

    let (mut events, mut intervals) = (Vec::new(), Vec::new());
    for line in run_lines(&read(&run_path)) {
        match line.unwrap_or_else(|e| fail(1, &format!("{run_path}: {e}"))).1 {
            RunLine::Event(ev) => events.push(ev),
            RunLine::Interval(window) => intervals.push(window),
        }
    }
    let tree = SpanTree::from_events(&events);
    if let Some(path) = &perfetto_out {
        write(path, to_perfetto(&tree, &intervals) + "\n");
        eprintln!(
            "span profile written to {path}: {} txns ({} complete), \
             {} attributed msgs, {} background msgs",
            tree.txns.len(),
            tree.completed(),
            tree.attributed_msgs(),
            tree.orphan_msgs.len()
        );
    }
    if let Some(path) = &folded_out {
        write(path, tree.to_folded());
        eprintln!("folded stacks written to {path}");
    }
    if let Some(k) = critical {
        print!("{}", analyze(&tree).render(k));
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
