//! scd-telemetry — the tools over the telemetry formats, as subcommands
//! of one binary: `scdsim` and `scd-sweep` record, this binary reads.
//! `validate` checks files against their schemas, `patterns` classifies
//! sharing patterns and `spans` profiles transactions from a trace or a
//! single-run stream alike, `top` follows a stream while it is written
//! (all three read its lines through [`scd::trace::run_line`]), and
//! `report` flags regressions between `scd-run-stats/v1` documents. `HELP`
//! and the per-subcommand help texts below are the one copy of the
//! options; README.md's "Exit codes" table says what each exit means.

use bench::cli::{fail, read, refuse, write, Args};
use scd::stats::table::{render_bars, render_table, Align};
use scd::stats::Histogram;
use scd::trace::json::records;
use scd::trace::{
    analyze, compare_docs, doc_label, extract_trace_lines, is_event_line, run_line, run_lines,
    to_perfetto, validate_patterns_json, validate_perfetto, validate_stats_json, validate_stream,
    validate_trace, EventKind, Fields, Json, PatternTable, Phase, RunLine, SpanTree, TraceEvent,
    EVENT_TYPES,
};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::process::exit;
use std::time::{Duration, Instant};

const HELP: &str = "\
scd-telemetry: tools over scd telemetry files

usage: scd-telemetry <validate|patterns|spans|report|top> [options]
       (each takes --help)

  validate   check trace, stats, patterns, Perfetto and stream files
             against their schemas
  patterns   classify sharing patterns from a recorded trace or stream
  spans      span profile of a recorded trace or stream: Perfetto export,
             folded stacks, slowest transactions
  report     compare scd-run-stats/v1 documents and flag regressions
  top        live dashboard over a telemetry stream while it is written

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

const TOP_HELP: &str = "\
scd-telemetry top: live dashboard over an scd telemetry stream (JSONL)

usage: scd-telemetry top <stream.jsonl> [--once]

  <stream.jsonl>  scdsim --stream-out or scd-sweep --stream-out, followed
                  while the producer writes it, complete lines only, and
                  redrawn every 500 ms until its run_end or sweep_end
  --once          render one frame from the current file contents and
                  exit (no screen clearing; scriptable)
  -h, --help      show this help
";

fn main() {
    let mut args = Args::new("scd-telemetry", HELP);
    match args.next().as_deref() {
        Some("validate") => validate(args.sub("validate", VALIDATE_HELP)),
        Some("patterns") => patterns(args.sub("patterns", PATTERNS_HELP)),
        Some("spans") => spans(args.sub("spans", SPANS_HELP)),
        Some("report") => report(args.sub("report", REPORT_HELP)),
        Some("top") => top(args.sub("top", TOP_HELP)),
        Some(other) => refuse(format_args!("unknown subcommand {other}")),
        None => refuse("no subcommand given"),
    }
}

/// `arg` as a positional, or a refusal when it looks like a flag.
fn positional(arg: &str) -> String {
    if arg.starts_with('-') {
        refuse(format_args!("unknown flag {arg}"));
    }
    arg.to_string()
}

fn validate(mut args: Args) {
    // `""`: a positional path, which names no kind.
    let mut jobs: Vec<(String, String)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" | "--stats" | "--patterns" | "--perfetto" | "--stream"
            | "--extract-trace" => jobs.push((arg, args.value())),
            _ => jobs.push((String::new(), positional(&arg))),
        }
    }
    if jobs.is_empty() {
        refuse("no files given");
    }

    let mut failures = 0usize;
    for (kind, path) in &jobs {
        let text = read(path);
        // A positional `.jsonl` file is a trace or a stream by its first
        // record; any other is a stats document.
        let kind = match kind.as_str() {
            "" if !path.ends_with(".jsonl") => "--stats",
            "" if records(&text).next().is_some_and(|(_, first)| is_event_line(first)) => "--trace",
            "" => "--stream",
            kind => kind,
        };
        let verdict = match kind {
            "--trace" => validate_trace(&text).map(|s| {
                let mut ok = format!(
                    "{} events, {} transactions ({} completed)",
                    s.events, s.transactions, s.completed
                );
                for (ty, n) in &s.by_type {
                    ok.push_str(&format!("\n    {ty:<14} {n}"));
                }
                ok
            }),
            "--stats" => validate_stats_json(&text).map(|()| "scd-run-stats/v1".to_string()),
            "--patterns" => validate_patterns_json(&text).map(|()| "scd-patterns/v1".to_string()),
            "--perfetto" => validate_perfetto(&text).map(|s| {
                format!(
                    "{} events ({} slices, {} msg ops, {} counters, {} meta)",
                    s.events, s.slices, s.async_ops, s.counters, s.meta
                )
            }),
            "--stream" => validate_stream(&text).map(|s| {
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
            _extract_trace => {
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
        fail(1, format_args!("{failures} of {} files failed", jobs.len()));
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
    let (mut trace_path, mut out_path, mut compare_path, mut json) = (None, None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.value()),
            "--compare" => compare_path = Some(args.value()),
            "--json" => json = true,
            _ if trace_path.replace(positional(&arg)).is_some() => {
                refuse("more than one trace file given")
            }
            _ => {}
        }
    }
    let Some(trace_path) = trace_path else {
        refuse("no trace file given");
    };

    let table = PatternTable::from_trace(&read(&trace_path))
        .unwrap_or_else(|e| fail(1, format_args!("{trace_path}: {e}")));
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
        let (online, replay) = sections.unwrap_or_else(|e| fail(1, format_args!("{path}: {e}")));
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
            "--perfetto-out" => perfetto_out = Some(args.value()),
            "--folded-out" => folded_out = Some(args.value()),
            "--critical" => critical = Some(args.parse::<usize>()),
            _ if run_path.replace(positional(&arg)).is_some() => {
                refuse("more than one trace or stream file given")
            }
            _ => {}
        }
    }
    let Some(run_path) = run_path else {
        refuse("no trace or stream file given");
    };
    if perfetto_out.is_none() && folded_out.is_none() && critical.is_none() {
        refuse("nothing to write: give --perfetto-out, --folded-out or --critical");
    }

    let (mut events, mut intervals) = (Vec::new(), Vec::new());
    for line in run_lines(&read(&run_path)) {
        match line.unwrap_or_else(|e| fail(1, format_args!("{run_path}: {e}"))).1 {
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
    let (mut baseline, mut tolerance, mut files) = (None, 5.0f64, Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(args.value()),
            "--tolerance" => {
                tolerance = args.parse_with(|v| match v.trim_end_matches('%').parse::<f64>() {
                    Ok(pct) if pct >= 0.0 && pct.is_finite() => Ok(pct),
                    _ => Err(format!("invalid tolerance `{v}`")),
                });
            }
            _ => files.push(positional(&arg)),
        }
    }

    let (base_path, candidates) = match (baseline, files.as_slice()) {
        (Some(base), []) => (base.clone(), vec![base]), // self-comparison
        (Some(base), rest) => (base, rest.to_vec()),
        (None, [only]) => (only.clone(), vec![only.clone()]), // self-comparison
        (None, [first, rest @ ..]) => (first.clone(), rest.to_vec()),
        (None, []) => refuse("no files given"),
    };

    let load = |path: &str| {
        Json::parse(&read(path))
            .unwrap_or_else(|e| refuse(format_args!("{path}: not a JSON document: {e}")))
    };
    let base = load(&base_path);
    let mut regressions = 0usize;
    for (i, path) in candidates.iter().enumerate() {
        let cand = load(path);
        if i > 0 {
            println!();
        }
        let cmp = compare_docs(&base, &cand, tolerance)
            .unwrap_or_else(|e| refuse(format_args!("{base_path} vs {path}: {e}")));
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

/// The dashboard's redraw period.
const REFRESH: Duration = Duration::from_millis(500);

/// Rows of the link-traffic table when the machine is too big for the
/// matrix heatmap.
const TOP_LINKS: usize = 10;

/// Everything the dashboard knows, folded over the stream so far.
#[derive(Default)]
struct Dash {
    /// `<app> on <scheme> (<n> clusters)`, from the `run_meta` record.
    title: Option<String>,
    clusters: usize,
    /// Highest simulated cycle observed (events, intervals, run_end).
    cycle: u64,
    /// Trace-event lines consumed, by type in `EVENT_TYPES` order.
    by_type: [u64; EVENT_TYPES.len()],
    /// Ops retired, summed over interval records ("refs" for rate math).
    ops_retired: u64,
    /// Open transactions: txn id -> (current phase, phase start).
    open: HashMap<u64, (Phase, u64)>,
    /// Cycle-latency histograms per phase, in the order first seen, plus
    /// end-to-end.
    phase_lat: Vec<(Phase, Histogram)>,
    total_lat: Histogram,
    retries_total: u64,
    /// Flits per (src, dst), accumulated from attribution deltas.
    links: HashMap<(usize, usize), u64>,
    /// Latest directory-observatory sample: live entries and the
    /// sharer-count histogram (`sharers[n]` = live entries with `n`
    /// sharers), plus how many samples the stream carried so far.
    live_entries: u64,
    sharers: Vec<u64>,
    patterns_samples: u64,
    /// Sweep progress: (completed, total, elapsed, eta) from the latest
    /// `sweep_run`, total seeded by `sweep_begin`.
    sweep: Option<(u64, u64, f64, f64)>,
    /// Summary line of the closing `run_end` / `sweep_end`, the footer.
    closed: Option<String>,
}

impl Dash {
    /// Folds one stream line: events and interval windows as `run_line`
    /// reads them for every reader of a run, the records it does not
    /// decode through their fields.
    fn line(&mut self, line: &str) {
        match run_line(line) {
            Ok(Some(RunLine::Event(ev))) => self.event(&ev),
            Ok(Some(RunLine::Interval(w))) => {
                self.cycle = self.cycle.max(w.end);
                self.ops_retired += w.ops_retired;
            }
            Ok(None) | Err(_) => self.record(line),
        }
    }

    /// Folds one trace event: counts, and the phase clock of its
    /// transaction (a phase's latency is recorded when the next begins).
    fn event(&mut self, ev: &TraceEvent) {
        self.cycle = self.cycle.max(ev.cycle);
        self.by_type[ev.kind.index()] += 1;
        let left = match ev.kind {
            EventKind::TxnBegin { txn, .. } => {
                self.open.insert(txn, (Phase::Issue, ev.cycle));
                None
            }
            EventKind::TxnPhase { txn, phase, .. } => self.open.insert(txn, (phase, ev.cycle)),
            EventKind::TxnEnd { txn, latency, retries, .. } => {
                self.total_lat.record(latency as usize);
                self.retries_total += u64::from(retries);
                self.open.remove(&txn)
            }
            _ => None,
        };
        if let Some((prev, start)) = left {
            let i = self.phase_lat.iter().position(|(p, _)| *p == prev).unwrap_or_else(|| {
                self.phase_lat.push((prev, Histogram::new()));
                self.phase_lat.len() - 1
            });
            self.phase_lat[i].1.record(ev.cycle.saturating_sub(start) as usize);
        }
    }

    /// Folds a record that is neither an event nor a window: the run's
    /// description, traffic, directory samples, sweep progress and the
    /// closing record. Anything else is left alone.
    fn record(&mut self, line: &str) {
        let Ok(j) = Fields::parse(line) else { return };
        let u64_of = |key: &str| j.get(key).and_then(|v| v.as_u64());
        let f64_of = |key: &str| j.get(key).and_then(|v| v.as_f64());
        match j.get("type").and_then(|v| v.as_str()).unwrap_or("") {
            "run_meta" => {
                let run = j.get("run").map(|run| run.fields());
                let run_of = |key: &str| run.as_ref().and_then(|run| run.get(key));
                let label = |key: &str| run_of(key).and_then(|v| v.as_str()).unwrap_or("?").to_string();
                let clusters = run_of("clusters").and_then(|v| v.as_u64()).unwrap_or(0);
                self.clusters = clusters as usize;
                let title = format!("{} on {} ({clusters} clusters)", label("app"), label("scheme"));
                self.title = run.is_some().then_some(title);
            }
            "attrib_delta" => {
                for l in j.get("links").and_then(|v| v.elements()).into_iter().flatten() {
                    let l = l.fields();
                    let u64_of = |key: &str| l.get(key).and_then(|v| v.as_u64());
                    let (Some(from), Some(to), Some(flits)) =
                        (u64_of("from"), u64_of("to"), u64_of("flits"))
                    else {
                        continue;
                    };
                    *self.links.entry((from as usize, to as usize)).or_insert(0) += flits;
                }
            }
            "patterns" => {
                self.cycle = self.cycle.max(u64_of("end").unwrap_or(0));
                self.live_entries = u64_of("live_entries").unwrap_or(0);
                if let Some(sharers) = j.get("sharers").and_then(|v| v.elements()) {
                    self.sharers = sharers.filter_map(|n| n.as_u64()).collect();
                }
                self.patterns_samples += 1;
            }
            "run_end" => {
                let cycles = u64_of("cycles").unwrap_or(0);
                let rec = u64_of("recorded").unwrap_or(0);
                let drop = u64_of("dropped_events").unwrap_or(0);
                self.cycle = self.cycle.max(cycles);
                self.closed =
                    Some(format!("run complete: {cycles} cycles, {rec} events recorded, {drop} dropped"));
            }
            "sweep_begin" => {
                self.sweep = Some((0, u64_of("total").unwrap_or(0), 0.0, 0.0));
            }
            "sweep_run" => {
                self.sweep = Some((
                    u64_of("completed").unwrap_or(0),
                    u64_of("total").unwrap_or(0),
                    f64_of("elapsed").unwrap_or(0.0),
                    f64_of("eta").unwrap_or(0.0),
                ));
            }
            "sweep_end" => {
                let runs = u64_of("runs").unwrap_or(0);
                let wall = f64_of("wall_seconds").unwrap_or(0.0);
                self.closed = Some(format!("sweep complete: {runs} runs in {wall:.2}s"));
            }
            _ => {}
        }
    }

    fn render(&self, elapsed: f64) -> String {
        let events: u64 = self.by_type.iter().sum();
        use std::fmt::Write as _;
        let mut s = String::new();
        let rate = |n: u64| n as f64 / elapsed.max(1e-9);
        let waiting = "waiting for stream (no run_meta / sweep records yet)";
        let _ = writeln!(s, "scd-top — {}", self.title.as_deref().unwrap_or(waiting));
        let _ = writeln!(
            s,
            "cycle {:>12}  |  {:>9.0} cycles/s  {:>9.0} events/s  {:>9.0} refs/s",
            self.cycle,
            rate(self.cycle),
            rate(events),
            rate(self.ops_retired),
        );

        let [_, _, _, nack, retry, _, repl, _, _] = self.by_type;
        let _ = writeln!(
            s,
            "events {:>10}  |  {} nacks, {} retry msgs, {} txn retries, {} replacements",
            events, nack, retry, self.retries_total, repl
        );

        if self.total_lat.events() > 0 {
            let _ = writeln!(s, "\nlatency (cycles)        p50      p90      p99      max  txns");
            let phases = self.phase_lat.iter().map(|(phase, h)| (phase.label(), h));
            for (name, h) in std::iter::once(("end-to-end", &self.total_lat)).chain(phases) {
                let _ = writeln!(
                    s,
                    "  {:<18} {:>8} {:>8} {:>8} {:>8} {:>5}",
                    name,
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.max_value(),
                    h.events()
                );
            }
        }

        if !self.links.is_empty() {
            let _ = writeln!(s, "\nlink traffic (flits, from attribution deltas)");
            if self.clusters > 0 && self.clusters <= 16 {
                // Matrix heatmap: rows = source, columns = destination.
                let max = self.links.values().copied().max().unwrap_or(1).max(1);
                const SHADE: &[u8] = b" .:-=+*#%@";
                let _ = write!(s, "     ");
                for d in 0..self.clusters {
                    let _ = write!(s, "{:>2}", d % 100);
                }
                let _ = writeln!(s, "   (shade ~ flits, max {max})");
                for src in 0..self.clusters {
                    let _ = write!(s, "  {src:>2} ");
                    for dst in 0..self.clusters {
                        let v = self.links.get(&(src, dst)).copied().unwrap_or(0);
                        let idx = if v == 0 {
                            0
                        } else {
                            1 + (v * (SHADE.len() as u64 - 2) / max) as usize
                        };
                        let c = SHADE[idx.min(SHADE.len() - 1)] as char;
                        let _ = write!(s, " {c}");
                    }
                    let _ = writeln!(s);
                }
            } else {
                let mut rows: Vec<(&(usize, usize), &u64)> = self.links.iter().collect();
                rows.sort_by_key(|(&(src, dst), &v)| (std::cmp::Reverse(v), src, dst));
                for (&(src, dst), &v) in rows.into_iter().take(TOP_LINKS) {
                    let _ = writeln!(s, "  {src:>3} -> {dst:>3}  {v:>12}");
                }
            }
        }

        if self.patterns_samples > 0 {
            let _ = writeln!(
                s,
                "\nsharer distribution (window {}, {} live entries, sample {})",
                self.cycle, self.live_entries, self.patterns_samples
            );
            let max = self.sharers.iter().copied().max().unwrap_or(0).max(1);
            const BAR: usize = 30;
            for (n, &count) in self.sharers.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let fill = ((count * BAR as u64) / max) as usize;
                let _ = writeln!(
                    s,
                    "  {:>3} sharers {:>8}  {}",
                    n,
                    count,
                    "#".repeat(fill.max(1))
                );
            }
        }

        if let Some((done, total, elapsed, eta)) = self.sweep {
            let width = 40usize;
            // A damaged stream can report more runs done than its total:
            // the bar is full, not longer.
            let fill = (done as usize * width).checked_div(total as usize).unwrap_or(0).min(width);
            let _ = writeln!(
                s,
                "\nsweep [{}{}] {done}/{total}  {elapsed:.1}s elapsed, eta {eta:.1}s",
                "#".repeat(fill),
                "-".repeat(width - fill),
            );
        }

        if let Some(footer) = &self.closed {
            let _ = writeln!(s, "\n{footer}");
        }
        s
    }
}

fn top(args: Args) {
    let (mut path, mut once) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--once" => once = true,
            _ if path.replace(positional(&arg)).is_some() => refuse("more than one stream file given"),
            _ => {}
        }
    }
    let Some(path) = path else {
        refuse("need a stream file to follow");
    };

    // The producer may not have created the file yet. Following, wait for
    // it (bounded, so a mistyped path fails rather than hangs); with
    // --once a stream not yet created is the same "waiting" frame as an
    // empty one, so scripted probes racing the producer do not flake.
    let t0 = Instant::now();
    let mut file = loop {
        match std::fs::File::open(&path) {
            Ok(file) => break file,
            Err(_) if once => return print!("{}", Dash::default().render(t0.elapsed().as_secs_f64())),
            Err(e) if t0.elapsed().as_secs() > 30 => refuse(format_args!("cannot open {path}: {e}")),
            Err(_) => std::thread::sleep(REFRESH),
        }
    };

    let (mut dash, mut partial) = (Dash::default(), Vec::new());
    loop {
        // The producer only appends: the file cursor stays where the last
        // poll left it, a line still being written waits in `partial`, and
        // a read error mid-follow is "nothing new yet".
        let _ = file.read_to_end(&mut partial);
        if let Some(last_nl) = partial.iter().rposition(|&b| b == b'\n') {
            let complete: Vec<u8> = partial.drain(..=last_nl).collect();
            for (_, line) in records(&String::from_utf8_lossy(&complete)) {
                dash.line(line);
            }
        }
        let frame = dash.render(t0.elapsed().as_secs_f64());
        if once {
            return print!("{frame}");
        }
        // Home + clear-to-end keeps redraws flicker-free without needing
        // a full terminal library.
        print!("\x1b[H\x1b[2J{frame}");
        let _ = std::io::stdout().flush();
        if dash.closed.is_some() {
            return;
        }
        std::thread::sleep(REFRESH);
    }
}
