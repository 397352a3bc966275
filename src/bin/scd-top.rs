//! scd-top — live terminal dashboard for a telemetry stream.
//!
//! Tails a JSONL stream file written by `scdsim --stream-out` or
//! `scd-sweep --stream-out` *while the producer is still running*: only
//! complete lines are consumed (a partially written tail line is left in
//! the buffer for the next poll), so the reader never trips over the
//! writer. Each refresh renders one full-screen frame:
//!
//! - throughput: simulated cycles/s, trace events/s, refs (ops retired)/s
//! - transaction phase latencies: p50/p90/p99 per phase, plus end-to-end
//! - retry / NACK / fault-recovery counters
//! - a per-link traffic heatmap accumulated from attribution deltas
//! - sweep progress (completed/total, elapsed, ETA) when following a
//!   sweep stream
//!
//! The dashboard exits on its own once the stream closes (`run_end` /
//! `sweep_end`). `--once` renders a single frame from the current file
//! contents and exits — that mode is what `tests/cli.rs` drives, and it
//! also works on a finished stream as a post-mortem summary.
//!
//! ```text
//! scd-top <stream.jsonl> [--once] [--refresh-ms <n>] [--top-links <n>]
//! ```

use scd::stats::Histogram;
use scd::trace::{EventKind, Fields, Json, Phase, TraceEvent};
use std::collections::HashMap;
use std::io::Read as _;

const HELP: &str = "\
scd-top: live dashboard over an scd telemetry stream (JSONL)

usage: scd-top <stream.jsonl> [options]

  --once            render one frame from the current file contents and
                    exit (no screen clearing; scriptable)
  --refresh-ms <n>  poll/redraw period in milliseconds (default 500)
  --top-links <n>   rows in the link-traffic table when the machine is too
                    big for the matrix heatmap (default 10)
  -h, --help        show this help
";

fn usage_err(msg: &str) -> ! {
    eprintln!("scd-top: {msg}\n{HELP}");
    std::process::exit(2);
}

/// Incrementally consumes a growing JSONL file, yielding complete lines.
struct Tail {
    file: std::fs::File,
    /// Bytes read but not yet terminated by a newline.
    partial: Vec<u8>,
}

impl Tail {
    fn open(path: &str) -> std::io::Result<Self> {
        Ok(Tail {
            file: std::fs::File::open(path)?,
            partial: Vec::new(),
        })
    }

    /// Reads whatever the producer has appended since the last poll and
    /// returns the complete lines therein.
    fn poll(&mut self) -> Vec<String> {
        let mut buf = Vec::new();
        // The producer only ever appends; the file cursor stays where the
        // last poll left it, and a read error mid-follow is treated as
        // "nothing new yet".
        if self.file.read_to_end(&mut buf).is_err() {
            return Vec::new();
        }
        self.partial.extend_from_slice(&buf);
        // Split once at the last newline and slice the complete region in
        // a single pass. (Splitting the buffer per line was quadratic in
        // the poll size — a first poll over a multi-megabyte stream, the
        // --once case, recopied the whole remainder for every line.)
        let Some(last_nl) = self.partial.iter().rposition(|&b| b == b'\n') else {
            return Vec::new();
        };
        let rest = self.partial.split_off(last_nl + 1);
        let complete = std::mem::replace(&mut self.partial, rest);
        complete
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .filter_map(|line| std::str::from_utf8(line).ok())
            .filter(|s| !s.trim().is_empty())
            .map(str::to_string)
            .collect()
    }
}

/// Everything the dashboard knows, folded over the stream so far.
#[derive(Default)]
struct Dash {
    /// `run` object from the `run_meta` record, if one was seen.
    run: Option<Json>,
    clusters: usize,
    /// Highest simulated cycle observed (events, intervals, run_end).
    cycle: u64,
    /// Trace-event lines consumed, by event type.
    by_type: HashMap<&'static str, u64>,
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
    closed: bool,
    /// Summary line from `run_end` / `sweep_end`, rendered in the footer.
    close_line: String,
}

impl Dash {
    fn phase_hist(&mut self, phase: Phase) -> &mut Histogram {
        if let Some(i) = self.phase_lat.iter().position(|(p, _)| *p == phase) {
            return &mut self.phase_lat[i].1;
        }
        self.phase_lat.push((phase, Histogram::new()));
        &mut self.phase_lat.last_mut().unwrap().1
    }

    /// Folds one trace event: counts, and the phase clock of its
    /// transaction (a phase's latency is recorded when the next begins).
    fn event(&mut self, ev: &TraceEvent) {
        self.cycle = self.cycle.max(ev.cycle);
        *self.by_type.entry(ev.kind.label()).or_insert(0) += 1;
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
            self.phase_hist(prev).record(ev.cycle.saturating_sub(start) as usize);
        }
    }

    fn ingest(&mut self, line: &str) {
        if let Ok(ev) = TraceEvent::parse(line) {
            return self.event(&ev);
        }
        let Ok(j) = Fields::parse(line) else { return };
        let u64_of = |key: &str| j.get(key).and_then(|v| v.as_u64());
        let f64_of = |key: &str| j.get(key).and_then(|v| v.as_f64());
        let ty = j.get("type").and_then(|v| v.as_str()).unwrap_or("");
        match ty {
            "run_meta" => {
                // The one subtree kept as a tree: `render` reads labels
                // out of it on every frame.
                self.run = j.get("run").and_then(|run| Json::parse(run.raw()).ok());
                self.clusters = self
                    .run
                    .as_ref()
                    .and_then(|r| r.get("clusters"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0) as usize;
            }
            "interval" => {
                if let Some(w) = j.get("window").map(|w| w.fields()) {
                    let u64_of = |key: &str| w.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
                    self.cycle = self.cycle.max(u64_of("end"));
                    self.ops_retired += u64_of("ops_retired");
                }
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
                self.closed = true;
                let cycles = u64_of("cycles").unwrap_or(0);
                let rec = u64_of("recorded").unwrap_or(0);
                let drop = u64_of("dropped_events").unwrap_or(0);
                self.cycle = self.cycle.max(cycles);
                self.close_line = format!(
                    "run complete: {cycles} cycles, {rec} events recorded, {drop} dropped"
                );
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
                self.closed = true;
                let runs = u64_of("runs").unwrap_or(0);
                let wall = f64_of("wall_seconds").unwrap_or(0.0);
                self.close_line = format!("sweep complete: {runs} runs in {wall:.2}s");
            }
            _ => {}
        }
    }

    fn render(&self, elapsed: f64, top_links: usize) -> String {
        let events: u64 = self.by_type.values().sum();
        use std::fmt::Write as _;
        let mut s = String::new();
        let rate = |n: u64| n as f64 / elapsed.max(1e-9);
        if let Some(run) = &self.run {
            let f = |k: &str| run.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            let _ = writeln!(
                s,
                "scd-top — {} on {} ({} clusters)",
                f("app"),
                f("scheme"),
                run.get("clusters").and_then(Json::as_u64).unwrap_or(0)
            );
        } else {
            let _ = writeln!(s, "scd-top — waiting for stream (no run_meta / sweep records yet)");
        }
        let _ = writeln!(
            s,
            "cycle {:>12}  |  {:>9.0} cycles/s  {:>9.0} events/s  {:>9.0} refs/s",
            self.cycle,
            rate(self.cycle),
            rate(events),
            rate(self.ops_retired),
        );

        let nack = self.by_type.get("nack").copied().unwrap_or(0);
        let retry = self.by_type.get("retry").copied().unwrap_or(0);
        let repl = self.by_type.get("replacement").copied().unwrap_or(0);
        let _ = writeln!(
            s,
            "events {:>10}  |  {} nacks, {} retry msgs, {} txn retries, {} replacements",
            events, nack, retry, self.retries_total, repl
        );

        if self.total_lat.events() > 0 {
            let _ = writeln!(s, "\nlatency (cycles)        p50      p90      p99      max  txns");
            let row = |s: &mut String, name: &str, h: &Histogram| {
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
            };
            row(&mut s, "end-to-end", &self.total_lat);
            for (phase, h) in &self.phase_lat {
                row(&mut s, phase.label(), h);
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
                for (&(src, dst), &v) in rows.into_iter().take(top_links) {
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
            let fill = if total == 0 {
                0
            } else {
                (done as usize * width) / total as usize
            };
            let _ = writeln!(
                s,
                "\nsweep [{}{}] {done}/{total}  {elapsed:.1}s elapsed, eta {eta:.1}s",
                "#".repeat(fill),
                "-".repeat(width - fill),
            );
        }

        if self.closed {
            let _ = writeln!(s, "\n{}", self.close_line);
        }
        s
    }
}

fn main() {
    let mut path: Option<String> = None;
    let mut once = false;
    let mut refresh_ms = 500u64;
    let mut top_links = 10usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage_err(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                return;
            }
            "--once" => once = true,
            "--refresh-ms" => {
                refresh_ms = val()
                    .parse()
                    .unwrap_or_else(|_| usage_err("bad --refresh-ms"));
            }
            "--top-links" => {
                top_links = val()
                    .parse()
                    .unwrap_or_else(|_| usage_err("bad --top-links"));
            }
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            other => usage_err(&format!("unexpected argument {other}")),
        }
    }
    let Some(path) = path else {
        usage_err("need a stream file to follow");
    };

    // The producer may not have created the file yet. In follow mode,
    // wait for it (bounded so a typo'd path fails rather than hanging
    // forever); in --once mode a not-yet-created stream is the same
    // "waiting" state as an empty one — render the waiting frame and
    // exit cleanly so scripted probes racing the producer don't flake.
    let t0 = std::time::Instant::now();
    let mut tail = loop {
        match Tail::open(&path) {
            Ok(t) => break t,
            Err(_) if once => {
                print!(
                    "{}",
                    Dash::default().render(t0.elapsed().as_secs_f64(), top_links)
                );
                return;
            }
            Err(e) => {
                if t0.elapsed().as_secs() > 30 {
                    eprintln!("scd-top: cannot open {path}: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
            }
        }
    };

    let mut dash = Dash::default();
    loop {
        for line in tail.poll() {
            dash.ingest(&line);
        }
        let frame = dash.render(t0.elapsed().as_secs_f64(), top_links);
        if once {
            print!("{frame}");
            return;
        }
        // Home + clear-to-end keeps redraws flicker-free without needing
        // a full terminal library.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if dash.closed {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
}
