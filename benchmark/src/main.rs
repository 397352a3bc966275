//! Host-performance benchmark for the scd simulator.
//!
//! `scd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets one workload up, runs passes of it for `s` seconds, checks every
//! pass's outputs and prints each metric by name, ending with one JSON
//! line. Without `--workload` it runs every workload as a child process of
//! its own (so `peak_rss_mb` is per workload) and prints the table;
//! `--selfcheck` does that twice and compares the two sets against the
//! bounds; `--smoke` shrinks everything to one small pass for tests.
//!
//! Run it through `benchmark/run.sh`, which builds it first and starts it
//! from the repository root: the committed `BENCH_*.json` baselines and
//! `benchmark/out/` are addressed relative to that directory.

mod calib;
mod layers;
mod metrics;
mod probes;
mod spans;
mod stat;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use scd_trace::Json;

use crate::calib::Meter;
use crate::metrics::END_TO_END;
use crate::spans::Spans;
use crate::stat::{quiet_sum, summary};
use crate::workloads::{Ctx, Inputs, Op, Pass, Step, COMMITTED_SEED, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Set-ups per run: before the passes and after them. A burst of host
/// interference lasts about as long as all of them back to back, so they
/// are kept seconds apart for some to escape it.
const SETUP_REPS: (usize, usize) = (3, 2);
/// Operations per layer probe.
const PROBE_OPS: usize = 2_000_000;
/// The top-level span around each traced pass.
const PASS_ROOT: &str = "bench.pass";

const USAGE: &str = "usage: benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--selfcheck] [--manifest]";

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: COMMITTED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

// ----------------------------------------------------------------------
// One workload, in this process.
// ----------------------------------------------------------------------

/// Attempted and failed operations of a run, with the failures' reasons
/// printed as they happen.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Counts `ops`; an operation fails on its own check or when its
    /// output differs from the same operation of the `reference` pass.
    fn record(&mut self, stage: &str, ops: &[Op], reference: Option<&[Op]>) {
        if reference.is_some_and(|r| r.len() != ops.len()) {
            eprintln!(
                "FAIL {stage}: pass ran {} operations, the first ran another count",
                ops.len()
            );
            self.failed += 1;
        }
        for (i, op) in ops.iter().enumerate() {
            self.attempted += 1;
            let drift = reference
                .and_then(|r| r.get(i))
                .filter(|r| r.digest != op.digest)
                .map(|_| "output differs from the first pass's".to_string());
            if let Some(why) = op.error.clone().or(drift) {
                eprintln!("FAIL {stage} {}: {why}", op.label);
                self.failed += 1;
            }
        }
    }
}

/// A metric's name, value and unit.
type Metric = (String, f64, &'static str);

/// The result line's content.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::F64(*value))
                    .with("unit", Json::Str(unit.to_string())),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.failed == 0))
            .with("attempted", Json::U64(self.attempted))
            .with("failed", Json::U64(self.failed))
            .with("metrics", metrics)
    }
}

/// Checks `p` against the first pass: same operations, same outputs, same
/// exact counts.
fn check_pass(ledger: &mut Ledger, stage: &str, p: &Pass, first: &Pass) {
    ledger.record(stage, &p.ops, Some(&first.ops));
    if p.counts != first.counts || p.work != first.work || p.steps.len() != first.steps.len() {
        eprintln!("FAIL {stage}: exact counts differ from the first pass's");
        ledger.failed += 1;
    }
}

/// The seconds of a pass's segments, of the headline half or the other.
fn seconds(steps: &[Step], headline: bool) -> Vec<f64> {
    steps
        .iter()
        .filter(|s| s.headline == headline)
        .map(|s| s.seconds)
        .collect()
}

/// Median, over every segment of every traced pass, of its seconds over
/// the same segment's in the untraced pass it is paired with, minus 1.
fn trace_overhead(untraced: &[Vec<Step>], traced: &[Vec<Step>]) -> f64 {
    let ratios: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .flat_map(|(t, u)| t.iter().zip(u).map(|(t, u)| t.seconds / u.seconds))
        .collect();
    summary(&ratios).median - 1.0
}

/// Sets the workload up once: times the set-up's segments into `setups`,
/// counts its checked operations and, when `record` is on, records its
/// spans.
fn set_up(
    name: &str,
    args: &Args,
    cx: &Ctx,
    record: bool,
    setups: &mut Vec<Vec<f64>>,
    ledger: &mut Ledger,
) -> Inputs {
    cx.spans.record(record);
    let built = cx.time("bench.setup", name, || {
        workloads::setup(name, args.seed, args.smoke, cx)
    });
    cx.spans.record(false);
    setups.push(seconds(&built.steps, true));
    ledger.record("setup", &built.ops, None);
    built.inputs
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let cx = Ctx {
        spans: Spans::new(),
        meter: Meter::new(),
    };
    let mut ledger = Ledger::default();

    // Set-up, several times over, never holding two sets of inputs. The
    // passes use the last early repetition's inputs; a traced run records
    // that repetition's spans.
    let (early, late) = if args.smoke { (1, 0) } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(early + late);
    let mut inputs: Option<Inputs> = None;
    for rep in 0..early {
        drop(inputs.take());
        let record = args.trace && rep + 1 == early;
        inputs = Some(set_up(name, args, &cx, record, &mut setups, &mut ledger));
    }
    let inputs = inputs.expect("at least one set-up repetition");

    // One untimed pass fills caches and lazy state, and is the reference
    // every later pass must reproduce. A smoke run times it instead.
    let first = workloads::pass(&inputs, &cx);
    ledger.record("pass 0", &first.ops, None);
    // The segments of every untraced pass and, in a traced run, of the
    // traced pass that followed each.
    let (mut untraced, mut traced): (Vec<Vec<Step>>, Vec<Vec<Step>>) = (Vec::new(), Vec::new());
    let traced_pass = |ledger: &mut Ledger| {
        cx.spans.record(true);
        let p = cx.time(PASS_ROOT, name, || workloads::pass(&inputs, &cx));
        cx.spans.record(false);
        check_pass(ledger, "traced pass", &p, &first);
        p.steps
    };
    if args.smoke {
        untraced.push(first.steps.clone());
        if args.trace {
            traced.push(traced_pass(&mut ledger));
        }
    } else {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < args.seconds {
            // A traced run pairs every untraced pass with a traced one, so
            // both sides of the overhead see the same host, and swaps their
            // order from pair to pair, so a host drifting one way cancels.
            let traced_first = args.trace && untraced.len() % 2 == 1;
            if traced_first {
                traced.push(traced_pass(&mut ledger));
            }
            let p = workloads::pass(&inputs, &cx);
            let stage = format!("pass {}", untraced.len() + 1);
            check_pass(&mut ledger, &stage, &p, &first);
            untraced.push(p.steps);
            if args.trace && !traced_first {
                traced.push(traced_pass(&mut ledger));
            }
        }
    }
    let geometry = workloads::geometry(&inputs);
    drop(inputs);
    for _ in 0..late {
        drop(set_up(name, args, &cx, false, &mut setups, &mut ledger));
    }
    let heads: Vec<Vec<f64>> = untraced.iter().map(|p| seconds(p, true)).collect();
    // Clocked seconds to seconds at nominal host speed (`calib.rs`), from
    // the calibration samples of every pass, by segment position.
    let cals: Vec<Vec<Option<f64>>> = std::iter::once(&first.steps)
        .chain(&untraced)
        .chain(&traced)
        .map(|p| p.iter().map(|s| s.cal_s).collect())
        .collect();
    let host_speed = calib::host_speed(&cals);
    let wall_s = quiet_sum(&heads) * host_speed;
    let setup_s = quiet_sum(&setups) * host_speed;
    let whole = summary(&heads.iter().map(|h| h.iter().sum()).collect::<Vec<f64>>());
    println!(
        "{name} seed {}: {} timed passes of {} segments; wall_s {wall_s:.4}, setup_s {setup_s:.4} \
         at host speed {host_speed:.3} from {} samples; whole passes as clocked: median {:.4} \
         min {:.4} max {:.4}",
        args.seed,
        whole.n,
        heads[0].len(),
        cals.iter().flatten().flatten().count(),
        whole.median,
        whole.min,
        whole.max,
    );

    let metrics = if args.trace {
        let spans = cx.spans.snapshot();
        let path = format!("benchmark/out/spans-{name}.jsonl");
        if let Err(e) = spans::write_jsonl(&spans, path.as_ref()) {
            eprintln!("FAIL cannot write {path}: {e}");
            ledger.failed += 1;
        }
        let probe_ops = if args.smoke {
            PROBE_OPS / 100
        } else {
            PROBE_OPS
        };
        layers::metrics(&layers::Run {
            first: &first,
            spans: &spans,
            probes: &probes::run(&geometry, args.seed, probe_ops),
            wall_s,
            other_s: quiet_sum(
                &untraced
                    .iter()
                    .map(|p| seconds(p, false))
                    .collect::<Vec<_>>(),
            ) * host_speed,
            trace_overhead: trace_overhead(&untraced, &traced),
            wall_median_s: whole.median,
            host_speed,
            passes: whole.n,
            fail_share: ledger.failed as f64 / ledger.attempted as f64,
        })
    } else {
        vec![
            ("wall_s".to_string(), wall_s, "s"),
            (
                "events_per_sec".to_string(),
                first.work as f64 / wall_s,
                "1/s",
            ),
            (
                "peak_rss_mb".to_string(),
                stat::peak_rss_mb().unwrap_or(f64::NAN),
                "MB",
            ),
            ("setup_s".to_string(), setup_s, "s"),
        ]
    };
    println!(
        "  {} of {} operations failed",
        ledger.failed, ledger.attempted
    );
    for (metric, value, unit) in &metrics {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .map_or(String::new(), |m| {
                format!("  (bound {:.0} %)", m.bound * 100.0)
            });
        println!("  {metric:<40} {value:>16.4} {unit}{bound}");
    }
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

// ----------------------------------------------------------------------
// The whole set: one child process per workload.
// ----------------------------------------------------------------------

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs one workload in a process of its own, passing its output through,
/// and parses the result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or(format!("{workload}: result line lacks `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .field_map()
        .ok_or("`metrics` is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: no value"))?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or(format!("{name}: no unit"))?;
        metrics.insert(name.to_string(), (value, unit.to_string()));
    }
    Ok(ChildResult {
        correct: field("correct")?.as_bool() == Some(true),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// Metric values by (workload, metric).
type Table = BTreeMap<(String, String), (f64, String)>;

/// Runs every workload untraced and, when `args.trace`, traced as well.
/// Returns the table and whether every run was correct.
fn run_set(args: &Args) -> (Table, bool) {
    let mut table = Table::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(w.name, args, trace) {
                Ok(r) => {
                    if !r.correct {
                        eprintln!(
                            "FAIL {}: {} of {} operations failed",
                            w.name, r.failed, r.attempted
                        );
                        ok = false;
                    }
                    for (metric, v) in r.metrics {
                        table.insert((w.name.to_string(), metric), v);
                    }
                }
                Err(e) => {
                    eprintln!("FAIL {e}");
                    ok = false;
                }
            }
        }
    }
    (table, ok)
}

fn print_end_to_end(table: &Table) {
    println!("\nend-to-end metrics (times in quiet-host seconds; bound = allowed worsening)");
    for m in &END_TO_END {
        println!(
            "  {} [{}], {} is better, bound {:.0} %",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0
        );
        for w in &WORKLOADS {
            if let Some((v, _)) = table.get(&(w.name.to_string(), m.name.to_string())) {
                println!("    {:<20} {v:>16.4}", w.name);
            }
        }
    }
}

/// Runs the set twice on this build and holds the pairs to the bounds:
/// end-to-end values within their bound of each other, exact counts and
/// simulated values identical, nothing failed.
fn selfcheck(args: &Args) -> bool {
    let args = Args {
        trace: true,
        ..args.clone()
    };
    let (a, ok_a) = run_set(&args);
    let (b, ok_b) = run_set(&args);
    let mut ok = ok_a && ok_b;
    println!("\nselfcheck: two sets of runs of the same build");
    println!(
        "  {:<18} {:<16} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for m in &END_TO_END {
        for w in &WORKLOADS {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some((x, _)), Some((y, _))) = (a.get(&key), b.get(&key)) else {
                eprintln!("FAIL {} {}: missing from a set", w.name, m.name);
                ok = false;
                continue;
            };
            let diff = (x - y).abs() / x.min(*y);
            let verdict = if diff <= m.bound { "" } else { "  OUTSIDE" };
            println!(
                "  {:<18} {:<16} {x:>14.4} {y:>14.4} {:>8.2} {:>7.0}{verdict}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
            ok &= diff <= m.bound;
        }
    }
    let exact = metrics::COUNTS.iter().map(|c| c.0).chain([
        "sim_msgs_per_ref",
        "machine.events_per_ref",
        "bench.fail_share",
    ]);
    let mut exact_ok = true;
    for name in exact {
        for w in &WORKLOADS {
            let key = (w.name.to_string(), name.to_string());
            if a.get(&key).map(|v| v.0) != b.get(&key).map(|v| v.0) {
                eprintln!(
                    "FAIL {} {name}: {:?} then {:?}, must repeat exactly",
                    w.name,
                    a.get(&key),
                    b.get(&key)
                );
                exact_ok = false;
            }
        }
    }
    if exact_ok {
        println!("  exact counts and simulated values: identical");
    }
    ok && exact_ok
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        Json::obj()
            .with("name", Json::Str(name.into()))
            .with("unit", Json::Str(unit.into()))
            .with("better", Json::Str(better.into()))
    };
    Json::obj()
        .with(
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        )
        .with("paths", Json::Arr(vec![Json::Str("benchmark".into())]))
        .with("run_seconds", Json::U64(DEFAULT_SECONDS as u64))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", Json::Str(w.name.into()))
                            .with("why", Json::Str(w.why.into()))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| named(m.name, m.unit, m.better).with("bound", Json::F64(m.bound)))
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                metrics::per_layer()
                    .iter()
                    .map(|(n, u, b)| named(n, u, b))
                    .collect(),
            ),
        )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        println!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let ok = if let Some(name) = &args.workload {
        let outcome = run_workload(name, &args);
        println!("{}", outcome.to_json());
        outcome.failed == 0
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        let (table, ok) = run_set(&args);
        print_end_to_end(&table);
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
