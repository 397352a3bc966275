//! The seven workloads: what each one sets up and what one pass does.
//!
//! A pass performs the steps `scd-sweep`, `scdsim`, the replay tools and
//! `scd-check` perform, through the crates' public functions only, with
//! every call wrapped in [`Spans::time`] (free when the recorder is off).
//! Output checks run after the pass's clock has stopped.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::{
    bench_json_name, bench_point_document, build_config, generate_app, run_sweep, sweep_document,
    RunDescriptor, SparseVariant, SweepOutcome, SweepRun, SweepSpec, APP_NAMES, CANONICAL_SPARSE,
};
use scd_apps::AppRun;
use scd_check::{corpus, explore, scenarios, ExploreConfig, Litmus, Scenario};
use scd_core::Scheme;
use scd_machine::{FaultEdges, Machine, MachineConfig, ProtocolKind, RunStats, ShardedMachine};
use scd_stats::MessageClass;
use scd_trace::{
    analyze, compare_docs, extract_trace_lines, to_perfetto, validate_perfetto,
    validate_stats_json, validate_stream, validate_trace, AttribParams, Attribution, BufferSink,
    IntervalSnapshot, Json, PatternTable, SpanTree, TraceConfig, TraceEvent, TraceSink,
};

use crate::calib::Meter;
use crate::spans::Spans;

/// The seed the committed `BENCH_*.json` baselines were generated with.
pub const COMMITTED_SEED: u64 = 0xD45B;

/// A workload's name and the reason it is in the set.
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workload set, in the order a full run executes it.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "dense_grid",
        why: "Engine baseline: wheel, DASH handlers, caches, dense DirectoryStore; core::sparse is never touched, so sparse work must leave it unchanged",
    },
    WorkloadDef {
        name: "sparse_grid",
        why: "The paper's contribution: core::sparse lookup/allocate and replacement fan-out, with more misses and events per reference than dense_grid",
    },
    WorkloadDef {
        name: "protocol_grid",
        why: "Tardis and DLS backends do the work and the directory is bypassed, so a Machine refactor that helps DASH and costs them shows here",
    },
    WorkloadDef {
        name: "sharded_64c",
        why: "64-cluster machines on the serial engine, then the same grid on 2 shards: many-cluster construction cost, and machine.shard_speedup for make-it-pay-or-delete-it",
    },
    WorkloadDef {
        name: "telemetry_stream",
        why: "Write side of trace: hooks, ring, JSON line rendering, watermark heap and online classifier inside the event loop, against the plain run",
    },
    WorkloadDef {
        name: "telemetry_replay",
        why: "Read side of trace: stream and trace validators, pattern, span-tree, critical-path, perfetto and attribution replay over one recorded run",
    },
    WorkloadDef {
        name: "check_corpus",
        why: "scd-check's litmus corpus with and without fault edges: Machine::clone, step_explore and state_digest instead of run",
    },
];

/// Exact counts of one pass, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// One checked operation: a grid point, a replay analysis, or a
/// litmus × scenario exploration.
pub struct Op {
    /// What ran.
    pub label: String,
    /// Digest of its deterministic output; every pass must repeat the
    /// first pass's.
    pub digest: u64,
    /// The failed check, if any.
    pub error: Option<String>,
}

impl Op {
    fn new(label: &str, output: impl Hash, error: Option<String>) -> Op {
        let mut h = DefaultHasher::new();
        output.hash(&mut h);
        Op {
            label: label.to_string(),
            digest: h.finish(),
            error,
        }
    }
}

/// One timed segment of a pass or a set-up. Segments tile the work: a
/// grid point, a document, one replay analysis, half the litmus corpus. Every
/// pass runs the same segments in the same order, which is what lets the
/// runner take each segment's quietest time across passes.
#[derive(Clone, Copy)]
pub struct Step {
    /// Host seconds.
    pub seconds: f64,
    /// The calibration sample taken just before the segment, if one was.
    pub cal_s: Option<f64>,
    /// Whether the segment belongs to the half of the pass that `wall_s`
    /// and `events_per_sec` measure. The other half (the shards = 2 grid on
    /// `sharded_64c`, the plain machines on `telemetry_stream`) is the
    /// second term of a per-layer ratio.
    pub headline: bool,
}

/// What set-up and passes report to as they run: the span recorder and the
/// host-speed meter.
pub struct Ctx {
    pub spans: Spans,
    pub meter: Meter,
}

impl Ctx {
    /// [`Spans::time`].
    pub fn time<R>(&self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        self.spans.time(name, label, f)
    }

    /// Runs `f` as one segment of `steps`. The meter takes its sample
    /// first, outside the segment's clock.
    fn step<R>(&self, steps: &mut Vec<Step>, headline: bool, f: impl FnOnce() -> R) -> R {
        let cal_s = self.meter.tick(&self.spans, steps.is_empty());
        let t = Instant::now();
        let out = f();
        steps.push(Step {
            seconds: t.elapsed().as_secs_f64(),
            cal_s,
            headline,
        });
        out
    }
}

/// What one pass did.
#[derive(Default)]
pub struct Pass {
    /// The pass's timed segments, in execution order.
    pub steps: Vec<Step>,
    /// Work units behind `events_per_sec`: events delivered, stream lines
    /// consumed, or states visited.
    pub work: u64,
    /// The checked operations.
    pub ops: Vec<Op>,
    /// Exact counts.
    pub counts: Counts,
}

/// One recorded observed run: the replay workload's input.
pub struct Recording {
    label: String,
    /// The multiplexed JSONL telemetry stream.
    stream: String,
    /// The post-hoc trace export of the same run (`--trace-out`).
    trace: String,
    events: Vec<TraceEvent>,
    intervals: Vec<IntervalSnapshot>,
    /// The rendered `scd-run-stats/v1` document.
    stats_doc: String,
    /// The attribution the machine counted online.
    attribution: Json,
    config: MachineConfig,
}

/// A workload's inputs, built by [`setup`].
pub enum Inputs {
    /// A `scd-sweep` grid; `compare_shards` runs it serially and then on
    /// two shards.
    Grid {
        spec: SweepSpec,
        apps: Vec<AppRun>,
        compare_shards: bool,
    },
    /// Every grid point plain and then fully observed.
    Stream { spec: SweepSpec, apps: Vec<AppRun> },
    /// Offline analyses of one recording.
    Replay(Box<Recording>),
    /// The litmus corpus under every scenario.
    Check {
        corpus: Vec<Litmus>,
        scenarios: Vec<Scenario>,
    },
}

fn spec(
    apps: &[&str],
    sparse: SparseVariant,
    protocols: &[ProtocolKind],
    clusters: usize,
    scale: f64,
    seed: u64,
) -> SweepSpec {
    SweepSpec {
        apps: apps.iter().map(|a| a.to_string()).collect(),
        schemes: vec![Scheme::dir_cv(4, 4)],
        sparse: vec![sparse],
        seeds: vec![seed],
        protocols: protocols.to_vec(),
        scale,
        clusters,
        shards: 1,
    }
}

fn generate(spec: &SweepSpec, cx: &Ctx, steps: &mut Vec<Step>) -> Vec<AppRun> {
    spec.apps
        .iter()
        .map(|app| {
            cx.step(steps, true, || {
                cx.time("apps.generate", app, || {
                    generate_app(app, spec.clusters, spec.seeds[0], spec.scale)
                        .expect("workload specs name known apps")
                })
            })
        })
        .collect()
}

/// Regenerates the eight committed scale-0.25 trajectory points and
/// compares each with its `BENCH_<app>_dir4cv4[_sparse].json`, byte for
/// byte. Always at the committed seed, whatever `--seed` is.
fn baseline_check(cx: &Ctx) -> Vec<Op> {
    let spec = SweepSpec::trajectory(0.25);
    let outcome = cx.time("bench.baseline_sweep", "trajectory@0.25", || {
        run_sweep(&spec, 1)
    });
    outcome
        .runs
        .iter()
        .map(|run| {
            let app = &outcome.apps[run.desc.app_idx];
            let file = bench_json_name(app.name, &run.desc.scheme_label);
            let fresh = format!(
                "{}\n",
                bench_point_document(
                    app,
                    &run.desc.scheme_label,
                    &run.stats,
                    run.attribution.clone()
                )
            );
            let error = match std::fs::read_to_string(&file) {
                Ok(committed) if committed == fresh => None,
                Ok(_) => Some(format!("regenerated point differs from committed {file}")),
                Err(e) => Some(format!("cannot read {file}: {e}")),
            };
            Op::new(&file, &fresh, error)
        })
        .collect()
}

/// What [`setup`] built.
pub struct Setup {
    /// The workload's inputs.
    pub inputs: Inputs,
    /// The set-up's own checked operations: the baseline comparison, and
    /// the recording's completeness on `telemetry_replay`.
    pub ops: Vec<Op>,
    /// Its timed segments: the baseline sweep, each application, the
    /// recording.
    pub steps: Vec<Step>,
}

/// Builds `workload`'s inputs from `seed`.
pub fn setup(workload: &str, seed: u64, smoke: bool, cx: &Ctx) -> Setup {
    let mut steps = Vec::new();
    let mut ops = cx.step(&mut steps, true, || baseline_check(cx));
    let mut grid = |apps: &[&str], sparse, protocols: &[ProtocolKind], clusters, full_scale| {
        let scale = if smoke { 0.25 } else { full_scale };
        let spec = spec(apps, sparse, protocols, clusters, scale, seed);
        let apps = generate(&spec, cx, &mut steps);
        (spec, apps)
    };
    let dash = [ProtocolKind::Dash];
    let inputs = match workload {
        "dense_grid" => {
            let (spec, apps) = grid(&APP_NAMES, SparseVariant::Full, &dash, 32, 1.0);
            Inputs::Grid {
                spec,
                apps,
                compare_shards: false,
            }
        }
        "sparse_grid" => {
            let (spec, apps) = grid(&APP_NAMES, CANONICAL_SPARSE, &dash, 32, 1.0);
            Inputs::Grid {
                spec,
                apps,
                compare_shards: false,
            }
        }
        "protocol_grid" => {
            let protocols = [ProtocolKind::Tardis, ProtocolKind::Dls];
            let (spec, apps) = grid(&APP_NAMES, SparseVariant::Full, &protocols, 32, 1.0);
            Inputs::Grid {
                spec,
                apps,
                compare_shards: false,
            }
        }
        "sharded_64c" => {
            let (spec, apps) = grid(&["lu", "mp3d"], SparseVariant::Full, &dash, 64, 1.0);
            Inputs::Grid {
                spec,
                apps,
                compare_shards: true,
            }
        }
        "telemetry_stream" => {
            let (spec, apps) = grid(&["lu", "mp3d"], CANONICAL_SPARSE, &dash, 32, 0.5);
            Inputs::Stream { spec, apps }
        }
        "telemetry_replay" => {
            let (spec, apps) = grid(&["lu"], CANONICAL_SPARSE, &dash, 32, 0.5);
            let (recording, op) = cx.step(&mut steps, true, || record(&spec, &apps[0], cx));
            ops.push(op);
            Inputs::Replay(Box::new(recording))
        }
        "check_corpus" => Inputs::Check {
            corpus: corpus(),
            scenarios: scenarios(),
        },
        other => panic!("unknown workload `{other}`"),
    };
    Setup { inputs, ops, steps }
}

/// Runs one pass over `inputs`.
pub fn pass(inputs: &Inputs, cx: &Ctx) -> Pass {
    match inputs {
        Inputs::Grid {
            spec,
            apps,
            compare_shards,
        } => grid_pass(spec, apps, *compare_shards, cx),
        Inputs::Stream { spec, apps } => stream_pass(spec, apps, cx),
        Inputs::Replay(rec) => replay_pass(rec, cx),
        Inputs::Check { corpus, scenarios } => check_pass(corpus, scenarios, cx),
    }
}

/// The machine configuration probes take their geometry from: the
/// workload's first grid point, the recording's machine, or the first
/// litmus under the first scenario.
pub fn geometry(inputs: &Inputs) -> MachineConfig {
    match inputs {
        Inputs::Grid { spec, apps, .. } | Inputs::Stream { spec, apps } => {
            build_config(&spec.descriptors()[0], &apps[0], spec)
        }
        Inputs::Replay(rec) => rec.config.clone(),
        Inputs::Check { corpus, scenarios } => corpus[0].config(&scenarios[0], false),
    }
}

// ----------------------------------------------------------------------
// Grid workloads: what `scd-sweep` does per point, then its document.
// ----------------------------------------------------------------------

fn grid_pass(spec: &SweepSpec, apps: &[AppRun], compare_shards: bool, cx: &Ctx) -> Pass {
    let mut p = Pass::default();
    let (serial, mut doc) = grid_half(spec, apps, 1, true, cx, &mut p.steps);
    for (_, result) in &serial {
        if let Ok((stats, _, _)) = result {
            tally(&mut p.counts, stats);
        }
    }
    if compare_shards {
        let (sharded, sharded_doc) = grid_half(spec, apps, 2, false, cx, &mut p.steps);
        p.ops = grid_ops(&sharded, apps, Some(&serial));
        doc = sharded_doc;
    } else {
        p.ops = grid_ops(&serial, apps, None);
    }
    p.ops.push(Op::new("sweep_document", &doc, None));
    p.work = p.counts.get("sim.events_delivered").copied().unwrap_or(0);
    p
}

type GridRun = (
    RunDescriptor,
    Result<(RunStats, Option<Json>, Option<Json>), String>,
);

/// Runs every point of `spec` on `shards` shards and renders the sweep
/// document, as `scd-sweep --jobs 1 --shards <n> --no-timing` does.
fn grid_half(
    spec: &SweepSpec,
    apps: &[AppRun],
    shards: usize,
    headline: bool,
    cx: &Ctx,
    steps: &mut Vec<Step>,
) -> (Vec<GridRun>, String) {
    let (new, run) = if shards > 1 {
        ("machine.shard_new", "machine.shard_run")
    } else {
        ("machine.new", "machine.run")
    };
    let runs: Vec<GridRun> = spec
        .descriptors()
        .into_iter()
        .map(|desc| {
            let result = cx.step(steps, headline, || {
                let app = &apps[desc.app_idx];
                let id = desc.id.as_str();
                let cfg = cx.time("bench.build_config", id, || build_config(&desc, app, spec));
                let tc = TraceConfig::none().with_attribution(true);
                cx.time(new, id, || {
                    ShardedMachine::new(cfg.with_trace(tc), app.boxed_programs(), shards)
                })
                .and_then(|mut m| {
                    let stats = cx
                        .time(run, id, || m.try_run())
                        .map_err(|e| e.to_string())?;
                    let attrib = cx.time("machine.attribution_json", id, || {
                        m.attribution_json(stats.cycles)
                    });
                    let trace = m.trace_json();
                    cx.time("machine.drop", id, || drop(m));
                    Ok((stats, attrib, trace))
                })
            });
            (desc, result)
        })
        .collect();
    // The document wants owned runs; failed points are reported by
    // `grid_ops` and left out of it.
    let outcome = SweepOutcome {
        runs: runs
            .iter()
            .filter_map(|(desc, r)| {
                let (stats, attribution, trace) = r.as_ref().ok()?.clone();
                Some(SweepRun {
                    desc: desc.clone(),
                    stats,
                    attribution,
                    trace,
                    wall_seconds: 0.0,
                })
            })
            .collect(),
        jobs: 1,
        wall_seconds: 0.0,
        apps: apps.to_vec(),
    };
    let text = cx.step(steps, headline, || {
        let doc = cx.time("bench.sweep_document", "", || {
            sweep_document(&outcome, spec, false)
        });
        cx.time("trace.json_render", "sweep_document", || doc.to_string())
    });
    (runs, text)
}

/// Adds one finished run's statistics to the pass's exact counts.
fn tally(counts: &mut Counts, stats: &RunStats) {
    let mut add = |name: &'static str, n: u64| *counts.entry(name).or_default() += n;
    add("sim_cycles", stats.cycles);
    add("sim_messages", stats.traffic.total());
    add("sim.events_delivered", stats.events_delivered);
    add("machine.shared_refs", stats.shared_refs());
    add("mem.l2_misses", stats.l2_misses);
    let sparse = stats.sparse.unwrap_or_default();
    add("core.sparse_hits", sparse.hits);
    add("core.sparse_misses", sparse.misses);
    add("core.sparse_replacements", sparse.replacements);
    add("core.live_dir_entries", stats.live_dir_entries as u64);
    add("noc.messages", stats.network.messages);
    add("noc.hops", stats.network.hops);
    add(
        "protocol.invalidations",
        stats.traffic.get(MessageClass::Invalidation),
    );
    add("protocol.forwards", stats.protocol.forwards);
    add(
        "protocol.replacement_flushes",
        stats.protocol.replacement_flushes,
    );
    add("protocol.sparse_stalls", stats.protocol.sparse_stalls);
    add(
        "machine.tardis_renewals",
        stats.tardis.map_or(0, |t| t.renewals),
    );
    add(
        "machine.dls_llc_fills",
        stats.dls.map_or(0, |d| d.llc_fills),
    );
}

/// One operation per grid point: the run finished, retired every
/// reference the generator issued, and (when `reference` is given)
/// produced the reference half's statistics exactly.
fn grid_ops(runs: &[GridRun], apps: &[AppRun], reference: Option<&[GridRun]>) -> Vec<Op> {
    runs.iter()
        .enumerate()
        .map(|(i, (desc, result))| match result {
            Err(e) => Op::new(&desc.id, "", Some(format!("run failed: {e}"))),
            Ok((stats, _, _)) => {
                let text = stats.to_json().to_string();
                let issued = apps[desc.app_idx].shared_refs();
                let error = if stats.shared_refs() != issued {
                    Some(format!(
                        "retired {} shared references, generator issued {issued}",
                        stats.shared_refs()
                    ))
                } else {
                    reference.and_then(|r| match &r[i].1 {
                        Ok((base, _, _)) if base.to_json().to_string() == text => None,
                        Ok(_) => Some("statistics differ from the reference half".to_string()),
                        Err(e) => Some(format!("reference half failed: {e}")),
                    })
                };
                Op::new(&desc.id, &text, error)
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// telemetry_stream: each machine plain, then fully observed.
// ----------------------------------------------------------------------

/// A sink that counts what it is given and keeps nothing, so the pass
/// times the machine's side of streaming and not a disk.
struct CountingSink {
    lines: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, line: &str) {
        // Statistics only: nothing is published through these counters.
        self.lines.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
    }

    fn flush(&mut self) {}
}

/// The telemetry `scdsim --stream-out --stats-json --patterns-out
/// --interval-stats 10000` turns on.
fn observed_config(ring: usize) -> TraceConfig {
    TraceConfig::full(ring)
        .with_interval(10_000)
        .with_attribution(true)
        .with_patterns(true)
}

fn run_meta(desc: &RunDescriptor, spec: &SweepSpec) -> Json {
    Json::obj()
        .with("app", Json::Str(desc.app.clone()))
        .with("scheme", Json::Str(desc.scheme_label.clone()))
        .with("clusters", Json::U64(spec.clusters as u64))
        .with("seed", Json::U64(desc.seed))
        .with("scale", Json::F64(spec.scale))
}

/// What an observed run leaves behind.
struct Observed {
    stats: RunStats,
    machine: Machine,
    attribution: Json,
    /// The rendered `scd-run-stats/v1` document.
    stats_doc: String,
    /// The rendered occupancy section.
    occupancy: String,
}

/// Runs one grid point with every observer on, streaming into `sink`, and
/// renders the documents `scdsim` would write afterwards.
fn run_observed(
    desc: &RunDescriptor,
    app: &AppRun,
    spec: &SweepSpec,
    ring: usize,
    sink: Box<dyn TraceSink>,
    cx: &Ctx,
) -> Result<Observed, String> {
    let id = desc.id.as_str();
    let cfg = cx.time("bench.build_config", id, || build_config(desc, app, spec));
    let meta = run_meta(desc, spec);
    let mut machine = cx.time("machine.new", id, || {
        Machine::new(cfg.with_trace(observed_config(ring)), app.boxed_programs())
    });
    cx.time("machine.attach_stream", id, || {
        machine.attach_stream(sink, Some(meta.clone()))
    });
    let stats = cx
        .time("machine.run_observed", id, || machine.try_run())
        .map_err(|e| e.to_string())?;
    let attribution = cx
        .time("machine.attribution_json", id, || {
            machine.attribution_json(stats.cycles)
        })
        .ok_or("attribution was on but produced no section")?;
    let occupancy = cx
        .time("machine.occupancy_json", id, || machine.occupancy_json())
        .ok_or("patterns were on but produced no occupancy section")?;
    let doc = cx.time("machine.stats_document", id, || {
        stats.to_json_document(
            Some(meta),
            Some(machine.metrics()),
            Some(attribution.clone()),
            machine.trace_json(),
            None,
        )
    });
    let (stats_doc, occupancy) = cx.time("trace.json_render", id, || {
        (doc.to_string(), occupancy.to_string())
    });
    Ok(Observed {
        stats,
        machine,
        attribution,
        stats_doc,
        occupancy,
    })
}

fn stream_pass(spec: &SweepSpec, apps: &[AppRun], cx: &Ctx) -> Pass {
    let mut p = Pass::default();
    let lines = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    for desc in spec.descriptors() {
        let app = &apps[desc.app_idx];
        let id = desc.id.as_str();
        let plain_stats = cx.step(&mut p.steps, false, || {
            let cfg = cx.time("bench.build_config", id, || build_config(&desc, app, spec));
            let mut plain = cx.time("machine.new", id, || {
                Machine::new(cfg, app.boxed_programs())
            });
            let stats = cx.time("machine.run_plain", id, || plain.try_run());
            cx.time("machine.drop", id, || drop(plain));
            stats
        });
        let observed = cx.step(&mut p.steps, true, || {
            let sink = CountingSink {
                lines: lines.clone(),
                bytes: bytes.clone(),
            };
            run_observed(&desc, app, spec, 4096, Box::new(sink), cx).map(|o| {
                let Observed {
                    stats,
                    machine,
                    stats_doc,
                    occupancy,
                    ..
                } = o;
                cx.time("machine.drop", id, || drop(machine));
                (stats, stats_doc, occupancy)
            })
        });

        let error = match (&plain_stats, &observed) {
            (Err(e), _) => Some(format!("plain run failed: {e}")),
            (_, Err(e)) => Some(format!("observed run failed: {e}")),
            (Ok(plain), Ok((seen, _, _))) => {
                tally(&mut p.counts, plain);
                (plain.to_json().to_string() != seen.to_json().to_string())
                    .then(|| "observed statistics differ from the plain run's".to_string())
            }
        };
        p.ops.push(Op::new(
            id,
            observed.ok().map(|(_, doc, occ)| (doc, occ)),
            error,
        ));
    }
    p.work = p.counts.get("sim.events_delivered").copied().unwrap_or(0);
    p.counts
        .insert("trace.sink_lines", lines.load(Ordering::Relaxed));
    p.counts
        .insert("trace.sink_bytes", bytes.load(Ordering::Relaxed));
    p
}

// ----------------------------------------------------------------------
// telemetry_replay: the offline tools over one recording.
// ----------------------------------------------------------------------

/// Ring slots per cluster when recording: above any cluster's event count
/// at the recorded size, so nothing is evicted (set-up checks that).
const RECORDING_RING: usize = 1 << 18;

/// Records one observed run of `app` for the replay workload. The
/// operation fails when the ring evicted events, because every replay
/// check assumes a complete history.
fn record(spec: &SweepSpec, app: &AppRun, cx: &Ctx) -> (Recording, Op) {
    let desc = &spec.descriptors()[0];
    let sink = BufferSink::new();
    let lines = sink.handle();
    let o = run_observed(desc, app, spec, RECORDING_RING, Box::new(sink), cx)
        .unwrap_or_else(|e| panic!("cannot record {}: {e}", desc.id));
    let (_, dropped) = o.machine.trace_counts();
    let events = o.machine.trace_events();
    let mut stream = String::new();
    for line in lines
        .lock()
        .expect("the run that wrote the buffer has finished")
        .iter()
    {
        stream.push_str(line);
        stream.push('\n');
    }
    let mut trace = String::new();
    for ev in &events {
        trace.push_str(&ev.to_json().to_string());
        trace.push('\n');
    }
    let error = (dropped > 0).then(|| format!("recording ring evicted {dropped} events"));
    let op = Op::new("record", (&stream, &o.stats_doc, &o.occupancy), error);
    let recording = Recording {
        label: desc.id.clone(),
        stream,
        trace,
        events,
        intervals: o.machine.metrics().intervals.clone(),
        stats_doc: o.stats_doc,
        attribution: o.attribution,
        config: o.machine.config().clone(),
    };
    (recording, op)
}

fn replay_pass(rec: &Recording, cx: &Ctx) -> Pass {
    let mut p = Pass::default();
    let id = rec.label.as_str();
    // Runs one analysis as a timed segment and records its verdict: `Ok`
    // carries the output every pass must reproduce.
    // Hands a successful output back, for the analysis that consumes it.
    let op = |p: &mut Pass, name: &str, f: &mut dyn FnMut() -> Result<String, String>| {
        let (output, error) = match cx.step(&mut p.steps, true, f) {
            Ok(output) => (output, None),
            Err(e) => (String::new(), Some(e)),
        };
        let ok = error.is_none();
        p.ops.push(Op::new(name, &output, error));
        ok.then_some(output)
    };

    let mut lines = 0;
    op(&mut p, "validate_stream", &mut || {
        let summary = cx.time("trace.validate_stream", id, || validate_stream(&rec.stream))?;
        lines = summary.lines as u64;
        Ok(format!("{summary:?}"))
    });
    op(&mut p, "extract_trace_lines", &mut || {
        let extracted = cx.time("trace.extract_trace_lines", id, || {
            extract_trace_lines(&rec.stream)
        });
        if extracted == rec.trace {
            Ok(String::new())
        } else {
            Err("extracted lines differ from the recorded trace".into())
        }
    });
    op(&mut p, "validate_trace", &mut || {
        cx.time("trace.validate_trace", id, || validate_trace(&rec.trace))
            .map(|s| format!("{s:?}"))
    });
    op(&mut p, "patterns_from_trace", &mut || {
        cx.time("trace.patterns_from_trace", id, || {
            PatternTable::from_trace(&rec.trace).map(|t| t.document(None, None).to_string())
        })
    });
    let mut tree = None;
    op(&mut p, "span_tree", &mut || {
        let built = cx.time("trace.span_tree", id, || SpanTree::from_events(&rec.events));
        built.check()?;
        tree = Some(built);
        Ok(String::new())
    });
    if let Some(tree) = &tree {
        op(&mut p, "to_folded", &mut || {
            Ok(cx.time("trace.to_folded", id, || tree.to_folded()))
        });
        op(&mut p, "critical_analyze", &mut || {
            Ok(cx.time("trace.critical_analyze", id, || {
                analyze(tree).to_json(16).to_string()
            }))
        });
        let perfetto = op(&mut p, "to_perfetto", &mut || {
            Ok(cx.time("trace.to_perfetto", id, || {
                to_perfetto(tree, &rec.intervals).to_string()
            }))
        });
        if let Some(perfetto) = &perfetto {
            op(&mut p, "validate_perfetto", &mut || {
                cx.time("trace.validate_perfetto", id, || {
                    validate_perfetto(perfetto)
                })
                .map(|s| format!("{s:?}"))
            });
        }
    }
    op(&mut p, "attrib_from_events", &mut || {
        let params = AttribParams::with_block_bytes(rec.config.block_bytes);
        let offline = cx.time("trace.attrib_from_events", id, || {
            Attribution::from_events(&rec.events, params)
        });
        let classes = |j: &Json| j.get("classes").map(Json::to_string);
        if classes(&offline.to_json()) == classes(&rec.attribution) {
            Ok(String::new())
        } else {
            Err("attribution replayed from events differs from the machine's".into())
        }
    });
    op(&mut p, "stats_document", &mut || {
        let doc = cx.time("trace.json_parse", id, || {
            validate_stats_json(&rec.stats_doc).and_then(|()| Json::parse(&rec.stats_doc))
        })?;
        let cmp = cx.time("trace.compare_docs", id, || compare_docs(&doc, &doc, 0.0))?;
        if cmp.ok() {
            Ok(cmp.render())
        } else {
            Err("a stats document does not compare clean against itself".into())
        }
    });

    p.work = lines;
    p.counts
        .insert("trace.stream_bytes", rec.stream.len() as u64);
    p
}

// ----------------------------------------------------------------------
// check_corpus: scd-check over the corpus, without and with fault edges.
// ----------------------------------------------------------------------

fn check_pass(corpus: &[Litmus], scenarios: &[Scenario], cx: &Ctx) -> Pass {
    let mut p = Pass::default();
    // The edges `scd-check --fault-nack --fault-delay 40 --fault-dup 40`
    // adds to each litmus's own.
    for (span, with_faults) in [("check.explore", false), ("check.explore_faults", true)] {
        // One segment per half: an exploration takes a millisecond or two,
        // too short to put a calibration sample before each, and samples
        // must fall before the same work in every pass.
        let outs = cx.step(&mut p.steps, true, || {
            let mut outs = Vec::with_capacity(corpus.len() * scenarios.len());
            for l in corpus {
                for s in scenarios {
                    let label = format!(
                        "{}/{}{}",
                        l.name,
                        s.label,
                        if with_faults { "/faults" } else { "" }
                    );
                    let cfg = ExploreConfig {
                        faults: if with_faults {
                            FaultEdges {
                                nack: true,
                                delay: Some(40),
                                dup: Some(40),
                            }
                        } else {
                            l.faults
                        },
                        fault_budget: l.fault_budget,
                        ..ExploreConfig::default()
                    };
                    let build =
                        || cx.time("check.litmus_build", &label, || l.build(s, None, false));
                    let out = cx.time(span, &label, || explore(&build, &cfg));
                    outs.push((label, out));
                }
            }
            outs
        });
        for (label, out) in outs {
            *p.counts.entry("check.states").or_default() += out.visited;
            *p.counts.entry("check.leaves").or_default() += out.leaves;
            let error = match &out.violation {
                Some(v) => Some(format!("violation: {}", v.error)),
                None if out.truncated => Some("search truncated".to_string()),
                None => None,
            };
            p.ops
                .push(Op::new(&label, (out.visited, out.leaves), error));
        }
    }
    p.work = p.counts["check.states"];
    p
}
