//! Observability suite: the `scd-trace` subsystem must watch the machine
//! without perturbing it. Tracing/metrics left off (or configured inert)
//! keeps a fixed-seed run bit-identical; tracing turned on yields a JSONL
//! transaction log that replays through `validate_trace`'s lifecycle
//! invariants (no reply before its request, retries monotonically backed
//! off), interval snapshots that tile the run, latency metrics with a
//! stable JSON schema, and post-mortems that carry per-cluster trace tails.

use scd::machine::{Machine, MachineConfig, ProtocolKind, RunStats, SimError};
use scd::noc::FaultPlan;
use scd::sim::SimRng;
use scd::tango::{Op, Script};
use scd::trace::{
    analyze, extract_trace_lines, to_perfetto, validate_perfetto, validate_stats_json,
    validate_stream, validate_trace, AttribClass, Attribution, BufferSink, Json, SpanTree,
    TraceConfig, TraceSink,
};

/// A random read/write mix over a small hot block set (the coherence
/// stress suite's shape, shortened for debug builds).
fn random_programs(
    procs: usize,
    ops_per_proc: usize,
    blocks: u64,
    write_ratio: f64,
    seed: u64,
) -> Vec<Script> {
    let mut root = SimRng::new(seed);
    (0..procs)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            let mut ops = Vec::with_capacity(ops_per_proc);
            for _ in 0..ops_per_proc {
                let addr = rng.below(blocks) * 16;
                if rng.chance(write_ratio) {
                    ops.push(Op::Write(addr));
                } else {
                    ops.push(Op::Read(addr));
                }
                if rng.chance(0.3) {
                    ops.push(Op::Compute(rng.below(20)));
                }
            }
            Script::from(ops)
        })
        .collect()
}

fn run_with_trace(trace: Option<TraceConfig>, seed: u64) -> (Machine, RunStats) {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = trace;
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, seed);
    let mut machine = Machine::new(cfg, programs);
    let stats = machine.try_run().expect("run must quiesce");
    (machine, stats)
}

/// The inert-by-default contract (ISSUE 2 acceptance): with tracing and
/// metrics disabled, a fixed-seed run's `RunStats` is bit-identical to a
/// machine that never heard of tracing. The comparison goes through the
/// stable JSON rendering so every exported field participates.
#[test]
fn disabled_tracing_is_bit_identical() {
    let (_, base) = run_with_trace(None, 0x7E1E);
    let (_, inert) = run_with_trace(Some(TraceConfig::none()), 0x7E1E);
    assert_eq!(base.to_json().to_string(), inert.to_json().to_string());
    assert_eq!(base.cycles, inert.cycles);
    assert_eq!(base.traffic, inert.traffic);
}

/// Stronger than the contract requires: the recorder's hooks only borrow
/// machine state, so no observer combination may move a single cycle,
/// message or load value. Every subset of {ring, metrics, interval,
/// attribution, patterns}, with and without an attached sink,
/// under every protocol backend, against the run that never heard of
/// tracing: identical `RunStats` JSON and identical value-oracle report.
#[test]
fn active_tracing_does_not_perturb_the_run() {
    for protocol in ProtocolKind::ALL {
        let run = |trace: Option<TraceConfig>, sink: bool| {
            let mut cfg = MachineConfig::tiny(6).with_protocol(protocol);
            cfg.value_oracle = true;
            cfg.trace = trace;
            let programs = random_programs(cfg.processors(), 120, 24, 0.4, 0x7E1E);
            let mut machine = Machine::new(cfg, programs);
            if sink {
                machine.attach_stream(Box::new(BufferSink::new()), None);
            }
            let stats = machine.try_run().expect("run must quiesce");
            let oracle = machine.value_oracle_report().expect("oracle was on");
            (stats.to_json().to_string(), oracle, machine.trace_counts().0)
        };
        let (base_stats, base_oracle, _) = run(None, false);
        for bits in 0..32u32 {
            let on = |bit: u32| bits & (1 << bit) != 0;
            let tc = TraceConfig {
                ring_capacity: if on(0) { 4096 } else { 0 },
                metrics: on(1),
                interval: if on(2) { 500 } else { 0 },
                attribution: on(3),
                patterns: on(4),
            };
            for sink in [false, true] {
                let what = format!("{} {tc:?} sink={sink}", protocol.name());
                let (stats, oracle, recorded) = run(Some(tc), sink);
                assert_eq!(stats, base_stats, "stats moved: {what}");
                assert_eq!(oracle, base_oracle, "load values moved: {what}");
                // Events exist for a ring that retains them or a stream
                // that carries them, and for nobody else.
                let read = tc.ring_capacity > 0 || (sink && tc.is_active());
                assert_eq!(recorded > 0, read, "recording gate: {what}");
            }
        }
    }
}

/// Stream-order pin for boundaries that close together. With a 50-cycle
/// period and every processor inside a 400-cycle compute gap, the event
/// that ends the gap closes eight boundaries at once; each window's
/// records must still arrive whole — `interval`, `attrib_delta`,
/// `patterns` — before the next window's, with the stream valid overall.
#[test]
fn windows_closing_on_one_event_stream_whole_and_in_order() {
    let mut cfg = MachineConfig::tiny(4);
    cfg.trace = Some(
        TraceConfig::full(1 << 12)
            .with_interval(50)
            .with_patterns(true),
    );
    let programs: Vec<Script> = (0..cfg.processors() as u64)
        .map(|p| {
            let ops = vec![
                Op::Write(p * 16),
                Op::Read(((p + 1) % 4) * 16),
                Op::Compute(400),
                Op::Write(((p + 2) % 4) * 16),
                Op::Compute(400),
                Op::Read(p * 16),
            ];
            Script::from(ops)
        })
        .collect();
    let mut machine = Machine::new(cfg, programs);
    let sink = BufferSink::new();
    let lines = sink.handle();
    machine.attach_stream(Box::new(sink), None);
    machine.try_run().expect("run must quiesce");
    let lines = lines.lock().unwrap();
    let stream = lines.join("\n") + "\n";
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("stream invalid: {e}"));
    assert!(summary.run_ended);

    let kinds: Vec<String> = lines
        .iter()
        .map(|l| {
            let obj = Json::parse(l).expect("stream line parses");
            obj.get("type").and_then(Json::as_str).expect("typed line").to_owned()
        })
        .collect();
    const WINDOW: [&str; 3] = ["interval", "attrib_delta", "patterns"];
    let mut windows = 0;
    let mut back_to_back = 0;
    let mut i = 0;
    while i < kinds.len() {
        if kinds[i] == WINDOW[0] {
            let got: Vec<&str> = kinds[i..].iter().take(3).map(String::as_str).collect();
            assert_eq!(got, WINDOW, "window {windows} is not whole (line {i})");
            windows += 1;
            if kinds.get(i + 3).is_some_and(|k| k == WINDOW[0]) {
                back_to_back += 1;
            }
            i += 3;
        } else {
            // A trace event (or the closing run_end): never a window
            // record that lost its window.
            assert!(
                !WINDOW.contains(&kinds[i].as_str()),
                "stray {} record outside a window (line {i})",
                kinds[i]
            );
            i += 1;
        }
    }
    assert_eq!(windows, summary.intervals);
    assert_eq!(windows, machine.metrics().intervals.len());
    assert!(
        back_to_back >= 7,
        "no event closed several boundaries at once ({back_to_back} adjacent windows)"
    );
}

/// The acceptance-criteria replay test: record a run (with injected NACKs
/// so the retry path fires), export the merged trace as JSONL, and replay
/// it through the validator, which enforces per-transaction phase ordering
/// (begin before phases before end, latency consistent — no reply before
/// its request) and monotonically backed-off retries.
#[test]
fn recorded_trace_replays_with_lifecycle_invariants_intact() {
    let mut cfg = MachineConfig::tiny(6).with_trace(TraceConfig::full(1 << 16));
    cfg.fault_plan = Some(FaultPlan::nack(0.25));
    cfg.watchdog_cycles = 1_000_000;
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0xBEEF);
    let mut machine = Machine::new(cfg, programs);
    let stats = machine.try_run().expect("faulty run must still quiesce");
    assert!(stats.faults.retries > 0, "fault plan failed to inject NACKs");

    let jsonl: String = machine
        .trace_events()
        .iter()
        .map(|e| e.to_json().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    let summary = validate_trace(&jsonl).unwrap_or_else(|e| panic!("replay failed: {e}"));
    assert!(summary.transactions > 0);
    assert!(summary.completed > 0, "no transaction observed end-to-end");
    assert!(
        summary.by_type.get("retry").copied().unwrap_or(0) > 0,
        "backoff invariant never exercised: {:?}",
        summary.by_type
    );
    assert!(summary.by_type["msg_send"] >= summary.by_type["msg_deliver"]);
}

/// Interval snapshots must tile simulated time: contiguous windows of the
/// configured width, and their retired-op deltas must sum to at most the
/// whole run's total (the tail after the last boundary is not snapshot).
#[test]
fn interval_snapshots_tile_the_run() {
    const PERIOD: u64 = 500;
    let trace = TraceConfig::full(1024).with_interval(PERIOD);
    let (machine, stats) = run_with_trace(Some(trace), 0x7E1E);
    let intervals = &machine.metrics().intervals;
    assert!(!intervals.is_empty(), "run too short for any interval");
    let mut expect_start = 0;
    for snap in intervals {
        assert_eq!(snap.start, expect_start, "windows must be contiguous");
        assert_eq!(snap.end, snap.start + PERIOD, "windows must be uniform");
        expect_start = snap.end;
    }
    let ops: u64 = intervals.iter().map(|s| s.ops_retired).sum();
    let total = stats.shared_reads + stats.shared_writes + stats.sync_ops;
    assert!(ops <= total, "interval ops {ops} exceed run total {total}");
    assert!(ops > 0, "no operation retired inside any window");
}

/// Latency metrics must see every completed transaction, agree with the
/// machine's own miss accounting, and export under the stable
/// `scd-run-stats/v1` schema (the `BENCH_*.json` / `--stats-json` format).
#[test]
fn metrics_registry_reports_latency_histograms() {
    let (machine, stats) = run_with_trace(Some(TraceConfig::full(64)), 0x7E1E);
    let m = machine.metrics();
    assert!(m.transactions() > 0);
    assert!(m.read_latency.events() > 0 && m.write_latency.events() > 0);
    assert!(m.read_latency.percentile(0.5) > 0, "a remote read takes cycles");
    assert!(
        m.read_latency.percentile(0.99) >= m.read_latency.percentile(0.5),
        "percentiles must be monotone"
    );
    let doc = stats
        .to_json_document(None, Some(m), None, machine.trace_json(), None)
        .to_string();
    validate_stats_json(&doc).unwrap_or_else(|e| panic!("schema broke: {e}\n{doc}"));
}

/// Attribution-only profiling obeys the same inertness contract as the
/// rest of the subsystem: byte/flit/link counters may not move a cycle,
/// and the counters themselves live *outside* `RunStats`, so the exported
/// stats stay bit-identical while the machine gains an attribution view.
#[test]
fn attribution_counters_do_not_perturb_the_run() {
    let (_, base) = run_with_trace(None, 0x7E1E);
    let mut tc = TraceConfig::none();
    tc.attribution = true;
    let (machine, stats) = run_with_trace(Some(tc), 0x7E1E);
    assert_eq!(base.to_json().to_string(), stats.to_json().to_string());
    let attrib = machine.attribution().expect("attribution was on");
    assert_eq!(
        attrib.totals().messages,
        stats.traffic.total(),
        "every message the traffic tally saw must be classified"
    );
    let doc = stats
        .to_json_document(None, None, machine.attribution_json(stats.cycles), None, None)
        .to_string();
    validate_stats_json(&doc).unwrap_or_else(|e| panic!("attrib schema broke: {e}\n{doc}"));
}

/// The online send-hook counters and an offline pass over the recorded
/// event stream are two independent implementations of the same
/// classification; with a ring deep enough to drop nothing they must agree
/// class-for-class on messages, bytes, flits, and flit-hops.
#[test]
fn online_and_offline_attribution_agree() {
    let (machine, _) = run_with_trace(Some(TraceConfig::full(1 << 16)), 0x7E1E);
    let (_, dropped) = machine.trace_counts();
    assert_eq!(dropped, 0, "ring too small; offline pass would be partial");
    let online = machine.attribution().expect("full tracing enables attribution");
    let offline = Attribution::from_events(&machine.trace_events(), online.params());
    assert_eq!(online.totals(), offline.totals());
    for class in AttribClass::ALL {
        assert_eq!(online.class(class), offline.class(class), "{}", class.label());
    }
}

/// Span-tree well-formedness on a clean run: every `TxnBegin` that saw its
/// `TxnEnd` closes, phases tile the transaction contiguously, and message
/// leaves nest inside their phase — `SpanTree::check` enforces all of it.
#[test]
fn span_tree_is_well_formed_for_a_clean_run() {
    let (machine, _) = run_with_trace(Some(TraceConfig::full(1 << 16)), 0x7E1E);
    let tree = SpanTree::from_events(&machine.trace_events());
    tree.check().unwrap_or_else(|e| panic!("malformed span tree: {e}"));
    assert!(tree.completed() > 0, "no transaction completed");
    assert_eq!(
        tree.txns.iter().filter(|t| t.end.is_none()).count(),
        0,
        "a quiesced run leaves no transaction open"
    );
    assert!(tree.attributed_msgs() > 0, "no message found its transaction");
}

/// The tree must stay well-formed when the protocol is under attack:
/// injected NACKs force retries, which stretch transactions across many
/// issue phases, and the span builder may not tangle them.
#[test]
fn span_tree_is_well_formed_under_nack_retry_faults() {
    let mut cfg = MachineConfig::tiny(6).with_trace(TraceConfig::full(1 << 16));
    cfg.fault_plan = Some(FaultPlan::nack(0.25));
    cfg.watchdog_cycles = 1_000_000;
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0xBEEF);
    let mut machine = Machine::new(cfg, programs);
    machine.try_run().expect("faulty run must still quiesce");
    let tree = SpanTree::from_events(&machine.trace_events());
    tree.check().unwrap_or_else(|e| panic!("malformed span tree under faults: {e}"));
    assert!(
        tree.txns.iter().any(|t| t.retries > 0),
        "fault plan never forced a retry"
    );
    assert!(
        tree.txns.iter().any(|t| t.nacks > 0),
        "fault plan never landed a NACK"
    );
}

/// The Perfetto export of a traced run must pass the schema/stack checks
/// `scd-telemetry validate --perfetto` applies: slices nest per lane,
/// counter tracks ride on their own pid, and metadata names every cluster
/// process.
#[test]
fn perfetto_export_passes_validation() {
    let trace = TraceConfig::full(1 << 16).with_interval(500);
    let (machine, _) = run_with_trace(Some(trace), 0x7E1E);
    let tree = SpanTree::from_events(&machine.trace_events());
    let doc = to_perfetto(&tree, &machine.metrics().intervals).to_string();
    let summary =
        validate_perfetto(&doc).unwrap_or_else(|e| panic!("perfetto export invalid: {e}"));
    assert!(summary.slices > 0, "no slices exported");
    assert!(summary.counters > 0, "interval counters missing");
    assert!(summary.meta > 0, "process-name metadata missing");
    // Folded stacks come from the same tree; a quick sanity pass.
    let folded = tree.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack <space> weight");
        assert!(weight.parse::<u64>().is_ok(), "bad weight in {line:?}");
        assert!(
            stack.starts_with("read")
                || stack.starts_with("write")
                || stack.starts_with("background"),
            "stack root must be a transaction kind or the background lane: {line:?}"
        );
    }
}

/// The export is rendered straight into text, never through a `Json`
/// tree. For the four paper applications it must still be a document the
/// tree parser reads and renders back byte for byte (field order, number
/// forms and escapes are all `Json`'s `Display`), and it must validate.
#[test]
fn perfetto_export_of_every_app_is_the_text_a_json_tree_would_render() {
    let cfg = MachineConfig::tiny(8).with_trace(TraceConfig::full(1 << 18).with_interval(2_000));
    for app in scd::apps::suite(cfg.processors(), 11, 0.03) {
        let mut machine = Machine::new(cfg.clone(), app.scripts());
        machine.run();
        let tree = SpanTree::from_events(&machine.trace_events());
        let text = to_perfetto(&tree, &machine.metrics().intervals);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert_eq!(doc.to_string(), text, "{}", app.name);
        let summary = validate_perfetto(&text).unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert_eq!(summary.events, events.len() as u64, "{}", app.name);
        assert!(summary.slices > 0 && summary.async_ops > 0 && summary.counters > 0);
    }
}

/// PR 1's post-mortems gain causal history: when a NACK storm trips the
/// livelock watchdog under tracing, the `PostMortem` must attach the
/// starving cluster's trace tail, and the rendered report must show it.
#[test]
fn post_mortem_attaches_trace_tails_for_stuck_clusters() {
    let cfg = MachineConfig {
        fault_plan: Some(FaultPlan::nack(1.0)),
        watchdog_cycles: 50_000,
        ..MachineConfig::tiny(2).with_trace(TraceConfig::full(256))
    };
    let programs: Vec<Script> = vec![
        Script::from(vec![]),
        // Block 0's home is cluster 0, so cluster 1's read is remote and
        // retries forever against the permanent NACKs.
        Script::from(vec![Op::Read(0)]),
    ];
    let err = Machine::new(cfg, programs).try_run().expect_err("must livelock");
    let SimError::LivelockWatchdog(pm) = &err else {
        panic!("expected LivelockWatchdog, got {err}");
    };
    assert!(!pm.trace_tails.is_empty(), "no trace tail attached: {err}");
    let tail_text: String = pm
        .trace_tails
        .iter()
        .flat_map(|(_, lines)| lines.iter())
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        tail_text.contains("Retry") || tail_text.contains("Nack"),
        "tail shows the NACK/retry storm: {tail_text}"
    );
    assert!(err.to_string().contains("trace tail"), "{err}");
}

/// Without tracing the post-mortem stays as PR 1 shipped it: no tails.
#[test]
fn post_mortem_has_no_tails_when_tracing_is_off() {
    let cfg = MachineConfig {
        fault_plan: Some(FaultPlan::nack(1.0)),
        watchdog_cycles: 50_000,
        ..MachineConfig::tiny(2)
    };
    let programs: Vec<Script> = vec![
        Script::from(vec![]),
        Script::from(vec![Op::Read(0)]),
    ];
    let err = Machine::new(cfg, programs).try_run().expect_err("must livelock");
    assert!(err.post_mortem().trace_tails.is_empty());
}

/// Builds a traced machine with a `BufferSink` attached, runs it, and
/// returns the machine, its stats, and the captured stream text.
fn run_streamed(
    trace: TraceConfig,
    fault: Option<FaultPlan>,
    seed: u64,
) -> (Machine, RunStats, String) {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(trace);
    if let Some(f) = fault {
        cfg.fault_plan = Some(f);
        cfg.watchdog_cycles = 1_000_000;
    }
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, seed);
    let mut machine = Machine::new(cfg, programs);
    let sink = BufferSink::new();
    let lines = sink.handle();
    machine.attach_stream(
        Box::new(sink),
        Some(Json::obj().with("app", Json::Str("stress".into()))),
    );
    let stats = machine.try_run().expect("streamed run must quiesce");
    let text = lines.lock().unwrap().join("\n") + "\n";
    (machine, stats, text)
}

/// The streamed trace is not a lossy preview: for a seeded run whose rings
/// never evict, the trace-event lines pulled out of the live stream are
/// byte-for-byte the post-hoc `--trace-out` document — same events, same
/// `(cycle, seq)` merge order, same rendering.
#[test]
fn streamed_trace_is_byte_identical_to_post_hoc_export() {
    let (machine, _, stream) = run_streamed(TraceConfig::full(1 << 16), None, 0x7E1E);
    let (_, dropped) = machine.trace_counts();
    assert_eq!(dropped, 0, "ring too small for the equivalence to hold");
    let post_hoc: String = machine
        .trace_events()
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    assert!(!post_hoc.is_empty());
    assert_eq!(extract_trace_lines(&stream), post_hoc);
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("stream invalid: {e}"));
    assert!(summary.run_ended, "stream must close with run_end");
    assert!(summary.intervals == 0, "no intervals were configured");
}

/// Same equivalence with the protocol under attack: NACK/retry storms and
/// injected delay spikes reorder event *recording* heavily (retries stretch
/// transactions across phases recorded on different clusters), and the
/// watermark flush must still reproduce the merge exactly — with interval
/// records interleaved this time.
#[test]
fn streamed_trace_survives_nack_and_delay_faults() {
    let plan = FaultPlan::parse("nack:0.25,delay:0.05:150").expect("fault spec");
    let trace = TraceConfig::full(1 << 16).with_interval(500);
    let (machine, stats, stream) = run_streamed(trace, Some(plan), 0xBEEF);
    assert!(stats.faults.retries > 0, "no retry was injected");
    assert!(stats.faults.delay_spikes > 0, "no delay spike was injected");
    let (_, dropped) = machine.trace_counts();
    assert_eq!(dropped, 0, "ring too small for the equivalence to hold");
    let post_hoc: String = machine
        .trace_events()
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    assert_eq!(extract_trace_lines(&stream), post_hoc);
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("stream invalid: {e}"));
    assert!(summary.intervals > 0, "intervals were configured");
    assert!(summary.run_ended);
}

/// Regression: a duplicated request from an already-completed transaction
/// can be re-delivered to the home *after* a successor transaction on the
/// same (requester, block) has begun — and, because the successor's begin
/// is stamped a cache-lookup ahead of the pop that created it, the stale
/// delivery's cycle can precede that begin. The lifecycle hooks must not
/// attribute predecessor traffic to the live transaction, or the exported
/// trace shows a transaction whose home_lookup predates its begin and
/// `validate_trace` rejects the file.
#[test]
fn stale_duplicate_deliveries_are_not_attributed_to_successor_txns() {
    for seed in [0xBEEFu64, 0x7E1E, 11, 23, 99] {
        let plan = FaultPlan::parse("nack:0.05,dup:0.1,delay:0.05:150").expect("fault spec");
        let mut cfg = MachineConfig::tiny(6).with_trace(TraceConfig::full(1 << 16));
        cfg.fault_plan = Some(plan);
        cfg.watchdog_cycles = 1_000_000;
        let programs = random_programs(cfg.processors(), 400, 12, 0.5, seed);
        let mut machine = Machine::new(cfg, programs);
        let stats = machine.try_run().expect("faulty run must still quiesce");
        assert!(stats.faults.duplicates > 0, "no duplicate was injected");
        let jsonl: String = machine
            .trace_events()
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        validate_trace(&jsonl)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: stale attribution leaked: {e}"));
    }
}

/// Attaching a stream may not move the simulation: the exported stats of a
/// streamed run are bit-identical to the same seed traced without a sink,
/// and to the untraced baseline.
#[test]
fn attached_stream_does_not_perturb_the_run() {
    let (_, base) = run_with_trace(None, 0x7E1E);
    let (_, _, _) = run_streamed(TraceConfig::full(1 << 16), None, 0x7E1E);
    let (_, streamed, _) = run_streamed(TraceConfig::full(1 << 16), None, 0x7E1E);
    assert_eq!(base.to_json().to_string(), streamed.to_json().to_string());
}

/// The recorder's transaction tables stay bounded in a long streamed run:
/// at every interval boundary of an `lu` run with a stream attached and
/// every observer on, the live transaction slots number no more than the
/// MSHRs outstanding, and none is left once the run drains. A slot per
/// (requester, block) ever traced that nothing removed would grow with
/// the run instead.
#[test]
fn recorder_transaction_tables_stay_bounded_in_a_streamed_run() {
    use scd::apps::{lu, LuParams};
    use scd::machine::{machine::testing, Choice};

    let interval = 250;
    let trace = TraceConfig::full(1 << 10)
        .with_interval(interval)
        .with_patterns(true);
    let mut cfg = MachineConfig::paper_32().with_trace(trace);
    cfg.clusters = 16;
    let app = lu(&LuParams::scaled(0.3), cfg.processors(), 0);
    let mut machine = Machine::new(cfg, app.scripts());
    let sink = BufferSink::new();
    let lines = sink.handle();
    machine.attach_stream(Box::new(sink), None);
    machine.begin_exploration();
    let (mut boundary, mut boundaries, mut peak) = (interval, 0, 0);
    while !machine.exploration_done() {
        machine.step_explore(Choice::Ready { idx: 0 }).expect("lu runs clean");
        if machine.now() >= boundary {
            let (slots, mshrs) = testing::txn_slots(&machine);
            assert!(slots <= mshrs, "cycle {}: {slots} slots, {mshrs} MSHRs", machine.now());
            peak = peak.max(slots);
            boundaries += 1;
            boundary += interval;
        }
    }
    machine.finalize_exploration().expect("lu drains clean");
    assert!(boundaries > 20 && peak > 0, "{boundaries} boundaries, peak {peak}");
    assert_eq!(testing::txn_slots(&machine), (0, 0), "a slot outlived the run");
    assert!(!lines.lock().unwrap().is_empty(), "the stream carried the run");
}

/// A sink with room for `room` lines that sheds the rest and counts them,
/// as a bounded channel nobody drains would. Its counts are shared, so a
/// clone kept before boxing reads them after the machine let go.
#[derive(Clone)]
struct BoundedSink {
    room: u64,
    /// (delivered, shed)
    counts: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
}

impl TraceSink for BoundedSink {
    fn emit(&mut self, _line: &str) {
        let mut counts = self.counts.lock().unwrap();
        if counts.0 < self.room {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
    fn flush(&mut self) {}
    fn dropped(&self) -> u64 {
        self.counts.lock().unwrap().1
    }
}

/// A bounded sink never blocks the simulation and never lies about loss:
/// lines delivered plus lines dropped equals the lines an unbounded sink
/// captured for the identical run, and the drop count is visible while
/// the machine still owns the sink and, through `stream_shed_lines`,
/// after it closed the stream.
#[test]
fn channel_sink_accounts_for_every_dropped_line() {
    let (_, _, full) = run_streamed(TraceConfig::full(1 << 16), None, 0x7E1E);
    let total = full.lines().count() as u64;

    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(TraceConfig::full(1 << 16));
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0x7E1E);
    let mut machine = Machine::new(cfg, programs);
    const CAPACITY: u64 = 8;
    let sink = BoundedSink {
        room: CAPACITY,
        counts: Default::default(),
    };
    let counts = sink.clone();
    machine.attach_stream(Box::new(sink), None);
    assert_eq!(machine.stream_shed_lines(), 0, "nothing is shed before the run");
    // The sink fills early in the run, and every further line must be
    // counted as dropped, not block the machine.
    machine.try_run().expect("backpressured run must quiesce");
    let (delivered, dropped) = *counts.counts.lock().unwrap();
    assert_eq!(delivered, CAPACITY, "the sink holds exactly its bound");
    assert!(dropped > 0, "run too small to overflow the channel");
    // The unstreamed twin had a run_meta line this run did not (attach_stream
    // got `None`), hence the -1.
    assert_eq!(delivered + dropped, total - 1);
    // ... and still visible after the machine closed the stream and let the
    // sink go: this is what `scdsim --stream-out` warns from.
    assert_eq!(machine.stream_shed_lines(), dropped);
}

/// An event line without its leading `seq` field, which numbers it within
/// its own document: the rest of the line is the same bytes in a stream
/// and in the post-hoc export.
fn unnumbered(line: &str) -> &str {
    assert!(line.starts_with("{\"seq\":"), "not an event line: {line}");
    line.split_once(',').expect("an event line has fields after seq").1
}

/// A stream outlives its rings: with 8-event rings that evict, the stream
/// still carries every recorded event, its `run_end` counts them, and
/// what the rings kept for the post-hoc export is a subsequence of it.
#[test]
fn a_stream_carries_every_event_its_rings_evict() {
    let (machine, _, stream) = run_streamed(TraceConfig::full(8), None, 0x7E1E);
    let (recorded, dropped) = machine.trace_counts();
    assert!(dropped > 0, "8-deep rings must overflow on this run");
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("stream invalid: {e}"));
    assert_eq!(summary.events as u64, recorded, "an event the rings evicted left the stream");
    let run_end = Json::parse(stream.lines().last().expect("a closed stream")).expect("run_end");
    assert_eq!(run_end.get("recorded").and_then(Json::as_u64), Some(recorded));

    let extracted = extract_trace_lines(&stream);
    let mut streamed = extracted.lines().map(unnumbered);
    for ev in machine.trace_events() {
        let line = ev.to_json().to_string();
        let kept = unnumbered(&line);
        assert!(
            streamed.any(|s| s == kept),
            "a retained event is missing from the stream, or out of order: {kept}"
        );
    }
}

/// A clone does not stream: a streaming machine cloned mid-run through the
/// exploration API runs to its end without writing a line into the sink
/// it shares with the original, whose stream still validates and equals
/// its post-hoc export.
#[test]
fn a_cloned_machine_writes_nothing_into_the_stream() {
    use scd::machine::Choice;

    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(TraceConfig::full(1 << 16).with_interval(500));
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0x7E1E);
    let mut machine = Machine::new(cfg, programs);
    let sink = BufferSink::new();
    let lines = sink.handle();
    machine.attach_stream(Box::new(sink), None);
    machine.begin_exploration();
    let run_to_end = |m: &mut Machine| {
        while !m.exploration_done() {
            m.step_explore(Choice::Ready { idx: 0 }).expect("the run is clean");
        }
        m.finalize_exploration().expect("the run drains clean");
    };
    while !machine.exploration_done() && machine.now() < 2_000 {
        machine.step_explore(Choice::Ready { idx: 0 }).expect("the run is clean");
    }

    let mut clone = machine.clone();
    assert!(machine.stream_active() && !clone.stream_active());
    let written = lines.lock().unwrap().len();
    assert!(written > 0, "the original streamed before the fork");
    run_to_end(&mut clone);
    assert!(clone.trace_counts().0 > machine.trace_counts().0, "the clone ran on");
    assert_eq!(lines.lock().unwrap().len(), written, "the clone wrote into the sink");

    run_to_end(&mut machine);
    let stream = lines.lock().unwrap().join("\n") + "\n";
    let summary = validate_stream(&stream).unwrap_or_else(|e| panic!("stream invalid: {e}"));
    assert!(summary.run_ended && summary.intervals > 0);
    let post_hoc: String = machine
        .trace_events()
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    assert_eq!(extract_trace_lines(&stream), post_hoc);
}

/// Critical-path decomposition is exact, not approximate: for every
/// completed transaction, per-phase queueing + service equals the phase
/// duration, the phase costs sum to the transaction's end-to-end latency,
/// and the report is ordered slowest-first.
#[test]
fn critical_path_costs_tile_every_transaction() {
    let plan = FaultPlan::nack(0.25);
    let trace = TraceConfig::full(1 << 16);
    let (machine, _, _) = run_streamed(trace, Some(plan), 0xBEEF);
    let tree = SpanTree::from_events(&machine.trace_events());
    let report = analyze(&tree);
    assert!(!report.txns.is_empty(), "no completed transaction to analyze");
    for txn in &report.txns {
        let mut total = 0;
        for phase in &txn.phases {
            assert_eq!(
                phase.queueing + phase.service,
                phase.duration(),
                "txn {} phase {} does not tile",
                txn.txn,
                phase.phase
            );
            total += phase.duration();
        }
        assert_eq!(
            total, txn.latency,
            "txn {} phases do not sum to its latency",
            txn.txn
        );
        assert_eq!(txn.queueing + txn.service, txn.latency);
    }
    for pair in report.txns.windows(2) {
        assert!(pair[0].latency >= pair[1].latency, "report must be sorted");
    }
    assert_eq!(
        report.total_queueing() + report.total_service(),
        report.txns.iter().map(|t| t.latency).sum::<u64>()
    );
    // Under a 25% NACK plan some transaction must have spent time waiting
    // on the network (queueing), not just in flight.
    assert!(report.total_queueing() > 0, "no queueing under a NACK storm?");
    let doc = report.to_json(5).to_string();
    assert!(doc.contains("\"schema\":\"scd-critical/v1\""), "{doc}");
}

/// Bounded rings evict oldest-first under pressure but never corrupt the
/// merge: a truncated trace still replays cleanly and reports drops.
#[test]
fn tiny_rings_evict_but_the_merge_still_validates() {
    let trace = TraceConfig::full(8);
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(trace);
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0x7E1E);
    let mut machine = Machine::new(cfg, programs);
    machine.try_run().expect("run must quiesce");
    let (recorded, dropped) = machine.trace_counts();
    assert!(dropped > 0, "8-deep rings must overflow on this run");
    assert!(recorded > dropped);
    let jsonl: String = machine
        .trace_events()
        .iter()
        .map(|e| e.to_json().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    let summary = validate_trace(&jsonl).unwrap_or_else(|e| panic!("replay failed: {e}"));
    assert_eq!(summary.events + dropped, recorded);
}

/// Ring eviction is a first-class statistic: an evicting run's
/// `scd-run-stats/v1` document carries `trace.dropped_events`, the value
/// matches the machine's counter, and the schema validator enforces the
/// section's consistency (drops can never exceed recordings).
#[test]
fn dropped_events_surface_in_the_stats_document() {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(TraceConfig::full(8));
    let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0x7E1E);
    let mut machine = Machine::new(cfg, programs);
    let stats = machine.try_run().expect("run must quiesce");
    let (recorded, dropped) = machine.trace_counts();
    assert!(dropped > 0, "8-deep rings must overflow on this run");

    let trace = machine.trace_json().expect("tracing was on");
    assert_eq!(trace.get("recorded").and_then(Json::as_u64), Some(recorded));
    assert_eq!(
        trace.get("dropped_events").and_then(Json::as_u64),
        Some(dropped)
    );
    let doc = stats
        .to_json_document(None, None, None, Some(trace), None)
        .to_string();
    validate_stats_json(&doc).unwrap_or_else(|e| panic!("trace section broke: {e}\n{doc}"));

    // An untraced run exports `trace: null`, and that validates too.
    let (_, untraced) = run_with_trace(None, 0x7E1E);
    let doc = untraced.to_json_document(None, None, None, None, None).to_string();
    assert!(doc.contains("\"trace\":null"), "{doc}");
    validate_stats_json(&doc).unwrap_or_else(|e| panic!("null trace broke: {e}"));

    // And the validator rejects an over-claiming section.
    let lying = Json::obj()
        .with("recorded", Json::U64(1))
        .with("dropped_events", Json::U64(2));
    let doc = stats.to_json_document(None, None, None, Some(lying), None).to_string();
    assert!(validate_stats_json(&doc).is_err(), "dropped > recorded passed");
}

/// The directory observatory obeys the same inert contract as the rest of
/// the trace subsystem: a patterns-enabled run does not move a cycle or a
/// message, and its occupancy section validates inside the standalone
/// `scd-patterns/v1` document.
#[test]
fn patterns_telemetry_does_not_perturb_and_validates() {
    use scd::trace::{validate_patterns_json, PatternTable};
    let (_, base) = run_with_trace(None, 0x7E1E);
    let mut tc = TraceConfig::full(1 << 16);
    tc.patterns = true;
    tc.interval = 200;
    let (machine, stats) = run_with_trace(Some(tc), 0x7E1E);
    assert_eq!(base.to_json().to_string(), stats.to_json().to_string());

    let occupancy = machine.occupancy_json().expect("patterns were on");
    let mut table = PatternTable::new();
    for ev in &machine.trace_events() {
        table.observe(ev);
    }
    assert!(table.tracked_blocks() > 0, "run touched shared blocks");
    let doc = table.document(None, Some(occupancy)).to_string();
    validate_patterns_json(&doc).unwrap_or_else(|e| panic!("patterns doc broke: {e}\n{doc}"));
}

/// The classifier is a pure function of the `(cycle, seq)`-ordered event
/// stream: feeding the live machine's merged events and replaying the
/// rendered JSONL text of the same events must produce byte-identical
/// documents (the `scdsim --patterns-out` vs `scd-telemetry patterns`
/// contract; `tests/cli.rs` runs the two binaries on a full-size LU run).
#[test]
fn online_patterns_match_trace_replay_byte_for_byte() {
    use scd::trace::PatternTable;
    let mut tc = TraceConfig::full(1 << 16);
    tc.patterns = true;
    let (machine, _) = run_with_trace(Some(tc), 0xBEEF);
    let mut online = PatternTable::new();
    let mut text = Vec::new();
    for ev in &machine.trace_events() {
        // The typed entry point, as `scdsim --patterns-out` feeds it; the
        // replay below decodes the lines with `TraceEvent::parse` and feeds
        // the same `observe`.
        online.observe(ev);
        ev.write_jsonl(&mut text);
        text.push(b'\n');
    }
    let text = String::from_utf8(text).expect("the line writer emits UTF-8");
    let replay = PatternTable::from_trace(&text).expect("trace replays");
    assert_eq!(
        online.document(None, None).to_string(),
        replay.document(None, None).to_string()
    );
    assert!(online.events() > 0);
}

/// `TraceEvent::parse` is the writer's inverse on what each backend
/// really records: every line of a patterns-on, fault-injected run
/// decodes and renders back to the identical bytes, for DASH, Tardis and
/// DLS alike.
#[test]
fn every_recorded_line_decodes_and_renders_back_byte_for_byte() {
    use scd::trace::{event_line, TraceEvent};
    for protocol in ProtocolKind::ALL {
        let mut tc = TraceConfig::full(1 << 16);
        tc.patterns = true;
        let mut cfg = MachineConfig::tiny(6).with_protocol(protocol).with_trace(tc);
        cfg.fault_plan = Some(FaultPlan::nack(0.1));
        cfg.watchdog_cycles = 1_000_000;
        let programs = random_programs(cfg.processors(), 150, 24, 0.4, 0xC0DE);
        let mut machine = Machine::new(cfg, programs);
        machine.try_run().expect("run must quiesce");
        let events = machine.trace_events();
        let mut kinds = std::collections::BTreeSet::new();
        for ev in &events {
            let line = event_line(ev);
            let back = TraceEvent::parse(&line)
                .unwrap_or_else(|e| panic!("{}: {e}\n{line}", protocol.name()));
            assert_eq!(event_line(&back), line, "{}", protocol.name());
            kinds.insert(ev.kind.label());
        }
        for kind in ["txn_begin", "txn_end", "inval", "msg_send", "msg_deliver"] {
            assert!(kinds.contains(kind), "{}: no `{kind}` line recorded", protocol.name());
        }
    }
}

/// `scd-telemetry spans` and `patterns` read back what `scdsim` records,
/// and the span profile they derive is the one the live machine's own
/// events give. One run per backend plus one that fails (its stream still
/// closes): over the streamed file the Perfetto document (counters from
/// the streamed intervals), the folded stacks and the critical report
/// equal the in-process calls byte for byte; over the trace file they
/// equal the same calls without intervals; and the patterns replay of
/// the stream equals that of the trace.
#[test]
fn span_profile_read_back_from_a_recording_is_the_in_process_one() {
    use scd::trace::{event_line, JsonlFileSink};
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("scd-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let telemetry = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_scd-telemetry"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("spawn scd-telemetry");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "scd-telemetry {args:?} in {}: {stderr}", dir.display());
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let runs = [
        ("dash", ProtocolKind::Dash, None),
        ("tardis", ProtocolKind::Tardis, None),
        ("dls", ProtocolKind::Dls, None),
        ("failing", ProtocolKind::Dash, Some(3_000)),
    ];
    for (name, protocol, max_cycles) in runs {
        let mut tc = TraceConfig::full(1 << 16).with_interval(500);
        tc.patterns = true;
        let mut cfg = MachineConfig::tiny(6).with_protocol(protocol).with_trace(tc);
        cfg.max_cycles = max_cycles.unwrap_or(cfg.max_cycles);
        let programs = random_programs(cfg.processors(), 150, 24, 0.4, 0x5EED);
        let mut m = Machine::new(cfg, programs);
        let stream = dir.join(format!("{name}.stream.jsonl"));
        m.attach_stream(Box::new(JsonlFileSink::create(&stream).expect("stream file")), None);
        assert_eq!(m.try_run().is_ok(), max_cycles.is_none(), "{name}: run outcome");
        assert_eq!(m.trace_counts().1, 0, "{name}: the ring evicted events");
        let events = m.trace_events();
        let trace: String = events.iter().map(|ev| event_line(ev) + "\n").collect();
        std::fs::write(dir.join(format!("{name}.trace.jsonl")), trace).expect("trace file");

        let tree = SpanTree::from_events(&events);
        let critical = analyze(&tree).render(5);
        for (file, intervals) in [("stream", &m.metrics().intervals[..]), ("trace", &[][..])] {
            let input = format!("{name}.{file}.jsonl");
            let printed = telemetry(&[
                "spans", &input, "--perfetto-out", "p.json", "--folded-out", "f.txt",
                "--critical", "5",
            ]);
            let read = |out: &str| std::fs::read_to_string(dir.join(out)).expect(out);
            assert!(read("p.json") == to_perfetto(&tree, intervals) + "\n", "{input}: perfetto");
            assert!(read("f.txt") == tree.to_folded(), "{input}: folded stacks");
            assert_eq!(printed, critical, "{input}: critical report");
        }
        assert!(!m.metrics().intervals.is_empty(), "{name}: no interval was streamed");
        let patterns = |file: &str| telemetry(&["patterns", &format!("{name}.{file}.jsonl"), "--json"]);
        assert_eq!(patterns("stream"), patterns("trace"), "{name}: patterns replay");
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}

/// Five recordings, each with a stream attached, intervals, patterns and
/// rings large enough to hold the whole run: one per backend, one under
/// `nack` + `dup` + `delay` faults, one that fails. Each comes back as its
/// name, the machine after the run and the stream's lines.
fn five_recordings() -> Vec<(&'static str, Machine, Vec<String>)> {
    let runs = [
        ("dash", ProtocolKind::Dash, None, None),
        ("tardis", ProtocolKind::Tardis, None, None),
        ("dls", ProtocolKind::Dls, None, None),
        ("faults", ProtocolKind::Dash, Some("nack:0.2,dup:0.05,delay:0.05:150"), None),
        ("failing", ProtocolKind::Dash, None, Some(3_000)),
    ];
    let mut recordings = Vec::new();
    for (name, protocol, fault, max_cycles) in runs {
        let mut tc = TraceConfig::full(1 << 16).with_interval(500);
        tc.patterns = true;
        let mut cfg = MachineConfig::tiny(6).with_protocol(protocol).with_trace(tc);
        if let Some(spec) = fault {
            cfg.fault_plan = Some(FaultPlan::parse(spec).expect("fault spec"));
            cfg.watchdog_cycles = 1_000_000;
        }
        cfg.max_cycles = max_cycles.unwrap_or(cfg.max_cycles);
        let programs = random_programs(cfg.processors(), 150, 24, 0.4, 0xE8AC7);
        let mut m = Machine::new(cfg, programs);
        let sink = BufferSink::new();
        let streamed = sink.handle();
        m.attach_stream(Box::new(sink), Some(Json::obj().with("app", Json::Str(name.into()))));
        let outcome = m.try_run();
        assert_eq!(outcome.is_ok(), max_cycles.is_none(), "{name}: run outcome");
        if let (Some(_), Ok(stats)) = (fault, &outcome) {
            assert!(stats.faults.retries > 0, "{name}: no retry was injected");
            assert!(stats.faults.duplicates > 0, "{name}: no duplicate was injected");
        }
        assert_eq!(m.trace_counts().1, 0, "{name}: the ring evicted events");
        let lines = streamed.lock().unwrap().clone();
        recordings.push((name, m, lines));
    }
    recordings
}

/// Every trace reader's speed rests on one fact: the recorder only ever
/// writes the bytes `TraceEvent::parse`'s exact-bytes pass reads, so the
/// lexer path never runs on them. Checked, not assumed, on the five
/// recordings: every event line of the trace and of the stream is taken
/// by the exact-bytes reader, as the event `parse` gives.
#[test]
fn the_exact_reader_takes_every_event_line_the_recorder_writes() {
    use scd::trace::event::read_exact;
    use scd::trace::{event_line, Fields, TraceEvent, EVENT_TYPES};
    for (name, m, streamed) in five_recordings() {
        let trace: Vec<String> = m.trace_events().iter().map(event_line).collect();
        // Told apart from records by the flat view, not by the reader
        // under test.
        let is_event = |line: &&String| {
            let fields = Fields::parse(line).expect("a stream line is JSON");
            fields.get("type").and_then(|t| t.as_str()).is_some_and(|t| EVENT_TYPES.contains(&t))
        };
        let stream: Vec<String> = streamed.iter().filter(is_event).cloned().collect();
        assert_eq!(stream.len(), trace.len(), "{name}: the stream's events are the trace's");
        for (file, lines) in [("trace", &trace), ("stream", &stream)] {
            assert!(!lines.is_empty(), "{name}: the {file} holds no event");
            for line in lines {
                let parsed = TraceEvent::parse(line).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(read_exact(line), Some(parsed), "{name} {file}: lexed\n{line}");
            }
        }
    }
}

/// The same fact for the Perfetto leg: `validate_perfetto` reads the
/// exporter's records directly only if the exporter writes nothing else.
/// Each of the five recordings' span tree is exported with its interval
/// counters, and every `traceEvents` record is taken by the exact-bytes
/// reader, to the verdict the lexer path gives.
#[test]
fn the_exact_reader_takes_every_perfetto_record_the_exporter_writes() {
    use scd::trace::perfetto::{exact_records, read_lexed};
    for (name, m, _) in five_recordings() {
        let tree = SpanTree::from_events(&m.trace_events());
        let intervals = &m.metrics().intervals;
        assert!(!intervals.is_empty(), "{name}: no interval was recorded");
        let text = to_perfetto(&tree, intervals);
        let summary = validate_perfetto(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(summary.async_ops > 0 && summary.counters > 0, "{name}: {summary:?}");
        assert_eq!(exact_records(&text), summary.events, "{name}: a record was lexed");
        assert_eq!(read_lexed(&text), Ok(summary), "{name}: the lexer path's verdict");
    }
}
