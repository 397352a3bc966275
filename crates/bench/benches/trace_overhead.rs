//! Ceilings on what *looking* costs: the three telemetry paths a user can
//! switch on (metrics + attribution, the full event ring, the ring with a
//! sink attached), each as a multiple of the plain run, and reading the
//! recording back (`validate_trace` over the streamed run's trace, and
//! `validate_perfetto` over its span profile's export) as multiples of the
//! streamed run, compared by min-of-N wall times with the variants
//! interleaved so clock drift and frequency scaling hit all of them
//! equally.
//!
//! The *disabled* path has no timing guard: `cfg.trace = None` and
//! `Some(TraceConfig::none())` build the same inert recorder, which is a
//! unit test in `scd-machine` (`machine::telemetry::tests`), not a ratio.

use scd_apps::{lu, AppRun, LuParams};
use scd_machine::{Machine, MachineConfig};
use scd_trace::{
    extract_trace_lines, to_perfetto, validate_perfetto, validate_trace, BufferSink, SpanTree,
    TraceConfig, TraceEvent, TraceSink,
};
use std::hint::black_box;
use std::time::Instant;

fn test_app() -> AppRun {
    lu(
        &LuParams {
            n: 24,
            update_cost: 4,
        },
        32,
        1,
    )
}

fn run_once(app: &AppRun, trace: Option<TraceConfig>) -> u64 {
    let mut cfg = MachineConfig::paper_32();
    if let Some(t) = trace {
        cfg = cfg.with_trace(t);
    }
    Machine::new(cfg, app.scripts()).run().cycles
}

/// Min-of-`rounds` wall nanoseconds of each variant, the variants
/// interleaved round by round so clock drift and frequency scaling hit
/// all of them equally. Min-of-N is robust to one-sided noise (interrupts
/// and scheduling only ever make a run slower), which is what makes a
/// tight ratio assertion viable on shared CI machines.
fn min_interleaved(rounds: usize, variants: &mut [&mut dyn FnMut() -> u64]) -> Vec<u128> {
    // Warm every path (page faults, lazy allocations) before timing.
    for v in variants.iter_mut() {
        black_box(v());
    }
    let mut mins = vec![u128::MAX; variants.len()];
    for _ in 0..rounds {
        for (v, min) in variants.iter_mut().zip(&mut mins) {
            let t = Instant::now();
            black_box(v());
            *min = (*min).min(t.elapsed().as_nanos());
        }
    }
    mins
}

/// A sink that counts what it is given and keeps nothing, so the guard
/// times the machine's side of streaming (hooks, ring, pump, line
/// rendering, the `dyn` call) and not a disk.
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn emit(&mut self, line: &str) {
        self.0 += line.len() as u64 + 1;
    }
    fn flush(&mut self) {}
}

/// The full ring of `scdsim --trace-out`, with a counting sink attached
/// as `--stream-out` would attach a file.
fn run_once_streamed(app: &AppRun) -> u64 {
    let cfg = MachineConfig::paper_32().with_trace(TraceConfig::full(4096));
    let mut machine = Machine::new(cfg, app.scripts());
    machine.attach_stream(Box::new(CountingSink(0)), None);
    machine.try_run().expect("run must quiesce").cycles
}

/// The trace of the streamed run, as `--stream-out` would have written
/// it, and the Perfetto export of its span tree (`scd-telemetry spans
/// --perfetto-out` over that stream): the read-side ceilings' inputs.
fn streamed_trace(app: &AppRun) -> (String, String) {
    let cfg = MachineConfig::paper_32().with_trace(TraceConfig::full(4096));
    let mut machine = Machine::new(cfg, app.scripts());
    let sink = BufferSink::new();
    let lines = sink.handle();
    machine.attach_stream(Box::new(sink), None);
    machine.try_run().expect("run must quiesce");
    let stream = lines.lock().expect("the run has finished").join("\n");
    let trace = extract_trace_lines(&stream);
    let events: Vec<TraceEvent> = trace
        .lines()
        .map(|line| TraceEvent::parse(line).expect("the recorder writes events"))
        .collect();
    let perfetto = to_perfetto(&SpanTree::from_events(&events), &machine.metrics().intervals);
    (trace, perfetto)
}

/// Ceilings on what *looking* costs, as multiples of the plain run. These
/// are the measured floor, committed, not ROADMAP item 7's old budget
/// (metrics+attribution <= 1.2x, full trace <= 1.5x, live stream <= 2x):
/// each event already takes one path from its hook to the sink, and
/// DESIGN.md section 13 says what the rest of the stream's cost is (the
/// render, the pump's wheel, and an engine running through the lines).
///
/// Measured on this app (min of 15 interleaved rounds, eighteen runs, a
/// 2-vCPU shared guest): 0.75-1.12x / 1.17-1.72x / 1.95-2.65x. On a shared
/// host the plain run's own minimum moves by several percent between
/// processes, and every ratio moves with it (the 0.75x is a round whose
/// plain minimum was slow). Each ceiling is the highest ratio seen plus a
/// quarter of it, rounded down.
const METRICS_ATTRIB_CEILING: f64 = 1.4;
const FULL_RING_CEILING: f64 = 2.15;
const STREAM_CEILING: f64 = 3.3;

/// Ceiling on reading the streamed run's trace back with `validate_trace`,
/// as a multiple of the streamed run itself (DESIGN.md section 18). The
/// writer's exact bytes take the decoder's direct pass. Measured as the
/// three above, ten runs: 0.35-0.39x; with every line sent down the lexer
/// path instead (what a writer change that made lines non-canonical
/// would do), 0.81-0.89x, which this ceiling refuses.
///
/// The denominator is the *streamed run*, not the reader: a faster writer
/// shortens the streamed run and raises this ratio with no reader change.
/// Measured on the same 2-vCPU shared guest: 0.33-0.38x against 0.48, so a
/// writer about 1.28x faster, reader untouched, reaches the ceiling.
const READ_CEILING: f64 = 0.48;

/// Ceiling on `validate_perfetto` over the streamed run's span profile, as
/// a multiple of the streamed run (DESIGN.md section 18). The exporter's
/// records take the validator's exact-bytes pass. Measured as the ones
/// above, twenty runs: 0.16-0.27x; with every record sent down the lexer
/// path instead (what an exporter change that made records non-canonical
/// would do), 0.77-0.93x, which this ceiling refuses.
///
/// The denominator is the *streamed run*, as for [`READ_CEILING`]: a
/// faster writer raises this ratio with no reader change. Measured as
/// there: 0.20-0.26x against 0.33, the same 1.28x of writer headroom.
const PERFETTO_CEILING: f64 = 0.33;

/// The guard: min of interleaved rounds over the three costs a user can
/// switch on.
fn enabled_guard() {
    let app = test_app();
    let (trace, perfetto) = streamed_trace(&app);
    let counters = TraceConfig {
        metrics: true,
        attribution: true,
        ..TraceConfig::none()
    };
    let mins = min_interleaved(
        15,
        &mut [
            &mut || run_once(&app, None),
            &mut || run_once(&app, Some(counters)),
            &mut || run_once(&app, Some(TraceConfig::full(4096))),
            &mut || run_once_streamed(&app),
            &mut || {
                validate_trace(&trace)
                    .expect("the recorded trace is valid")
                    .events
            },
            &mut || {
                validate_perfetto(&perfetto)
                    .expect("the exported profile is valid")
                    .events
            },
        ],
    );
    let plain = mins[0] as f64;
    let ratios: Vec<f64> = mins.iter().map(|&m| m as f64 / plain).collect();
    let read = mins[4] as f64 / mins[3] as f64;
    let read_perfetto = mins[5] as f64 / mins[3] as f64;
    println!(
        "trace_overhead enabled guard: plain {} ns; metrics+attribution {:.2}x \
         (ceiling {METRICS_ATTRIB_CEILING}), full ring {:.2}x (ceiling \
         {FULL_RING_CEILING}), full ring + counting sink {:.2}x (ceiling \
         {STREAM_CEILING}); validate_trace of its {} lines {read:.3}x the \
         streamed run (ceiling {READ_CEILING}); validate_perfetto of its {} \
         byte export {read_perfetto:.3}x (ceiling {PERFETTO_CEILING}); the \
         ceilings are the measured floor plus a quarter (DESIGN.md sections \
         13 and 18)",
        mins[0],
        ratios[1],
        ratios[2],
        ratios[3],
        trace.lines().count(),
        perfetto.len()
    );
    for (what, ratio, ceiling) in [
        ("metrics+attribution", ratios[1], METRICS_ATTRIB_CEILING),
        ("full ring", ratios[2], FULL_RING_CEILING),
        ("full ring + attached sink", ratios[3], STREAM_CEILING),
    ] {
        assert!(
            ratio <= ceiling,
            "{what} costs {ratio:.2}x the plain run, over its {ceiling}x ceiling"
        );
    }
    assert!(
        read <= READ_CEILING,
        "validate_trace costs {read:.3}x the streamed run it reads, over its \
         {READ_CEILING}x ceiling: are the writer's lines still the bytes the \
         decoder's exact pass reads?"
    );
    assert!(
        read_perfetto <= PERFETTO_CEILING,
        "validate_perfetto costs {read_perfetto:.3}x the streamed run whose \
         profile it reads, over its {PERFETTO_CEILING}x ceiling: are the \
         exporter's records still the bytes the validator's exact pass reads?"
    );
}

fn main() {
    enabled_guard();
}
