//! Ceilings on what *looking* costs: the three telemetry paths a user can
//! switch on (metrics + attribution, the full event ring, the ring with a
//! sink attached), each as a multiple of the plain run, compared by
//! min-of-N wall times with the variants interleaved so clock drift and
//! frequency scaling hit all of them equally.
//!
//! The *disabled* path has no timing guard: `cfg.trace = None` and
//! `Some(TraceConfig::none())` build the same inert recorder, which is a
//! unit test in `scd-machine` (`machine::telemetry::tests`), not a ratio.

use scd_apps::{lu, AppRun, LuParams};
use scd_machine::{Machine, MachineConfig};
use scd_trace::{TraceConfig, TraceSink};
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
/// times the machine's side of streaming (hooks, ring, mirror, pump, line
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

/// Ceilings on what *looking* costs, as multiples of the plain run. These
/// are regression guards, not the budget: ROADMAP item 4 asks for
/// metrics+attribution <= 1.2x, full trace <= 1.5x and live stream <= 2x.
/// The first two are met on a quiet host; the stream is not, and what is
/// left on it is no longer the pump: DESIGN.md section 13's sample table
/// puts the rest in the recorder's hooks (building each event, the ring
/// and mirror copies, the transaction tables) and in the render itself,
/// which is down to about 80 ns of a 120-byte line.
///
/// Measured on this app (min of 15 interleaved rounds, eight runs) with the
/// pump on the timing wheel and the line writer a monomorphised visitor:
/// 1.08-1.13x / 1.24-1.45x / 2.44-2.79x; the parent of that change, same
/// host, same day: 1.05-1.19x / 1.34-1.56x / 3.35-3.54x. On a shared host
/// the plain run's own minimum moves by several percent between processes,
/// and every ratio moves with it. Each ceiling is the highest ratio seen
/// for its path since the guard exists plus a fifth to a half of it for
/// that noise; the stream ceiling sits where the heap-and-closure writer
/// it replaced fails it about half the time and a `Json` tree per line
/// (6.6x) fails it always.
const METRICS_ATTRIB_CEILING: f64 = 1.75;
const FULL_RING_CEILING: f64 = 2.25;
const STREAM_CEILING: f64 = 3.5;

/// The guard: min of interleaved rounds over the three costs a user can
/// switch on.
fn enabled_guard() {
    let app = test_app();
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
        ],
    );
    let plain = mins[0] as f64;
    let ratios: Vec<f64> = mins.iter().map(|&m| m as f64 / plain).collect();
    println!(
        "trace_overhead enabled guard: plain {} ns; metrics+attribution {:.2}x \
         (ceiling {METRICS_ATTRIB_CEILING}), full ring {:.2}x (ceiling \
         {FULL_RING_CEILING}), full ring + counting sink {:.2}x (ceiling \
         {STREAM_CEILING}); ROADMAP item 4's budget is 1.2x / 1.5x / 2x, and the \
         stream's 2x is still open (hooks and render, not the pump)",
        mins[0], ratios[1], ratios[2], ratios[3]
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
}

fn main() {
    enabled_guard();
}
