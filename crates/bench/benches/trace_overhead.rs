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
         {STREAM_CEILING}); the ceilings are the measured floor plus a quarter \
         (DESIGN.md section 13)",
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
