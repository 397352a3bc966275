//! Tango's trace mode: capture an application's reference streams to the
//! compact binary format, reload them, and replay against a differently
//! configured memory system — then profile the replay with the span-tree
//! API: per-transaction span trees from the event stream, folded stacks
//! for flamegraphs, and a Perfetto export.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use scd::apps::{mp3d, Mp3dParams};
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use scd::tango::{Trace, TraceRecorder};
use scd::trace::{to_perfetto, validate_perfetto, SpanTree, TraceConfig};

fn main() {
    let procs = 16;
    let app = mp3d(
        &Mp3dParams {
            particles: 1024,
            cells: 512,
            steps: 3,
            collision_rate: 0.05,
            move_cost: 4,
        },
        procs,
        99,
    );

    // Capture: the generator's op streams ARE the trace (Tango's coupled
    // mode interleaving is reconstructed by the machine at replay time).
    let mut rec = TraceRecorder::new(procs);
    for (p, ops) in app.programs.iter().enumerate() {
        for &op in ops.iter() {
            rec.record(p, op);
        }
    }
    let trace = rec.finish();
    let path = std::env::temp_dir().join("mp3d.scdt");
    trace.save(&path).expect("save trace");
    let bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "captured {} ops from {} processes -> {} ({} KB, {:.2} B/op)",
        trace.total_ops(),
        trace.procs(),
        path.display(),
        bytes / 1024,
        bytes as f64 / trace.total_ops() as f64
    );

    // Replay against two machines with different directory schemes, with
    // the causal span profiler watching each run.
    let loaded = Trace::load(&path).expect("load trace");
    for (name, scheme) in [("Dir16 (full)", Scheme::FullVector), ("Dir2CV2", Scheme::dir_cv(2, 2))]
    {
        let mut cfg = MachineConfig::paper_32()
            .with_scheme(scheme)
            .with_trace(TraceConfig::full(1 << 16).with_interval(1_000));
        cfg.clusters = procs;
        let mut machine = Machine::new(cfg, loaded.replay());
        let stats = machine.run();
        println!(
            "replay on {name:<14}: {} cycles, {} messages",
            stats.cycles,
            stats.traffic.total()
        );

        // The span tree turns the flat event stream into txn -> phase ->
        // message causality; `check` enforces well-formedness.
        let tree = SpanTree::from_events(&machine.trace_events());
        tree.check().expect("span tree must be well-formed");
        println!(
            "  span tree: {} txns ({} complete), {} attributed messages, {} background",
            tree.txns.len(),
            tree.completed(),
            tree.attributed_msgs(),
            tree.orphan_msgs.len()
        );

        // Folded stacks are flamegraph input; the heaviest stacks show
        // where transaction time went.
        let folded = tree.to_folded();
        let mut stacks: Vec<(&str, u64)> = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(s, w)| w.parse().ok().map(|w| (s, w)))
            .collect();
        stacks.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        println!("  hottest stacks (cycles):");
        for (stack, weight) in stacks.iter().take(4) {
            println!("    {weight:>8} {stack}");
        }

        // And the same tree exports as a chrome://tracing document.
        let perfetto = to_perfetto(&tree, &machine.metrics().intervals);
        let summary = validate_perfetto(&perfetto).expect("valid export");
        println!(
            "  perfetto export: {} events ({} slices, {} msg ops, {} counter samples)",
            summary.events, summary.slices, summary.async_ops, summary.counters
        );
    }
    std::fs::remove_file(&path).ok();
}
