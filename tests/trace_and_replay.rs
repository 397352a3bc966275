//! Trace capture/replay integration: replaying a captured run must be
//! bit-identical to the original (the machine is deterministic and the
//! trace preserves per-process op streams exactly).

use scd::apps::{locusroute, mp3d, LocusRouteParams, Mp3dParams};
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use scd::tango::{Trace, TraceRecorder};

fn capture(app: &scd::apps::AppRun) -> Trace {
    let mut rec = TraceRecorder::new(app.programs.len());
    for (p, ops) in app.programs.iter().enumerate() {
        for &op in ops.iter() {
            rec.record(p, op);
        }
    }
    rec.finish()
}

#[test]
fn replay_is_bit_identical_to_direct_run() {
    let app = mp3d(&Mp3dParams::scaled(0.1), 8, 5);
    let mut cfg = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(2, 2));
    cfg.clusters = 8;
    cfg.check_invariants = true;

    let direct = Machine::new(cfg.clone(), app.scripts()).run();

    let trace = capture(&app);
    let bytes = trace.to_bytes();
    let reloaded = Trace::from_bytes(&bytes).expect("decode");
    let replayed = Machine::new(cfg, reloaded.replay()).run();

    assert_eq!(direct.cycles, replayed.cycles);
    assert_eq!(direct.traffic, replayed.traffic);
    assert_eq!(direct.invalidations, replayed.invalidations);
    assert_eq!(direct.shared_reads, replayed.shared_reads);
    assert_eq!(direct.sync_ops, replayed.sync_ops);
}

#[test]
fn one_trace_many_memory_systems() {
    // The whole point of trace mode: one capture, many configurations.
    let app = locusroute(&LocusRouteParams::scaled(0.15), 8, 5);
    let trace = capture(&app);
    let mut totals = Vec::new();
    for scheme in [Scheme::FullVector, Scheme::dir_b(2), Scheme::dir_cv(2, 2)] {
        let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
        cfg.clusters = 8;
        let stats = Machine::new(cfg, trace.replay()).run();
        totals.push(stats.traffic.total());
    }
    // Broadcast must emit the most traffic on this region-shared workload.
    assert!(totals[1] > totals[0]);
    assert!(totals[1] > totals[2]);
}

#[test]
fn trace_file_round_trip_preserves_everything() {
    let app = mp3d(&Mp3dParams::scaled(0.05), 4, 9);
    let trace = capture(&app);
    let path = std::env::temp_dir().join("scd_integration_trace.scdt");
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(trace, loaded);
    assert_eq!(loaded.total_ops(), app.total_ops());
}
