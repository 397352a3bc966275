//! Sharded execution: byte-identity with the serial engine.
//!
//! The contract under test is the tentpole guarantee: for any shard
//! count, a sharded run produces the *same bytes* as the serial engine —
//! stats documents, retained traces, streamed JSONL, metrics — because
//! every event carries a canonical `(cycle, stamp)` rank and the
//! conservative window barrier never lets a cross-shard message arrive
//! inside the window that produced it.

use scd_machine::{Machine, MachineConfig, ShardedMachine, SimError};
use scd_noc::{FaultPlan, LatencyModel};
use scd_sim::SimRng;
use scd_tango::{Op, Script};
use scd_trace::{BufferSink, Json, TraceConfig};

fn programs(scripts: &[Vec<Op>]) -> Vec<Script> {
    scripts.iter().cloned().map(Script::from).collect()
}

/// A mixed workload: random reads/writes over a small block set with a
/// lock-protected phase and barriers, enough cross-cluster traffic to
/// exercise every boundary path.
fn mixed_scripts(procs: usize, blocks: u64, seed: u64) -> Vec<Vec<Op>> {
    let mut root = SimRng::new(seed);
    (0..procs)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            let mut ops = Vec::new();
            for _ in 0..120 {
                let b = rng.below(blocks) * 16;
                if rng.chance(0.3) {
                    ops.push(Op::Write(b));
                } else {
                    ops.push(Op::Read(b));
                }
                if rng.chance(0.05) {
                    ops.push(Op::Compute(7));
                }
            }
            ops.push(Op::Lock(1));
            ops.push(Op::Write(rng.below(blocks) * 16));
            ops.push(Op::Unlock(1));
            ops.push(Op::Barrier(0));
            ops.push(Op::Read(rng.below(blocks) * 16));
            ops
        })
        .collect()
}

fn full_trace() -> TraceConfig {
    let mut tc = TraceConfig::none();
    tc.ring_capacity = 4096;
    tc.messages = true;
    tc.metrics = true;
    tc.interval = 500;
    tc.attribution = true;
    tc
}

/// Renders the full stats document plus the retained trace for one run.
fn run_sharded(cfg: &MachineConfig, scripts: &[Vec<Op>], shards: usize) -> (String, String) {
    let mut m = ShardedMachine::new(cfg.clone(), programs(scripts), shards).unwrap();
    let stats = m.run();
    let doc = stats.to_json_document(
        None,
        Some(m.metrics()),
        m.attribution_json(stats.cycles),
        m.trace_json(),
        m.occupancy_json(),
    );
    let trace: Vec<String> = m.trace_events().iter().map(scd_trace::event_line).collect();
    (doc.to_string(), trace.join("\n"))
}

#[test]
fn stats_and_traces_are_byte_identical_across_shard_counts() {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(6, 24, 0xD15C);
    let (doc1, trace1) = run_sharded(&cfg, &scripts, 1);
    for shards in [2, 3, 4, 6] {
        let (doc_n, trace_n) = run_sharded(&cfg, &scripts, shards);
        assert_eq!(doc1, doc_n, "stats document diverged at {shards} shards");
        assert_eq!(trace1, trace_n, "trace diverged at {shards} shards");
    }
}

#[test]
fn mesh_latency_model_is_shard_invariant_too() {
    let mut cfg = MachineConfig::tiny(8);
    cfg.latency = LatencyModel::Mesh {
        fixed: 13,
        per_hop: 1,
    };
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(8, 32, 0xBEEF);
    let (doc1, trace1) = run_sharded(&cfg, &scripts, 1);
    let (doc4, trace4) = run_sharded(&cfg, &scripts, 4);
    assert_eq!(doc1, doc4);
    assert_eq!(trace1, trace4);
}

#[test]
fn solo_machine_and_one_shard_agree() {
    // `--shards 1` must be the serial engine, not merely equivalent to it.
    let mut cfg = MachineConfig::tiny(4);
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(4, 16, 0xA11CE);
    let serial = Machine::new(cfg.clone(), programs(&scripts)).run();
    let (doc1, _) = run_sharded(&cfg, &scripts, 1);
    let serial_doc = {
        let mut m = Machine::new(cfg.clone(), programs(&scripts));
        let stats = m.run();
        assert_eq!(stats.cycles, serial.cycles);
        stats
            .to_json_document(
                None,
                Some(m.metrics()),
                m.attribution_json(stats.cycles),
                m.trace_json(),
                m.occupancy_json(),
            )
            .to_string()
    };
    assert_eq!(serial_doc, doc1);
}

#[test]
fn streamed_jsonl_is_byte_identical_across_shard_counts() {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(6, 24, 0x57A3);
    let stream_of = |shards: usize| -> Vec<String> {
        let mut m = ShardedMachine::new(cfg.clone(), programs(&scripts), shards).unwrap();
        let sink = BufferSink::new();
        let lines = sink.handle();
        m.attach_stream(
            Box::new(sink),
            Some(Json::obj().with("app", Json::Str("shard-test".into()))),
        );
        m.run();
        let got = lines.lock().unwrap().clone();
        got
    };
    let serial = stream_of(1);
    assert!(serial.len() > 3, "stream should carry real content");
    for shards in [2, 3, 6] {
        assert_eq!(serial, stream_of(shards), "stream diverged at {shards} shards");
    }
}

/// A sink that sheds lines is reported by the coordinator exactly as by
/// the solo engine: same stream, same one-slot channel nobody reads, same
/// count.
#[test]
fn shed_lines_surface_identically_across_shard_counts() {
    let mut cfg = MachineConfig::tiny(6);
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(6, 24, 0x57A3);
    let shed = |shards: usize| {
        let mut m = ShardedMachine::new(cfg.clone(), programs(&scripts), shards).unwrap();
        let (sink, _rx) = scd_trace::ChannelSink::bounded(1);
        m.attach_stream(Box::new(sink), None);
        assert_eq!(m.stream_shed_lines(), 0, "nothing is shed before the run");
        m.run();
        m.stream_shed_lines()
    };
    let solo = shed(1);
    assert!(solo > 0, "run too small to overflow a one-slot channel");
    assert_eq!(shed(2), solo);
}

#[test]
fn fault_injection_is_shard_invariant() {
    // Fault draws come from per-channel streams (seeded by src/dst), so
    // NACK/duplicate/delay placement — and therefore every counter — is
    // independent of the shard partition.
    let mut cfg = MachineConfig::tiny(6);
    cfg.fault_plan = Some(FaultPlan {
        nack_prob: 0.05,
        dup_prob: 0.03,
        delay_prob: 0.05,
        delay_cycles: 9,
        reorder_prob: 0.05,
        reorder_window: 6,
    });
    let scripts = mixed_scripts(6, 24, 0xFA17);
    let run = |shards: usize| {
        ShardedMachine::new(cfg.clone(), programs(&scripts), shards)
            .unwrap()
            .run()
    };
    let serial = run(1);
    assert!(
        serial.faults.nacks + serial.faults.duplicates + serial.faults.delay_spikes > 0,
        "faults should actually fire"
    );
    for shards in [2, 3] {
        let sharded = run(shards);
        assert_eq!(
            serial.to_json().to_string(),
            sharded.to_json().to_string(),
            "fault-injected stats diverged at {shards} shards"
        );
    }
}

#[test]
fn shard_count_is_validated() {
    let cfg = MachineConfig::tiny(4);
    let mk = |cfg: &MachineConfig, shards| {
        ShardedMachine::new(cfg.clone(), programs(&mixed_scripts(4, 8, 1)), shards)
    };
    assert!(mk(&cfg, 0).is_err());
    assert!(mk(&cfg, 5).is_err(), "more shards than clusters");
    assert_eq!(mk(&cfg, 4).unwrap().shard_count(), 4);

    let mut zero_lookahead = cfg.clone();
    zero_lookahead.latency = LatencyModel::Uniform { latency: 0 };
    assert!(mk(&zero_lookahead, 2).is_err());
    assert!(mk(&zero_lookahead, 1).is_ok(), "solo needs no lookahead");

    let mut contended = cfg.clone();
    contended.link_occupancy = Some(1);
    contended.latency = LatencyModel::Mesh {
        fixed: 13,
        per_hop: 1,
    };
    assert!(mk(&contended, 2).is_err(), "link contention is global");

    let mut patterns = cfg.clone();
    let mut tc = full_trace();
    tc.patterns = true;
    patterns.trace = Some(tc);
    assert!(mk(&patterns, 2).is_err(), "observatory reads remote state");
}

#[test]
fn deadlock_post_mortem_names_the_stalled_shard() {
    // Proc 3 waits at a barrier nobody else reaches: the queues drain
    // with a processor still blocked, and the failure names the shard
    // owning it.
    let cfg = MachineConfig::tiny(4);
    let mut scripts = vec![vec![Op::Read(16)]; 4];
    scripts[3] = vec![Op::Barrier(7)];
    let mut m = ShardedMachine::new(cfg, programs(&scripts), 2).unwrap();
    match m.try_run() {
        Err(SimError::Deadlock(pm)) => {
            assert!(
                pm.detail.contains("shard 1 (clusters 2..4)"),
                "post-mortem should name the stalled shard: {}",
                pm.detail
            );
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

#[test]
fn watchdog_fires_globally_and_names_the_laggard() {
    // An infinite lock convoy: proc 0 takes the lock and never releases;
    // proc 3 retries forever. No operation retires, so the coordinator's
    // barrier-level watchdog must fire (worker-local checks are disabled
    // because one shard legitimately idles while another works).
    let mut cfg = MachineConfig::tiny(4);
    cfg.watchdog_cycles = 2_000;
    let mut scripts = vec![Vec::new(); 4];
    scripts[0] = vec![Op::Lock(0), Op::Read(16)];
    scripts[3] = vec![Op::Lock(0), Op::Unlock(0)];
    let mut m = ShardedMachine::new(cfg, programs(&scripts), 2).unwrap();
    match m.try_run() {
        Err(SimError::LivelockWatchdog(pm)) => {
            assert!(
                pm.detail.contains("shard"),
                "watchdog detail should locate a shard: {}",
                pm.detail
            );
        }
        Err(SimError::Deadlock(_)) => {
            // Acceptable alternative: lock waiters park rather than spin,
            // so the queue drains instead of livelocking. Either way the
            // run must not hang or succeed.
        }
        other => panic!("expected watchdog or deadlock, got {other:?}"),
    }
}

#[test]
fn uneven_partitions_cover_every_cluster() {
    // 5 clusters over 2 and 3 shards: contiguous, disjoint, exhaustive.
    let mut cfg = MachineConfig::tiny(5);
    cfg.trace = Some(full_trace());
    let scripts = mixed_scripts(5, 20, 0x0DD);
    let (doc1, trace1) = run_sharded(&cfg, &scripts, 1);
    for shards in [2, 3, 5] {
        let (doc_n, trace_n) = run_sharded(&cfg, &scripts, shards);
        assert_eq!(doc1, doc_n, "uneven split diverged at {shards} shards");
        assert_eq!(trace1, trace_n);
    }
}
