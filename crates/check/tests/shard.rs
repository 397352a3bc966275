//! The litmus corpus under sharded execution: every (litmus, scenario)
//! pair must produce byte-identical statistics and traces whether the
//! 2–3-cluster machine runs serially or partitioned one cluster per
//! worker thread.

use scd_check::{corpus, scenarios};
use scd_machine::ShardedMachine;
use scd_noc::FaultPlan;

#[test]
fn litmus_corpus_is_shard_invariant() {
    for l in corpus() {
        for sc in scenarios() {
            let serial = {
                let mut m = l.build(&sc, None, true);
                let stats = m.try_run().unwrap_or_else(|e| {
                    panic!("{} under {} (serial): {e}", l.name, sc.label)
                });
                let trace: Vec<String> = m
                    .trace_events()
                    .iter()
                    .map(|e| e.to_json().to_string())
                    .collect();
                (stats.to_json().to_string(), trace.join("\n"))
            };
            for shards in 2..=l.clusters {
                let mut m = ShardedMachine::new(l.config(&sc, true), l.scripts(), shards)
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", l.name, sc.label));
                let stats = m.try_run().unwrap_or_else(|e| {
                    panic!("{} under {} ({shards} shards): {e}", l.name, sc.label)
                });
                let trace: Vec<String> = m
                    .trace_events()
                    .iter()
                    .map(|e| e.to_json().to_string())
                    .collect();
                assert_eq!(
                    serial,
                    (stats.to_json().to_string(), trace.join("\n")),
                    "{} under {} diverged at {shards} shards",
                    l.name,
                    sc.label
                );
            }
        }
    }
}

/// The corpus again, but with the fault injector live on every channel:
/// per-channel RNG streams make NACK/duplicate/delay placement a function
/// of (seed, src, dst), never of the shard partition.
#[test]
fn faulted_litmus_runs_are_shard_invariant() {
    let plan = FaultPlan {
        nack_prob: 0.1,
        dup_prob: 0.05,
        delay_prob: 0.1,
        delay_cycles: 7,
        reorder_prob: 0.05,
        reorder_window: 5,
    };
    for l in corpus() {
        for sc in scenarios() {
            let run = |shards: usize| {
                let mut cfg = l.config(&sc, false);
                cfg.fault_plan = Some(plan);
                let mut m = ShardedMachine::new(cfg, l.scripts(), shards)
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", l.name, sc.label));
                m.try_run()
                    .unwrap_or_else(|e| {
                        panic!("{} under {} ({shards} shards): {e}", l.name, sc.label)
                    })
                    .to_json()
                    .to_string()
            };
            assert_eq!(
                run(1),
                run(2),
                "{} under {} diverged with faults at 2 shards",
                l.name,
                sc.label
            );
        }
    }
}
