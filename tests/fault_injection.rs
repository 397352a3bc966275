//! Fault-injection suite: the protocol must absorb injected NACKs,
//! duplicated read requests, latency spikes, and out-of-order request
//! jitter — still quiescing with the coherence invariants intact — and the
//! machine must report unrecoverable runs (deadlock, livelock, cycle
//! budget) as structured [`SimError`]s with a useful post-mortem instead of
//! panicking.

use scd::core::{Replacement, Scheme};
use scd::machine::{Machine, MachineConfig, RunStats, SimError};
use scd::noc::FaultPlan;
use scd::sim::SimRng;
use scd::tango::{Op, Script};

/// A random mix of reads/writes over a small hot block set (same shape as
/// the coherence stress suite, shortened so the whole fault matrix stays
/// quick in debug builds).
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

fn run_faulty(cfg: MachineConfig, blocks: u64, seed: u64) -> RunStats {
    let programs = random_programs(cfg.processors(), 250, blocks, 0.4, seed);
    match Machine::new(cfg, programs).try_run() {
        Ok(stats) => stats,
        Err(e) => panic!("faulty run failed to quiesce: {e}"),
    }
}

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::FullVector,
        Scheme::dir_b(3),
        Scheme::dir_nb(3),
        Scheme::dir_x(3),
        Scheme::dir_cv(3, 2),
        Scheme::dir_cv(1, 4),
        Scheme::dir_b(1),
        Scheme::dir_nb(1),
    ]
}

/// One plan per fault mode, rates high enough that every mode fires many
/// times over a 250-op-per-proc run.
fn fault_modes() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("nack", FaultPlan::nack(0.05)),
        ("dup", FaultPlan::dup(0.03)),
        ("delay", FaultPlan::delay(0.05, 200)),
        ("reorder", FaultPlan::reorder(0.05, 100)),
    ]
}

#[test]
fn every_scheme_quiesces_under_every_fault_mode() {
    for scheme in all_schemes() {
        for (mode, plan) in fault_modes() {
            // tiny() runs the quiescent invariant checker and the version
            // oracle, so a fault that corrupted coherence would surface as
            // an Invariant error here.
            let cfg = MachineConfig::tiny(6).with_scheme(scheme).with_fault(plan);
            let stats = run_faulty(cfg, 24, 0xFA017);
            assert!(stats.cycles > 0, "{scheme:?} under {mode}");
        }
    }
}

#[test]
fn sparse_and_overflow_directories_quiesce_under_every_fault_mode() {
    for scheme in [Scheme::FullVector, Scheme::dir_cv(2, 2), Scheme::dir_b(2)] {
        for (mode, plan) in fault_modes() {
            let sparse = MachineConfig::tiny(6)
                .with_scheme(scheme)
                .with_sparse(8, 2, Replacement::Lru)
                .with_fault(plan);
            // 32 blocks per home >> 8 directory entries per home, so
            // replacement flushes interleave with the injected faults.
            run_faulty(sparse, 192, 0xFA025);

            let overflow = MachineConfig::tiny(6)
                .with_overflow(2, 4, 2, Replacement::Lru)
                .with_fault(plan);
            let stats = run_faulty(overflow, 96, 0xFA033);
            assert!(stats.cycles > 0, "overflow under {mode}");
        }
    }
}

#[test]
fn nack_mode_counts_nacks_and_retries() {
    let cfg = MachineConfig::tiny(6).with_fault(FaultPlan::nack(0.05));
    let stats = run_faulty(cfg, 24, 0xFA041);
    assert!(stats.faults.nacks > 0, "no NACKs injected: {:?}", stats.faults);
    assert!(stats.faults.retries > 0, "no retries issued: {:?}", stats.faults);
    // Every retry answers a NACK; a NACK may also be dropped as stale.
    assert!(
        stats.faults.retries <= stats.faults.nacks,
        "more retries than NACKs: {:?}",
        stats.faults
    );
}

#[test]
fn dup_mode_counts_duplicates_and_dropped_strays() {
    let cfg = MachineConfig::tiny(6).with_fault(FaultPlan::dup(0.05));
    let stats = run_faulty(cfg, 24, 0xFA049);
    assert!(stats.faults.duplicates > 0, "no duplicates: {:?}", stats.faults);
    assert!(
        stats.faults.strays_dropped > 0,
        "duplicated services produced no strays: {:?}",
        stats.faults
    );
}

#[test]
fn delay_and_reorder_modes_count_their_injections() {
    let cfg = MachineConfig::tiny(6).with_fault(FaultPlan::delay(0.05, 200));
    let stats = run_faulty(cfg, 24, 0xFA057);
    assert!(stats.faults.delay_spikes > 0, "{:?}", stats.faults);

    let cfg = MachineConfig::tiny(6).with_fault(FaultPlan::reorder(0.05, 100));
    let stats = run_faulty(cfg, 24, 0xFA057);
    assert!(stats.faults.reorders > 0, "{:?}", stats.faults);
}

#[test]
fn combined_fault_modes_still_quiesce() {
    let plan = FaultPlan::parse("nack:0.03,dup:0.02,delay:0.03:150,reorder:0.03:80")
        .expect("valid spec");
    for scheme in [Scheme::FullVector, Scheme::dir_nb(3), Scheme::dir_cv(3, 2)] {
        let cfg = MachineConfig::tiny(6).with_scheme(scheme).with_fault(plan);
        let stats = run_faulty(cfg, 24, 0xFA065);
        assert!(stats.faults.nacks > 0 && stats.faults.duplicates > 0, "{:?}", stats.faults);
    }
}

#[test]
fn inert_plan_is_bit_identical_to_no_plan() {
    let run = |plan: Option<FaultPlan>| {
        let mut cfg = MachineConfig::tiny(6);
        cfg.fault_plan = plan;
        let programs = random_programs(cfg.processors(), 250, 24, 0.4, 0xFA073);
        Machine::new(cfg, programs).run()
    };
    let base = run(None);
    let inert = run(Some(FaultPlan::none()));
    assert_eq!(base.cycles, inert.cycles);
    assert_eq!(base.traffic, inert.traffic);
    assert_eq!(base.l2_misses, inert.l2_misses);
    assert_eq!(base.protocol, inert.protocol);
    assert_eq!(base.faults, inert.faults);
    assert_eq!(inert.faults, Default::default());
}

#[test]
fn permanent_nacks_trip_the_livelock_watchdog() {
    // nack_prob = 1.0 refuses every coherence request forever: the retry
    // loop never converges, so the watchdog must end the run and name the
    // starving processor.
    let cfg = MachineConfig::tiny(2)
        .with_fault(FaultPlan::nack(1.0))
        .with_watchdog(50_000);
    let programs: Vec<Script> = vec![
        Script::from(vec![]),
        // Block 0's home is cluster 0, so cluster 1's read is remote.
        Script::from(vec![Op::Read(0)]),
    ];
    let err = Machine::new(cfg, programs).try_run().expect_err("must livelock");
    let SimError::LivelockWatchdog(pm) = &err else {
        panic!("expected LivelockWatchdog, got {err}");
    };
    assert!(pm.blocked_procs.iter().any(|b| b.proc == 1), "{err}");
    assert!(pm.faults.nacks > 0 && pm.faults.retries > 0, "{err}");
    let text = err.to_string();
    assert!(text.contains("livelock") && text.contains("proc 1"), "{text}");
}

#[test]
fn lost_lock_grant_reports_deadlock_with_post_mortem() {
    // Processor 0 takes the lock and finishes without releasing it;
    // processor 1 waits forever. Once the queue drains, that is a deadlock
    // and the post-mortem must name the blocked processor.
    let cfg = MachineConfig::tiny(2);
    let programs: Vec<Script> = vec![
        Script::from(vec![Op::Lock(0)]),
        Script::from(vec![Op::Compute(500), Op::Lock(0)]),
    ];
    let err = Machine::new(cfg, programs).try_run().expect_err("must deadlock");
    let SimError::Deadlock(pm) = &err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(pm.running, 1, "{err}");
    assert!(pm.blocked_procs.iter().any(|b| b.proc == 1), "{err}");
    assert!(err.to_string().contains("deadlock"), "{err}");
}

#[test]
fn a_barrier_nobody_else_reaches_reports_deadlock() {
    // Processor 3 waits at a barrier the others never reach: the queue
    // drains with it blocked, and the post-mortem names it.
    let cfg = MachineConfig::tiny(4);
    let mut programs = vec![Script::from(vec![Op::Read(16)]); 4];
    programs[3] = Script::from(vec![Op::Barrier(7)]);
    let err = Machine::new(cfg, programs).try_run().expect_err("must deadlock");
    let SimError::Deadlock(pm) = &err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(pm.running, 1, "{err}");
    assert!(pm.blocked_procs.iter().any(|b| b.proc == 3), "{err}");
}

#[test]
fn exceeding_the_cycle_budget_reports_max_cycles() {
    let mut cfg = MachineConfig::tiny(2);
    cfg.max_cycles = 100;
    let programs: Vec<Script> = vec![
        Script::from(vec![Op::Compute(80), Op::Compute(80)]),
        Script::from(vec![]),
    ];
    let err = Machine::new(cfg, programs)
        .try_run()
        .expect_err("must exceed the budget");
    assert!(matches!(err, SimError::MaxCycles(_)), "{err}");
    assert!(err.to_string().contains("max_cycles"), "{err}");
}

#[test]
fn run_panics_with_the_formatted_post_mortem() {
    let result = std::panic::catch_unwind(|| {
        let cfg = MachineConfig::tiny(2);
        let programs: Vec<Script> = vec![
            Script::from(vec![Op::Lock(0)]),
            Script::from(vec![Op::Compute(500), Op::Lock(0)]),
        ];
        Machine::new(cfg, programs).run()
    });
    let payload = result.expect_err("run() must panic on deadlock");
    let text = payload
        .downcast_ref::<String>()
        .expect("panic payload is the formatted error");
    assert!(text.contains("deadlock") && text.contains("proc 1"), "{text}");
}

/// Arena-churn soundness: duplicated, delayed, and reordered deliveries
/// drive the message arena's alloc/take traffic through its free-list
/// reuse paths in adversarial orders (a duplicate gets its own slot, a
/// reordered request is taken long after later allocations recycled its
/// neighbours). `try_run` itself asserts the arena's accounting — every
/// parked payload taken exactly once, none left after the queue drains —
/// as an invariant that fails the run, so quiescing across every scheme
/// IS the soundness check; the stats assertions just prove the churn was
/// real and the event accounting stayed consistent.
#[test]
fn message_arena_stays_sound_under_fault_churn() {
    let plan = FaultPlan::parse("dup:0.04,delay:0.04:180,reorder:0.04:90").expect("valid spec");
    for scheme in all_schemes() {
        let cfg = MachineConfig::tiny(6).with_scheme(scheme).with_fault(plan);
        let stats = run_faulty(cfg, 48, 0xFA073);
        assert!(
            stats.faults.duplicates > 0
                && stats.faults.delay_spikes > 0
                && stats.faults.reorders > 0,
            "churn did not exercise every mode under {scheme:?}: {:?}",
            stats.faults
        );
        // Each simulated message is one Deliver event; processor steps and
        // replays ride the same queue, so the pop count dominates the
        // network message count (duplicates deliver without being sent).
        assert!(
            stats.events_delivered > stats.network.messages,
            "event count {} inconsistent with {} network messages",
            stats.events_delivered,
            stats.network.messages
        );
    }
}
