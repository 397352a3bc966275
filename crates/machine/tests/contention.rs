//! Link-contention model: messages queue behind each other on mesh links.
//! The protocol must stay coherent even though contention breaks the
//! FIFO/triangle-inequality delivery guarantees the latency-only model
//! provides (poisoned reads and writeback-flag deferral cover the
//! reordered cases).

use scd_machine::{Machine, MachineConfig, RunStats};
use scd_noc::LatencyModel;
use scd_sim::SimRng;
use scd_tango::{Op, Script};

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

fn random_scripts(procs: usize, blocks: u64, wr: f64, seed: u64) -> Vec<Vec<Op>> {
    let mut root = SimRng::new(seed);
    (0..procs)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            (0..300)
                .map(|_| {
                    let b = rng.below(blocks) * 16;
                    if rng.chance(wr) {
                        Op::Write(b)
                    } else {
                        Op::Read(b)
                    }
                })
                .collect()
        })
        .collect()
}

fn mesh_cfg(clusters: usize, occupancy: Option<u64>) -> MachineConfig {
    let mut cfg = MachineConfig::tiny(clusters);
    cfg.latency = LatencyModel::Mesh {
        fixed: 13,
        per_hop: 1,
    };
    cfg.link_occupancy = occupancy;
    cfg
}

#[test]
fn contention_slows_execution_and_is_accounted() {
    let scripts = random_scripts(8, 16, 0.4, 0xC0);
    let free = run(mesh_cfg(8, None), scripts.clone());
    let congested = run(mesh_cfg(8, Some(8)), scripts);
    assert!(congested.cycles > free.cycles, "queuing must cost time");
    // Message counts shift only marginally (timing perturbs evictions and
    // upgrade-vs-miss classification, not the reference stream).
    assert_eq!(congested.shared_refs(), free.shared_refs());
    let (a, b) = (congested.traffic.total() as f64, free.traffic.total() as f64);
    assert!((a - b).abs() < 0.1 * b, "traffic roughly unchanged: {a} vs {b}");
    assert!(congested.network.contention_cycles > 0);
    assert_eq!(free.network.contention_cycles, 0);
}

#[test]
fn coherence_survives_reordering_under_heavy_contention() {
    // tiny() keeps the version oracle + quiescent checker on: any stale
    // copy resurrected by a reordered reply/invalidation pair panics.
    for seed in 0..8 {
        let scripts = random_scripts(8, 12, 0.5, 0xDEAD + seed);
        let stats = run(mesh_cfg(8, Some(16)), scripts);
        assert!(stats.cycles > 0, "seed {seed}");
    }
}

#[test]
fn contention_amplifies_broadcast_penalty() {
    // The paper: "In a real DASH system ... we consequently expect the
    // performance degradation due to an increased number of messages to be
    // larger than shown here." Broadcast's extra invalidations should cost
    // more time under contention than under the latency-only model.
    use scd_core::Scheme;
    let mk = |scheme, occ| {
        let mut cfg = mesh_cfg(8, occ).with_scheme(scheme);
        cfg.l2_blocks = 64; // keep capacity effects out of the comparison
        cfg.l2_ways = 4;
        cfg.l1_blocks = 16;
        cfg
    };
    // Partially shared blocks (4 of 8 clusters each), repeatedly written:
    // Dir1B overshoots to broadcast where the full vector hits the true
    // sharers, so B sends ~2x the invalidations.
    let mut scripts: Vec<Vec<Op>> = Vec::new();
    for p in 0..8usize {
        let mut ops = Vec::new();
        for round in 0..30u64 {
            for b in 0..8u64 {
                let share = (b % 4) as usize;
                if p % 4 == share || p % 4 == (share + 1) % 4 {
                    ops.push(Op::Read(b * 16));
                }
            }
            if p == 0 {
                ops.push(Op::Write((round % 8) * 16));
            }
            ops.push(Op::Barrier((round % 2) as u32));
        }
        scripts.push(ops);
    }
    let full_free = run(mk(Scheme::FullVector, None), scripts.clone());
    let b_free = run(mk(Scheme::dir_b(1), None), scripts.clone());
    let full_cong = run(mk(Scheme::FullVector, Some(12)), scripts.clone());
    let b_cong = run(mk(Scheme::dir_b(1), Some(12)), scripts);
    let penalty_free = b_free.cycles as f64 / full_free.cycles as f64;
    let penalty_cong = b_cong.cycles as f64 / full_cong.cycles as f64;
    assert!(
        penalty_cong > penalty_free,
        "broadcast penalty should grow under contention: {penalty_free:.3} -> {penalty_cong:.3}"
    );
}
