//! Replacement hints: silently evicted clean copies may be un-recorded at
//! the home, trading hint messages for invalidation precision.

use scd_machine::{Machine, MachineConfig, RunStats};
use scd_sim::SimRng;
use scd_stats::MessageClass::*;
use scd_tango::{Op, Script};

fn addr(block: u64) -> u64 {
    block * 16
}

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

#[test]
fn hint_prevents_stale_invalidations() {
    // Cluster 1 reads block 0, then walks a conflict chain that evicts it
    // (tiny L2: 16 blocks 2-way, so 0, 8, 16 share a set... use 0, 8, 16).
    // Cluster 2 then writes block 0: without hints the stale pointer to 1
    // draws an invalidation; with hints it does not.
    let mk_scripts = || {
        vec![
            vec![Op::Barrier(0)],
            vec![
                Op::Read(addr(0)),
                Op::Read(addr(8)),
                Op::Read(addr(16)),
                Op::Read(addr(24)),
                Op::Read(addr(32)),
                Op::Read(addr(40)),
                Op::Barrier(0),
            ],
            vec![Op::Barrier(0), Op::Write(addr(0))],
        ]
    };
    let mut cfg = MachineConfig::tiny(3);
    cfg.l2_blocks = 4;
    cfg.l2_ways = 2;
    cfg.l1_blocks = 2;
    let without = run(cfg.clone(), mk_scripts());
    cfg.replacement_hints = true;
    let with = run(cfg, mk_scripts());
    assert_eq!(
        without.traffic.get(Invalidation),
        1,
        "stale pointer draws an invalidation without hints"
    );
    assert_eq!(
        with.traffic.get(Invalidation),
        0,
        "the hint un-recorded the evicted sharer"
    );
    assert!(
        with.traffic.get(Request) > without.traffic.get(Request),
        "hints themselves are request-class messages"
    );
}

#[test]
fn hints_stay_coherent_under_stress() {
    for seed in 0..6 {
        let mut root = SimRng::new(0x41B7 + seed);
        let scripts: Vec<Vec<Op>> = (0..8)
            .map(|p| {
                let mut rng = root.fork(p);
                (0..300)
                    .map(|_| {
                        let b = rng.below(48);
                        if rng.chance(0.35) {
                            Op::Write(addr(b))
                        } else {
                            Op::Read(addr(b))
                        }
                    })
                    .collect()
            })
            .collect();
        let mut cfg = MachineConfig::tiny(8);
        cfg.l2_blocks = 8;
        cfg.l2_ways = 2;
        cfg.l1_blocks = 2;
        cfg.replacement_hints = true;
        // tiny() keeps the version oracle + quiescent checker on.
        let stats = run(cfg, scripts);
        assert!(stats.cycles > 0, "seed {seed}");
    }
}

#[test]
fn hints_with_multiprocessor_clusters_respect_peer_copies() {
    // Proc 0 and proc 1 of cluster 0 both hold block 1; proc 0 evicts its
    // copy — no hint must be sent while the peer still holds one (the
    // directory must keep covering the cluster).
    let mut cfg = MachineConfig::tiny(2);
    cfg.procs_per_cluster = 2;
    cfg.l2_blocks = 4;
    cfg.l2_ways = 2;
    cfg.l1_blocks = 2;
    cfg.replacement_hints = true;
    let stats = run(
        cfg,
        vec![
            vec![
                Op::Read(addr(1)),
                Op::Barrier(0),
                // Conflict chain evicts proc 0's copy of block 1.
                Op::Read(addr(9)),
                Op::Read(addr(17)),
                Op::Read(addr(25)),
                Op::Barrier(1),
            ],
            vec![Op::Read(addr(1)), Op::Barrier(0), Op::Barrier(1), Op::Read(addr(1))],
            vec![Op::Barrier(0), Op::Barrier(1)],
            vec![Op::Barrier(0), Op::Barrier(1)],
        ],
    );
    // The final read by proc 1 must still hit its (covered) copy; the
    // quiescent checker verifies the directory still covers cluster 0.
    assert!(stats.cycles > 0);
}
