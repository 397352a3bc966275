//! The §3.3 critique of cache-based linked-list (SCI-style) directories,
//! made quantitative: "each write produces a serial string of
//! invalidations in the linked list scheme... In contrast, the memory-
//! based directory scheme can send invalidation messages as fast as the
//! network can accept them."

use scd_machine::{Machine, MachineConfig, RunStats};
use scd_stats::MessageClass::*;
use scd_tango::{Op, Script};

fn addr(block: u64) -> u64 {
    block * 16
}

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

/// N-1 clusters read a block, then cluster 1 writes it; returns the stats.
fn wide_share_then_write(n: usize, serial: bool) -> RunStats {
    let mut cfg = MachineConfig::tiny(n);
    cfg.serial_invalidations = serial;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0)]];
    scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0), Op::Write(addr(0))]);
    for _ in 2..n {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    run(cfg, scripts)
}

#[test]
fn serial_mode_sends_the_same_number_of_invalidations() {
    let par = wide_share_then_write(8, false);
    let ser = wide_share_then_write(8, true);
    assert_eq!(
        par.traffic.get(Invalidation),
        ser.traffic.get(Invalidation),
        "same sharers get invalidated either way"
    );
    assert_eq!(
        par.traffic.get(Acknowledgement),
        ser.traffic.get(Acknowledgement)
    );
}

#[test]
fn serial_mode_pays_one_round_trip_per_sharer() {
    // 6 sharers: the parallel scheme overlaps the invalidations; the
    // serial walk pays ~one network round trip each.
    let par = wide_share_then_write(8, false);
    let ser = wide_share_then_write(8, true);
    assert!(
        ser.cycles > par.cycles + 5 * 20,
        "serial {} should exceed parallel {} by ~5 extra round trips",
        ser.cycles,
        par.cycles
    );
}

#[test]
fn serialization_penalty_grows_with_sharer_count() {
    let gap = |n: usize| {
        let par = wide_share_then_write(n, false);
        let ser = wide_share_then_write(n, true);
        ser.cycles as i64 - par.cycles as i64
    };
    let g4 = gap(4);
    let g10 = gap(10);
    assert!(
        g10 > g4 + 4 * 20,
        "gap must grow with sharers: {g4} -> {g10}"
    );
}

#[test]
fn serial_mode_stays_coherent_under_stress() {
    use scd_sim::SimRng;
    for seed in 0..4 {
        let mut root = SimRng::new(0x5C1 + seed);
        let scripts: Vec<Vec<Op>> = (0..8)
            .map(|p| {
                let mut rng = root.fork(p);
                (0..300)
                    .map(|_| {
                        let b = rng.below(16);
                        if rng.chance(0.4) {
                            Op::Write(addr(b))
                        } else {
                            Op::Read(addr(b))
                        }
                    })
                    .collect()
            })
            .collect();
        let mut cfg = MachineConfig::tiny(8);
        cfg.serial_invalidations = true;
        let stats = run(cfg, scripts);
        assert!(stats.cycles > 0, "seed {seed}");
    }
}

#[test]
fn home_cluster_write_also_serializes() {
    // The writer is the home cluster itself (block 0 homes at cluster 0).
    let n = 6;
    let mut cfg = MachineConfig::tiny(n);
    cfg.serial_invalidations = true;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0), Op::Write(addr(0))]];
    for _ in 1..n {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    let stats = run(cfg, scripts);
    assert_eq!(stats.traffic.get(Invalidation), (n - 1) as u64);
    assert_eq!(stats.shared_writes, 1);
}
