//! End-to-end tests of the overflow directory organization (§7 future
//! work): small per-block pointer entries promoted into a wide full-vector
//! cache on overflow.

use scd_core::{Replacement, Scheme};
use scd_machine::{Machine, MachineConfig, RunStats};
use scd_stats::MessageClass::*;
use scd_tango::{Op, Script};

fn addr(block: u64) -> u64 {
    block * 16
}

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

fn overflow_cfg(clusters: usize, i: usize, wide: usize) -> MachineConfig {
    MachineConfig::tiny(clusters).with_overflow(i, wide, wide.min(2), Replacement::Lru)
}

#[test]
fn widely_shared_block_promotes_instead_of_evicting() {
    // 6 clusters, i = 1, plenty of wide slots: clusters 1..=4 all read
    // block 0. Under plain Dir1NB this would thrash; with the overflow
    // cache the block promotes and everyone keeps their copy.
    let n = 6;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0)]];
    for _ in 1..=4 {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    scripts.push(vec![Op::Barrier(0)]);
    let stats = run(overflow_cfg(n, 1, 8), scripts);
    let o = stats.overflow.expect("overflow stats present");
    assert_eq!(o.promotions, 1);
    assert_eq!(o.fallback_evictions, 0);
    assert_eq!(
        stats.traffic.get(Invalidation),
        0,
        "no NB eviction flushes with a wide slot available"
    );
}

#[test]
fn promoted_block_invalidates_exactly_like_full_vector() {
    // After promotion, a write must invalidate exactly the true sharers.
    let n = 6;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0)]];
    for _ in 1..=4 {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    scripts.push(vec![Op::Barrier(0), Op::Write(addr(0))]);
    let stats = run(overflow_cfg(n, 1, 8), scripts);
    // Writer is cluster 5; sharers 1..=4 all get exact invalidations.
    assert_eq!(stats.traffic.get(Invalidation), 4);
    assert_eq!(stats.traffic.get(Acknowledgement), 4);
    assert_eq!(stats.invalidations.count(4), 1);
}

#[test]
fn write_collapse_demotes_back_to_small() {
    let n = 6;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0)]];
    for _ in 1..=4 {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    scripts.push(vec![Op::Barrier(0), Op::Write(addr(0))]);
    let stats = run(overflow_cfg(n, 1, 8), scripts);
    let o = stats.overflow.unwrap();
    assert_eq!(o.promotions, 1);
    assert_eq!(o.demotions, 1, "single dirty owner fits a small entry again");
}

#[test]
fn wide_cache_pressure_displaces_victims() {
    // One wide slot; two different blocks overflow: the second promotion
    // displaces the first, flushing its sharers.
    let n = 6;
    let reads = |b: u64| vec![Op::Read(addr(b)), Op::Barrier(0), Op::Barrier(1)];
    let scripts: Vec<Vec<Op>> = vec![
        vec![Op::Barrier(0), Op::Barrier(1)],
        reads(0),
        reads(0),
        // Block 6 also homes at cluster 0 and overflows in phase 2.
        vec![Op::Barrier(0), Op::Read(addr(6)), Op::Barrier(1)],
        vec![Op::Barrier(0), Op::Read(addr(6)), Op::Barrier(1)],
        vec![Op::Barrier(0), Op::Barrier(1)],
    ];
    let stats = run(overflow_cfg(n, 1, 1), scripts);
    let o = stats.overflow.unwrap();
    assert_eq!(o.promotions, 2);
    assert_eq!(o.displacements, 1, "second promotion displaces the first");
    assert!(
        stats.traffic.get(Invalidation) >= 2,
        "displaced victim's two sharers are flushed"
    );
}

#[test]
fn overflow_beats_nb_on_read_shared_data() {
    // The §7 motivation: read-by-all data. Compare Dir1NB against
    // Dir1 + overflow cache on a repeated-wide-read workload.
    let n = 8;
    let script = |c: usize| -> Vec<Op> {
        let mut ops = Vec::new();
        for round in 0..6 {
            if c > 0 {
                for b in 0..4u64 {
                    ops.push(Op::Read(addr(b)));
                }
            }
            ops.push(Op::Barrier(round % 2));
        }
        ops
    };
    let scripts: Vec<Vec<Op>> = (0..n).map(script).collect();
    let nb = run(
        MachineConfig::tiny(n).with_scheme(Scheme::dir_nb(1)),
        scripts.clone(),
    );
    let of = run(overflow_cfg(n, 1, 8), scripts);
    assert!(
        of.traffic.total() * 2 < nb.traffic.total(),
        "overflow {} should be far below NB thrash {}",
        of.traffic.total(),
        nb.traffic.total()
    );
    assert_eq!(of.traffic.get(Invalidation), 0);
    assert!(nb.traffic.get(Invalidation) > 50);
}

#[test]
fn randomized_stress_stays_coherent_under_overflow() {
    use scd_sim::SimRng;
    for seed in 0..6 {
        let mut root = SimRng::new(0x0F_10 + seed);
        let scripts: Vec<Vec<Op>> = (0..8)
            .map(|p| {
                let mut rng = root.fork(p);
                (0..300)
                    .map(|_| {
                        let b = rng.below(24);
                        if rng.chance(0.35) {
                            Op::Write(addr(b))
                        } else {
                            Op::Read(addr(b))
                        }
                    })
                    .collect()
            })
            .collect();
        // Tiny wide cache so displacements and pinned-set fallbacks occur.
        let stats = run(overflow_cfg(8, 2, 2), scripts);
        assert!(stats.cycles > 0, "seed {seed}");
    }
}

#[test]
fn overflow_with_multiprocessor_clusters() {
    use scd_sim::SimRng;
    let mut root = SimRng::new(77);
    let scripts: Vec<Vec<Op>> = (0..16)
        .map(|p| {
            let mut rng = root.fork(p);
            (0..200)
                .map(|_| {
                    let b = rng.below(24);
                    if rng.chance(0.3) {
                        Op::Write(addr(b))
                    } else {
                        Op::Read(addr(b))
                    }
                })
                .collect()
        })
        .collect();
    let mut cfg = overflow_cfg(4, 2, 4);
    cfg.procs_per_cluster = 4;
    let stats = run(cfg, scripts);
    assert_eq!(stats.shared_refs(), 16 * 200);
}
