//! Multi-processor clusters (DASH hardware: 4 processors per cluster).
//!
//! The §6 evaluation uses 1 processor per cluster, but the machine model
//! supports the real arrangement; these tests exercise the intra-cluster
//! paths — bus supply from a dirty peer, bus ownership transfer, local
//! lock handoff, hierarchical barriers — and the unsolicited sharing
//! writeback that keeps the home consistent when a dirty line is shared
//! inside its cluster.

use scd_core::Scheme;
use scd_machine::{Machine, MachineConfig, RunStats, SimError};
use scd_stats::MessageClass::*;
use scd_tango::{Op, Script};

fn cfg(clusters: usize, ppc: usize) -> MachineConfig {
    let mut c = MachineConfig::tiny(clusters);
    c.procs_per_cluster = ppc;
    c
}

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

fn addr(block: u64) -> u64 {
    block * 16
}

#[test]
fn dirty_peer_supplies_over_the_bus_with_home_notification() {
    // 2 clusters x 2 procs. Proc 0 (cluster 0) writes block 1 (home 1);
    // proc 1 (same cluster) then reads it: the bus supplies, and the home
    // learns via an unsolicited sharing writeback.
    let stats = run(
        cfg(2, 2),
        vec![
            vec![Op::Write(addr(1)), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Read(addr(1))],
            vec![Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ],
    );
    // Write: WriteReq + WriteReply. Local share: one SharingWriteback to
    // the home, no reply. Barrier: 1 arrive + 1 release (cluster 1).
    assert_eq!(stats.traffic.get(Request), 1 + 1 + 1);
    assert_eq!(stats.traffic.get(Reply), 1 + 1);
    assert_eq!(stats.l2_misses, 2, "write miss + peer read miss");
}

#[test]
fn bus_ownership_transfer_stays_local() {
    // Proc 0 writes, proc 1 (same cluster) writes the same block: the
    // second write is served by a bus transfer; the cluster remains owner
    // and no second home transaction occurs.
    let stats = run(
        cfg(2, 2),
        vec![
            vec![Op::Write(addr(1)), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Write(addr(1))],
            vec![Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ],
    );
    assert_eq!(
        stats.traffic.get(Request),
        1 + 1,
        "one WriteReq + one barrier arrival; the peer write is bus-local"
    );
    assert_eq!(stats.shared_writes, 2);
}

#[test]
fn merged_read_waiters_all_resume() {
    // Both procs of cluster 0 read the same remote block back to back; the
    // second merges into the first's MSHR (one request total).
    let stats = run(
        cfg(2, 2),
        vec![
            vec![Op::Read(addr(1))],
            vec![Op::Read(addr(1))],
            vec![],
            vec![],
        ],
    );
    assert_eq!(stats.shared_reads, 2);
    assert_eq!(
        stats.traffic.get(Request),
        1,
        "second read merges into the outstanding MSHR"
    );
    assert_eq!(stats.traffic.get(Reply), 1);
}

#[test]
fn local_lock_handoff_skips_the_home() {
    // Both procs of cluster 1 contend for a lock homed at cluster 0: one
    // LockReq/LockGrant pair, one UnlockReq at the end — the intermediate
    // handoff is bus-local.
    let script = vec![Op::Lock(0), Op::Compute(10), Op::Unlock(0)];
    let stats = run(
        cfg(2, 2),
        vec![vec![], vec![], script.clone(), script],
    );
    assert_eq!(stats.sync_ops, 4);
    assert_eq!(
        stats.traffic.get(Request),
        2,
        "one LockReq + one UnlockReq; the handoff is local"
    );
    assert_eq!(stats.traffic.get(Reply), 1, "a single grant");
    assert_eq!(stats.lock_metrics.0, 1, "the home grants the cluster once");
}

/// A program that releases a lock it does not hold is refused with a
/// post-mortem naming the processor and the lock, not a panic.
#[test]
fn releasing_a_lock_not_held_is_an_invariant_violation() {
    let refused = |cfg, scripts: Vec<Vec<Op>>| {
        let programs = scripts.into_iter().map(Script::from).collect();
        match Machine::new(cfg, programs).try_run() {
            Err(e @ SimError::InvariantViolation(_)) => e.post_mortem().detail.clone(),
            other => panic!("expected an invariant violation, got {other:?}"),
        }
    };
    // Never acquired, on a one-processor machine.
    let detail = refused(cfg(1, 1), vec![vec![Op::Unlock(0)]]);
    assert_eq!(detail, "processor 0 released lock 0 it does not hold");
    // Held by a cluster-mate: processor 0 takes lock 3, processor 1
    // releases it.
    let detail = refused(
        cfg(2, 2),
        vec![
            vec![Op::Lock(3), Op::Compute(500), Op::Unlock(3)],
            vec![Op::Compute(100), Op::Unlock(3)],
            vec![],
            vec![],
        ],
    );
    assert_eq!(detail, "processor 1 released lock 3 it does not hold");
}

#[test]
fn hierarchical_barrier_sends_one_arrival_per_cluster() {
    let n_clusters = 3;
    let ppc = 4;
    let scripts: Vec<Vec<Op>> = (0..n_clusters * ppc)
        .map(|_| vec![Op::Compute(5), Op::Barrier(0), Op::Compute(5)])
        .collect();
    let stats = run(cfg(n_clusters, ppc), scripts);
    assert_eq!(stats.sync_ops, (n_clusters * ppc) as u64);
    // Home cluster of barrier 0 is cluster 0: 2 remote arrivals + 2
    // releases.
    assert_eq!(stats.traffic.get(Request), 2);
    assert_eq!(stats.traffic.get(Reply), 2);
}

#[test]
fn dash_prototype_shape_runs_clean() {
    // 4 clusters x 4 processors (a quarter-scale DASH prototype) under
    // randomized load with invariants checked.
    use scd_sim::SimRng;
    let mut root = SimRng::new(99);
    let scripts: Vec<Vec<Op>> = (0..16)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            let mut ops = Vec::new();
            for _ in 0..200 {
                let b = rng.below(24);
                if rng.chance(0.35) {
                    ops.push(Op::Write(addr(b)));
                } else {
                    ops.push(Op::Read(addr(b)));
                }
            }
            ops
        })
        .collect();
    for scheme in [
        Scheme::FullVector,
        Scheme::dir_cv(2, 2),
        Scheme::dir_b(2),
        Scheme::dir_nb(2),
    ] {
        let c = cfg(4, 4).with_scheme(scheme);
        let stats = run(c, scripts.clone());
        assert_eq!(stats.shared_refs(), 16 * 200, "{scheme:?}");
    }
}

#[test]
fn four_procs_per_cluster_reduce_network_traffic() {
    // The same 16-processor workload on 16x1 vs 4x4: clustering converts
    // network transactions into bus transactions.
    use scd_sim::SimRng;
    let mut root = SimRng::new(5);
    let scripts: Vec<Vec<Op>> = (0..16)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            (0..150)
                .map(|_| {
                    let b = rng.below(32);
                    if rng.chance(0.3) {
                        Op::Write(addr(b))
                    } else {
                        Op::Read(addr(b))
                    }
                })
                .collect()
        })
        .collect();
    let flat = run(cfg(16, 1), scripts.clone());
    let clustered = run(cfg(4, 4), scripts);
    assert!(
        clustered.traffic.total() < flat.traffic.total(),
        "clustered {} vs flat {}",
        clustered.traffic.total(),
        flat.traffic.total()
    );
}
