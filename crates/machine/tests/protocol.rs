//! Protocol-flow tests: each scenario pins down the exact message traffic
//! the DASH protocol description (paper §2) prescribes.
//!
//! Conventions: `MachineConfig::tiny(n)` builds n clusters of 1 processor,
//! 16-byte blocks, uniform 10-cycle network latency, and invariant checking
//! on. Block `b` lives at home cluster `b % n`; byte address = block * 16.

use scd_core::Scheme;
use scd_machine::{Machine, MachineConfig, RunStats};
use scd_stats::MessageClass::*;
use scd_tango::{Op, Script};

fn addr(block: u64) -> u64 {
    block * 16
}

fn run(cfg: MachineConfig, scripts: Vec<Vec<Op>>) -> RunStats {
    Machine::new(cfg, scripts.into_iter().map(Script::from).collect()).run()
}

#[test]
fn local_read_produces_no_traffic() {
    // Cluster 0 reads a block homed at cluster 0.
    let stats = run(
        MachineConfig::tiny(2),
        vec![vec![Op::Read(addr(0))], vec![]],
    );
    assert_eq!(stats.traffic.total(), 0);
    assert_eq!(stats.shared_reads, 1);
    // Local miss latency ~ l2 detect (8) + bus/memory (15) + resume.
    assert!(stats.cycles >= 23 && stats.cycles < 40, "{}", stats.cycles);
}

#[test]
fn remote_clean_read_is_request_plus_reply() {
    // Cluster 1 reads block 0 (home cluster 0).
    let stats = run(
        MachineConfig::tiny(2),
        vec![vec![], vec![Op::Read(addr(0))]],
    );
    assert_eq!(stats.traffic.get(Request), 1);
    assert_eq!(stats.traffic.get(Reply), 1);
    assert_eq!(stats.traffic.coherence(), 0);
    // 2-cluster latency: 8 + 10 + 15 + 10 + 1 = 44 with the uniform model.
    assert!(stats.cycles >= 40 && stats.cycles < 60, "{}", stats.cycles);
}

#[test]
fn repeated_reads_hit_in_cache() {
    let stats = run(
        MachineConfig::tiny(2),
        vec![
            vec![],
            vec![Op::Read(addr(0)), Op::Read(addr(0)), Op::Read(addr(0))],
        ],
    );
    assert_eq!(stats.traffic.get(Request), 1, "only the first read misses");
    assert_eq!(stats.shared_reads, 3);
}

#[test]
fn write_invalidates_remote_sharer() {
    // Block 0 homed at cluster 0 (3 clusters). Clusters 1 and 2 read it,
    // then cluster 1 writes it: one invalidation to cluster 2, one ack back
    // to cluster 1.
    let stats = run(
        MachineConfig::tiny(3),
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0), Op::Write(addr(0))],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
        ],
    );
    assert_eq!(stats.traffic.get(Invalidation), 1);
    assert_eq!(stats.traffic.get(Acknowledgement), 1);
    // Histogram: exactly one write event, with exactly 1 invalidation.
    assert_eq!(stats.invalidations.events(), 1);
    assert_eq!(stats.invalidations.count(1), 1);
}

#[test]
fn write_to_uncached_block_is_a_zero_invalidation_event() {
    let stats = run(
        MachineConfig::tiny(2),
        vec![vec![], vec![Op::Write(addr(0))]],
    );
    assert_eq!(stats.traffic.get(Request), 1);
    assert_eq!(stats.traffic.get(Reply), 1);
    assert_eq!(stats.traffic.coherence(), 0);
    assert_eq!(stats.invalidations.events(), 1);
    assert_eq!(stats.invalidations.count(0), 1);
}

#[test]
fn dirty_remote_read_takes_the_three_cluster_path() {
    // Cluster 1 writes block 0 (home 0); cluster 2 then reads it.
    // Read flow: ReadReq (2->0), FwdRead (0->1), ReadReply (1->2),
    // SharingWriteback (1->0).
    let stats = run(
        MachineConfig::tiny(3),
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Write(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Read(addr(0))],
        ],
    );
    assert_eq!(stats.protocol.forwards, 1);
    // Write: req+reply. Read: 3 requests (ReadReq, FwdRead, SWB) + 1 reply.
    // Barrier: 2 arrivals (c1,c2) + 2 releases.
    assert_eq!(stats.traffic.get(Request), 1 + 3 + 2);
    assert_eq!(stats.traffic.get(Reply), 1 + 1 + 2);
}

#[test]
fn dirty_remote_write_transfers_ownership() {
    // Cluster 1 writes block 0, then cluster 2 writes it.
    // Second write: WriteReq (2->0), FwdWrite (0->1), TransferReply (1->2),
    // OwnershipTransfer (1->0); no invalidations/acks.
    let stats = run(
        MachineConfig::tiny(3),
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Write(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Write(addr(0))],
        ],
    );
    assert_eq!(stats.protocol.forwards, 1);
    assert_eq!(stats.traffic.coherence(), 0);
    // Ownership transfers count as 0-invalidation events.
    assert_eq!(stats.invalidations.events(), 2);
    assert_eq!(stats.invalidations.count(0), 2);
}

#[test]
fn full_vector_write_invalidates_every_sharer_exactly() {
    // 6 clusters; clusters 1..=4 read block 0, cluster 5 writes it.
    let n = 6;
    let mut scripts: Vec<Vec<Op>> = vec![vec![Op::Barrier(0)]];
    for _ in 1..=4 {
        scripts.push(vec![Op::Read(addr(0)), Op::Barrier(0)]);
    }
    scripts.push(vec![Op::Barrier(0), Op::Write(addr(0))]);
    let stats = run(MachineConfig::tiny(n), scripts);
    assert_eq!(stats.traffic.get(Invalidation), 4);
    assert_eq!(stats.traffic.get(Acknowledgement), 4);
    assert_eq!(stats.invalidations.count(4), 1);
}

#[test]
fn broadcast_scheme_overshoots_to_everyone() {
    // Dir1B on 6 clusters: block 0 read by clusters 1,2,3 (overflow at the
    // second sharer), then cluster 1 writes. Broadcast: invalidations to
    // everyone except writer (1) and home (0) = 4 messages, even though
    // only 2 other clusters (2,3) actually share.
    let n = 6;
    let cfg = MachineConfig::tiny(n).with_scheme(Scheme::dir_b(1));
    let stats = run(
        cfg,
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0), Op::Write(addr(0))],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ],
    );
    assert_eq!(stats.traffic.get(Invalidation), 4);
    assert_eq!(stats.traffic.get(Acknowledgement), 4);
    assert_eq!(stats.invalidations.count(4), 1);
}

#[test]
fn coarse_vector_invalidates_regions() {
    // Dir1CV2 on 6 clusters: sharers 2 and 4 (regions {2,3} and {4,5});
    // writer is cluster 1, home 0. Invals go to 2,3,4,5 = 4 messages.
    let cfg = MachineConfig::tiny(6).with_scheme(Scheme::dir_cv(1, 2));
    let stats = run(
        cfg,
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Write(addr(0))],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ],
    );
    assert_eq!(stats.traffic.get(Invalidation), 4);
    assert_eq!(stats.invalidations.count(4), 1);
}

#[test]
fn nb_scheme_evicts_a_sharer_on_pointer_overflow() {
    // Dir1NB on 4 clusters: cluster 1 reads block 0, then cluster 2 reads
    // it -> pointer overflow evicts cluster 1 (DirFlush + ack), recorded as
    // a 1-invalidation event.
    let cfg = MachineConfig::tiny(4).with_scheme(Scheme::dir_nb(1));
    let stats = run(
        cfg,
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Read(addr(0))],
            vec![Op::Barrier(0)],
        ],
    );
    assert_eq!(stats.protocol.nb_evictions, 1);
    assert_eq!(stats.traffic.get(Invalidation), 1);
    assert_eq!(stats.traffic.get(Acknowledgement), 1);
    assert_eq!(stats.invalidations.events(), 1);
    assert_eq!(stats.invalidations.count(1), 1);
}

#[test]
fn nb_evicted_sharer_rereads() {
    // After the eviction above, cluster 1 reads again: it misses (its copy
    // was invalidated) and produces a fresh request — the Dir_NB thrashing
    // the paper describes for read-shared data.
    let cfg = MachineConfig::tiny(4).with_scheme(Scheme::dir_nb(1));
    let stats = run(
        cfg,
        vec![
            vec![Op::Barrier(0), Op::Barrier(1)],
            vec![
                Op::Read(addr(0)),
                Op::Barrier(0),
                Op::Barrier(1),
                Op::Read(addr(0)),
            ],
            vec![Op::Barrier(0), Op::Read(addr(0)), Op::Barrier(1)],
            vec![Op::Barrier(0), Op::Barrier(1)],
        ],
    );
    // Three read misses total (1, 2, then 1 again) and two NB evictions
    // (cluster 2's read evicts 1; cluster 1's re-read evicts 2).
    assert_eq!(stats.protocol.nb_evictions, 2);
    assert_eq!(stats.l2_misses, 3);
}

#[test]
fn dirty_eviction_writes_back_and_clears_the_entry() {
    // tiny: L2 = 16 blocks, 2 ways => 8 sets. Blocks 1, 17, 33 all map to
    // set 1 and are homed at cluster 1 (odd blocks, 2 clusters). Cluster 0
    // writes all three: the third fill evicts dirty block 1 -> Writeback.
    let stats = run(
        MachineConfig::tiny(2),
        vec![
            vec![
                Op::Write(addr(1)),
                Op::Write(addr(17)),
                Op::Write(addr(33)),
            ],
            vec![],
        ],
    );
    // 3 write transactions (req+reply each) + 1 writeback request.
    assert_eq!(stats.traffic.get(Request), 4);
    assert_eq!(stats.traffic.get(Reply), 3);
    // The quiescent invariant checker (enabled in tiny()) verifies the
    // directory entry was cleared by the writeback.
}

#[test]
fn self_owned_rerequest_waits_for_its_own_writeback() {
    // Cluster 0 writes block 1 (home 1), evicts it via conflicting writes,
    // then immediately rereads it. The reread's request chases the
    // writeback on the same channel, so it arrives after it — unless the
    // protocol parks it. Either way the run must complete coherently.
    let stats = run(
        MachineConfig::tiny(2),
        vec![
            vec![
                Op::Write(addr(1)),
                Op::Write(addr(17)),
                Op::Write(addr(33)),
                Op::Read(addr(1)),
            ],
            vec![],
        ],
    );
    assert_eq!(stats.shared_reads, 1);
    assert!(stats.cycles > 0);
}

#[test]
fn sparse_replacement_flushes_the_victim() {
    // Sparse directory with 2 entries / 1 way per home. Cluster 1 reads
    // blocks 0, 4, 8 (all homed at 0, all mapping to sparse set 0): the
    // third allocation displaces block 0's entry -> DirFlush to cluster 1
    // + DirFlushAck.
    let cfg = MachineConfig::tiny(2).with_sparse(2, 1, scd_core::Replacement::Lru);
    let stats = run(
        cfg,
        vec![
            vec![],
            vec![Op::Read(addr(0)), Op::Read(addr(4)), Op::Read(addr(8))],
        ],
    );
    assert!(stats.protocol.replacement_flushes >= 1);
    assert!(stats.traffic.get(Invalidation) >= 1);
    assert!(stats.traffic.get(Acknowledgement) >= 1);
    let sp = stats.sparse.expect("sparse stats present");
    assert!(sp.replacements >= 1);
}

#[test]
fn flushed_block_rereads_fresh() {
    let cfg = MachineConfig::tiny(2).with_sparse(2, 1, scd_core::Replacement::Lru);
    let stats = run(
        cfg,
        vec![
            vec![],
            vec![
                Op::Read(addr(0)),
                Op::Read(addr(4)),
                Op::Read(addr(8)),
                Op::Compute(500), // let the flush land
                Op::Read(addr(0)),
            ],
        ],
    );
    // The re-read misses because the flush dropped the copy.
    assert_eq!(stats.l2_misses, 4);
}

#[test]
fn sparse_dirty_victim_flush_retrieves_ownership() {
    // Dirty entries can be displaced too; the flush must reclaim the dirty
    // copy without breaking coherence (checker-enforced).
    let cfg = MachineConfig::tiny(2).with_sparse(2, 1, scd_core::Replacement::Lru);
    let stats = run(
        cfg,
        vec![
            vec![],
            vec![
                Op::Write(addr(0)),
                Op::Write(addr(4)),
                Op::Write(addr(8)),
                Op::Compute(500),
                Op::Read(addr(0)),
            ],
        ],
    );
    assert!(stats.protocol.replacement_flushes >= 1);
    assert_eq!(stats.shared_writes, 3);
}

#[test]
fn locks_are_mutually_exclusive_and_grant_fifo() {
    // Two clusters increment a shared counter under a lock, many times.
    let iters = 10;
    let mut script = Vec::new();
    for _ in 0..iters {
        script.extend([
            Op::Lock(0),
            Op::Read(addr(2)),
            Op::Compute(5),
            Op::Write(addr(2)),
            Op::Unlock(0),
        ]);
    }
    let stats = run(MachineConfig::tiny(2), vec![script.clone(), script]);
    assert_eq!(stats.sync_ops, 2 * 2 * iters);
    assert_eq!(stats.lock_metrics.0, 2 * iters, "every acquire granted once");
    assert_eq!(stats.lock_metrics.1, 0, "full vector never retries");
}

#[test]
fn coarse_vector_locks_retry_by_region() {
    // Dir1CV2 on 4 clusters, 3 contenders: waiter vector overflows into
    // coarse mode, so releases broadcast retries to a region.
    let cfg = MachineConfig::tiny(4).with_scheme(Scheme::dir_cv(1, 2));
    let script = |n: u64| {
        let mut s = Vec::new();
        for _ in 0..n {
            s.extend([Op::Lock(0), Op::Compute(50), Op::Unlock(0)]);
        }
        s
    };
    let stats = run(
        cfg,
        vec![script(5), script(5), script(5), script(5)],
    );
    assert_eq!(stats.sync_ops, 4 * 2 * 5);
    assert!(
        stats.lock_metrics.1 > 0,
        "coarse waiter vectors must cause retries"
    );
}

#[test]
fn barrier_releases_all_clusters() {
    let n = 5;
    let scripts: Vec<Vec<Op>> = (0..n)
        .map(|_| vec![Op::Compute(10), Op::Barrier(0), Op::Compute(10)])
        .collect();
    let stats = run(MachineConfig::tiny(n), scripts);
    assert_eq!(stats.sync_ops, n as u64);
    // n-1 arrivals + n-1 releases cross the network (home cluster local).
    assert_eq!(stats.traffic.get(Request), (n - 1) as u64);
    assert_eq!(stats.traffic.get(Reply), (n - 1) as u64);
}

#[test]
fn runs_are_deterministic() {
    let mk = || {
        let cfg = MachineConfig::tiny(4).with_scheme(Scheme::dir_cv(1, 2));
        let script = |seed: u64| {
            let mut s = Vec::new();
            for i in 0..50 {
                let b = (seed * 31 + i * 7) % 16;
                if i % 3 == 0 {
                    s.push(Op::Write(addr(b)));
                } else {
                    s.push(Op::Read(addr(b)));
                }
            }
            s
        };
        run(cfg, vec![script(1), script(2), script(3), script(4)])
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.invalidations, b.invalidations);
}

#[test]
fn upgrade_write_keeps_line_and_invalidates_peers() {
    // Cluster 1 reads (shared), then writes (upgrade). Cluster 2 shares in
    // between and must be invalidated.
    let stats = run(
        MachineConfig::tiny(3),
        vec![
            vec![Op::Barrier(0)],
            vec![Op::Read(addr(0)), Op::Barrier(0), Op::Write(addr(0)), Op::Read(addr(0))],
            vec![Op::Read(addr(0)), Op::Barrier(0)],
        ],
    );
    // The final read hits the dirty line locally; the upgrade write is an
    // L2 *hit* on a shared line, so only the two initial reads miss.
    assert_eq!(stats.l2_misses, 2);
    assert_eq!(stats.traffic.get(Invalidation), 1);
}
