//! The DLS protocol backend: a directoryless shared LLC.
//!
//! DLS keeps **no directory state at all** — the zero-memory-overhead
//! endpoint of the paper's memory/traffic trade-off. Each block's home
//! cluster owns the only globally visible copy (its LLC slice plus
//! memory); remote clusters never install a line. Every remote miss
//! round-trips to the home: reads are answered with an [`MsgKind::LlcFill`]
//! data reply that is consumed *without caching* (the next read misses
//! again), and writes update the home slice and return a header-only
//! [`MsgKind::LlcWriteAck`]. Coherence is trivial — there is exactly one
//! copy to keep coherent — so invalidation traffic is zero by
//! construction and all the cost shows up as fill traffic and latency.
//!
//! Home-*local* accesses are delegated wholesale to the DASH machinery:
//! with no remote sharers ever registered, the home's directory entry
//! for its own blocks is always empty, and the DASH code path
//! degenerates exactly to "hit the local hierarchy, else memory" with
//! zero-invalidation grants. That reuse keeps the home's intra-cluster
//! behavior (bus snoops, dirty evictions, write upgrades) byte-for-byte
//! identical to DASH's while the directory stays provably empty (the
//! checker asserts it).
//!
//! The one ordering hazard is a home-cluster write in flight (granted
//! but not yet filled) racing a remote request for the same block:
//! remote requests arriving in that window queue on the home serializer
//! exactly like DASH requests and replay when the write's fill closes
//! the window.

use super::*;

impl Machine {
    /// DLS processor-side access.
    pub(crate) fn dls_mem_access(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        if self.cfg.home_of(block) == self.cluster_of(p) {
            // Home-local: the DASH path, which degenerates to plain
            // hierarchy-plus-memory when the directory never holds an
            // entry (no remote sharer is ever registered under DLS).
            self.dash_mem_access(t, p, block, kind);
        } else {
            self.dls_remote_miss(t, p, block, kind);
        }
    }

    /// A queued home-side request came off the serializer (DLS queues
    /// only behind a home-local write).
    pub(crate) fn dls_replay(&mut self, t: Cycle, home: usize, req: scd_protocol::QueuedReq) {
        if req.requester == home {
            // A queued home-local request re-enters the DASH machinery.
            self.home_request(t, home, req.requester, req.block, req.is_write);
        } else {
            self.dls_home_service(t, home, req.requester, req.block, req.is_write);
        }
    }

    /// A remote access under DLS: always a miss (remote clusters never
    /// hold a copy), resolved with a round-trip to the home slice.
    fn dls_remote_miss(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        // Record the (certain) miss against the hierarchy so the
        // L2-miss statistics stay comparable across protocols.
        let hit = self.clusters[cl].caches.access(lp, block, t);
        debug_assert!(hit.state().is_none(), "remote copy under DLS");
        let t = t + tm.l2_hit;
        let home = self.cfg.home_of(block);
        match self.clusters[cl].rac.start(block, kind, lp) {
            StartOutcome::IssueRequest => {
                self.telemetry.txn_begin(t, cl, home, block, kind == MshrKind::Write);
                let mk = if kind == MshrKind::Write {
                    MsgKind::WriteReq { block }
                } else {
                    MsgKind::ReadReq { block }
                };
                self.send(t, Msg { src: cl, dst: home, kind: mk });
            }
            StartOutcome::Merged | StartOutcome::WaitAndReissue => {}
        }
        self.block(t, p, false);
    }

    /// Services one remote request at the home LLC slice. Shared with
    /// the serializer replay path for requests that queued behind a
    /// home-cluster write in flight.
    pub(crate) fn dls_home_service(
        &mut self,
        t: Cycle,
        home: usize,
        requester: usize,
        block: u64,
        is_write: bool,
    ) {
        let tm = self.cfg.timing;
        if self.clusters[home].ser.is_busy(block) {
            // A home-cluster write was granted but has not filled yet:
            // the slice's content is still settling. Queue like DASH.
            self.clusters[home].ser.queue(
                block,
                scd_protocol::QueuedReq {
                    requester,
                    block,
                    is_write,
                },
            );
            return;
        }
        self.telemetry.txn_phase(t, home, requester, block, Phase::HomeLookup);
        if is_write {
            self.dls_counters.llc_writes += 1;
            if self.mutation == Some(explore::Mutation::DlsSkipWriteback) {
                // Test-only protocol bug: update the LLC slice without
                // invalidating the home cluster's own cached copies, so
                // the home keeps reading its stale line after a remote
                // write — the violation the model checker must catch.
            } else {
                // The home cluster's own copies are stale now; the block
                // has exactly one valid copy, the slice itself. A
                // home-local read fill still in flight was serialized
                // before this write: it may satisfy its waiters, but its
                // line must not persist (mirrors the DASH reorder rule).
                self.clusters[home].caches.invalidate_all(block);
                self.clusters[home].rac.poison_read(block);
            }
            // Zero invalidation *messages* by construction; record the
            // empty fan-out so the histogram stays comparable.
            self.inval_hist.record(0);
            self.telemetry.inval(t, home, block, 0, "write");
            let version = self.bump_version(home, block);
            self.send(
                t + tm.bus_memory,
                Msg {
                    src: home,
                    dst: requester,
                    kind: MsgKind::LlcWriteAck { block, version },
                },
            );
        } else {
            self.dls_counters.llc_fills += 1;
            // A dirty home copy supplies the slice; memory is now clean.
            self.clusters[home].caches.downgrade_all(block);
            let version = self.memory_version(home, block);
            self.send(
                t + tm.bus_memory,
                Msg {
                    src: home,
                    dst: requester,
                    kind: MsgKind::LlcFill { block, version },
                },
            );
        }
    }

    /// Delivers one DLS protocol message; everything that is not a
    /// remote LLC transaction is the home-local DASH machinery.
    pub(crate) fn dls_deliver(&mut self, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        let tm = self.cfg.timing;
        match kind {
            MsgKind::ReadReq { block } if src != dst => {
                self.dls_home_service(t, dst, src, block, false);
            }
            MsgKind::WriteReq { block } if src != dst => {
                self.dls_home_service(t, dst, src, block, true);
            }
            MsgKind::LlcFill { block, version } => {
                if self.fault_active {
                    // A duplicated read is serviced twice; the stray
                    // second fill finds no MSHR and is dropped.
                    match self.clusters[dst].rac.try_read_reply(block) {
                        Some(mshr) => self.dls_complete_read(t, dst, block, version, mshr),
                        None => self.faults.strays_dropped += 1,
                    }
                } else {
                    let mshr = self.clusters[dst].rac.read_reply(block);
                    self.dls_complete_read(t, dst, block, version, mshr);
                }
            }
            MsgKind::LlcWriteAck { block, version } => {
                if let Some(mshr) = self.clusters[dst].rac.write_reply(block, 0, version) {
                    self.telemetry.txn_end(t, dst, block);
                    self.set_line_version(dst, block, version);
                    self.observe(dst, block);
                    let (writer, _) = *mshr
                        .waiters
                        .first()
                        .expect("write MSHR has its initiating processor");
                    let g = self.global_proc(dst, writer);
                    self.oracle_write(g, block, version);
                    self.resume(t + tm.l1_hit, g);
                    for &(lp, _) in &mshr.waiters[1..] {
                        // Peers re-execute and take their own round-trip.
                        let g = self.global_proc(dst, lp);
                        self.retry(t + tm.bus_memory, g);
                    }
                }
            }
            _ => return self.dash_deliver(t, Msg { src, dst, kind }),
        }
        true
    }

    /// Completes a remote read: the fill is consumed by the waiting
    /// processors but never installed — under DLS the home slice stays
    /// the only copy, and the next read misses again.
    fn dls_complete_read(
        &mut self,
        t: Cycle,
        cl: usize,
        block: u64,
        version: u64,
        mshr: scd_protocol::Mshr,
    ) {
        self.telemetry.txn_end(t, cl, block);
        let tm = self.cfg.timing;
        self.set_line_version(cl, block, version);
        for &(lp, kind) in &mshr.waiters {
            let g = self.global_proc(cl, lp);
            if kind == MshrKind::Read {
                self.observe(cl, block);
                self.oracle_read_at(g, block, version);
                self.resume(t + tm.l1_hit, g);
            } else {
                // Write waiter merged behind a read: reissue.
                self.retry(t + tm.l1_hit, g);
            }
        }
    }
}
