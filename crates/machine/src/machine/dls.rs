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

use super::dash::DashState;
use super::*;
use crate::stats::DlsCounters;
use scd_trace::event::cause;

/// What the DLS backend owns: the DASH state its home-local delegation
/// runs on, and the protocol's event counters.
pub(crate) struct DlsState {
    pub(crate) dash: DashState,
    pub(crate) counters: DlsCounters,
}

scd_core::clone_fields!(DlsState { dash, counters });

impl DlsState {
    pub(crate) fn new(clusters: usize) -> Self {
        DlsState {
            dash: DashState::new(clusters),
            counters: DlsCounters::default(),
        }
    }

    /// DLS processor-side access.
    pub(crate) fn mem_access(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, kind: MshrKind) -> Option<Cycle> {
        let (cl, lp) = (m.cluster_of(p), m.local_of(p));
        if m.cfg.home_of(block) == cl {
            // Home-local: the DASH path, which degenerates to plain
            // hierarchy-plus-memory when the directory never holds an
            // entry (no remote sharer is ever registered under DLS).
            return self.dash.mem_access(m, t, p, block, kind);
        }
        // A remote access is always a miss (remote clusters never hold a
        // copy), resolved with a round-trip to the home slice. Record it
        // against the hierarchy so the L2-miss statistics stay comparable
        // across protocols.
        let hit = m.clusters[cl].caches.access(lp, block, t);
        debug_assert!(hit.state().is_none(), "remote copy under DLS");
        Some(t + TIMING.l2_hit)
    }

    /// A queued home-side request came off the serializer (DLS queues
    /// only behind a home-local write).
    pub(crate) fn replay(&mut self, m: &mut Engine, t: Cycle, home: usize, req: QueuedReq) {
        if req.requester == home {
            // A queued home-local request re-enters the DASH machinery.
            self.dash.home_request(m, t, home, req);
        } else {
            self.home_service(m, t, home, req.requester, req.block, req.is_write);
        }
    }

    /// Services one remote request at the home LLC slice. Shared with
    /// the serializer replay path for requests that queued behind a
    /// home-cluster write in flight.
    fn home_service(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        home: usize,
        requester: usize,
        block: u64,
        is_write: bool,
    ) {
        if m.clusters[home].ser.is_busy(block) {
            // A home-cluster write was granted but has not filled yet:
            // the slice's content is still settling. Queue like DASH.
            m.clusters[home].ser.queue(
                block,
                QueuedReq {
                    requester,
                    block,
                    is_write,
                },
            );
            return;
        }
        m.telemetry.home_phase(t, home, requester, block, Phase::HomeLookup);
        if is_write {
            self.counters.llc_writes += 1;
            if m.mutation == Some(explore::Mutation::DlsSkipWriteback) {
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
                m.clusters[home].caches.invalidate_all(block);
                m.clusters[home].rac.poison_read(block);
            }
            // Zero invalidation *messages* by construction; record the
            // empty fan-out so the histogram stays comparable.
            m.inval_event(t, home, block, 0, cause::WRITE);
            let version = m.bump_version(home, block);
            m.send(t + TIMING.bus_memory, home, requester, MsgKind::LlcWriteAck { block, version });
        } else {
            self.counters.llc_fills += 1;
            // A dirty home copy supplies the slice; memory is now clean.
            m.clusters[home].caches.downgrade_all(block);
            let version = m.memory_version(home, block);
            m.send(t + TIMING.bus_memory, home, requester, MsgKind::LlcFill { block, version });
        }
    }

    /// Delivers one DLS protocol message; everything that is not a
    /// remote LLC transaction is the home-local DASH machinery. A remote
    /// reply installs nothing: the fill is consumed by the waiting
    /// processors but never cached — the home slice stays the only copy,
    /// and the next access misses again.
    pub(crate) fn deliver(&mut self, m: &mut Engine, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        match kind {
            MsgKind::ReadReq { block } if src != dst => {
                self.home_service(m, t, dst, src, block, false);
            }
            MsgKind::WriteReq { block } if src != dst => {
                self.home_service(m, t, dst, src, block, true);
            }
            MsgKind::LlcFill { block, version } => {
                if let Some(mshr) = m.read_reply(dst, block) {
                    m.complete_read(t, dst, block, version, &mshr, None);
                }
            }
            MsgKind::LlcWriteAck { block, version } => {
                if let Some(mshr) = m.clusters[dst].rac.write_reply(block, 0, version) {
                    m.complete_write(t, dst, block, &mshr, None);
                }
            }
            _ => return self.dash.deliver(m, t, msg),
        }
        true
    }
}
