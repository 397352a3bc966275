//! The Tardis protocol backend: timestamp coherence.
//!
//! Tardis replaces the directory's sharer bookkeeping with two logical
//! timestamps per block at the home — a write timestamp `wts` (when the
//! current data version was logically written) and a read timestamp
//! `rts` (the lease horizon: the last logical time any reader may
//! observe this version). A read is granted a *lease* `[wts, rts]`; it
//! stays valid while the reader's program timestamp `pts` is at most
//! `rts`, so shared copies expire by timestamp comparison instead of by
//! invalidation messages — there is no fan-out, no sharer list, and no
//! recall traffic at all.
//!
//! This implementation models *base* Tardis without the
//! exclusive-ownership (M-state) optimization: writes are
//! **write-through at the home**. Every write round-trips to the home
//! slice, which bumps `wts` past every outstanding lease
//! (`wts' = rts + 1`) so no reader with an older copy can order its
//! reads after the write — that single rule is what the checker's
//! "single writer per timestamp range" invariant captures. The
//! simplification costs per-write latency (visible in the sweep
//! comparison) but removes ownership migration, forwarding, and
//! writeback races from the state space entirely: the home is never
//! busy and no request is ever queued or NACKed by the protocol.
//!
//! Expired leases renew with a timestamp-only `RenewReq`/`RenewReply`
//! exchange (header traffic, `dir_lookup` at the home instead of a full
//! memory fetch) when the home's `wts` still matches; otherwise the
//! copy is stale and the reader refetches. Renewals ride outside the
//! RAC's MSHR machinery — they are idempotent timestamp reads, so they
//! need none of its merge/poison/retry protocol — and are therefore
//! also outside the fault injector's scope (which perturbs coherence
//! *requests*; see DESIGN.md §16).
//!
//! Synchronization orders timestamps: lock handoffs and barrier
//! releases carry the maximum `pts` seen by the participants, so a
//! processor entering a new phase has `pts` at least as large as every
//! write that preceded the barrier — which is exactly what expires the
//! stale leases those writes outran.

use super::*;
use crate::stats::TardisCounters;
use scd_trace::event::cause;

/// Lease length in logical-timestamp units: a read may extend the
/// block's `rts` to `max(wts, pts) + LEASE`. Short enough that a reader
/// whose `pts` advances (via barriers or its own writes) re-validates
/// promptly; long enough that a phase of pure re-reads stays local.
pub(crate) const LEASE: u64 = 8;

/// Home-side timestamp state for one block (the Tardis analogue of a
/// directory entry: two counters, no sharer set).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TardisLine {
    /// Write timestamp: the logical time of the current data version.
    pub(crate) wts: u64,
    /// Read timestamp: the lease horizon granted over this version.
    /// Invariant: `rts >= wts`.
    pub(crate) rts: u64,
}

/// One cluster's Tardis state.
#[derive(Clone, Debug, Default)]
pub(crate) struct TardisNode {
    /// This cluster's program timestamp: the logical time of the last
    /// write it performed or synchronized with.
    pub(crate) pts: u64,
    /// Leases over resident copies: block -> (wts, rts).
    pub(crate) lease: FastMap<u64, (u64, u64)>,
    /// Local processors parked on an in-flight lease renewal.
    renew_pending: FastMap<u64, Vec<usize>>,
    /// Home-side timestamp lines (this cluster acting as home), indexed
    /// like the directory by [`MachineConfig::dir_key`]. A line no request has
    /// reached is `(0, 0)`; the first to reach one is a read or a write,
    /// which raises its `rts` or `wts`, so "all zero" and "never touched"
    /// coincide.
    pub(crate) lines: DenseTable<TardisLine>,
    /// Home-side: max `pts` released through each lock, handed to the
    /// next holder with the grant.
    lock_pts: FastMap<u32, u64>,
    /// Home-side: max `pts` carried by barrier arrivals, broadcast with
    /// the release.
    barrier_pts: FastMap<u32, u64>,
}

/// What the Tardis backend owns: every cluster's timestamp state and the
/// protocol's event counters.
#[derive(Clone)]
pub(crate) struct TardisState {
    pub(crate) nodes: Vec<TardisNode>,
    pub(crate) counters: TardisCounters,
}

impl TardisState {
    pub(crate) fn new(clusters: usize) -> Self {
        TardisState {
            nodes: vec![TardisNode::default(); clusters],
            counters: TardisCounters::default(),
        }
    }

    /// Folds the timestamp state into a state digest (see
    /// `Machine::state_digest`).
    pub(crate) fn digest(&self, h: &mut (impl std::hash::Hasher + Default)) {
        use scd_core::hash_unordered;
        use std::hash::Hash;
        for n in &self.nodes {
            n.pts.hash(h);
            hash_unordered(h, &n.lease);
            hash_unordered(h, &n.renew_pending);
            explore::hash_walk(h, n.lines.iter().map(|(k, l)| (k, (l.wts, l.rts))));
            hash_unordered(h, &n.lock_pts);
            hash_unordered(h, &n.barrier_pts);
        }
    }

    /// The request a miss sends to the home; a read carries the cluster's
    /// `pts` so the lease it is granted is immediately useful.
    pub(crate) fn request_kind(&self, cl: usize, block: u64, write: bool) -> MsgKind {
        if write {
            MsgKind::TardisWriteReq { block }
        } else {
            MsgKind::TardisReadReq {
                block,
                pts: self.nodes[cl].pts,
            }
        }
    }

    /// Tardis processor-side access: a read hits while the lease covers
    /// the cluster's `pts`, renews when only the lease expired, and
    /// refetches otherwise (`Some(at)`: issue through the RAC at `at`).
    /// Writes always issue to the home (write-through; a write "hit" still
    /// round-trips).
    pub(crate) fn mem_access(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, kind: MshrKind) -> Option<Cycle> {
        let (cl, lp) = (m.cluster_of(p), m.local_of(p));
        let tm = m.cfg.timing;
        let hit = m.clusters[cl].caches.access(lp, block, t);
        if hit.state().is_some() && kind == MshrKind::Read {
            let node = &self.nodes[cl];
            let lat = match hit {
                HitLevel::L1(_) => tm.l1_hit,
                _ => tm.l2_hit,
            };
            match node.lease.get(&block) {
                Some(&(_, rts)) if node.pts <= rts => {
                    // Lease still covers our logical time: a pure hit.
                    m.observe(cl, block);
                    m.oracle_read(p, block);
                    m.resume(t + lat, p);
                    return None;
                }
                Some(&(wts, _)) => {
                    // Resident but expired: try a timestamp-only renewal
                    // before paying for a refetch.
                    self.renew(m, t + tm.l2_hit, p, block, wts);
                    return None;
                }
                None => {
                    // Resident copy without a lease (invalidated by a
                    // failed renewal while another processor raced in):
                    // fall through to the miss path.
                }
            }
        }
        Some(t + tm.l2_hit)
    }

    /// Parks `p` on a lease renewal for `block`, sending the request if
    /// none is outstanding.
    fn renew(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, wts: u64) {
        let (cl, lp) = (m.cluster_of(p), m.local_of(p));
        let home = m.cfg.home_of(block);
        let pts = self.nodes[cl].pts;
        let pending = self.nodes[cl].renew_pending.entry(block).or_default();
        let first = pending.is_empty();
        pending.push(lp);
        if first {
            m.send(t, cl, home, MsgKind::RenewReq { block, wts, pts });
        }
        m.block(t, p, false);
    }

    /// Delivers one Tardis protocol message. Returns `false` for kinds
    /// that belong to another backend.
    pub(crate) fn deliver(&mut self, m: &mut Engine, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        let tm = m.cfg.timing;
        match kind {
            MsgKind::TardisReadReq { block, pts } => {
                m.telemetry.home_phase(t, dst, src, block, Phase::HomeLookup);
                let key = m.dir_key(block);
                let line = self.nodes[dst].lines.slot(key);
                // Extend the lease past the requester's logical time so
                // the copy is immediately useful to it.
                line.rts = line.rts.max(line.wts.max(pts) + LEASE);
                let (wts, rts) = (line.wts, line.rts);
                self.counters.lease_fills += 1;
                let version = m.memory_version(dst, block);
                m.send(
                    t + tm.bus_memory,
                    dst,
                    src,
                    MsgKind::TardisReadReply { block, wts, rts, version },
                );
            }
            MsgKind::TardisWriteReq { block } => {
                m.telemetry.home_phase(t, dst, src, block, Phase::HomeLookup);
                let key = m.dir_key(block);
                let line = self.nodes[dst].lines.slot(key);
                // Jump past every lease ever granted over the old
                // version: any reader holding one orders logically
                // before this write, and no new lease can cover it.
                let wts = if m.mutation == Some(explore::Mutation::TardisSkipWtsBump) {
                    // Test-only protocol bug: advance wts without
                    // clearing the outstanding leases, so a reader whose
                    // pts is inside a stale lease keeps hitting on old
                    // data after the write.
                    line.wts + 1
                } else {
                    line.rts + 1
                };
                line.wts = wts;
                line.rts = line.rts.max(wts);
                self.counters.write_throughs += 1;
                // No invalidations, ever: record the zero fan-out so the
                // paper's invalidation histogram stays comparable.
                m.inval_hist.record(0);
                m.telemetry.inval(t, dst, block, 0, cause::WRITE);
                let version = m.bump_version(dst, block);
                m.send(
                    t + tm.bus_memory,
                    dst,
                    src,
                    MsgKind::TardisWriteReply { block, wts, version },
                );
            }
            MsgKind::RenewReq { block, wts, pts } => {
                let key = m.dir_key(block);
                let line = self.nodes[dst].lines.slot(key);
                if line.wts == wts {
                    // Same version: extend the lease. Timestamp-only —
                    // `dir_lookup` at the home, no memory fetch.
                    line.rts = line.rts.max(line.wts.max(pts) + LEASE);
                    let rts = line.rts;
                    self.counters.renewals += 1;
                    m.send(
                        t + tm.dir_lookup,
                        dst,
                        src,
                        MsgKind::RenewReply { block, renewed: true, rts },
                    );
                } else {
                    // The version moved on: the copy is stale.
                    m.send(
                        t + tm.dir_lookup,
                        dst,
                        src,
                        MsgKind::RenewReply { block, renewed: false, rts: 0 },
                    );
                }
            }
            MsgKind::TardisReadReply { block, wts, rts, version } => {
                if let Some(mshr) = m.read_reply(dst, block) {
                    self.install(dst, block, wts, rts);
                    m.complete_read(t, dst, block, version, &mshr, Some(LineState::Shared));
                }
            }
            MsgKind::TardisWriteReply { block, wts, version } => {
                if let Some(mshr) = m.clusters[dst].rac.write_reply(block, 0, version) {
                    // The writer's copy becomes a leased *shared* line:
                    // memory already holds the data (write-through).
                    self.install(dst, block, wts, wts);
                    m.complete_write(t, dst, block, &mshr, Some(LineState::Shared));
                }
            }
            MsgKind::RenewReply { block, renewed, rts } => {
                let node = &mut self.nodes[dst];
                let waiters = node.renew_pending.remove(&block).unwrap_or_default();
                if renewed {
                    if let Some(l) = node.lease.get_mut(&block) {
                        l.1 = l.1.max(rts);
                    }
                    for lp in waiters {
                        m.observe(dst, block);
                        let g = m.global_proc(dst, lp);
                        m.oracle_read(g, block);
                        m.resume(t + tm.l1_hit, g);
                    }
                } else {
                    // Stale copy: drop it and re-execute the reads, which
                    // now take the refetch path.
                    self.counters.renew_refetches += 1;
                    m.clusters[dst].caches.invalidate_all(block);
                    node.lease.remove(&block);
                    for lp in waiters {
                        let g = m.global_proc(dst, lp);
                        m.retry(t + tm.l1_hit, g);
                    }
                }
            }
            _ => return false,
        }
        true
    }

    /// What a reply installs beyond the line itself: the granted lease
    /// `(wts, rts)`, and a `pts` advanced to at least `wts` (a load
    /// observes the write that produced its data).
    fn install(&mut self, cl: usize, block: u64, wts: u64, rts: u64) {
        let node = &mut self.nodes[cl];
        node.lease.insert(block, (wts, rts));
        node.pts = node.pts.max(wts);
    }

    // --------------------------------------------------------------
    // Timestamp piggybacks on the engine's synchronization messages
    // (zero / no-op under the other backends: see `Backend`).
    // --------------------------------------------------------------

    /// The `pts` a sync message leaving cluster `cl` should carry.
    pub(crate) fn sync_pts(&self, cl: usize) -> u64 {
        self.nodes[cl].pts
    }

    /// Absorbs a `pts` carried by an incoming grant or release.
    pub(crate) fn absorb_pts(&mut self, cl: usize, pts: u64) {
        let node = &mut self.nodes[cl];
        node.pts = node.pts.max(pts);
    }

    /// Home-side: a release carried the holder's `pts`; fold it into
    /// the lock's running maximum.
    pub(crate) fn note_lock_pts(&mut self, home: usize, lock: u32, pts: u64) {
        let e = self.nodes[home].lock_pts.entry(lock).or_insert(0);
        *e = (*e).max(pts);
    }

    /// Home-side: the `pts` a lock grant hands to the next holder.
    pub(crate) fn lock_grant_pts(&self, home: usize, lock: u32) -> u64 {
        self.nodes[home].lock_pts.get(&lock).copied().unwrap_or(0)
    }

    /// Home-side: a barrier arrival carried a cluster's `pts`.
    pub(crate) fn note_barrier_pts(&mut self, home: usize, barrier: u32, pts: u64) {
        let e = self.nodes[home].barrier_pts.entry(barrier).or_insert(0);
        *e = (*e).max(pts);
    }

    /// Home-side: the maximum `pts` across a barrier's arrivals,
    /// broadcast with the release (and reset for the next episode).
    pub(crate) fn take_barrier_pts(&mut self, home: usize, barrier: u32) -> u64 {
        self.nodes[home].barrier_pts.remove(&barrier).unwrap_or(0)
    }
}
