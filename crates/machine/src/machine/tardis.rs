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
use crate::config::ProtocolKind;

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

/// Per-cluster Tardis state, embedded in every `ClusterNode` and left
/// default-empty under the other protocols.
#[derive(Clone, Debug, Default)]
pub(crate) struct TardisNode {
    /// This cluster's program timestamp: the logical time of the last
    /// write it performed or synchronized with.
    pub(crate) pts: u64,
    /// Leases over resident copies: block -> (wts, rts).
    pub(crate) lease: FastMap<u64, (u64, u64)>,
    /// Local processors parked on an in-flight lease renewal.
    pub(crate) renew_pending: FastMap<u64, Vec<usize>>,
    /// Home-side timestamp lines (this cluster acting as home), indexed
    /// like the directory by [`MachineConfig::dir_key`]. A line no request has
    /// reached is `(0, 0)`; the first to reach one is a read or a write,
    /// which raises its `rts` or `wts`, so "all zero" and "never touched"
    /// coincide.
    pub(crate) lines: DenseTable<TardisLine>,
    /// Home-side: max `pts` released through each lock, handed to the
    /// next holder with the grant.
    pub(crate) lock_pts: FastMap<u32, u64>,
    /// Home-side: max `pts` carried by barrier arrivals, broadcast with
    /// the release.
    pub(crate) barrier_pts: FastMap<u32, u64>,
}

impl Machine {
    /// Tardis processor-side access: a read hits while the lease covers
    /// the cluster's `pts`, renews when only the lease expired, and
    /// refetches otherwise. Writes always issue to the home
    /// (write-through; a write "hit" still round-trips).
    pub(crate) fn tardis_mem_access(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let hit = self.clusters[cl].caches.access(lp, block, t);
        if hit.state().is_some() && kind == MshrKind::Read {
            let node = &self.clusters[cl].tardis;
            let lat = match hit {
                HitLevel::L1(_) => tm.l1_hit,
                _ => tm.l2_hit,
            };
            match node.lease.get(&block) {
                Some(&(_, rts)) if node.pts <= rts => {
                    // Lease still covers our logical time: a pure hit.
                    self.observe(cl, block);
                    self.oracle_read(p, block);
                    self.resume(t + lat, p);
                    return;
                }
                Some(&(wts, _)) => {
                    // Resident but expired: try a timestamp-only renewal
                    // before paying for a refetch.
                    return self.tardis_renew(t + tm.l2_hit, p, block, wts);
                }
                None => {
                    // Resident copy without a lease (invalidated by a
                    // failed renewal while another processor raced in):
                    // fall through to the miss path.
                }
            }
        }
        self.tardis_miss(t + tm.l2_hit, p, block, kind);
    }

    /// Issues (or merges into) a Tardis miss transaction through the RAC.
    fn tardis_miss(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let home = self.cfg.home_of(block);
        match self.clusters[cl].rac.start(block, kind, lp) {
            StartOutcome::IssueRequest => {
                self.telemetry.txn_begin(t, cl, home, block, kind == MshrKind::Write);
                let mk = if kind == MshrKind::Write {
                    MsgKind::TardisWriteReq { block }
                } else {
                    MsgKind::TardisReadReq {
                        block,
                        pts: self.clusters[cl].tardis.pts,
                    }
                };
                self.send(t, Msg { src: cl, dst: home, kind: mk });
            }
            StartOutcome::Merged | StartOutcome::WaitAndReissue => {}
        }
        self.block(t, p, false);
    }

    /// Parks `p` on a lease renewal for `block`, sending the request if
    /// none is outstanding.
    fn tardis_renew(&mut self, t: Cycle, p: usize, block: u64, wts: u64) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let home = self.cfg.home_of(block);
        let pts = self.clusters[cl].tardis.pts;
        let pending = self.clusters[cl].tardis.renew_pending.entry(block).or_default();
        let first = pending.is_empty();
        pending.push(lp);
        if first {
            self.send(
                t,
                Msg {
                    src: cl,
                    dst: home,
                    kind: MsgKind::RenewReq { block, wts, pts },
                },
            );
        }
        self.block(t, p, false);
    }

    /// Delivers one Tardis protocol message. Returns `false` for kinds
    /// that belong to another backend.
    pub(crate) fn tardis_deliver(&mut self, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        let tm = self.cfg.timing;
        match kind {
            MsgKind::TardisReadReq { block, pts } => {
                self.telemetry.txn_phase(t, dst, src, block, Phase::HomeLookup);
                let key = self.dir_key(block);
                let line = self.clusters[dst].tardis.lines.slot(key);
                // Extend the lease past the requester's logical time so
                // the copy is immediately useful to it.
                line.rts = line.rts.max(line.wts.max(pts) + LEASE);
                let (wts, rts) = (line.wts, line.rts);
                self.tardis_counters.lease_fills += 1;
                let version = self.memory_version(dst, block);
                self.send(
                    t + tm.bus_memory,
                    Msg {
                        src: dst,
                        dst: src,
                        kind: MsgKind::TardisReadReply { block, wts, rts, version },
                    },
                );
            }
            MsgKind::TardisWriteReq { block } => {
                self.telemetry.txn_phase(t, dst, src, block, Phase::HomeLookup);
                let key = self.dir_key(block);
                let line = self.clusters[dst].tardis.lines.slot(key);
                // Jump past every lease ever granted over the old
                // version: any reader holding one orders logically
                // before this write, and no new lease can cover it.
                let wts = if self.mutation == Some(explore::Mutation::TardisSkipWtsBump) {
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
                self.tardis_counters.write_throughs += 1;
                // No invalidations, ever: record the zero fan-out so the
                // paper's invalidation histogram stays comparable.
                self.inval_hist.record(0);
                self.telemetry.inval(t, dst, block, 0, "write");
                let version = self.bump_version(dst, block);
                self.send(
                    t + tm.bus_memory,
                    Msg {
                        src: dst,
                        dst: src,
                        kind: MsgKind::TardisWriteReply { block, wts, version },
                    },
                );
            }
            MsgKind::RenewReq { block, wts, pts } => {
                let key = self.dir_key(block);
                let line = self.clusters[dst].tardis.lines.slot(key);
                if line.wts == wts {
                    // Same version: extend the lease. Timestamp-only —
                    // `dir_lookup` at the home, no memory fetch.
                    line.rts = line.rts.max(line.wts.max(pts) + LEASE);
                    let rts = line.rts;
                    self.tardis_counters.renewals += 1;
                    self.send(
                        t + tm.dir_lookup,
                        Msg {
                            src: dst,
                            dst: src,
                            kind: MsgKind::RenewReply { block, renewed: true, rts },
                        },
                    );
                } else {
                    // The version moved on: the copy is stale.
                    self.send(
                        t + tm.dir_lookup,
                        Msg {
                            src: dst,
                            dst: src,
                            kind: MsgKind::RenewReply { block, renewed: false, rts: 0 },
                        },
                    );
                }
            }
            MsgKind::TardisReadReply { block, wts, rts, version } => {
                if self.fault_active {
                    // Duplicated requests produce one reply per service;
                    // only the first finds the MSHR, the stray is dropped.
                    match self.clusters[dst].rac.try_read_reply(block) {
                        Some(mshr) => {
                            self.tardis_install(dst, block, wts, rts, version);
                            self.complete_read(t, dst, block, mshr);
                        }
                        None => self.faults.strays_dropped += 1,
                    }
                } else {
                    let mshr = self.clusters[dst].rac.read_reply(block);
                    self.tardis_install(dst, block, wts, rts, version);
                    self.complete_read(t, dst, block, mshr);
                }
            }
            MsgKind::TardisWriteReply { block, wts, version } => {
                if let Some(mshr) = self.clusters[dst].rac.write_reply(block, 0, version) {
                    self.tardis_complete_write(t, dst, block, wts, version, mshr);
                }
            }
            MsgKind::RenewReply { block, renewed, rts } => {
                let waiters = self
                    .clusters[dst]
                    .tardis
                    .renew_pending
                    .remove(&block)
                    .unwrap_or_default();
                if renewed {
                    if let Some(l) = self.clusters[dst].tardis.lease.get_mut(&block) {
                        l.1 = l.1.max(rts);
                    }
                    for lp in waiters {
                        self.observe(dst, block);
                        let g = self.global_proc(dst, lp);
                        self.oracle_read(g, block);
                        self.resume(t + tm.l1_hit, g);
                    }
                } else {
                    // Stale copy: drop it and re-execute the reads, which
                    // now take the refetch path.
                    self.tardis_counters.renew_refetches += 1;
                    self.clusters[dst].caches.invalidate_all(block);
                    self.clusters[dst].tardis.lease.remove(&block);
                    for lp in waiters {
                        let g = self.global_proc(dst, lp);
                        self.retry(t + tm.l1_hit, g);
                    }
                }
            }
            _ => return false,
        }
        true
    }

    /// Installs a granted lease: records `(wts, rts)`, advances the
    /// cluster's `pts` to at least `wts` (a load observes the write that
    /// produced its data), and updates the version oracle.
    fn tardis_install(&mut self, cl: usize, block: u64, wts: u64, rts: u64, version: u64) {
        self.set_line_version(cl, block, version);
        let node = &mut self.clusters[cl].tardis;
        node.lease.insert(block, (wts, rts));
        node.pts = node.pts.max(wts);
    }

    /// Completes a write at its requester: the writer's copy becomes a
    /// leased *shared* line (memory already holds the data —
    /// write-through), peers re-execute against it.
    fn tardis_complete_write(
        &mut self,
        t: Cycle,
        cl: usize,
        block: u64,
        wts: u64,
        version: u64,
        mshr: scd_protocol::Mshr,
    ) {
        self.telemetry.txn_end(t, cl, block);
        let tm = self.cfg.timing;
        let (writer, _) = *mshr
            .waiters
            .first()
            .expect("write MSHR has its initiating processor");
        // Stale local shared copies vanish over the bus.
        self.clusters[cl].caches.invalidate_others(writer, block);
        self.fill(t, cl, writer, block, LineState::Shared);
        self.tardis_install(cl, block, wts, wts, version);
        self.observe(cl, block);
        let g = self.global_proc(cl, writer);
        self.oracle_write(g, block, version);
        self.resume(t + tm.l1_hit, g);
        for &(lp, _) in &mshr.waiters[1..] {
            // Peers re-execute; reads hit the fresh lease over the bus.
            let g = self.global_proc(cl, lp);
            self.retry(t + tm.bus_memory, g);
        }
    }

    // --------------------------------------------------------------
    // Timestamp piggybacks on the engine's synchronization messages.
    // All of these are inert (zero / no-op) unless the machine runs
    // the Tardis protocol.
    // --------------------------------------------------------------

    /// The `pts` a sync message leaving cluster `cl` should carry.
    pub(crate) fn sync_pts(&self, cl: usize) -> u64 {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return 0;
        }
        self.clusters[cl].tardis.pts
    }

    /// Absorbs a `pts` carried by an incoming grant or release.
    pub(crate) fn absorb_pts(&mut self, cl: usize, pts: u64) {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return;
        }
        let node = &mut self.clusters[cl].tardis;
        node.pts = node.pts.max(pts);
    }

    /// Home-side: a release carried the holder's `pts`; fold it into
    /// the lock's running maximum.
    pub(crate) fn note_lock_pts(&mut self, home: usize, lock: u32, pts: u64) {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return;
        }
        let e = self.clusters[home].tardis.lock_pts.entry(lock).or_insert(0);
        *e = (*e).max(pts);
    }

    /// Home-side: the `pts` a lock grant hands to the next holder.
    pub(crate) fn lock_grant_pts(&self, home: usize, lock: u32) -> u64 {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return 0;
        }
        self.clusters[home]
            .tardis
            .lock_pts
            .get(&lock)
            .copied()
            .unwrap_or(0)
    }

    /// Home-side: a barrier arrival carried a cluster's `pts`.
    pub(crate) fn note_barrier_pts(&mut self, home: usize, barrier: u32, pts: u64) {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return;
        }
        let e = self
            .clusters[home]
            .tardis
            .barrier_pts
            .entry(barrier)
            .or_insert(0);
        *e = (*e).max(pts);
    }

    /// Home-side: the maximum `pts` across a barrier's arrivals,
    /// broadcast with the release (and reset for the next episode).
    pub(crate) fn take_barrier_pts(&mut self, home: usize, barrier: u32) -> u64 {
        if self.cfg.protocol != ProtocolKind::Tardis {
            return 0;
        }
        self.clusters[home]
            .tardis
            .barrier_pts
            .remove(&barrier)
            .unwrap_or(0)
    }
}
