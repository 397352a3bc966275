//! The DASH protocol backend: the paper's directory-based invalidation
//! protocol.
//!
//! Everything here is home- or owner-side DASH machinery, plus the part
//! of the processor-side access path that stays inside the cluster
//! (cache lookup, intra-cluster snoop): the home directory decision logic
//! with its organization-specific replacement work, forwarding, and the
//! transaction-closing message handlers. [`DashState`] owns the three
//! tables only this protocol reads; everything else it touches — caches,
//! directory store, RAC, serializer, version tables, transport — is the
//! [`Engine`]'s, passed to every handler. The requester half of each
//! transaction is `requester`'s.

use scd_protocol::Mshr;
use scd_trace::event::cause;

use super::*;

/// Result of the home directory's decision for one request (plain data, so
/// the caller can send messages without fighting the borrow checker).
enum DirAction {
    Stalled { blocker: u64 },
    SelfOwned,
    Forward { owner: usize },
    Supply { nb_evict: Option<usize> },
    /// Ownership granted; the invalidation targets are in
    /// [`DashState::inval_targets`].
    Grant,
}

struct ReplacementWork {
    victim_key: u64,
    targets: NodeSet,
    /// The victim entry's recorded dirty owner, if any.
    dirty_owner: Option<usize>,
}

/// Converts a displaced entry into replacement work (targets exclude
/// the home cluster, whose copies are bus-tracked).
fn replacement_work(home: usize, victim_block: u64, victim: &scd_core::DirEntry) -> ReplacementWork {
    let mut targets = victim.sharer_superset();
    targets.remove(home as NodeId);
    ReplacementWork {
        victim_key: victim_block,
        targets,
        dirty_owner: victim.is_dirty().then(|| victim.owner()).flatten().map(|n| n as usize),
    }
}

/// One cluster's DASH-only tables.
#[derive(Default)]
struct DashNode {
    /// In-progress serial invalidation chains (SCI-style mode): remaining
    /// targets, the write requester awaiting the final reply, and the
    /// version the write creates.
    serial_chains: FastMap<u64, (std::collections::VecDeque<usize>, usize, u64)>,
    /// The last ownership-epoch version this cluster *completed* (filled
    /// dirty) per block. A forward stamped with this epoch refers to data
    /// we have (possibly downgraded since); a forward stamped newer refers
    /// to our still-pending grant and must wait for it.
    last_owner_epoch: FastMap<u64, u64>,
    /// Home-side: blocks with an in-flight `FwdWrite`, whose version bump
    /// makes `cur_version` one ahead of the *recorded* owner's epoch.
    /// Indexed by [`MachineConfig::dir_key`].
    pending_write_bump: DenseTable<bool>,
}

scd_core::clone_fields!(DashNode { serial_chains, last_owner_epoch, pending_write_bump });

/// What the DASH backend owns: per-cluster tables no other backend and no
/// engine code reads.
pub(crate) struct DashState {
    nodes: Vec<DashNode>,
    /// The invalidation targets of the grant being processed, filled in
    /// place by `dir_decide` and read by the grant's fanout.
    inval_targets: Scratch,
}

scd_core::clone_fields!(DashState { nodes, inval_targets });

/// A target set reused across home requests so a write grant allocates
/// nothing. It holds no state between events: a cloned machine starts it
/// empty, a machine refilled by `clone_from` empties its own (keeping the
/// words), and it is not part of the state digest.
struct Scratch(NodeSet);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch(NodeSet::new(0))
    }

    fn clone_from(&mut self, _: &Self) {
        self.0.reset(0);
    }
}

impl DashState {
    pub(crate) fn new(clusters: usize) -> Self {
        DashState {
            nodes: vec![DashNode::default(); clusters],
            inval_targets: Scratch(NodeSet::new(0)),
        }
    }

    /// Folds the tables into a state digest (see `Machine::state_digest`).
    pub(crate) fn digest(&self, h: &mut (impl std::hash::Hasher + Default)) {
        for n in &self.nodes {
            scd_core::hash_unordered(h, &n.serial_chains);
            scd_core::hash_unordered(h, &n.last_owner_epoch);
            explore::hash_walk(h, n.pending_write_bump.iter());
        }
    }

    /// The last ownership epoch cluster `cl` completed for `block` (0 if
    /// it never owned it).
    fn owner_epoch(&self, cl: usize, block: u64) -> u64 {
        self.nodes[cl].last_owner_epoch.get(&block).copied().unwrap_or(0)
    }

    /// DASH processor-side access: cache lookup, then the intra-cluster
    /// snoop. `Some(at)` when neither satisfies it and the miss must go
    /// out through the RAC at cycle `at`.
    pub(crate) fn mem_access(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, kind: MshrKind) -> Option<Cycle> {
        let (cl, lp) = (m.cluster_of(p), m.local_of(p));
        let hit = m.clusters[cl].caches.access(lp, block, t);
        if let Some(state) = hit.state() {
            let lat = match hit {
                HitLevel::L1(_) => TIMING.l1_hit,
                _ => TIMING.l2_hit,
            };
            if kind == MshrKind::Read {
                m.oracle_read(p, block);
                m.resume(t + lat, p);
                return None;
            }
            if state == LineState::Dirty {
                // A silent rewrite of the held ownership epoch.
                m.oracle_write(p, block);
                m.resume(t + lat, p);
                return None;
            }
            // Write hit on a shared line: ownership upgrade required.
        }
        self.snoop(m, t + TIMING.l2_hit, p, block, kind)
    }

    /// A miss in the processor's own hierarchy: a peer in the cluster
    /// with a copy supplies it over the bus; otherwise `Some(t)` sends the
    /// miss out through the RAC.
    fn snoop(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, kind: MshrKind) -> Option<Cycle> {
        let (cl, lp) = (m.cluster_of(p), m.local_of(p));
        let home = m.cfg.home_of(block);
        // Intra-cluster snoop: a peer with a copy supplies over the bus.
        if kind == MshrKind::Read {
            if let Some(q) = m.clusters[cl].caches.dirty_holder(block) {
                m.clusters[cl].caches.proc_mut(q).downgrade(block);
                m.fill(t, cl, lp, block, LineState::Shared);
                if home != cl {
                    // Keep the home directory and memory consistent: the
                    // cluster no longer holds the block dirty. Stamp the
                    // epoch being downgraded so the home can discard the
                    // notification if the cluster is re-granted ownership
                    // before it arrives.
                    let epoch = self.owner_epoch(cl, block);
                    m.send(
                        t + TIMING.bus_memory,
                        cl,
                        home,
                        MsgKind::SharingWriteback { block, requester: cl, epoch },
                    );
                }
                m.oracle_read(p, block);
                m.resume(t + TIMING.bus_memory, p);
                return None;
            }
            if m.clusters[cl].caches.holds(block) {
                // A clean peer copy satisfies the read bus-locally; the
                // directory already covers this cluster.
                m.fill(t, cl, lp, block, LineState::Shared);
                m.oracle_read(p, block);
                m.resume(t + TIMING.bus_memory, p);
                return None;
            }
        }
        if kind == MshrKind::Write {
            if let Some(q) = m.clusters[cl].caches.dirty_holder(block) {
                if q != lp {
                    // Bus ownership transfer; the cluster remains owner.
                    m.clusters[cl].caches.proc_mut(q).invalidate(block);
                    m.fill(t, cl, lp, block, LineState::Dirty);
                    // Same ownership epoch, new writer within the cluster.
                    m.oracle_write(p, block);
                    m.resume(t + TIMING.bus_memory, p);
                    return None;
                }
            }
        }
        // Remote (or local-home) transaction through the RAC.
        Some(t)
    }

    /// Delivers one DASH protocol message: coherence requests, data and
    /// ownership replies, forwards, writebacks, invalidations, and
    /// directory flushes. Returns `false` for message kinds that belong
    /// to another backend.
    pub(crate) fn deliver(&mut self, m: &mut Engine, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        match kind {
            MsgKind::ReadReq { block } => {
                self.home_request(m, t, dst, QueuedReq { requester: src, block, is_write: false })
            }
            MsgKind::WriteReq { block } => {
                self.home_request(m, t, dst, QueuedReq { requester: src, block, is_write: true })
            }
            MsgKind::Writeback { block } => self.on_writeback(m, t, dst, src, block),
            MsgKind::ReplacementHint { block } => {
                // Advisory: forget the sharer if the entry is precise and
                // not mid-transaction. A hint that crosses a newer
                // transaction is simply ignored — at worst the entry keeps
                // a stale (superset) pointer, which is always safe.
                if !m.clusters[dst].ser.is_busy(block) {
                    let key = m.dir_key(block);
                    if let Some(e) = m.clusters[dst].dir.lookup_mut(key, t) {
                        if !e.is_dirty() && e.is_precise() {
                            e.remove_sharer(src as NodeId);
                        }
                    }
                    m.clusters[dst].dir.release_if_empty(key);
                }
            }
            MsgKind::FwdRead {
                block,
                requester,
                epoch,
            } => self.on_forward(m, t, dst, src, block, requester, false, 0, epoch),
            MsgKind::FwdWrite {
                block,
                requester,
                version,
            } => self.on_forward(m, t, dst, src, block, requester, true, version, version - 1),
            MsgKind::SharingWriteback {
                block,
                requester,
                epoch,
            } => {
                // A forwarded-read close carries the *requester* the owner
                // replied to; an unsolicited downgrade (intra-cluster dirty
                // sharing) names the owner itself. The distinction matters:
                // an unsolicited SWB can arrive while a forward to the same
                // owner is still in flight, and must not steal that
                // transaction's close.
                let closing = m.clusters[dst].ser.reason(block) == Some(BusyReason::AwaitClose)
                    && requester != src;
                if closing {
                    self.close_forwarded_read(m, t, dst, src, block, requester);
                } else {
                    self.on_downgrade(m, t, dst, src, block, epoch);
                }
            }
            MsgKind::OwnershipTransfer { block, new_owner } => {
                self.on_ownership_transfer(m, t, dst, block, new_owner)
            }
            MsgKind::WritebackRace {
                block,
                requester,
                was_write,
            } => {
                m.tally.counters.races += 1;
                let key = m.dir_key(block);
                if was_write {
                    self.nodes[dst].pending_write_bump.reset(key);
                }
                let epoch = m.memory_version(dst, block);
                m.clusters[dst].ser.on_race(
                    block,
                    src,
                    epoch,
                    QueuedReq {
                        requester,
                        block,
                        is_write: was_write,
                    },
                );
                if matches!(
                    m.clusters[dst].ser.reason(block),
                    Some(BusyReason::AwaitWriteback(_))
                ) {
                    // The race normally waits for the ex-owner's in-flight
                    // writeback. But if the recorded dirty epoch already
                    // ended by other means — an unsolicited downgrade
                    // (intra-cluster dirty sharing) landed while the
                    // forward was in flight, after which the clean line was
                    // silently evicted — no writeback is coming: the entry
                    // is no longer dirty and memory is current, so open the
                    // block immediately.
                    let still_dirty = m.clusters[dst]
                        .dir
                        .probe(key)
                        .is_some_and(|e| e.is_dirty());
                    if !still_dirty {
                        m.clusters[dst].ser.close(block);
                    }
                } else {
                    // Resolved against an *early* writeback. That writeback
                    // may have arrived before the ownership transfer that
                    // recorded `src` as owner (contention reorders the two
                    // channels), in which case its entry update was a no-op
                    // and the entry still names the evicted owner: clean it
                    // now, or the drained request would be re-forwarded to
                    // a cluster that has nothing.
                    let node = &mut m.clusters[dst];
                    if let Some(e) = node.dir.lookup_mut(key, t) {
                        if e.is_dirty() && e.owner() == Some(src as NodeId) {
                            e.clear();
                        }
                    }
                    node.dir.release_if_empty(key);
                }
                m.drain(t, dst, block);
            }
            MsgKind::ReadReply { block, version } => {
                if let Some(mshr) = m.read_reply(dst, block) {
                    m.complete_read(t, dst, block, version, &mshr, Some(LineState::Shared));
                    Self::finish_flush_if_deferred(m, t, dst, block, mshr.flush_pending);
                }
            }
            MsgKind::WriteReply {
                block,
                inval_count,
                version,
            } => {
                if let Some(mshr) =
                    m.clusters[dst].rac.write_reply(block, inval_count, version)
                {
                    self.become_owner(m, t, dst, block, mshr);
                }
            }
            MsgKind::TransferReply { block, version } => {
                if let Some(mshr) = m.clusters[dst].rac.write_reply(block, 0, version) {
                    self.become_owner(m, t, dst, block, mshr);
                }
            }
            MsgKind::Inval { block, requester } => {
                let was_dirty = m.clusters[dst].caches.invalidate_all(block);
                debug_assert!(
                    !was_dirty,
                    "invalidation hit a dirty owner: block {block} at cluster {dst} \
                     (requester {requester}, t {t})"
                );
                // A reordered network (contention) can deliver this before
                // the data reply of an in-flight read that was serialized
                // *before* the invalidating write: the reply may satisfy
                // the waiting processors, but its line must not persist.
                m.clusters[dst].rac.poison_read(block);
                m.send(t + 1, dst, requester, MsgKind::InvalAck { block });
            }
            MsgKind::InvalAck { block } => {
                if m.clusters[dst].rac.has_mshr(block) {
                    if let Some(mshr) = m.clusters[dst].rac.inval_ack(block) {
                        self.become_owner(m, t, dst, block, mshr);
                    }
                }
                // else: fire-and-forget ack from a Dir_NB pointer eviction.
            }
            MsgKind::DirFlush {
                block,
                epoch,
                owner_flush,
            } => {
                let my_epoch = self.owner_epoch(dst, block);
                let write_mshr =
                    m.clusters[dst].rac.mshr_kind(block) == Some(MshrKind::Write);
                if epoch < my_epoch {
                    // The flush was decided against an *older* epoch of the
                    // entry than the ownership we have since completed: it
                    // is stale. Acknowledge (the home's bookkeeping needs
                    // it) but keep our current-epoch data.
                    m.send(t + 1, dst, src, MsgKind::DirFlushAck { block });
                } else if write_mshr
                    && (m.clusters[dst].rac.mshr_reply_received(block)
                        || (owner_flush && epoch > my_epoch))
                {
                    // The flush targets an ownership of ours that is still
                    // filling — either the grant reply arrived and acks are
                    // pending, or we are the flushed entry's recorded owner
                    // with the grant/transfer reply still in flight. Honour
                    // it once the write completes (safe: being the recorded
                    // owner means our request was already processed, so it
                    // is not queued behind this replacement).
                    m.clusters[dst].rac.defer_flush(block);
                } else {
                    // Drop any resident copy and poison a pending read, or
                    // an uncovered copy (or a reordered reply) could
                    // survive the flush.
                    m.clusters[dst].caches.invalidate_all(block);
                    m.clusters[dst].rac.poison_read(block);
                    m.send(t + 1, dst, src, MsgKind::DirFlushAck { block });
                }
            }
            MsgKind::DirFlushAck { block } => {
                if let Some((targets, requester, version)) =
                    self.nodes[dst].serial_chains.get_mut(&block)
                {
                    // SCI-style serial chain: acknowledge received, walk on.
                    if let Some(next) = targets.pop_front() {
                        let epoch = *version;
                        m.send(
                            t + TIMING.bus_memory,
                            dst,
                            next,
                            MsgKind::DirFlush { block, epoch, owner_flush: false },
                        );
                    } else {
                        let (requester, version) = (*requester, *version);
                        self.nodes[dst].serial_chains.remove(&block);
                        m.clusters[dst].ser.close(block);
                        if requester == dst {
                            // The home cluster's own write: stay busy until
                            // its fill, as in the parallel path.
                            m.clusters[dst]
                                .ser
                                .mark_busy(block, BusyReason::AwaitHomeWrite);
                        }
                        m.send(
                            t + TIMING.bus_memory,
                            dst,
                            requester,
                            MsgKind::WriteReply { block, inval_count: 0, version },
                        );
                        m.drain(t, dst, block);
                    }
                } else if m.clusters[dst].rac.replacement_pending(block)
                    && m.clusters[dst].rac.flush_ack(block)
                {
                    m.clusters[dst].ser.close(block);
                    m.drain(t, dst, block);
                }
                // (Acks from Dir_NB evictions have no pending replacement
                // and nothing waits on them.)
            }
            _ => return false,
        }
        true
    }

    // ------------------------------------------------------------------
    // Home-side protocol
    // ------------------------------------------------------------------

    pub(crate) fn home_request(&mut self, m: &mut Engine, t: Cycle, home: usize, req: QueuedReq) {
        let QueuedReq { requester, block, is_write } = req;
        if m.clusters[home].ser.is_busy(block) {
            m.clusters[home].ser.queue(block, req);
            return;
        }

        m.telemetry.home_phase(t, home, requester, block, Phase::HomeLookup);

        // Home bus snoop: keep/make the home cluster's own copies coherent.
        if is_write {
            // Home copies are invalidated over the bus (a dirty home copy
            // conceptually flushes to memory first).
            m.clusters[home].caches.invalidate_all(block);
        } else {
            // A dirty home copy supplies the data; it is downgraded and
            // memory is now clean.
            m.clusters[home].caches.downgrade_all(block);
        }

        let (action, replacement) = self.dir_decide(m, t, home, requester, block, is_write);

        if let Some(rep) = replacement {
            self.dispatch_replacement(m, t, home, rep);
        }

        match action {
            DirAction::Stalled { blocker } => {
                m.tally.counters.sparse_stalls += 1;
                m.clusters[home].ser.queue(blocker, req);
            }
            DirAction::SelfOwned => {
                // The requester is the recorded owner: its writeback is in
                // flight — unless it already arrived *before* the transfer
                // that recorded the requester as owner (contention can
                // reorder the two channels). In that case the dirty epoch
                // is over: clear the record and process the request afresh.
                let park_epoch = m.memory_version(home, block);
                if let Some(kind) =
                    m.clusters[home].ser.take_early(block, requester, park_epoch)
                {
                    let key = m.dir_key(block);
                    if let Some(e) = m.clusters[home].dir.lookup_mut(key, t) {
                        if e.is_dirty() && e.owner() == Some(requester as NodeId) {
                            match kind {
                                EarlyKind::Writeback => e.clear(),
                                EarlyKind::Downgrade => e.make_shared(&[requester as NodeId]),
                            }
                        }
                    }
                    m.clusters[home].dir.release_if_empty(key);
                    return self.home_request(m, t, home, req);
                }
                if m.faults.tolerant() {
                    // Under fault injection a request from the recorded
                    // owner may be a duplicate or a reordered retry, not
                    // evidence of an in-flight writeback; parking for a
                    // writeback that never comes would deadlock. NAK it
                    // instead (as the real DASH directory does): a genuine
                    // requester retries until its writeback lands, while a
                    // stale duplicate's NACK is dropped at the RAC.
                    return m.refuse(t, home, requester, block, is_write);
                }
                m.tally.counters.self_owned_parks += 1;
                m.clusters[home].ser.park_for_writeback(block, requester, req);
            }
            DirAction::Forward { owner } => {
                m.tally.counters.forwards += 1;
                if is_write {
                    // Ownership transfer: zero invalidations.
                    m.inval_event(t, home, block, 0, cause::WRITE);
                }
                m.clusters[home]
                    .ser
                    .mark_busy(block, BusyReason::AwaitClose);
                let kind = if is_write {
                    // The home assigns the new ownership epoch's version at
                    // forward time; the owner echoes it in its reply. The
                    // epoch being *taken over* is version - 1.
                    let version = m.bump_version(home, block);
                    let key = m.dir_key(block);
                    *self.nodes[home].pending_write_bump.slot(key) = true;
                    MsgKind::FwdWrite {
                        block,
                        requester,
                        version,
                    }
                } else {
                    MsgKind::FwdRead {
                        block,
                        requester,
                        epoch: m.memory_version(home, block),
                    }
                };
                m.send(t + TIMING.bus_memory, home, owner, kind);
            }
            DirAction::Supply { nb_evict } => {
                if let Some(victim) = nb_evict {
                    m.tally.counters.nb_evictions += 1;
                    // Dir_NB pointer overflow: one sharer loses its copy so
                    // the new reader can be recorded (an invalidation event
                    // of size 1, §6.1 Figure 4).
                    m.inval_event(t, home, block, 1, cause::NB_EVICT);
                    let epoch = m.memory_version(home, block);
                    m.send(
                        t + TIMING.bus_memory,
                        home,
                        victim,
                        MsgKind::DirFlush { block, epoch, owner_flush: false },
                    );
                }
                let version = m.memory_version(home, block);
                m.send(t + TIMING.bus_memory, home, requester, MsgKind::ReadReply { block, version });
            }
            DirAction::Grant => {
                let inval_targets = &self.inval_targets.0;
                m.inval_event(t, home, block, inval_targets.len(), cause::WRITE);
                if !inval_targets.is_empty() {
                    m.telemetry.home_phase(t, home, requester, block, Phase::Fanout);
                }
                let version = m.bump_version(home, block);
                if m.cfg.serial_invalidations && !inval_targets.is_empty() {
                    // SCI-style: walk the sharers one at a time. The block
                    // stays busy; the requester gets its ownership reply
                    // only after the chain completes.
                    let mut targets: std::collections::VecDeque<usize> =
                        inval_targets.iter().map(|n| n as usize).collect();
                    let first = targets.pop_front().expect("non-empty");
                    self.nodes[home].serial_chains
                        .insert(block, (targets, requester, version));
                    m.clusters[home]
                        .ser
                        .mark_busy(block, BusyReason::AwaitFlushAcks);
                    m.send(
                        t + TIMING.bus_memory,
                        home,
                        first,
                        MsgKind::DirFlush { block, epoch: version, owner_flush: false },
                    );
                    return;
                }
                if requester == home {
                    // The entry was cleared (home ownership is bus-tracked),
                    // but the home's own write is still in flight until all
                    // acknowledgements arrive; conflicting requests must not
                    // slip in between and see an uncached block.
                    m.clusters[home]
                        .ser
                        .mark_busy(block, BusyReason::AwaitHomeWrite);
                }
                let skipped = if m.mutation == Some(explore::Mutation::SkipInval) {
                    // Test-only protocol bug: silently forget one sharer.
                    // The ack count is lowered to match so the write still
                    // completes — leaving a coherence violation (a stale
                    // copy outliving the new ownership epoch) rather than a
                    // deadlock, which is the class of bug the model checker
                    // exists to catch.
                    inval_targets.iter().last()
                } else {
                    None
                };
                let n = (inval_targets.len() - skipped.is_some() as usize) as u32;
                inval_targets.for_each_member(|c| {
                    if Some(c) != skipped {
                        let kind = MsgKind::Inval { block, requester };
                        m.send(t + TIMING.bus_memory, home, c as usize, kind);
                    }
                });
                m.send(
                    t + TIMING.bus_memory,
                    home,
                    requester,
                    MsgKind::WriteReply { block, inval_count: n, version },
                );
            }
        }
    }

    /// Flushes a displaced directory entry's cached copies: DirFlush to
    /// every covered cluster, acks collected at the home RAC, the victim
    /// block busy until they all arrive. Used by sparse replacements and
    /// overflow wide-victim displacements alike.
    fn dispatch_replacement(&mut self, m: &mut Engine, t: Cycle, home: usize, rep: ReplacementWork) {
        if rep.targets.is_empty() {
            return;
        }
        m.tally.counters.replacement_flushes += 1;
        m.telemetry.replacement(
            t,
            home,
            rep.victim_key,
            rep.targets.len() as u32,
            rep.dirty_owner.is_some(),
        );
        let epoch = m.memory_version(home, rep.victim_key);
        let n = rep.targets.len() as u32;
        rep.targets.for_each_member(|c| {
            let c = c as usize;
            m.send(
                t + TIMING.bus_memory,
                home,
                c,
                MsgKind::DirFlush { block: rep.victim_key, epoch, owner_flush: rep.dirty_owner == Some(c) },
            );
        });
        m.clusters[home].rac.start_replacement(rep.victim_key, n);
        m.clusters[home]
            .ser
            .mark_busy(rep.victim_key, BusyReason::AwaitFlushAcks);
    }

    /// Registers `node` as a sharer at the home, translating the store's
    /// organization-specific outcome (NB eviction, overflow displacement)
    /// into protocol actions. Returns the NB-eviction target, if any.
    fn register_sharer(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        home: usize,
        block: u64,
        node: usize,
    ) -> Option<usize> {
        let key = m.dir_key(block);
        let clusters = m.cfg.clusters as u64;
        let outcome = {
            let node_ref = &mut m.clusters[home];
            let ser = &node_ref.ser;
            node_ref
                .dir
                .record_sharer(key, node as NodeId, t, |k| {
                    ser.is_busy(k * clusters + home as u64)
                })
        };
        match outcome {
            scd_core::RecordSharer::Recorded => None,
            scd_core::RecordSharer::Evict(v) => Some(v as usize),
            scd_core::RecordSharer::Displaced { victim_key, victim } => {
                let victim_block = victim_key * clusters + home as u64;
                let rep = replacement_work(home, victim_block, &victim);
                self.dispatch_replacement(m, t, home, rep);
                None
            }
        }
    }

    /// All directory-entry mutation for one request, returning plain data.
    fn dir_decide(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        home: usize,
        requester: usize,
        block: u64,
        is_write: bool,
    ) -> (DirAction, Option<ReplacementWork>) {
        let key = m.dir_key(block);
        let clusters = m.cfg.clusters as u64;
        let patterns_on = m.telemetry.config().patterns;
        let node = &mut m.clusters[home];
        let ser = &node.ser;
        let mut replacement = None;
        // Fan-out precision sample, captured as plain data while the entry
        // borrow is live and applied after it ends (the "present" check
        // needs read access to every cluster's caches).
        let mut fanout_sample: Option<telemetry::FanoutSample> = None;
        // The pin check and the victim/blocker results translate between
        // home-local directory keys and global block numbers.
        let access = node
            .dir
            .entry_mut(key, t, |k| ser.is_busy(k * clusters + home as u64));
        let entry = match access {
            EntryAccess::Stalled { blocker } => {
                return (
                    DirAction::Stalled {
                        blocker: blocker * clusters + home as u64,
                    },
                    None,
                );
            }
            EntryAccess::Ready(e) => e,
            EntryAccess::Displaced {
                victim_key,
                victim,
                entry,
            } => {
                let victim_block = victim_key * clusters + home as u64;
                replacement = Some(replacement_work(home, victim_block, &victim));
                entry
            }
        };

        let action = match entry.state() {
            DirState::Dirty => {
                let owner = entry.owner().expect("dirty entry has an owner") as usize;
                if owner == requester {
                    DirAction::SelfOwned
                } else {
                    DirAction::Forward { owner }
                }
            }
            _ => {
                if is_write {
                    let targets = &mut self.inval_targets.0;
                    entry.sharer_superset_into(targets);
                    targets.remove(requester as NodeId);
                    targets.remove(home as NodeId);
                    if patterns_on {
                        fanout_sample = Some(telemetry::FanoutSample {
                            precise: entry.is_precise(),
                            kind: entry.repr_kind(),
                            regions: entry.coarse_regions_set(),
                        });
                    }
                    if requester == home {
                        // The home cluster's ownership is tracked by its bus
                        // snoop, not the directory.
                        entry.clear();
                    } else {
                        entry.make_dirty(requester as NodeId);
                    }
                    DirAction::Grant
                } else {
                    // The sharer is recorded below, once the entry borrow
                    // ends (the organization may promote/displace).
                    DirAction::Supply { nb_evict: None }
                }
            }
        };
        let action = if let DirAction::Supply { .. } = action {
            let nb_evict = if requester != home {
                self.register_sharer(m, t, home, block, requester)
            } else {
                None
            };
            DirAction::Supply { nb_evict }
        } else {
            action
        };
        // Release only after any sharer registration (the entry may have
        // been empty until the new sharer was recorded).
        m.clusters[home].dir.release_if_empty(key);
        if let Some(sample) = fanout_sample {
            m.telemetry.fanout(&m.clusters, block, &sample, &self.inval_targets.0);
        }
        (action, replacement)
    }

    // ------------------------------------------------------------------
    // Owner-side protocol
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_forward(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        owner: usize,
        home: usize,
        block: u64,
        requester: usize,
        is_write: bool,
        version: u64,
        addressed_epoch: u64,
    ) {
        let write_mshr =
            m.clusters[owner].rac.mshr_kind(block) == Some(MshrKind::Write);
        let my_epoch = self.owner_epoch(owner, block);
        debug_assert!(
            addressed_epoch >= my_epoch,
            "forward addressed to a stale epoch ({addressed_epoch} < {my_epoch})"
        );
        if addressed_epoch > my_epoch {
            // The forward addresses an ownership epoch we have not
            // completed yet: it is our pending grant, whose reply (or
            // transfer) is still in flight — possibly reordered behind the
            // forward by a contended network. Any resident copy predates
            // the grant and must not answer; service after the write
            // completes.
            debug_assert!(
                write_mshr,
                "forward for a future epoch without a pending write"
            );
            m.clusters[owner]
                .rac
                .defer_forward(block, requester, is_write, version);
        } else if m.clusters[owner].caches.holds(block) {
            // The forward addresses the epoch we completed and we still
            // hold the data (possibly downgraded): supply it directly —
            // even if a *new* request of ours is queued at the home behind
            // this very forward (servicing is what unblocks that queue).
            self.service_forward(m, t, owner, home, block, requester, is_write, version);
        } else {
            // No copy, no pending grant: the record is a previous ownership
            // epoch whose eviction writeback is in flight.
            debug_assert!(
                m.clusters[owner].rac.writeback_in_flight(block) || !write_mshr,
                "race branch without a writeback in flight"
            );
            // The block was evicted; its writeback is in flight to the home.
            m.send(
                t + TIMING.l2_hit,
                owner,
                home,
                MsgKind::WritebackRace { block, requester, was_write: is_write },
            );
        }
    }

    /// The owner-side service of a forwarded request, used both when the
    /// forward finds the copy resident and when it was deferred behind the
    /// owner's own completing write.
    #[allow(clippy::too_many_arguments)]
    fn service_forward(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        owner: usize,
        home: usize,
        block: u64,
        requester: usize,
        is_write: bool,
        version: u64,
    ) {
        if is_write {
            m.clusters[owner].caches.invalidate_all(block);
            m.send(t + TIMING.l2_hit, owner, requester, MsgKind::TransferReply { block, version });
            m.send(
                t + TIMING.l2_hit,
                owner,
                home,
                MsgKind::OwnershipTransfer { block, new_owner: requester },
            );
        } else {
            m.clusters[owner].caches.downgrade_all(block);
            let version = m.line_version(owner, block);
            m.send(t + TIMING.l2_hit, owner, requester, MsgKind::ReadReply { block, version });
            let epoch = self.owner_epoch(owner, block);
            m.send(
                t + TIMING.l2_hit,
                owner,
                home,
                MsgKind::SharingWriteback { block, requester, epoch },
            );
        }
    }

    // ------------------------------------------------------------------
    // Transaction-closing messages at the home
    // ------------------------------------------------------------------

    /// A sharing writeback closes the forwarded read that `requester`
    /// opened: the entry becomes shared between the downgraded owner and
    /// the requester.
    fn close_forwarded_read(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        home: usize,
        owner: usize,
        block: u64,
        requester: usize,
    ) {
        let key = m.dir_key(block);
        self.nodes[home].pending_write_bump.reset(key);
        let mut sharers: Vec<NodeId> = Vec::with_capacity(2);
        if owner != home {
            sharers.push(owner as NodeId);
        }
        if requester != home && requester != owner {
            sharers.push(requester as NodeId);
        }
        // Register the downgraded owner and the requester one by one
        // through the store, so each organization applies its overflow
        // policy (Dir_i NB with i == 1 evicts the first registration;
        // an overflow directory may promote and displace a wide
        // victim). NB evictions are flushed like any other
        // pointer-overflow eviction.
        m.clusters[home]
            .dir
            .lookup_mut(key, t)
            .expect("busy entries are pinned")
            .clear();
        let mut evicted: Vec<usize> = Vec::new();
        for &sh in &sharers {
            if let Some(v) = self.register_sharer(m, t, home, block, sh as usize) {
                evicted.push(v);
            }
        }
        m.clusters[home].dir.release_if_empty(key);
        m.clusters[home].ser.close(block);
        let epoch = m.memory_version(home, block);
        for v in evicted {
            m.tally.counters.nb_evictions += 1;
            m.inval_event(t, home, block, 1, cause::SWB_EVICT);
            m.send(
                t + TIMING.bus_memory,
                home,
                v,
                MsgKind::DirFlush { block, epoch, owner_flush: false },
            );
        }
        m.drain(t, home, block);
    }

    /// An unsolicited downgrade (intra-cluster dirty sharing): apply it
    /// only if the directory still records the *same epoch* of the
    /// sender's ownership — the sender may have been re-granted ownership
    /// (a newer epoch) while this notification was in flight, in which
    /// case it is stale. The recorded owner's epoch is `cur_version`,
    /// minus one while a FwdWrite's bump is pending.
    fn on_downgrade(
        &mut self,
        m: &mut Engine,
        t: Cycle,
        home: usize,
        owner: usize,
        block: u64,
        epoch: u64,
    ) {
        let key = m.dir_key(block);
        let node = &mut m.clusters[home];
        let cur = node.cur_version.value(key);
        let recorded_epoch = cur - u64::from(self.nodes[home].pending_write_bump.value(key));
        let mut applied = false;
        if epoch == recorded_epoch {
            if let Some(entry) = node.dir.lookup_mut(key, t) {
                if entry.is_dirty() && entry.owner() == Some(owner as NodeId) {
                    entry.make_shared(&[owner as NodeId]);
                    applied = true;
                }
            }
        }
        if applied {
            // If requests were parked waiting for this owner's dirty
            // epoch to end (a self-owned park expecting a writeback),
            // the downgrade notification is exactly that evidence.
            if node.ser.reason(block) == Some(BusyReason::AwaitWriteback(owner)) {
                node.ser.close(block);
                m.drain(t, home, block);
            }
        } else if node.ser.is_busy(block) && epoch == cur {
            // The notification outran the transfer that will record
            // `owner` as the owner: remember the downgrade so the
            // transfer (or a self-owned park) can account for it.
            node.ser.record_early(block, owner, epoch, EarlyKind::Downgrade);
        }
    }

    fn on_ownership_transfer(&mut self, m: &mut Engine, t: Cycle, home: usize, block: u64, new_owner: usize) {
        assert_eq!(
            m.clusters[home].ser.reason(block),
            Some(BusyReason::AwaitClose),
            "ownership transfer must close a forwarded write"
        );
        let key = m.dir_key(block);
        self.nodes[home].pending_write_bump.reset(key);
        let node = &mut m.clusters[home];
        // If the new owner's eviction writeback (or downgrade notification)
        // outran this transfer, its dirty epoch is already over.
        let epoch = node.cur_version.value(key);
        let early = node.ser.take_early(block, new_owner, epoch);
        let entry = node
            .dir
            .lookup_mut(key, t)
            .expect("busy entries are pinned");
        match (new_owner == home, early) {
            (true, _) | (false, Some(EarlyKind::Writeback)) => entry.clear(),
            (false, Some(EarlyKind::Downgrade)) => {
                entry.make_shared(&[new_owner as NodeId])
            }
            (false, None) => entry.make_dirty(new_owner as NodeId),
        }
        node.dir.release_if_empty(key);
        node.ser.close(block);
        m.drain(t, home, block);
    }

    fn on_writeback(&mut self, m: &mut Engine, t: Cycle, home: usize, owner: usize, block: u64) {
        let key = m.dir_key(block);
        let node = &mut m.clusters[home];
        if let Some(entry) = node.dir.lookup_mut(key, t) {
            if entry.is_dirty() && entry.owner() == Some(owner as NodeId) {
                entry.clear();
            }
        }
        let epoch = node.cur_version.value(key);
        node.dir.release_if_empty(key);
        if node.ser.on_writeback(block, owner, epoch) {
            m.drain(t, home, block);
        }
    }

    // ------------------------------------------------------------------
    // What a completed write installs at its requester
    // ------------------------------------------------------------------

    /// The last acknowledgement (or the reply itself) completed cluster
    /// `cl`'s write: it becomes the owner of a new epoch with a dirty
    /// line, then honours whatever arrived for that epoch while it was
    /// still filling — a deferred forward, a deferred flush — and, for a
    /// home-cluster write, reopens the block it held busy from grant to
    /// fill.
    fn become_owner(&mut self, m: &mut Engine, t: Cycle, cl: usize, block: u64, mshr: Mshr) {
        self.nodes[cl].last_owner_epoch.insert(block, mshr.version);
        m.complete_write(t, cl, block, &mshr, Some(LineState::Dirty));
        let home = m.cfg.home_of(block);
        if let Some((requester, is_write, version)) = mshr.deferred_forward {
            self.service_forward(m, t, cl, home, block, requester, is_write, version);
        }
        Self::finish_flush_if_deferred(m, t, cl, block, mshr.flush_pending);
        if home == cl
            && m.clusters[home].ser.reason(block) == Some(BusyReason::AwaitHomeWrite)
        {
            m.clusters[home].ser.close(block);
            m.drain(t, home, block);
        }
    }

    fn finish_flush_if_deferred(m: &mut Engine, t: Cycle, cl: usize, block: u64, pending: bool) {
        if pending {
            // A DirFlush crossed our transaction: honour it now.
            m.clusters[cl].caches.invalidate_all(block);
            let home = m.cfg.home_of(block);
            m.send(t + 1, cl, home, MsgKind::DirFlushAck { block });
        }
    }
}
