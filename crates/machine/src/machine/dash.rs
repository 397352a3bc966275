//! The DASH protocol backend: the paper's directory-based
//! invalidation protocol, extracted verbatim from the original engine.
//!
//! Everything here is requester-, home-, or owner-side DASH machinery:
//! the processor-side access path (cache lookup, intra-cluster snoop,
//! RAC miss path), the home directory decision logic with its
//! organization-specific replacement work, forwarding, and the
//! transaction-closing message handlers. The engine (`machine.rs`)
//! keeps everything protocol-agnostic: the event wheel, message
//! transport and fault injection, synchronization, telemetry, and the
//! invariant-checker plumbing.

use super::*;

impl Machine {
    /// DASH processor-side access: cache lookup, then the miss path.
    pub(crate) fn dash_mem_access(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let hit = self.clusters[cl].caches.access(lp, block, t);
        if let Some(state) = hit.state() {
            let lat = match hit {
                HitLevel::L1(_) => tm.l1_hit,
                _ => tm.l2_hit,
            };
            if kind == MshrKind::Read {
                self.observe(cl, block);
                self.oracle_read(p, block);
                self.resume(t + lat, p);
                return;
            }
            if state == LineState::Dirty {
                self.observe(cl, block);
                // A silent rewrite of the held ownership epoch.
                let epoch = self.clusters[cl]
                    .line_version
                    .get(&block)
                    .copied()
                    .unwrap_or(0);
                self.oracle_write(p, block, epoch);
                self.resume(t + lat, p);
                return;
            }
            // Write hit on a shared line: ownership upgrade required.
        }
        self.miss_path(t + tm.l2_hit, p, block, kind);
    }

    fn miss_path(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let home = self.cfg.home_of(block);

        // Intra-cluster snoop: a peer with a copy supplies over the bus.
        if kind == MshrKind::Read {
            if let Some(q) = self.clusters[cl].caches.dirty_holder(block) {
                self.clusters[cl].caches.proc_mut(q).downgrade(block);
                self.fill(t, cl, lp, block, LineState::Shared);
                if home != cl {
                    // Keep the home directory and memory consistent: the
                    // cluster no longer holds the block dirty. Stamp the
                    // epoch being downgraded so the home can discard the
                    // notification if the cluster is re-granted ownership
                    // before it arrives.
                    let epoch = self.clusters[cl]
                        .last_owner_epoch
                        .get(&block)
                        .copied()
                        .unwrap_or(0);
                    self.send(
                        t + tm.bus_memory,
                        Msg {
                            src: cl,
                            dst: home,
                            kind: MsgKind::SharingWriteback {
                                block,
                                requester: cl,
                                epoch,
                            },
                        },
                    );
                }
                self.observe(cl, block);
                self.oracle_read(p, block);
                self.resume(t + tm.bus_memory, p);
                return;
            }
            if self.clusters[cl].caches.holds(block) {
                // A clean peer copy satisfies the read bus-locally; the
                // directory already covers this cluster.
                self.fill(t, cl, lp, block, LineState::Shared);
                self.observe(cl, block);
                self.oracle_read(p, block);
                self.resume(t + tm.bus_memory, p);
                return;
            }
        }
        if kind == MshrKind::Write {
            if let Some(q) = self.clusters[cl].caches.dirty_holder(block) {
                if q != lp {
                    // Bus ownership transfer; the cluster remains owner.
                    self.clusters[cl].caches.proc_mut(q).invalidate(block);
                    self.fill(t, cl, lp, block, LineState::Dirty);
                    self.observe(cl, block);
                    // Same ownership epoch, new writer within the cluster.
                    let epoch = self.clusters[cl]
                        .line_version
                        .get(&block)
                        .copied()
                        .unwrap_or(0);
                    self.oracle_write(p, block, epoch);
                    self.resume(t + tm.bus_memory, p);
                    return;
                }
            }
        }

        // Remote (or local-home) transaction through the RAC.
        match self.clusters[cl].rac.start(block, kind, lp) {
            StartOutcome::IssueRequest => {
                self.telemetry.txn_begin(t, cl, home, block, kind == MshrKind::Write);
                let mk = if kind == MshrKind::Write {
                    MsgKind::WriteReq { block }
                } else {
                    MsgKind::ReadReq { block }
                };
                self.send(
                    t,
                    Msg {
                        src: cl,
                        dst: home,
                        kind: mk,
                    },
                );
            }
            StartOutcome::Merged | StartOutcome::WaitAndReissue => {}
        }
        self.block(t, p, false);
    }

    /// Delivers one DASH protocol message: coherence requests, data and
    /// ownership replies, forwards, writebacks, invalidations, and
    /// directory flushes. Returns `false` for message kinds that belong
    /// to another backend.
    pub(crate) fn dash_deliver(&mut self, t: Cycle, msg: Msg) -> bool {
        let Msg { src, dst, kind } = msg;
        match kind {
            MsgKind::ReadReq { block } => self.home_request(t, dst, src, block, false),
            MsgKind::WriteReq { block } => self.home_request(t, dst, src, block, true),
            MsgKind::Writeback { block } => self.on_writeback(t, dst, src, block),
            MsgKind::ReplacementHint { block } => {
                // Advisory: forget the sharer if the entry is precise and
                // not mid-transaction. A hint that crosses a newer
                // transaction is simply ignored — at worst the entry keeps
                // a stale (superset) pointer, which is always safe.
                if !self.clusters[dst].ser.is_busy(block) {
                    let key = self.dir_key(block);
                    if let Some(e) = self.clusters[dst].dir.lookup_mut(key, t) {
                        if !e.is_dirty() && e.is_precise() {
                            e.remove_sharer(src as NodeId);
                        }
                    }
                    self.clusters[dst].dir.release_if_empty(key);
                }
            }
            MsgKind::FwdRead {
                block,
                requester,
                epoch,
            } => self.on_forward(t, dst, src, block, requester, false, 0, epoch),
            MsgKind::FwdWrite {
                block,
                requester,
                version,
            } => self.on_forward(t, dst, src, block, requester, true, version, version - 1),
            MsgKind::SharingWriteback {
                block,
                requester,
                epoch,
            } => self.on_sharing_writeback(t, dst, src, block, requester, epoch),
            MsgKind::OwnershipTransfer { block, new_owner } => {
                self.on_ownership_transfer(t, dst, block, new_owner)
            }
            MsgKind::WritebackRace {
                block,
                requester,
                was_write,
            } => {
                self.counters.races += 1;
                let key = self.dir_key(block);
                if was_write {
                    self.clusters[dst].pending_write_bump.reset(key);
                }
                let epoch = self.memory_version(dst, block);
                self.clusters[dst].ser.on_race(
                    block,
                    src,
                    epoch,
                    scd_protocol::QueuedReq {
                        requester,
                        block,
                        is_write: was_write,
                    },
                );
                if matches!(
                    self.clusters[dst].ser.reason(block),
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
                    let still_dirty = self.clusters[dst]
                        .dir
                        .probe(key)
                        .is_some_and(|e| e.is_dirty());
                    if !still_dirty {
                        self.clusters[dst].ser.close(block);
                    }
                } else {
                    // Resolved against an *early* writeback. That writeback
                    // may have arrived before the ownership transfer that
                    // recorded `src` as owner (contention reorders the two
                    // channels), in which case its entry update was a no-op
                    // and the entry still names the evicted owner: clean it
                    // now, or the drained request would be re-forwarded to
                    // a cluster that has nothing.
                    let node = &mut self.clusters[dst];
                    if let Some(e) = node.dir.lookup_mut(key, t) {
                        if e.is_dirty() && e.owner() == Some(src as NodeId) {
                            e.clear();
                        }
                    }
                    node.dir.release_if_empty(key);
                }
                self.drain(t, dst, block);
            }
            MsgKind::ReadReply { block, version } => {
                if self.fault_active {
                    // Duplicated requests produce one reply per service;
                    // only the first finds the MSHR, the stray is dropped.
                    match self.clusters[dst].rac.try_read_reply(block) {
                        Some(mshr) => {
                            self.set_line_version(dst, block, version);
                            self.complete_read(t, dst, block, mshr);
                        }
                        None => self.faults.strays_dropped += 1,
                    }
                } else {
                    let mshr = self.clusters[dst].rac.read_reply(block);
                    self.set_line_version(dst, block, version);
                    self.complete_read(t, dst, block, mshr);
                }
            }
            MsgKind::WriteReply {
                block,
                inval_count,
                version,
            } => {
                if let Some(mshr) =
                    self.clusters[dst].rac.write_reply(block, inval_count, version)
                {
                    self.complete_write(t, dst, block, mshr);
                }
            }
            MsgKind::TransferReply { block, version } => {
                if let Some(mshr) = self.clusters[dst].rac.write_reply(block, 0, version) {
                    self.complete_write(t, dst, block, mshr);
                }
            }
            MsgKind::Inval { block, requester } => {
                let was_dirty = self.clusters[dst].caches.invalidate_all(block);
                debug_assert!(
                    !was_dirty,
                    "invalidation hit a dirty owner: block {block} at cluster {dst}                      (requester {requester}, t {t})"
                );
                // A reordered network (contention) can deliver this before
                // the data reply of an in-flight read that was serialized
                // *before* the invalidating write: the reply may satisfy
                // the waiting processors, but its line must not persist.
                self.clusters[dst].rac.poison_read(block);
                self.send(
                    t + 1,
                    Msg {
                        src: dst,
                        dst: requester,
                        kind: MsgKind::InvalAck { block },
                    },
                );
            }
            MsgKind::InvalAck { block } => {
                if self.clusters[dst].rac.has_mshr(block) {
                    if let Some(mshr) = self.clusters[dst].rac.inval_ack(block) {
                        self.complete_write(t, dst, block, mshr);
                    }
                }
                // else: fire-and-forget ack from a Dir_NB pointer eviction.
            }
            MsgKind::DirFlush {
                block,
                epoch,
                owner_flush,
            } => {
                let my_epoch = self.clusters[dst]
                    .last_owner_epoch
                    .get(&block)
                    .copied()
                    .unwrap_or(0);
                let write_mshr =
                    self.clusters[dst].rac.mshr_kind(block) == Some(MshrKind::Write);
                if epoch < my_epoch {
                    // The flush was decided against an *older* epoch of the
                    // entry than the ownership we have since completed: it
                    // is stale. Acknowledge (the home's bookkeeping needs
                    // it) but keep our current-epoch data.
                    self.send(
                        t + 1,
                        Msg {
                            src: dst,
                            dst: src,
                            kind: MsgKind::DirFlushAck { block },
                        },
                    );
                } else if write_mshr
                    && (self.clusters[dst].rac.mshr_reply_received(block)
                        || (owner_flush && epoch > my_epoch))
                {
                    // The flush targets an ownership of ours that is still
                    // filling — either the grant reply arrived and acks are
                    // pending, or we are the flushed entry's recorded owner
                    // with the grant/transfer reply still in flight. Honour
                    // it once the write completes (safe: being the recorded
                    // owner means our request was already processed, so it
                    // is not queued behind this replacement).
                    self.clusters[dst].rac.defer_flush(block);
                } else {
                    // Drop any resident copy and poison a pending read, or
                    // an uncovered copy (or a reordered reply) could
                    // survive the flush.
                    self.clusters[dst].caches.invalidate_all(block);
                    self.clusters[dst].rac.poison_read(block);
                    self.send(
                        t + 1,
                        Msg {
                            src: dst,
                            dst: src,
                            kind: MsgKind::DirFlushAck { block },
                        },
                    );
                }
            }
            MsgKind::DirFlushAck { block } => {
                if let Some((targets, requester, version)) =
                    self.clusters[dst].serial_chains.get_mut(&block)
                {
                    // SCI-style serial chain: acknowledge received, walk on.
                    if let Some(next) = targets.pop_front() {
                        let epoch = *version;
                        self.send(
                            t + self.cfg.timing.bus_memory,
                            Msg {
                                src: dst,
                                dst: next,
                                kind: MsgKind::DirFlush { block, epoch, owner_flush: false },
                            },
                        );
                    } else {
                        let (requester, version) = (*requester, *version);
                        self.clusters[dst].serial_chains.remove(&block);
                        self.clusters[dst].ser.close(block);
                        if requester == dst {
                            // The home cluster's own write: stay busy until
                            // its fill, as in the parallel path.
                            self.clusters[dst]
                                .ser
                                .mark_busy(block, BusyReason::AwaitHomeWrite);
                        }
                        self.send(
                            t + self.cfg.timing.bus_memory,
                            Msg {
                                src: dst,
                                dst: requester,
                                kind: MsgKind::WriteReply {
                                    block,
                                    inval_count: 0,
                                    version,
                                },
                            },
                        );
                        self.drain(t, dst, block);
                    }
                } else if self.clusters[dst].rac.replacement_pending(block)
                    && self.clusters[dst].rac.flush_ack(block)
                {
                    self.clusters[dst].ser.close(block);
                    self.drain(t, dst, block);
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

    pub(crate) fn home_request(&mut self, t: Cycle, home: usize, requester: usize, block: u64, is_write: bool) {
        let tm = self.cfg.timing;
        if self.clusters[home].ser.is_busy(block) {
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

        // Home bus snoop: keep/make the home cluster's own copies coherent.
        if is_write {
            // Home copies are invalidated over the bus (a dirty home copy
            // conceptually flushes to memory first).
            self.clusters[home].caches.invalidate_all(block);
        } else {
            // A dirty home copy supplies the data; it is downgraded and
            // memory is now clean.
            self.clusters[home].caches.downgrade_all(block);
        }

        let (action, replacement) = self.dir_decide(t, home, requester, block, is_write);

        if let Some(rep) = replacement {
            self.dispatch_replacement(t, home, rep);
        }

        match action {
            DirAction::Stalled { blocker } => {
                self.counters.sparse_stalls += 1;
                self.clusters[home].ser.queue(
                    blocker,
                    scd_protocol::QueuedReq {
                        requester,
                        block,
                        is_write,
                    },
                );
            }
            DirAction::SelfOwned => {
                // The requester is the recorded owner: its writeback is in
                // flight — unless it already arrived *before* the transfer
                // that recorded the requester as owner (contention can
                // reorder the two channels). In that case the dirty epoch
                // is over: clear the record and process the request afresh.
                let park_epoch = self.memory_version(home, block);
                if let Some(kind) =
                    self.clusters[home].ser.take_early(block, requester, park_epoch)
                {
                    let key = self.dir_key(block);
                    if let Some(e) = self.clusters[home].dir.lookup_mut(key, t) {
                        if e.is_dirty() && e.owner() == Some(requester as NodeId) {
                            match kind {
                                EarlyKind::Writeback => e.clear(),
                                EarlyKind::Downgrade => e.make_shared(&[requester as NodeId]),
                            }
                        }
                    }
                    self.clusters[home].dir.release_if_empty(key);
                    return self.home_request(t, home, requester, block, is_write);
                }
                if self.fault_active {
                    // Under fault injection a request from the recorded
                    // owner may be a duplicate or a reordered retry, not
                    // evidence of an in-flight writeback; parking for a
                    // writeback that never comes would deadlock. NAK it
                    // instead (as the real DASH directory does): a genuine
                    // requester retries until its writeback lands, while a
                    // stale duplicate's NACK is dropped at the RAC.
                    self.faults.nacks += 1;
                    self.send(
                        t + tm.dir_lookup,
                        Msg {
                            src: home,
                            dst: requester,
                            kind: MsgKind::Nack {
                                block,
                                was_write: is_write,
                            },
                        },
                    );
                    return;
                }
                self.counters.self_owned_parks += 1;
                self.clusters[home].ser.park_for_writeback(
                    block,
                    requester,
                    scd_protocol::QueuedReq {
                        requester,
                        block,
                        is_write,
                    },
                );
            }
            DirAction::Forward { owner } => {
                self.counters.forwards += 1;
                if is_write {
                    // Ownership transfer: zero invalidations.
                    self.inval_hist.record(0);
                    self.telemetry.inval(t, home, block, 0, "write");
                }
                self.clusters[home]
                    .ser
                    .mark_busy(block, BusyReason::AwaitClose);
                let kind = if is_write {
                    // The home assigns the new ownership epoch's version at
                    // forward time; the owner echoes it in its reply. The
                    // epoch being *taken over* is version - 1.
                    let version = self.bump_version(home, block);
                    let key = self.dir_key(block);
                    *self.clusters[home].pending_write_bump.slot(key) = true;
                    MsgKind::FwdWrite {
                        block,
                        requester,
                        version,
                    }
                } else {
                    MsgKind::FwdRead {
                        block,
                        requester,
                        epoch: self.memory_version(home, block),
                    }
                };
                self.send(
                    t + tm.bus_memory,
                    Msg {
                        src: home,
                        dst: owner,
                        kind,
                    },
                );
            }
            DirAction::Supply { nb_evict } => {
                if let Some(victim) = nb_evict {
                    self.counters.nb_evictions += 1;
                    // Dir_NB pointer overflow: one sharer loses its copy so
                    // the new reader can be recorded (an invalidation event
                    // of size 1, §6.1 Figure 4).
                    self.inval_hist.record(1);
                    self.telemetry.inval(t, home, block, 1, "nb_evict");
                    let epoch = self.memory_version(home, block);
                    self.send(
                        t + tm.bus_memory,
                        Msg {
                            src: home,
                            dst: victim,
                            kind: MsgKind::DirFlush { block, epoch, owner_flush: false },
                        },
                    );
                }
                let version = self.memory_version(home, block);
                self.send(
                    t + tm.bus_memory,
                    Msg {
                        src: home,
                        dst: requester,
                        kind: MsgKind::ReadReply { block, version },
                    },
                );
            }
            DirAction::Grant { inval_targets } => {
                self.inval_hist.record(inval_targets.len());
                self.telemetry.inval(t, home, block, inval_targets.len() as u32, "write");
                if !inval_targets.is_empty() {
                    self.telemetry.txn_phase(t, home, requester, block, Phase::Fanout);
                }
                let version = self.bump_version(home, block);
                if self.cfg.serial_invalidations && !inval_targets.is_empty() {
                    // SCI-style: walk the sharers one at a time. The block
                    // stays busy; the requester gets its ownership reply
                    // only after the chain completes.
                    let mut targets: std::collections::VecDeque<usize> =
                        inval_targets.iter().map(|n| n as usize).collect();
                    let first = targets.pop_front().expect("non-empty");
                    self.clusters[home]
                        .serial_chains
                        .insert(block, (targets, requester, version));
                    self.clusters[home]
                        .ser
                        .mark_busy(block, BusyReason::AwaitFlushAcks);
                    self.send(
                        t + tm.bus_memory,
                        Msg {
                            src: home,
                            dst: first,
                            kind: MsgKind::DirFlush { block, epoch: version, owner_flush: false },
                        },
                    );
                    return;
                }
                if requester == home {
                    // The entry was cleared (home ownership is bus-tracked),
                    // but the home's own write is still in flight until all
                    // acknowledgements arrive; conflicting requests must not
                    // slip in between and see an uncached block.
                    self.clusters[home]
                        .ser
                        .mark_busy(block, BusyReason::AwaitHomeWrite);
                }
                let mut members: Vec<usize> = Vec::new();
                inval_targets.for_each_member(|c| members.push(c as usize));
                if self.mutation == Some(explore::Mutation::SkipInval) {
                    // Test-only protocol bug: silently forget one sharer.
                    // The ack count is lowered to match so the write still
                    // completes — leaving a coherence violation (a stale
                    // copy outliving the new ownership epoch) rather than a
                    // deadlock, which is the class of bug the model checker
                    // exists to catch.
                    members.pop();
                }
                let n = members.len() as u32;
                for c in members {
                    self.send(
                        t + tm.bus_memory,
                        Msg {
                            src: home,
                            dst: c,
                            kind: MsgKind::Inval { block, requester },
                        },
                    );
                }
                self.send(
                    t + tm.bus_memory,
                    Msg {
                        src: home,
                        dst: requester,
                        kind: MsgKind::WriteReply {
                            block,
                            inval_count: n,
                            version,
                        },
                    },
                );
            }
        }
    }

    /// Flushes a displaced directory entry's cached copies: DirFlush to
    /// every covered cluster, acks collected at the home RAC, the victim
    /// block busy until they all arrive. Used by sparse replacements and
    /// overflow wide-victim displacements alike.
    fn dispatch_replacement(&mut self, t: Cycle, home: usize, rep: ReplacementWork) {
        if rep.targets.is_empty() {
            return;
        }
        let tm = self.cfg.timing;
        self.counters.replacement_flushes += 1;
        self.telemetry.replacement(
            t,
            home,
            rep.victim_key,
            rep.targets.len() as u32,
            rep.dirty_owner.is_some(),
        );
        let epoch = self.memory_version(home, rep.victim_key);
        let n = rep.targets.len() as u32;
        rep.targets.for_each_member(|c| {
            let c = c as usize;
            self.send(
                t + tm.bus_memory,
                Msg {
                    src: home,
                    dst: c,
                    kind: MsgKind::DirFlush {
                        block: rep.victim_key,
                        epoch,
                        owner_flush: rep.dirty_owner == Some(c),
                    },
                },
            );
        });
        self.clusters[home].rac.start_replacement(rep.victim_key, n);
        self.clusters[home]
            .ser
            .mark_busy(rep.victim_key, BusyReason::AwaitFlushAcks);
    }

    /// Converts a displaced entry into replacement work (targets exclude
    /// the home cluster, whose copies are bus-tracked).
    fn replacement_work(&self, home: usize, victim_block: u64, victim: &scd_core::DirEntry) -> ReplacementWork {
        let mut targets = victim.sharer_superset();
        targets.remove(home as NodeId);
        ReplacementWork {
            victim_key: victim_block,
            targets,
            dirty_owner: victim.is_dirty().then(|| victim.owner()).flatten().map(|n| n as usize),
        }
    }

    /// Registers `node` as a sharer at the home, translating the store's
    /// organization-specific outcome (NB eviction, overflow displacement)
    /// into protocol actions. Returns the NB-eviction target, if any.
    fn register_sharer(
        &mut self,
        t: Cycle,
        home: usize,
        block: u64,
        node: usize,
    ) -> Option<usize> {
        let key = self.dir_key(block);
        let clusters = self.cfg.clusters as u64;
        let outcome = {
            let node_ref = &mut self.clusters[home];
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
                let rep = self.replacement_work(home, victim_block, &victim);
                self.dispatch_replacement(t, home, rep);
                None
            }
        }
    }

    /// All directory-entry mutation for one request, returning plain data.
    fn dir_decide(
        &mut self,
        t: Cycle,
        home: usize,
        requester: usize,
        block: u64,
        is_write: bool,
    ) -> (DirAction, Option<ReplacementWork>) {
        let key = self.dir_key(block);
        let clusters = self.cfg.clusters as u64;
        let patterns_on = self.telemetry.config().patterns;
        let node = &mut self.clusters[home];
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
                let mut targets = victim.sharer_superset();
                targets.remove(home as NodeId);
                replacement = Some(ReplacementWork {
                    victim_key: victim_key * clusters + home as u64,
                    targets,
                    dirty_owner: victim
                        .is_dirty()
                        .then(|| victim.owner())
                        .flatten()
                        .map(|n| n as usize),
                });
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
                    let mut targets = entry.invalidation_targets(requester as NodeId);
                    targets.remove(home as NodeId);
                    if patterns_on {
                        fanout_sample = Some(telemetry::FanoutSample {
                            precise: entry.is_precise(),
                            kind: entry.repr_kind(),
                            regions: entry.coarse_regions_set(),
                            targets: targets.clone(),
                        });
                    }
                    if requester == home {
                        // The home cluster's ownership is tracked by its bus
                        // snoop, not the directory.
                        entry.clear();
                    } else {
                        entry.make_dirty(requester as NodeId);
                    }
                    DirAction::Grant {
                        inval_targets: targets,
                    }
                } else {
                    // The sharer is recorded below, once the entry borrow
                    // ends (the organization may promote/displace).
                    DirAction::Supply { nb_evict: None }
                }
            }
        };
        let action = if let DirAction::Supply { .. } = action {
            let nb_evict = if requester != home {
                self.register_sharer(t, home, block, requester)
            } else {
                None
            };
            DirAction::Supply { nb_evict }
        } else {
            action
        };
        // Release only after any sharer registration (the entry may have
        // been empty until the new sharer was recorded).
        self.clusters[home].dir.release_if_empty(key);
        if let Some(sample) = fanout_sample {
            self.telemetry.fanout(&self.clusters, block, &sample);
        }
        (action, replacement)
    }

    /// Schedules the next replay of a parked request, if any. Replays run
    /// as real events `dir_lookup` apart, so the directory's state
    /// mutations and message emissions stay in timestamp order (a burst of
    /// parked readers, e.g. LU's pivot column, also cannot complete in
    /// zero home time).
    pub(crate) fn drain(&mut self, t: Cycle, home: usize, block: u64) {
        if !self.clusters[home].ser.is_busy(block)
            && self.clusters[home].ser.pending_len(block) > 0
        {
            self.sched(home, t + self.cfg.timing.dir_lookup, Ev::Replay { home, block });
        }
    }

    // ------------------------------------------------------------------
    // Owner-side protocol
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_forward(
        &mut self,
        t: Cycle,
        owner: usize,
        home: usize,
        block: u64,
        requester: usize,
        is_write: bool,
        version: u64,
        addressed_epoch: u64,
    ) {
        let tm = self.cfg.timing;
        let write_mshr =
            self.clusters[owner].rac.mshr_kind(block) == Some(MshrKind::Write);
        let my_epoch = self.clusters[owner]
            .last_owner_epoch
            .get(&block)
            .copied()
            .unwrap_or(0);
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
            self.clusters[owner]
                .rac
                .defer_forward(block, requester, is_write, version);
        } else if self.clusters[owner].caches.holds(block) {
            // The forward addresses the epoch we completed and we still
            // hold the data (possibly downgraded): supply it directly —
            // even if a *new* request of ours is queued at the home behind
            // this very forward (servicing is what unblocks that queue).
            self.service_forward(t, owner, home, block, requester, is_write, version);
        } else {
            // No copy, no pending grant: the record is a previous ownership
            // epoch whose eviction writeback is in flight.
            debug_assert!(
                self.clusters[owner].rac.writeback_in_flight(block) || !write_mshr,
                "race branch without a writeback in flight"
            );
            // The block was evicted; its writeback is in flight to the home.
            self.send(
                t + tm.l2_hit,
                Msg {
                    src: owner,
                    dst: home,
                    kind: MsgKind::WritebackRace {
                        block,
                        requester,
                        was_write: is_write,
                    },
                },
            );
        }
    }

    /// The owner-side service of a forwarded request, used both when the
    /// forward finds the copy resident and when it was deferred behind the
    /// owner's own completing write.
    #[allow(clippy::too_many_arguments)]
    fn service_forward(
        &mut self,
        t: Cycle,
        owner: usize,
        home: usize,
        block: u64,
        requester: usize,
        is_write: bool,
        version: u64,
    ) {
        let tm = self.cfg.timing;
        if is_write {
            self.clusters[owner].caches.invalidate_all(block);
            self.send(
                t + tm.l2_hit,
                Msg {
                    src: owner,
                    dst: requester,
                    kind: MsgKind::TransferReply { block, version },
                },
            );
            self.send(
                t + tm.l2_hit,
                Msg {
                    src: owner,
                    dst: home,
                    kind: MsgKind::OwnershipTransfer {
                        block,
                        new_owner: requester,
                    },
                },
            );
        } else {
            self.clusters[owner].caches.downgrade_all(block);
            let v = if self.cfg.track_versions {
                self.clusters[owner]
                    .line_version
                    .get(&block)
                    .copied()
                    .unwrap_or(0)
            } else {
                0
            };
            self.send(
                t + tm.l2_hit,
                Msg {
                    src: owner,
                    dst: requester,
                    kind: MsgKind::ReadReply { block, version: v },
                },
            );
            let epoch = self.clusters[owner]
                .last_owner_epoch
                .get(&block)
                .copied()
                .unwrap_or(0);
            self.send(
                t + tm.l2_hit,
                Msg {
                    src: owner,
                    dst: home,
                    kind: MsgKind::SharingWriteback {
                        block,
                        requester,
                        epoch,
                    },
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Transaction-closing messages at the home
    // ------------------------------------------------------------------

    fn on_sharing_writeback(
        &mut self,
        t: Cycle,
        home: usize,
        owner: usize,
        block: u64,
        requester: usize,
        epoch: u64,
    ) {
        // A forwarded-read close carries the *requester* the owner replied
        // to; an unsolicited downgrade (intra-cluster dirty sharing) names
        // the owner itself. The distinction matters: an unsolicited SWB can
        // arrive while a forward to the same owner is still in flight, and
        // must not steal that transaction's close.
        let closing = self.clusters[home].ser.reason(block) == Some(BusyReason::AwaitClose)
            && requester != owner;
        let key = self.dir_key(block);
        let node = &mut self.clusters[home];
        if closing {
            node.pending_write_bump.reset(key);
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
            node.dir
                .lookup_mut(key, t)
                .expect("busy entries are pinned")
                .clear();
            let mut evicted: Vec<usize> = Vec::new();
            for &sh in &sharers {
                if let Some(v) = self.register_sharer(t, home, block, sh as usize) {
                    evicted.push(v);
                }
            }
            self.clusters[home].dir.release_if_empty(key);
            self.clusters[home].ser.close(block);
            let epoch = self.memory_version(home, block);
            for v in evicted {
                self.counters.nb_evictions += 1;
                self.inval_hist.record(1);
                self.telemetry.inval(t, home, block, 1, "swb_evict");
                self.send(
                    t + self.cfg.timing.bus_memory,
                    Msg {
                        src: home,
                        dst: v,
                        kind: MsgKind::DirFlush { block, epoch, owner_flush: false },
                    },
                );
            }
            self.drain(t, home, block);
        } else {
            // Unsolicited downgrade (intra-cluster dirty sharing): apply it
            // only if the directory still records the *same epoch* of the
            // sender's ownership — the sender may have been re-granted
            // ownership (a newer epoch) while this notification was in
            // flight, in which case it is stale. The recorded owner's
            // epoch is `cur_version`, minus one while a FwdWrite's bump is
            // pending.
            let cur = node.cur_version.value(key);
            let recorded_epoch = cur - u64::from(node.pending_write_bump.value(key));
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
                    self.drain(t, home, block);
                }
            } else if node.ser.is_busy(block) && epoch == cur {
                // The notification outran the transfer that will record
                // `owner` as the owner: remember the downgrade so the
                // transfer (or a self-owned park) can account for it.
                node.ser.record_early(block, owner, epoch, EarlyKind::Downgrade);
            }
        }
    }

    fn on_ownership_transfer(&mut self, t: Cycle, home: usize, block: u64, new_owner: usize) {
        assert_eq!(
            self.clusters[home].ser.reason(block),
            Some(BusyReason::AwaitClose),
            "ownership transfer must close a forwarded write"
        );
        let key = self.dir_key(block);
        let node = &mut self.clusters[home];
        node.pending_write_bump.reset(key);
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
        self.drain(t, home, block);
    }

    fn on_writeback(&mut self, t: Cycle, home: usize, owner: usize, block: u64) {
        let key = self.dir_key(block);
        let node = &mut self.clusters[home];
        if let Some(entry) = node.dir.lookup_mut(key, t) {
            if entry.is_dirty() && entry.owner() == Some(owner as NodeId) {
                entry.clear();
            }
        }
        let epoch = node.cur_version.value(key);
        node.dir.release_if_empty(key);
        if node.ser.on_writeback(block, owner, epoch) {
            self.drain(t, home, block);
        }
    }

    // ------------------------------------------------------------------
    // Requester-side completion
    // ------------------------------------------------------------------

    pub(crate) fn complete_read(&mut self, t: Cycle, cl: usize, block: u64, mshr: scd_protocol::Mshr) {
        self.telemetry.txn_end(t, cl, block);
        let tm = self.cfg.timing;
        for &(lp, kind) in &mshr.waiters {
            if kind == MshrKind::Read {
                if !mshr.poisoned {
                    self.fill(t, cl, lp, block, LineState::Shared);
                }
                self.observe(cl, block);
                let g = self.global_proc(cl, lp);
                self.oracle_read(g, block);
                self.resume(t + tm.l1_hit, g);
            } else {
                // Write waiter merged behind a read: reissue for ownership.
                let g = self.global_proc(cl, lp);
                self.retry(t + tm.l1_hit, g);
            }
        }
        self.finish_flush_if_deferred(t, cl, block, mshr.flush_pending);
    }

    pub(crate) fn complete_write(&mut self, t: Cycle, cl: usize, block: u64, mshr: scd_protocol::Mshr) {
        self.telemetry.txn_end(t, cl, block);
        let tm = self.cfg.timing;
        let (writer, _) = *mshr
            .waiters
            .first()
            .expect("write MSHR has its initiating processor");
        // Stale local shared copies vanish over the bus.
        self.clusters[cl].caches.invalidate_others(writer, block);
        self.fill(t, cl, writer, block, LineState::Dirty);
        self.clusters[cl]
            .last_owner_epoch
            .insert(block, mshr.version);
        self.set_line_version(cl, block, mshr.version);
        self.observe(cl, block);
        let g = self.global_proc(cl, writer);
        self.oracle_write(g, block, mshr.version);
        self.resume(t + tm.l1_hit, g);
        for &(lp, _) in &mshr.waiters[1..] {
            // Peers re-execute; they will hit the fresh copy over the bus.
            let g = self.global_proc(cl, lp);
            self.retry(t + tm.bus_memory, g);
        }
        if let Some((requester, is_write, version)) = mshr.deferred_forward {
            let home = self.cfg.home_of(block);
            self.service_forward(t, cl, home, block, requester, is_write, version);
        }
        self.finish_flush_if_deferred(t, cl, block, mshr.flush_pending);
        // A home-cluster write holds its block busy from grant to fill.
        let home = self.cfg.home_of(block);
        if home == cl
            && self.clusters[home].ser.reason(block) == Some(BusyReason::AwaitHomeWrite)
        {
            self.clusters[home].ser.close(block);
            self.drain(t, home, block);
        }
    }

    fn finish_flush_if_deferred(&mut self, t: Cycle, cl: usize, block: u64, pending: bool) {
        if pending {
            // A DirFlush crossed our transaction: honour it now.
            self.clusters[cl].caches.invalidate_all(block);
            let home = self.cfg.home_of(block);
            self.send(
                t + 1,
                Msg {
                    src: cl,
                    dst: home,
                    kind: MsgKind::DirFlushAck { block },
                },
            );
        }
    }
}
