//! Protocol messages and their vocabulary: each kind's label and classes.

use scd_stats::{AttribClass, MessageClass};

/// A block number (byte address / block size).
pub type Block = u64;
/// A cluster index.
pub type Cluster = usize;

/// The protocol message vocabulary.
///
/// Field conventions: `requester` is the cluster whose processor started the
/// transaction (acknowledgements are sent to it, per §2: "invalidation
/// acknowledgement messages are sent to the local cluster").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    // ----- cache -> home requests -----
    /// Read miss: local cluster asks the home for a shared copy.
    ReadReq {
        /// The missing block.
        block: Block,
    },
    /// Write miss or upgrade: local cluster asks the home for ownership.
    WriteReq {
        /// The block to own.
        block: Block,
    },
    /// Dirty eviction: the owning cluster returns the block to memory.
    Writeback {
        /// The evicted block.
        block: Block,
    },
    /// Optional replacement hint: a cluster silently dropped a *clean*
    /// copy; the directory may un-record it (precise representations
    /// only). Purely advisory — losing or ignoring it costs nothing but
    /// precision.
    ReplacementHint {
        /// The evicted block.
        block: Block,
    },

    // ----- home -> owner forwards -----
    /// Home forwards a read to the dirty owner.
    FwdRead {
        /// The requested block.
        block: Block,
        /// Cluster to send the data reply to.
        requester: Cluster,
        /// Ownership-epoch version the directory believes the owner holds
        /// (lets the owner distinguish a forward for its *completed* epoch
        /// from one for a still-pending grant whose reply is in flight).
        epoch: u64,
    },
    /// Home forwards a write to the dirty owner (ownership transfer).
    FwdWrite {
        /// The requested block.
        block: Block,
        /// Cluster that becomes the new owner.
        requester: Cluster,
        /// Home-assigned version of the new ownership epoch (oracle).
        version: u64,
    },

    // ----- owner -> home transaction closers -----
    /// Owner downgraded to shared and returns the dirty data to memory;
    /// the home directory becomes Shared{owner, requester}.
    SharingWriteback {
        /// The block.
        block: Block,
        /// The read requester the owner also replied to (equals the owner
        /// itself for an unsolicited intra-cluster downgrade).
        requester: Cluster,
        /// The ownership epoch being downgraded — an unsolicited
        /// notification for an older epoch than the directory's current one
        /// is stale and must be ignored.
        epoch: u64,
    },
    /// Owner invalidated its copy and passed ownership to `new_owner`.
    OwnershipTransfer {
        /// The block.
        block: Block,
        /// The cluster that now owns the block dirty.
        new_owner: Cluster,
    },
    /// Owner no longer had the block when a forward arrived (its writeback
    /// is in flight): home must requeue the forwarded transaction until the
    /// writeback lands. `was_write` reconstructs the original request.
    WritebackRace {
        /// The block.
        block: Block,
        /// Original requester to requeue.
        requester: Cluster,
        /// Whether the requeued transaction is a write.
        was_write: bool,
    },

    // ----- replies -----
    /// Data reply for a read (from home memory or the previous owner).
    ReadReply {
        /// The block.
        block: Block,
        /// Version of the data carried (read by `scd-machine`'s version
        /// oracle).
        version: u64,
    },
    /// Ownership (and data) reply for a write, carrying the number of
    /// invalidation acknowledgements the requester must collect.
    WriteReply {
        /// The block.
        block: Block,
        /// Invalidations sent on the requester's behalf.
        inval_count: u32,
        /// Version the write will create (read by the version oracle).
        version: u64,
    },
    /// Ownership+data reply sent by a previous owner after [`MsgKind::FwdWrite`].
    TransferReply {
        /// The block.
        block: Block,
        /// Version the write will create (read by the version oracle).
        version: u64,
    },
    /// The home refused to service a request this time (transient: the
    /// directory was busy, or a fault plan injected the refusal). The
    /// requester must retry; nothing about the block's state changed. DASH
    /// NAKs travel on the reply network (§7: the RAC absorbs them).
    Nack {
        /// The refused block.
        block: Block,
        /// Whether the refused request was a write — the requester matches
        /// this against its outstanding MSHR to discard stale NACKs.
        was_write: bool,
    },

    // ----- invalidations -----
    /// Home tells a cluster to drop its copy; the ack goes to `requester`.
    Inval {
        /// The block.
        block: Block,
        /// Cluster collecting the acknowledgements.
        requester: Cluster,
    },
    /// A cluster dropped its copy.
    InvalAck {
        /// The block.
        block: Block,
    },
    /// Sparse-directory replacement: home tells a cluster to drop its copy
    /// of a block whose directory entry is being reclaimed; the ack returns
    /// to the home itself (§7: the RAC tracks these). Also used for
    /// `Dir_i NB` pointer evictions and serial invalidation chains.
    DirFlush {
        /// The block losing its entry.
        block: Block,
        /// Ownership epoch as of the flush decision: a cluster that has
        /// since completed a *newer* epoch ignores the (stale) flush.
        epoch: u64,
        /// True when the flushed entry recorded the *destination* as its
        /// dirty owner. If that ownership is still being filled (grant or
        /// transfer in flight), the destination defers the flush until the
        /// write completes — its own request cannot be queued behind this
        /// replacement, because being the recorded owner means the grant
        /// was already processed.
        owner_flush: bool,
    },
    /// Acknowledgement of a [`MsgKind::DirFlush`] (carries data if the copy
    /// was dirty).
    DirFlushAck {
        /// The block.
        block: Block,
    },

    // ----- synchronization -----
    /// Acquire request for a queue lock.
    LockReq {
        /// Lock identifier.
        lock: u32,
    },
    /// The lock is granted to the destination cluster.
    LockGrant {
        /// Lock identifier.
        lock: u32,
        /// Timestamp piggyback (Tardis): the maximum program timestamp
        /// any previous releaser of this lock carried. 0 under protocols
        /// without logical timestamps.
        pts: u64,
    },
    /// Coarse-vector grant-to-region: the destination should retry its
    /// acquire (one region member will win).
    LockRetry {
        /// Lock identifier.
        lock: u32,
    },
    /// Release a held lock.
    UnlockReq {
        /// Lock identifier.
        lock: u32,
        /// Timestamp piggyback (Tardis): the releasing cluster's program
        /// timestamp. 0 under protocols without logical timestamps.
        pts: u64,
    },
    /// A cluster's processor arrived at a barrier.
    BarrierArrive {
        /// Barrier identifier.
        barrier: u32,
        /// Timestamp piggyback (Tardis): the arriving cluster's program
        /// timestamp. 0 under protocols without logical timestamps.
        pts: u64,
    },
    /// All participants arrived; the destination may proceed.
    BarrierRelease {
        /// Barrier identifier.
        barrier: u32,
        /// Timestamp piggyback (Tardis): the maximum program timestamp
        /// over all arrivals. 0 under protocols without logical
        /// timestamps.
        pts: u64,
    },

    // ----- Tardis (timestamp coherence, DESIGN.md §16) -----
    /// Tardis read miss: asks the home for a leased shared copy. Carries
    /// the requester's program timestamp so the home can grant a lease
    /// that is valid at (and beyond) the requester's logical time.
    TardisReadReq {
        /// The missing block.
        block: Block,
        /// Requesting cluster's program timestamp.
        pts: u64,
    },
    /// Tardis write: written through to the home timestamp slice. The
    /// home bumps the block's write timestamp past every outstanding
    /// lease — no sharer list, no invalidation fan-out.
    TardisWriteReq {
        /// The block to write.
        block: Block,
    },
    /// Data + lease reply for a Tardis read.
    TardisReadReply {
        /// The block.
        block: Block,
        /// Write timestamp of the version carried.
        wts: u64,
        /// Lease end: the copy may satisfy reads while `pts <= rts`.
        rts: u64,
        /// Version of the data carried (read by the version oracle).
        version: u64,
    },
    /// Completion reply for a Tardis write-through.
    TardisWriteReply {
        /// The block.
        block: Block,
        /// The new version's write timestamp.
        wts: u64,
        /// Version the write created (read by the version oracle).
        version: u64,
    },
    /// Lease renewal: a resident copy's lease expired; ask the home to
    /// extend it without moving data.
    RenewReq {
        /// The block.
        block: Block,
        /// Write timestamp of the copy held (renewal is only valid if
        /// the home still has this version).
        wts: u64,
        /// Requesting cluster's program timestamp.
        pts: u64,
    },
    /// Renewal outcome. `renewed == false` means the block was rewritten
    /// since the lease was granted; the requester must refetch.
    RenewReply {
        /// The block.
        block: Block,
        /// Whether the lease was extended.
        renewed: bool,
        /// The new lease end (meaningful only when `renewed`).
        rts: u64,
    },

    // ----- DLS (directoryless shared LLC, DESIGN.md §16) -----
    /// Data reply from the home LLC slice for a remote DLS read. The
    /// requester consumes the data without caching it — the next read
    /// goes back to the LLC.
    LlcFill {
        /// The block.
        block: Block,
        /// Version of the data carried (read by the version oracle).
        version: u64,
    },
    /// Completion reply for a remote DLS write absorbed by the home LLC
    /// slice.
    LlcWriteAck {
        /// The block.
        block: Block,
        /// Version the write created (read by the version oracle).
        version: u64,
    },
}

/// What a message kind is, whatever its fields: one row of [`MESSAGES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindInfo {
    /// Stable snake_case name, part of the JSONL trace format — never
    /// reuse or rename.
    pub label: &'static str,
    /// The paper's traffic class (§5; Figures 7–10, 13 and 14 count by it).
    pub class: MessageClass,
    /// The class `scd-trace`'s attribution charges it to.
    pub attrib: AttribClass,
    /// Whether it carries a data block (the wire model's payload).
    pub data: bool,
}

/// Declares [`MESSAGES`], [`message`] and [`MsgKind::ordinal`] from one
/// list of rows, one per variant: a kind's row is its position in the
/// list, and the label look-up is a `match` over exactly these labels.
macro_rules! vocabulary {
    ($($kind:ident: $label:literal, $class:ident, $attrib:ident, $data:literal;)*) => {
        /// The protocol's message vocabulary, indexed by
        /// [`MsgKind::ordinal`]: the one table the machine, the
        /// attribution and the trace readers all read.
        pub const MESSAGES: &[KindInfo] = &[$(KindInfo {
            label: $label,
            class: MessageClass::$class,
            attrib: AttribClass::$attrib,
            data: $data,
        },)*];

        /// The variants without their fields, in row order.
        enum Row { $($kind,)* }

        /// The [`MESSAGES`] row of a label (`None` outside the vocabulary).
        pub fn message(label: &str) -> Option<&'static KindInfo> {
            match label {
                $($label => Some(&MESSAGES[Row::$kind as usize]),)*
                _ => None,
            }
        }

        impl MsgKind {
            /// Dense index of this kind's row in [`MESSAGES`], for per-kind
            /// lookup tables: anything that is a function of the kind alone
            /// can be resolved once per row and indexed here.
            pub fn ordinal(&self) -> usize {
                match self { $(MsgKind::$kind { .. } => Row::$kind as usize,)* }
            }
        }
    };
}

vocabulary! {
    // kind: label, paper class, attribution class, carries a block;
    ReadReq: "read_req", Request, Request, false;
    WriteReq: "write_req", Request, Request, false;
    Writeback: "writeback", Request, Writeback, true;
    ReplacementHint: "replacement_hint", Request, Request, false;
    FwdRead: "fwd_read", Request, Request, false;
    FwdWrite: "fwd_write", Request, Request, false;
    SharingWriteback: "sharing_writeback", Request, Writeback, true;
    OwnershipTransfer: "ownership_transfer", Request, Request, false;
    WritebackRace: "writeback_race", Request, Request, false;
    ReadReply: "read_reply", Reply, Reply, true;
    WriteReply: "write_reply", Reply, Reply, true;
    TransferReply: "transfer_reply", Reply, Reply, true;
    Nack: "nack", Reply, Nack, false;
    Inval: "inval", Invalidation, Invalidation, false;
    InvalAck: "inval_ack", Acknowledgement, Ack, false;
    DirFlush: "dir_flush", Invalidation, SparseFlush, false;
    DirFlushAck: "dir_flush_ack", Acknowledgement, Ack, false;
    LockReq: "lock_req", Request, Sync, false;
    LockGrant: "lock_grant", Reply, Sync, false;
    LockRetry: "lock_retry", Reply, Sync, false;
    UnlockReq: "unlock_req", Request, Sync, false;
    BarrierArrive: "barrier_arrive", Request, Sync, false;
    BarrierRelease: "barrier_release", Reply, Sync, false;
    TardisReadReq: "tardis_read_req", Request, Request, false;
    TardisWriteReq: "tardis_write_req", Request, Request, false;
    TardisReadReply: "tardis_read_reply", Reply, Reply, true;
    TardisWriteReply: "tardis_write_reply", Reply, Reply, true;
    RenewReq: "renew_req", Request, Renewal, false;
    RenewReply: "renew_reply", Reply, Renewal, false;
    LlcFill: "llc_fill", Reply, LlcFill, true;
    LlcWriteAck: "llc_write_ack", Reply, Reply, false;
}

impl MsgKind {
    /// The paper's traffic class of this message.
    pub fn class(&self) -> MessageClass {
        MESSAGES[self.ordinal()].class
    }

    /// Stable snake_case name of this message kind, for trace schemas.
    pub fn label(&self) -> &'static str {
        MESSAGES[self.ordinal()].label
    }

    /// `Some((block, is_write))` for the four requests that open a
    /// coherence transaction at the home, `None` for everything else. These
    /// are the only messages the fault model may NACK, delay or (reads
    /// only) duplicate: the home absorbs them through serializer queueing
    /// and RAC retry, whereas replies, forwards, invalidations and
    /// acknowledgements ride ordering assumptions faults must not break.
    pub fn coherence_request(&self) -> Option<(Block, bool)> {
        match *self {
            MsgKind::ReadReq { block } | MsgKind::TardisReadReq { block, .. } => {
                Some((block, false))
            }
            MsgKind::WriteReq { block } | MsgKind::TardisWriteReq { block } => {
                Some((block, true))
            }
            _ => None,
        }
    }

    /// The block this message concerns, if any.
    pub fn block(&self) -> Option<Block> {
        match *self {
            MsgKind::ReadReq { block }
            | MsgKind::WriteReq { block }
            | MsgKind::Writeback { block }
            | MsgKind::FwdRead { block, .. }
            | MsgKind::FwdWrite { block, .. }
            | MsgKind::SharingWriteback { block, .. }
            | MsgKind::OwnershipTransfer { block, .. }
            | MsgKind::WritebackRace { block, .. }
            | MsgKind::ReplacementHint { block }
            | MsgKind::ReadReply { block, .. }
            | MsgKind::WriteReply { block, .. }
            | MsgKind::TransferReply { block, .. }
            | MsgKind::Nack { block, .. }
            | MsgKind::Inval { block, .. }
            | MsgKind::InvalAck { block }
            | MsgKind::DirFlush { block, .. }
            | MsgKind::DirFlushAck { block }
            | MsgKind::TardisReadReq { block, .. }
            | MsgKind::TardisWriteReq { block }
            | MsgKind::TardisReadReply { block, .. }
            | MsgKind::TardisWriteReply { block, .. }
            | MsgKind::RenewReq { block, .. }
            | MsgKind::RenewReply { block, .. }
            | MsgKind::LlcFill { block, .. }
            | MsgKind::LlcWriteAck { block, .. } => Some(block),
            _ => None,
        }
    }
}

/// A message in flight between two clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Sending cluster.
    pub src: Cluster,
    /// Destination cluster.
    pub dst: Cluster,
    /// Payload.
    pub kind: MsgKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_stats::MessageClass::*;

    #[test]
    fn classes_match_paper_taxonomy() {
        assert_eq!(MsgKind::ReadReq { block: 1 }.class(), Request);
        assert_eq!(MsgKind::Writeback { block: 1 }.class(), Request);
        assert_eq!(
            MsgKind::WriteReply {
                block: 1,
                inval_count: 3,
                version: 0
            }
            .class(),
            Reply
        );
        assert_eq!(
            MsgKind::Inval {
                block: 1,
                requester: 0
            }
            .class(),
            Invalidation
        );
        assert_eq!(MsgKind::InvalAck { block: 1 }.class(), Acknowledgement);
        assert_eq!(
            MsgKind::DirFlush {
                block: 1,
                epoch: 0,
                owner_flush: false
            }
            .class(),
            Invalidation
        );
        assert_eq!(MsgKind::DirFlushAck { block: 1 }.class(), Acknowledgement);
        assert_eq!(MsgKind::LockReq { lock: 0 }.class(), Request);
        assert_eq!(
            MsgKind::BarrierRelease { barrier: 0, pts: 0 }.class(),
            Reply
        );
        assert_eq!(MsgKind::TardisReadReq { block: 1, pts: 0 }.class(), Request);
        assert_eq!(
            MsgKind::RenewReq {
                block: 1,
                wts: 0,
                pts: 0
            }
            .class(),
            Request
        );
        assert_eq!(MsgKind::LlcFill { block: 1, version: 0 }.class(), Reply);
        assert_eq!(
            MsgKind::LlcWriteAck { block: 1, version: 0 }.class(),
            Reply
        );
        assert_eq!(
            MsgKind::Nack {
                block: 1,
                was_write: true
            }
            .class(),
            Reply
        );
        assert_eq!(
            MsgKind::Nack {
                block: 4,
                was_write: false
            }
            .block(),
            Some(4)
        );
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            MsgKind::ReadReq { block: 1 },
            MsgKind::WriteReq { block: 1 },
            MsgKind::Writeback { block: 1 },
            MsgKind::ReplacementHint { block: 1 },
            MsgKind::FwdRead { block: 1, requester: 0, epoch: 0 },
            MsgKind::FwdWrite { block: 1, requester: 0, version: 0 },
            MsgKind::SharingWriteback { block: 1, requester: 0, epoch: 0 },
            MsgKind::OwnershipTransfer { block: 1, new_owner: 0 },
            MsgKind::WritebackRace { block: 1, requester: 0, was_write: false },
            MsgKind::ReadReply { block: 1, version: 0 },
            MsgKind::WriteReply { block: 1, inval_count: 0, version: 0 },
            MsgKind::TransferReply { block: 1, version: 0 },
            MsgKind::Nack { block: 1, was_write: false },
            MsgKind::Inval { block: 1, requester: 0 },
            MsgKind::InvalAck { block: 1 },
            MsgKind::DirFlush { block: 1, epoch: 0, owner_flush: false },
            MsgKind::DirFlushAck { block: 1 },
            MsgKind::LockReq { lock: 0 },
            MsgKind::LockGrant { lock: 0, pts: 0 },
            MsgKind::LockRetry { lock: 0 },
            MsgKind::UnlockReq { lock: 0, pts: 0 },
            MsgKind::BarrierArrive { barrier: 0, pts: 0 },
            MsgKind::BarrierRelease { barrier: 0, pts: 0 },
            MsgKind::TardisReadReq { block: 1, pts: 0 },
            MsgKind::TardisWriteReq { block: 1 },
            MsgKind::TardisReadReply { block: 1, wts: 0, rts: 0, version: 0 },
            MsgKind::TardisWriteReply { block: 1, wts: 0, version: 0 },
            MsgKind::RenewReq { block: 1, wts: 0, pts: 0 },
            MsgKind::RenewReply { block: 1, renewed: false, rts: 0 },
            MsgKind::LlcFill { block: 1, version: 0 },
            MsgKind::LlcWriteAck { block: 1, version: 0 },
        ];
        let labels: std::collections::HashSet<_> =
            kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len(), "labels must be distinct");
        assert_eq!(kinds.len(), MESSAGES.len());
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.ordinal(), i, "{k:?} is listed out of declaration order");
            assert_eq!(message(k.label()), Some(&MESSAGES[i]), "{k:?}'s label finds its row");
        }
        assert_eq!(message("future_req"), None);
        assert_eq!(MsgKind::ReadReq { block: 1 }.label(), "read_req");
        assert_eq!(MsgKind::DirFlushAck { block: 1 }.label(), "dir_flush_ack");
        for k in &kinds {
            let l = k.label();
            assert!(
                l.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "snake_case only: {l}"
            );
        }
    }

    #[test]
    fn coherence_requests_are_the_four_miss_requests() {
        assert_eq!(MsgKind::ReadReq { block: 1 }.coherence_request(), Some((1, false)));
        assert_eq!(
            MsgKind::TardisReadReq { block: 2, pts: 0 }.coherence_request(),
            Some((2, false))
        );
        assert_eq!(MsgKind::WriteReq { block: 3 }.coherence_request(), Some((3, true)));
        assert_eq!(MsgKind::TardisWriteReq { block: 4 }.coherence_request(), Some((4, true)));
        assert_eq!(MsgKind::RenewReq { block: 1, wts: 0, pts: 0 }.coherence_request(), None);
        assert_eq!(MsgKind::Writeback { block: 1 }.coherence_request(), None);
        assert_eq!(MsgKind::ReadReply { block: 1, version: 0 }.coherence_request(), None);
    }

    #[test]
    fn block_extraction() {
        assert_eq!(MsgKind::ReadReq { block: 9 }.block(), Some(9));
        assert_eq!(MsgKind::LockReq { lock: 2 }.block(), None);
        assert_eq!(
            MsgKind::FwdWrite {
                block: 7,
                requester: 3,
                version: 0
            }
            .block(),
            Some(7)
        );
    }
}
