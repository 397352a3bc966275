//! Per-block transaction serialization at the home cluster.
//!
//! A memory-based directory can process most transactions atomically, but
//! two flows leave a block in flight:
//!
//! 1. **Forwarded transactions**: the home forwarded a read/write to the
//!    dirty owner and must not touch the entry until the owner's closing
//!    message (`SharingWriteback` / `OwnershipTransfer`) lands.
//! 2. **Sparse replacements**: a victim entry's copies are being flushed;
//!    requests for the victim block must wait until every flush ack is in.
//!
//! Real DASH NAKs conflicting requests and lets requesters retry. The
//! simulator instead queues them at the home and replays them in arrival
//! order when the block closes — simpler, deadlock-free, and identical in
//! message count on the non-conflicting (overwhelmingly common) paths.
//!
//! A third, subtler case is the **writeback race**: the home forwards to an
//! owner that has just evicted the block (its `Writeback` is still in
//! flight). The owner answers `WritebackRace`; the home re-queues the
//! original request and waits for the writeback to land. The race message
//! and the writeback can arrive in either order, which is why
//! [`HomeSerializer::on_writeback`] may need to remember an "early"
//! writeback.

use std::collections::VecDeque;

use scd_core::FastMap;

use crate::msg::{Block, Cluster};

/// Why a block is busy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BusyReason {
    /// A forwarded transaction awaits its closing message.
    AwaitClose,
    /// A writeback race was reported; awaiting the in-flight writeback
    /// from this specific ex-owner.
    AwaitWriteback(Cluster),
    /// A sparse replacement awaits its flush acks.
    AwaitFlushAcks,
    /// The home cluster's own processor was granted ownership; the entry is
    /// cleared (home copies are bus-tracked) but the write has not yet
    /// completed, so other requests must wait for the home's fill.
    AwaitHomeWrite,
}

/// What a cluster did to its copy while the block's transaction was still
/// in flight (the corresponding protocol message arrived "early", before
/// the message that would make it applicable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EarlyKind {
    /// The cluster evicted its dirty copy (writeback): the epoch ends with
    /// the block uncached.
    Writeback,
    /// The cluster downgraded its dirty copy (unsolicited sharing
    /// writeback): the epoch ends with the cluster holding a clean copy.
    Downgrade,
}

/// A request parked at the home.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueuedReq {
    /// The requesting cluster.
    pub requester: Cluster,
    /// The block the request targets. Usually the block it is queued
    /// behind, but a request stalled on a fully pinned sparse set parks
    /// behind a *different* (pinned) block.
    pub block: Block,
    /// True for ownership (write) requests.
    pub is_write: bool,
}

/// The home-side serialization state.
#[derive(Debug, Default)]
pub struct HomeSerializer {
    busy: FastMap<Block, BusyReason>,
    pending: FastMap<Block, VecDeque<QueuedReq>>,
    /// Epoch-ending events (writebacks / unsolicited downgrades) that
    /// arrived while their block was in flight — the matching race /
    /// transfer / request is still on the wire. Keyed by the ownership
    /// epoch they end, so a record can never be consumed by a later
    /// transaction of the same cluster.
    early: FastMap<Block, Vec<(Cluster, u64, EarlyKind)>>,
    /// High-water mark of queued requests (ablation metric).
    max_queue_depth: usize,
    /// Total requests ever queued (ablation metric).
    total_queued: u64,
}

scd_core::clone_fields!(HomeSerializer { busy, pending, early, max_queue_depth, total_queued });

impl HomeSerializer {
    /// An idle serializer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `block` has an in-flight transaction.
    pub fn is_busy(&self, block: Block) -> bool {
        self.busy.contains_key(&block)
    }

    /// The busy reason, if any.
    pub fn reason(&self, block: Block) -> Option<BusyReason> {
        self.busy.get(&block).copied()
    }

    /// Marks `block` busy.
    ///
    /// # Panics
    /// If already busy — each block has at most one transaction in flight.
    pub fn mark_busy(&mut self, block: Block, reason: BusyReason) {
        let prev = self.busy.insert(block, reason);
        assert!(prev.is_none(), "block {block} already busy ({prev:?})");
    }

    /// Parks a request behind `block`'s in-flight transaction.
    pub fn queue(&mut self, block: Block, req: QueuedReq) {
        let q = self.pending.entry(block).or_default();
        q.push_back(req);
        self.total_queued += 1;
        self.max_queue_depth = self.max_queue_depth.max(q.len());
    }

    /// Closes the in-flight transaction (transaction's closing message or
    /// final flush ack arrived). Queued requests become poppable.
    ///
    /// # Panics
    /// If the block was not busy.
    pub fn close(&mut self, block: Block) {
        let prev = self.busy.remove(&block);
        assert!(prev.is_some(), "closing idle block {block}");
    }

    /// Pops the next replayable request for `block`, if it is not busy.
    ///
    /// The machine processes popped requests one at a time; a request that
    /// re-marks the block busy stops the drain automatically.
    pub fn pop_ready(&mut self, block: Block) -> Option<QueuedReq> {
        if self.is_busy(block) {
            return None;
        }
        let q = self.pending.get_mut(&block)?;
        let req = q.pop_front();
        if q.is_empty() {
            self.pending.remove(&block);
        }
        req
    }

    /// Handles a `WritebackRace` report: re-queues the raced request at the
    /// *front* (it was logically first) and waits for the writeback —
    /// unless the writeback already arrived, in which case the block closes
    /// immediately.
    pub fn on_race(&mut self, block: Block, ex_owner: Cluster, epoch: u64, req: QueuedReq) {
        assert_eq!(
            self.reason(block),
            Some(BusyReason::AwaitClose),
            "race report for block {block} in unexpected state"
        );
        let q = self.pending.entry(block).or_default();
        q.push_front(req);
        self.total_queued += 1;
        self.max_queue_depth = self.max_queue_depth.max(q.len());
        if self.take_early(block, ex_owner, epoch).is_some() {
            self.close(block);
        } else {
            self.busy.insert(block, BusyReason::AwaitWriteback(ex_owner));
        }
    }

    /// Records an early event from `cluster` ending its ownership `epoch`.
    pub fn record_early(&mut self, block: Block, cluster: Cluster, epoch: u64, kind: EarlyKind) {
        self.early
            .entry(block)
            .or_default()
            .push((cluster, epoch, kind));
    }

    /// Consumes `cluster`'s early event for exactly `epoch`, if recorded.
    pub fn take_early(&mut self, block: Block, cluster: Cluster, epoch: u64) -> Option<EarlyKind> {
        if let Some(v) = self.early.get_mut(&block) {
            if let Some(pos) = v
                .iter()
                .position(|&(c, e, _)| c == cluster && e == epoch)
            {
                let (_, _, kind) = v.remove(pos);
                if v.is_empty() {
                    self.early.remove(&block);
                }
                return Some(kind);
            }
        }
        None
    }

    /// Parks a request whose *own cluster* is the recorded dirty owner: its
    /// writeback is in flight (the only way a cluster can request a block
    /// the directory says it owns), so the request waits for it directly —
    /// no forward needs to bounce.
    pub fn park_for_writeback(&mut self, block: Block, ex_owner: Cluster, req: QueuedReq) {
        assert!(
            !self.is_busy(block),
            "park_for_writeback on an already busy block"
        );
        self.busy.insert(block, BusyReason::AwaitWriteback(ex_owner));
        let q = self.pending.entry(block).or_default();
        q.push_front(req);
        self.total_queued += 1;
        self.max_queue_depth = self.max_queue_depth.max(q.len());
    }

    /// Handles an arriving writeback. Returns `true` if the block is now
    /// open (the caller should drain with [`Self::pop_ready`]).
    pub fn on_writeback(&mut self, block: Block, src: Cluster, epoch: u64) -> bool {
        match self.reason(block) {
            None => true,
            Some(BusyReason::AwaitWriteback(owner)) => {
                if owner == src {
                    self.close(block);
                    true
                } else {
                    // A different cluster's (stale-epoch) writeback; the
                    // one we are waiting for is still in flight.
                    self.record_early(block, src, epoch, EarlyKind::Writeback);
                    false
                }
            }
            Some(BusyReason::AwaitClose) => {
                // The in-flight transaction's closing message may record
                // this very cluster as the new owner (or its forward may
                // bounce): remember the writeback so either resolution can
                // consume it.
                self.record_early(block, src, epoch, EarlyKind::Writeback);
                false
            }
            Some(BusyReason::AwaitFlushAcks) => {
                // A flush target's dirty copy came back as an ordinary
                // writeback; the flush-ack accounting still governs.
                false
            }
            Some(BusyReason::AwaitHomeWrite) => {
                // A stale writeback cannot close the home's own pending
                // write; completion does.
                false
            }
        }
    }

    /// (max queue depth, total queued) — reported by the pending-queue
    /// ablation bench.
    pub fn queue_metrics(&self) -> (usize, u64) {
        (self.max_queue_depth, self.total_queued)
    }

    /// Number of currently busy blocks.
    pub fn busy_blocks(&self) -> usize {
        self.busy.len()
    }

    /// Number of requests parked behind `block`.
    pub fn pending_len(&self, block: Block) -> usize {
        self.pending.get(&block).map_or(0, |q| q.len())
    }

    /// Snapshot of busy blocks and queue depths, in block order (deadlock
    /// diagnostics: the same stuck machine must render the same text).
    pub fn debug_state(&self) -> Vec<(Block, BusyReason, usize)> {
        let mut state: Vec<(Block, BusyReason, usize)> = self
            .busy
            .iter()
            .map(|(&b, &r)| (b, r, self.pending_len(b)))
            .collect();
        state.sort_unstable_by_key(|&(b, _, _)| b);
        state
    }

    /// Hashes the serializer's protocol-visible state into `h` for
    /// model-checking state digests, each table folded by
    /// [`scd_core::hash_unordered`] (blocks without a queue or an early
    /// record left out). Queue *order* within a block is preserved — it
    /// determines the next grant — while the `max_queue_depth` /
    /// `total_queued` ablation metrics are deliberately excluded (they
    /// differ between paths that reach the same protocol state and would
    /// defeat state deduplication).
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        use scd_core::hash_unordered;
        use std::hash::Hash;
        hash_unordered(h, &self.busy);
        hash_unordered(h, self.pending.iter().filter(|(_, q)| !q.is_empty()));
        0xa2u8.hash(h); // section separator
        hash_unordered(h, self.early.iter().filter(|(_, v)| !v.is_empty()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: QueuedReq = QueuedReq {
        requester: 3,
        block: 1,
        is_write: false,
    };
    const W: QueuedReq = QueuedReq {
        requester: 5,
        block: 1,
        is_write: true,
    };

    #[test]
    fn queue_and_drain_in_order() {
        let mut s = HomeSerializer::new();
        s.mark_busy(1, BusyReason::AwaitClose);
        s.queue(1, R);
        s.queue(1, W);
        assert_eq!(s.pop_ready(1), None, "busy blocks do not drain");
        s.close(1);
        assert_eq!(s.pop_ready(1), Some(R));
        assert_eq!(s.pop_ready(1), Some(W));
        assert_eq!(s.pop_ready(1), None);
    }

    #[test]
    fn race_then_writeback() {
        let mut s = HomeSerializer::new();
        s.mark_busy(2, BusyReason::AwaitClose);
        s.on_race(2, 7, 1, W);
        assert_eq!(s.reason(2), Some(BusyReason::AwaitWriteback(7)));
        assert!(s.on_writeback(2, 7, 1));
        assert_eq!(s.pop_ready(2), Some(W), "raced request replays first");
    }

    #[test]
    fn writeback_then_race() {
        let mut s = HomeSerializer::new();
        s.mark_busy(2, BusyReason::AwaitClose);
        assert!(!s.on_writeback(2, 7, 1), "early writeback parks");
        assert!(s.is_busy(2));
        s.on_race(2, 7, 1, W);
        assert!(!s.is_busy(2), "race resolves against the early writeback");
        assert_eq!(s.pop_ready(2), Some(W));
    }

    #[test]
    fn raced_request_goes_ahead_of_queued_ones() {
        let mut s = HomeSerializer::new();
        s.mark_busy(9, BusyReason::AwaitClose);
        s.queue(9, R);
        s.on_race(9, 7, 1, W);
        assert!(s.on_writeback(9, 7, 1));
        assert_eq!(s.pop_ready(9), Some(W));
        assert_eq!(s.pop_ready(9), Some(R));
    }

    #[test]
    fn writeback_to_idle_block_is_open() {
        let mut s = HomeSerializer::new();
        assert!(s.on_writeback(7, 3, 1));
    }

    #[test]
    fn flush_acks_ignore_stray_writebacks() {
        let mut s = HomeSerializer::new();
        s.mark_busy(4, BusyReason::AwaitFlushAcks);
        assert!(!s.on_writeback(4, 3, 1));
        assert!(s.is_busy(4));
    }

    #[test]
    fn metrics_track_depth() {
        let mut s = HomeSerializer::new();
        s.mark_busy(1, BusyReason::AwaitClose);
        s.queue(1, R);
        s.queue(1, W);
        s.queue(1, R);
        let (depth, total) = s.queue_metrics();
        assert_eq!(depth, 3);
        assert_eq!(total, 3);
    }

    #[test]
    fn debug_state_is_in_block_order_however_blocks_became_busy() {
        let blocks = [97u64, 1, 33, 65, 2];
        let mut forward = HomeSerializer::new();
        let mut backward = HomeSerializer::new();
        for &b in &blocks {
            forward.mark_busy(b, BusyReason::AwaitClose);
        }
        for &b in blocks.iter().rev() {
            backward.mark_busy(b, BusyReason::AwaitClose);
        }
        forward.queue(33, R);
        backward.queue(33, R);
        assert_eq!(forward.debug_state(), backward.debug_state());
        let order: Vec<Block> = forward.debug_state().iter().map(|s| s.0).collect();
        assert_eq!(order, vec![1, 2, 33, 65, 97]);
        assert_eq!(forward.debug_state()[2].2, 1, "queue depth rides along");
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_busy_panics() {
        let mut s = HomeSerializer::new();
        s.mark_busy(1, BusyReason::AwaitClose);
        s.mark_busy(1, BusyReason::AwaitClose);
    }
}
