//! The Remote Access Cache (RAC).
//!
//! Each DASH cluster has a RAC that tracks its outstanding remote accesses:
//! which blocks have a request in flight (MSHRs), how many invalidation
//! acknowledgements a pending write still needs, and — on the home side —
//! how many flush acknowledgements a sparse-directory replacement is still
//! owed (§7: "Such an entity must already exist in systems that implement
//! weak consistency ... In DASH, we have the Remote Access Cache").

use scd_core::FastSet;

use crate::msg::Block;

/// What kind of access an MSHR represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MshrKind {
    /// Waiting for a shared copy.
    Read,
    /// Waiting for ownership (and possibly invalidation acks).
    Write,
}

/// Waiters a [`Waiters`] list holds in place before it spills to the heap:
/// a miss usually has one, and merges beyond four are rare.
const INLINE_WAITERS: usize = 4;

/// The `(processor, kind)` list of one MSHR, in arrival order. The first
/// `INLINE_WAITERS` live inside the MSHR, so starting a transaction
/// allocates nothing; it compares, hashes and iterates as its slice.
#[derive(Clone)]
pub enum Waiters {
    /// Up to `INLINE_WAITERS` waiters: the first `len` of the array.
    Inline(u8, [(usize, MshrKind); INLINE_WAITERS]),
    /// More than that, on the heap.
    Spilled(Vec<(usize, MshrKind)>),
}

impl Waiters {
    /// A list holding `first` alone.
    pub fn one(first: (usize, MshrKind)) -> Self {
        let mut items = [(0, MshrKind::Read); INLINE_WAITERS];
        items[0] = first;
        Waiters::Inline(1, items)
    }

    /// Appends `w`, spilling to the heap past `INLINE_WAITERS`.
    pub fn push(&mut self, w: (usize, MshrKind)) {
        match self {
            Waiters::Inline(len, items) if (*len as usize) < INLINE_WAITERS => {
                items[*len as usize] = w;
                *len += 1;
            }
            Waiters::Inline(_, items) => {
                let mut spilled = items.to_vec();
                spilled.push(w);
                *self = Waiters::Spilled(spilled);
            }
            Waiters::Spilled(v) => v.push(w),
        }
    }
}

impl std::ops::Deref for Waiters {
    type Target = [(usize, MshrKind)];

    fn deref(&self) -> &Self::Target {
        match self {
            Waiters::Inline(len, items) => &items[..*len as usize],
            Waiters::Spilled(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Waiters {
    type Item = &'a (usize, MshrKind);
    type IntoIter = std::slice::Iter<'a, (usize, MshrKind)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Waiters {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Waiters {}

impl std::hash::Hash for Waiters {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (**self).hash(h);
    }
}

impl std::fmt::Debug for Waiters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One outstanding transaction of a cluster.
#[derive(Clone, Debug, Hash)]
pub struct Mshr {
    /// Read or write.
    pub kind: MshrKind,
    /// Local processors blocked on this transaction, with the kind of
    /// access each wanted (a processor whose want is stronger than the
    /// MSHR's kind must reissue when the MSHR completes).
    pub waiters: Waiters,
    /// `Some(n)` once the ownership reply told us how many acks to expect.
    pub acks_expected: Option<u32>,
    /// Acks received so far (acks may overtake the ownership reply).
    pub acks_received: u32,
    /// The data/ownership reply has arrived.
    pub reply_received: bool,
    /// A sparse-directory flush arrived while this transaction was in
    /// flight: when the transaction completes, the cluster must drop the
    /// line and send the deferred `DirFlushAck`.
    pub flush_pending: bool,
    /// Version the pending write will create (version oracle; set by the
    /// ownership reply).
    pub version: u64,
    /// An invalidation arrived while this *read* was in flight (possible
    /// when the network reorders cross-channel messages, e.g. under
    /// contention): the reply's data may be consumed by the waiting
    /// processors — the read was serialized before the invalidating write —
    /// but the line must not stay cached.
    pub poisoned: bool,
    /// A forwarded request arrived while this cluster's own *write* for the
    /// block was still collecting acknowledgements (the directory records
    /// the new owner at grant time, before the owner's fill). The owner
    /// services it — `(requester, is_write, version)` — right after
    /// completing (`version` is the home-assigned version of the forwarded
    /// write, 0 for reads).
    pub deferred_forward: Option<(usize, bool, u64)>,
    /// Times this transaction's request has been NACKed and reissued.
    pub retries: u32,
}

impl Mshr {
    fn complete(&self) -> bool {
        match self.kind {
            MshrKind::Read => self.reply_received,
            MshrKind::Write => {
                self.reply_received && self.acks_expected == Some(self.acks_received)
            }
        }
    }
}

/// Outcome of [`Rac::start`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartOutcome {
    /// No transaction was outstanding: the caller must send the request.
    IssueRequest,
    /// Merged into an existing transaction that will satisfy this access.
    Merged,
    /// An existing *read* transaction is in flight but the processor wants
    /// to write: it must wait for completion and then reissue.
    WaitAndReissue,
}

/// Per-cluster transaction bookkeeping.
///
/// The MSHR file and the replacement table are small vectors kept in block
/// order and searched linearly, as the hardware's would be: a cluster has
/// at most one outstanding transaction per local processor, and a home
/// only as many replacements in flight as requests it is servicing.
#[derive(Debug, Default)]
pub struct Rac {
    outstanding: Vec<(Block, Mshr)>,
    /// Home-side: flush acks still owed per replaced block.
    replacements: Vec<(Block, u32)>,
    /// Blocks whose dirty eviction writeback has been sent but whose home
    /// has not yet (observably) processed it. Used to disambiguate a
    /// forward that bounces: flag set => the directory's dirty record is
    /// our *previous* ownership epoch (answer `WritebackRace`); flag clear
    /// but write MSHR present => the record is our in-flight grant (defer
    /// the forward until the write completes). A flag is only cleared by
    /// the cluster's next reply for the block, so this set is as large as
    /// the blocks evicted dirty and not yet touched again — a map of
    /// blocks, not a table bounded by the machine.
    writeback_in_flight: FastSet<Block>,
}

scd_core::clone_fields!(Rac { outstanding, replacements, writeback_in_flight });

/// Position of `block` in a block-ordered table, or where to insert it.
fn slot_of<T>(table: &[(Block, T)], block: Block) -> Result<usize, usize> {
    match table.iter().position(|&(b, _)| b >= block) {
        Some(i) if table[i].0 == block => Ok(i),
        Some(i) => Err(i),
        None => Err(table.len()),
    }
}

impl Rac {
    /// An empty RAC.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of outstanding request MSHRs.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether `block` has a transaction in flight.
    pub fn has_mshr(&self, block: Block) -> bool {
        self.mshr(block).is_some()
    }

    fn mshr(&self, block: Block) -> Option<&Mshr> {
        slot_of(&self.outstanding, block)
            .ok()
            .map(|i| &self.outstanding[i].1)
    }

    fn mshr_mut(&mut self, block: Block) -> Option<&mut Mshr> {
        slot_of(&self.outstanding, block)
            .ok()
            .map(|i| &mut self.outstanding[i].1)
    }

    /// Registers processor `proc`'s `kind` access to `block`.
    pub fn start(&mut self, block: Block, kind: MshrKind, proc: usize) -> StartOutcome {
        match slot_of(&self.outstanding, block) {
            Err(at) => {
                let mshr = Mshr {
                    kind,
                    waiters: Waiters::one((proc, kind)),
                    acks_expected: None,
                    acks_received: 0,
                    reply_received: false,
                    flush_pending: false,
                    version: 0,
                    poisoned: false,
                    deferred_forward: None,
                    retries: 0,
                };
                self.outstanding.insert(at, (block, mshr));
                StartOutcome::IssueRequest
            }
            Ok(i) => {
                let m = &mut self.outstanding[i].1;
                if kind == MshrKind::Write && m.kind == MshrKind::Read {
                    // A shared copy will not satisfy a write; reissue later.
                    m.waiters.push((proc, kind));
                    StartOutcome::WaitAndReissue
                } else {
                    // Read-into-read, read-into-write, write-into-write all
                    // merge: ownership satisfies reads too.
                    m.waiters.push((proc, kind));
                    StartOutcome::Merged
                }
            }
        }
    }

    /// Records a data reply for a read MSHR. Returns the completed MSHR.
    ///
    /// # Panics
    /// If no read MSHR is outstanding for `block` (a stray reply is always a
    /// protocol bug).
    pub fn read_reply(&mut self, block: Block) -> Mshr {
        self.try_read_reply(block).expect("read reply without MSHR")
    }

    /// Records a data reply for a read MSHR, tolerating strays: returns
    /// `None` when no *read* MSHR is outstanding for `block`. Under fault
    /// injection a duplicated read request is serviced twice, so the second
    /// reply finds its MSHR gone (or superseded by a write) and must simply
    /// be discarded.
    pub fn try_read_reply(&mut self, block: Block) -> Option<Mshr> {
        let i = slot_of(&self.outstanding, block).ok()?;
        if self.outstanding[i].1.kind != MshrKind::Read {
            return None;
        }
        // Any reply implies the home processed our request, which followed
        // our writeback on the same channel: the writeback has landed.
        self.writeback_in_flight.remove(&block);
        Some(self.outstanding.remove(i).1)
    }

    /// Records a NACK for `block`'s outstanding request. Returns
    /// `Some(attempt)` — the number of reissues so far, starting at 1 —
    /// when a retry must be sent: the MSHR exists, its kind matches the
    /// NACKed request, and the transaction has seen no service yet (no
    /// reply, no acks). Any other NACK is stale — the transaction it
    /// refused already completed, or a duplicated request bounced — and
    /// must be dropped (`None`), because reissuing a request that was
    /// *also* serviced would corrupt the directory.
    pub fn on_nack(&mut self, block: Block, was_write: bool) -> Option<u32> {
        let m = self.mshr_mut(block)?;
        let kind = if was_write {
            MshrKind::Write
        } else {
            MshrKind::Read
        };
        if m.kind != kind || m.reply_received || m.acks_received > 0 {
            return None;
        }
        m.retries += 1;
        Some(m.retries)
    }

    /// Records the ownership reply (with its ack count) for a write MSHR.
    /// Returns the MSHR if the transaction is now complete.
    pub fn write_reply(&mut self, block: Block, acks: u32, version: u64) -> Option<Mshr> {
        self.writeback_in_flight.remove(&block);
        let m = self.mshr_mut(block).expect("write reply without MSHR");
        assert_eq!(m.kind, MshrKind::Write, "write reply for a read MSHR");
        assert!(m.acks_expected.is_none(), "duplicate write reply");
        m.acks_expected = Some(acks);
        m.reply_received = true;
        m.version = version;
        self.take_if_complete(block)
    }

    /// Records one invalidation ack. Returns the MSHR if now complete.
    pub fn inval_ack(&mut self, block: Block) -> Option<Mshr> {
        let m = self.mshr_mut(block).expect("inval ack without MSHR");
        m.acks_received += 1;
        self.take_if_complete(block)
    }

    fn take_if_complete(&mut self, block: Block) -> Option<Mshr> {
        let i = slot_of(&self.outstanding, block).ok()?;
        self.outstanding[i]
            .1
            .complete()
            .then(|| self.outstanding.remove(i).1)
    }

    // ----- home-side sparse replacement tracking -----

    /// Begins tracking a replacement that expects `acks` flush acks.
    ///
    /// # Panics
    /// If a replacement for `block` is already outstanding (the serializer
    /// keeps the block busy, so this cannot legally happen) or `acks == 0`
    /// (an empty victim needs no flushes).
    pub fn start_replacement(&mut self, block: Block, acks: u32) {
        assert!(acks > 0, "replacement with no sharers needs no tracking");
        match slot_of(&self.replacements, block) {
            Err(at) => self.replacements.insert(at, (block, acks)),
            Ok(_) => panic!("duplicate replacement for block {block}"),
        }
    }

    /// Records one flush ack; returns `true` when the replacement completed.
    pub fn flush_ack(&mut self, block: Block) -> bool {
        let i = slot_of(&self.replacements, block).expect("flush ack without replacement");
        let remaining = &mut self.replacements[i].1;
        *remaining -= 1;
        let done = *remaining == 0;
        if done {
            self.replacements.remove(i);
        }
        done
    }

    /// Whether a replacement is in flight for `block`.
    pub fn replacement_pending(&self, block: Block) -> bool {
        slot_of(&self.replacements, block).is_ok()
    }

    /// Notes that this cluster sent a dirty-eviction writeback for `block`.
    pub fn note_writeback(&mut self, block: Block) {
        self.writeback_in_flight.insert(block);
    }

    /// Whether a dirty-eviction writeback for `block` may still be in
    /// flight to the home.
    pub fn writeback_in_flight(&self, block: Block) -> bool {
        self.writeback_in_flight.contains(&block)
    }

    /// The kind of the outstanding transaction for `block`, if any.
    pub fn mshr_kind(&self, block: Block) -> Option<MshrKind> {
        self.mshr(block).map(|m| m.kind)
    }

    /// Whether `block`'s outstanding transaction has already received its
    /// data/ownership reply (a write still collecting acknowledgements).
    pub fn mshr_reply_received(&self, block: Block) -> bool {
        self.mshr(block).is_some_and(|m| m.reply_received)
    }

    /// Records a forward that must wait for this cluster's own write to
    /// complete (see [`Mshr::deferred_forward`]).
    ///
    /// # Panics
    /// If no write MSHR is outstanding, or a forward is already deferred —
    /// the home serializes transactions per block, so at most one forward
    /// can be in flight.
    pub fn defer_forward(&mut self, block: Block, requester: usize, is_write: bool, version: u64) {
        let m = self
            .mshr_mut(block)
            .unwrap_or_else(|| panic!("defer_forward without MSHR (block {block})"));
        assert_eq!(m.kind, MshrKind::Write, "forwards defer only behind writes");
        assert!(
            m.deferred_forward.is_none(),
            "two forwards deferred behind one write"
        );
        m.deferred_forward = Some((requester, is_write, version));
    }

    /// Poisons an outstanding *read* for `block` (an invalidation crossed
    /// it): returns true if a read MSHR was present and marked.
    pub fn poison_read(&mut self, block: Block) -> bool {
        match self.mshr_mut(block) {
            Some(m) if m.kind == MshrKind::Read => {
                m.poisoned = true;
                true
            }
            _ => false,
        }
    }

    /// Marks `block`'s outstanding transaction as owing a deferred flush
    /// acknowledgement (a `DirFlush` crossed this cluster's own request).
    ///
    /// # Panics
    /// If no transaction is outstanding for `block`.
    pub fn defer_flush(&mut self, block: Block) {
        self.mshr_mut(block)
            .expect("defer_flush without MSHR")
            .flush_pending = true;
    }

    /// Hashes the RAC's observable state into `h` for model-checking state
    /// digests: the two tables in their (block) order, the writeback set
    /// folded by [`scd_core::hash_unordered`]. Covers every field — all of
    /// them steer protocol behavior.
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        use std::hash::Hash;
        for (b, mshr) in &self.outstanding {
            b.hash(h);
            mshr.hash(h);
        }
        0xa1u8.hash(h); // section separator
        self.replacements.hash(h);
        scd_core::hash_unordered(h, &self.writeback_in_flight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_lifecycle() {
        let mut rac = Rac::new();
        assert_eq!(rac.start(5, MshrKind::Read, 0), StartOutcome::IssueRequest);
        assert_eq!(rac.start(5, MshrKind::Read, 1), StartOutcome::Merged);
        assert!(rac.has_mshr(5));
        let m = rac.read_reply(5);
        assert_eq!(*m.waiters, [(0, MshrKind::Read), (1, MshrKind::Read)]);
        assert!(!rac.has_mshr(5));
    }

    #[test]
    fn write_waits_for_reply_and_all_acks() {
        let mut rac = Rac::new();
        rac.start(9, MshrKind::Write, 0);
        assert!(rac.write_reply(9, 2, 0).is_none(), "2 acks still owed");
        assert!(rac.inval_ack(9).is_none());
        let m = rac.inval_ack(9).expect("complete after final ack");
        assert_eq!(m.acks_received, 2);
    }

    #[test]
    fn acks_may_overtake_the_reply() {
        let mut rac = Rac::new();
        rac.start(9, MshrKind::Write, 0);
        assert!(rac.inval_ack(9).is_none());
        assert!(rac.inval_ack(9).is_none());
        let m = rac.write_reply(9, 2, 0).expect("acks already in");
        assert!(m.reply_received);
    }

    #[test]
    fn zero_ack_write_completes_on_reply() {
        let mut rac = Rac::new();
        rac.start(1, MshrKind::Write, 3);
        assert!(rac.write_reply(1, 0, 0).is_some());
    }

    #[test]
    fn write_into_read_must_reissue() {
        let mut rac = Rac::new();
        rac.start(4, MshrKind::Read, 0);
        assert_eq!(
            rac.start(4, MshrKind::Write, 1),
            StartOutcome::WaitAndReissue
        );
        let m = rac.read_reply(4);
        assert_eq!(m.waiters.len(), 2);
        assert_eq!(m.waiters[1], (1, MshrKind::Write));
    }

    #[test]
    fn read_merges_into_write() {
        let mut rac = Rac::new();
        rac.start(4, MshrKind::Write, 0);
        assert_eq!(rac.start(4, MshrKind::Read, 1), StartOutcome::Merged);
        let m = rac.write_reply(4, 0, 0).unwrap();
        assert_eq!(m.waiters.len(), 2);
    }

    #[test]
    fn replacement_tracking() {
        let mut rac = Rac::new();
        rac.start_replacement(7, 3);
        assert!(rac.replacement_pending(7));
        assert!(!rac.flush_ack(7));
        assert!(!rac.flush_ack(7));
        assert!(rac.flush_ack(7));
        assert!(!rac.replacement_pending(7));
    }

    #[test]
    #[should_panic(expected = "duplicate replacement")]
    fn duplicate_replacement_panics() {
        let mut rac = Rac::new();
        rac.start_replacement(7, 1);
        rac.start_replacement(7, 1);
    }

    #[test]
    #[should_panic(expected = "without MSHR")]
    fn stray_reply_panics() {
        let mut rac = Rac::new();
        rac.read_reply(42);
    }

    #[test]
    fn stray_read_reply_is_dropped_tolerantly() {
        let mut rac = Rac::new();
        assert!(rac.try_read_reply(42).is_none(), "no MSHR at all");
        rac.start(42, MshrKind::Write, 0);
        assert!(
            rac.try_read_reply(42).is_none(),
            "a write MSHR must not consume a read reply"
        );
        assert!(rac.has_mshr(42), "the write MSHR survives the stray");
    }

    #[test]
    fn nack_counts_retries_until_service() {
        let mut rac = Rac::new();
        rac.start(7, MshrKind::Write, 0);
        assert_eq!(rac.on_nack(7, true), Some(1));
        assert_eq!(rac.on_nack(7, true), Some(2));
        let m = rac.write_reply(7, 0, 0).expect("completes");
        assert_eq!(m.retries, 2);
    }

    #[test]
    fn stale_nacks_are_dropped() {
        let mut rac = Rac::new();
        // No MSHR at all.
        assert_eq!(rac.on_nack(3, false), None);
        // Kind mismatch: a read NACK must not reissue a write.
        rac.start(3, MshrKind::Write, 0);
        assert_eq!(rac.on_nack(3, false), None);
        // Service already visible (an ack arrived): the request was
        // processed, so the NACK is stale.
        assert!(rac.inval_ack(3).is_none());
        assert_eq!(rac.on_nack(3, true), None);
    }

    /// The tables at their bound: one MSHR per local processor, started
    /// out of block order, beside a replacement and a writeback in flight.
    fn full_rac(start_order: [usize; 4]) -> Rac {
        const BLOCKS: [(Block, MshrKind); 4] = [
            (40, MshrKind::Read),
            (8, MshrKind::Write),
            (24, MshrKind::Read),
            (16, MshrKind::Write),
        ];
        let mut rac = Rac::new();
        for p in start_order {
            let (block, kind) = BLOCKS[p];
            assert_eq!(rac.start(block, kind, p), StartOutcome::IssueRequest);
        }
        rac.start_replacement(32, 2);
        rac.note_writeback(48);
        rac
    }

    #[test]
    fn full_mshr_file_keeps_every_transaction_apart() {
        let mut rac = full_rac([0, 1, 2, 3]);
        assert_eq!(rac.outstanding(), 4);
        // Merging takes no MSHR, whatever sits around the block's slot.
        assert_eq!(rac.start(40, MshrKind::Read, 1), StartOutcome::Merged);
        assert_eq!(
            rac.start(40, MshrKind::Write, 3),
            StartOutcome::WaitAndReissue
        );
        assert_eq!(rac.start(8, MshrKind::Read, 0), StartOutcome::Merged);
        assert_eq!(rac.outstanding(), 4);
        for (block, kind) in [
            (8, MshrKind::Write),
            (16, MshrKind::Write),
            (24, MshrKind::Read),
        ] {
            assert_eq!(rac.mshr_kind(block), Some(kind));
        }
        assert!(!rac.has_mshr(32), "a replacement is not an MSHR");
        assert!(rac.replacement_pending(32) && !rac.replacement_pending(40));
        assert!(rac.writeback_in_flight(48) && !rac.writeback_in_flight(8));

        // Completion order is reply/ack order, not table order, and each
        // completion hands back its own waiters in arrival order.
        assert!(rac.write_reply(16, 1, 7).is_none());
        let read = rac.read_reply(40);
        assert_eq!(
            *read.waiters,
            [
                (0, MshrKind::Read),
                (1, MshrKind::Read),
                (3, MshrKind::Write)
            ]
        );
        let write = rac.write_reply(8, 0, 3).expect("no acks owed");
        assert_eq!(
            *write.waiters,
            [(1, MshrKind::Write), (0, MshrKind::Read)]
        );
        assert_eq!(write.version, 3);
        assert!(
            rac.inval_ack(16).is_some(),
            "the last ack completes block 16"
        );
        assert_eq!(rac.outstanding(), 1);
        assert_eq!(rac.mshr_kind(24), Some(MshrKind::Read));
        assert!(!rac.flush_ack(32));
        assert!(rac.flush_ack(32));
        assert!(
            rac.writeback_in_flight(48),
            "only block 48's own reply clears it"
        );
    }

    #[test]
    fn fingerprint_ignores_the_order_transactions_started_in() {
        use std::hash::Hasher;
        let digest = |rac: &Rac| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            rac.fingerprint(&mut h);
            h.finish()
        };
        let a = full_rac([0, 1, 2, 3]);
        let mut b = full_rac([3, 2, 1, 0]);
        assert_eq!(digest(&a), digest(&b));
        b.read_reply(24);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn waiters_spill_past_the_inline_four_and_hash_as_their_slice() {
        use std::hash::{Hash, Hasher};
        let digest = |x: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        let all: Vec<_> = (0..7)
            .map(|p| (p, if p % 3 == 0 { MshrKind::Write } else { MshrKind::Read }))
            .collect();
        let mut w = Waiters::one(all[0]);
        for (n, &x) in all.iter().enumerate().skip(1) {
            w.push(x);
            assert_eq!(matches!(w, Waiters::Inline(..)), n < INLINE_WAITERS);
            assert_eq!(*w, all[..=n]);
            assert_eq!(digest(&|h| w.hash(h)), digest(&|h| all[..=n].to_vec().hash(h)));
        }
        assert_eq!(format!("{w:?}"), format!("{all:?}"));
    }

    #[test]
    fn nack_after_reply_is_dropped() {
        let mut rac = Rac::new();
        rac.start(4, MshrKind::Write, 0);
        assert!(rac.write_reply(4, 2, 0).is_none(), "acks still owed");
        assert_eq!(rac.on_nack(4, true), None, "reply already in");
    }
}
