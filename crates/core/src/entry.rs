//! Per-block directory entries for each of the five schemes.
//!
//! A [`DirEntry`] records which clusters may cache a memory block, plus a
//! dirty bit. The representation starts precise (bit vector or pointers) and,
//! for the limited-pointer schemes, degrades on *pointer overflow* exactly as
//! the paper describes: `Dir_i B` sets a broadcast bit, `Dir_i NB` evicts an
//! existing sharer, `Dir_i X` collapses to a composite (superset) pointer,
//! and `Dir_i CV_r` reinterprets the pointer storage as a coarse bit vector.
//!
//! The entry itself never sends messages; it reports what the protocol must
//! do (e.g. [`AddSharer::Evict`]) and what the invalidation target superset
//! is. This keeps the schemes testable in isolation — the Figure 2 analysis
//! drives exactly this API.

use crate::node_set::{NodeId, NodeSet};
use crate::scheme::{NbVictim, Scheme};

/// Maximum number of pointers any limited-pointer configuration may use.
///
/// Pointer storage is kept inline (no heap allocation per entry); the paper's
/// largest configuration is `Dir8CV4`, so 16 leaves generous headroom.
pub const MAX_POINTERS: usize = 16;

/// Externally visible state of a directory entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cluster caches the block; the entry is reclaimable.
    Uncached,
    /// One or more clusters hold clean copies.
    Shared,
    /// Exactly one cluster holds an exclusive (modifiable) copy.
    Dirty,
}

/// Which sharer-set representation a [`DirEntry`] currently uses, as a
/// telemetry-facing view of the private internals (the observatory
/// counts overflow modes per scheme without re-deriving them from
/// superset sizes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Precise full bit vector.
    Full,
    /// Precise pointer list.
    Pointers,
    /// `Dir_i B` after overflow.
    Broadcast,
    /// `Dir_i X` after overflow.
    Composite,
    /// `Dir_i CV_r` after overflow.
    Coarse,
}

/// Result of recording a new sharer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddSharer {
    /// The sharer is now covered by the entry (possibly imprecisely).
    Recorded,
    /// `Dir_i NB` pointer overflow: the returned cluster was dropped from the
    /// entry to make room and **the caller must invalidate its cached copy**.
    Evict(NodeId),
}

/// Inline fixed-capacity pointer array (FIFO order preserved for the
/// `Dir_i NB` oldest-victim policy).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Pointers {
    slots: [NodeId; MAX_POINTERS],
    len: u8,
}

impl Pointers {
    fn new() -> Self {
        Pointers {
            slots: [0; MAX_POINTERS],
            len: 0,
        }
    }

    fn as_slice(&self) -> &[NodeId] {
        &self.slots[..self.len as usize]
    }

    fn contains(&self, n: NodeId) -> bool {
        self.as_slice().contains(&n)
    }

    fn push(&mut self, n: NodeId) {
        debug_assert!((self.len as usize) < MAX_POINTERS);
        self.slots[self.len as usize] = n;
        self.len += 1;
    }

    /// Removes `n` preserving FIFO order; returns whether it was present.
    fn remove(&mut self, n: NodeId) -> bool {
        let len = self.len as usize;
        if let Some(pos) = self.as_slice().iter().position(|&x| x == n) {
            self.slots.copy_within(pos + 1..len, pos);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes and returns the pointer at `idx` preserving order.
    fn take(&mut self, idx: usize) -> NodeId {
        let len = self.len as usize;
        debug_assert!(idx < len);
        let v = self.slots[idx];
        self.slots.copy_within(idx + 1..len, idx);
        self.len -= 1;
        v
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Sharer-set representation; which variants are reachable depends on the
/// scheme.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Repr {
    /// Precise bit vector (`Dir_N` only).
    Full(NodeSet),
    /// Precise pointer list (initial state of every limited scheme).
    Pointers(Pointers),
    /// `Dir_i B` after overflow: invalidations go to everyone.
    Broadcast,
    /// `Dir_i X` after overflow: nodes matching `value` on all non-`xmask`
    /// bits are considered (potential) sharers.
    Composite { value: u32, xmask: u32 },
    /// `Dir_i CV_r` after overflow: one bit per region of `r` clusters.
    Coarse { regions: NodeSet },
}

impl Clone for Repr {
    fn clone(&self) -> Self {
        match self {
            Repr::Full(set) => Repr::Full(set.clone()),
            Repr::Pointers(ptrs) => Repr::Pointers(ptrs.clone()),
            Repr::Broadcast => Repr::Broadcast,
            &Repr::Composite { value, xmask } => Repr::Composite { value, xmask },
            Repr::Coarse { regions } => Repr::Coarse {
                regions: regions.clone(),
            },
        }
    }

    /// A bit vector refilled into one of the same variant keeps its words.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Repr::Full(to), Repr::Full(from))
            | (Repr::Coarse { regions: to }, Repr::Coarse { regions: from }) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

/// A directory entry: dirty bit + sharer representation for one memory block.
///
/// `Hash` covers the full observable state (dirty bit, representation,
/// rotation counter), so model-checking state digests can hash entries
/// directly.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct DirEntry {
    scheme: Scheme,
    /// Number of clusters in the machine.
    p: u16,
    dirty: bool,
    repr: Repr,
    /// Rotation counter for the `NbVictim::Rotating` policy.
    rotation: u8,
}

crate::clone_fields!(DirEntry { scheme, p, dirty, repr, rotation });

impl DirEntry {
    /// Creates an empty (uncached, clean) entry.
    pub fn new(scheme: Scheme, p: usize) -> Self {
        assert!(p >= 1 && p <= u16::MAX as usize);
        if let Some(i) = scheme.pointer_count() {
            assert!(
                (1..=MAX_POINTERS).contains(&i),
                "pointer count {i} outside supported range 1..={MAX_POINTERS}"
            );
        }
        if let Scheme::CoarseVector { r, .. } = scheme {
            assert!(r >= 1, "region size must be at least 1");
        }
        let repr = match scheme {
            Scheme::FullVector => Repr::Full(NodeSet::new(p)),
            _ => Repr::Pointers(Pointers::new()),
        };
        DirEntry {
            scheme,
            p: p as u16,
            dirty: false,
            repr,
            rotation: 0,
        }
    }

    /// The scheme this entry was created for.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Current state of the block.
    pub fn state(&self) -> DirState {
        if self.dirty {
            DirState::Dirty
        } else if self.is_repr_empty() {
            DirState::Uncached
        } else {
            DirState::Shared
        }
    }

    fn is_repr_empty(&self) -> bool {
        match &self.repr {
            Repr::Full(s) => s.is_empty(),
            Repr::Pointers(p) => p.len == 0,
            Repr::Broadcast | Repr::Composite { .. } => false,
            Repr::Coarse { regions } => regions.is_empty(),
        }
    }

    /// True if the entry tracks no cluster at all.
    pub fn is_empty(&self) -> bool {
        self.state() == DirState::Uncached
    }

    /// Dirty bit: some cluster holds an exclusive, possibly modified copy.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The owning cluster, when dirty.
    ///
    /// Every scheme keeps the owner precise: granting exclusive access resets
    /// the entry to a single pointer/bit.
    pub fn owner(&self) -> Option<NodeId> {
        if !self.dirty {
            return None;
        }
        match &self.repr {
            Repr::Full(s) => s.first(),
            Repr::Pointers(p) => p.as_slice().first().copied(),
            // Unreachable by construction: make_dirty always resets to a
            // precise single-pointer representation.
            _ => None,
        }
    }

    /// Records `node` as a clean sharer.
    ///
    /// May degrade the representation on pointer overflow, per scheme. For
    /// `Dir_i NB` the returned [`AddSharer::Evict`] carries the cluster the
    /// protocol must invalidate to honour the "never more than `i` copies"
    /// invariant.
    pub fn add_sharer(&mut self, node: NodeId) -> AddSharer {
        debug_assert!(!self.dirty, "add_sharer on a dirty entry; convert first");
        debug_assert!((node as usize) < self.p as usize);
        match &mut self.repr {
            Repr::Full(s) => {
                s.insert(node);
                AddSharer::Recorded
            }
            Repr::Pointers(ptrs) => {
                if ptrs.contains(node) {
                    return AddSharer::Recorded;
                }
                let i = self
                    .scheme
                    .pointer_count()
                    .expect("pointer repr implies limited scheme");
                if (ptrs.len as usize) < i {
                    ptrs.push(node);
                    return AddSharer::Recorded;
                }
                // Pointer overflow.
                match self.scheme {
                    Scheme::LimitedB { .. } => {
                        self.repr = Repr::Broadcast;
                        AddSharer::Recorded
                    }
                    Scheme::LimitedNB { victim, .. } => {
                        let idx = match victim {
                            NbVictim::Oldest => 0,
                            NbVictim::Rotating => {
                                let idx = self.rotation as usize % ptrs.len as usize;
                                self.rotation = self.rotation.wrapping_add(1);
                                idx
                            }
                        };
                        let evicted = ptrs.take(idx);
                        ptrs.push(node);
                        AddSharer::Evict(evicted)
                    }
                    Scheme::Superset { .. } => {
                        let mut value = ptrs.as_slice()[0] as u32;
                        let mut xmask = 0u32;
                        for &n in ptrs.as_slice()[1..].iter().chain(std::iter::once(&node)) {
                            xmask |= value ^ n as u32;
                            value &= !xmask;
                        }
                        self.repr = Repr::Composite { value, xmask };
                        AddSharer::Recorded
                    }
                    Scheme::CoarseVector { r, .. } => {
                        let nregions = (self.p as usize).div_ceil(r);
                        let mut regions = NodeSet::new(nregions);
                        for &n in ptrs.as_slice() {
                            regions.insert((n as usize / r) as NodeId);
                        }
                        regions.insert((node as usize / r) as NodeId);
                        self.repr = Repr::Coarse { regions };
                        AddSharer::Recorded
                    }
                    Scheme::FullVector => unreachable!("full vector never overflows"),
                }
            }
            Repr::Broadcast => AddSharer::Recorded,
            Repr::Composite { value, xmask } => {
                *xmask |= *value ^ node as u32;
                *value &= !*xmask;
                AddSharer::Recorded
            }
            Repr::Coarse { regions } => {
                let r = match self.scheme {
                    Scheme::CoarseVector { r, .. } => r,
                    _ => unreachable!("coarse repr implies coarse-vector scheme"),
                };
                regions.insert((node as usize / r) as NodeId);
                AddSharer::Recorded
            }
        }
    }

    /// Resets the entry to dirty with a single exclusive `owner`.
    ///
    /// This is what the directory does after granting ownership for a write:
    /// every degraded representation (broadcast bit, composite pointer,
    /// coarse vector) collapses back to one precise pointer.
    pub fn make_dirty(&mut self, owner: NodeId) {
        debug_assert!((owner as usize) < self.p as usize);
        self.reset_repr();
        match &mut self.repr {
            Repr::Full(s) => {
                s.insert(owner);
            }
            Repr::Pointers(ptrs) => ptrs.push(owner),
            _ => unreachable!("reset_repr restores a precise representation"),
        }
        self.dirty = true;
    }

    /// Resets the entry to clean-shared with exactly the given sharers.
    ///
    /// Used after a dirty block is downgraded (sharing writeback): the new
    /// sharer set is `{old owner, requester}` and fits any scheme's pointers
    /// as long as `sharers.len() <= i` (callers pass at most 2).
    pub fn make_shared(&mut self, sharers: &[NodeId]) {
        self.reset_repr();
        self.dirty = false;
        for &s in sharers {
            let outcome = self.add_sharer(s);
            debug_assert_eq!(
                outcome,
                AddSharer::Recorded,
                "make_shared must not overflow; pass at most i sharers"
            );
        }
    }

    fn reset_repr(&mut self) {
        self.dirty = false;
        match &mut self.repr {
            Repr::Full(s) => s.clear(),
            Repr::Pointers(p) => p.clear(),
            _ => {
                self.repr = match self.scheme {
                    Scheme::FullVector => Repr::Full(NodeSet::new(self.p as usize)),
                    _ => Repr::Pointers(Pointers::new()),
                }
            }
        }
    }

    /// Empties the entry entirely (after invalidating all cached copies,
    /// e.g. on sparse-directory replacement).
    pub fn clear(&mut self) {
        self.reset_repr();
    }

    /// Forgets `node` if the representation allows it precisely.
    ///
    /// Returns `true` if the representation changed. Imprecise modes
    /// (broadcast / composite / coarse) cannot un-record a single node — the
    /// directory does not know whether other sharers map to the same state —
    /// so the call is a no-op there, exactly as in hardware.
    pub fn remove_sharer(&mut self, node: NodeId) -> bool {
        let changed = match &mut self.repr {
            Repr::Full(s) => s.remove(node),
            Repr::Pointers(p) => p.remove(node),
            Repr::Broadcast | Repr::Composite { .. } | Repr::Coarse { .. } => false,
        };
        if changed && self.is_repr_empty() {
            self.dirty = false;
        }
        changed
    }

    /// True while the representation still tracks sharers exactly.
    pub fn is_precise(&self) -> bool {
        matches!(self.repr, Repr::Full(_) | Repr::Pointers(_))
    }

    /// Which representation the entry currently uses (telemetry view;
    /// the protocol itself only asks [`DirEntry::is_precise`]).
    pub fn repr_kind(&self) -> ReprKind {
        match &self.repr {
            Repr::Full(_) => ReprKind::Full,
            Repr::Pointers(_) => ReprKind::Pointers,
            Repr::Broadcast => ReprKind::Broadcast,
            Repr::Composite { .. } => ReprKind::Composite,
            Repr::Coarse { .. } => ReprKind::Coarse,
        }
    }

    /// Region bits currently set, when the entry has degraded to the
    /// coarse-vector representation (`None` otherwise). Together with
    /// [`DirEntry::sharer_superset`] this measures region-bit waste: a
    /// set bit stands for `r` clusters, however many actually share.
    pub fn coarse_regions_set(&self) -> Option<usize> {
        match &self.repr {
            Repr::Coarse { regions } => Some(regions.len()),
            _ => None,
        }
    }

    /// The full set of clusters the entry considers potential sharers.
    ///
    /// Always a superset of the true sharer set (for `Dir_i NB` the true set
    /// was trimmed by evictions, so it is exact there too).
    pub fn sharer_superset(&self) -> NodeSet {
        let mut out = NodeSet::new(self.p as usize);
        self.sharer_superset_into(&mut out);
        out
    }

    /// [`DirEntry::sharer_superset`] written into `out`, whose previous
    /// contents and universe are replaced. A caller that keeps one `out`
    /// across calls allocates nothing per call.
    pub fn sharer_superset_into(&self, out: &mut NodeSet) {
        let p = self.p as usize;
        out.reset(p);
        match &self.repr {
            Repr::Full(s) => out.union_with(s),
            Repr::Pointers(ptrs) => {
                for &n in ptrs.as_slice() {
                    out.insert(n);
                }
            }
            Repr::Broadcast => {
                for n in 0..p {
                    out.insert(n as NodeId);
                }
            }
            Repr::Composite { value, xmask } => {
                let keep = !xmask;
                for n in 0..p as u32 {
                    if n & keep == value & keep {
                        out.insert(n as NodeId);
                    }
                }
            }
            Repr::Coarse { regions } => {
                let r = match self.scheme {
                    Scheme::CoarseVector { r, .. } => r,
                    _ => unreachable!(),
                };
                for g in regions.iter() {
                    let start = g as usize * r;
                    for n in start..(start + r).min(p) {
                        out.insert(n as NodeId);
                    }
                }
            }
        }
    }

    /// Clusters that must receive an invalidation when `writer` writes the
    /// block: the sharer superset minus the writer itself.
    ///
    /// The protocol layer may additionally strip the home cluster (whose
    /// copies are invalidated over the local bus, not the network).
    pub fn invalidation_targets(&self, writer: NodeId) -> NodeSet {
        let mut t = self.sharer_superset();
        t.remove(writer);
        t
    }

    /// Removes and returns the next "grant group" when the entry is used as
    /// a lock-waiter queue (paper §7).
    ///
    /// DASH reuses directory vectors to queue lock waiters. With a precise
    /// representation the released lock is granted to exactly one waiter;
    /// once a coarse vector has overflowed, "we are only able to keep track
    /// of which processor regions are queued", so the whole first region is
    /// released to retry. Broadcast/composite representations release every
    /// covered node.
    ///
    /// Returns the released nodes (empty if no waiter is queued).
    pub fn take_first_waiter_group(&mut self) -> NodeSet {
        let p = self.p as usize;
        match &mut self.repr {
            Repr::Full(s) => match s.first() {
                Some(n) => {
                    s.remove(n);
                    NodeSet::from_iter(p, [n])
                }
                None => NodeSet::new(p),
            },
            Repr::Pointers(ptrs) => {
                if ptrs.len == 0 {
                    NodeSet::new(p)
                } else {
                    let n = ptrs.take(0);
                    NodeSet::from_iter(p, [n])
                }
            }
            Repr::Coarse { regions } => {
                let r = match self.scheme {
                    Scheme::CoarseVector { r, .. } => r,
                    _ => unreachable!(),
                };
                match regions.first() {
                    Some(g) => {
                        regions.remove(g);
                        let start = g as usize * r;
                        NodeSet::from_iter(p, (start..(start + r).min(p)).map(|n| n as NodeId))
                    }
                    None => NodeSet::new(p),
                }
            }
            Repr::Broadcast | Repr::Composite { .. } => {
                let all = self.sharer_superset();
                self.reset_repr();
                all
            }
        }
    }

    /// Whether `node` is covered by the current representation.
    pub fn covers(&self, node: NodeId) -> bool {
        match &self.repr {
            Repr::Full(s) => s.contains(node),
            Repr::Pointers(p) => p.contains(node),
            Repr::Broadcast => true,
            Repr::Composite { value, xmask } => {
                let keep = !xmask;
                (node as u32) & keep == value & keep
            }
            Repr::Coarse { regions } => {
                let r = match self.scheme {
                    Scheme::CoarseVector { r, .. } => r,
                    _ => unreachable!(),
                };
                regions.contains((node as usize / r) as NodeId)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 32;

    fn sharers(e: &DirEntry) -> Vec<NodeId> {
        e.sharer_superset().iter().collect()
    }

    #[test]
    fn new_entry_is_uncached() {
        for s in [
            Scheme::dir_n(),
            Scheme::dir_b(3),
            Scheme::dir_nb(3),
            Scheme::dir_x(3),
            Scheme::dir_cv(3, 2),
        ] {
            let e = DirEntry::new(s, P);
            assert_eq!(e.state(), DirState::Uncached, "{s:?}");
            assert!(e.is_precise());
            assert!(e.sharer_superset().is_empty());
        }
    }

    #[test]
    fn full_vector_is_always_exact() {
        let mut e = DirEntry::new(Scheme::dir_n(), P);
        for n in 0..P as NodeId {
            assert_eq!(e.add_sharer(n), AddSharer::Recorded);
        }
        assert_eq!(e.state(), DirState::Shared);
        assert!(e.is_precise());
        assert_eq!(e.sharer_superset().len(), P);
        assert_eq!(e.invalidation_targets(5).len(), P - 1);
        assert!(!e.invalidation_targets(5).contains(5));
    }

    #[test]
    fn dirty_owner_round_trip() {
        for s in [
            Scheme::dir_n(),
            Scheme::dir_b(3),
            Scheme::dir_nb(3),
            Scheme::dir_x(3),
            Scheme::dir_cv(3, 2),
        ] {
            let mut e = DirEntry::new(s, P);
            e.make_dirty(7);
            assert_eq!(e.state(), DirState::Dirty);
            assert_eq!(e.owner(), Some(7));
            assert_eq!(sharers(&e), vec![7]);
            e.make_shared(&[7, 12]);
            assert_eq!(e.state(), DirState::Shared);
            assert_eq!(e.owner(), None);
            assert_eq!(sharers(&e), vec![7, 12]);
        }
    }

    #[test]
    fn broadcast_overflow() {
        let mut e = DirEntry::new(Scheme::dir_b(3), P);
        for n in [1, 2, 3] {
            assert_eq!(e.add_sharer(n), AddSharer::Recorded);
        }
        assert!(e.is_precise());
        assert_eq!(e.add_sharer(4), AddSharer::Recorded);
        assert!(!e.is_precise());
        assert_eq!(e.sharer_superset().len(), P, "broadcast covers everyone");
        assert_eq!(e.invalidation_targets(1).len(), P - 1);
        // Granting ownership collapses the broadcast bit.
        e.make_dirty(9);
        assert!(e.is_precise());
        assert_eq!(e.owner(), Some(9));
    }

    #[test]
    fn nb_overflow_evicts_oldest() {
        let mut e = DirEntry::new(Scheme::dir_nb(3), P);
        for n in [10, 11, 12] {
            assert_eq!(e.add_sharer(n), AddSharer::Recorded);
        }
        assert_eq!(e.add_sharer(13), AddSharer::Evict(10));
        assert_eq!(sharers(&e), vec![11, 12, 13]);
        assert_eq!(e.add_sharer(14), AddSharer::Evict(11));
        assert_eq!(sharers(&e), vec![12, 13, 14]);
        assert!(e.is_precise(), "NB never degrades precision");
    }

    #[test]
    fn nb_rotating_policy_cycles_victims() {
        let mut e = DirEntry::new(
            Scheme::LimitedNB {
                i: 2,
                victim: NbVictim::Rotating,
            },
            P,
        );
        e.add_sharer(1);
        e.add_sharer(2);
        let AddSharer::Evict(v1) = e.add_sharer(3) else {
            panic!("expected eviction")
        };
        let AddSharer::Evict(v2) = e.add_sharer(4) else {
            panic!("expected eviction")
        };
        assert_ne!(v1, v2, "rotation should not hammer one slot");
    }

    #[test]
    fn nb_duplicate_add_does_not_evict() {
        let mut e = DirEntry::new(Scheme::dir_nb(3), P);
        for n in [1, 2, 3] {
            e.add_sharer(n);
        }
        assert_eq!(e.add_sharer(2), AddSharer::Recorded);
        assert_eq!(sharers(&e), vec![1, 2, 3]);
    }

    #[test]
    fn superset_covers_all_inserted() {
        let mut e = DirEntry::new(Scheme::dir_x(2), P);
        let ins = [0b00001, 0b00011, 0b10001, 0b00101];
        for n in ins {
            e.add_sharer(n);
        }
        assert!(!e.is_precise());
        let sup = e.sharer_superset();
        for n in ins {
            assert!(sup.contains(n), "composite must cover inserted node {n}");
        }
        // 00001, 00011, 10001, 00101 differ in bits 1, 4, 2 => xmask covers
        // bits {1,2,4}; base value has bit0 = 1 => 2^3 = 8 matches.
        assert_eq!(sup.len(), 8);
    }

    #[test]
    fn superset_degrades_toward_broadcast() {
        // The paper: "The composite vector soon contains mostly Xs and is
        // thus close to a broadcast bit."
        let mut e = DirEntry::new(Scheme::dir_x(3), P);
        for n in [0b00000, 0b11111, 0b00001, 0b10000] {
            e.add_sharer(n);
        }
        assert_eq!(e.sharer_superset().len(), P);
    }

    #[test]
    fn coarse_vector_exact_until_overflow() {
        let mut e = DirEntry::new(Scheme::dir_cv(3, 2), P);
        for n in [4, 9, 20] {
            e.add_sharer(n);
        }
        assert!(e.is_precise());
        assert_eq!(sharers(&e), vec![4, 9, 20]);
    }

    #[test]
    fn coarse_vector_overflow_rounds_to_regions() {
        let mut e = DirEntry::new(Scheme::dir_cv(3, 2), P);
        for n in [4, 9, 20, 21] {
            e.add_sharer(n);
        }
        assert!(!e.is_precise());
        // Regions of size 2: {4,5}, {8,9}, {20,21}.
        assert_eq!(sharers(&e), vec![4, 5, 8, 9, 20, 21]);
        // Invalidating on a write by node 9 spares 9 itself.
        assert_eq!(
            e.invalidation_targets(9).iter().collect::<Vec<_>>(),
            vec![4, 5, 8, 20, 21]
        );
    }

    #[test]
    fn coarse_vector_region_size_four() {
        let mut e = DirEntry::new(Scheme::dir_cv(2, 4), P);
        for n in [0, 5, 13] {
            e.add_sharer(n);
        }
        // Overflowed at the third sharer: regions {0..4}, {4..8}, {12..16}.
        assert_eq!(sharers(&e), vec![0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]);
        assert!(e.covers(6));
        assert!(!e.covers(8));
    }

    #[test]
    fn coarse_vector_ragged_last_region() {
        // p = 10, r = 4: last region covers only nodes 8..10.
        let mut e = DirEntry::new(Scheme::dir_cv(1, 4), 10);
        e.add_sharer(9);
        e.add_sharer(1); // overflow with i = 1
        assert_eq!(sharers(&e), vec![0, 1, 2, 3, 8, 9]);
    }

    #[test]
    fn coarse_region_accounting_exactly_at_overflow() {
        // Dir3CV2 on 32 clusters. Three sharers stay precise (pointer
        // repr, no region bits); the fourth flips to coarse with exactly
        // one region bit per occupied region.
        let mut e = DirEntry::new(Scheme::dir_cv(3, 2), P);
        for n in [4, 9, 20] {
            e.add_sharer(n);
        }
        assert_eq!(e.repr_kind(), ReprKind::Pointers);
        assert_eq!(e.coarse_regions_set(), None);
        e.add_sharer(21); // 21 shares region {20,21} with 20
        assert_eq!(e.repr_kind(), ReprKind::Coarse);
        // 4 sharers in 3 distinct regions → 3 region bits set, superset 6.
        assert_eq!(e.coarse_regions_set(), Some(3));
        assert_eq!(e.sharer_superset().len(), 6);
        // Region-bit utilization: 4 present of 6 covered.
        assert!(e.covers(5) && e.covers(8), "rounded-up neighbours covered");
    }

    #[test]
    fn coarse_region_accounting_one_sharer_per_region_worst_case() {
        // Dir1CV4 on 32 clusters: sharers 0, 4, 8, ... land one per
        // region, the worst case for region-bit utilization — every set
        // bit drags in r−1 absent neighbours.
        let regions = P / 4;
        let mut e = DirEntry::new(Scheme::dir_cv(1, 4), P);
        for g in 0..regions {
            e.add_sharer((g * 4) as NodeId);
        }
        assert_eq!(e.repr_kind(), ReprKind::Coarse);
        assert_eq!(e.coarse_regions_set(), Some(regions));
        // Superset covers the whole machine although only 1/4 are sharers.
        assert_eq!(e.sharer_superset().len(), P);
        let targets = e.invalidation_targets(0);
        assert_eq!(targets.len(), P - 1, "write by node 0 spares only itself");
    }

    #[test]
    fn repr_kind_tracks_every_representation() {
        let mut full = DirEntry::new(Scheme::dir_n(), P);
        full.add_sharer(3);
        assert_eq!(full.repr_kind(), ReprKind::Full);
        assert_eq!(full.coarse_regions_set(), None);

        let mut b = DirEntry::new(Scheme::dir_b(1), P);
        b.add_sharer(0);
        assert_eq!(b.repr_kind(), ReprKind::Pointers);
        b.add_sharer(1);
        assert_eq!(b.repr_kind(), ReprKind::Broadcast);

        let mut x = DirEntry::new(Scheme::dir_x(3), P);
        for n in [0b00000, 0b11111, 0b00001, 0b10000] {
            x.add_sharer(n);
        }
        assert_eq!(x.repr_kind(), ReprKind::Composite);
    }

    #[test]
    fn remove_sharer_precise_modes() {
        let mut e = DirEntry::new(Scheme::dir_cv(3, 2), P);
        e.add_sharer(4);
        e.add_sharer(9);
        assert!(e.remove_sharer(4));
        assert_eq!(sharers(&e), vec![9]);
        assert!(!e.remove_sharer(4));
        assert!(e.remove_sharer(9));
        assert_eq!(e.state(), DirState::Uncached);
    }

    #[test]
    fn remove_sharer_is_noop_when_imprecise() {
        let mut e = DirEntry::new(Scheme::dir_cv(1, 2), P);
        e.add_sharer(4);
        e.add_sharer(5); // overflow -> coarse
        assert!(!e.is_precise());
        assert!(!e.remove_sharer(4), "imprecise modes cannot un-record");
        assert_eq!(sharers(&e), vec![4, 5]);
    }

    #[test]
    fn clear_empties_any_representation() {
        let mut e = DirEntry::new(Scheme::dir_b(1), P);
        e.add_sharer(0);
        e.add_sharer(1); // broadcast
        e.clear();
        assert_eq!(e.state(), DirState::Uncached);
        assert!(e.is_precise());
    }

    #[test]
    fn covers_matches_superset_membership() {
        let mut e = DirEntry::new(Scheme::dir_x(2), P);
        for n in [3, 17, 22] {
            e.add_sharer(n);
        }
        let sup = e.sharer_superset();
        for n in 0..P as NodeId {
            assert_eq!(e.covers(n), sup.contains(n), "node {n}");
        }
    }

    #[test]
    fn waiter_group_precise_grants_one_fifo() {
        let mut e = DirEntry::new(Scheme::dir_cv(3, 2), P);
        e.add_sharer(9);
        e.add_sharer(4);
        let g1 = e.take_first_waiter_group();
        assert_eq!(g1.iter().collect::<Vec<_>>(), vec![9], "FIFO order");
        let g2 = e.take_first_waiter_group();
        assert_eq!(g2.iter().collect::<Vec<_>>(), vec![4]);
        assert!(e.take_first_waiter_group().is_empty());
    }

    #[test]
    fn waiter_group_coarse_releases_region() {
        let mut e = DirEntry::new(Scheme::dir_cv(1, 4), P);
        e.add_sharer(5);
        e.add_sharer(13); // overflow: regions {4..8} and {12..16}
        let g1 = e.take_first_waiter_group();
        assert_eq!(g1.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        let g2 = e.take_first_waiter_group();
        assert_eq!(g2.iter().collect::<Vec<_>>(), vec![12, 13, 14, 15]);
        assert!(e.take_first_waiter_group().is_empty());
        // Region bits cleared; a re-queued waiter re-sets its region.
        e.add_sharer(6);
        assert!(e.covers(6));
    }

    #[test]
    fn waiter_group_broadcast_releases_everyone() {
        let mut e = DirEntry::new(Scheme::dir_b(1), P);
        e.add_sharer(0);
        e.add_sharer(1); // broadcast
        let g = e.take_first_waiter_group();
        assert_eq!(g.len(), P);
        assert!(e.is_empty());
    }

    #[test]
    fn writer_never_among_invalidation_targets() {
        for s in [
            Scheme::dir_n(),
            Scheme::dir_b(2),
            Scheme::dir_nb(2),
            Scheme::dir_x(2),
            Scheme::dir_cv(2, 4),
        ] {
            let mut e = DirEntry::new(s, P);
            for n in [1, 2, 3, 4, 5] {
                e.add_sharer(n);
            }
            for w in 0..P as NodeId {
                assert!(
                    !e.invalidation_targets(w).contains(w),
                    "{s:?} writer {w} invalidated itself"
                );
            }
        }
    }
}
