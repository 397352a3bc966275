//! A dynamically sized bitset over cluster/node identifiers.
//!
//! Directory entries, invalidation target sets, and sharer supersets are all
//! sets of nodes. The paper's machines range from 16 clusters to 1024
//! processors, so the set is backed by a small vector of 64-bit words rather
//! than a fixed-width integer.

/// Identifier of a cluster (processing node) in the machine.
///
/// The paper's directory state is kept per *cluster* (DASH keeps one
/// presence bit per cluster, intra-cluster coherence being snoopy), so all
/// directory-level APIs speak `NodeId`.
pub type NodeId = u16;

/// A set of nodes, backed by a bit vector.
///
/// The set has a fixed universe size (`capacity`) established at creation;
/// nodes `>= capacity` are outside the universe in *every* build:
/// [`NodeSet::insert`] and [`NodeSet::remove`] ignore them (returning
/// `false`), matching [`NodeSet::contains`], so no tail bit can ever leak
/// into [`NodeSet::len`] or iteration as a phantom member.
#[derive(PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
}

crate::clone_fields!(NodeSet { words, capacity });

impl NodeSet {
    /// Creates an empty set over a universe of `capacity` nodes.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every node in the universe.
    pub fn full(capacity: usize) -> Self {
        let mut s = NodeSet::new(capacity);
        for w in 0..s.words.len() {
            s.words[w] = !0u64;
        }
        s.mask_tail();
        s
    }

    /// Creates a set from an iterator of node ids.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(capacity: usize, iter: I) -> Self {
        let mut s = NodeSet::new(capacity);
        for n in iter {
            s.insert(n);
        }
        s
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears bits beyond `capacity` (kept as an invariant after whole-word ops).
    fn mask_tail(&mut self) {
        let rem = self.capacity % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `node`; returns `true` if it was newly inserted.
    ///
    /// Out-of-universe nodes (`>= capacity`) are a no-op returning `false`
    /// in all builds. Earlier versions only `debug_assert`ed here, so a
    /// release-build `insert(70)` on a capacity-70 set would set a tail bit
    /// that `len()` and `iter()` then reported as a phantom sharer.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        if node as usize >= self.capacity {
            return false;
        }
        let (w, b) = (node as usize / 64, node as usize % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `node`; returns `true` if it was present.
    ///
    /// Out-of-universe nodes are a no-op returning `false` in all builds,
    /// mirroring [`NodeSet::insert`].
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        if node as usize >= self.capacity {
            return false;
        }
        let (w, b) = (node as usize / 64, node as usize % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        if node as usize >= self.capacity {
            return false;
        }
        let (w, b) = (node as usize / 64, node as usize % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no node is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Empties the set and makes its universe `capacity` nodes, reusing
    /// its words: refilling a set of the same universe allocates nothing.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The lowest-numbered node in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i * 64 + w.trailing_zeros() as usize) as NodeId);
            }
        }
        None
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The raw 64-bit words backing the set, low nodes first. Tail bits
    /// beyond `capacity` are always zero (the masking invariant), so
    /// word-level consumers need no edge handling.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Word-at-a-time traversal of the members in ascending order.
    ///
    /// Semantically identical to `for n in set.iter() { f(n) }` but without
    /// iterator state in the loop — this is what the machine's
    /// invalidation/flush fanout uses, where the set is walked once and
    /// immediately consumed.
    #[inline]
    pub fn for_each_member(&self, mut f: impl FnMut(NodeId)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                f((i * 64 + bit) as NodeId);
            }
        }
    }

    /// Number of members strictly below `node` (the classical bitset
    /// *rank*). `rank(capacity)` — or any out-of-universe node — is the
    /// total membership, consistent with out-of-universe ids never being
    /// members.
    #[inline]
    pub fn rank(&self, node: NodeId) -> usize {
        let n = (node as usize).min(self.capacity);
        let (full, bit) = (n / 64, n % 64);
        let mut count = self.words[..full.min(self.words.len())]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if bit != 0 {
            if let Some(&w) = self.words.get(full) {
                count += (w & ((1u64 << bit) - 1)).count_ones() as usize;
            }
        }
        count
    }

    /// The `k`-th smallest member (0-based *select*), or `None` when the
    /// set has `k` or fewer members. `select(0) == first()`, and
    /// `rank(select(k)) == k` for every valid `k`.
    #[inline]
    pub fn select(&self, k: usize) -> Option<NodeId> {
        let mut remaining = k;
        for (i, &word) in self.words.iter().enumerate() {
            let pop = word.count_ones() as usize;
            if remaining < pop {
                // Drop the `remaining` lowest set bits, then the lowest
                // survivor is the answer.
                let mut w = word;
                for _ in 0..remaining {
                    w &= w - 1;
                }
                return Some((i * 64 + w.trailing_zeros() as usize) as NodeId);
            }
            remaining -= pop;
        }
        None
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct NodeSetIter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx * 64 + bit) as NodeId);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = NodeSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let s = NodeSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn iteration_is_ascending() {
        let s = NodeSet::from_iter(200, [5, 199, 63, 64, 0]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn set_algebra() {
        let mut u = NodeSet::from_iter(64, [1, 2, 3]);
        u.union_with(&NodeSet::from_iter(64, [3, 4]));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    /// The release-semantics contract: out-of-universe inserts/removes are
    /// ignored in every build (no `debug_assert` divergence), so `len()`,
    /// `iter()` and word-level algebra never see a phantom member. The
    /// capacities straddle the word boundary on purpose: 70 exercises the
    /// partial tail word, 64 the exact-word case where there is no tail to
    /// mask.
    #[test]
    fn out_of_universe_inserts_are_masked() {
        for cap in [70usize, 64, 1] {
            let mut s = NodeSet::new(cap);
            assert!(!s.insert(cap as NodeId), "insert at capacity is a no-op");
            assert!(!s.insert(cap as NodeId + 7), "insert past capacity is a no-op");
            assert!(s.is_empty(), "cap {cap}: phantom member after oob insert");
            assert_eq!(s.len(), 0);
            assert_eq!(s.iter().count(), 0);
            assert!(!s.contains(cap as NodeId));
            assert!(!s.remove(cap as NodeId), "remove past capacity is a no-op");
        }
    }

    #[test]
    fn out_of_universe_bits_never_reach_set_algebra() {
        let mut a = NodeSet::new(70);
        a.insert(69);
        a.insert(70); // masked
        let mut b = NodeSet::full(70);
        b.union_with(&a);
        assert_eq!(b.len(), 70, "union must not resurrect a masked tail bit");
    }

    #[test]
    fn first_finds_lowest() {
        let s = NodeSet::from_iter(128, [90, 17, 65]);
        assert_eq!(s.first(), Some(17));
    }

    #[test]
    fn words_expose_masked_tail() {
        let mut s = NodeSet::new(70);
        s.insert(0);
        s.insert(69);
        s.insert(70); // masked
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[0], 1);
        assert_eq!(s.words()[1], 1 << 5);
    }

    #[test]
    fn for_each_member_matches_iter() {
        let s = NodeSet::from_iter(200, [5, 199, 63, 64, 0]);
        let mut v = Vec::new();
        s.for_each_member(|n| v.push(n));
        assert_eq!(v, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn rank_counts_members_below() {
        let s = NodeSet::from_iter(130, [0, 5, 63, 64, 129]);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 1);
        assert_eq!(s.rank(64), 3);
        assert_eq!(s.rank(65), 4);
        assert_eq!(s.rank(129), 4);
        assert_eq!(s.rank(130), 5, "rank at capacity is the full count");
        assert_eq!(s.rank(300), 5, "out-of-universe rank clamps");
    }

    #[test]
    fn select_is_rank_inverse() {
        let members = [0u16, 5, 63, 64, 129];
        let s = NodeSet::from_iter(130, members);
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(s.select(k), Some(m));
            assert_eq!(s.rank(m), k);
        }
        assert_eq!(s.select(5), None);
        assert_eq!(NodeSet::new(64).select(0), None);
    }
}
