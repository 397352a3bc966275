//! Two-level inclusive cache hierarchy (DASH: 64 KB L1, 256 KB L2).
//!
//! The L2 (secondary) cache is the coherence point: snoops, invalidations
//! and directory state all operate on it. The L1 (primary) cache is a strict
//! subset of the L2 (inclusion), mirrors its coherence state, and exists to
//! model the latency difference between first-level and second-level hits.
//!
//! Because the simulator tracks state rather than data, state changes are
//! applied to both levels at once; an L1 capacity eviction is therefore
//! always silent (the L2 already holds the line in the same state).

use crate::cache::{Cache, CacheStats, Evicted, LineState};
use crate::Block;

/// Which level satisfied an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Primary-cache hit.
    L1(LineState),
    /// Secondary-cache hit (line promoted into L1).
    L2(LineState),
    /// Miss in both levels.
    Miss,
}

impl HitLevel {
    /// The line state, if any level hit.
    pub fn state(&self) -> Option<LineState> {
        match *self {
            HitLevel::L1(s) | HitLevel::L2(s) => Some(s),
            HitLevel::Miss => None,
        }
    }
}

/// An inclusive L1/L2 pair.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl Clone for CacheHierarchy {
    fn clone(&self) -> Self {
        CacheHierarchy {
            l1: self.l1.clone(),
            l2: self.l2.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let CacheHierarchy { l1, l2 } = self;
        l1.clone_from(&source.l1);
        l2.clone_from(&source.l2);
    }
}

impl CacheHierarchy {
    /// Creates a hierarchy with the given capacities (in blocks) and
    /// associativities.
    ///
    /// # Panics
    /// If the L1 is larger than the L2 (inclusion would be impossible).
    pub fn new(l1_blocks: usize, l1_ways: usize, l2_blocks: usize, l2_ways: usize) -> Self {
        assert!(
            l1_blocks <= l2_blocks,
            "inclusive hierarchy requires L1 ({l1_blocks}) <= L2 ({l2_blocks})"
        );
        CacheHierarchy {
            l1: Cache::new(l1_blocks, l1_ways),
            l2: Cache::new(l2_blocks, l2_ways),
        }
    }

    /// Looks up `block`, filling the L1 on an L2 hit.
    pub fn access(&mut self, block: Block, now: u64) -> HitLevel {
        if let Some(s) = self.l1.access(block, now) {
            debug_assert_eq!(self.l2.probe(block), Some(s), "inclusion violated");
            return HitLevel::L1(s);
        }
        if let Some(s) = self.l2.access(block, now) {
            // Promote into L1; the displaced L1 line is silent (inclusion).
            let _ = self.l1.insert(block, s, now);
            return HitLevel::L2(s);
        }
        HitLevel::Miss
    }

    /// Coherence-point (L2) state without side effects.
    pub fn probe(&self, block: Block) -> Option<LineState> {
        self.l2.probe(block)
    }

    /// Installs `block` in both levels; returns the L2 victim (the caller
    /// must write it back if dirty).
    pub fn fill(&mut self, block: Block, state: LineState, now: u64) -> Option<Evicted> {
        let evicted = self.l2.insert(block, state, now);
        if let Some(ev) = evicted {
            // Inclusion: the departing L2 line may not linger in the L1.
            self.l1.invalidate(ev.block);
        }
        let _ = self.l1.insert(block, state, now);
        evicted
    }

    /// Marks a resident block dirty in both levels (write upgrade).
    ///
    /// Returns `false` if the block is not resident.
    pub fn upgrade(&mut self, block: Block) -> bool {
        let ok = self.l2.set_state(block, LineState::Dirty);
        if ok {
            self.l1.set_state(block, LineState::Dirty);
        }
        ok
    }

    /// Removes `block` from both levels; returns its (L2) state if present.
    pub fn invalidate(&mut self, block: Block) -> Option<LineState> {
        self.l1.invalidate(block);
        self.l2.invalidate(block)
    }

    /// Downgrades a dirty block to shared (sharing writeback). Returns
    /// whether the block was present and dirty.
    pub fn downgrade(&mut self, block: Block) -> bool {
        if self.l2.probe(block) == Some(LineState::Dirty) {
            self.l2.set_state(block, LineState::Shared);
            self.l1.set_state(block, LineState::Shared);
            true
        } else {
            false
        }
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Hashes both levels' protocol-visible state into `h` for
    /// model-checking state digests (see [`Cache::fingerprint`]).
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.l1.fingerprint(h);
        self.l2.fingerprint(h);
    }

    /// All blocks resident at the coherence point (L2).
    pub fn resident(&self) -> impl Iterator<Item = (Block, LineState)> + '_ {
        self.l2.resident()
    }

    /// L2 capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.l2.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(2, 1, 8, 2)
    }

    #[test]
    fn miss_fill_hit_sequence() {
        let mut h = small();
        assert_eq!(h.access(3, 0), HitLevel::Miss);
        assert!(h.fill(3, LineState::Shared, 1).is_none());
        assert_eq!(h.access(3, 2), HitLevel::L1(LineState::Shared));
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = small();
        h.fill(0, LineState::Shared, 0);
        h.fill(2, LineState::Shared, 1); // L1 has 2 sets; 0 and 2 conflict
        // Block 0 fell out of the (tiny) L1 but stays in L2.
        assert_eq!(h.access(0, 2), HitLevel::L2(LineState::Shared));
        // Now promoted.
        assert_eq!(h.access(0, 3), HitLevel::L1(LineState::Shared));
    }

    #[test]
    fn l2_eviction_enforces_inclusion() {
        let mut h = CacheHierarchy::new(2, 2, 2, 2);
        h.fill(1, LineState::Shared, 0);
        h.fill(2, LineState::Shared, 1);
        let ev = h.fill(3, LineState::Shared, 2).expect("L2 full");
        assert_eq!(ev.block, 1);
        // Evicted block must be gone from L1 too.
        assert_eq!(h.access(1, 3), HitLevel::Miss);
    }

    #[test]
    fn dirty_eviction_propagates_for_writeback() {
        let mut h = CacheHierarchy::new(1, 1, 1, 1);
        h.fill(1, LineState::Dirty, 0);
        let ev = h.fill(2, LineState::Shared, 1).unwrap();
        assert_eq!(ev.state, LineState::Dirty);
    }

    #[test]
    fn upgrade_and_downgrade() {
        let mut h = small();
        h.fill(5, LineState::Shared, 0);
        assert!(h.upgrade(5));
        assert_eq!(h.probe(5), Some(LineState::Dirty));
        assert_eq!(h.access(5, 1), HitLevel::L1(LineState::Dirty));
        assert!(h.downgrade(5));
        assert_eq!(h.probe(5), Some(LineState::Shared));
        assert!(!h.downgrade(5), "already clean");
        assert!(!h.upgrade(99), "absent blocks cannot upgrade");
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = small();
        h.fill(4, LineState::Dirty, 0);
        assert_eq!(h.invalidate(4), Some(LineState::Dirty));
        assert_eq!(h.access(4, 1), HitLevel::Miss);
        assert_eq!(h.invalidate(4), None);
    }

    #[test]
    #[should_panic(expected = "inclusive hierarchy")]
    fn oversized_l1_panics() {
        CacheHierarchy::new(16, 1, 8, 1);
    }
}
