//! Per-cluster cache group with snoop queries.
//!
//! Within a DASH cluster, processors keep their caches coherent over a
//! snoopy bus (Papamarcos & Patel's Illinois protocol in the prototype).
//! The simulator models the bus as instantaneous-snoop/accounted-latency:
//! the machine layer charges bus occupancy, while this type answers the
//! state questions a snoop would ("does a peer hold it dirty?", "who
//! shares it?") and applies the resulting state changes.

use crate::cache::{Evicted, LineState};
use crate::hierarchy::{CacheHierarchy, HitLevel};
use crate::Block;

/// The caches of one cluster's processors.
#[derive(Debug)]
pub struct ClusterCaches {
    procs: Vec<CacheHierarchy>,
}

impl Clone for ClusterCaches {
    fn clone(&self) -> Self {
        ClusterCaches {
            procs: self.procs.clone(),
        }
    }

    /// Refills every processor's caches in place (see [`Cache`]'s).
    ///
    /// [`Cache`]: crate::Cache
    fn clone_from(&mut self, source: &Self) {
        let ClusterCaches { procs } = self;
        procs.clone_from(&source.procs);
    }
}

impl ClusterCaches {
    /// A cluster with `n` identical hierarchies built by `make`.
    pub fn new(n: usize, make: impl Fn() -> CacheHierarchy) -> Self {
        assert!(n >= 1, "a cluster has at least one processor");
        ClusterCaches {
            procs: (0..n).map(|_| make()).collect(),
        }
    }

    /// Number of processors in the cluster.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Always false (clusters are non-empty); provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Access to one processor's hierarchy.
    pub fn proc(&self, p: usize) -> &CacheHierarchy {
        &self.procs[p]
    }

    /// Mutable access to one processor's hierarchy.
    pub fn proc_mut(&mut self, p: usize) -> &mut CacheHierarchy {
        &mut self.procs[p]
    }

    /// Performs processor `p`'s lookup of `block`.
    pub fn access(&mut self, p: usize, block: Block, now: u64) -> HitLevel {
        self.procs[p].access(block, now)
    }

    /// The local processor holding `block` dirty, if any (at most one
    /// machine-wide, enforced by the protocol).
    pub fn dirty_holder(&self, block: Block) -> Option<usize> {
        self.procs
            .iter()
            .position(|h| h.probe(block) == Some(LineState::Dirty))
    }

    /// Local processors holding `block` in any state.
    pub fn holders(&self, block: Block) -> Vec<usize> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, h)| h.probe(block).is_some())
            .map(|(p, _)| p)
            .collect()
    }

    /// True if any local cache holds `block`.
    pub fn holds(&self, block: Block) -> bool {
        self.procs.iter().any(|h| h.probe(block).is_some())
    }

    /// True if any local cache holds `block` dirty.
    pub fn holds_dirty(&self, block: Block) -> bool {
        self.dirty_holder(block).is_some()
    }

    /// Fills `block` into processor `p`'s caches.
    pub fn fill(&mut self, p: usize, block: Block, state: LineState, now: u64) -> Option<Evicted> {
        self.procs[p].fill(block, state, now)
    }

    /// Write upgrade in processor `p`'s caches.
    pub fn upgrade(&mut self, p: usize, block: Block) -> bool {
        self.procs[p].upgrade(block)
    }

    /// Bus snoop on a local write: invalidate every copy except processor
    /// `p`'s. Returns how many peers lost a copy.
    pub fn invalidate_others(&mut self, p: usize, block: Block) -> usize {
        let mut n = 0;
        for (q, h) in self.procs.iter_mut().enumerate() {
            if q != p && h.invalidate(block).is_some() {
                n += 1;
            }
        }
        n
    }

    /// Invalidates every local copy (inter-cluster invalidation arriving at
    /// the cluster). Returns whether any removed copy was dirty.
    pub fn invalidate_all(&mut self, block: Block) -> bool {
        let mut was_dirty = false;
        for h in &mut self.procs {
            if h.invalidate(block) == Some(LineState::Dirty) {
                was_dirty = true;
            }
        }
        was_dirty
    }

    /// Downgrades a local dirty copy to shared (remote read of a dirty
    /// block). Returns whether a dirty copy existed.
    pub fn downgrade_all(&mut self, block: Block) -> bool {
        let mut had = false;
        for h in &mut self.procs {
            had |= h.downgrade(block);
        }
        had
    }

    /// Aggregated L2 miss count across the cluster (for reporting).
    pub fn total_l2_misses(&self) -> u64 {
        self.procs.iter().map(|h| h.l2_stats().misses).sum()
    }

    /// Visits every block resident anywhere in the cluster once, with the
    /// *highest* state any processor holds it in (dirty beats shared) —
    /// the cluster-level view the directory tracks — in no particular
    /// order, without collecting them.
    pub fn for_each_resident(&self, mut f: impl FnMut(Block, LineState)) {
        for (p, hier) in self.procs.iter().enumerate() {
            for (block, _) in hier.resident() {
                // A block is visited at the first processor holding it.
                if self.procs[..p].iter().any(|q| q.probe(block).is_some()) {
                    continue;
                }
                let dirty = self.holds_dirty(block);
                f(block, if dirty { LineState::Dirty } else { LineState::Shared });
            }
        }
    }

    /// Hashes every processor's hierarchy into `h`, in processor order,
    /// for model-checking state digests.
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        for hier in &self.procs {
            hier.fingerprint(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> ClusterCaches {
        ClusterCaches::new(n, || CacheHierarchy::new(2, 1, 8, 2))
    }

    #[test]
    fn snoop_finds_dirty_peer() {
        let mut c = cluster(4);
        c.fill(2, 7, LineState::Dirty, 0);
        assert_eq!(c.dirty_holder(7), Some(2));
        assert!(c.holds_dirty(7));
        assert!(!c.holds_dirty(8));
    }

    #[test]
    fn holders_lists_every_copy() {
        let mut c = cluster(3);
        c.fill(0, 5, LineState::Shared, 0);
        c.fill(2, 5, LineState::Shared, 0);
        assert_eq!(c.holders(5), vec![0, 2]);
        assert!(c.holds(5));
    }

    #[test]
    fn local_write_invalidates_peers() {
        let mut c = cluster(3);
        for p in 0..3 {
            c.fill(p, 9, LineState::Shared, 0);
        }
        assert_eq!(c.invalidate_others(1, 9), 2);
        assert_eq!(c.holders(9), vec![1]);
    }

    #[test]
    fn invalidate_all_reports_dirtiness() {
        let mut c = cluster(2);
        c.fill(0, 3, LineState::Dirty, 0);
        assert!(c.invalidate_all(3));
        assert!(!c.holds(3));
        c.fill(1, 4, LineState::Shared, 1);
        assert!(!c.invalidate_all(4));
    }

    #[test]
    fn downgrade_all() {
        let mut c = cluster(2);
        c.fill(1, 6, LineState::Dirty, 0);
        assert!(c.downgrade_all(6));
        assert_eq!(c.proc(1).probe(6), Some(LineState::Shared));
        assert!(!c.downgrade_all(6));
    }

    #[test]
    fn each_resident_block_is_visited_once_at_its_highest_state() {
        let mut c = cluster(2);
        c.fill(0, 11, LineState::Shared, 0);
        c.fill(1, 12, LineState::Dirty, 0);
        c.fill(1, 11, LineState::Shared, 0);
        c.fill(0, 12, LineState::Shared, 0);
        let mut visited = vec![];
        c.for_each_resident(|b, s| visited.push((b, s)));
        visited.sort_unstable();
        assert_eq!(
            visited,
            vec![(11, LineState::Shared), (12, LineState::Dirty)],
            "the same entries, each once"
        );
    }
}
