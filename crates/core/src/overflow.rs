//! Overflow directories — the paper's §7 future-work organization:
//! "we can associate small directory entries with each memory block and
//! allow these to overflow into a small cache of much wider entries."
//!
//! Every memory block gets a *small* entry of `i` exact pointers (no
//! broadcast bit, no coarse mode). When a block gains more sharers than
//! its pointers can hold, the entry is **promoted** into a small
//! fully-associative-per-set cache of *wide* (full bit vector) entries.
//! Because widely shared blocks are rare (§1), a handful of wide entries
//! per home covers them; unlike `Dir_i B`/`Dir_i CV` nothing is ever
//! overestimated while a wide slot is available.
//!
//! Costs, mirrored from the sparse directory:
//! * a promoted block occupies a wide slot until it empties or collapses
//!   back to ≤ `i` precise sharers (demotion);
//! * when the wide cache is full, a victim wide entry is displaced and all
//!   its cached copies must be invalidated (same replacement-invalidation
//!   flow as sparse directories);
//! * if every wide slot in the set is pinned by an in-flight transaction,
//!   promotion falls back to `Dir_i NB` semantics for that one recording
//!   (evict a pointer), which is always safe.

use crate::entry::{AddSharer, DirEntry};
use crate::flat::FastMap;
use crate::node_set::NodeId;
use crate::scheme::Scheme;
use crate::sparse::{Allocation, Replacement, SparseDirectory};

/// Outcome of recording a sharer in an overflow directory.
#[derive(Debug)]
pub enum OverflowAdd {
    /// Recorded (small entry, or an existing/new wide entry).
    Recorded,
    /// Recorded after displacing a wide victim: the caller must invalidate
    /// all cached copies of `victim_key` per the returned entry.
    RecordedDisplacing {
        /// Block that lost its wide entry.
        victim_key: u64,
        /// The displaced wide entry.
        victim: DirEntry,
    },
    /// Every wide slot was pinned: fell back to pointer eviction (the
    /// returned cluster must be invalidated), like `Dir_i NB`.
    Evicted(NodeId),
}

/// Statistics for the overflow organization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverflowStats {
    /// Small→wide promotions.
    pub promotions: u64,
    /// Wide→small demotions (entry collapsed back to ≤ i sharers).
    pub demotions: u64,
    /// Wide-victim displacements (replacement invalidations required).
    pub displacements: u64,
    /// Pinned-set fallbacks to pointer eviction.
    pub fallback_evictions: u64,
}

impl std::ops::AddAssign for OverflowStats {
    /// Field-wise sum across homes.
    fn add_assign(&mut self, o: Self) {
        self.promotions += o.promotions;
        self.demotions += o.demotions;
        self.displacements += o.displacements;
        self.fallback_evictions += o.fallback_evictions;
    }
}

/// One home node's overflow directory: per-block small entries plus a wide
/// overflow cache.
pub struct OverflowDirectory {
    small_scheme: Scheme,
    clusters: usize,
    /// Lazily materialized small entries (absent = uncached).
    small: FastMap<u64, DirEntry>,
    /// Wide (full-vector) overflow cache.
    wide: SparseDirectory,
    stats: OverflowStats,
}

crate::clone_fields!(OverflowDirectory { small_scheme, clusters, small, wide, stats });

impl OverflowDirectory {
    /// Creates an overflow directory with `i`-pointer small entries and
    /// `wide_entries` wide slots of associativity `wide_ways`.
    pub fn new(
        i: usize,
        clusters: usize,
        wide_entries: usize,
        wide_ways: usize,
        policy: Replacement,
        seed: u64,
    ) -> Self {
        OverflowDirectory {
            small_scheme: Scheme::dir_nb(i),
            clusters,
            small: FastMap::default(),
            wide: SparseDirectory::new(
                Scheme::FullVector,
                clusters,
                wide_entries,
                wide_ways,
                policy,
                seed,
            ),
            stats: OverflowStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> OverflowStats {
        self.stats
    }

    /// The current entry for `key` (wide wins over small), if any.
    pub fn probe(&self, key: u64) -> Option<&DirEntry> {
        self.wide.probe(key).or_else(|| self.small.get(&key))
    }

    /// Mutable access to the current entry, materializing a small entry if
    /// the block is untracked.
    pub fn entry_mut(&mut self, key: u64, now: u64) -> &mut DirEntry {
        if self.wide.probe(key).is_some() {
            return self.wide.lookup(key, now).expect("probed above");
        }
        self.small
            .entry(key)
            .or_insert_with(|| DirEntry::new(self.small_scheme, self.clusters))
    }

    /// Records `node` as a sharer of `key`, promoting to a wide entry on
    /// pointer overflow. `pinned` guards wide-victim selection.
    pub fn add_sharer(
        &mut self,
        key: u64,
        node: NodeId,
        now: u64,
        pinned: impl Fn(u64) -> bool,
    ) -> OverflowAdd {
        // Already wide?
        if self.wide.probe(key).is_some() {
            let e = self.wide.lookup(key, now).expect("probed above");
            let r = e.add_sharer(node);
            debug_assert_eq!(r, AddSharer::Recorded, "full vector never overflows");
            return OverflowAdd::Recorded;
        }
        let small = self
            .small
            .entry(key)
            .or_insert_with(|| DirEntry::new(self.small_scheme, self.clusters));
        if small.covers(node) || !small_would_overflow(small, self.small_scheme) {
            let r = small.add_sharer(node);
            debug_assert_eq!(r, AddSharer::Recorded);
            return OverflowAdd::Recorded;
        }
        // Pointer overflow: promote into the wide cache.
        let sharers: Vec<NodeId> = small.sharer_superset().iter().collect();
        match self.wide.access(key, now, &pinned) {
            Err(_) => {
                // All wide slots pinned: fall back to NB semantics.
                self.stats.fallback_evictions += 1;
                match small.add_sharer(node) {
                    AddSharer::Evict(v) => OverflowAdd::Evicted(v),
                    AddSharer::Recorded => OverflowAdd::Recorded,
                }
            }
            Ok(Allocation::Hit(_)) => unreachable!("checked wide.probe above"),
            Ok(Allocation::Inserted(e)) => {
                for s in sharers {
                    e.add_sharer(s);
                }
                e.add_sharer(node);
                self.small.remove(&key);
                self.stats.promotions += 1;
                OverflowAdd::Recorded
            }
            Ok(Allocation::Replaced {
                victim_key,
                victim,
                entry,
            }) => {
                for s in sharers {
                    entry.add_sharer(s);
                }
                entry.add_sharer(node);
                self.small.remove(&key);
                self.stats.promotions += 1;
                self.stats.displacements += 1;
                OverflowAdd::RecordedDisplacing { victim_key, victim }
            }
        }
    }

    /// Housekeeping after protocol mutations: frees empty entries and
    /// demotes wide entries that fit in a small entry again.
    pub fn maintain(&mut self, key: u64) {
        if let Some(e) = self.small.get(&key) {
            if e.is_empty() {
                self.small.remove(&key);
            }
            return;
        }
        let Some(w) = self.wide.probe(key) else {
            return;
        };
        if w.is_empty() {
            self.wide.invalidate_key(key);
            return;
        }
        let i = self
            .small_scheme
            .pointer_count()
            .expect("small entries are limited-pointer");
        let sharers = w.sharer_superset();
        if sharers.len() <= i {
            let dirty_owner = w.is_dirty().then(|| w.owner()).flatten();
            let mut small = DirEntry::new(self.small_scheme, self.clusters);
            if let Some(o) = dirty_owner {
                small.make_dirty(o);
            } else {
                for s in sharers.iter() {
                    small.add_sharer(s);
                }
            }
            self.wide.invalidate_key(key);
            self.small.insert(key, small);
            self.stats.demotions += 1;
        }
    }

    /// Live entries (small + wide), for occupancy checks.
    pub fn live_entries(&self) -> usize {
        self.small.values().filter(|e| !e.is_empty()).count() + self.wide.live_entries()
    }

    /// Visits every live entry (small then wide) with its key. Small-array
    /// visit order is unspecified (hash map), so callers must aggregate
    /// order-independently.
    pub fn for_each_live(&self, mut f: impl FnMut(u64, &DirEntry)) {
        for (&k, e) in &self.small {
            if !e.is_empty() {
                f(k, e);
            }
        }
        self.wide.for_each_live(&mut f);
    }

    /// Hashes the protocol-visible state (the live small entries, folded
    /// by [`hash_unordered`](crate::flat::hash_unordered), then the wide
    /// cache via [`SparseDirectory::fingerprint`]) into `h` for
    /// model-checking state digests; promotion/demotion counters excluded.
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        use std::hash::Hash;
        crate::flat::hash_unordered(h, self.small.iter().filter(|(_, e)| !e.is_empty()));
        0xa3u8.hash(h); // section separator
        self.wide.fingerprint(h);
    }
}

/// Whether adding one more distinct sharer would overflow the small entry.
fn small_would_overflow(e: &DirEntry, scheme: Scheme) -> bool {
    let i = scheme.pointer_count().expect("limited scheme");
    e.sharer_superset().len() >= i
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 16;

    fn dir(i: usize, wide: usize) -> OverflowDirectory {
        OverflowDirectory::new(i, P, wide, wide.min(2), Replacement::Lru, 9)
    }

    fn sharers(d: &OverflowDirectory, key: u64) -> Vec<NodeId> {
        d.probe(key).map_or(Vec::new(), |e| {
            e.sharer_superset().iter().collect()
        })
    }

    #[test]
    fn small_entries_are_exact_below_i() {
        let mut d = dir(2, 4);
        assert!(matches!(
            d.add_sharer(7, 3, 0, |_| false),
            OverflowAdd::Recorded
        ));
        assert!(matches!(
            d.add_sharer(7, 5, 1, |_| false),
            OverflowAdd::Recorded
        ));
        assert_eq!(sharers(&d, 7), vec![3, 5]);
        assert_eq!(d.stats().promotions, 0);
    }

    #[test]
    fn overflow_promotes_to_wide_full_vector() {
        let mut d = dir(2, 4);
        for n in [1, 2, 3, 4, 5] {
            d.add_sharer(7, n, n as u64, |_| false);
        }
        assert_eq!(sharers(&d, 7), vec![1, 2, 3, 4, 5], "wide entry is exact");
        assert_eq!(d.stats().promotions, 1);
        assert!(d.probe(7).unwrap().is_precise());
    }

    #[test]
    fn duplicate_add_never_promotes() {
        let mut d = dir(2, 4);
        d.add_sharer(7, 1, 0, |_| false);
        d.add_sharer(7, 2, 1, |_| false);
        d.add_sharer(7, 2, 2, |_| false); // already covered
        assert_eq!(d.stats().promotions, 0);
    }

    #[test]
    fn wide_cache_displacement_reports_victim() {
        // 2 wide slots (1 set x 2 ways): promote three different blocks.
        let mut d = OverflowDirectory::new(1, P, 2, 2, Replacement::Lru, 9);
        for key in [10u64, 11, 12] {
            d.add_sharer(key, 1, key, |_| false);
            match d.add_sharer(key, 2, key + 100, |_| false) {
                OverflowAdd::Recorded => assert!(key < 12, "third promotion must displace"),
                OverflowAdd::RecordedDisplacing { victim_key, victim } => {
                    assert_eq!(key, 12);
                    assert_eq!(victim_key, 10, "LRU wide victim");
                    assert_eq!(
                        victim.sharer_superset().iter().collect::<Vec<_>>(),
                        vec![1, 2]
                    );
                }
                OverflowAdd::Evicted(_) => panic!("nothing pinned"),
            }
        }
        assert_eq!(d.stats().displacements, 1);
    }

    #[test]
    fn pinned_wide_set_falls_back_to_pointer_eviction() {
        let mut d = OverflowDirectory::new(1, P, 1, 1, Replacement::Lru, 9);
        // Fill the single wide slot with block 10.
        d.add_sharer(10, 1, 0, |_| false);
        d.add_sharer(10, 2, 1, |_| false);
        // Promote block 11 while everything is pinned.
        d.add_sharer(11, 3, 2, |_| false);
        match d.add_sharer(11, 4, 3, |_| true) {
            OverflowAdd::Evicted(v) => assert_eq!(v, 3, "oldest pointer evicted"),
            o => panic!("expected fallback eviction, got {o:?}"),
        }
        assert_eq!(d.stats().fallback_evictions, 1);
        assert_eq!(sharers(&d, 11), vec![4]);
    }

    #[test]
    fn maintain_demotes_collapsed_wide_entries() {
        let mut d = dir(2, 4);
        for n in [1, 2, 3, 4] {
            d.add_sharer(7, n, n as u64, |_| false);
        }
        assert_eq!(d.stats().promotions, 1);
        // A write collapses the entry to a single owner.
        d.entry_mut(7, 10).make_dirty(3);
        d.maintain(7);
        assert_eq!(d.stats().demotions, 1);
        assert_eq!(sharers(&d, 7), vec![3]);
        // The wide slot is free again: promoting another block fits without
        // displacement.
        for n in [1, 2, 3] {
            d.add_sharer(8, n, 20 + n as u64, |_| false);
        }
        assert_eq!(d.stats().displacements, 0);
    }

    #[test]
    fn maintain_frees_empty_entries() {
        let mut d = dir(2, 4);
        d.add_sharer(7, 1, 0, |_| false);
        d.entry_mut(7, 1).clear();
        d.maintain(7);
        assert_eq!(d.live_entries(), 0);
        assert!(d.probe(7).is_none());
    }
}
