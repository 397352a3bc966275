//! Sparse directories: a set-associative directory *cache* with no backing
//! store (paper §4.2).
//!
//! Main memory is far larger than all processor caches combined, so at any
//! instant most directory entries are empty. A sparse directory keeps only
//! the active entries. When a set fills up, a victim entry is chosen
//! (LRU / random / LRA), all cached copies of the victim block are
//! invalidated, and the slot is reused — no write-back of directory state is
//! ever needed, because state for an uncached block is trivially empty.
//!
//! This module is purely the storage organization; sending the replacement
//! invalidations and collecting acknowledgements is the protocol layer's job
//! (DASH uses the Remote Access Cache for that). [`SparseDirectory::allocate`]
//! therefore *returns* the victim's entry so the caller can compute the
//! invalidation set.

use scd_sim::SimRng;

use crate::entry::DirEntry;
use crate::scheme::Scheme;

/// Replacement policy for conflicting sparse-directory entries (§6.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least-recently-used: replace the entry touched longest ago. Hardest
    /// to implement in hardware, best-performing in the paper.
    Lru,
    /// Uniform random choice. Easiest in hardware; the paper found it beats
    /// LRA.
    Random,
    /// Least-recently-allocated: replace the entry *allocated* first,
    /// regardless of use. Worst of the three in the paper.
    Lra,
}

impl Replacement {
    /// Parses a CLI name: `lru`, `rand` (or `random`), `lra`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lru" => Ok(Replacement::Lru),
            "rand" | "random" => Ok(Replacement::Random),
            "lra" => Ok(Replacement::Lra),
            other => Err(format!("bad replacement policy `{other}` (want lru | rand | lra)")),
        }
    }
}

/// One way of one set.
#[derive(Debug)]
struct Slot {
    /// Key (block identifier) currently resident, if any.
    key: u64,
    valid: bool,
    entry: DirEntry,
    /// Last lookup/update time (LRU).
    last_use: u64,
    /// Allocation time (LRA).
    allocated: u64,
}

crate::clone_fields!(Slot { key, valid, entry, last_use, allocated });

/// Statistics the experiment harness reads off a sparse directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Lookups that found the key resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Allocations satisfied by an invalid (empty) slot.
    pub fills: u64,
    /// Allocations that displaced a live entry (replacement invalidations
    /// were required).
    pub replacements: u64,
}

impl std::ops::AddAssign for SparseStats {
    /// Field-wise sum: how per-home statistics fold into machine-wide
    /// ones (the one place the fields are enumerated).
    fn add_assign(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.fills += o.fills;
        self.replacements += o.replacements;
    }
}

/// Log₂ distance buckets in [`ChurnStats::reref_distance`]; bucket `b`
/// counts re-references at `2^b ..= 2^(b+1)-1` allocations after the
/// eviction (the last bucket saturates).
pub const CHURN_DISTANCE_BUCKETS: usize = 16;

/// Victims the churn tracker remembers at once. Evictions beyond the cap
/// forget their oldest record, so a very late re-reference of a long-ago
/// victim may go uncounted — the bound keeps the tracker O(1) per access
/// whatever the run length.
pub const CHURN_VICTIM_CAP: usize = 4096;

/// Replacement-churn telemetry: how soon displaced victims come back.
///
/// A sparse directory that keeps evicting entries the application is
/// about to touch again (short re-reference distances) is thrashing —
/// its invalidations were pure waste. Gated behind
/// [`SparseDirectory::enable_churn_tracking`] and excluded from
/// [`SparseDirectory::fingerprint`]: pure observation, never behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Replacements observed while tracking was enabled.
    pub replacements: u64,
    /// Allocations of a key that a tracked replacement had evicted.
    pub rerefs: u64,
    /// Re-reference distances (allocations between eviction and return),
    /// log₂-bucketed.
    pub reref_distance: [u64; CHURN_DISTANCE_BUCKETS],
}

impl ChurnStats {
    /// Accumulates `other` (per-home stats into a machine total).
    pub fn merge(&mut self, other: &ChurnStats) {
        self.replacements += other.replacements;
        self.rerefs += other.rerefs;
        for (a, b) in self.reref_distance.iter_mut().zip(other.reref_distance) {
            *a += b;
        }
    }

    fn bucket(distance: u64) -> usize {
        let b = if distance == 0 {
            0
        } else {
            63 - distance.leading_zeros() as usize
        };
        b.min(CHURN_DISTANCE_BUCKETS - 1)
    }
}

/// The gated tracker: a bounded map from evicted key to the allocation
/// clock at eviction time.
#[derive(Debug, Default)]
struct ChurnTracker {
    stats: ChurnStats,
    /// Allocation counter (the distance unit).
    clock: u64,
    evicted_at: crate::flat::FastMap<u64, u64>,
    fifo: std::collections::VecDeque<u64>,
}

crate::clone_fields!(ChurnTracker { stats, clock, evicted_at, fifo });

impl ChurnTracker {
    fn on_access(&mut self, key: u64) {
        self.clock += 1;
        if let Some(t) = self.evicted_at.remove(&key) {
            self.stats.rerefs += 1;
            self.stats.reref_distance[ChurnStats::bucket(self.clock - t)] += 1;
        }
    }

    fn on_replacement(&mut self, victim_key: u64) {
        self.stats.replacements += 1;
        if self.evicted_at.insert(victim_key, self.clock).is_none() {
            self.fifo.push_back(victim_key);
            if self.fifo.len() > CHURN_VICTIM_CAP {
                if let Some(old) = self.fifo.pop_front() {
                    self.evicted_at.remove(&old);
                }
            }
        }
    }
}

/// Result of [`SparseDirectory::allocate`].
pub enum Allocation<'a> {
    /// The key was already resident.
    Hit(&'a mut DirEntry),
    /// An empty slot was filled; entry starts uncached.
    Inserted(&'a mut DirEntry),
    /// A live victim was displaced. The caller must invalidate all cached
    /// copies of `victim_key` (the returned `victim` entry says which
    /// clusters those are). The new `entry` starts uncached.
    Replaced {
        /// Block identifier that lost its directory entry.
        victim_key: u64,
        /// The displaced entry (ownership transferred to the caller).
        victim: DirEntry,
        /// Fresh entry for the requested key.
        entry: &'a mut DirEntry,
    },
}

/// A set-associative sparse directory.
///
/// Keys are abstract block identifiers (the machine layer passes home-local
/// block indices). Indexing is `key % num_sets`, a mask when the set count
/// is a power of two — tags in a real sparse directory are only a few bits
/// because it holds a large fraction of memory blocks (paper §4.2).
pub struct SparseDirectory {
    scheme: Scheme,
    clusters: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two: the set index is then
    /// `key & mask`, sparing every access a 64-bit division.
    set_mask: Option<u64>,
    ways: usize,
    policy: Replacement,
    slots: Vec<Slot>,
    stats: SparseStats,
    /// Victim stream of the random policy (deterministic per seed). It
    /// starts from `seed | 1`, so seeds that differ only in bit 0 share a
    /// stream; ending that aliasing moves `fig13`/`fig14` and belongs with
    /// one run seed for the whole machine (ROADMAP item 3), which waits on
    /// a steady benchmark RSS (item 1(b)): any machine seed but `0x5CD`
    /// tried so far moved `telemetry_replay` from 149.4–149.7 MB to
    /// 169.2–169.6 MB.
    rng: SimRng,
    /// Replacement-churn telemetry; `None` until enabled (zero cost off).
    churn: Option<Box<ChurnTracker>>,
}

crate::clone_fields!(SparseDirectory {
    scheme,
    clusters,
    sets,
    set_mask,
    ways,
    policy,
    slots,
    stats,
    rng,
    churn,
});

impl SparseDirectory {
    /// Creates a sparse directory with `entries` total slots organized as
    /// `entries / ways` sets of `ways` ways.
    ///
    /// # Panics
    /// If `entries` is not a positive multiple of `ways`.
    pub fn new(
        scheme: Scheme,
        clusters: usize,
        entries: usize,
        ways: usize,
        policy: Replacement,
        seed: u64,
    ) -> Self {
        assert!(ways >= 1, "associativity must be at least 1");
        assert!(
            entries >= ways && entries.is_multiple_of(ways),
            "entry count {entries} must be a positive multiple of associativity {ways}"
        );
        let proto = DirEntry::new(scheme, clusters);
        let sets = entries / ways;
        SparseDirectory {
            scheme,
            clusters,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            ways,
            policy,
            slots: vec![
                Slot {
                    key: 0,
                    valid: false,
                    entry: proto,
                    last_use: 0,
                    allocated: 0,
                };
                entries
            ],
            stats: SparseStats::default(),
            rng: SimRng::new(seed | 1),
            churn: None,
        }
    }

    /// Turns on replacement-churn tracking ([`ChurnStats`]). Idempotent;
    /// off by default because the victim map costs a hash probe per
    /// allocation.
    pub fn enable_churn_tracking(&mut self) {
        if self.churn.is_none() {
            self.churn = Some(Box::default());
        }
    }

    /// Churn telemetry, if tracking was enabled.
    pub fn churn_stats(&self) -> Option<ChurnStats> {
        self.churn.as_ref().map(|c| c.stats)
    }

    /// Total number of directory slots.
    pub fn entries(&self) -> usize {
        self.slots.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Directory scheme used for entries.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SparseStats {
        self.stats
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(mask) => key & mask,
            None => key % self.sets as u64,
        } as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `key` without allocating; touches LRU state on hit.
    pub fn lookup(&mut self, key: u64, now: u64) -> Option<&mut DirEntry> {
        let range = self.set_range(key);
        for idx in range {
            if self.slots[idx].valid && self.slots[idx].key == key {
                self.stats.hits += 1;
                self.slots[idx].last_use = now;
                return Some(&mut self.slots[idx].entry);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Read-only probe (no statistics or LRU update).
    pub fn probe(&self, key: u64) -> Option<&DirEntry> {
        self.set_range(key)
            .map(|idx| &self.slots[idx])
            .find(|s| s.valid && s.key == key)
            .map(|s| &s.entry)
    }

    /// Finds or creates the entry for `key`, evicting a victim if the set is
    /// full. See [`Allocation`].
    pub fn allocate(&mut self, key: u64, now: u64) -> Allocation<'_> {
        self.access(key, now, |_| false)
            .unwrap_or_else(|_| unreachable!("no keys pinned, allocation cannot stall"))
    }

    /// Finds or creates the entry for `key` like [`Self::allocate`], but
    /// never victimizes a key for which `pinned` returns true (the protocol
    /// pins blocks with in-flight transactions). If the set is full and
    /// every resident is pinned, nothing changes — no statistics, no
    /// recency — and the set's first resident comes back as the `Err`
    /// blocker: the caller parks the request until it unpins.
    ///
    /// One pass over the set finds a hit or a reclaimable way; only a full
    /// set is scanned again, asking `pinned` about each resident. Nothing
    /// is allocated on any path.
    pub fn access(
        &mut self,
        key: u64,
        now: u64,
        pinned: impl Fn(u64) -> bool,
    ) -> Result<Allocation<'_>, u64> {
        let range = self.set_range(key);
        // A hit, else the first empty way. Empty covers slots whose entry
        // became empty (all copies written back) — the paper notes empty
        // slots are created when caches write back dirty lines.
        let mut free = None;
        let mut hit = None;
        for i in range.clone() {
            let s = &self.slots[i];
            if s.valid && s.key == key {
                hit = Some(i);
                break;
            }
            if free.is_none() && (!s.valid || s.entry.is_empty()) {
                free = Some(i);
            }
        }
        let victim = match (hit, free) {
            (None, None) => {
                let blocker = self.slots[range.start].key;
                Some(self.choose_victim(range.clone(), &pinned).ok_or(blocker)?)
            }
            _ => None,
        };
        if let Some(churn) = &mut self.churn {
            churn.on_access(key);
        }
        if let Some(idx) = hit {
            self.stats.hits += 1;
            let slot = &mut self.slots[idx];
            slot.last_use = now;
            return Ok(Allocation::Hit(&mut slot.entry));
        }
        self.stats.misses += 1;
        if let Some(idx) = free {
            self.stats.fills += 1;
            let slot = &mut self.slots[idx];
            slot.key = key;
            slot.valid = true;
            slot.entry.clear();
            slot.last_use = now;
            slot.allocated = now;
            return Ok(Allocation::Inserted(&mut slot.entry));
        }
        let victim_idx = victim.expect("a full set that did not stall has a victim");
        self.stats.replacements += 1;
        let victim_key = self.slots[victim_idx].key;
        if let Some(churn) = &mut self.churn {
            churn.on_replacement(victim_key);
        }
        let slot = &mut self.slots[victim_idx];
        let mut victim = DirEntry::new(self.scheme, self.clusters);
        std::mem::swap(&mut victim, &mut slot.entry);
        slot.key = key;
        slot.valid = true;
        slot.last_use = now;
        slot.allocated = now;
        Ok(Allocation::Replaced {
            victim_key,
            victim,
            entry: &mut slot.entry,
        })
    }

    /// The way of a full set the policy displaces, skipping pinned keys;
    /// `None` when every resident is pinned. Ties go to the lowest way.
    fn choose_victim(
        &mut self,
        range: std::ops::Range<usize>,
        pinned: impl Fn(u64) -> bool,
    ) -> Option<usize> {
        let eligible = |i: &usize| !pinned(self.slots[*i].key);
        match self.policy {
            Replacement::Lru => range.filter(eligible).min_by_key(|&i| self.slots[i].last_use),
            Replacement::Lra => range.filter(eligible).min_by_key(|&i| self.slots[i].allocated),
            Replacement::Random => {
                let count = range.clone().filter(eligible).count();
                if count == 0 {
                    return None;
                }
                // A plain `%`, not `SimRng::below`: rejection sampling
                // would draw other victims and move `fig13`/`fig14`.
                let off = (self.rng.next_u64() % count as u64) as usize;
                range.filter(|i| !pinned(self.slots[*i].key)).nth(off)
            }
        }
    }

    /// Drops the entry for `key` (used when the protocol empties an entry —
    /// e.g. last copy written back — and wants the slot reusable at once).
    pub fn invalidate_key(&mut self, key: u64) -> bool {
        let range = self.set_range(key);
        for idx in range {
            if self.slots[idx].valid && self.slots[idx].key == key {
                self.slots[idx].valid = false;
                self.slots[idx].entry.clear();
                return true;
            }
        }
        false
    }

    /// Visits every live (valid, non-empty) entry with its key. Iteration
    /// order is slot order — deterministic for a given access history.
    pub fn for_each_live(&self, mut f: impl FnMut(u64, &DirEntry)) {
        for s in &self.slots {
            if s.valid && !s.entry.is_empty() {
                f(s.key, &s.entry);
            }
        }
    }

    /// Number of currently live (valid, non-empty) entries.
    pub fn live_entries(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.valid && !s.entry.is_empty())
            .count()
    }

    /// Hashes the directory's protocol-visible state into `h` for
    /// model-checking state digests.
    ///
    /// Slot *position* is hashed (set/way placement determines future
    /// victims), but absolute `last_use` / `allocated` times are reduced to
    /// their rank within the set: victim selection only ever compares these
    /// times against each other inside one set, so two states whose
    /// recency *orders* agree behave identically even if the clocks differ.
    /// The hit/replacement counters are excluded; the random stream is included
    /// because the random policy's future choices depend on it.
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        let mut valid = 0usize;
        for (i, slot) in self.slots.iter().enumerate().filter(|(_, s)| s.valid) {
            let first_way = i - i % self.ways;
            let set = &self.slots[first_way..first_way + self.ways];
            let rank_of = |time: fn(&Slot) -> u64| {
                set.iter().filter(|s| s.valid && time(s) < time(slot)).count()
            };
            (i, slot.key).hash(h);
            slot.entry.hash(h);
            (rank_of(|s| s.last_use), rank_of(|s| s.allocated)).hash(h);
            valid += 1;
        }
        valid.hash(h);
        if self.policy == Replacement::Random {
            self.rng.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 32;

    fn dir(entries: usize, ways: usize, policy: Replacement) -> SparseDirectory {
        SparseDirectory::new(Scheme::dir_n(), P, entries, ways, policy, 42)
    }

    #[test]
    fn miss_then_hit() {
        let mut d = dir(8, 2, Replacement::Lru);
        assert!(d.lookup(100, 0).is_none());
        match d.allocate(100, 1) {
            Allocation::Inserted(e) => {
                e.add_sharer(3);
            }
            _ => panic!("expected insert"),
        }
        let e = d.lookup(100, 2).expect("resident now");
        assert!(e.sharer_superset().contains(3));
        assert_eq!(d.stats().hits, 1);
        assert_eq!(d.stats().misses, 2);
    }

    #[test]
    fn conflicting_keys_fill_then_replace_lru() {
        // 4 sets x 1 way; keys 0, 4, 8 all map to set 0.
        let mut d = dir(4, 1, Replacement::Lru);
        match d.allocate(0, 10) {
            Allocation::Inserted(e) => {
                e.add_sharer(1);
            }
            _ => panic!(),
        }
        match d.allocate(4, 20) {
            Allocation::Replaced {
                victim_key, victim, ..
            } => {
                assert_eq!(victim_key, 0);
                assert!(victim.sharer_superset().contains(1));
            }
            _ => panic!("direct-mapped conflict must replace"),
        }
        assert!(d.probe(0).is_none());
        assert!(d.probe(4).is_some());
        assert_eq!(d.stats().replacements, 1);
    }

    #[test]
    fn lru_picks_least_recently_used_way() {
        // 1 set x 2 ways.
        let mut d = dir(2, 2, Replacement::Lru);
        match d.allocate(1, 0) {
            Allocation::Inserted(e) => {
                e.add_sharer(0);
            }
            _ => panic!(),
        }
        match d.allocate(2, 1) {
            Allocation::Inserted(e) => {
                e.add_sharer(0);
            }
            _ => panic!(),
        }
        // Touch key 1 so key 2 becomes LRU.
        assert!(d.lookup(1, 5).is_some());
        match d.allocate(3, 6) {
            Allocation::Replaced { victim_key, .. } => assert_eq!(victim_key, 2),
            _ => panic!("full set must replace"),
        }
    }

    #[test]
    fn lra_ignores_recency_of_use() {
        let mut d = dir(2, 2, Replacement::Lra);
        match d.allocate(1, 0) {
            Allocation::Inserted(e) => {
                e.add_sharer(0);
            }
            _ => panic!(),
        }
        match d.allocate(2, 1) {
            Allocation::Inserted(e) => {
                e.add_sharer(0);
            }
            _ => panic!(),
        }
        // Heavy use of key 1 does not protect it under LRA.
        for t in 2..50 {
            assert!(d.lookup(1, t).is_some());
        }
        match d.allocate(3, 50) {
            Allocation::Replaced { victim_key, .. } => {
                assert_eq!(victim_key, 1, "LRA evicts the earliest allocation")
            }
            _ => panic!(),
        }
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut d = SparseDirectory::new(Scheme::dir_n(), P, 4, 4, Replacement::Random, seed);
            for k in 0..4 {
                if let Allocation::Inserted(e) = d.allocate(k, k) {
                    e.add_sharer(0);
                } else {
                    panic!()
                }
            }
            let mut victims = vec![];
            for k in 4..12 {
                if let Allocation::Replaced {
                    victim_key, entry, ..
                } = d.allocate(k, k)
                {
                    // Keep the fresh entry live so the next allocation also
                    // has to replace (empty entries are reclaimed first).
                    entry.add_sharer(0);
                    victims.push(victim_key);
                } else {
                    panic!()
                }
            }
            victims
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn empty_entries_are_reclaimed_before_replacement() {
        let mut d = dir(2, 2, Replacement::Lru);
        match d.allocate(1, 0) {
            Allocation::Inserted(e) => {
                e.add_sharer(4);
            }
            _ => panic!(),
        }
        match d.allocate(2, 1) {
            Allocation::Inserted(e) => {
                e.add_sharer(5);
            }
            _ => panic!(),
        }
        // Key 1's entry empties out (e.g. dirty writeback of the only copy).
        d.lookup(1, 2).unwrap().clear();
        match d.allocate(3, 3) {
            Allocation::Inserted(_) => {}
            _ => panic!("empty entry should be reclaimed without invalidations"),
        }
        assert!(d.probe(2).is_some(), "live entry untouched");
    }

    #[test]
    fn invalidate_key_frees_slot() {
        let mut d = dir(4, 2, Replacement::Lru);
        if let Allocation::Inserted(e) = d.allocate(9, 0) {
            e.add_sharer(1);
        } else {
            panic!()
        }
        assert_eq!(d.live_entries(), 1);
        assert!(d.invalidate_key(9));
        assert!(!d.invalidate_key(9));
        assert_eq!(d.live_entries(), 0);
        assert!(d.probe(9).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn entries_must_be_multiple_of_ways() {
        dir(5, 2, Replacement::Lru);
    }

    #[test]
    fn churn_tracking_counts_rerefs_with_log2_distances() {
        // 4 sets x 1 way; keys 0, 4, 8 conflict in set 0.
        let mut d = dir(4, 1, Replacement::Lru);
        assert_eq!(d.churn_stats(), None, "off by default");
        d.enable_churn_tracking();
        assert_eq!(d.churn_stats(), Some(ChurnStats::default()));

        let live = |d: &mut SparseDirectory, k, t| match d.allocate(k, t) {
            Allocation::Hit(e) | Allocation::Inserted(e) => {
                e.add_sharer(0);
            }
            Allocation::Replaced { entry, .. } => {
                entry.add_sharer(0);
            }
        };
        live(&mut d, 0, 0); // clock 1: insert
        live(&mut d, 4, 1); // clock 2: evicts 0
        live(&mut d, 0, 2); // clock 3: evicts 4, re-refs 0 at distance 1
        live(&mut d, 8, 3); // clock 4: evicts 0
        live(&mut d, 4, 4); // clock 5: evicts 8, re-refs 4 at distance 2
        let c = d.churn_stats().unwrap();
        assert_eq!(c.replacements, 4);
        assert_eq!(c.rerefs, 2);
        assert_eq!(c.reref_distance[0], 1, "distance 1 → bucket 0");
        assert_eq!(c.reref_distance[1], 1, "distance 2 → bucket 1");
        assert_eq!(c.reref_distance[2..].iter().sum::<u64>(), 0);
        assert!(c.rerefs <= c.replacements);
    }

    #[test]
    fn churn_tracking_does_not_perturb_behavior_or_fingerprint() {
        use std::hash::Hasher;
        let run = |track: bool| {
            let mut d = SparseDirectory::new(Scheme::dir_n(), P, 4, 2, Replacement::Random, 9);
            if track {
                d.enable_churn_tracking();
            }
            let mut victims = vec![];
            for k in 0..20u64 {
                match d.allocate(k, k) {
                    Allocation::Hit(e) | Allocation::Inserted(e) => {
                        e.add_sharer(0);
                    }
                    Allocation::Replaced {
                        victim_key, entry, ..
                    } => {
                        entry.add_sharer(0);
                        victims.push(victim_key);
                    }
                }
            }
            let mut h = std::collections::hash_map::DefaultHasher::new();
            d.fingerprint(&mut h);
            (victims, h.finish(), d.stats())
        };
        assert_eq!(run(false), run(true), "telemetry must be invisible");
    }

    #[test]
    fn churn_merge_accumulates_per_home_stats() {
        let mut total = ChurnStats::default();
        let mut a = ChurnStats {
            replacements: 3,
            rerefs: 1,
            ..Default::default()
        };
        a.reref_distance[0] = 1;
        let mut b = ChurnStats {
            replacements: 2,
            rerefs: 2,
            ..Default::default()
        };
        b.reref_distance[0] = 1;
        b.reref_distance[5] = 1;
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.replacements, 5);
        assert_eq!(total.rerefs, 3);
        assert_eq!(total.reref_distance[0], 2);
        assert_eq!(total.reref_distance[5], 1);
    }

    #[test]
    fn churn_victim_map_is_bounded() {
        // Direct-mapped single set: every allocation after the first evicts.
        let mut d = dir(1, 1, Replacement::Lru);
        d.enable_churn_tracking();
        for k in 0..(CHURN_VICTIM_CAP as u64 + 100) {
            match d.allocate(k, k) {
                Allocation::Hit(e) | Allocation::Inserted(e) => {
                    e.add_sharer(0);
                }
                Allocation::Replaced { entry, .. } => {
                    entry.add_sharer(0);
                }
            }
        }
        let c = d.churn.as_ref().unwrap();
        assert!(c.evicted_at.len() <= CHURN_VICTIM_CAP);
        assert_eq!(c.evicted_at.len(), c.fifo.len());
        // Key 0 was evicted long ago and fell off the FIFO: returning to it
        // replaces again (recorded) but the distance is lost, not counted.
        assert_eq!(c.stats.rerefs, 0);
    }

    #[test]
    fn for_each_live_visits_exactly_live_entries() {
        let mut d = dir(8, 2, Replacement::Lru);
        for k in [3u64, 9, 17] {
            if let Allocation::Inserted(e) = d.allocate(k, k) {
                e.add_sharer((k % 4) as u16);
            } else {
                panic!()
            }
        }
        // Empty one entry out; it must not be visited.
        d.lookup(9, 50).unwrap().clear();
        let mut seen = vec![];
        d.for_each_live(|k, e| {
            assert!(!e.is_empty());
            seen.push(k);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 17]);
        assert_eq!(d.live_entries(), 2);
    }

    #[test]
    fn banned_victims_are_skipped() {
        // 1 set x 2 ways, keys 1 and 2 resident, key 1 pinned.
        let mut d = dir(2, 2, Replacement::Lru);
        for k in [1u64, 2] {
            if let Allocation::Inserted(e) = d.allocate(k, k) {
                e.add_sharer(0);
            } else {
                panic!()
            }
        }
        match d.access(3, 10, |k| k == 1) {
            Ok(Allocation::Replaced { victim_key, .. }) => {
                assert_eq!(victim_key, 2, "pinned key 1 must survive")
            }
            _ => panic!("expected replacement of the unpinned way"),
        }
        assert!(d.probe(1).is_some());
    }

    #[test]
    fn fully_pinned_set_stalls() {
        let mut d = dir(2, 2, Replacement::Lru);
        for k in [1u64, 2] {
            if let Allocation::Inserted(e) = d.allocate(k, k) {
                e.add_sharer(0);
            } else {
                panic!()
            }
        }
        let before = d.stats();
        assert!(matches!(d.access(3, 10, |_| true), Err(1)), "blocker is the first way");
        assert_eq!(d.stats(), before, "a stall touches no statistics");
        // Nothing was displaced.
        assert!(d.probe(1).is_some() && d.probe(2).is_some());
    }
}
