//! A single set-associative cache with LRU replacement.

use crate::Block;

/// Coherence state of a cached line.
///
/// DASH's inter-cluster protocol distinguishes clean-shared copies from a
/// single dirty (exclusive, modified) copy, so the cache model uses the same
/// three states (an MSI view of MESI; exclusive-clean is folded into
/// `Shared`, which only costs an ownership request on the first write — the
/// protocol crate accounts for it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Present, clean; other caches may also hold copies.
    Shared,
    /// Present, modified; this is the only valid copy in the machine.
    Dirty,
}

/// A line displaced by [`Cache::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced block.
    pub block: Block,
    /// Its state at eviction: `Dirty` means the caller must write it back.
    pub state: LineState,
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines displaced to make room (any state).
    pub evictions: u64,
    /// Dirty lines displaced (require writeback).
    pub dirty_evictions: u64,
    /// Lines removed by external invalidation.
    pub invalidations: u64,
}

/// The line word of a [`Cache`] way: the block number above two state bits.
/// Zero is "no line here", so a cache built from zeroed vectors is empty.
const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;
const INVALID: u64 = 0;

fn encode(block: Block, state: LineState) -> u64 {
    let code = match state {
        LineState::Shared => 1,
        LineState::Dirty => 2,
    };
    block << STATE_BITS | code
}

fn decode(line: u64) -> Option<(Block, LineState)> {
    let state = match line & STATE_MASK {
        INVALID => return None,
        1 => LineState::Shared,
        _ => LineState::Dirty,
    };
    Some((line >> STATE_BITS, state))
}

/// A set-associative, LRU-replaced cache keyed by block number.
///
/// Way `w` of set `s` is `ways[s * ways + w]`: the line (block and state
/// in one word) beside its last use, so a set's lookup and its LRU update
/// read the same host cache lines. The vector starts zeroed, which the
/// allocator hands out as untouched zero pages: building a cache writes
/// nothing, and a set's memory is first touched when the set is first
/// used.
#[derive(Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two: the set index is then
    /// `block & mask`, sparing every probe a 64-bit division.
    set_mask: Option<u64>,
    /// `[line, last_use]` per way.
    slots: Vec<[u64; 2]>,
    stats: CacheStats,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            slots: self.slots.clone(),
            ..*self
        }
    }

    /// Copies the slots into `self`'s vector, which a cache of the same
    /// geometry reuses without allocating.
    fn clone_from(&mut self, source: &Self) {
        let Cache {
            sets,
            ways,
            set_mask,
            slots,
            stats,
        } = self;
        *sets = source.sets;
        *ways = source.ways;
        *set_mask = source.set_mask;
        slots.clone_from(&source.slots);
        *stats = source.stats;
    }
}

impl Cache {
    /// Creates a cache holding `blocks` lines with the given associativity.
    ///
    /// # Panics
    /// If `blocks` is not a positive multiple of `ways`.
    pub fn new(blocks: usize, ways: usize) -> Self {
        assert!(ways >= 1);
        assert!(
            blocks >= ways && blocks.is_multiple_of(ways),
            "capacity {blocks} must be a positive multiple of associativity {ways}"
        );
        let sets = blocks / ways;
        Cache {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            slots: vec![[INVALID, 0]; blocks],
            stats: CacheStats::default(),
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, block: Block) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(mask) => block & mask,
            None => block % self.sets as u64,
        } as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// The slot holding `block` and the state it is held in, if resident:
    /// each way is one compare of its tag bits, and only the hit decodes
    /// its state.
    fn find(&self, block: Block) -> Option<(usize, LineState)> {
        let range = self.set_range(block);
        let start = range.start;
        let way = self.slots[range]
            .iter()
            .position(|&[line, _]| line >> STATE_BITS == block && line != INVALID)?;
        let (_, state) = decode(self.slots[start + way][0])?;
        Some((start + way, state))
    }

    /// Looks `block` up, updating LRU and hit/miss counters.
    pub fn access(&mut self, block: Block, now: u64) -> Option<LineState> {
        match self.find(block) {
            Some((idx, state)) => {
                self.slots[idx][1] = now;
                self.stats.hits += 1;
                Some(state)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// State of `block` without touching LRU or statistics.
    pub fn probe(&self, block: Block) -> Option<LineState> {
        self.find(block).map(|(_, state)| state)
    }

    /// Inserts (or updates) `block` with `state`; returns the displaced line
    /// if an eviction was needed.
    ///
    /// # Panics
    /// If `block` does not fit beside the state bits of a line (block
    /// numbers of 2^62 and up).
    pub fn insert(&mut self, block: Block, state: LineState, now: u64) -> Option<Evicted> {
        assert!(
            block >> (u64::BITS - STATE_BITS) == 0,
            "block {block} too large for a cache line tag"
        );
        let range = self.set_range(block);
        // Update in place if present; else an empty way; else evict LRU.
        let (idx, evicted) = if let Some((idx, _)) = self.find(block) {
            (idx, None)
        } else if let Some(idx) = range.clone().find(|&i| self.slots[i][0] == INVALID) {
            (idx, None)
        } else {
            let victim = range
                .min_by_key(|&i| self.slots[i][1])
                .expect("non-zero associativity");
            let (block, state) = decode(self.slots[victim][0]).expect("a full set holds lines");
            self.stats.evictions += 1;
            if state == LineState::Dirty {
                self.stats.dirty_evictions += 1;
            }
            (victim, Some(Evicted { block, state }))
        };
        self.slots[idx] = [encode(block, state), now];
        evicted
    }

    /// Changes the state of a resident block; returns `false` if absent.
    pub fn set_state(&mut self, block: Block, state: LineState) -> bool {
        match self.find(block) {
            Some((idx, _)) => {
                self.slots[idx][0] = encode(block, state);
                true
            }
            None => false,
        }
    }

    /// Removes `block`; returns its state if it was present.
    pub fn invalidate(&mut self, block: Block) -> Option<LineState> {
        let (idx, state) = self.find(block)?;
        self.slots[idx][0] = INVALID;
        self.stats.invalidations += 1;
        Some(state)
    }

    /// Number of valid lines (for occupancy assertions in tests).
    pub fn occupancy(&self) -> usize {
        self.resident().count()
    }

    /// Iterates over all resident blocks and their states.
    pub fn resident(&self) -> impl Iterator<Item = (Block, LineState)> + '_ {
        self.slots.iter().filter_map(|&[line, _]| decode(line))
    }

    /// Hashes the cache's protocol-visible state into `h` for
    /// model-checking state digests: every occupied slot's position and
    /// line word (block and state), then the number of occupied slots.
    /// Absolute `last_use` times are reduced to their rank within the set
    /// — LRU victim selection only ever compares them inside one set, so
    /// recency *order* is the behaviorally relevant part. Hit/miss counters
    /// are excluded.
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        let mut occupied = 0;
        for (i, &[line, used]) in self.slots.iter().enumerate() {
            if line == INVALID {
                continue;
            }
            let first_way = i - i % self.ways;
            let rank = self.slots[first_way..first_way + self.ways]
                .iter()
                .filter(|&&[other, other_used]| other != INVALID && other_used < used)
                .count();
            h.write_usize(i);
            h.write_u64(line);
            h.write_usize(rank);
            occupied += 1;
        }
        h.write_usize(occupied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(8, 2);
        assert_eq!(c.access(5, 0), None);
        assert_eq!(c.insert(5, LineState::Shared, 1), None);
        assert_eq!(c.access(5, 2), Some(LineState::Shared));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_coldest_way() {
        // 1 set x 2 ways: blocks 0 and 4... use sets=1: capacity 2 ways 2.
        let mut c = Cache::new(2, 2);
        assert!(c.insert(10, LineState::Shared, 0).is_none());
        assert!(c.insert(20, LineState::Shared, 1).is_none());
        c.access(10, 5); // 20 is now LRU
        let ev = c.insert(30, LineState::Shared, 6).expect("full set evicts");
        assert_eq!(ev.block, 20);
        assert_eq!(c.probe(10), Some(LineState::Shared));
        assert_eq!(c.probe(20), None);
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut c = Cache::new(1, 1);
        c.insert(1, LineState::Dirty, 0);
        let ev = c.insert(2, LineState::Shared, 1).unwrap();
        assert_eq!(
            ev,
            Evicted {
                block: 1,
                state: LineState::Dirty
            }
        );
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = Cache::new(2, 2);
        c.insert(7, LineState::Shared, 0);
        assert!(c.insert(7, LineState::Dirty, 1).is_none());
        assert_eq!(c.probe(7), Some(LineState::Dirty));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = Cache::new(4, 2);
        c.insert(9, LineState::Dirty, 0);
        assert!(c.set_state(9, LineState::Shared));
        assert_eq!(c.probe(9), Some(LineState::Shared));
        assert_eq!(c.invalidate(9), Some(LineState::Shared));
        assert_eq!(c.invalidate(9), None);
        assert!(!c.set_state(9, LineState::Dirty));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn conflict_misses_respect_set_mapping() {
        // 4 sets x 1 way: blocks 0,4,8 conflict; 1 does not.
        let mut c = Cache::new(4, 1);
        c.insert(0, LineState::Shared, 0);
        c.insert(1, LineState::Shared, 1);
        let ev = c.insert(4, LineState::Shared, 2).unwrap();
        assert_eq!(ev.block, 0);
        assert_eq!(c.probe(1), Some(LineState::Shared), "other set untouched");
        // 3 sets (not a power of two: indexed by remainder, not by mask).
        let mut c = Cache::new(3, 1);
        c.insert(0, LineState::Shared, 0);
        c.insert(4, LineState::Shared, 1);
        assert_eq!(c.insert(3, LineState::Shared, 2).unwrap().block, 0);
        assert_eq!(c.probe(4), Some(LineState::Shared), "other set untouched");
    }

    #[test]
    fn a_new_cache_is_empty_even_for_block_zero() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.probe(0), None, "a zeroed slot is not block 0");
        assert_eq!(c.invalidate(0), None);
        c.insert(0, LineState::Dirty, 0);
        assert_eq!(c.probe(0), Some(LineState::Dirty));
        assert_eq!(
            c.resident().collect::<Vec<_>>(),
            vec![(0, LineState::Dirty)]
        );
    }

    #[test]
    #[should_panic(expected = "too large for a cache line tag")]
    fn blocks_that_would_spill_into_the_state_bits_are_refused() {
        Cache::new(4, 2).insert(1 << 62, LineState::Shared, 0);
    }

    #[test]
    fn resident_enumeration() {
        let mut c = Cache::new(4, 4);
        c.insert(1, LineState::Shared, 0);
        c.insert(2, LineState::Dirty, 1);
        let mut got: Vec<_> = c.resident().collect();
        got.sort();
        assert_eq!(got, vec![(1, LineState::Shared), (2, LineState::Dirty)]);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn bad_geometry_panics() {
        Cache::new(6, 4);
    }
}
