//! Property-based tests for the cache substrate: set mapping, LRU
//! behaviour, and the L1/L2 inclusion invariant under arbitrary operation
//! sequences.

use proptest::prelude::*;
use scd_mem::{Cache, CacheHierarchy, CacheStats, Evicted, LineState};
use std::collections::{BTreeMap, HashSet};

#[derive(Clone, Debug)]
enum CacheOp {
    Access(u64),
    Insert(u64, bool), // dirty?
    Invalidate(u64),
    Upgrade(u64),
    Downgrade(u64),
}

fn op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..64).prop_map(CacheOp::Access),
        ((0u64..64), any::<bool>()).prop_map(|(b, d)| CacheOp::Insert(b, d)),
        (0u64..64).prop_map(CacheOp::Invalidate),
        (0u64..64).prop_map(CacheOp::Upgrade),
        (0u64..64).prop_map(CacheOp::Downgrade),
    ]
}

proptest! {
    #[test]
    fn cache_never_exceeds_capacity_or_duplicates(
        ops in prop::collection::vec(op_strategy(), 1..300),
        ways in 1usize..=4,
        sets_log in 0u32..=3,
    ) {
        let blocks = ways << sets_log;
        let mut c = Cache::new(blocks, ways);
        let mut now = 0;
        for op in ops {
            now += 1;
            match op {
                CacheOp::Access(b) => { c.access(b, now); }
                CacheOp::Insert(b, d) => {
                    let st = if d { LineState::Dirty } else { LineState::Shared };
                    c.insert(b, st, now);
                }
                CacheOp::Invalidate(b) => { c.invalidate(b); }
                CacheOp::Upgrade(b) => { c.set_state(b, LineState::Dirty); }
                CacheOp::Downgrade(b) => { c.set_state(b, LineState::Shared); }
            }
            prop_assert!(c.occupancy() <= blocks);
            let resident: Vec<u64> = c.resident().map(|(b, _)| b).collect();
            let unique: HashSet<u64> = resident.iter().copied().collect();
            prop_assert_eq!(unique.len(), resident.len(), "duplicate lines");
        }
    }

    #[test]
    fn hierarchy_inclusion_holds_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let mut h = CacheHierarchy::new(4, 1, 16, 2);
        let mut now = 0;
        for op in ops {
            now += 1;
            match op {
                CacheOp::Access(b) => {
                    let hit = h.access(b, now);
                    // An access that hits must agree with the probe.
                    if let Some(s) = hit.state() {
                        prop_assert_eq!(h.probe(b), Some(s));
                    }
                }
                CacheOp::Insert(b, d) => {
                    let st = if d { LineState::Dirty } else { LineState::Shared };
                    h.fill(b, st, now);
                }
                CacheOp::Invalidate(b) => { h.invalidate(b); }
                CacheOp::Upgrade(b) => { h.upgrade(b); }
                CacheOp::Downgrade(b) => { h.downgrade(b); }
            }
        }
        // Inclusion: anything in the L1 is in the L2 in the same state —
        // exercised implicitly; verify via access on every block.
        for b in 0..64 {
            if let Some(s) = h.probe(b) {
                // L2 has it; L1 may or may not, but an access must return
                // the same state either way.
                prop_assert_eq!(h.access(b, now + 1 + b).state(), Some(s));
            }
        }
    }

    #[test]
    fn lru_victim_is_least_recent(accesses in prop::collection::vec(0u64..8, 8..60)) {
        // Single-set cache of 4 ways over 8 possible blocks.
        let mut c = Cache::new(4, 4);
        let mut now = 0;
        let mut last_use: std::collections::HashMap<u64, u64> = Default::default();
        for b in accesses {
            now += 1;
            if c.access(b, now).is_none() {
                let before: Vec<u64> = c.resident().map(|(x, _)| x).collect();
                if let Some(ev) = c.insert(b, LineState::Shared, now) {
                    // The evicted line must have the minimal last-use among
                    // residents before insertion.
                    let min = before
                        .iter()
                        .map(|x| last_use.get(x).copied().unwrap_or(0))
                        .min()
                        .unwrap();
                    prop_assert_eq!(last_use.get(&ev.block).copied().unwrap_or(0), min);
                }
            }
            last_use.insert(b, now);
        }
    }

    /// The one-array cache against a model that keeps each set as a
    /// `BTreeMap` from block to `(state, last use)` and evicts the least
    /// recently used: same answers, evictions, statistics and residents,
    /// for 1/2/4-way caches with masked (power-of-two) and remainder
    /// (other) set counts.
    #[test]
    fn cache_matches_a_map_per_set_lru_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
        ways_idx in 0usize..3,
        sets_idx in 0usize..6,
    ) {
        let ways = [1, 2, 4][ways_idx];
        let sets = [1, 2, 3, 4, 5, 8][sets_idx];
        let mut c = Cache::new(sets * ways, ways);
        let mut model = LruModel::new(sets, ways);
        // Every operation has its own time, so LRU never sees a tie.
        for (now, op) in (1u64..).zip(ops) {
            match op {
                CacheOp::Access(b) => prop_assert_eq!(c.access(b, now), model.access(b, now)),
                CacheOp::Insert(b, d) => {
                    let st = if d { LineState::Dirty } else { LineState::Shared };
                    prop_assert_eq!(c.insert(b, st, now), model.insert(b, st, now));
                }
                CacheOp::Invalidate(b) => prop_assert_eq!(c.invalidate(b), model.invalidate(b)),
                CacheOp::Upgrade(b) => {
                    prop_assert_eq!(c.set_state(b, LineState::Dirty), model.set_state(b, LineState::Dirty));
                }
                CacheOp::Downgrade(b) => {
                    prop_assert_eq!(c.set_state(b, LineState::Shared), model.set_state(b, LineState::Shared));
                }
            }
            prop_assert_eq!(c.stats(), model.stats);
            let mut resident: Vec<_> = c.resident().collect();
            resident.sort_unstable();
            prop_assert_eq!(resident, model.resident());
            for b in 0..64 {
                prop_assert_eq!(c.probe(b), model.probe(b));
            }
        }
    }
}

/// Reference LRU cache: set `block % sets` is a map from block to its
/// state and last use, holding at most `ways` lines.
struct LruModel {
    sets: Vec<BTreeMap<u64, (LineState, u64)>>,
    ways: usize,
    stats: CacheStats,
}

impl LruModel {
    fn new(sets: usize, ways: usize) -> Self {
        LruModel { sets: vec![BTreeMap::new(); sets], ways, stats: CacheStats::default() }
    }

    fn set(&mut self, block: u64) -> &mut BTreeMap<u64, (LineState, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    fn probe(&self, block: u64) -> Option<LineState> {
        let n = self.sets.len() as u64;
        self.sets[(block % n) as usize].get(&block).map(|&(state, _)| state)
    }

    fn access(&mut self, block: u64, now: u64) -> Option<LineState> {
        let hit = self.set(block).get_mut(&block).map(|line| {
            line.1 = now;
            line.0
        });
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    fn insert(&mut self, block: u64, state: LineState, now: u64) -> Option<Evicted> {
        let ways = self.ways;
        let set = self.set(block);
        let victim = if set.contains_key(&block) || set.len() < ways {
            None
        } else {
            let (&lru, _) = set.iter().min_by_key(|(_, &(_, used))| used).expect("a full set");
            let (state, _) = set.remove(&lru).expect("resident");
            Some(Evicted { block: lru, state })
        };
        set.insert(block, (state, now));
        if let Some(ev) = victim {
            self.stats.evictions += 1;
            if ev.state == LineState::Dirty {
                self.stats.dirty_evictions += 1;
            }
        }
        victim
    }

    fn set_state(&mut self, block: u64, state: LineState) -> bool {
        self.set(block).get_mut(&block).map(|line| line.0 = state).is_some()
    }

    fn invalidate(&mut self, block: u64) -> Option<LineState> {
        let gone = self.set(block).remove(&block).map(|(state, _)| state);
        if gone.is_some() {
            self.stats.invalidations += 1;
        }
        gone
    }

    fn resident(&self) -> Vec<(u64, LineState)> {
        let mut all: Vec<_> = self.sets.iter().flatten().map(|(&b, &(s, _))| (b, s)).collect();
        all.sort_unstable();
        all
    }
}
