//! Property-based tests for the directory schemes and sparse organization.
//!
//! The key invariants the paper's correctness rests on:
//!
//! 1. Every scheme's representation is a **superset** of the true sharer
//!    set (except `Dir_i NB`, where the true set is trimmed by evictions
//!    and the representation is exact).
//! 2. Invalidation targets never include the writer.
//! 3. With at most `i` sharers, the limited schemes are exact.
//! 4. Sparse directories never exceed capacity and never displace without
//!    reporting the victim.
//! 5. The complete directory's key-indexed table behaves like the ordered
//!    map of its live entries, however far apart the keys lie.

use proptest::prelude::*;
use scd_core::{
    AddSharer, DirEntry, DirectoryStore, EntryAccess, NodeSet, Organization, RecordSharer,
    Replacement, Scheme, SparseDirectory,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

const P: usize = 32;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::FullVector),
        (1usize..=8).prop_map(Scheme::dir_b),
        (1usize..=8).prop_map(Scheme::dir_nb),
        (2usize..=8).prop_map(Scheme::dir_x),
        ((1usize..=8), (1usize..=8)).prop_map(|(i, r)| Scheme::dir_cv(i, r)),
    ]
}

fn sharer_seq() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..P as u16, 0..64)
}

/// Replays a sharer-insertion sequence, maintaining the ground-truth set
/// (honouring NB evictions).
fn replay(scheme: Scheme, seq: &[u16]) -> (DirEntry, HashSet<u16>) {
    let mut e = DirEntry::new(scheme, P);
    let mut truth = HashSet::new();
    for &n in seq {
        match e.add_sharer(n) {
            AddSharer::Recorded => {
                truth.insert(n);
            }
            AddSharer::Evict(v) => {
                truth.remove(&v);
                truth.insert(n);
            }
        }
    }
    (e, truth)
}

/// Keys for the complete-store model test: a dense run from zero plus a
/// few far-apart ones, so the table both fills and grows in jumps.
fn store_key(idx: u64) -> u64 {
    const FAR: [u64; 6] = [97, 300, 1_000, 2_000, 3_000, 4_099];
    if idx < 12 {
        idx
    } else {
        FAR[(idx - 12) as usize]
    }
}

/// What `DirectoryStore::fingerprint` is documented to hash for a complete
/// directory: a tag, then every live entry in key order.
fn model_fingerprint(model: &BTreeMap<u64, DirEntry>) -> u64 {
    let mut h = DefaultHasher::new();
    0u8.hash(&mut h);
    for (k, e) in model.iter().filter(|(_, e)| !e.is_empty()) {
        k.hash(&mut h);
        e.hash(&mut h);
    }
    h.finish()
}

proptest! {
    // Every step compares whole tables, so fewer (long) cases than default.
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn complete_store_behaves_like_an_ordered_map(
        scheme in scheme_strategy(),
        ops in prop::collection::vec((0u8..6, 0u64..18, 0u16..P as u16), 0..200),
    ) {
        let mut store = DirectoryStore::new(scheme, P, Organization::Complete, 1);
        let mut model: BTreeMap<u64, DirEntry> = BTreeMap::new();
        let materialize = |store: &mut DirectoryStore, key| match store.entry_mut(key, 0, |_| false) {
            EntryAccess::Ready(_) => {}
            _ => panic!("a complete store never displaces or stalls"),
        };
        for (op, idx, node) in ops {
            let key = store_key(idx);
            match op {
                // Materialize only (leaves an empty entry behind, as a
                // request that ends up recording nobody does).
                0 => {
                    materialize(&mut store, key);
                    model.entry(key).or_insert_with(|| DirEntry::new(scheme, P));
                }
                // A reader joins (through the store's overflow policy).
                1 => {
                    materialize(&mut store, key);
                    let e = model.entry(key).or_insert_with(|| DirEntry::new(scheme, P));
                    if e.is_dirty() {
                        e.make_shared(&[node]);
                        store.lookup_mut(key, 0).expect("materialized").make_shared(&[node]);
                    } else {
                        let got = store.record_sharer(key, node, 0, |_| false);
                        match (e.add_sharer(node), got) {
                            (AddSharer::Recorded, RecordSharer::Recorded) => {}
                            (AddSharer::Evict(a), RecordSharer::Evict(b)) => prop_assert_eq!(a, b),
                            (want, got) => prop_assert!(false, "model {want:?}, store {got:?}"),
                        }
                    }
                }
                // A writer takes ownership.
                2 => {
                    materialize(&mut store, key);
                    store.lookup_mut(key, 0).expect("materialized").make_dirty(node);
                    model
                        .entry(key)
                        .or_insert_with(|| DirEntry::new(scheme, P))
                        .make_dirty(node);
                }
                // A sharer leaves / the entry empties, without allocating.
                3 | 4 => {
                    let (got, want) = (store.lookup_mut(key, 0), model.get_mut(&key));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        if op == 3 {
                            prop_assert_eq!(got.remove_sharer(node), want.remove_sharer(node));
                        } else {
                            got.clear();
                            want.clear();
                        }
                    }
                }
                // The protocol's housekeeping after every mutation.
                _ => {
                    store.release_if_empty(key);
                    if model.get(&key).is_some_and(DirEntry::is_empty) {
                        model.remove(&key);
                    }
                }
            }
            for k in [key, store_key(17), 5_000] {
                prop_assert_eq!(store.probe(k), model.get(&k), "probe({})", k);
            }
            let live: Vec<(u64, DirEntry)> = model
                .iter()
                .filter(|(_, e)| !e.is_empty())
                .map(|(&k, e)| (k, e.clone()))
                .collect();
            prop_assert_eq!(store.live_entries(), live.len());
            let mut visited = Vec::new();
            store.for_each_live(|k, e| visited.push((k, e.clone())));
            visited.sort_by_key(|&(k, _)| k);
            prop_assert_eq!(visited, live);
            let mut h = DefaultHasher::new();
            store.fingerprint(&mut h);
            prop_assert_eq!(h.finish(), model_fingerprint(&model));
        }
    }
}

proptest! {
    #[test]
    fn superset_invariant(scheme in scheme_strategy(), seq in sharer_seq()) {
        let (e, truth) = replay(scheme, &seq);
        let sup = e.sharer_superset();
        let mut reused = NodeSet::full(3);
        e.sharer_superset_into(&mut reused);
        prop_assert_eq!(&reused, &sup, "refilling a used set");
        for &n in &truth {
            prop_assert!(sup.contains(n), "{scheme:?}: true sharer {n} uncovered");
            prop_assert!(e.covers(n));
        }
    }

    #[test]
    fn nb_is_exact_and_bounded(i in 1usize..=8, seq in sharer_seq()) {
        let scheme = Scheme::dir_nb(i);
        let (e, truth) = replay(scheme, &seq);
        let sup: HashSet<u16> = e.sharer_superset().iter().collect();
        prop_assert_eq!(&sup, &truth, "NB representation must be exact");
        prop_assert!(sup.len() <= i, "never more than i sharers under NB");
    }

    #[test]
    fn exact_below_pointer_count(scheme in scheme_strategy(), seq in sharer_seq()) {
        let distinct: HashSet<u16> = seq.iter().copied().collect();
        let i = scheme.pointer_count().unwrap_or(usize::MAX);
        prop_assume!(distinct.len() <= i);
        let (e, truth) = replay(scheme, &seq);
        let sup: HashSet<u16> = e.sharer_superset().iter().collect();
        prop_assert_eq!(sup, truth, "{:?} must be exact below overflow", scheme);
        prop_assert!(e.is_precise());
    }

    #[test]
    fn writer_excluded_from_targets(
        scheme in scheme_strategy(),
        seq in sharer_seq(),
        writer in 0u16..P as u16,
    ) {
        let (e, _) = replay(scheme, &seq);
        prop_assert!(!e.invalidation_targets(writer).contains(writer));
    }

    #[test]
    fn make_dirty_collapses_to_owner(
        scheme in scheme_strategy(),
        seq in sharer_seq(),
        owner in 0u16..P as u16,
    ) {
        let (mut e, _) = replay(scheme, &seq);
        e.make_dirty(owner);
        prop_assert!(e.is_dirty());
        prop_assert_eq!(e.owner(), Some(owner));
        prop_assert_eq!(e.sharer_superset().len(), 1);
        prop_assert!(e.is_precise());
    }

    #[test]
    fn clear_is_total(scheme in scheme_strategy(), seq in sharer_seq()) {
        let (mut e, _) = replay(scheme, &seq);
        e.clear();
        prop_assert!(e.is_empty());
        prop_assert!(e.sharer_superset().is_empty());
    }

    #[test]
    fn waiter_groups_partition_precise_waiters(
        scheme in scheme_strategy(),
        seq in sharer_seq(),
    ) {
        // Draining the waiter queue yields every true waiter at least once
        // and terminates.
        let (mut e, truth) = replay(scheme, &seq);
        let mut drained = HashSet::new();
        for _ in 0..P + 2 {
            let g = e.take_first_waiter_group();
            if g.is_empty() {
                break;
            }
            for n in g.iter() {
                drained.insert(n);
            }
        }
        prop_assert!(e.take_first_waiter_group().is_empty(), "queue must drain");
        for n in truth {
            prop_assert!(drained.contains(&n), "waiter {n} lost");
        }
    }

    #[test]
    fn nodeset_behaves_like_hashset(ops in prop::collection::vec((0u16..128, any::<bool>()), 0..200)) {
        let mut ns = NodeSet::new(128);
        let mut hs: HashSet<u16> = HashSet::new();
        for (n, insert) in ops {
            if insert {
                prop_assert_eq!(ns.insert(n), hs.insert(n));
            } else {
                prop_assert_eq!(ns.remove(n), hs.remove(&n));
            }
        }
        prop_assert_eq!(ns.len(), hs.len());
        let mut from_ns: Vec<u16> = ns.iter().collect();
        let mut from_hs: Vec<u16> = hs.into_iter().collect();
        from_ns.sort_unstable();
        from_hs.sort_unstable();
        prop_assert_eq!(from_ns, from_hs);
    }

    #[test]
    fn sparse_directory_respects_capacity(
        keys in prop::collection::vec(0u64..64, 1..300),
        ways in 1usize..=4,
        sets in 1usize..=4,
        policy_idx in 0usize..3,
    ) {
        let policy = [Replacement::Lru, Replacement::Random, Replacement::Lra][policy_idx];
        let entries = ways * sets;
        let mut sd = SparseDirectory::new(Scheme::FullVector, P, entries, ways, policy, 7);
        let mut resident: HashSet<u64> = HashSet::new();
        for (t, &k) in keys.iter().enumerate() {
            match sd.allocate(k, t as u64) {
                scd_core::sparse::Allocation::Hit(e) | scd_core::sparse::Allocation::Inserted(e) => {
                    e.add_sharer((k % P as u64) as u16);
                    resident.insert(k);
                }
                scd_core::sparse::Allocation::Replaced { victim_key, entry, .. } => {
                    prop_assert!(resident.remove(&victim_key), "victim {victim_key} not resident");
                    entry.add_sharer((k % P as u64) as u16);
                    resident.insert(k);
                }
            }
            prop_assert!(sd.live_entries() <= entries);
            // Everything we believe resident is findable.
            for &r in &resident {
                prop_assert!(sd.probe(r).is_some(), "lost key {r}");
            }
        }
    }

    /// The single-pass `access` against the three-call sequence it
    /// replaced (`would_stall`, then the first pinned resident as the
    /// blocker, then `allocate_excluding`), kept below as [`OldSparse`]:
    /// same outcomes, blockers, victims, residents and statistics under
    /// every policy, for power-of-two (masked) and other set counts.
    #[test]
    fn sparse_access_matches_the_three_pass_sequence(
        ops in prop::collection::vec((0u8..8, 0u64..32, any::<u32>(), 0u16..P as u16), 1..400),
        ways in 1usize..=4,
        sets in 1usize..=6,
        policy_idx in 0usize..3,
    ) {
        let policy = [Replacement::Lru, Replacement::Random, Replacement::Lra][policy_idx];
        let scheme = Scheme::dir_cv(2, 4);
        let mut new = SparseDirectory::new(scheme, P, sets * ways, ways, policy, 11);
        let mut old = OldSparse::new(scheme, P, sets * ways, ways, policy, 11);
        for (t, &(op, key, pins, node)) in ops.iter().enumerate() {
            let t = t as u64;
            // Pin keys by a bitmask over the 32-key universe.
            let pinned = |k: u64| pins >> (k % 32) & 1 == 1;
            match op {
                // Mostly allocations, with lookups and drops mixed in.
                0..=4 => {
                    let got = match new.access(key, t, pinned) {
                        Err(blocker) => (Outcome::Stalled(blocker), None),
                        Ok(scd_core::sparse::Allocation::Hit(e)) => (Outcome::Hit, Some(e)),
                        Ok(scd_core::sparse::Allocation::Inserted(e)) => (Outcome::Inserted, Some(e)),
                        Ok(scd_core::sparse::Allocation::Replaced { victim_key, victim, entry }) => {
                            (Outcome::Replaced(victim_key, victim), Some(entry))
                        }
                    };
                    let want = old.access(key, t, pinned);
                    prop_assert_eq!(&got.0, &want.0);
                    // The same protocol action on both: add a sharer, or
                    // (one time in five) empty the entry out.
                    for e in [got.1, want.1.and_then(|i| old.entry_mut(i))].into_iter().flatten() {
                        if node % 5 == 0 {
                            e.clear();
                        } else {
                            let _ = e.add_sharer(node);
                        }
                    }
                }
                5 | 6 => {
                    let got = new.lookup(key, t).cloned();
                    prop_assert_eq!(got, old.lookup(key, t));
                }
                _ => prop_assert_eq!(new.invalidate_key(key), old.invalidate_key(key)),
            }
            prop_assert_eq!(new.stats(), old.stats);
            for k in 0..32 {
                prop_assert_eq!(new.probe(k), old.probe(k));
            }
        }
    }

    #[test]
    fn overhead_is_monotone_in_sparsity(clusters in 1usize..=256, log_s in 0u32..=8) {
        let spec = scd_core::MachineSpec::paper_defaults(clusters.max(1));
        let s1 = 1u64 << log_s;
        let r1 = scd_core::overhead(&spec, &scd_core::DirectoryChoice {
            scheme: Scheme::FullVector, sparsity: s1,
        });
        let r2 = scd_core::overhead(&spec, &scd_core::DirectoryChoice {
            scheme: Scheme::FullVector, sparsity: s1 * 2,
        });
        prop_assert!(r2.total_bits <= r1.total_bits, "more sparsity, less memory");
    }
}

// ---------------------------------------------------------------------------
// NodeSet word-level helpers vs a bit-by-bit `contains()` oracle.
//
// The machine's fanout loops moved from per-bit iteration to the word-level
// `for_each_member`/`rank`/`select` helpers, so these must agree with the
// naive scan on arbitrary universes — including the out-of-universe masking
// semantics (ids >= capacity are never members, in debug and release).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn node_set_word_iteration_matches_contains_scan(
        capacity in 1usize..=256,
        // Draw ids past the universe on purpose: they must be masked.
        inserts in prop::collection::vec(0u16..300, 0..120),
        removes in prop::collection::vec(0u16..300, 0..40),
    ) {
        let mut s = NodeSet::new(capacity);
        for &n in &inserts {
            s.insert(n);
        }
        for &n in &removes {
            s.remove(n);
        }

        // Oracle: the member list according to bit-by-bit `contains`,
        // scanned well past the universe to catch phantom tail bits.
        let mut oracle = Vec::new();
        for n in 0..(capacity as u16 + 70) {
            if s.contains(n) {
                oracle.push(n);
            }
        }
        prop_assert!(oracle.iter().all(|&n| (n as usize) < capacity));

        let via_iter: Vec<u16> = s.iter().collect();
        prop_assert_eq!(&via_iter, &oracle);

        let mut via_words = Vec::new();
        s.for_each_member(|n| via_words.push(n));
        prop_assert_eq!(&via_words, &oracle);

        // Raw words: tail bits beyond capacity are always zero.
        let rebuilt: Vec<u16> = s
            .words()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| (i * 64 + b) as u16))
            .collect();
        prop_assert_eq!(&rebuilt, &oracle);

        prop_assert_eq!(s.len(), oracle.len());
    }

    #[test]
    fn node_set_rank_select_match_contains_scan(
        capacity in 1usize..=256,
        inserts in prop::collection::vec(0u16..300, 0..120),
    ) {
        let mut s = NodeSet::new(capacity);
        for &n in &inserts {
            s.insert(n);
        }
        let oracle: Vec<u16> =
            (0..capacity as u16).filter(|&n| s.contains(n)).collect();

        // rank(n) == |{m in set : m < n}| for every probe, in and out of
        // the universe.
        for probe in 0..(capacity as u16 + 70) {
            let expect = oracle.iter().filter(|&&m| m < probe).count();
            prop_assert_eq!(s.rank(probe), expect, "rank({}) wrong", probe);
        }

        // select is the inverse of rank on the member list.
        for (k, &m) in oracle.iter().enumerate() {
            prop_assert_eq!(s.select(k), Some(m));
            prop_assert_eq!(s.rank(m), k);
        }
        prop_assert_eq!(s.select(oracle.len()), None);
        prop_assert_eq!(s.first(), oracle.first().copied());
    }
}

// ---------------------------------------------------------------------------
// The sparse directory's allocation path as it was before `access`: a
// `would_stall` pre-check, the first pinned resident as the blocker, then
// `allocate_excluding` with its `eligible` vector. The reference for
// `sparse_access_matches_the_three_pass_sequence`.
// ---------------------------------------------------------------------------

/// What one allocation did, owned so both sides compare by value.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hit,
    Inserted,
    Replaced(u64, DirEntry),
    Stalled(u64),
}

#[derive(Clone)]
struct OldSlot {
    key: u64,
    valid: bool,
    entry: DirEntry,
    last_use: u64,
    allocated: u64,
}

struct OldSparse {
    scheme: Scheme,
    clusters: usize,
    sets: usize,
    ways: usize,
    policy: Replacement,
    slots: Vec<OldSlot>,
    stats: scd_core::SparseStats,
    rng_state: u64,
}

impl OldSparse {
    fn new(scheme: Scheme, clusters: usize, entries: usize, ways: usize, policy: Replacement, seed: u64) -> Self {
        let slot = OldSlot { key: 0, valid: false, entry: DirEntry::new(scheme, clusters), last_use: 0, allocated: 0 };
        OldSparse {
            scheme,
            clusters,
            sets: entries / ways,
            ways,
            policy,
            slots: vec![slot; entries],
            stats: Default::default(),
            rng_state: seed | 1,
        }
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key % self.sets as u64) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    fn next_random(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn entry_mut(&mut self, idx: usize) -> Option<&mut DirEntry> {
        Some(&mut self.slots[idx].entry)
    }

    fn lookup(&mut self, key: u64, now: u64) -> Option<DirEntry> {
        for idx in self.set_range(key) {
            if self.slots[idx].valid && self.slots[idx].key == key {
                self.stats.hits += 1;
                self.slots[idx].last_use = now;
                return Some(self.slots[idx].entry.clone());
            }
        }
        self.stats.misses += 1;
        None
    }

    fn probe(&self, key: u64) -> Option<&DirEntry> {
        self.set_range(key).map(|i| &self.slots[i]).find(|s| s.valid && s.key == key).map(|s| &s.entry)
    }

    fn invalidate_key(&mut self, key: u64) -> bool {
        for idx in self.set_range(key) {
            if self.slots[idx].valid && self.slots[idx].key == key {
                self.slots[idx].valid = false;
                self.slots[idx].entry.clear();
                return true;
            }
        }
        false
    }

    fn would_stall(&self, key: u64, banned: impl Fn(u64) -> bool) -> bool {
        let range = self.set_range(key);
        if range.clone().any(|i| self.slots[i].valid && self.slots[i].key == key) {
            return false;
        }
        if range.clone().any(|i| !self.slots[i].valid || self.slots[i].entry.is_empty()) {
            return false;
        }
        range.into_iter().all(|i| banned(self.slots[i].key))
    }

    fn resident_set_keys(&self, key: u64) -> Vec<u64> {
        self.set_range(key).map(|i| &self.slots[i]).filter(|s| s.valid).map(|s| s.key).collect()
    }

    /// The store's old sequence; the slot index of the entry the caller
    /// goes on to use, when there is one.
    fn access(&mut self, key: u64, now: u64, banned: impl Fn(u64) -> bool) -> (Outcome, Option<usize>) {
        if self.would_stall(key, &banned) {
            let blocker = self.resident_set_keys(key).into_iter().find(|&k| banned(k)).unwrap();
            return (Outcome::Stalled(blocker), None);
        }
        let range = self.set_range(key);
        if let Some(idx) = range.clone().find(|&i| self.slots[i].valid && self.slots[i].key == key) {
            self.stats.hits += 1;
            self.slots[idx].last_use = now;
            return (Outcome::Hit, Some(idx));
        }
        self.stats.misses += 1;
        if let Some(idx) = range.clone().find(|&i| !self.slots[i].valid || self.slots[i].entry.is_empty()) {
            self.stats.fills += 1;
            let slot = &mut self.slots[idx];
            slot.key = key;
            slot.valid = true;
            slot.entry.clear();
            slot.last_use = now;
            slot.allocated = now;
            return (Outcome::Inserted, Some(idx));
        }
        let eligible: Vec<usize> = range.clone().filter(|&i| !banned(self.slots[i].key)).collect();
        let victim_idx = match self.policy {
            Replacement::Lru => eligible.iter().copied().min_by_key(|&i| self.slots[i].last_use).unwrap(),
            Replacement::Lra => eligible.iter().copied().min_by_key(|&i| self.slots[i].allocated).unwrap(),
            Replacement::Random => {
                let off = (self.next_random() % eligible.len() as u64) as usize;
                eligible[off]
            }
        };
        self.stats.replacements += 1;
        let victim_key = self.slots[victim_idx].key;
        let slot = &mut self.slots[victim_idx];
        let mut victim = DirEntry::new(self.scheme, self.clusters);
        std::mem::swap(&mut victim, &mut slot.entry);
        slot.key = key;
        slot.valid = true;
        slot.last_use = now;
        slot.allocated = now;
        (Outcome::Replaced(victim_key, victim), Some(victim_idx))
    }
}
