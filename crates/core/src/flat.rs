//! Flat containers for the protocol path.
//!
//! The simulator reaches its own protocol state once or more per event, so
//! the containers holding that state decide how fast it runs. Two shapes
//! cover the engine:
//!
//! * [`DenseTable`] — state keyed by a number that is already an index (a
//!   home's own blocks, numbered `block / clusters`): a vector grown to the
//!   highest key touched, where an untouched slot holds `T::default()`.
//! * [`FastMap`] / [`FastSet`] — state that really is a sparse map of
//!   blocks, locks or `(cluster, block)` pairs: the standard hash map behind
//!   [`FixedHasher`], a multiply-rotate hasher with no per-process seed.
//!
//! The fixed hasher gives up the default hasher's protection against keys
//! crafted to collide. Its keys are simulator-internal block, lock and
//! cluster numbers derived from the workload being simulated, so a
//! workload built to collide slows only its own run. A recorded trace
//! qualifies too: `scd-trace`'s span tree is keyed by the clusters,
//! blocks, transaction ids and labels a recording holds, and a file
//! crafted to collide slows only its own replay. Nothing keyed by input
//! a process takes on behalf of others may use it. Iteration order of a
//! [`FastMap`] is still unspecified: whatever iterates one for output or a
//! post-mortem sorts first, and a state digest folds it with
//! [`hash_unordered`], which does not depend on the order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiply-rotate hasher for small integer keys (the FxHash
/// construction). [`Hasher::finish`] rotates the well-mixed high bits down
/// to where the table takes its bucket index from: block numbers at one
/// home are all congruent modulo the cluster count, and a bare multiply
/// would leave their low bits equal.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

const K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A hash map behind [`FixedHasher`]. Construct with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// A hash set behind [`FixedHasher`]. Construct with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FixedHasher>>;

/// Folds the entries of an unordered table into `h`, allocating nothing.
///
/// Each entry is hashed on its own by a fresh `H`, spread by `mix`, and
/// the results are summed, so the fold depends on which entries the table
/// holds and not on the order it iterates them in: two tables with the same
/// entries fold equally whatever their insertion history or capacity. The
/// section is the entry count, then the sum unless the table is empty (most
/// of a small machine's tables are). Entries must be distinct (a map's
/// are), since a sum cannot tell one entry from the same entry twice over.
pub fn hash_unordered<H: Hasher + Default, T: Hash>(
    h: &mut H,
    entries: impl IntoIterator<Item = T>,
) {
    let (mut sum, mut count) = (0u64, 0u64);
    for entry in entries {
        let mut inner = H::default();
        entry.hash(&mut inner);
        sum = sum.wrapping_add(mix(inner.finish()));
        count += 1;
    }
    h.write_u64(count);
    if count > 0 {
        h.write_u64(sum);
    }
}

/// The 64-bit finalizer of MurmurHash3: a bijection in which every output
/// bit depends on every input bit. [`FixedHasher`] keeps nearby keys'
/// hashes close; spread first, they no longer cancel in a sum.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Keys a [`DenseTable`] accepts: a table costs `size_of::<T>()` bytes per
/// key up to the highest one touched, so a key this large means the caller
/// is indexing with something that is not a compact index (shared address
/// spaces are laid out from zero, see `scd_tango::AddressSpace`).
pub const DENSE_KEY_LIMIT: u64 = 1 << 28;

/// A table indexed directly by key, grown on demand to the highest key
/// touched. A slot nobody wrote holds `T::default()`, and a slot holding
/// the default value is indistinguishable from one beyond the grown range:
/// readers see "absent" for both, and [`DenseTable::iter`] skips both, so a
/// table that grew and was reset reads like one that never grew.
#[derive(Clone, Debug, Default)]
pub struct DenseTable<T> {
    slots: Vec<T>,
}

impl<T: Default + PartialEq> DenseTable<T> {
    /// An empty table (no allocation until the first write).
    pub fn new() -> Self {
        DenseTable { slots: Vec::new() }
    }

    /// The slot for `key`, if the table has grown that far.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slots.get(key as usize)
    }

    /// Mutable access to the slot for `key` without growing the table.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.slots.get_mut(key as usize)
    }

    /// The value at `key`, `T::default()` when nothing was written there.
    #[inline]
    pub fn value(&self, key: u64) -> T
    where
        T: Copy,
    {
        self.get(key).copied().unwrap_or_default()
    }

    /// Mutable access to the slot for `key`, growing the table to reach it.
    ///
    /// # Panics
    /// If `key` is at or beyond [`DENSE_KEY_LIMIT`].
    #[inline]
    pub fn slot(&mut self, key: u64) -> &mut T {
        let idx = key as usize;
        if idx >= self.slots.len() {
            assert!(
                key < DENSE_KEY_LIMIT,
                "dense table key {key} is not a compact index (limit {DENSE_KEY_LIMIT})"
            );
            self.slots.resize_with(idx + 1, T::default);
        }
        &mut self.slots[idx]
    }

    /// Resets the slot for `key` to the default; never grows the table.
    #[inline]
    pub fn reset(&mut self, key: u64) {
        if let Some(slot) = self.get_mut(key) {
            *slot = T::default();
        }
    }

    /// Every slot holding something other than the default, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let absent = T::default();
        self.slots
            .iter()
            .enumerate()
            .filter(move |(_, v)| **v != absent)
            .map(|(k, v)| (k as u64, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(x: impl Hash) -> u64 {
        let mut h = FixedHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn blocks_of_one_home_spread_over_low_hash_bits() {
        // Keys congruent mod 32 (one home's blocks on a 32-cluster machine)
        // must not share their low hash bits, or they would pile into one
        // run of buckets.
        let low: FastSet<u64> = (0..256u64).map(|k| hash_of(k * 32 + 7) & 0xff).collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn tuple_keys_hash_both_halves() {
        assert_ne!(hash_of((1usize, 2u64)), hash_of((2usize, 1u64)));
        assert_ne!(hash_of((0usize, 5u64)), hash_of((5usize, 0u64)));
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = FixedHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FixedHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    /// The fold of a map's entries, under hasher `H`.
    fn fold<H: Hasher + Default>(m: &FastMap<u64, u64>) -> u64 {
        let mut h = H::default();
        hash_unordered(&mut h, m.iter());
        h.finish()
    }

    fn unordered_fold_sees_entries_not_history<H: Hasher + Default>() {
        let entries: Vec<(u64, u64)> = (0..40).map(|k| (k * 32 + 7, k % 3)).collect();
        let forward: FastMap<u64, u64> = entries.iter().copied().collect();
        let backward: FastMap<u64, u64> = entries.iter().rev().copied().collect();
        // Grown to hold many more entries, then drained back: a bigger
        // table iterating in another order.
        let mut grown = forward.clone();
        grown.extend((10_000..14_000).map(|k| (k, k)));
        grown.retain(|&k, _| k < 10_000);
        assert_ne!(
            grown.iter().collect::<Vec<_>>(),
            forward.iter().collect::<Vec<_>>(),
            "the regrown table should iterate in a different order"
        );
        let want = fold::<H>(&forward);
        assert_eq!(fold::<H>(&backward), want);
        assert_eq!(fold::<H>(&grown), want);

        let mut changed = forward.clone();
        *changed.get_mut(&7).expect("key 7 is present") += 1;
        assert_ne!(fold::<H>(&changed), want, "one value changed");
        let mut fewer = forward.clone();
        fewer.remove(&7);
        assert_ne!(fold::<H>(&fewer), want, "one entry removed");
        assert_ne!(fold::<H>(&FastMap::default()), want);
    }

    #[test]
    fn unordered_fold_sees_entries_not_history_under_both_hashers() {
        unordered_fold_sees_entries_not_history::<FixedHasher>();
        unordered_fold_sees_entries_not_history::<std::collections::hash_map::DefaultHasher>();
    }

    #[test]
    fn dense_table_grows_on_write_only() {
        let mut t: DenseTable<u64> = DenseTable::new();
        assert_eq!(t.value(1000), 0);
        assert!(t.get(1000).is_none());
        assert!(t.get_mut(1000).is_none());
        *t.slot(3) = 9;
        assert_eq!(t.value(3), 9);
        assert_eq!(t.get(2), Some(&0));
        assert!(t.get(4).is_none(), "reads never grow the table");
    }

    #[test]
    fn iteration_skips_default_slots_in_key_order() {
        let mut t: DenseTable<u64> = DenseTable::new();
        *t.slot(40) = 4;
        *t.slot(2) = 7;
        *t.slot(9) = 1;
        t.reset(9);
        t.reset(5000);
        assert!(t.get(41).is_none(), "a reset never grows the table");
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(2, &7), (40, &4)]);
    }

    #[test]
    #[should_panic(expected = "not a compact index")]
    fn absurd_keys_are_refused_before_allocating() {
        let mut t: DenseTable<u8> = DenseTable::new();
        t.slot(u64::MAX / 2);
    }
}
