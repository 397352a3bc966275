//! A uniform front-end over complete and sparse directory storage.
//!
//! The coherence protocol does not care how the directory is organized; it
//! asks for the entry of a block and occasionally receives a replacement
//! obligation (sparse only). [`DirectoryStore`] provides exactly that
//! interface, so the same protocol code runs the paper's non-sparse baseline
//! and every sparse configuration.

use crate::entry::{AddSharer, DirEntry};
use crate::flat::DenseTable;
use crate::node_set::NodeId;
use crate::overflow::{OverflowAdd, OverflowDirectory, OverflowStats};
use crate::scheme::Scheme;
use crate::sparse::{Allocation, ChurnStats, Replacement, SparseDirectory, SparseStats};

/// How a directory's entries are stored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Organization {
    /// One entry per memory block (the classic organization). Entries are
    /// materialized lazily — an absent entry is semantically "uncached" —
    /// in a table indexed by the key, so keys must be compact indices (the
    /// machine passes home-local block numbers).
    Complete,
    /// Sparse directory: a directory cache with `entries` slots of
    /// associativity `ways` and the given replacement policy (§4.2).
    Sparse {
        /// Total number of directory slots.
        entries: usize,
        /// Associativity.
        ways: usize,
        /// Victim selection policy.
        policy: Replacement,
    },
    /// Overflow directory (§7 future work): `i`-pointer small entries per
    /// block, promoted into a cache of `wide_entries` full-vector entries
    /// on pointer overflow.
    Overflow {
        /// Pointers per small entry.
        i: usize,
        /// Wide (full-vector) slots.
        wide_entries: usize,
        /// Wide-cache associativity.
        wide_ways: usize,
        /// Wide-victim selection policy.
        policy: Replacement,
    },
}

/// Outcome of [`DirectoryStore::record_sharer`].
#[derive(Debug)]
pub enum RecordSharer {
    /// The sharer is covered.
    Recorded,
    /// `Dir_i NB` pointer eviction (or an overflow pinned-set fallback):
    /// the returned cluster must be invalidated.
    Evict(NodeId),
    /// Overflow promotion displaced a wide victim: all cached copies of
    /// `victim_key` must be invalidated per the returned entry.
    Displaced {
        /// Block that lost its wide entry.
        victim_key: u64,
        /// The displaced wide entry.
        victim: DirEntry,
    },
}

/// Outcome of [`DirectoryStore::entry_mut`].
pub enum EntryAccess<'a> {
    /// The block's entry, ready for protocol action.
    Ready(&'a mut DirEntry),
    /// Sparse replacement: before the requested block's entry can be used,
    /// all cached copies of `victim_key` must be invalidated (the victim
    /// entry, returned by value, says which clusters those are). The
    /// requested block's fresh entry is also returned so the protocol can
    /// proceed in the same cycle — DASH's RAC tracks the outstanding
    /// replacement acknowledgements independently.
    Displaced {
        /// Block that lost its entry.
        victim_key: u64,
        /// The displaced entry.
        victim: DirEntry,
        /// Fresh (uncached) entry for the requested block.
        entry: &'a mut DirEntry,
    },
    /// Sparse only: the target set is full and every resident entry is
    /// pinned by an in-flight transaction. The request must be parked
    /// behind `blocker` (one of the pinned blocks) and replayed when it
    /// closes.
    Stalled {
        /// A pinned block whose completion will unblock the set.
        blocker: u64,
    },
}

/// Directory storage for one home node.
pub struct DirectoryStore {
    scheme: Scheme,
    clusters: usize,
    backing: Backing,
}

crate::clone_fields!(DirectoryStore { scheme, clusters, backing });

enum Backing {
    /// Indexed by key; `None` is an entry nobody materialized (or one
    /// released since).
    Complete(DenseTable<Option<DirEntry>>),
    Sparse(SparseDirectory),
    Overflow(OverflowDirectory),
}

impl Clone for Backing {
    fn clone(&self) -> Self {
        match self {
            Backing::Complete(t) => Backing::Complete(t.clone()),
            Backing::Sparse(d) => Backing::Sparse(d.clone()),
            Backing::Overflow(d) => Backing::Overflow(d.clone()),
        }
    }

    /// Refilled from the same organization, the tables keep their buffers.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Backing::Complete(to), Backing::Complete(from)) => to.clone_from(from),
            (Backing::Sparse(to), Backing::Sparse(from)) => to.clone_from(from),
            (Backing::Overflow(to), Backing::Overflow(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl DirectoryStore {
    /// Creates a store for a home node of a `clusters`-cluster machine.
    pub fn new(scheme: Scheme, clusters: usize, org: Organization, seed: u64) -> Self {
        let backing = match org {
            Organization::Complete => Backing::Complete(DenseTable::new()),
            Organization::Sparse {
                entries,
                ways,
                policy,
            } => Backing::Sparse(SparseDirectory::new(
                scheme, clusters, entries, ways, policy, seed,
            )),
            Organization::Overflow {
                i,
                wide_entries,
                wide_ways,
                policy,
            } => Backing::Overflow(OverflowDirectory::new(
                i,
                clusters,
                wide_entries,
                wide_ways,
                policy,
                seed,
            )),
        };
        DirectoryStore {
            scheme,
            clusters,
            backing,
        }
    }

    /// The scheme entries use.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Mutable access to the entry for `key`, allocating as needed.
    ///
    /// `pinned` marks blocks whose entries must not be victimized (they have
    /// transactions in flight); complete directories ignore it.
    pub fn entry_mut(
        &mut self,
        key: u64,
        now: u64,
        pinned: impl Fn(u64) -> bool,
    ) -> EntryAccess<'_> {
        match &mut self.backing {
            Backing::Complete(table) => EntryAccess::Ready(
                table
                    .slot(key)
                    .get_or_insert_with(|| DirEntry::new(self.scheme, self.clusters)),
            ),
            Backing::Overflow(od) => EntryAccess::Ready(od.entry_mut(key, now)),
            Backing::Sparse(sd) => match sd.access(key, now, pinned) {
                Err(blocker) => EntryAccess::Stalled { blocker },
                Ok(Allocation::Hit(e) | Allocation::Inserted(e)) => EntryAccess::Ready(e),
                Ok(Allocation::Replaced {
                    victim_key,
                    victim,
                    entry,
                }) => EntryAccess::Displaced {
                    victim_key,
                    victim,
                    entry,
                },
            },
        }
    }

    /// Mutable access to an already-materialized entry, without allocating
    /// (used by transaction-closing messages, whose entries are pinned).
    pub fn lookup_mut(&mut self, key: u64, now: u64) -> Option<&mut DirEntry> {
        match &mut self.backing {
            Backing::Complete(table) => table.get_mut(key).and_then(Option::as_mut),
            Backing::Sparse(sd) => sd.lookup(key, now),
            Backing::Overflow(od) => Some(od.entry_mut(key, now)),
        }
    }

    /// Read-only view of the entry for `key`, if materialized.
    pub fn probe(&self, key: u64) -> Option<&DirEntry> {
        match &self.backing {
            Backing::Complete(table) => table.get(key).and_then(Option::as_ref),
            Backing::Sparse(sd) => sd.probe(key),
            Backing::Overflow(od) => od.probe(key),
        }
    }

    /// Records `node` as a sharer of `key`, letting the organization apply
    /// its overflow policy (NB eviction, or small→wide promotion with a
    /// possible wide-victim displacement). The entry must already have been
    /// materialized via [`Self::entry_mut`] in this transaction.
    pub fn record_sharer(
        &mut self,
        key: u64,
        node: NodeId,
        now: u64,
        pinned: impl Fn(u64) -> bool,
    ) -> RecordSharer {
        match &mut self.backing {
            Backing::Complete(table) => {
                match table
                    .get_mut(key)
                    .and_then(Option::as_mut)
                    .expect("record_sharer before entry_mut")
                    .add_sharer(node)
                {
                    AddSharer::Recorded => RecordSharer::Recorded,
                    AddSharer::Evict(v) => RecordSharer::Evict(v),
                }
            }
            Backing::Sparse(sd) => {
                match sd
                    .lookup(key, now)
                    .expect("record_sharer before entry_mut")
                    .add_sharer(node)
                {
                    AddSharer::Recorded => RecordSharer::Recorded,
                    AddSharer::Evict(v) => RecordSharer::Evict(v),
                }
            }
            Backing::Overflow(od) => match od.add_sharer(key, node, now, pinned) {
                OverflowAdd::Recorded => RecordSharer::Recorded,
                OverflowAdd::Evicted(v) => RecordSharer::Evict(v),
                OverflowAdd::RecordedDisplacing { victim_key, victim } => {
                    RecordSharer::Displaced { victim_key, victim }
                }
            },
        }
    }

    /// Releases the entry for `key` once it is empty, so a complete
    /// directory holds only live entries and sparse slots free up early.
    pub fn release_if_empty(&mut self, key: u64) {
        match &mut self.backing {
            Backing::Complete(table) => {
                if let Some(slot) = table.get_mut(key) {
                    if slot.as_ref().is_some_and(DirEntry::is_empty) {
                        *slot = None;
                    }
                }
            }
            Backing::Sparse(sd) => {
                if sd.probe(key).is_some_and(|e| e.is_empty()) {
                    sd.invalidate_key(key);
                }
            }
            // The overflow organization additionally demotes wide entries
            // that collapsed back to <= i sharers.
            Backing::Overflow(od) => od.maintain(key),
        }
    }

    /// Sparse statistics, when sparse.
    pub fn sparse_stats(&self) -> Option<SparseStats> {
        match &self.backing {
            Backing::Complete(_) => None,
            Backing::Sparse(sd) => Some(sd.stats()),
            Backing::Overflow(_) => None,
        }
    }

    /// Overflow statistics, when the organization is [`Organization::Overflow`].
    pub fn overflow_stats(&self) -> Option<OverflowStats> {
        match &self.backing {
            Backing::Overflow(od) => Some(od.stats()),
            _ => None,
        }
    }

    /// Turns on sparse replacement-churn telemetry ([`ChurnStats`]).
    /// No-op for complete and overflow backings, which never displace live
    /// victims under pressure the same way (overflow wide-cache churn is
    /// already visible in [`OverflowStats::displacements`]).
    pub fn enable_churn_tracking(&mut self) {
        if let Backing::Sparse(sd) = &mut self.backing {
            sd.enable_churn_tracking();
        }
    }

    /// Sparse replacement-churn telemetry, when sparse and enabled.
    pub fn churn_stats(&self) -> Option<ChurnStats> {
        match &self.backing {
            Backing::Sparse(sd) => sd.churn_stats(),
            _ => None,
        }
    }

    /// Visits every live entry with its key. Visit order is unspecified
    /// (key order, slot order or hash order by organization), so callers
    /// must aggregate order-independently (e.g. into a sharer-count
    /// histogram).
    pub fn for_each_live(&self, mut f: impl FnMut(u64, &DirEntry)) {
        match &self.backing {
            Backing::Complete(table) => {
                for (k, e) in live(table) {
                    f(k, e);
                }
            }
            Backing::Sparse(sd) => sd.for_each_live(f),
            Backing::Overflow(od) => od.for_each_live(f),
        }
    }

    /// Number of live entries currently materialized.
    pub fn live_entries(&self) -> usize {
        match &self.backing {
            Backing::Complete(table) => live(table).count(),
            Backing::Sparse(sd) => sd.live_entries(),
            Backing::Overflow(od) => od.live_entries(),
        }
    }

    /// Hashes the directory's protocol-visible state into `h` in a
    /// canonical order for model-checking state digests. Empty entries of a
    /// complete directory hash like absent ones, so lazily-materialized and
    /// never-touched blocks are indistinguishable; sparse/overflow backings
    /// additionally canonicalize their recency bookkeeping (see
    /// [`SparseDirectory::fingerprint`]).
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        use std::hash::Hash;
        match &self.backing {
            Backing::Complete(table) => {
                0u8.hash(h);
                for (k, e) in live(table) {
                    k.hash(h);
                    e.hash(h);
                }
            }
            Backing::Sparse(sd) => {
                1u8.hash(h);
                sd.fingerprint(h);
            }
            Backing::Overflow(od) => {
                2u8.hash(h);
                od.fingerprint(h);
            }
        }
    }
}

/// The live (materialized, non-empty) entries of a complete directory, in
/// key order.
fn live(table: &DenseTable<Option<DirEntry>>) -> impl Iterator<Item = (u64, &DirEntry)> {
    table
        .iter()
        .filter_map(|(k, slot)| slot.as_ref().map(|e| (k, e)))
        .filter(|(_, e)| !e.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_store_never_displaces() {
        let mut st = DirectoryStore::new(Scheme::dir_n(), 32, Organization::Complete, 1);
        for k in 0..10_000u64 {
            match st.entry_mut(k, k, |_| false) {
                EntryAccess::Ready(e) => {
                    e.add_sharer((k % 32) as u16);
                }
                _ => panic!("complete store displaced or stalled an entry"),
            }
        }
        assert_eq!(st.live_entries(), 10_000);
    }

    #[test]
    fn sparse_store_reports_displacement() {
        let org = Organization::Sparse {
            entries: 4,
            ways: 4,
            policy: Replacement::Lru,
        };
        let mut st = DirectoryStore::new(Scheme::dir_n(), 32, org, 1);
        for k in 0..4u64 {
            match st.entry_mut(k, k, |_| false) {
                EntryAccess::Ready(e) => {
                    e.add_sharer(1);
                }
                _ => panic!(),
            }
        }
        match st.entry_mut(4, 10, |_| false) {
            EntryAccess::Displaced {
                victim_key, victim, ..
            } => {
                assert_eq!(victim_key, 0);
                assert!(!victim.is_empty());
            }
            _ => panic!("full sparse set must displace"),
        }
    }

    #[test]
    fn release_if_empty_frees_space() {
        let mut st = DirectoryStore::new(Scheme::dir_n(), 32, Organization::Complete, 1);
        if let EntryAccess::Ready(e) = st.entry_mut(7, 0, |_| false) {
            e.add_sharer(3);
        }
        st.release_if_empty(7);
        assert_eq!(st.live_entries(), 1, "non-empty entry is kept");
        if let EntryAccess::Ready(e) = st.entry_mut(7, 1, |_| false) {
            e.clear();
        }
        st.release_if_empty(7);
        assert_eq!(st.live_entries(), 0);
        assert!(st.probe(7).is_none());
    }
}
