//! Directory-based synchronization: queue locks and barriers.
//!
//! §7 of the paper: "In DASH, the directory bit vectors are also used to
//! keep track of processors queued for a lock. In the case of the full bit
//! vector ... when a lock is released, it is granted to exactly one of the
//! waiting nodes. Once we switch to a coarse vector scheme ... we have to
//! release all processors in that region and let them try to regain the
//! lock."
//!
//! [`LockManager`] reuses [`scd_core::DirEntry`] as the waiter queue, so the
//! grant imprecision falls out of the directory representation for free.
//! Barriers are modeled as a centralized arrival counter at a home cluster.

use scd_core::{DirEntry, FastMap, Scheme};

use crate::msg::Cluster;

/// Outcome of a lock acquire at its home.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free: granted to the requester.
    Granted,
    /// Held: the requester was queued in the waiter vector.
    Queued,
    /// The requesting cluster already holds the lock — a duplicate request
    /// (possible when a coarse-vector retry crosses an in-flight acquire).
    /// The home ignores it; intra-cluster handoff covers local waiters.
    AlreadyHeld,
}

/// Outcome of a lock release at its home.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnlockOutcome {
    /// No waiters: the lock is now free.
    Free,
    /// Precise waiter representation: granted directly to one waiter.
    GrantTo(Cluster),
    /// Imprecise (coarse/broadcast) representation: these clusters must
    /// retry their acquire; one will win, the rest re-queue.
    RetryRegion(Vec<Cluster>),
}

#[derive(Debug)]
struct LockState {
    holder: Option<Cluster>,
    waiters: DirEntry,
}

scd_core::clone_fields!(LockState { holder, waiters });

/// Per-home lock bookkeeping.
#[derive(Debug)]
pub struct LockManager {
    scheme: Scheme,
    clusters: usize,
    locks: FastMap<u32, LockState>,
    /// Grants issued (precise or via retry-win).
    grants: u64,
    /// Retry messages a coarse waiter vector caused.
    retries: u64,
}

scd_core::clone_fields!(LockManager { scheme, clusters, locks, grants, retries });

impl LockManager {
    /// Creates a manager whose waiter vectors use `scheme`.
    ///
    /// `Dir_i NB` cannot queue waiters (evicting a waiter would lose it
    /// forever), so it falls back to a full-vector waiter representation —
    /// the paper only discusses full-vector and coarse-vector lock queues.
    pub fn new(scheme: Scheme, clusters: usize) -> Self {
        let scheme = match scheme {
            Scheme::LimitedNB { .. } => Scheme::FullVector,
            s => s,
        };
        LockManager {
            scheme,
            clusters,
            locks: FastMap::default(),
            grants: 0,
            retries: 0,
        }
    }

    fn state(&mut self, lock: u32) -> &mut LockState {
        let (scheme, clusters) = (self.scheme, self.clusters);
        self.locks.entry(lock).or_insert_with(|| LockState {
            holder: None,
            waiters: DirEntry::new(scheme, clusters),
        })
    }

    /// Processes an acquire from `cluster`.
    pub fn acquire(&mut self, lock: u32, cluster: Cluster) -> LockOutcome {
        let st = self.state(lock);
        if st.holder == Some(cluster) {
            LockOutcome::AlreadyHeld
        } else if st.holder.is_none() {
            st.holder = Some(cluster);
            self.grants += 1;
            LockOutcome::Granted
        } else {
            // NB-eviction is unreachable: the scheme was remapped in new().
            let _ = st.waiters.add_sharer(cluster as u16);
            LockOutcome::Queued
        }
    }

    /// Processes a release from `cluster`.
    ///
    /// # Panics
    /// If `cluster` does not hold the lock — that is an application bug the
    /// simulator should surface loudly.
    pub fn release(&mut self, lock: u32, cluster: Cluster) -> UnlockOutcome {
        let st = self.state(lock);
        assert_eq!(
            st.holder,
            Some(cluster),
            "cluster {cluster} released lock {lock} it does not hold"
        );
        st.holder = None;
        if st.waiters.is_empty() {
            return UnlockOutcome::Free;
        }
        let precise = st.waiters.is_precise();
        let group = st.waiters.take_first_waiter_group();
        if precise {
            let w = group.first().expect("non-empty waiter set") as Cluster;
            st.holder = Some(w);
            self.grants += 1;
            UnlockOutcome::GrantTo(w)
        } else {
            // Coarse mode: the lock stays free; region members race to
            // re-acquire. Members that never actually waited simply ignore
            // the retry at the machine layer.
            let members: Vec<Cluster> = group.iter().map(|n| n as Cluster).collect();
            self.retries += members.len() as u64;
            UnlockOutcome::RetryRegion(members)
        }
    }

    /// Whether `cluster` currently holds `lock`.
    pub fn holds(&self, lock: u32, cluster: Cluster) -> bool {
        self.locks
            .get(&lock)
            .is_some_and(|s| s.holder == Some(cluster))
    }

    /// (grants issued, retry messages caused) — for the lock ablation bench.
    pub fn metrics(&self) -> (u64, u64) {
        (self.grants, self.retries)
    }

    /// Hashes holder and waiter state of every lock held or waited on into
    /// `h`, folded by [`scd_core::hash_unordered`], for model-checking
    /// state digests; the grant/retry metrics are excluded so equal
    /// protocol states reached by different paths merge.
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        scd_core::hash_unordered(
            h,
            self.locks
                .iter()
                .filter(|(_, s)| s.holder.is_some() || !s.waiters.is_empty())
                .map(|(&l, s)| (l, s.holder, &s.waiters)),
        );
    }
}

/// A centralized barrier counter at the barrier's home cluster.
#[derive(Debug, Default)]
pub struct BarrierManager {
    arrivals: FastMap<u32, Vec<Cluster>>,
}

scd_core::clone_fields!(BarrierManager { arrivals });

impl BarrierManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cluster`'s arrival at `barrier` with `participants` total
    /// parties. Returns the release list once everyone arrived.
    pub fn arrive(
        &mut self,
        barrier: u32,
        cluster: Cluster,
        participants: usize,
    ) -> Option<Vec<Cluster>> {
        let v = self.arrivals.entry(barrier).or_default();
        debug_assert!(
            !v.contains(&cluster),
            "cluster {cluster} arrived twice at barrier {barrier}"
        );
        v.push(cluster);
        if v.len() == participants {
            Some(self.arrivals.remove(&barrier).expect("just inserted"))
        } else {
            None
        }
    }

    /// Clusters currently parked at `barrier`.
    pub fn waiting(&self, barrier: u32) -> usize {
        self.arrivals.get(&barrier).map_or(0, Vec::len)
    }

    /// Hashes the arrivals at every barrier someone reached into `h`,
    /// folded by [`scd_core::hash_unordered`], for model-checking state
    /// digests. Arrival *order* within a barrier is preserved — it fixes
    /// the release-message order.
    pub fn fingerprint<H: std::hash::Hasher + Default>(&self, h: &mut H) {
        scd_core::hash_unordered(h, self.arrivals.iter().filter(|(_, v)| !v.is_empty()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_lock() {
        let mut lm = LockManager::new(Scheme::FullVector, 32);
        assert_eq!(lm.acquire(0, 5), LockOutcome::Granted);
        assert!(lm.holds(0, 5));
        assert_eq!(lm.release(0, 5), UnlockOutcome::Free);
        assert!(!lm.holds(0, 5));
    }

    #[test]
    fn full_vector_grants_one_waiter_at_a_time() {
        let mut lm = LockManager::new(Scheme::FullVector, 32);
        lm.acquire(0, 1);
        assert_eq!(lm.acquire(0, 2), LockOutcome::Queued);
        assert_eq!(lm.acquire(0, 3), LockOutcome::Queued);
        match lm.release(0, 1) {
            UnlockOutcome::GrantTo(w) => {
                assert_eq!(w, 2, "lowest-numbered waiter first");
                assert!(lm.holds(0, 2));
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(lm.release(0, 2), UnlockOutcome::GrantTo(3));
        assert_eq!(lm.release(0, 3), UnlockOutcome::Free);
    }

    #[test]
    fn coarse_vector_releases_region() {
        // Dir1CV4: one pointer, then regions of 4.
        let mut lm = LockManager::new(Scheme::dir_cv(1, 4), 32);
        lm.acquire(7, 0);
        lm.acquire(7, 5); // pointer
        lm.acquire(7, 6); // overflow -> coarse: region {4..8}
        match lm.release(7, 0) {
            UnlockOutcome::RetryRegion(members) => {
                assert_eq!(members, vec![4, 5, 6, 7]);
                // Lock is free: first retryer wins.
                assert_eq!(lm.acquire(7, 6), LockOutcome::Granted);
                assert_eq!(lm.acquire(7, 5), LockOutcome::Queued);
            }
            o => panic!("unexpected {o:?}"),
        }
        let (grants, retries) = lm.metrics();
        assert_eq!(grants, 2, "initial grant + retry-winner grant");
        assert_eq!(retries, 4, "one retry message per region member");
    }

    #[test]
    fn nb_scheme_falls_back_to_precise_waiters() {
        let mut lm = LockManager::new(Scheme::dir_nb(1), 32);
        lm.acquire(0, 1);
        lm.acquire(0, 2);
        lm.acquire(0, 3); // would evict under NB; must not lose a waiter
        assert_eq!(lm.release(0, 1), UnlockOutcome::GrantTo(2));
        assert_eq!(lm.release(0, 2), UnlockOutcome::GrantTo(3));
        assert_eq!(lm.release(0, 3), UnlockOutcome::Free);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_panics() {
        let mut lm = LockManager::new(Scheme::FullVector, 8);
        lm.acquire(0, 1);
        lm.release(0, 2);
    }

    #[test]
    fn barrier_releases_everyone_at_once() {
        let mut bm = BarrierManager::new();
        assert_eq!(bm.arrive(0, 1, 3), None);
        assert_eq!(bm.arrive(0, 2, 3), None);
        assert_eq!(bm.waiting(0), 2);
        let released = bm.arrive(0, 0, 3).expect("all arrived");
        assert_eq!(released, vec![1, 2, 0]);
        assert_eq!(bm.waiting(0), 0);
        // The barrier is reusable for the next episode.
        assert_eq!(bm.arrive(0, 1, 2), None);
        assert!(bm.arrive(0, 2, 2).is_some());
    }
}
