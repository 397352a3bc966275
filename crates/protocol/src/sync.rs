//! Directory-based synchronization: queue locks and barriers, both halves.
//!
//! §7 of the paper: "In DASH, the directory bit vectors are also used to
//! keep track of processors queued for a lock. In the case of the full bit
//! vector ... when a lock is released, it is granted to exactly one of the
//! waiting nodes. Once we switch to a coarse vector scheme ... we have to
//! release all processors in that region and let them try to regain the
//! lock."
//!
//! Each cluster keeps its [`SyncTables`]: a lock table and a barrier
//! table keyed by lock and barrier number, each record holding both
//! halves. A lock's home half reuses [`scd_core::DirEntry`] as the waiter
//! queue, so the grant imprecision falls out of the directory
//! representation for free; a barrier's is a centralized arrival counter.
//! Both keep the largest Tardis `pts` sent to them (0 under the other
//! protocols) for the grant or release to carry.

use std::collections::VecDeque;
use std::hash::Hasher;

use scd_core::{hash_unordered, DirEntry, FastMap, Scheme};

use crate::msg::Cluster;

/// Outcome of a lock acquire at its home.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free: granted to the requester, with the largest `pts`
    /// released through it so far.
    Granted(u64),
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
    /// Precise waiter representation: granted directly to one waiter,
    /// with the largest `pts` released through the lock.
    GrantTo(Cluster, u64),
    /// Imprecise (coarse/broadcast) representation: these clusters must
    /// retry their acquire; one will win, the rest re-queue.
    RetryRegion(Vec<Cluster>),
}

/// What a local release leaves the cluster to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalRelease {
    /// Hand the lock over the bus to this local processor; the home still
    /// sees the cluster as the holder.
    HandOff(usize),
    /// Nobody waits locally: send `UnlockReq` to the home.
    ToHome,
}

/// One lock as one cluster sees it.
#[derive(Debug, Default, Hash)]
struct Lock {
    /// Requester half: the local processor holding the lock.
    holder: Option<usize>,
    /// Requester half: local processors waiting for it, in arrival order.
    waiters: VecDeque<usize>,
    /// Requester half: a `LockReq` is outstanding at the home.
    requested: bool,
    /// Home half, built on first use at the lock's home.
    home: Option<LockHome>,
}

scd_core::clone_fields!(Lock { holder, waiters, requested, home });

impl Lock {
    fn is_idle(&self) -> bool {
        self.holder.is_none()
            && self.waiters.is_empty()
            && !self.requested
            && self.home.as_ref().is_none_or(LockHome::is_idle)
    }
}

#[derive(Debug, Hash)]
struct LockHome {
    holder: Option<Cluster>,
    waiters: DirEntry,
    /// The largest `pts` released through the lock.
    pts: u64,
}

scd_core::clone_fields!(LockHome { holder, waiters, pts });

impl LockHome {
    /// A coarse vector emptied by a region release is not idle: it stays
    /// coarse, so the next waiters are released as a region again.
    fn is_idle(&self) -> bool {
        self.holder.is_none()
            && self.waiters.is_empty()
            && self.waiters.is_precise()
            && self.pts == 0
    }
}

/// One barrier as one cluster sees it.
#[derive(Debug, Default, Hash)]
struct Barrier {
    /// Local processors parked at the barrier.
    local: Vec<usize>,
    /// Home side: clusters that arrived, in arrival order (it fixes the
    /// release-message order).
    arrivals: Vec<Cluster>,
    /// Home side: the largest `pts` this episode's arrivals carried.
    pts: u64,
}

scd_core::clone_fields!(Barrier { local, arrivals, pts });

/// One cluster's synchronization state: a lock table holding the
/// requester half of every lock its processors use and the home half of
/// every lock homed here, and a barrier table likewise.
#[derive(Debug)]
pub struct SyncTables {
    scheme: Scheme,
    clusters: usize,
    locks: FastMap<u32, Lock>,
    /// A record lives from the first arrival to the last release it holds:
    /// each half is taken at its release, and the record goes with the
    /// second.
    barriers: FastMap<u32, Barrier>,
    /// Grants issued at this home (precise or via retry-win).
    grants: u64,
    /// Retry messages a coarse waiter vector at this home caused.
    retries: u64,
}

scd_core::clone_fields!(SyncTables { scheme, clusters, locks, barriers, grants, retries });

impl SyncTables {
    /// Empty tables whose lock waiter vectors use `scheme`.
    ///
    /// `Dir_i NB` cannot queue waiters (evicting a waiter would lose it
    /// forever), so it falls back to a full-vector waiter representation —
    /// the paper only discusses full-vector and coarse-vector lock queues.
    pub fn new(scheme: Scheme, clusters: usize) -> Self {
        let scheme = match scheme {
            Scheme::LimitedNB { .. } => Scheme::FullVector,
            s => s,
        };
        SyncTables {
            scheme,
            clusters,
            locks: FastMap::default(),
            barriers: FastMap::default(),
            grants: 0,
            retries: 0,
        }
    }

    /// Local processor `lp` asks for `lock` and joins the local queue.
    /// Returns whether the cluster must send a `LockReq` to the home: it
    /// neither holds the lock nor has a request outstanding.
    pub fn acquire(&mut self, lock: u32, lp: usize) -> bool {
        let l = self.locks.entry(lock).or_default();
        l.waiters.push_back(lp);
        let request = l.holder.is_none() && !l.requested;
        l.requested |= request;
        request
    }

    /// Local processor `lp` releases `lock`; `None` if it does not hold it.
    pub fn release(&mut self, lock: u32, lp: usize) -> Option<LocalRelease> {
        let l = self.locks.get_mut(&lock).filter(|l| l.holder == Some(lp))?;
        l.holder = l.waiters.pop_front();
        Some(l.holder.map_or(LocalRelease::ToHome, LocalRelease::HandOff))
    }

    /// A `LockGrant` for `lock` reached this cluster: the local processor
    /// that now holds it, or `None` when nobody waits locally (or one
    /// already holds it) and the cluster hands the lock straight back.
    pub fn on_grant(&mut self, lock: u32) -> Option<usize> {
        let l = self.locks.entry(lock).or_default();
        l.requested = false;
        if l.holder.is_some() {
            return None;
        }
        l.holder = l.waiters.pop_front();
        l.holder
    }

    /// A `LockRetry` for `lock` reached this cluster: a region release
    /// dropped its queued request (if any), so the `requested` flag is
    /// stale. Returns whether to re-request, which is whether processors
    /// still wait locally.
    pub fn on_retry(&mut self, lock: u32) -> bool {
        let l = self.locks.entry(lock).or_default();
        l.requested = l.holder.is_none() && !l.waiters.is_empty();
        l.requested
    }

    fn home(&mut self, lock: u32) -> &mut LockHome {
        let (scheme, clusters) = (self.scheme, self.clusters);
        let l = self.locks.entry(lock).or_default();
        l.home.get_or_insert_with(|| LockHome {
            holder: None,
            waiters: DirEntry::new(scheme, clusters),
            pts: 0,
        })
    }

    /// At the home: processes an acquire from `cluster`.
    pub fn home_acquire(&mut self, lock: u32, cluster: Cluster) -> LockOutcome {
        let st = self.home(lock);
        if st.holder == Some(cluster) {
            LockOutcome::AlreadyHeld
        } else if st.holder.is_none() {
            st.holder = Some(cluster);
            let pts = st.pts;
            self.grants += 1;
            LockOutcome::Granted(pts)
        } else {
            // NB-eviction is unreachable: the scheme was remapped in new().
            let _ = st.waiters.add_sharer(cluster as u16);
            LockOutcome::Queued
        }
    }

    /// At the home: processes a release from `cluster`, whose `UnlockReq`
    /// carried `pts`.
    ///
    /// # Panics
    /// If `cluster` does not hold the lock: a cluster sends `UnlockReq`
    /// only for a lock the home granted it, so this is an engine bug.
    pub fn home_release(&mut self, lock: u32, cluster: Cluster, pts: u64) -> UnlockOutcome {
        let st = self.home(lock);
        assert_eq!(
            st.holder,
            Some(cluster),
            "cluster {cluster} released lock {lock} it does not hold"
        );
        st.holder = None;
        st.pts = st.pts.max(pts);
        if st.waiters.is_empty() {
            return UnlockOutcome::Free;
        }
        let precise = st.waiters.is_precise();
        let group = st.waiters.take_first_waiter_group();
        if precise {
            let w = group.first().expect("non-empty waiter set") as Cluster;
            st.holder = Some(w);
            let pts = st.pts;
            self.grants += 1;
            UnlockOutcome::GrantTo(w, pts)
        } else {
            // Coarse mode: the lock stays free; region members race to
            // re-acquire. Members that never actually waited simply ignore
            // the retry at the machine layer.
            let members: Vec<Cluster> = group.iter().map(|n| n as Cluster).collect();
            self.retries += members.len() as u64;
            UnlockOutcome::RetryRegion(members)
        }
    }

    /// (grants issued, retry messages caused) — for the lock ablation bench.
    pub fn metrics(&self) -> (u64, u64) {
        (self.grants, self.retries)
    }

    /// Local processor `lp` reached `barrier`. Returns whether all
    /// `procs_per_cluster` local processors are now there, so the cluster
    /// arrives at the home.
    pub fn arrive(&mut self, barrier: u32, lp: usize, procs_per_cluster: usize) -> bool {
        let local = &mut self.barriers.entry(barrier).or_default().local;
        local.push(lp);
        local.len() == procs_per_cluster
    }

    /// At the home: `cluster` arrived at `barrier`, carrying `pts`, with
    /// `participants` parties in all. Once everyone arrived, returns the
    /// release list and the largest `pts` of the episode, and the next
    /// episode starts from an empty count and `pts` 0.
    pub fn home_arrive(
        &mut self,
        barrier: u32,
        cluster: Cluster,
        pts: u64,
        participants: usize,
    ) -> Option<(Vec<Cluster>, u64)> {
        let b = self.barriers.entry(barrier).or_default();
        debug_assert!(
            !b.arrivals.contains(&cluster),
            "cluster {cluster} arrived twice at barrier {barrier}"
        );
        b.arrivals.push(cluster);
        b.pts = b.pts.max(pts);
        if b.arrivals.len() < participants {
            return None;
        }
        let release = (std::mem::take(&mut b.arrivals), std::mem::take(&mut b.pts));
        if b.local.is_empty() {
            self.barriers.remove(&barrier);
        }
        Some(release)
    }

    /// A release of `barrier` reached this cluster: the local processors
    /// parked there, or `None` if none are.
    pub fn on_release(&mut self, barrier: u32) -> Option<Vec<usize>> {
        let b = self.barriers.get_mut(&barrier).filter(|b| !b.local.is_empty())?;
        let local = std::mem::take(&mut b.local);
        if b.arrivals.is_empty() {
            self.barriers.remove(&barrier);
        }
        Some(local)
    }

    /// Hashes every lock and barrier record into `h`, folded by
    /// [`hash_unordered`], for model-checking state digests. A record with
    /// default content hashes like an absent one; the grant/retry metrics
    /// are excluded, so equal protocol states reached by different paths
    /// merge. A barrier record is never idle: it goes when both its halves
    /// are taken.
    pub fn fingerprint<H: Hasher + Default>(&self, h: &mut H) {
        hash_unordered(h, self.locks.iter().filter(|(_, l)| !l.is_idle()));
        hash_unordered(h, &self.barriers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(st: &SyncTables, lock: u32, cluster: Cluster) -> bool {
        let home = st.locks.get(&lock).and_then(|l| l.home.as_ref());
        home.is_some_and(|h| h.holder == Some(cluster))
    }

    fn waiting(st: &SyncTables, barrier: u32) -> usize {
        st.barriers.get(&barrier).map_or(0, |b| b.arrivals.len())
    }

    #[test]
    fn uncontended_lock() {
        let mut st = SyncTables::new(Scheme::FullVector, 32);
        assert_eq!(st.home_acquire(0, 5), LockOutcome::Granted(0));
        assert!(holds(&st, 0, 5));
        assert_eq!(st.home_release(0, 5, 0), UnlockOutcome::Free);
        assert!(!holds(&st, 0, 5));
    }

    #[test]
    fn full_vector_grants_one_waiter_at_a_time() {
        let mut st = SyncTables::new(Scheme::FullVector, 32);
        st.home_acquire(0, 1);
        assert_eq!(st.home_acquire(0, 2), LockOutcome::Queued);
        assert_eq!(st.home_acquire(0, 3), LockOutcome::Queued);
        match st.home_release(0, 1, 0) {
            UnlockOutcome::GrantTo(w, _) => {
                assert_eq!(w, 2, "lowest-numbered waiter first");
                assert!(holds(&st, 0, 2));
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(st.home_release(0, 2, 0), UnlockOutcome::GrantTo(3, 0));
        assert_eq!(st.home_release(0, 3, 0), UnlockOutcome::Free);
    }

    #[test]
    fn coarse_vector_releases_region() {
        // Dir1CV4: one pointer, then regions of 4.
        let mut st = SyncTables::new(Scheme::dir_cv(1, 4), 32);
        st.home_acquire(7, 0);
        st.home_acquire(7, 5); // pointer
        st.home_acquire(7, 6); // overflow -> coarse: region {4..8}
        match st.home_release(7, 0, 0) {
            UnlockOutcome::RetryRegion(members) => {
                assert_eq!(members, vec![4, 5, 6, 7]);
                // Lock is free: first retryer wins.
                assert_eq!(st.home_acquire(7, 6), LockOutcome::Granted(0));
                assert_eq!(st.home_acquire(7, 5), LockOutcome::Queued);
            }
            o => panic!("unexpected {o:?}"),
        }
        let (grants, retries) = st.metrics();
        assert_eq!(grants, 2, "initial grant + retry-winner grant");
        assert_eq!(retries, 4, "one retry message per region member");
    }

    #[test]
    fn nb_scheme_falls_back_to_precise_waiters() {
        let mut st = SyncTables::new(Scheme::dir_nb(1), 32);
        st.home_acquire(0, 1);
        st.home_acquire(0, 2);
        st.home_acquire(0, 3); // would evict under NB; must not lose a waiter
        assert_eq!(st.home_release(0, 1, 0), UnlockOutcome::GrantTo(2, 0));
        assert_eq!(st.home_release(0, 2, 0), UnlockOutcome::GrantTo(3, 0));
        assert_eq!(st.home_release(0, 3, 0), UnlockOutcome::Free);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_panics() {
        let mut st = SyncTables::new(Scheme::FullVector, 8);
        st.home_acquire(0, 1);
        st.home_release(0, 2, 0);
    }

    #[test]
    fn requester_half_queues_locally_and_hands_off_over_the_bus() {
        let mut st = SyncTables::new(Scheme::FullVector, 8);
        assert!(st.acquire(3, 0), "the first local request goes to the home");
        assert!(!st.acquire(3, 1), "one request per cluster");
        assert_eq!(st.release(3, 0), None, "not granted yet");
        assert_eq!(st.on_grant(3), Some(0));
        assert_eq!(st.release(3, 1), None, "a cluster-mate holds it");
        assert_eq!(st.release(3, 0), Some(LocalRelease::HandOff(1)));
        assert_eq!(st.release(3, 1), Some(LocalRelease::ToHome));
        assert_eq!(st.release(9, 0), None, "never acquired");
        assert_eq!(st.on_grant(3), None, "nobody waits: hand it back");
        assert!(!st.on_retry(3), "nobody waits: no re-request");
        assert!(st.locks[&3].home.is_none(), "a requester-only record builds no waiter vector");
    }

    #[test]
    fn sync_records_carry_the_largest_pts() {
        // A grant carries the largest pts released through the lock.
        let mut st = SyncTables::new(Scheme::FullVector, 8);
        assert_eq!(st.home_acquire(0, 1), LockOutcome::Granted(0));
        st.home_acquire(0, 2);
        assert_eq!(st.home_release(0, 1, 9), UnlockOutcome::GrantTo(2, 9));
        assert_eq!(st.home_release(0, 2, 4), UnlockOutcome::Free);
        assert_eq!(st.home_acquire(0, 3), LockOutcome::Granted(9));

        // A barrier release carries the largest pts of its episode's
        // arrivals, and the next episode starts from 0.
        assert_eq!(st.home_arrive(0, 0, 5, 3), None);
        assert_eq!(st.home_arrive(0, 1, 12, 3), None);
        assert_eq!(st.home_arrive(0, 2, 7, 3), Some((vec![0, 1, 2], 12)));
        assert_eq!(st.home_arrive(0, 0, 1, 2), None);
        assert_eq!(st.home_arrive(0, 1, 3, 2), Some((vec![0, 1], 3)));
    }

    #[test]
    fn barrier_releases_everyone_at_once() {
        let mut st = SyncTables::new(Scheme::FullVector, 8);
        assert_eq!(st.home_arrive(0, 1, 0, 3), None);
        assert_eq!(st.home_arrive(0, 2, 0, 3), None);
        assert_eq!(waiting(&st, 0), 2);
        let (released, _) = st.home_arrive(0, 0, 0, 3).expect("all arrived");
        assert_eq!(released, vec![1, 2, 0]);
        assert_eq!(waiting(&st, 0), 0);
        // The barrier is reusable for the next episode.
        assert_eq!(st.home_arrive(0, 1, 0, 2), None);
        assert!(st.home_arrive(0, 2, 0, 2).is_some());
    }

    #[test]
    fn a_barrier_record_goes_with_its_last_half() {
        let mut st = SyncTables::new(Scheme::FullVector, 8);
        assert!(!st.arrive(0, 0, 2));
        assert!(st.arrive(0, 1, 2));
        assert!(st.home_arrive(0, 0, 0, 1).is_some());
        assert_eq!(st.barriers.len(), 1, "the local half is still parked");
        assert_eq!(st.on_release(0), Some(vec![0, 1]));
        assert!(st.barriers.is_empty());
        assert_eq!(st.on_release(0), None, "nobody reached it");
    }

    fn digest(st: &SyncTables) -> u64 {
        let mut h = scd_core::FixedHasher::default();
        st.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn a_coarse_waiter_vector_left_empty_is_not_idle() {
        // Dir1CV4: a region release leaves the lock free and its waiter
        // vector empty but coarse.
        let mut used = SyncTables::new(Scheme::dir_cv(1, 4), 32);
        for c in [0, 5, 6] {
            used.home_acquire(7, c);
        }
        assert!(matches!(used.home_release(7, 0, 0), UnlockOutcome::RetryRegion(_)));
        let mut fresh = SyncTables::new(Scheme::dir_cv(1, 4), 32);
        assert_ne!(digest(&used), digest(&fresh), "the two futures differ");
        for st in [&mut used, &mut fresh] {
            assert_eq!(st.home_acquire(7, 1), LockOutcome::Granted(0));
            assert_eq!(st.home_acquire(7, 2), LockOutcome::Queued);
        }
        assert_eq!(used.home_release(7, 1, 0), UnlockOutcome::RetryRegion(vec![0, 1, 2, 3]));
        assert_eq!(fresh.home_release(7, 1, 0), UnlockOutcome::GrantTo(2, 0));
    }

    #[test]
    fn idle_records_hash_like_absent_ones() {
        let mut st = SyncTables::new(Scheme::FullVector, 4);
        let empty = digest(&st);
        st.on_retry(1);
        st.home_acquire(1, 2);
        assert_ne!(digest(&st), empty);
        st.home_release(1, 2, 0);
        assert_eq!(digest(&st), empty);
    }
}
