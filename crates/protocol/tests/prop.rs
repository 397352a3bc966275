//! Property tests for the protocol bookkeeping state machines.

use proptest::prelude::*;
use scd_protocol::rac::{MshrKind, Rac};
use scd_protocol::{BusyReason, HomeSerializer, LockOutcome, QueuedReq, SyncTables, UnlockOutcome};
use scd_core::Scheme;
use std::collections::HashSet;

proptest! {
    #[test]
    fn serializer_never_loses_or_duplicates_requests(
        reqs in prop::collection::vec((0u64..4, 0usize..8, any::<bool>()), 1..60),
    ) {
        // Queue a batch of requests behind busy blocks, then close and
        // drain: every request must come back exactly once, in order.
        let mut ser = HomeSerializer::new();
        for b in 0..4u64 {
            ser.mark_busy(b, BusyReason::AwaitClose);
        }
        for &(b, requester, is_write) in &reqs {
            ser.queue(b, QueuedReq { requester, block: b, is_write });
        }
        let mut drained: Vec<(u64, usize, bool)> = Vec::new();
        for b in 0..4u64 {
            ser.close(b);
            while let Some(r) = ser.pop_ready(b) {
                drained.push((b, r.requester, r.is_write));
            }
        }
        let mut expected: Vec<(u64, usize, bool)> = Vec::new();
        for b in 0..4u64 {
            for &(bb, requester, w) in &reqs {
                if bb == b {
                    expected.push((b, requester, w));
                }
            }
        }
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn serializer_race_resolution_is_order_insensitive(first_race in any::<bool>()) {
        // The race report and the writeback may arrive in either order; the
        // parked request must drain exactly once either way.
        let mut ser = HomeSerializer::new();
        ser.mark_busy(9, BusyReason::AwaitClose);
        let req = QueuedReq { requester: 2, block: 9, is_write: true };
        if first_race {
            ser.on_race(9, 7, 1, req);
            prop_assert!(ser.is_busy(9));
            prop_assert!(ser.on_writeback(9, 7, 1));
        } else {
            prop_assert!(!ser.on_writeback(9, 7, 1));
            ser.on_race(9, 7, 1, req);
            prop_assert!(!ser.is_busy(9));
        }
        prop_assert_eq!(ser.pop_ready(9), Some(req));
        prop_assert_eq!(ser.pop_ready(9), None);
    }

    #[test]
    fn rac_write_completion_requires_exactly_all_acks(
        acks in 0u32..12,
        reply_position in 0u32..13,
    ) {
        // Interleave the ownership reply at an arbitrary point in the ack
        // stream: completion must happen exactly when both the reply and
        // `acks` acknowledgements are in.
        let reply_position = reply_position.min(acks);
        let mut rac = Rac::new();
        rac.start(5, MshrKind::Write, 0);
        let mut completed = false;
        for i in 0..=acks {
            if i == reply_position {
                let done = rac.write_reply(5, acks, 7).is_some();
                prop_assert_eq!(done, acks == 0 || i == acks, "reply at {}", i);
                completed |= done;
            }
            if i < acks {
                let done = rac.inval_ack(5).is_some();
                prop_assert_eq!(
                    done,
                    i + 1 == acks && reply_position <= i + 1 && !completed
                        && reply_position != acks,
                    "ack {}", i
                );
                completed |= done;
            }
        }
        if !completed && reply_position == acks && acks > 0 {
            // Reply arrives last.
            completed = rac.write_reply(5, acks, 7).is_some();
        }
        prop_assert!(completed, "write must eventually complete");
        prop_assert!(!rac.has_mshr(5));
    }

    #[test]
    fn lock_table_mutual_exclusion_under_random_schedules(
        ops in prop::collection::vec((0usize..6, any::<bool>()), 1..200),
        scheme_idx in 0usize..3,
    ) {
        // Random acquire/release attempts from 6 clusters at the lock's
        // home: the tables must never report two holders, and every grant
        // must go to a cluster that asked.
        let scheme = [Scheme::FullVector, Scheme::dir_cv(1, 2), Scheme::dir_b(1)][scheme_idx];
        let mut lm = SyncTables::new(scheme, 6);
        let mut holder: Option<usize> = None;
        let mut waiting: HashSet<usize> = HashSet::new();
        for (cl, acquire) in ops {
            if acquire {
                if holder == Some(cl) || waiting.contains(&cl) {
                    continue; // a cluster has at most one request in flight
                }
                match lm.home_acquire(0, cl) {
                    LockOutcome::Granted(_) => {
                        prop_assert!(holder.is_none(), "grant while held");
                        holder = Some(cl);
                    }
                    LockOutcome::Queued => {
                        waiting.insert(cl);
                    }
                    LockOutcome::AlreadyHeld => unreachable!("guarded above"),
                }
            } else if holder == Some(cl) {
                match lm.home_release(0, cl, 0) {
                    UnlockOutcome::Free => {
                        holder = None;
                    }
                    UnlockOutcome::GrantTo(next, _) => {
                        prop_assert!(waiting.remove(&next), "grant to non-waiter {next}");
                        holder = Some(next);
                    }
                    UnlockOutcome::RetryRegion(members) => {
                        // Retried members re-request immediately; the first
                        // *actual waiter* wins.
                        holder = None;
                        for m in members {
                            if waiting.contains(&m) {
                                match lm.home_acquire(0, m) {
                                    LockOutcome::Granted(_) => {
                                        prop_assert!(holder.is_none());
                                        waiting.remove(&m);
                                        holder = Some(m);
                                    }
                                    LockOutcome::Queued => {}
                                    LockOutcome::AlreadyHeld => unreachable!(),
                                }
                            }
                        }
                    }
                }
            }
        }
        // Drain: releasing repeatedly must eventually free the lock.
        let mut guard = 0;
        while let Some(h) = holder {
            guard += 1;
            prop_assert!(guard < 100, "lock never drains");
            match lm.home_release(0, h, 0) {
                UnlockOutcome::Free => holder = None,
                UnlockOutcome::GrantTo(next, _) => {
                    prop_assert!(waiting.remove(&next));
                    holder = Some(next);
                }
                UnlockOutcome::RetryRegion(members) => {
                    holder = None;
                    for m in members {
                        if waiting.remove(&m) && holder.is_none() {
                            if let LockOutcome::Granted(_) = lm.home_acquire(0, m) {
                                holder = Some(m);
                            }
                        }
                    }
                }
            }
        }
        prop_assert!(waiting.is_empty() || holder.is_none());
    }

    #[test]
    fn barriers_release_exactly_once_with_all_members(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut bm = SyncTables::new(Scheme::FullVector, n);
        let mut arrivals: Vec<usize> = (0..n).collect();
        // Deterministic shuffle from the seed.
        let mut rng = seed | 1;
        for i in (1..arrivals.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            arrivals.swap(i, (rng as usize) % (i + 1));
        }
        let mut released = None;
        for (i, &c) in arrivals.iter().enumerate() {
            let r = bm.home_arrive(0, c, 0, n).map(|(clusters, _)| clusters);
            if i + 1 == n {
                released = r;
            } else {
                prop_assert!(r.is_none(), "early release");
            }
        }
        let released = released.expect("last arrival releases");
        let set: HashSet<usize> = released.into_iter().collect();
        prop_assert_eq!(set, arrivals.into_iter().collect::<HashSet<_>>());
    }
}
