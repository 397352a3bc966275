//! Bounded-step exploration of a [`Machine`]: the substrate `scd-check`
//! builds its exhaustive model checker on.
//!
//! A normal run ([`Machine::try_run`]) pops events in deterministic
//! `(time, schedule-order)` sequence. The physical machine, however, only
//! guarantees that order *per (src, dst) channel* — events that fall on
//! the same cycle on different channels (or processor-local events) are
//! races the protocol must tolerate in any order. Exploration makes that
//! nondeterminism explicit:
//!
//! * [`Machine::exploration_choices`] enumerates the legal next
//!   transitions out of the current state: every ready-set event whose
//!   delivery would not overtake an earlier same-cycle message on its own
//!   FIFO channel, plus — when enabled — *fault edges* mirroring the
//!   random fault modes of `scd-noc`'s `FaultPlan` (NACK a coherence
//!   request, delay it, duplicate a read request) as explicit branches.
//! * [`Machine::step_explore`] takes one of those choices, running the
//!   exact event-processing code a production run uses.
//! * [`Machine::state_digest`] canonically fingerprints the reached state
//!   (metrics excluded, times made relative) so a checker can deduplicate
//!   states across interleavings.
//! * `Machine: Clone` (scripts keep their position and share their ops)
//!   provides the branching itself, and its `clone_from` refills a spare
//!   machine in place, which is how an explorer makes a branch.
//!
//! The digest's time-relativity assumes latencies depend only on the
//! (src, dst) pair. Under link contention (`cfg.link_occupancy`) the
//! network carries absolute busy times, so the digest then includes the
//! current cycle — merging is suppressed rather than made unsound.

use std::hash::{Hash, Hasher};

use scd_core::{hash_unordered, FixedHasher};
use scd_sim::Cycle;

use super::{Ev, Event, Machine, ProcStatus};
use crate::error::SimError;
use crate::stats::RunStats;

/// Intentional protocol mutations, armed via [`Machine::arm_mutation`].
///
/// These exist to validate the *checker*: a mutated machine must produce a
/// counterexample. They are test-only in purpose but live in the public
/// API so `scd-check --mutate` can reach them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// On every write fan-out, skip one invalidation target *and* lower
    /// the acknowledgement count to match. The write completes normally,
    /// leaving a stale shared copy that outlives the new ownership epoch —
    /// a silent coherence violation (not a deadlock), exactly the class of
    /// bug only an invariant checker can see.
    SkipInval,
    /// Tardis only: on a write, advance `wts` by one instead of jumping
    /// past the old lease horizon (`rts + 1`). Readers holding live
    /// leases keep consuming the stale version as if it were current —
    /// the timestamp-coherence analogue of a missed invalidation.
    TardisSkipWtsBump,
    /// DLS only: a remote write updates the home LLC slice without
    /// invalidating the home cluster's own cached copies, so home-local
    /// reads keep returning the overwritten data.
    DlsSkipWriteback,
}

/// Which fault edges [`Machine::exploration_choices`] enumerates, mirroring
/// the modes of `scd_noc::FaultPlan` as nondeterministic transitions. A
/// cycle count is a `u32`, as a plan's bound is (`scd_noc::FAULT_CYCLES`),
/// so no edge can push an event past the end of the clock; 0 acts as 1.
/// A branch's `max_cycles` budget grows by each gap it injects, so a long
/// gap ends in a verdict, not in a run past the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEdges {
    /// NACK coherence requests at delivery (plan: `nack_prob`).
    pub nack: bool,
    /// Delay a coherence request by this many cycles (plan: `reorder`
    /// jitter, which is channel-clamp-exempt). `None` disables.
    pub delay: Option<u32>,
    /// Duplicate a read request, the copy arriving this many cycles later
    /// (plan: `dup_prob`). `None` disables.
    pub dup: Option<u32>,
}

impl FaultEdges {
    /// No fault edges: explore only delivery-order nondeterminism.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if any fault edge is enabled.
    pub fn any(&self) -> bool {
        self.nack || self.delay.is_some() || self.dup.is_some()
    }
}

/// One enabled transition out of the current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Deliver the `idx`-th ready-set event normally.
    Ready {
        /// Index into the current ready set (FIFO order).
        idx: usize,
    },
    /// Refuse the `idx`-th ready-set event — a coherence request — with a
    /// NACK, exactly as the fault plan's `nack_prob` mode would.
    Nack {
        /// Index into the current ready set.
        idx: usize,
    },
    /// Push the `idx`-th ready-set event (a coherence request) `delta`
    /// cycles into the future instead of delivering it.
    Delay {
        /// Index into the current ready set.
        idx: usize,
        /// Cycles of added latency.
        delta: u32,
    },
    /// Deliver the `idx`-th ready-set event (a read request) *and*
    /// schedule an identical duplicate `gap` cycles later.
    Dup {
        /// Index into the current ready set.
        idx: usize,
        /// Cycles until the duplicate arrives.
        gap: u32,
    },
}

impl Choice {
    /// The ready-set index this choice acts on.
    pub fn idx(&self) -> usize {
        match *self {
            Choice::Ready { idx }
            | Choice::Nack { idx }
            | Choice::Delay { idx, .. }
            | Choice::Dup { idx, .. } => idx,
        }
    }

    /// Whether this choice is a fault edge (costs fault budget).
    pub fn is_fault(&self) -> bool {
        !matches!(self, Choice::Ready { .. })
    }
}

/// Hashes the set slots of a dense table by walking it — it is in key order
/// already, and [`scd_core::DenseTable::iter`] skips default slots, so a
/// table that grew and was reset digests like one that never grew. The
/// trailing count closes the section (a bare run of entries has no length
/// prefix to keep it apart from what follows).
pub(super) fn hash_walk<T: Hash>(h: &mut impl Hasher, entries: impl Iterator<Item = (u64, T)>) {
    let mut count = 0u64;
    for entry in entries {
        entry.hash(h);
        count += 1;
    }
    count.hash(h);
}

impl Machine {
    /// Arms a deliberate protocol bug (see [`Mutation`]). Survives
    /// cloning, so every explored branch carries the mutation.
    pub fn arm_mutation(&mut self, m: Mutation) {
        self.eng.mutation = Some(m);
    }

    /// Seeds the event queue with each processor's first fetch, as
    /// [`Machine::try_run`] would. Call once before stepping.
    pub fn begin_exploration(&mut self) {
        self.eng.start();
    }

    /// Switches the machine into fault-tolerant delivery mode — stray
    /// replies dropped at the RAC, requests from a recorded owner NACKed
    /// instead of parked — exactly as a configured `FaultPlan` would,
    /// but without any random injection. Explorers MUST call this before
    /// stepping when fault edges are enabled: the tolerance paths are the
    /// protocol's contract for absorbing NACKed, delayed, and duplicated
    /// requests, and without them an injected duplicate's second reply is
    /// (correctly) reported as a protocol violation.
    pub fn tolerate_faults(&mut self) {
        self.eng.faults.tolerate();
    }

    /// True when no events are pending — the state is a leaf; validate it
    /// with [`Machine::finalize_exploration`].
    pub fn exploration_done(&self) -> bool {
        self.eng.queue.is_empty()
    }

    /// The current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.eng.queue.now()
    }

    /// Enumerates the legal transitions out of the current state into
    /// `out`, which is cleared first (an explorer keeps one vector for
    /// every state it expands).
    ///
    /// All ready-set (earliest-cycle) events are candidates, except that
    /// among same-channel `Deliver`s only the *first* is enabled — a
    /// (src, dst) channel is FIFO, so delivering a later message first
    /// would model a reordering the interconnect guarantees away. Fault
    /// edges per `faults` ride on deliverable coherence requests.
    ///
    /// An empty result means the state is a leaf (see
    /// [`Machine::exploration_done`]).
    pub fn exploration_choices(&mut self, faults: &FaultEdges, out: &mut Vec<Choice>) {
        out.clear();
        let Some((_, ready)) = self.eng.queue.ready_set() else {
            return;
        };
        let arena = &self.eng.arena;
        let channel = |ev: &Ev| match *ev {
            Ev::Deliver(r) => arena.get(r).map(|m| (m.src, m.dst)),
            _ => None,
        };
        for (idx, ev) in ready.clone().enumerate() {
            let Ev::Deliver(r) = *ev else {
                out.push(Choice::Ready { idx });
                continue;
            };
            let Some(&msg) = arena.get(r) else {
                // Stale handle: let `step_explore` surface the invariant
                // violation through the normal path.
                out.push(Choice::Ready { idx });
                continue;
            };
            // A ready set is a handful of events: rescanning its head is
            // cheaper than building a set of the channels seen so far.
            let own = Some((msg.src, msg.dst));
            if ready.clone().take(idx).any(|earlier| channel(earlier) == own) {
                continue; // blocked behind an earlier same-channel message
            }
            out.push(Choice::Ready { idx });
            let request = msg.kind.coherence_request().filter(|_| msg.src != msg.dst);
            if let Some((_, is_write)) = request {
                if faults.nack {
                    out.push(Choice::Nack { idx });
                }
                if let Some(delta) = faults.delay {
                    out.push(Choice::Delay { idx, delta });
                }
                // Only re-servicing a read is idempotent.
                if let Some(gap) = faults.dup.filter(|_| !is_write) {
                    out.push(Choice::Dup { idx, gap });
                }
            }
        }
    }

    /// Renders a choice for counterexample listings, resolving message
    /// payloads. Must be called *before* stepping the choice.
    pub fn describe_choice(&mut self, choice: Choice) -> String {
        let ev = self
            .eng
            .queue
            .ready_set()
            .and_then(|(_, mut evs)| evs.nth(choice.idx()).copied());
        let rendered = match ev {
            Some(Ev::Deliver(r)) => match self.eng.arena.get(r) {
                Some(msg) => format!("{msg:?}"),
                None => format!("stale handle {r:?}"),
            },
            Some(other) => format!("{other:?}"),
            None => "out-of-range".to_string(),
        };
        match choice {
            Choice::Ready { .. } => rendered,
            Choice::Nack { .. } => format!("NACK {rendered}"),
            Choice::Delay { delta, .. } => format!("DELAY+{delta} {rendered}"),
            Choice::Dup { gap, .. } => format!("DUP+{gap} {rendered}"),
        }
    }

    /// Takes one transition: pops the chosen ready event and either
    /// processes it (through the exact code path [`Machine::try_run`]
    /// uses) or applies the fault edge.
    ///
    /// # Panics
    /// If `choice` does not name a currently-enabled transition (an
    /// explorer bug, not a machine state) — including fault edges on
    /// non-request events. May also propagate protocol panics (internal
    /// asserts); explorers catch those as violations.
    pub fn step_explore(&mut self, choice: Choice) -> Result<(), SimError> {
        let (t, ev) = self
            .eng
            .queue
            .pop_ready(choice.idx())
            .expect("exploration choice out of range");
        // Fault edges never reach `process_event`, which checks this too.
        self.eng.check_not_behind_clock(t)?;
        match choice {
            Choice::Ready { .. } => self.process_event(t, ev),
            Choice::Nack { .. } => {
                let Ev::Deliver(r) = ev else {
                    panic!("NACK edge on non-delivery event {ev:?}");
                };
                let msg = self.eng.arena.take(r).expect("NACK edge on stale handle");
                let Some((block, was_write)) = msg.kind.coherence_request() else {
                    panic!("NACK edge on non-request {:?}", msg.kind);
                };
                // Mirror the fault plan's NACK: refused at delivery, no
                // home state touched, requester backs off and retries.
                self.eng.event_log.push((t, Event::Deliver(msg)));
                self.eng.refuse(t, msg.dst, msg.src, block, was_write);
                Ok(())
            }
            Choice::Delay { delta, .. } => {
                // Clamp-exempt reorder jitter: the request may now land
                // behind traffic sent after it.
                debug_assert!(matches!(ev, Ev::Deliver(_)));
                self.eng.faults.count().reorders += 1;
                self.inject_after(t, delta, ev);
                Ok(())
            }
            Choice::Dup { gap, .. } => {
                let Ev::Deliver(r) = ev else {
                    panic!("DUP edge on non-delivery event {ev:?}");
                };
                let msg = *self.eng.arena.get(r).expect("DUP edge on stale handle");
                debug_assert!(matches!(msg.kind.coherence_request(), Some((_, false))));
                // The duplicate gets its own arena slot: every handle is
                // taken exactly once.
                let dup = self.eng.arena.alloc(msg);
                self.inject_after(t, gap, Ev::Deliver(dup));
                self.eng.faults.count().duplicates += 1;
                self.process_event(t, ev)
            }
        }
    }

    /// Schedules an injected `ev` `gap` cycles after `t` (0 acts as 1) and
    /// raises this branch's cycle budget by the same gap: the wait is the
    /// fault's, not the workload's. Like the fault budget, the raised
    /// budget is not part of [`Machine::state_digest`].
    fn inject_after(&mut self, t: Cycle, gap: u32, ev: Ev) {
        let gap = u64::from(gap.max(1));
        let budget = &mut self.eng.cfg.max_cycles;
        if *budget > 0 {
            *budget += gap;
        }
        self.eng.queue.schedule_at(t + gap, ev);
    }

    /// Leaf validation: the drained machine must have every processor
    /// retired, an empty arena, and (when configured) pass the quiescent
    /// coherence invariants — the same checks a production run ends with.
    pub fn finalize_exploration(&mut self) -> Result<RunStats, SimError> {
        self.finalize()
    }

    /// Runs the per-state coherence invariants (single writer,
    /// dirty-implies-exclusive); see `crate::checker::verify_step`.
    pub fn check_step_invariants(&self) -> Result<(), crate::checker::Violation> {
        crate::checker::verify_step(self)
    }

    /// Canonical fingerprint of the machine's protocol-visible state.
    ///
    /// Two states with equal digests behave identically under every
    /// future choice sequence, so a checker may explore just one of them.
    /// Guaranteed by construction: every behavior-steering component is
    /// hashed (pending events with payloads resolved, processor status and
    /// program positions, caches, directories, RACs, serializers, locks,
    /// barriers, version oracle, the backend's own tables), while run
    /// *metrics* — counters, histograms, stall accounting, high-water
    /// marks — are excluded, since they differ between paths that reach
    /// the same protocol state.
    /// Event times are hashed relative to the current cycle; recency state
    /// (cache LRU, sparse-directory replacement) is reduced to ranks.
    ///
    /// This is [`Machine::state_digest_with`] under the engine's
    /// [`FixedHasher`].
    pub fn state_digest(&self) -> u64 {
        self.state_digest_with::<FixedHasher>()
    }

    /// [`Machine::state_digest`] under hasher `H`, which hashes the digest's
    /// stream and every entry of the unordered tables it folds (see
    /// [`scd_core::hash_unordered`]). Nothing is collected or sorted: tables
    /// already in key order are walked, the rest folded. A test can run the
    /// same digest under a second hasher to show that the production one
    /// merges no states the other keeps apart.
    pub fn state_digest_with<H: Hasher + Default>(&self) -> u64 {
        let mut h = H::default();
        let now = self.eng.queue.now();
        // Pending events, in delivery order, payloads resolved.
        self.eng.queue.for_each_pending(|t, ev| {
            (t - now).hash(&mut h);
            match *ev {
                Ev::ProcNext(p) => (0u8, p).hash(&mut h),
                Ev::ProcRetry(p) => (1u8, p).hash(&mut h),
                Ev::Replay { home, block } => (2u8, home, block).hash(&mut h),
                Ev::Deliver(r) => match self.eng.arena.get(r) {
                    Some(msg) => (3u8, msg).hash(&mut h),
                    None => 4u8.hash(&mut h),
                },
            }
        });
        0xE0u8.hash(&mut h);
        // Processors: status, pending op, and the script position (within
        // one exploration it determines the remaining ops).
        for st in &self.eng.procs {
            (st.status == ProcStatus::Running, st.status == ProcStatus::Done).hash(&mut h);
            st.pending.hash(&mut h);
            st.blocked_on_sync.hash(&mut h);
            st.program.pos().hash(&mut h);
        }
        self.eng.running.hash(&mut h);
        0xE1u8.hash(&mut h);
        // Clusters: every protocol-state component.
        for c in &self.eng.clusters {
            c.caches.fingerprint(&mut h);
            c.dir.fingerprint(&mut h);
            c.rac.fingerprint(&mut h);
            c.ser.fingerprint(&mut h);
            c.sync.fingerprint(&mut h);
            hash_walk(&mut h, c.cur_version.iter());
            // Line versions only matter for blocks actually resident.
            hash_unordered(&mut h, c.line_version.iter().filter(|(&b, _)| c.caches.holds(b)));
        }
        self.backend.digest(&mut h);
        0xE2u8.hash(&mut h);
        // Version-oracle observations steer future assertions.
        hash_unordered(&mut h, &self.eng.oracle.observed);
        self.eng.faults.fingerprint(&mut h, now);
        self.eng.mutation.hash(&mut h);
        // Contention carries absolute link-busy times in the network;
        // include the clock so states at different times never merge.
        if self.eng.cfg.link_occupancy.is_some() {
            now.hash(&mut h);
        }
        h.finish()
    }
}
