//! The DASH machine: clusters, directories, interconnect, and the
//! event-driven protocol engine.
//!
//! ## Protocol summary (paper §2)
//!
//! *Read*: local cluster → home. Clean/shared at home: home replies. Dirty:
//! home forwards to the owner, which replies to the requester and sends a
//! sharing writeback to the home.
//!
//! *Write*: local cluster → home. Home sends invalidations to (a superset
//! of) the sharers and an ownership reply carrying the invalidation count;
//! each invalidated cluster acknowledges directly to the requester; the
//! write completes when all acknowledgements are in. Dirty at a third
//! cluster: home forwards; the owner transfers ownership directly.
//!
//! ## Modeling conventions
//!
//! * Directory state is per *cluster*; the home cluster's own copies are
//!   never recorded — they are kept coherent by the home bus snoop during
//!   home processing, exactly as in DASH (this is also why sparse
//!   directories hold no entries for cluster-local data, §4.2).
//! * Message channels between a fixed (src, dst) pair are FIFO (latencies
//!   are deterministic per pair and ties break in scheduling order) and the
//!   mesh latency model satisfies the triangle inequality strictly, so
//!   replies can never be overtaken by later invalidations. To keep that
//!   property across *successively processed* home transactions, every
//!   home emission (reply, forward, invalidation, flush) leaves at the
//!   same `bus_memory` offset from its transaction's processing time.
//! * Conflicting home transactions queue per block instead of NAK/retry
//!   (see `scd-protocol::serializer`).
//!
//! ## Engine, requester, backends, telemetry
//!
//! A [`Machine`] is two values. The `Engine` is everything every
//! protocol shares: the event wheel, message transport, processor
//! scheduling, the per-cluster hardware (caches, directory store, RAC,
//! home serializer, version tables), and three owned parts: the
//! `FaultInjector` (`fault`), the only code that reads a `FaultPlan`; the
//! `Tally`, the run's metrics, which nothing reads back to steer the run;
//! and each cluster's `SyncTables` (`scd-protocol::sync`), both halves of
//! every lock and barrier with the `pts` they carry, which decide what a
//! sync operation or message does, so the engine only sends and resumes.
//! The `Backend` (`backend`) is what
//! only one protocol reads: `dash` (the paper's directory-based
//! invalidation protocol, the default), `tardis` (timestamp coherence:
//! lease-based reads, no invalidation fan-out) or `dls` (directoryless
//! shared LLC: every remote miss resolves at the home slice). A backend
//! handler takes `&mut` its own tables plus the engine; it never sees the
//! `Machine`, so engine code cannot reach protocol state and a DASH
//! machine carries no Tardis table.
//!
//! The requester half of a transaction — issue through the RAC, match a
//! reply to its MSHR, complete the waiters — is the same under all three
//! protocols and is written once, in `requester`; a backend supplies only
//! the request kind it sends and what a reply installs. Everything that
//! only *watches* lives in `telemetry`, which the engine reaches through
//! hooks that cannot mutate it back.

use scd_core::{DenseTable, DirState, EntryAccess, FastMap, NodeId, NodeSet};
use scd_mem::{CacheHierarchy, ClusterCaches, HitLevel, LineState};
use scd_noc::Network;
use scd_protocol::{
    BusyReason, EarlyKind, HomeSerializer, LocalRelease, LockOutcome, Msg, MsgArena, MsgKind,
    MsgRef, QueuedReq, Rac, SyncTables, UnlockOutcome,
};
use scd_protocol::rac::{MshrKind, StartOutcome};
use scd_sim::{Cycle, EventQueue, RingLog, Stamp};
use scd_stats::{Histogram, Traffic};
use scd_tango::{Op, Script};
use scd_trace::{Json, MetricsRegistry, Phase, TraceEvent};

use crate::config::MachineConfig;
use crate::error::{BlockedProc, ClusterDiag, PostMortem, SimError};
use crate::stats::{ProtocolCounters, RunStats, StallBreakdown};

mod backend;
mod dash;
mod dls;
pub mod explore;
mod fault;
mod oracle;
mod requester;
mod tardis;
mod telemetry;

pub(crate) use backend::Backend;
pub(crate) use tardis::TardisNode;
use fault::FaultInjector;
pub use oracle::ValueOracleReport;
use telemetry::Recorder;

/// Simulator events, generic over how a delivery names its message. On the
/// wheel ([`Ev`]) the hot variant, `Deliver`, carries an 8-byte [`MsgRef`]
/// into the message arena rather than the ~40-byte [`Msg`] itself, so the
/// event queue's ring buckets shuffle two words per event. In the
/// post-mortem ring it carries the resolved [`Msg`], so rendering never
/// chases a handle into an arena slot that was freed (and possibly reused)
/// long after the event was logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event<M> {
    /// Processor fetches and executes its next operation.
    ProcNext(usize),
    /// Processor re-executes its pending operation (e.g. after a merged
    /// transaction completed with insufficient rights).
    ProcRetry(usize),
    /// A protocol message reaches its destination cluster.
    Deliver(M),
    /// The home directory replays one parked request for `block` (requests
    /// that queued behind an in-flight transaction re-occupy the directory
    /// one at a time, `dir_lookup` apart).
    Replay {
        /// The home cluster.
        home: usize,
        /// The block whose queue is draining.
        block: u64,
    },
}

/// An event on the wheel: deliveries are handles into the [`MsgArena`].
type Ev = Event<MsgRef>;

impl<M> Event<M> {
    /// The same event with its delivery payload resolved through `f`.
    fn resolve<N, E>(self, f: impl FnOnce(M) -> Result<N, E>) -> Result<Event<N>, E> {
        Ok(match self {
            Event::ProcNext(p) => Event::ProcNext(p),
            Event::ProcRetry(p) => Event::ProcRetry(p),
            Event::Deliver(m) => Event::Deliver(f(m)?),
            Event::Replay { home, block } => Event::Replay { home, block },
        })
    }
}

/// One processing node.
pub(crate) struct ClusterNode {
    pub(crate) caches: ClusterCaches,
    pub(crate) dir: scd_core::DirectoryStore,
    pub(crate) rac: Rac,
    pub(crate) ser: HomeSerializer,
    /// Both halves of every lock and barrier this cluster takes part in.
    pub(crate) sync: SyncTables,
    /// Data versions: latest version the home has assigned per block,
    /// indexed like the directory by [`MachineConfig::dir_key`] (0 = never
    /// written).
    pub(crate) cur_version: DenseTable<u64>,
    /// Data versions: version of this cluster's resident copy per block
    /// (meaningful only while a copy is held; refreshed on every fill).
    pub(crate) line_version: FastMap<u64, u64>,
}

scd_core::clone_fields!(ClusterNode {
    caches,
    dir,
    rac,
    ser,
    sync,
    cur_version,
    line_version,
});

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcStatus {
    Running,
    Blocked,
    Done,
}

struct ProcState {
    program: Script,
    pending: Option<Op>,
    status: ProcStatus,
    /// When the current block began, and whether it is a sync stall.
    blocked_since: Cycle,
    blocked_on_sync: bool,
    mem_stall: u64,
    sync_stall: u64,
    finish: Cycle,
}

scd_core::clone_fields!(ProcState {
    program,
    pending,
    status,
    blocked_since,
    blocked_on_sync,
    mem_stall,
    sync_stall,
    finish,
});

/// A configured DASH machine ready to run a workload: the shared
/// `Engine` plus the one coherence `Backend` its configuration selects.
///
/// `Clone` produces an independent machine mid-run (each processor's
/// [`Script`] keeps its position and shares its ops) — the substrate of
/// the model checker's state branching; see
/// [`explore`]. `clone_from` makes the same machine out of a spare one,
/// refilling the buffers the spare already owns field by field, so a
/// branch written into a spare of the same shape allocates (almost)
/// nothing.
pub struct Machine {
    eng: Engine,
    backend: Backend,
}

scd_core::clone_fields!(Machine { eng, backend });

/// Everything every protocol shares (see the module docs). Backend
/// handlers receive it as their only way to act on the machine: send,
/// schedule, wake a processor, touch a cluster's caches, directory, RAC or
/// serializer, record telemetry.
pub(crate) struct Engine {
    cfg: MachineConfig,
    queue: EventQueue<Ev>,
    /// Slab of in-flight message payloads; `Ev::Deliver` holds handles.
    arena: MsgArena,
    clusters: Vec<ClusterNode>,
    network: Network,
    procs: Vec<ProcState>,
    running: usize,
    /// Pre-computed: `cfg.replacement_hints`, and the backend's home acts
    /// on a hint (see `Backend::takes_hints`).
    hints: bool,
    /// The version and value oracles (inert unless
    /// `cfg.check_invariants` or `cfg.value_oracle`).
    oracle: oracle::Oracle,
    tally: Tally,
    faults: FaultInjector,
    /// Cycle of the last retired operation (forward-progress watchdog).
    last_progress: Cycle,
    /// Recently processed events, kept for failure post-mortems.
    event_log: RingLog<(Cycle, Event<Msg>)>,
    /// The machine's telemetry (inert unless `cfg.trace` is active, and
    /// streaming only while a sink is attached; `Clone` detaches it); the
    /// engine only ever calls its hooks.
    telemetry: Recorder,
    /// Armed test-only protocol mutation (see [`explore::Mutation`]); used
    /// to validate that the model checker actually catches protocol bugs.
    mutation: Option<explore::Mutation>,
    /// Per-cluster canonical-stamp counters: every scheduled event is
    /// stamped `(cluster, emit_seq[cluster]++)` from the cluster context
    /// that emitted it, making same-cycle delivery order a pure function
    /// of per-cluster local history, which the stream pump relies on.
    emit_seq: Vec<u64>,
}

scd_core::clone_fields!(Engine {
    cfg, queue, arena, clusters, network, procs, running, hints, oracle, tally, faults,
    last_progress, event_log, telemetry, mutation, emit_seq,
});

/// The run's tallies: what [`RunStats`] is assembled from, and nothing
/// reads back to steer the run. `state_digest` never reads them, so
/// metrics stay out of the digest by construction.
#[derive(Default)]
pub(crate) struct Tally {
    traffic: Traffic,
    inval_hist: Histogram,
    shared_reads: u64,
    shared_writes: u64,
    sync_ops: u64,
    counters: ProtocolCounters,
    versions_assigned: u64,
    /// When the last processor finished (0 while any runs).
    finish_time: Cycle,
}

scd_core::clone_fields!(Tally {
    traffic, inval_hist, shared_reads, shared_writes, sync_ops, counters, versions_assigned, finish_time
});

impl Tally {
    /// Operations fetched so far (the interval sampler's retired count).
    fn ops(&self) -> u64 {
        self.shared_reads + self.shared_writes + self.sync_ops
    }

    /// The run's statistics: these tallies plus what the machine's parts
    /// count on their own (directories, caches, locks, network, wheel,
    /// processors, fault injector, backend).
    fn finish(&self, eng: &Engine, backend: &Backend) -> RunStats {
        let mut sparse: Option<scd_core::SparseStats> = None;
        let mut overflow: Option<scd_core::OverflowStats> = None;
        let mut lock_metrics = (0u64, 0u64);
        let mut queue_metrics = (0usize, 0u64);
        for c in &eng.clusters {
            crate::stats::add_opt(&mut sparse, c.dir.sparse_stats());
            crate::stats::add_opt(&mut overflow, c.dir.overflow_stats());
            let (g, r) = c.sync.metrics();
            lock_metrics.0 += g;
            lock_metrics.1 += r;
            let (d, q) = c.ser.queue_metrics();
            queue_metrics.0 = queue_metrics.0.max(d);
            queue_metrics.1 += q;
        }
        let (tardis, dls) = backend.counters();
        RunStats {
            cycles: self.finish_time,
            traffic: self.traffic,
            invalidations: self.inval_hist.clone(),
            shared_reads: self.shared_reads,
            shared_writes: self.shared_writes,
            sync_ops: self.sync_ops,
            network: eng.network.stats().clone(),
            sparse,
            overflow,
            l2_misses: eng.clusters.iter().map(|c| c.caches.total_l2_misses()).sum(),
            lock_metrics,
            queue_metrics,
            live_dir_entries: backend.live_entries(&eng.clusters),
            protocol: self.counters,
            tardis,
            dls,
            faults: eng.faults.counters(),
            versions_assigned: self.versions_assigned,
            events_delivered: eng.queue.delivered(),
            stalls: StallBreakdown {
                mem_stall: eng.procs.iter().map(|p| p.mem_stall).collect(),
                sync_stall: eng.procs.iter().map(|p| p.sync_stall).collect(),
                finish: eng.procs.iter().map(|p| p.finish).collect(),
            },
        }
    }
}

impl Machine {
    /// Builds a machine and attaches one [`Script`] per processor.
    ///
    /// # Panics
    /// If the number of programs does not match `cfg.processors()`.
    pub fn new(cfg: MachineConfig, programs: Vec<Script>) -> Self {
        let backend = Backend::new(&cfg);
        let hints = cfg.replacement_hints && backend.takes_hints();
        Machine {
            eng: Engine::new(cfg, programs, hints),
            backend,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.eng.cfg
    }

    /// Runs the workload to completion and returns the collected metrics.
    ///
    /// # Panics
    /// On any [`SimError`] — deadlock, `max_cycles` exceeded, an invariant
    /// violation, or the livelock watchdog — with the formatted post-mortem
    /// as the panic message. Use [`Machine::try_run`] to handle failures
    /// gracefully instead.
    pub fn run(&mut self) -> RunStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(e) => {
                // The panic payload carries the full post-mortem rendering
                // (blocked processors, cluster state, event log, trace
                // tails), so even harnesses that only capture the panic
                // message get the causal history, not a bare headline.
                panic!("simulation failed ({})\n{e}", e.kind());
            }
        }
    }

    /// Runs the workload to completion, returning a structured
    /// [`SimError`] — carrying a [`PostMortem`] of the stuck machine —
    /// instead of panicking when the run cannot complete.
    pub fn try_run(&mut self) -> Result<RunStats, SimError> {
        self.eng.start();
        while let Some((t, ev)) = self.eng.queue.pop() {
            if let Err(e) = self.process_event(t, ev) {
                // Push what the stream already holds before surfacing
                // the failure: a live consumer should see the history up
                // to the death, closed by an honest run_end.
                self.stream_close();
                return Err(e);
            }
        }
        self.finalize()
    }

    /// Processes one popped event: runaway/watchdog guards, event-log
    /// recording, and dispatch to the processor/protocol handlers. This is
    /// the entire body of the run loop; [`Machine::try_run`] and the
    /// exploration stepper share it so a checked interleaving exercises
    /// exactly the code a production run does.
    fn process_event(&mut self, t: Cycle, ev: Ev) -> Result<(), SimError> {
        self.eng.check_not_behind_clock(t)?;
        let eng = &mut self.eng;
        if eng.cfg.max_cycles > 0 && t > eng.cfg.max_cycles {
            let detail = format!(
                "exceeded max_cycles={} ({} procs still running)",
                eng.cfg.max_cycles, eng.running
            );
            return Err(SimError::MaxCycles(eng.post_mortem(t, detail)));
        }
        if eng.cfg.watchdog_cycles > 0
            && eng.running > 0
            && t.saturating_sub(eng.last_progress) > eng.cfg.watchdog_cycles
        {
            let detail = format!(
                "no operation retired since cycle {} (watchdog window {})",
                eng.last_progress, eng.cfg.watchdog_cycles
            );
            return Err(SimError::LivelockWatchdog(eng.post_mortem(t, detail)));
        }
        if eng.telemetry.on {
            eng.observe_clock(t);
        }
        // Resolve the hot handle into its payload *before* logging, so
        // the post-mortem ring holds the message itself, not a handle
        // into a slot that the arena's free list will recycle.
        let ev = match ev.resolve(|r| eng.arena.take(r).ok_or(r)) {
            Ok(ev) => ev,
            Err(r) => {
                // Every alloc is taken exactly once (duplicated
                // deliveries get their own slot), so a stale handle
                // here means the arena bookkeeping is broken.
                let detail = format!(
                    "delivery of stale message handle (slot {}, generation {})",
                    r.index(),
                    r.generation()
                );
                return Err(SimError::Internal(eng.post_mortem(t, detail)));
            }
        };
        eng.event_log.push((t, ev));
        match ev {
            Event::ProcNext(p) => {
                if eng.procs[p].status == ProcStatus::Done {
                    return Ok(());
                }
                // Fetching the next operation means the previous one
                // retired: forward progress for the watchdog.
                eng.last_progress = t;
                let op = eng.procs[p].program.next_op();
                eng.procs[p].pending = Some(op);
                match op {
                    Op::Read(_) => eng.tally.shared_reads += 1,
                    Op::Write(_) => eng.tally.shared_writes += 1,
                    Op::Lock(_) | Op::Unlock(_) | Op::Barrier(_) => eng.tally.sync_ops += 1,
                    _ => {}
                }
                self.execute(t, p, op)?;
            }
            Event::ProcRetry(p) => {
                let Some(op) = eng.procs[p].pending else {
                    let detail = format!("retry of processor {p} with no pending op");
                    return Err(SimError::Internal(eng.post_mortem(t, detail)));
                };
                self.execute(t, p, op)?;
            }
            Event::Deliver(msg) => self.deliver(t, msg),
            Event::Replay { home, block } => {
                if let Some(req) = eng.clusters[home].ser.pop_ready(block) {
                    self.backend.replay(eng, t, home, req);
                }
                eng.drain(t, home, block);
            }
        }
        let eng = &mut self.eng;
        if let Some(detail) = eng.oracle.regression.take() {
            return Err(SimError::Invariant(eng.post_mortem(t, detail)));
        }
        if eng.running == 0 && eng.tally.finish_time == 0 {
            eng.tally.finish_time = t;
            // Keep draining in-flight messages so the machine quiesces
            // and invariants can be checked.
        }
        Ok(())
    }

    /// Post-drain validation, shared by [`Machine::try_run`] and the
    /// exploration API's leaf check.
    fn finalize(&mut self) -> Result<RunStats, SimError> {
        // Close the stream first (no-op when off): the queue is drained,
        // so every recorded event can flush, and run_end belongs in the
        // stream whether the checks below pass or not.
        self.stream_close();
        self.check_drained()?;
        Ok(self.eng.tally.finish(&self.eng, &self.backend))
    }

    /// What a drained machine must satisfy: every processor retired, no
    /// leaked arena payloads, and (when configured) the quiescent
    /// coherence invariants.
    fn check_drained(&self) -> Result<(), SimError> {
        let m = &self.eng;
        let fail = |kind: fn(Box<PostMortem>) -> SimError, detail: String| {
            Err(kind(m.post_mortem(m.queue.now(), detail)))
        };
        if m.running != 0 {
            let detail = format!("{} processors blocked with an empty event queue", m.running);
            return fail(SimError::Deadlock, detail);
        }
        if !m.arena.is_empty() {
            // Every scheduled delivery takes its payload out of the
            // arena; a drained queue with parked messages means a
            // Deliver event was lost (or a payload leaked).
            let detail = format!(
                "{} message(s) still parked in the arena after the event queue drained",
                m.arena.live()
            );
            return fail(SimError::Internal, detail);
        }
        if m.cfg.check_invariants {
            if let Err(e) = Backend::check(self) {
                return fail(SimError::Invariant, e.to_string());
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Processor-side execution
    // ------------------------------------------------------------------

    fn execute(&mut self, t: Cycle, p: usize, op: Op) -> Result<(), SimError> {
        let eng = &mut self.eng;
        match op {
            Op::Done => {
                eng.procs[p].status = ProcStatus::Done;
                eng.procs[p].finish = t;
                eng.running -= 1;
            }
            Op::Compute(c) => {
                let cl = eng.cluster_of(p);
                eng.sched(cl, t + c, Ev::ProcNext(p));
            }
            Op::Read(addr) => self.mem_access(t, p, addr, MshrKind::Read),
            Op::Write(addr) => self.mem_access(t, p, addr, MshrKind::Write),
            Op::Lock(l) => eng.do_lock(t, p, l),
            Op::Unlock(l) => return self.do_unlock(t, p, l),
            Op::Barrier(b) => self.do_barrier(t, p, b),
        }
        Ok(())
    }

    /// A processor touches shared memory: the backend resolves what it can
    /// inside the cluster (hit, bus snoop, lease renewal) and otherwise
    /// names the cycle at which the miss goes out through the RAC.
    fn mem_access(&mut self, t: Cycle, p: usize, addr: u64, kind: MshrKind) {
        let block = self.eng.cfg.block_of(addr);
        if let Some(at) = self.backend.mem_access(&mut self.eng, t, p, block, kind) {
            self.issue(at, p, block, kind);
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Processor `p` releases lock `l`: a program error (touching nothing)
    /// when it does not hold it, which the run reports rather than
    /// survives.
    fn do_unlock(&mut self, t: Cycle, p: usize, l: u32) -> Result<(), SimError> {
        let eng = &mut self.eng;
        let (cl, lp) = (eng.cluster_of(p), eng.local_of(p));
        let at = t + eng.cfg.timing.sync_op;
        match eng.clusters[cl].sync.release(l, lp) {
            None => {
                let detail = format!("processor {p} released lock {l} it does not hold");
                return Err(SimError::Program(eng.post_mortem(t, detail)));
            }
            Some(LocalRelease::HandOff(next)) => {
                let g = eng.global_proc(cl, next);
                eng.resume(at, g);
            }
            Some(LocalRelease::ToHome) => {
                let (home, pts) = (eng.cfg.lock_home(l), self.backend.sync_pts(cl));
                eng.send(at, cl, home, MsgKind::UnlockReq { lock: l, pts });
            }
        }
        eng.resume(at, p);
        Ok(())
    }

    fn do_barrier(&mut self, t: Cycle, p: usize, b: u32) {
        let eng = &mut self.eng;
        let (cl, lp) = (eng.cluster_of(p), eng.local_of(p));
        if eng.clusters[cl].sync.arrive(b, lp, eng.cfg.procs_per_cluster) {
            let (home, pts) = (eng.cfg.barrier_home(b), self.backend.sync_pts(cl));
            let kind = MsgKind::BarrierArrive { barrier: b, pts };
            eng.send(t + eng.cfg.timing.sync_op, cl, home, kind);
        }
        eng.block(t, p, true);
    }

    // ------------------------------------------------------------------
    // Message delivery
    // ------------------------------------------------------------------

    fn deliver(&mut self, t: Cycle, msg: Msg) {
        let Msg { src, dst, kind } = msg;
        let (eng, backend) = (&mut self.eng, &mut self.backend);
        let tm = eng.cfg.timing;
        if eng.telemetry.on && src != dst {
            eng.telemetry.msg_deliver(t, &msg);
        }
        if let Some((block, was_write)) = eng.faults.nacks(&msg) {
            return eng.refuse(t, dst, src, block, was_write);
        }
        match kind {
            MsgKind::Nack { block, was_write } => {
                eng.telemetry.nack(t, dst, block);
                match eng.clusters[dst].rac.on_nack(block, was_write) {
                    Some(attempt) => {
                        // Reissue with exponential backoff so a refusing
                        // home is not hammered at network rate.
                        eng.faults.count().retries += 1;
                        let base = tm.bus_memory.max(1);
                        let backoff = base << (attempt - 1).min(10);
                        eng.telemetry.retry(t, dst, block, attempt, backoff);
                        let home = eng.cfg.home_of(block);
                        // Reissue whatever `issue` originally sent.
                        let kind = backend.request_kind(dst, block, was_write);
                        eng.send(t + backoff, dst, home, kind);
                    }
                    // Stale: the transaction was already serviced (a
                    // duplicate's NACK crossed the real reply). Drop it.
                    None => eng.faults.count().strays_dropped += 1,
                }
            }
            MsgKind::LockReq { lock } => {
                // Queued: the grant comes on a later release.
                // AlreadyHeld: duplicate of an already-granted request
                // (a retry crossed the acquire) — drop it.
                if let LockOutcome::Granted(pts) = eng.clusters[dst].sync.home_acquire(lock, src) {
                    eng.send(t + tm.sync_op, dst, src, MsgKind::LockGrant { lock, pts });
                }
            }
            MsgKind::LockGrant { lock, pts } => {
                backend.absorb_pts(dst, pts);
                if let Some(lp) = eng.clusters[dst].sync.on_grant(lock) {
                    let g = eng.global_proc(dst, lp);
                    eng.resume(t + tm.sync_op, g);
                } else {
                    // Nobody is waiting locally (or we already hold it):
                    // hand the lock straight back.
                    let pts = backend.sync_pts(dst);
                    eng.send(t + tm.sync_op, dst, src, MsgKind::UnlockReq { lock, pts });
                }
            }
            MsgKind::LockRetry { lock } => {
                if eng.clusters[dst].sync.on_retry(lock) {
                    let home = eng.cfg.lock_home(lock);
                    eng.send(t + tm.sync_op, dst, home, MsgKind::LockReq { lock });
                }
            }
            MsgKind::UnlockReq { lock, pts } => {
                match eng.clusters[dst].sync.home_release(lock, src, pts) {
                    UnlockOutcome::Free => {}
                    UnlockOutcome::GrantTo(c, pts) => {
                        eng.send(t + tm.sync_op, dst, c, MsgKind::LockGrant { lock, pts });
                    }
                    UnlockOutcome::RetryRegion(members) => {
                        for m in members {
                            eng.send(t + tm.sync_op, dst, m, MsgKind::LockRetry { lock });
                        }
                    }
                }
            }
            MsgKind::BarrierArrive { barrier, pts } => {
                let sync = &mut eng.clusters[dst].sync;
                if let Some((release, pts)) = sync.home_arrive(barrier, src, pts, eng.cfg.clusters) {
                    for c in release {
                        eng.send(t + tm.sync_op, dst, c, MsgKind::BarrierRelease { barrier, pts });
                    }
                }
            }
            MsgKind::BarrierRelease { barrier, pts } => {
                backend.absorb_pts(dst, pts);
                // Only a cluster that arrived is released, and it arrives
                // once all its processors are parked here.
                let local = eng.clusters[dst]
                    .sync
                    .on_release(barrier)
                    .expect("release for a barrier nobody reached");
                for lp in local {
                    let g = eng.global_proc(dst, lp);
                    eng.resume(t + tm.sync_op, g);
                }
            }
            // Everything else is protocol-specific.
            _ => backend.deliver(eng, t, msg),
        }
    }
}

impl Engine {
    fn new(cfg: MachineConfig, programs: Vec<Script>, hints: bool) -> Self {
        assert_eq!(
            programs.len(),
            cfg.processors(),
            "need one program per processor"
        );
        let clusters: Vec<ClusterNode> = (0..cfg.clusters)
            .map(|c| ClusterNode {
                caches: ClusterCaches::new(cfg.procs_per_cluster, || {
                    CacheHierarchy::new(cfg.l1_blocks, cfg.l1_ways, cfg.l2_blocks, cfg.l2_ways)
                }),
                dir: scd_core::DirectoryStore::new(
                    cfg.scheme,
                    cfg.clusters,
                    cfg.organization.clone(),
                    cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                rac: Rac::new(),
                ser: HomeSerializer::new(),
                sync: SyncTables::new(cfg.scheme, cfg.clusters),
                cur_version: DenseTable::new(),
                line_version: FastMap::default(),
            })
            .collect();
        let mut network = Network::new(cfg.clusters, cfg.latency);
        if let Some(occ) = cfg.link_occupancy {
            network = network.with_contention(occ);
        }
        let procs = programs
            .into_iter()
            .map(|program| ProcState {
                program,
                pending: None,
                status: ProcStatus::Running,
                blocked_since: 0,
                blocked_on_sync: false,
                mem_stall: 0,
                sync_stall: 0,
                finish: 0,
            })
            .collect::<Vec<_>>();
        let running = procs.len();
        let event_log = RingLog::new(cfg.event_log);
        let recorder = Recorder::new(&cfg);
        if recorder.config().attribution {
            network.enable_link_counters();
        }
        let mut clusters = clusters;
        if recorder.config().patterns {
            // Churn tracking rides the patterns flag: the sparse
            // organizations start counting victim re-references from
            // cycle 0 (no-op for complete/overflow backings).
            for c in &mut clusters {
                c.dir.enable_churn_tracking();
            }
        }
        Engine {
            queue: EventQueue::new(),
            arena: MsgArena::new(),
            clusters,
            network,
            procs,
            running,
            hints,
            oracle: oracle::Oracle::new(cfg.check_invariants, cfg.value_oracle, cfg.processors()),
            tally: Tally::default(),
            faults: FaultInjector::new(&cfg),
            last_progress: 0,
            event_log,
            telemetry: recorder,
            mutation: None,
            emit_seq: vec![0; cfg.clusters],
            cfg,
        }
    }

    /// Draws the next canonical stamp from `cluster`'s emission counter.
    /// Every schedule site stamps from the cluster context doing the
    /// emitting, which is always the cluster whose event is currently
    /// being processed — so each counter advances in an order that is
    /// pure local history.
    #[inline]
    fn stamp(&mut self, cluster: usize) -> Stamp {
        let k = self.emit_seq[cluster];
        self.emit_seq[cluster] = k + 1;
        Stamp {
            lane: cluster as u32,
            seq: k,
        }
    }

    /// Schedules a local event at `time`, stamped from `cluster`'s context.
    #[inline]
    fn sched(&mut self, cluster: usize, time: Cycle, ev: Ev) {
        let stamp = self.stamp(cluster);
        self.queue.schedule_at_stamped(time, stamp, ev);
    }

    /// Schedules one finalized delivery, stamped from its *source*
    /// cluster.
    fn schedule_delivery(&mut self, deliver_at: Cycle, msg: Msg) {
        let r = self.arena.alloc(msg);
        self.sched(msg.src, deliver_at, Ev::Deliver(r));
    }

    fn cluster_of(&self, p: usize) -> usize {
        p / self.cfg.procs_per_cluster
    }

    fn local_of(&self, p: usize) -> usize {
        p % self.cfg.procs_per_cluster
    }

    fn global_proc(&self, cluster: usize, local: usize) -> usize {
        cluster * self.cfg.procs_per_cluster + local
    }

    /// Home-local index of `block` (see [`MachineConfig::dir_key`]): the
    /// key of the directory store and of every home-side dense table.
    fn dir_key(&self, block: u64) -> u64 {
        self.cfg.dir_key(block)
    }

    /// Data versions: the home hands out a fresh version for a new
    /// ownership epoch of `block`.
    fn bump_version(&mut self, home: usize, block: u64) -> u64 {
        self.tally.versions_assigned += 1;
        let key = self.dir_key(block);
        let v = self.clusters[home].cur_version.slot(key);
        *v += 1;
        *v
    }

    /// Data versions: the version memory would supply for `block`.
    fn memory_version(&self, home: usize, block: u64) -> u64 {
        self.clusters[home].cur_version.value(self.dir_key(block))
    }

    /// Data versions: cluster `cl` installed a copy of `block` at `version`.
    fn set_line_version(&mut self, cl: usize, block: u64, version: u64) {
        self.clusters[cl].line_version.insert(block, version);
    }

    /// Data versions: the version of cluster `cl`'s copy of `block` (0 if
    /// it never held one).
    fn line_version(&self, cl: usize, block: u64) -> u64 {
        self.clusters[cl].line_version.get(&block).copied().unwrap_or(0)
    }

    /// Sends `kind` from cluster `src` to cluster `dst`, accounting traffic
    /// and network latency. Intra-cluster deliveries are free and uncounted
    /// (they ride the cluster bus), and are also exempt from fault
    /// injection.
    fn send(&mut self, ready_at: Cycle, src: usize, dst: usize, kind: MsgKind) {
        let msg = Msg { src, dst, kind };
        let nominal = ready_at + self.network.send(ready_at, src, dst);
        if src == dst {
            return self.schedule_delivery(nominal, msg);
        }
        self.tally.traffic.record(kind.class());
        if self.telemetry.on {
            // The recorder accounts the message; the link table is the
            // network's, so the engine applies the flits.
            if let Some(flits) = self.telemetry.msg_send(&self.network, ready_at, &msg) {
                self.network.note_link_traffic(src, dst, flits);
            }
        }
        let (deliver_at, dup) = self.faults.on_send(nominal, &msg);
        self.schedule_delivery(deliver_at, msg);
        if let Some(at) = dup {
            // The duplicate gets its own arena slot: each handle is taken
            // exactly once.
            self.schedule_delivery(at, msg);
        }
    }

    /// The home refuses a coherence request with a NACK, touching no
    /// state; the requester backs off and retries (or drops the NACK as a
    /// stray if the transaction was serviced anyway).
    fn refuse(&mut self, t: Cycle, home: usize, requester: usize, block: u64, was_write: bool) {
        self.faults.count().nacks += 1;
        self.send(t + self.cfg.timing.dir_lookup, home, requester, MsgKind::Nack { block, was_write });
    }

    /// An invalidation event of `targets` copies at `home`: the run's
    /// invalidation histogram and telemetry both record it.
    fn inval_event(&mut self, t: Cycle, home: usize, block: u64, targets: usize, cause: &'static str) {
        self.tally.inval_hist.record(targets);
        self.telemetry.inval(t, home, block, targets as u32, cause);
    }

    fn unblock(&mut self, at: Cycle, p: usize) {
        let st = &mut self.procs[p];
        if st.status == ProcStatus::Blocked {
            let stalled = at.saturating_sub(st.blocked_since);
            if st.blocked_on_sync {
                st.sync_stall += stalled;
            } else {
                st.mem_stall += stalled;
            }
        }
        st.status = ProcStatus::Running;
    }

    fn resume(&mut self, at: Cycle, p: usize) {
        self.unblock(at, p);
        let cl = self.cluster_of(p);
        self.sched(cl, at, Ev::ProcNext(p));
    }

    fn retry(&mut self, at: Cycle, p: usize) {
        self.unblock(at, p);
        let cl = self.cluster_of(p);
        self.sched(cl, at, Ev::ProcRetry(p));
    }

    fn block(&mut self, at: Cycle, p: usize, on_sync: bool) {
        let st = &mut self.procs[p];
        st.status = ProcStatus::Blocked;
        st.blocked_since = at;
        st.blocked_on_sync = on_sync;
    }

    /// Tells telemetry an event popped at `t`: interval boundaries at or
    /// below `t` close, and the stream emits what that made final.
    fn observe_clock(&mut self, t: Cycle) {
        let (faults, ops) = (self.faults.counters(), self.tally.ops());
        self.telemetry.close_intervals(t, &self.network, &self.clusters, &faults, ops);
        self.telemetry.flush_below(t);
    }

    /// Seeds the event queue with every processor's first fetch. Separated
    /// from [`Machine::try_run`] so the exploration API can drive the same
    /// machine one chosen event at a time.
    fn start(&mut self) {
        for p in 0..self.procs.len() {
            let cl = self.cluster_of(p);
            self.sched(cl, 0, Ev::ProcNext(p));
        }
    }

    /// The wheel delivers an event from the past without rewinding its
    /// clock; handling one at `t` would corrupt every later timestamp.
    fn check_not_behind_clock(&self, t: Cycle) -> Result<(), SimError> {
        let now = self.queue.now();
        if t < now {
            let detail = format!("delivery would move the clock backwards ({t} < {now})");
            return Err(SimError::Internal(self.post_mortem(t, detail)));
        }
        Ok(())
    }

    /// Snapshot of the machine for a [`SimError`]. Boxed because the
    /// snapshot is large and `try_run`'s `Ok` path should stay lean.
    fn post_mortem(&self, cycle: Cycle, detail: String) -> Box<PostMortem> {
        let blocked_procs = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, st)| st.status != ProcStatus::Done)
            .map(|(p, st)| BlockedProc {
                proc: p,
                status: format!("{:?}", st.status),
                pending: st.pending.map(|op| format!("{op:?}")),
                blocked_since: st.blocked_since,
            })
            .collect();
        let clusters: Vec<ClusterDiag> = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, n)| n.rac.outstanding() > 0 || n.ser.busy_blocks() > 0)
            .map(|(c, n)| ClusterDiag {
                cluster: c,
                mshrs: n.rac.outstanding(),
                busy: n
                    .ser
                    .debug_state()
                    .into_iter()
                    .map(|(b, reason, queued)| (b, format!("{reason:?}"), queued))
                    .collect(),
            })
            .collect();
        // Attach each stuck cluster's recent trace history (empty when
        // tracing is off): the transaction-level view of what the cluster
        // was doing when the run died.
        const TAIL_EVENTS: usize = 16;
        let trace_tails = clusters
            .iter()
            .map(|d: &ClusterDiag| d.cluster)
            .filter_map(|c| {
                let tail = self.telemetry.tracer.tail(c, TAIL_EVENTS);
                (!tail.is_empty()).then(|| (c, tail.iter().map(TraceEvent::render).collect()))
            })
            .collect();
        Box::new(PostMortem {
            cycle,
            running: self.running,
            blocked_procs,
            clusters,
            recent_events: self
                .event_log
                .iter()
                .map(|(at, ev)| format!("[{at:>8}] {ev:?}"))
                .collect(),
            trace_tails,
            dropped_events: self.telemetry.tracer.dropped(),
            counters: self.tally.counters,
            faults: self.faults.counters(),
            detail,
        })
    }

    fn fill(&mut self, t: Cycle, cl: usize, lp: usize, block: u64, state: LineState) {
        if let Some(ev) = self.clusters[cl].caches.fill(lp, block, state, t) {
            if ev.state == LineState::Dirty {
                let home = self.cfg.home_of(ev.block);
                self.clusters[cl].rac.note_writeback(ev.block);
                self.send(t, cl, home, MsgKind::Writeback { block: ev.block });
            } else if self.hints && !self.clusters[cl].caches.holds(ev.block) {
                // The cluster's last clean copy left silently; tell the
                // home so a precise entry can forget us.
                let home = self.cfg.home_of(ev.block);
                self.send(t, cl, home, MsgKind::ReplacementHint { block: ev.block });
            }
        }
    }

    fn do_lock(&mut self, t: Cycle, p: usize, l: u32) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        if self.clusters[cl].sync.acquire(l, lp) {
            let home = self.cfg.lock_home(l);
            self.send(t + self.cfg.timing.sync_op, cl, home, MsgKind::LockReq { lock: l });
        }
        self.block(t, p, true);
    }

    /// Schedules the next replay of a parked request, if any. Replays run
    /// as real events `dir_lookup` apart, so the directory's state
    /// mutations and message emissions stay in timestamp order (a burst of
    /// parked readers, e.g. LU's pivot column, also cannot complete in
    /// zero home time).
    fn drain(&mut self, t: Cycle, home: usize, block: u64) {
        if !self.clusters[home].ser.is_busy(block)
            && self.clusters[home].ser.pending_len(block) > 0
        {
            self.sched(home, t + self.cfg.timing.dir_lookup, Ev::Replay { home, block });
        }
    }
}

/// Test-only hooks for hand-corrupting machine state, so the invariant
/// checker's error branches can be exercised without finding a protocol bug
/// that produces each corruption naturally. Not part of the public API.
#[doc(hidden)]
pub mod testing {
    use super::*;

    fn entry_of(m: &mut Machine, home: usize, block: u64) -> &mut scd_core::DirEntry {
        let key = m.eng.dir_key(block);
        match m.eng.clusters[home].dir.entry_mut(key, 0, |_| false) {
            EntryAccess::Ready(e) | EntryAccess::Displaced { entry: e, .. } => e,
            EntryAccess::Stalled { .. } => unreachable!("no pinned entries in a fresh machine"),
        }
    }

    /// Installs a copy of `block` (dirty or shared) in processor `lp` of
    /// `cluster`, bypassing the protocol.
    pub fn fill_line(m: &mut Machine, cluster: usize, lp: usize, block: u64, dirty: bool) {
        let state = if dirty { LineState::Dirty } else { LineState::Shared };
        m.eng.clusters[cluster].caches.fill(lp, block, state, 0);
    }

    /// Forces the home directory entry for `block` to Dirty with `owner`.
    pub fn force_dirty_entry(m: &mut Machine, home: usize, block: u64, owner: usize) {
        entry_of(m, home, block).make_dirty(owner as NodeId);
    }

    /// Forces the home directory entry for `block` to Shared over `sharers`.
    pub fn force_shared_entry(m: &mut Machine, home: usize, block: u64, sharers: &[usize]) {
        let nodes: Vec<NodeId> = sharers.iter().map(|&s| s as NodeId).collect();
        entry_of(m, home, block).make_shared(&nodes);
    }

    /// Removes the home directory entry for `block` entirely.
    pub fn clear_entry(m: &mut Machine, home: usize, block: u64) {
        let key = m.eng.dir_key(block);
        let dir = &mut m.eng.clusters[home].dir;
        if let Some(e) = dir.lookup_mut(key, 0) {
            e.clear();
        }
        dir.release_if_empty(key);
    }

    /// Sets the version of `cluster`'s copy of `block`, bypassing the protocol.
    pub fn set_line_version(m: &mut Machine, cluster: usize, block: u64, version: u64) {
        m.eng.set_line_version(cluster, block, version);
    }

    /// Moves the wheel's clock to `t` without delivering anything, so a
    /// pending event earlier than `t` is delivered from the past.
    pub fn warp_clock(m: &mut Machine, t: Cycle) {
        m.eng.queue.warp_clock(t);
    }

    /// The recorder's live transaction slots, and the machine's
    /// outstanding request MSHRs. A slot lives from its transaction's
    /// `txn_begin` to its `txn_end`, which the RAC's MSHR brackets, so the
    /// first never exceeds the second.
    pub fn txn_slots(m: &Machine) -> (usize, usize) {
        let mshrs = m.eng.clusters.iter().map(|c| c.rac.outstanding()).sum();
        (m.eng.telemetry.live_txns(), mshrs)
    }

    /// Marks `block` busy in the home serializer, as if a transaction never
    /// closed.
    pub fn mark_busy(m: &mut Machine, home: usize, block: u64) {
        m.eng.clusters[home].ser.mark_busy(block, BusyReason::AwaitClose);
    }
}
