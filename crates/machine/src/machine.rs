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
//! ## Engine, backends, telemetry
//!
//! This file is the protocol-agnostic engine: the event wheel, message
//! transport and fault injection, processor scheduling, synchronization
//! and the sharding substrate. What happens when a processor touches
//! shared memory, and when a protocol-specific message arrives, is one of
//! three backends selected by a `match` on [`ProtocolKind`]: `dash` (the
//! paper's directory-based invalidation protocol, the default), `tardis`
//! (timestamp coherence: lease-based reads, no invalidation fan-out) and
//! `dls` (directoryless shared LLC: every remote miss resolves at the
//! home slice). Everything that only *watches* lives in `telemetry`, which
//! the engine reaches through hooks that cannot mutate it back.

use scd_core::{DenseTable, DirState, EntryAccess, FastMap, NodeId, NodeSet};
use scd_mem::{CacheHierarchy, ClusterCaches, HitLevel, LineState};
use scd_noc::{FaultPlan, Network};
use scd_protocol::{
    BarrierManager, BusyReason, EarlyKind, HomeSerializer, LockManager, LockOutcome, Msg,
    MsgArena, MsgKind, MsgRef, Rac, UnlockOutcome,
};
use scd_protocol::rac::{MshrKind, StartOutcome};
use scd_sim::{Cycle, EventQueue, RingLog, SimRng, Stamp};
use scd_stats::{Histogram, MessageClass, Traffic};
use scd_tango::{Op, Script};
use scd_trace::{Json, MetricsRegistry, Phase, TraceEvent};

use crate::config::{MachineConfig, ProtocolKind};
use crate::error::{BlockedProc, ClusterDiag, PostMortem, SimError};
use crate::stats::{
    DlsCounters, FaultCounters, ProtocolCounters, RunStats, StallBreakdown, TardisCounters,
};

mod dash;
mod dls;
pub mod explore;
mod oracle;
pub mod shard;
mod tardis;
mod telemetry;

pub use oracle::ValueOracleReport;
use telemetry::{Hub, Recorder};

/// Simulator events. The hot variant, `Deliver`, carries an 8-byte
/// [`MsgRef`] into the message arena rather than the ~40-byte [`Msg`]
/// itself, so the event queue's ring buckets shuffle two words per event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// Processor fetches and executes its next operation.
    ProcNext(usize),
    /// Processor re-executes its pending operation (e.g. after a merged
    /// transaction completed with insufficient rights).
    ProcRetry(usize),
    /// A protocol message reaches its destination cluster (payload parked
    /// in the machine's [`MsgArena`]).
    Deliver(MsgRef),
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

/// The event-log mirror of [`Ev`]: identical variants, but `Deliver`
/// carries the resolved [`Msg`] so post-mortem rendering never chases a
/// handle into an arena slot that was freed (and possibly reused) long
/// after the event was logged.
#[derive(Clone, Copy, Debug)]
enum EvLog {
    /// See [`Ev::ProcNext`].
    ProcNext(usize),
    /// See [`Ev::ProcRetry`].
    ProcRetry(usize),
    /// See [`Ev::Deliver`] — payload resolved at pop time.
    Deliver(Msg),
    /// See [`Ev::Replay`].
    Replay {
        /// The home cluster.
        home: usize,
        /// The block whose queue is draining.
        block: u64,
    },
}

/// Per-cluster lock bookkeeping: which local processor holds the lock,
/// which are queued behind it, and whether the cluster has a request
/// outstanding at the lock's home.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClusterLock {
    holder: Option<usize>,
    waiters: std::collections::VecDeque<usize>,
    requested: bool,
}

/// One processing node.
#[derive(Clone)]
pub(crate) struct ClusterNode {
    pub(crate) caches: ClusterCaches,
    pub(crate) dir: scd_core::DirectoryStore,
    pub(crate) rac: Rac,
    pub(crate) ser: HomeSerializer,
    pub(crate) locks: LockManager,
    pub(crate) barriers: BarrierManager,
    pub(crate) lock_state: FastMap<u32, ClusterLock>,
    pub(crate) barrier_local: FastMap<u32, Vec<usize>>,
    /// In-progress serial invalidation chains (SCI-style mode): remaining
    /// targets, the write requester awaiting the final reply, and the
    /// version the write creates.
    pub(crate) serial_chains: FastMap<u64, (std::collections::VecDeque<usize>, usize, u64)>,
    /// Version oracle: latest version the home has assigned per block,
    /// indexed like the directory by [`MachineConfig::dir_key`] (0 = never
    /// written).
    pub(crate) cur_version: DenseTable<u64>,
    /// Version oracle: version of this cluster's resident copy per block
    /// (meaningful only while a copy is held; refreshed on every fill).
    pub(crate) line_version: FastMap<u64, u64>,
    /// The last ownership-epoch version this cluster *completed* (filled
    /// dirty) per block. A forward stamped with this epoch refers to data
    /// we have (possibly downgraded since); a forward stamped newer refers
    /// to our still-pending grant and must wait for it.
    pub(crate) last_owner_epoch: FastMap<u64, u64>,
    /// Home-side: blocks with an in-flight `FwdWrite`, whose version bump
    /// makes `cur_version` one ahead of the *recorded* owner's epoch.
    /// Indexed by [`MachineConfig::dir_key`].
    pub(crate) pending_write_bump: DenseTable<bool>,
    /// Tardis timestamp state (default-empty under the other protocols).
    pub(crate) tardis: tardis::TardisNode,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcStatus {
    Running,
    Blocked,
    Done,
}

#[derive(Clone)]
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

/// Result of the home directory's decision for one request (plain data, so
/// the caller can send messages without fighting the borrow checker).
enum DirAction {
    Stalled { blocker: u64 },
    SelfOwned,
    Forward { owner: usize },
    Supply { nb_evict: Option<usize> },
    Grant { inval_targets: NodeSet },
}

struct ReplacementWork {
    victim_key: u64,
    targets: NodeSet,
    /// The victim entry's recorded dirty owner, if any.
    dirty_owner: Option<usize>,
}

/// A delivery bound for a cluster another shard owns: exported at the end
/// of the window and merged into the destination shard's wheel at the
/// barrier, carrying the canonical stamp drawn at the (source-side) send.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Outbound {
    pub(crate) deliver_at: Cycle,
    pub(crate) stamp: Stamp,
    pub(crate) msg: Msg,
}

/// Per-cluster snapshot handed to the invariant checker: resident blocks
/// in block order with their highest state, plus the full cluster node so
/// each protocol's checker can read its own state (directory and
/// serializer for DASH, timestamp lines and leases for Tardis, version
/// counters for the directoryless LLC).
pub(crate) struct ClusterView<'a> {
    pub(crate) resident: Vec<(u64, LineState)>,
    pub(crate) node: &'a ClusterNode,
}

/// A configured DASH machine ready to run a workload.
///
/// `Clone` produces an independent machine mid-run (each processor's
/// [`Script`] keeps its position and shares its ops) — the substrate of
/// the model checker's state branching; see
/// [`explore`](crate::machine::explore).
#[derive(Clone)]
pub struct Machine {
    cfg: MachineConfig,
    queue: EventQueue<Ev>,
    /// Slab of in-flight message payloads; `Ev::Deliver` holds handles.
    arena: MsgArena,
    clusters: Vec<ClusterNode>,
    network: Network,
    traffic: Traffic,
    inval_hist: Histogram,
    procs: Vec<ProcState>,
    running: usize,
    finish_time: Cycle,
    shared_reads: u64,
    shared_writes: u64,
    sync_ops: u64,
    counters: ProtocolCounters,
    /// Tardis-specific counters (zero under the other protocols).
    tardis_counters: TardisCounters,
    /// DLS-specific counters (zero under the other protocols).
    dls_counters: DlsCounters,
    /// Value oracle for cross-protocol differential comparison (inert
    /// unless `cfg.value_oracle`).
    oracle: oracle::ValueOracle,
    /// Version oracle: highest version each cluster has observed per block.
    observed: FastMap<(usize, u64), u64>,
    versions_assigned: u64,
    /// Resolved fault plan (inert when `cfg.fault_plan` is `None`).
    fault_plan: FaultPlan,
    /// Pre-computed `fault_plan.is_active()`: an inert plan must cost
    /// nothing and never consume randomness, so every hook gates on this.
    fault_active: bool,
    /// Per-directed-channel fault streams, one slot per `(src, dst)` (see
    /// [`chan_slot`]), derived lazily as a pure function of the master
    /// seed. Send-side draws (reorder/delay/dup) and deliver-side draws
    /// (nack injection) use separate streams so each is consumed in its
    /// own channel-local order — which makes fault placement a function of
    /// per-channel traffic history alone, identical for any shard count.
    fault_send_rng: Vec<Option<SimRng>>,
    fault_nack_rng: Vec<Option<SimRng>>,
    faults: FaultCounters,
    /// Latest scheduled request-class delivery per `(src, dst)` slot, so
    /// injected latency spikes keep each channel FIFO.
    chan_clamp: Vec<Cycle>,
    /// Cycle of the last retired operation (forward-progress watchdog).
    last_progress: Cycle,
    /// Recently processed events, kept for failure post-mortems.
    event_log: RingLog<(Cycle, EvLog)>,
    /// This part's telemetry (inert unless `cfg.trace` is active); the
    /// engine only ever calls its hooks.
    telemetry: Recorder,
    /// The run's telemetry hub, used when this machine is the whole
    /// machine (a shard's stays idle: its coordinator owns the run's).
    /// `Clone` detaches the stream.
    hub: Hub,
    /// Armed test-only protocol mutation (see [`explore::Mutation`]); used
    /// to validate that the model checker actually catches protocol bugs.
    mutation: Option<explore::Mutation>,
    /// First cluster this machine owns. A solo machine owns `[0, clusters)`;
    /// a shard owns a contiguous sub-range and exports everything else.
    shard_base: usize,
    /// Number of clusters this machine owns.
    shard_count: usize,
    /// Pre-computed `shard_count == cfg.clusters`: gates the per-event
    /// watchdog check and telemetry-hub step that the shard coordinator
    /// takes over in a sharded run.
    solo: bool,
    /// Per-cluster canonical-stamp counters: every scheduled event is
    /// stamped `(cluster, emit_seq[cluster]++)` from the cluster context
    /// that emitted it, making same-cycle delivery order a pure function
    /// of per-cluster local history (identical for any shard count).
    emit_seq: Vec<u64>,
    /// Deliveries bound for clusters other shards own, drained at window
    /// barriers.
    outbox: Vec<Outbound>,
    /// End of the current conservative window (exclusive); used to check
    /// the lookahead invariant on exported deliveries. `u64::MAX` in solo
    /// mode.
    window_end: Cycle,
}

impl Machine {
    /// Builds a machine and attaches one [`Script`] per processor.
    ///
    /// # Panics
    /// If the number of programs does not match `cfg.processors()`.
    pub fn new(cfg: MachineConfig, programs: Vec<Script>) -> Self {
        let clusters = cfg.clusters;
        Self::new_shard(cfg, programs, 0, clusters)
    }

    /// Builds one shard of a machine: it owns clusters
    /// `[shard_base, shard_base + shard_count)` and their processors. The
    /// full-size cluster/processor tables are still allocated (so every
    /// index site works unchanged), but non-owned processors are inert
    /// stubs marked `Done`, `start` seeds only owned processors, and
    /// deliveries addressed to non-owned clusters are exported through the
    /// outbox instead of being scheduled locally. A solo machine is simply
    /// the shard that owns everything.
    pub(crate) fn new_shard(
        cfg: MachineConfig,
        programs: Vec<Script>,
        shard_base: usize,
        shard_count: usize,
    ) -> Self {
        assert_eq!(
            programs.len(),
            cfg.processors(),
            "need one program per processor"
        );
        assert!(
            shard_base + shard_count <= cfg.clusters && shard_count > 0,
            "shard range out of bounds"
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
                locks: LockManager::new(cfg.scheme, cfg.clusters),
                barriers: BarrierManager::new(),
                lock_state: FastMap::default(),
                barrier_local: FastMap::default(),
                serial_chains: FastMap::default(),
                cur_version: DenseTable::new(),
                line_version: FastMap::default(),
                last_owner_epoch: FastMap::default(),
                pending_write_bump: DenseTable::new(),
                tardis: tardis::TardisNode::default(),
            })
            .collect();
        let mut network = Network::new(cfg.clusters, cfg.latency);
        if let Some(occ) = cfg.link_occupancy {
            network = network.with_contention(occ);
        }
        let owned = shard_base..shard_base + shard_count;
        let procs = programs
            .into_iter()
            .enumerate()
            .map(|(p, program)| {
                let mine = owned.contains(&(p / cfg.procs_per_cluster));
                ProcState {
                    program,
                    pending: None,
                    // Non-owned processors live on another shard; marking
                    // them Done keeps every index site valid while this
                    // shard never runs them.
                    status: if mine {
                        ProcStatus::Running
                    } else {
                        ProcStatus::Done
                    },
                    blocked_since: 0,
                    blocked_on_sync: false,
                    mem_stall: 0,
                    sync_stall: 0,
                    finish: 0,
                }
            })
            .collect::<Vec<_>>();
        let running = shard_count * cfg.procs_per_cluster;
        let fault_plan = cfg.fault_plan.unwrap_or_default();
        let event_log = RingLog::new(cfg.event_log);
        let recorder = Recorder::new(&cfg, shard_base, shard_count);
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
        Machine {
            queue: EventQueue::new(),
            arena: MsgArena::new(),
            clusters,
            network,
            traffic: Traffic::new(),
            inval_hist: Histogram::new(),
            procs,
            running,
            finish_time: 0,
            shared_reads: 0,
            shared_writes: 0,
            sync_ops: 0,
            counters: ProtocolCounters::default(),
            tardis_counters: TardisCounters::default(),
            dls_counters: DlsCounters::default(),
            oracle: oracle::ValueOracle::new(cfg.value_oracle, cfg.processors()),
            observed: FastMap::default(),
            versions_assigned: 0,
            fault_active: fault_plan.is_active(),
            fault_plan,
            fault_send_rng: Vec::new(),
            fault_nack_rng: Vec::new(),
            faults: FaultCounters::default(),
            chan_clamp: Vec::new(),
            last_progress: 0,
            event_log,
            hub: Hub::new(&recorder, 1),
            telemetry: recorder,
            mutation: None,
            shard_base,
            shard_count,
            solo: shard_count == cfg.clusters,
            emit_seq: vec![0; cfg.clusters],
            outbox: Vec::new(),
            window_end: Cycle::MAX,
            cfg,
        }
    }

    /// Whether this machine owns `cluster` (always true for a solo
    /// machine).
    #[inline]
    fn owns(&self, cluster: usize) -> bool {
        cluster.wrapping_sub(self.shard_base) < self.shard_count
    }

    /// The cluster nodes this machine owns (all of them for a solo
    /// machine).
    fn owned_clusters(&self) -> &[ClusterNode] {
        &self.clusters[self.shard_base..self.shard_base + self.shard_count]
    }

    /// Draws the next canonical stamp from `cluster`'s emission counter.
    /// Every schedule site stamps from the cluster context doing the
    /// emitting, which is always the cluster whose event is currently
    /// being processed — so counters are only ever bumped by the owning
    /// shard, in an order that is pure local history.
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

    /// Routes one finalized delivery: scheduled locally when this shard
    /// owns the destination, exported through the outbox otherwise. The
    /// stamp is drawn from the *source* cluster either way, so the
    /// destination shard inserts it exactly where a solo run would have.
    fn deliver_or_export(&mut self, deliver_at: Cycle, msg: Msg) {
        let stamp = self.stamp(msg.src);
        if self.owns(msg.dst) {
            let r = self.arena.alloc(msg);
            self.queue.schedule_at_stamped(deliver_at, stamp, Ev::Deliver(r));
        } else {
            // The conservative-window invariant: a cross-shard delivery
            // can never land inside the window that produced it.
            assert!(
                deliver_at >= self.window_end,
                "cross-shard delivery at {deliver_at} inside window ending {}",
                self.window_end
            );
            self.outbox.push(Outbound {
                deliver_at,
                stamp,
                msg,
            });
        }
    }

    /// Merges one delivery exported by another shard into the local wheel.
    pub(crate) fn import_delivery(&mut self, ob: Outbound) {
        debug_assert!(self.owns(ob.msg.dst));
        let r = self.arena.alloc(ob.msg);
        self.queue
            .schedule_at_stamped(ob.deliver_at, ob.stamp, Ev::Deliver(r));
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
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

    /// Version oracle: the home hands out a fresh version for a new
    /// ownership epoch of `block`.
    fn bump_version(&mut self, home: usize, block: u64) -> u64 {
        self.versions_assigned += 1;
        let key = self.dir_key(block);
        let v = self.clusters[home].cur_version.slot(key);
        *v += 1;
        *v
    }

    /// Version oracle: the version memory would supply for `block`.
    fn memory_version(&self, home: usize, block: u64) -> u64 {
        self.clusters[home].cur_version.value(self.dir_key(block))
    }

    /// Version oracle: cluster `cl` installed a copy of `block` at `version`.
    fn set_line_version(&mut self, cl: usize, block: u64, version: u64) {
        self.clusters[cl].line_version.insert(block, version);
    }

    /// Version oracle: cluster `cl` observed `block` (a read or write hit /
    /// completion). Panics if the observation runs backwards — i.e. the
    /// cluster sees data older than it has already seen, the signature of a
    /// stale copy surviving an invalidation it should not have.
    fn observe(&mut self, cl: usize, block: u64) {
        if !self.cfg.track_versions {
            return;
        }
        let v = self.clusters[cl]
            .line_version
            .get(&block)
            .copied()
            .unwrap_or(0);
        let last = self.observed.entry((cl, block)).or_insert(0);
        assert!(
            v >= *last,
            "version oracle: cluster {cl} observed block {block} at version {v}              after already seeing version {last}"
        );
        *last = v;
    }

    /// Sends `msg`, accounting traffic and network latency. Intra-cluster
    /// deliveries are free and uncounted (they ride the cluster bus), and
    /// are also exempt from fault injection.
    fn send(&mut self, ready_at: Cycle, msg: Msg) {
        let lat = self.network.send(ready_at, msg.src, msg.dst);
        if msg.src != msg.dst {
            self.traffic.record(msg.kind.class());
            if self.telemetry.on {
                // The recorder accounts the message; the link table is
                // the network's, so the engine applies the flits.
                if let Some(flits) = self.telemetry.msg_send(&self.network, ready_at, &msg) {
                    self.network.note_link_traffic(msg.src, msg.dst, flits);
                }
            }
            if self.fault_active {
                return self.faulty_schedule(ready_at + lat, msg);
            }
        }
        self.deliver_or_export(ready_at + lat, msg);
    }

    /// The per-channel fault stream for `(src, dst)`: a pure function of
    /// the master seed and the channel, so any shard (or a solo run)
    /// derives the identical stream. `side` separates send-side draws from
    /// deliver-side (nack) draws.
    fn channel_rng(seed: u64, src: usize, dst: usize, side: u64) -> SimRng {
        let mut x = seed ^ 0xFA17_5EED_0000_0000;
        for v in [src as u64, dst as u64, side] {
            x = (x ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
        }
        SimRng::new(x)
    }

    fn send_rng(&mut self, src: usize, dst: usize) -> &mut SimRng {
        let seed = self.cfg.seed;
        chan_slot(&mut self.fault_send_rng, self.cfg.clusters, src, dst)
            .get_or_insert_with(|| Self::channel_rng(seed, src, dst, 1))
    }

    fn nack_rng(&mut self, src: usize, dst: usize) -> &mut SimRng {
        let seed = self.cfg.seed;
        chan_slot(&mut self.fault_nack_rng, self.cfg.clusters, src, dst)
            .get_or_insert_with(|| Self::channel_rng(seed, src, dst, 2))
    }

    /// Applies the fault plan to one inter-cluster delivery: latency spikes
    /// and out-of-order jitter move the delivery time, duplication
    /// schedules the message twice. Which kinds each mode may touch is
    /// dictated by the protocol's ordering assumptions (DESIGN.md, failure
    /// model): replies, invalidations and acknowledgements are never
    /// perturbed — delaying one past a newer ownership epoch would corrupt
    /// state the protocol has no recovery path for, whereas requests are
    /// absorbed by the home's serializer, SelfOwned handling, and NAKs.
    fn faulty_schedule(&mut self, nominal: Cycle, msg: Msg) {
        let plan = self.fault_plan;
        let request_class = msg.kind.class() == MessageClass::Request;
        let coherence_req = matches!(
            msg.kind,
            MsgKind::ReadReq { .. }
                | MsgKind::WriteReq { .. }
                | MsgKind::TardisReadReq { .. }
                | MsgKind::TardisWriteReq { .. }
        );
        let mut deliver_at = nominal;
        let mut clamp_exempt = false;
        if coherence_req
            && plan.reorder_window > 0
            && plan.reorder_prob > 0.0
            && self.send_rng(msg.src, msg.dst).chance(plan.reorder_prob)
        {
            // Jitter *outside* the channel clamp: the request may land
            // behind traffic sent after it, or — when a spike holds the
            // clamp high — ahead of traffic sent before it, such as its own
            // cluster's writeback.
            deliver_at += self
                .send_rng(msg.src, msg.dst)
                .range(1, plan.reorder_window + 1);
            self.faults.reorders += 1;
            clamp_exempt = true;
        } else if request_class
            && plan.delay_cycles > 0
            && plan.delay_prob > 0.0
            && self.send_rng(msg.src, msg.dst).chance(plan.delay_prob)
        {
            deliver_at += self
                .send_rng(msg.src, msg.dst)
                .range(1, plan.delay_cycles + 1);
            self.faults.delay_spikes += 1;
        }
        if request_class && !clamp_exempt {
            // A spiked request must not be overtaken by later traffic on
            // its own (FIFO) channel.
            let clamp = chan_slot(&mut self.chan_clamp, self.cfg.clusters, msg.src, msg.dst);
            deliver_at = deliver_at.max(*clamp);
            *clamp = deliver_at;
        }
        let dup_gap = if matches!(
            msg.kind,
            MsgKind::ReadReq { .. } | MsgKind::TardisReadReq { .. }
        ) && plan.dup_prob > 0.0
            && self.send_rng(msg.src, msg.dst).chance(plan.dup_prob)
        {
            // At-least-once delivery, reads only: re-servicing a read is
            // idempotent (sharer registration is superset-safe and the
            // stray reply is dropped at the RAC), while re-servicing a
            // write would record a second ownership grant. The duplicate
            // gets its own arena slot: each handle is taken exactly once.
            let hi = self.cfg.timing.bus_memory.max(1) + 1;
            let gap = self.send_rng(msg.src, msg.dst).range(1, hi);
            self.faults.duplicates += 1;
            Some(gap)
        } else {
            None
        };
        self.deliver_or_export(deliver_at, msg);
        if let Some(gap) = dup_gap {
            self.deliver_or_export(deliver_at + gap, msg);
        }
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
        self.start();
        while let Some((t, ev)) = self.queue.pop() {
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

    /// Processes every pending event strictly below `horizon` — one
    /// conservative window of a sharded run. Returns the time of the last
    /// event processed, if any. Anything popped inside the window can only
    /// schedule locally (at or after the pop time) or export through the
    /// outbox (`deliver_or_export` asserts exports never fall before
    /// `horizon`). After the pops, any interval boundary at or below
    /// `horizon` that no local event crossed is force-closed: its window
    /// content is final because every local event below `horizon` has been
    /// processed and none of them reached the boundary.
    fn run_window(&mut self, horizon: Cycle) -> Result<Option<Cycle>, SimError> {
        self.window_end = horizon;
        let mut last = None;
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked a pending event");
            self.process_event(t, ev)?;
            last = Some(t);
        }
        if self.telemetry.on {
            self.observe_clock(horizon);
        }
        Ok(last)
    }

    /// Tells telemetry the clock reached `t` (an event pop, or the end of
    /// a shard's window): interval boundaries at or below `t` close — for
    /// an idle shard too, which owes the hub a zero-delta piece for every
    /// window the fleet finished — and, when this is the whole machine,
    /// the hub merges and streams what that made final.
    fn observe_clock(&mut self, t: Cycle) {
        let ops = self.shared_reads + self.shared_writes + self.sync_ops;
        self.telemetry
            .close_intervals(t, &self.network, &self.clusters, &self.faults, ops);
        if self.solo {
            self.hub.step(&mut self.telemetry, t);
        }
    }

    /// Seeds the event queue with every processor's first fetch. Separated
    /// from [`Machine::try_run`] so the exploration API can drive the same
    /// machine one chosen event at a time.
    fn start(&mut self) {
        for p in 0..self.procs.len() {
            let cl = self.cluster_of(p);
            if !self.owns(cl) {
                continue; // another shard seeds this processor
            }
            self.sched(cl, 0, Ev::ProcNext(p));
        }
    }

    /// Processes one popped event: runaway/watchdog guards, event-log
    /// recording, and dispatch to the processor/protocol handlers. This is
    /// the entire body of the run loop; [`Machine::try_run`] and the
    /// exploration stepper share it so a checked interleaving exercises
    /// exactly the code a production run does.
    fn process_event(&mut self, t: Cycle, ev: Ev) -> Result<(), SimError> {
        {
            if self.cfg.max_cycles > 0 && t > self.cfg.max_cycles {
                let detail = format!(
                    "exceeded max_cycles={} ({} procs still running)",
                    self.cfg.max_cycles, self.running
                );
                return Err(SimError::MaxCycles(self.post_mortem(t, detail)));
            }
            // The livelock watchdog compares against *global* progress, so
            // under sharding it moves to the coordinator's barrier (a shard
            // legitimately idles while a remote transaction it depends on
            // makes progress on another worker).
            if self.solo
                && self.cfg.watchdog_cycles > 0
                && self.running > 0
                && t.saturating_sub(self.last_progress) > self.cfg.watchdog_cycles
            {
                let detail = format!(
                    "no operation retired since cycle {} (watchdog window {})",
                    self.last_progress, self.cfg.watchdog_cycles
                );
                return Err(SimError::LivelockWatchdog(self.post_mortem(t, detail)));
            }
            if self.telemetry.on {
                self.observe_clock(t);
            }
            // Resolve the hot handle into its payload *before* logging, so
            // the post-mortem ring holds the message itself, not a handle
            // into a slot that the arena's free list will recycle.
            let ev = match ev {
                Ev::ProcNext(p) => EvLog::ProcNext(p),
                Ev::ProcRetry(p) => EvLog::ProcRetry(p),
                Ev::Replay { home, block } => EvLog::Replay { home, block },
                Ev::Deliver(r) => match self.arena.take(r) {
                    Some(msg) => EvLog::Deliver(msg),
                    None => {
                        // Every alloc is taken exactly once (duplicated
                        // deliveries get their own slot), so a stale handle
                        // here means the arena bookkeeping is broken.
                        let detail = format!(
                            "delivery of stale message handle (slot {}, generation {})",
                            r.index(),
                            r.generation()
                        );
                        return Err(SimError::InvariantViolation(
                            self.post_mortem(t, detail),
                        ));
                    }
                },
            };
            self.event_log.push((t, ev));
            match ev {
                EvLog::ProcNext(p) => {
                    if self.procs[p].status == ProcStatus::Done {
                        return Ok(());
                    }
                    // Fetching the next operation means the previous one
                    // retired: forward progress for the watchdog.
                    self.last_progress = t;
                    let op = self.procs[p].program.next_op();
                    self.procs[p].pending = Some(op);
                    match op {
                        Op::Read(_) => self.shared_reads += 1,
                        Op::Write(_) => self.shared_writes += 1,
                        Op::Lock(_) | Op::Unlock(_) | Op::Barrier(_) => self.sync_ops += 1,
                        _ => {}
                    }
                    self.execute(t, p, op);
                }
                EvLog::ProcRetry(p) => {
                    let Some(op) = self.procs[p].pending else {
                        let detail = format!("retry of processor {p} with no pending op");
                        return Err(SimError::InvariantViolation(
                            self.post_mortem(t, detail),
                        ));
                    };
                    self.execute(t, p, op);
                }
                EvLog::Deliver(msg) => {
                    self.deliver(t, msg);
                }
                EvLog::Replay { home, block } => {
                    if let Some(req) = self.clusters[home].ser.pop_ready(block) {
                        // Only protocols that queue at the home ever see a
                        // replay: DASH always, DLS behind a home-local write.
                        match self.cfg.protocol {
                            ProtocolKind::Dash => self.home_request(
                                t,
                                home,
                                req.requester,
                                req.block,
                                req.is_write,
                            ),
                            ProtocolKind::Dls => self.dls_replay(t, home, req),
                            ProtocolKind::Tardis => {
                                unreachable!("tardis never queues home requests")
                            }
                        }
                    }
                    self.drain(t, home, block);
                }
            }
            if self.running == 0 && self.finish_time == 0 {
                self.finish_time = t;
                // Keep draining in-flight messages so the machine quiesces
                // and invariants can be checked.
            }
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
        Self::check_drained(std::slice::from_ref(self)).map_err(|(_, e)| e)?;
        Ok(self.collect())
    }

    /// What a drained machine made of `parts` (a solo machine is its own
    /// only part) must satisfy: every processor retired, no leaked arena
    /// payloads, and (when configured) the quiescent coherence invariants
    /// — checked across part boundaries, each cluster's view coming from
    /// the part that owns it. A failure names the offending part.
    pub(crate) fn check_drained(parts: &[Machine]) -> Result<(), (usize, SimError)> {
        for (s, m) in parts.iter().enumerate() {
            let fail = |kind: fn(Box<PostMortem>) -> SimError, detail: String| {
                Err((s, kind(m.post_mortem(m.queue.now(), detail))))
            };
            if m.running != 0 {
                let detail = format!(
                    "{} processors blocked with an empty event queue",
                    m.running
                );
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
                return fail(SimError::InvariantViolation, detail);
            }
        }
        if parts[0].cfg.check_invariants {
            let (cfg, views) = Self::checker_view(parts);
            if let Err(e) = crate::checker::verify_views(cfg, &views) {
                let owner = |c| parts.iter().position(|m| m.owns(c));
                let s = e.cluster.and_then(owner).unwrap_or(0);
                let pm = parts[s].post_mortem(parts[s].queue.now(), e.to_string());
                return Err((s, SimError::InvariantViolation(pm)));
            }
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
                let tail = self.trace_tail(c, TAIL_EVENTS);
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
            dropped_events: self.trace_counts().1,
            counters: self.counters,
            faults: self.faults,
            detail,
        })
    }

    fn collect(&self) -> RunStats {
        let mut sparse: Option<scd_core::SparseStats> = None;
        let mut overflow: Option<scd_core::OverflowStats> = None;
        let mut live = 0;
        let mut lock_metrics = (0u64, 0u64);
        let mut queue_metrics = (0usize, 0u64);
        for c in &self.clusters {
            // Live directory-equivalent entries (the paper's memory-overhead
            // metric): timestamp lines for Tardis, none for the
            // directoryless LLC.
            live += match self.cfg.protocol {
                ProtocolKind::Dash => c.dir.live_entries(),
                ProtocolKind::Tardis => c.tardis.lines.iter().count(),
                ProtocolKind::Dls => 0,
            };
            crate::stats::add_opt(&mut sparse, c.dir.sparse_stats());
            crate::stats::add_opt(&mut overflow, c.dir.overflow_stats());
            let (g, r) = c.locks.metrics();
            lock_metrics.0 += g;
            lock_metrics.1 += r;
            let (d, q) = c.ser.queue_metrics();
            queue_metrics.0 = queue_metrics.0.max(d);
            queue_metrics.1 += q;
        }
        RunStats {
            cycles: self.finish_time,
            traffic: self.traffic,
            invalidations: self.inval_hist.clone(),
            shared_reads: self.shared_reads,
            shared_writes: self.shared_writes,
            sync_ops: self.sync_ops,
            network: self.network.stats().clone(),
            sparse,
            overflow,
            l2_misses: self.clusters.iter().map(|c| c.caches.total_l2_misses()).sum(),
            lock_metrics,
            queue_metrics,
            live_dir_entries: live,
            protocol: self.counters,
            tardis: (self.cfg.protocol == ProtocolKind::Tardis).then_some(self.tardis_counters),
            dls: (self.cfg.protocol == ProtocolKind::Dls).then_some(self.dls_counters),
            faults: self.faults,
            versions_assigned: self.versions_assigned,
            events_delivered: self.queue.delivered(),
            stalls: StallBreakdown {
                mem_stall: self.procs.iter().map(|p| p.mem_stall).collect(),
                sync_stall: self.procs.iter().map(|p| p.sync_stall).collect(),
                finish: self.procs.iter().map(|p| p.finish).collect(),
            },
        }
    }

    // ------------------------------------------------------------------
    // Processor-side execution
    // ------------------------------------------------------------------

    fn execute(&mut self, t: Cycle, p: usize, op: Op) {
        match op {
            Op::Done => {
                self.procs[p].status = ProcStatus::Done;
                self.procs[p].finish = t;
                self.running -= 1;
            }
            Op::Compute(c) => {
                let cl = self.cluster_of(p);
                self.sched(cl, t + c, Ev::ProcNext(p));
            }
            Op::Read(addr) => self.mem_access(t, p, addr, MshrKind::Read),
            Op::Write(addr) => self.mem_access(t, p, addr, MshrKind::Write),
            Op::Lock(l) => self.do_lock(t, p, l),
            Op::Unlock(l) => self.do_unlock(t, p, l),
            Op::Barrier(b) => self.do_barrier(t, p, b),
        }
    }

    fn mem_access(&mut self, t: Cycle, p: usize, addr: u64, kind: MshrKind) {
        let block = self.cfg.block_of(addr);
        match self.cfg.protocol {
            ProtocolKind::Dash => self.dash_mem_access(t, p, block, kind),
            ProtocolKind::Tardis => self.tardis_mem_access(t, p, block, kind),
            ProtocolKind::Dls => self.dls_mem_access(t, p, block, kind),
        }
    }

    fn fill(&mut self, t: Cycle, cl: usize, lp: usize, block: u64, state: LineState) {
        if let Some(ev) = self.clusters[cl].caches.fill(lp, block, state, t) {
            if ev.state == LineState::Dirty {
                let home = self.cfg.home_of(ev.block);
                self.clusters[cl].rac.note_writeback(ev.block);
                self.send(
                    t,
                    Msg {
                        src: cl,
                        dst: home,
                        kind: MsgKind::Writeback { block: ev.block },
                    },
                );
            } else if self.cfg.replacement_hints
                && self.cfg.protocol != ProtocolKind::Tardis
                && !self.clusters[cl].caches.holds(ev.block)
            {
                // The cluster's last clean copy left silently; tell the
                // home so a precise entry can forget us.
                let home = self.cfg.home_of(ev.block);
                self.send(
                    t,
                    Msg {
                        src: cl,
                        dst: home,
                        kind: MsgKind::ReplacementHint { block: ev.block },
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    fn do_lock(&mut self, t: Cycle, p: usize, l: u32) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let home = self.cfg.lock_home(l);
        let st = self.clusters[cl].lock_state.entry(l).or_default();
        st.waiters.push_back(lp);
        let need_request = st.holder.is_none() && !st.requested;
        if need_request {
            st.requested = true;
            self.send(
                t + tm.sync_op,
                Msg {
                    src: cl,
                    dst: home,
                    kind: MsgKind::LockReq { lock: l },
                },
            );
        }
        self.block(t, p, true);
    }

    fn do_unlock(&mut self, t: Cycle, p: usize, l: u32) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let home = self.cfg.lock_home(l);
        let st = self
            .clusters[cl]
            .lock_state
            .get_mut(&l)
            .expect("unlock of never-acquired lock");
        assert_eq!(
            st.holder,
            Some(lp),
            "processor {p} released lock {l} it does not hold"
        );
        st.holder = None;
        if let Some(next) = st.waiters.pop_front() {
            // Intra-cluster handoff over the bus; the home still sees this
            // cluster as the holder.
            st.holder = Some(next);
            let g = self.global_proc(cl, next);
            self.resume(t + tm.sync_op, g);
        } else {
            let pts = self.sync_pts(cl);
            self.send(
                t + tm.sync_op,
                Msg {
                    src: cl,
                    dst: home,
                    kind: MsgKind::UnlockReq { lock: l, pts },
                },
            );
        }
        self.resume(t + tm.sync_op, p);
    }

    fn do_barrier(&mut self, t: Cycle, p: usize, b: u32) {
        let (cl, lp) = (self.cluster_of(p), self.local_of(p));
        let tm = self.cfg.timing;
        let home = self.cfg.barrier_home(b);
        let local = self.clusters[cl].barrier_local.entry(b).or_default();
        local.push(lp);
        let all_local = local.len() == self.cfg.procs_per_cluster;
        if all_local {
            let pts = self.sync_pts(cl);
            self.send(
                t + tm.sync_op,
                Msg {
                    src: cl,
                    dst: home,
                    kind: MsgKind::BarrierArrive { barrier: b, pts },
                },
            );
        }
        self.block(t, p, true);
    }

    // ------------------------------------------------------------------
    // Message delivery
    // ------------------------------------------------------------------

    fn deliver(&mut self, t: Cycle, msg: Msg) {
        let Msg { src, dst, kind } = msg;
        if self.telemetry.on && src != dst {
            self.telemetry.msg_deliver(t, &msg);
        }
        if self.fault_active && src != dst && self.fault_plan.nack_prob > 0.0 {
            if let MsgKind::ReadReq { block }
            | MsgKind::WriteReq { block }
            | MsgKind::TardisReadReq { block, .. }
            | MsgKind::TardisWriteReq { block } = kind
            {
                let nack_prob = self.fault_plan.nack_prob;
                if self.nack_rng(src, dst).chance(nack_prob) {
                    // The home refuses the request without touching any
                    // state; the requester backs off and retries. Decided
                    // at delivery rather than in `home_request` so replayed
                    // parked requests are never refused — they already hold
                    // a queue slot.
                    self.faults.nacks += 1;
                    let was_write = matches!(
                        kind,
                        MsgKind::WriteReq { .. } | MsgKind::TardisWriteReq { .. }
                    );
                    self.send(
                        t + self.cfg.timing.dir_lookup,
                        Msg {
                            src: dst,
                            dst: src,
                            kind: MsgKind::Nack { block, was_write },
                        },
                    );
                    return;
                }
            }
        }
        match kind {
            MsgKind::Nack { block, was_write } => {
                self.telemetry.nack(t, dst, block);
                match self.clusters[dst].rac.on_nack(block, was_write) {
                    Some(attempt) => {
                        // Reissue with exponential backoff so a refusing
                        // home is not hammered at network rate.
                        self.faults.retries += 1;
                        let base = self.cfg.timing.bus_memory.max(1);
                        let backoff = base << (attempt - 1).min(10);
                        self.telemetry.retry(t, dst, block, attempt, backoff);
                        let home = self.cfg.home_of(block);
                        // Reissue whatever the active protocol's miss
                        // path originally sent.
                        let kind = match (self.cfg.protocol, was_write) {
                            (ProtocolKind::Tardis, true) => MsgKind::TardisWriteReq { block },
                            (ProtocolKind::Tardis, false) => MsgKind::TardisReadReq {
                                block,
                                pts: self.clusters[dst].tardis.pts,
                            },
                            (_, true) => MsgKind::WriteReq { block },
                            (_, false) => MsgKind::ReadReq { block },
                        };
                        self.send(t + backoff, Msg { src: dst, dst: home, kind });
                    }
                    // Stale: the transaction was already serviced (a
                    // duplicate's NACK crossed the real reply). Drop it.
                    None => self.faults.strays_dropped += 1,
                }
            }
            MsgKind::LockReq { lock } => {
                match self.clusters[dst].locks.acquire(lock, src) {
                    LockOutcome::Granted => {
                        let pts = self.lock_grant_pts(dst, lock);
                        self.send(
                            t + self.cfg.timing.sync_op,
                            Msg {
                                src: dst,
                                dst: src,
                                kind: MsgKind::LockGrant { lock, pts },
                            },
                        );
                    }
                    // Queued: the grant comes on a later release.
                    // AlreadyHeld: duplicate of an already-granted request
                    // (a retry crossed the acquire) — drop it.
                    LockOutcome::Queued | LockOutcome::AlreadyHeld => {}
                }
            }
            MsgKind::LockGrant { lock, pts } => {
                self.absorb_pts(dst, pts);
                let decline = {
                    let st = self.clusters[dst].lock_state.entry(lock).or_default();
                    st.requested = false;
                    if st.holder.is_none() {
                        if let Some(lp) = st.waiters.pop_front() {
                            st.holder = Some(lp);
                            Some(lp)
                        } else {
                            None
                        }
                        .map(Ok)
                        .unwrap_or(Err(()))
                    } else {
                        Err(())
                    }
                };
                match decline {
                    Ok(lp) => {
                        let g = self.global_proc(dst, lp);
                        self.resume(t + self.cfg.timing.sync_op, g);
                    }
                    Err(()) => {
                        // Nobody is waiting locally (or we already hold it):
                        // hand the lock straight back.
                        let pts = self.sync_pts(dst);
                        self.send(
                            t + self.cfg.timing.sync_op,
                            Msg {
                                src: dst,
                                dst: src,
                                kind: MsgKind::UnlockReq { lock, pts },
                            },
                        );
                    }
                }
            }
            MsgKind::LockRetry { lock } => {
                // Our queued request (if any) was dropped by the region
                // release: the `requested` flag is stale, so clear it and
                // re-request if processors are still waiting.
                let needs_retry = {
                    let st = self.clusters[dst].lock_state.entry(lock).or_default();
                    st.requested = false;
                    if st.holder.is_none() && !st.waiters.is_empty() {
                        st.requested = true;
                        true
                    } else {
                        false
                    }
                };
                if needs_retry {
                    let home = self.cfg.lock_home(lock);
                    self.send(
                        t + self.cfg.timing.sync_op,
                        Msg {
                            src: dst,
                            dst: home,
                            kind: MsgKind::LockReq { lock },
                        },
                    );
                }
            }
            MsgKind::UnlockReq { lock, pts } => {
                self.note_lock_pts(dst, lock, pts);
                match self.clusters[dst].locks.release(lock, src) {
                UnlockOutcome::Free => {}
                UnlockOutcome::GrantTo(c) => {
                    let pts = self.lock_grant_pts(dst, lock);
                    self.send(
                        t + self.cfg.timing.sync_op,
                        Msg {
                            src: dst,
                            dst: c,
                            kind: MsgKind::LockGrant { lock, pts },
                        },
                    );
                }
                UnlockOutcome::RetryRegion(members) => {
                    for m in members {
                        self.send(
                            t + self.cfg.timing.sync_op,
                            Msg {
                                src: dst,
                                dst: m,
                                kind: MsgKind::LockRetry { lock },
                            },
                        );
                    }
                }
            }
            }
            MsgKind::BarrierArrive { barrier, pts } => {
                self.note_barrier_pts(dst, barrier, pts);
                if let Some(release) =
                    self.clusters[dst]
                        .barriers
                        .arrive(barrier, src, self.cfg.clusters)
                {
                    let pts = self.take_barrier_pts(dst, barrier);
                    for c in release {
                        self.send(
                            t + self.cfg.timing.sync_op,
                            Msg {
                                src: dst,
                                dst: c,
                                kind: MsgKind::BarrierRelease { barrier, pts },
                            },
                        );
                    }
                }
            }
            MsgKind::BarrierRelease { barrier, pts } => {
                self.absorb_pts(dst, pts);
                let local = self.clusters[dst]
                    .barrier_local
                    .remove(&barrier)
                    .expect("release for a barrier nobody reached");
                for lp in local {
                    let g = self.global_proc(dst, lp);
                    self.resume(t + self.cfg.timing.sync_op, g);
                }
            }
            kind => {
                // Everything else is protocol-specific: hand it to the
                // active backend, which returns `false` for a kind that
                // belongs to another one (a routing bug).
                let handled = match self.cfg.protocol {
                    ProtocolKind::Dash => self.dash_deliver(t, msg),
                    ProtocolKind::Tardis => self.tardis_deliver(t, msg),
                    ProtocolKind::Dls => self.dls_deliver(t, msg),
                };
                assert!(
                    handled,
                    "message {:?} not handled by {} backend",
                    kind.label(),
                    self.cfg.protocol.name()
                );
            }
        }
    }


    // ------------------------------------------------------------------
    // Introspection for the invariant checker
    // ------------------------------------------------------------------

    /// One view per cluster of the machine made of `parts`, each from the
    /// part that owns the cluster (parts own ascending contiguous ranges).
    pub(crate) fn checker_view(parts: &[Machine]) -> (&MachineConfig, Vec<ClusterView<'_>>) {
        let views = parts
            .iter()
            .flat_map(Machine::owned_clusters)
            .map(|c| ClusterView {
                resident: c.caches.cluster_resident(),
                node: c,
            })
            .collect();
        (&parts[0].cfg, views)
    }
}

/// The slot of directed channel `(src, dst)` in a `clusters²` table. The
/// per-channel fault tables are only ever touched with a fault plan active
/// (or an explorer's fault edges), so they stay unallocated until then.
fn chan_slot<T: Clone + Default>(
    table: &mut Vec<T>,
    clusters: usize,
    src: usize,
    dst: usize,
) -> &mut T {
    if table.is_empty() {
        table.resize(clusters * clusters, T::default());
    }
    &mut table[src * clusters + dst]
}

/// Test-only hooks for hand-corrupting machine state, so the invariant
/// checker's error branches can be exercised without finding a protocol bug
/// that produces each corruption naturally. Not part of the public API.
#[doc(hidden)]
pub mod testing {
    use super::*;

    fn entry_of(m: &mut Machine, home: usize, block: u64) -> &mut scd_core::DirEntry {
        let key = m.dir_key(block);
        match m.clusters[home].dir.entry_mut(key, 0, |_| false) {
            EntryAccess::Ready(e) | EntryAccess::Displaced { entry: e, .. } => e,
            EntryAccess::Stalled { .. } => unreachable!("no pinned entries in a fresh machine"),
        }
    }

    /// Installs a copy of `block` (dirty or shared) in processor `lp` of
    /// `cluster`, bypassing the protocol.
    pub fn fill_line(m: &mut Machine, cluster: usize, lp: usize, block: u64, dirty: bool) {
        let state = if dirty { LineState::Dirty } else { LineState::Shared };
        m.clusters[cluster].caches.fill(lp, block, state, 0);
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
        let key = m.dir_key(block);
        if let Some(e) = m.clusters[home].dir.lookup_mut(key, 0) {
            e.clear();
        }
        m.clusters[home].dir.release_if_empty(key);
    }

    /// Marks `block` busy in the home serializer, as if a transaction never
    /// closed.
    pub fn mark_busy(m: &mut Machine, home: usize, block: u64) {
        m.clusters[home].ser.mark_busy(block, BusyReason::AwaitClose);
    }
}
