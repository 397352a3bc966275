//! Telemetry (scd-trace): everything that watches the machine, kept
//! apart from the machine.
//!
//! Two types. A [`Recorder`] belongs to one machine *part* (the whole
//! machine, or one shard of it): event rings, live-transaction tables,
//! traffic attribution, the directory observatory, phase histograms and
//! interval baselines for the clusters that part owns, plus the outboxes
//! for what must leave the part (transaction notes for peer parts,
//! interval pieces for the hub). A [`Hub`] belongs to one *run*: it sums
//! the parts' interval pieces per boundary and holds the stream pump, so
//! it is the one place machine-wide records are ordered. The machine owns
//! the hub when it is the whole machine; the shard coordinator owns it
//! when there are N parts. A solo event at cycle `t` is the N = 1 case of
//! a window barrier (`clock = next = t`), so both run the same code.
//!
//! The engine reaches telemetry only through the recorder's hooks. A hook
//! takes `&mut self` plus *shared* borrows of what it reads (`&Network`,
//! `&[ClusterNode]`, `&FaultCounters`, plain counters), so it cannot touch
//! the event queue, an RNG stream or a timing decision — which is why a
//! traced run retires the identical schedule (tests/telemetry.rs). Where a
//! hook's result belongs in engine-owned storage (the flit count for the
//! network's link table) the hook returns it and the engine applies it.
//! Every hook site costs one pre-computed branch when its facility is off.

use std::collections::BTreeMap;

use scd_noc::merge_link_traffic;
use scd_trace::{
    AttribClass, AttribParams, Attribution, ClassCounters, EventKind, IntervalSnapshot, MsgCost,
    StreamPump, TraceConfig, Tracer, TxnTimeline,
};

use super::*;

/// One in-flight traced coherence transaction. Keyed by (requester
/// cluster, block), which is unique because the RAC holds one MSHR per
/// cluster/block pair; merged waiters join the existing transaction.
#[derive(Clone)]
struct TxnLive {
    block: u64,
    id: u64,
    issue: Cycle,
    write: bool,
    home_lookup: Option<Cycle>,
    fanout: Option<Cycle>,
    retries: u32,
}

/// Home-side view of a live traced transaction, keyed like [`TxnLive`]
/// by (requester cluster, block). The home consults this — never the
/// requester's `txn_live` map, which may live on another shard — when it
/// records `HomeLookup`/`Fanout` phases; the flags make each phase
/// set-once per transaction id.
#[derive(Clone, Copy)]
struct PhaseSlot {
    id: u64,
    issue: Cycle,
    hl_done: bool,
    fo_done: bool,
}

/// Cross-shard telemetry notes exchanged at window barriers. Notes ride
/// the barrier, not the simulated network: they carry trace metadata whose
/// happens-before edges (a home services a request at least one network
/// leg after it was issued; a requester completes at least one leg after
/// the home's phase) guarantee the note is applied before any event that
/// reads it. Within one shard, notes are applied immediately.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TxnNote {
    /// Requester → home: a traced transaction began.
    Begin {
        /// Requester cluster (keys the home's phase slot).
        requester: usize,
        /// The block's home cluster (where the note is applied).
        home: usize,
        block: u64,
        /// The transaction id (cluster-encoded, see [`Recorder::txn_begin`]).
        id: u64,
        issue: Cycle,
    },
    /// Home → requester: a lifecycle phase was recorded at the home.
    Phase {
        /// Requester cluster.
        requester: usize,
        block: u64,
        /// The transaction id the home recorded the phase under.
        id: u64,
        phase: Phase,
        /// When the home recorded it.
        at: Cycle,
    },
}

impl TxnNote {
    /// The cluster whose tables the note updates.
    pub(crate) fn target(&self) -> usize {
        match *self {
            TxnNote::Begin { home, .. } => home,
            TxnNote::Phase { requester, .. } => requester,
        }
    }
}

/// Per-class attribution counters, in [`AttribClass::ALL`] order.
type ClassTable = [ClassCounters; AttribClass::ALL.len()];
/// Flits per directed link `(from, to)`.
type LinkFlits = Vec<((usize, usize), u64)>;

/// One part's contribution to one interval boundary `end`: the per-window
/// counter deltas its clusters produced plus its share of the occupancy
/// sample. The hub sums pieces across parts into the exact
/// [`IntervalSnapshot`] the whole machine produced, and the attribution
/// deltas into the streamed `attrib_delta` record.
#[derive(Clone, Debug)]
struct IntervalPiece {
    snap: IntervalSnapshot,
    /// Per-class attribution counter deltas over the window (all zero
    /// unless attribution is on and a stream is attached).
    attrib_delta: ClassTable,
    /// Per-link flit deltas over the window (likewise).
    link_delta: LinkFlits,
    /// The window's directory-occupancy sample — live entries and their
    /// sharer-count histogram — when the observatory is on and a stream is
    /// attached. It rides the piece so two boundaries closing on one event
    /// still stream window, delta, patterns, window, delta, patterns.
    patterns: Option<(u64, Vec<u64>)>,
}

/// What one part hands over at a window barrier: notes for peer parts,
/// closed interval pieces and freshly recorded events for the hub.
pub(crate) struct Shipment {
    pub(crate) notes: Vec<TxnNote>,
    pieces: Vec<IntervalPiece>,
    mirror: Vec<TraceEvent>,
}

/// Directory-observatory occupancy telemetry, only fed when
/// `TraceConfig::patterns` is on. Everything here is read-only against
/// the protocol: counters and sampled histograms.
#[derive(Clone, Debug, Default)]
struct Observatory {
    /// Interval boundaries at which the live-entry scan ran.
    samples: u64,
    /// Aggregated sharer-count histogram over live entries at sample
    /// points: `sharers[k]` = entry observations with a k-cluster
    /// superset (index capped at the machine size).
    sharers: Vec<u64>,
    /// Write fan-outs observed (Grant-path invalidation decisions).
    fanout_events: u64,
    /// Fan-outs whose entry representation was still precise.
    fanout_precise: u64,
    /// Fan-outs sent from a broadcast-mode entry.
    fanout_broadcast: u64,
    /// Invalidation targets across all fan-outs.
    fanout_targets: u64,
    /// Targets that actually held the block (superset overshoot is
    /// `targets - present`).
    fanout_present: u64,
    /// Fan-outs from a coarse-vector entry.
    coarse_events: u64,
    /// Region bits set across coarse fan-outs.
    coarse_regions: u64,
    /// Clusters covered by those region bits (targets).
    coarse_covered: u64,
    /// Covered clusters that actually held the block.
    coarse_present: u64,
}

/// The entry state one write fan-out was decided from, captured by the
/// home while the entry borrow is live (see [`Recorder::fanout`]).
pub(crate) struct FanoutSample {
    pub(crate) precise: bool,
    pub(crate) kind: scd_core::ReprKind,
    pub(crate) regions: Option<usize>,
}

/// One machine part's telemetry state. Inert (and allocation-free) unless
/// the machine was built with an active [`TraceConfig`].
#[derive(Clone)]
pub(crate) struct Recorder {
    /// Pre-computed `cfg.is_active()`: the one flag hook sites gate on.
    /// Like `fault_active`, an inert trace must cost nothing.
    pub(crate) on: bool,
    /// Whether anything reads the transaction lifecycle: a ring that
    /// retains its events, the phase histograms, or (while one is
    /// attached) a stream. The lifecycle hooks gate on it, so a run that
    /// only counts traffic, samples intervals or watches the directory
    /// keeps no live-transaction state and builds no event. Implies `on`.
    lifecycle: bool,
    /// Resolved trace configuration (all-off when `cfg.trace` is `None`).
    cfg: TraceConfig,
    /// First cluster and cluster count of the owning part: notes for
    /// clusters outside it are queued instead of applied.
    part: (usize, usize),
    /// Per-cluster bounded event rings (the engine's post-mortem reads
    /// their tails).
    pub(super) tracer: Tracer,
    /// Phase-latency histograms (only fed when `cfg.metrics`); for the
    /// whole machine also the interval series the hub merged.
    metrics: MetricsRegistry,
    /// Per-class traffic attribution (only fed when `cfg.attribution`).
    attrib: Attribution,
    /// What one message of each kind costs under the wire model, indexed
    /// by [`MsgKind::ordinal`] and resolved through the same label
    /// functions `Attribution::from_events` uses, so online == replay
    /// holds by construction. Empty (unallocated) when attribution is off.
    msg_cost: Vec<MsgCost>,
    /// Directory-occupancy telemetry (only fed when `cfg.patterns`).
    obs: Observatory,
    /// Live traced transactions per requester cluster, searched by block:
    /// a cluster has one per MSHR, so at most one per local processor.
    /// Requester-side state, touched only while processing events of the
    /// requester's own cluster.
    txn_live: Vec<Vec<TxnLive>>,
    /// Home-side phase slots, keyed by (requester cluster, block) and fed
    /// by `TxnNote::Begin`. Touched only while processing home events.
    txn_phase: FastMap<(usize, u64), PhaseSlot>,
    /// Per-requester-cluster transaction id counters. Ids encode the
    /// cluster in the high bits so each cluster hands them out locally —
    /// no global counter to race on across shards.
    txn_seq: Vec<u64>,
    /// Next interval-snapshot boundary (`Cycle::MAX` when sampling is off).
    interval_next: Cycle,
    /// The machine's cumulative counters as of the last interval boundary
    /// (its `end`), so each window reports deltas.
    interval_base: IntervalSnapshot,
    /// Whether a stream is attached to the run: arms the tracer's mirror
    /// and the per-window traffic deltas only a stream consumes.
    streaming: bool,
    /// Attribution counters at the last closed interval window, which
    /// window traffic is diffed against (streamed runs only).
    window_attrib_base: ClassTable,
    window_link_base: FastMap<(usize, usize), u64>,
    /// Notes for clusters other parts own, drained at window barriers.
    notes: Vec<TxnNote>,
    /// Closed interval windows waiting for the hub.
    pieces: Vec<IntervalPiece>,
}

impl Recorder {
    /// The recorder of the part owning clusters `[base, base + count)` of
    /// a `clusters`-cluster machine.
    pub(crate) fn new(cfg: &MachineConfig, base: usize, count: usize) -> Self {
        let trace = cfg.trace.unwrap_or_else(TraceConfig::none);
        let on = trace.is_active();
        let params = AttribParams::with_block_bytes(cfg.block_bytes);
        let per_cluster = if on { cfg.clusters } else { 0 };
        Recorder {
            on,
            lifecycle: Self::config_reads_lifecycle(&trace),
            cfg: trace,
            part: (base, count),
            tracer: if on {
                Tracer::new(cfg.clusters, &trace)
            } else {
                Tracer::inert()
            },
            metrics: MetricsRegistry::new(),
            msg_cost: if trace.attribution {
                MsgKind::LABELS.iter().map(|l| params.cost(l)).collect()
            } else {
                Vec::new()
            },
            attrib: Attribution::new(params),
            obs: Observatory {
                sharers: vec![0; if trace.patterns { cfg.clusters + 1 } else { 0 }],
                ..Observatory::default()
            },
            txn_live: vec![Vec::new(); per_cluster],
            txn_phase: FastMap::default(),
            txn_seq: vec![0; per_cluster],
            interval_next: if trace.interval > 0 {
                trace.interval
            } else {
                Cycle::MAX
            },
            interval_base: IntervalSnapshot::default(),
            streaming: false,
            window_attrib_base: Default::default(),
            window_link_base: FastMap::default(),
            notes: Vec::new(),
            pieces: Vec::new(),
        }
    }

    /// Whether the configuration alone gives the transaction lifecycle a
    /// reader: rings that retain its events, or the phase histograms.
    fn config_reads_lifecycle(cfg: &TraceConfig) -> bool {
        cfg.ring_capacity > 0 || cfg.metrics
    }

    /// The resolved trace configuration. The engine reads two switches:
    /// `attribution` (it then keeps per-link counters in its network) and
    /// `patterns` (sparse-directory churn tracking at construction, and
    /// whether the home captures a [`FanoutSample`]).
    pub(crate) fn config(&self) -> TraceConfig {
        self.cfg
    }

    fn owns(&self, cluster: usize) -> bool {
        cluster.wrapping_sub(self.part.0) < self.part.1
    }

    /// Cluster `cl`'s live transaction for `block`, if it has one.
    fn live(&mut self, cl: usize, block: u64) -> Option<&mut TxnLive> {
        self.txn_live[cl].iter_mut().find(|l| l.block == block)
    }

    /// One inter-cluster send: charges the message's pre-resolved
    /// byte/flit cost to its class and records the `msg_send` event.
    /// Returns the flits the engine must charge to every link of the
    /// route (`None` with attribution off).
    pub(crate) fn msg_send(&mut self, net: &Network, ready_at: Cycle, msg: &Msg) -> Option<u64> {
        let hops = net.hops(msg.src, msg.dst) as u32;
        let flits = self.cfg.attribution.then(|| {
            self.attrib
                .record_class(self.msg_cost[msg.kind.ordinal()], hops)
        });
        if self.tracer.messages_enabled() {
            self.tracer.record(
                msg.src,
                ready_at,
                EventKind::MsgSend {
                    src: msg.src as u32,
                    dst: msg.dst as u32,
                    msg: msg.kind.label(),
                    class: msg.kind.class().label(),
                    block: msg.kind.block(),
                    hops,
                },
            );
        }
        flits
    }

    /// One inter-cluster delivery.
    pub(crate) fn msg_deliver(&mut self, t: Cycle, msg: &Msg) {
        if self.tracer.messages_enabled() {
            self.tracer.record(
                msg.dst,
                t,
                EventKind::MsgDeliver {
                    src: msg.src as u32,
                    dst: msg.dst as u32,
                    msg: msg.kind.label(),
                    block: msg.kind.block(),
                },
            );
        }
    }

    /// A new coherence transaction issued its first request (to `home`).
    pub(crate) fn txn_begin(&mut self, t: Cycle, cl: usize, home: usize, block: u64, write: bool) {
        if !self.lifecycle || self.live(cl, block).is_some() {
            return;
        }
        // Transaction ids are minted per requester cluster (cluster in the
        // high bits, a cluster-local sequence below) so a sharded run and
        // the serial engine assign the same id to the same transaction — a
        // single global counter would encode the interleaving of unrelated
        // clusters into every exported trace.
        self.txn_seq[cl] += 1;
        let id = ((cl as u64) << 40) | self.txn_seq[cl];
        self.txn_live[cl].push(TxnLive {
            block,
            id,
            issue: t,
            write,
            home_lookup: None,
            fanout: None,
            retries: 0,
        });
        self.tracer
            .record(cl, t, EventKind::TxnBegin { txn: id, block, write });
        self.route_note(TxnNote::Begin {
            requester: cl,
            home,
            block,
            id,
            issue: t,
        });
    }

    /// The home directory first serviced the transaction (set-once:
    /// queued replays and re-entrant processing don't re-record).
    ///
    /// Phase attribution is *home-side* state ([`PhaseSlot`], fed by
    /// [`TxnNote::Begin`]): the home must decide whether a delivery belongs
    /// to the live transaction without reading the requester's `txn_live`
    /// table, which under sharding may live on another worker. The
    /// recorded timestamp travels back to the requester as a
    /// [`TxnNote::Phase`] for the end-of-transaction timeline.
    pub(crate) fn txn_phase(
        &mut self,
        t: Cycle,
        home: usize,
        requester: usize,
        block: u64,
        phase: Phase,
    ) {
        if !self.lifecycle {
            return;
        }
        let Some(slot) = self.txn_phase.get_mut(&(requester, block)) else {
            return;
        };
        // A delivery timestamped before the live transaction began is
        // predecessor traffic (a fault-duplicated or delayed request from
        // an earlier, completed transaction on the same (requester, block)
        // — observable because begins are stamped a cache-lookup ahead of
        // the pop that created them). It must not be attributed here, or
        // the exported lifecycle runs backwards.
        if t < slot.issue {
            return;
        }
        let done = match phase {
            Phase::HomeLookup => &mut slot.hl_done,
            Phase::Fanout => &mut slot.fo_done,
            _ => return,
        };
        if *done {
            return;
        }
        *done = true;
        let id = slot.id;
        self.tracer
            .record(home, t, EventKind::TxnPhase { txn: id, block, phase });
        self.route_note(TxnNote::Phase {
            requester,
            block,
            id,
            phase,
            at: t,
        });
    }

    /// Applies a telemetry note locally when its target cluster lives on
    /// this part, otherwise queues it for the coordinator to ferry across
    /// the next window barrier. In a solo machine every note applies
    /// immediately.
    fn route_note(&mut self, note: TxnNote) {
        if self.owns(note.target()) {
            self.apply_note(note);
        } else {
            self.notes.push(note);
        }
    }

    /// Applies one telemetry note to this part's tables. Called by
    /// [`Recorder::route_note`] for local targets and by the shard worker
    /// for notes ferried across a window barrier.
    pub(crate) fn apply_note(&mut self, note: TxnNote) {
        match note {
            TxnNote::Begin {
                requester,
                block,
                id,
                issue,
                ..
            } => {
                self.txn_phase.insert(
                    (requester, block),
                    PhaseSlot {
                        id,
                        issue,
                        hl_done: false,
                        fo_done: false,
                    },
                );
            }
            TxnNote::Phase {
                requester,
                block,
                id,
                phase,
                at,
            } => {
                let Some(live) = self.live(requester, block) else {
                    return;
                };
                if live.id != id {
                    return; // note for an already-completed predecessor
                }
                let slot = match phase {
                    Phase::HomeLookup => &mut live.home_lookup,
                    Phase::Fanout => &mut live.fanout,
                    _ => return,
                };
                if slot.is_none() {
                    *slot = Some(at);
                }
            }
        }
    }

    /// The requester received a NACK for its outstanding transaction.
    pub(crate) fn nack(&mut self, t: Cycle, cl: usize, block: u64) {
        if !self.lifecycle {
            return;
        }
        let Some(live) = self.live(cl, block) else {
            return;
        };
        if t < live.issue {
            return; // stale NACK for a predecessor transaction
        }
        let txn = live.id;
        self.tracer.record(cl, t, EventKind::Nack { txn, block });
    }

    /// The requester reissued a NACKed request after backing off.
    pub(crate) fn retry(&mut self, t: Cycle, cl: usize, block: u64, attempt: u32, backoff: u64) {
        if !self.lifecycle {
            return;
        }
        let Some(live) = self.live(cl, block) else {
            return;
        };
        if t < live.issue {
            return; // stale retry echo for a predecessor transaction
        }
        live.retries = attempt;
        let txn = live.id;
        self.tracer.record(
            cl,
            t,
            EventKind::Retry {
                txn,
                block,
                attempt,
                backoff,
            },
        );
    }

    /// Directory-side invalidation event. Gated on the `patterns` flag —
    /// not `on` — so traces recorded without patterns stay byte-identical
    /// to pre-observatory runs.
    pub(crate) fn inval(
        &mut self,
        t: Cycle,
        home: usize,
        block: u64,
        targets: u32,
        cause: &'static str,
    ) {
        if !self.cfg.patterns {
            return;
        }
        self.tracer.record(
            home,
            t,
            EventKind::Inval {
                block,
                targets,
                cause,
            },
        );
    }

    /// A displaced directory entry's cached copies are being flushed.
    pub(crate) fn replacement(&mut self, t: Cycle, home: usize, victim: u64, targets: u32, dirty: bool) {
        if !self.lifecycle {
            return;
        }
        self.tracer.record(
            home,
            t,
            EventKind::Replacement {
                victim,
                targets,
                dirty,
            },
        );
    }

    /// The transaction completed at its requester: close it out and feed
    /// the phase-latency histograms.
    pub(crate) fn txn_end(&mut self, t: Cycle, cl: usize, block: u64) {
        if !self.lifecycle {
            return;
        }
        let table = &mut self.txn_live[cl];
        let Some(at) = table.iter().position(|l| l.block == block) else {
            return;
        };
        let live = table.swap_remove(at);
        let latency = t.saturating_sub(live.issue);
        self.tracer.record(
            cl,
            t,
            EventKind::TxnEnd {
                txn: live.id,
                block,
                latency,
                retries: live.retries,
            },
        );
        if self.cfg.metrics {
            self.metrics.record_txn(&TxnTimeline {
                issue: live.issue,
                home_lookup: live.home_lookup,
                fanout: live.fanout,
                end: t,
                write: live.write,
                retries: live.retries,
            });
        }
    }

    /// Folds one write fan-out into the occupancy telemetry: how precise
    /// the entry's representation was, and how much of the invalidation
    /// superset actually held the block ("present" — the rest is
    /// imprecision waste). Only called when `patterns` is on.
    pub(crate) fn fanout(
        &mut self,
        clusters: &[ClusterNode],
        block: u64,
        s: &FanoutSample,
        targets: &NodeSet,
    ) {
        let mut present = 0u64;
        targets.for_each_member(|c| {
            if clusters[c as usize].caches.holds(block) {
                present += 1;
            }
        });
        let targets = targets.len() as u64;
        let o = &mut self.obs;
        o.fanout_events += 1;
        if s.precise {
            o.fanout_precise += 1;
        }
        if s.kind == scd_core::ReprKind::Broadcast {
            o.fanout_broadcast += 1;
        }
        o.fanout_targets += targets;
        o.fanout_present += present;
        if let Some(r) = s.regions {
            o.coarse_events += 1;
            o.coarse_regions += r as u64;
            o.coarse_covered += targets;
            o.coarse_present += present;
        }
    }

    /// Advances interval sampling across every boundary up to `t`, parking
    /// one [`IntervalPiece`] per boundary for the hub. A part only sees its
    /// own slice of the machine; the hub sums pieces across parts into the
    /// exact whole-machine record. Also how an idle shard is forced to
    /// close the windows the fleet finished: any boundary `b <= t` with no
    /// local events in `[b, t)` closes with exactly the deltas it would
    /// have closed with lazily.
    pub(crate) fn close_intervals(
        &mut self,
        t: Cycle,
        net: &Network,
        clusters: &[ClusterNode],
        faults: &FaultCounters,
        ops: u64,
    ) {
        while t >= self.interval_next {
            let base = self.interval_base;
            let now = IntervalSnapshot {
                start: base.end,
                end: self.interval_next,
                messages: net.stats().messages,
                retries: faults.retries,
                nacks: faults.nacks,
                occupancy: clusters.iter().map(|c| c.rac.outstanding() as u64).sum(),
                ops_retired: ops,
            };
            let snap = IntervalSnapshot {
                messages: now.messages - base.messages,
                retries: now.retries - base.retries,
                nacks: now.nacks - base.nacks,
                ops_retired: now.ops_retired - base.ops_retired,
                ..now
            };
            let mut piece = self.close_window(snap, net);
            if self.cfg.patterns {
                piece.patterns = self.sample_patterns(clusters);
            }
            self.pieces.push(piece);
            self.interval_base = now;
            self.interval_next += self.cfg.interval;
        }
    }

    /// Closes one interval window's traffic accounting: the per-class and
    /// per-link attribution deltas since the previous boundary (empty
    /// unless attribution is on and a stream will carry them). A part's
    /// deltas are exact because each cluster (and each message's source
    /// accounting) belongs to exactly one part.
    fn close_window(&mut self, snap: IntervalSnapshot, net: &Network) -> IntervalPiece {
        let mut attrib_delta = ClassTable::default();
        let mut link_delta = Vec::new();
        if self.cfg.attribution && self.streaming {
            let cur = self.attrib.counters();
            for (d, (c, b)) in attrib_delta
                .iter_mut()
                .zip(cur.iter().zip(self.window_attrib_base.iter()))
            {
                *d = c.minus(*b);
            }
            self.window_attrib_base = cur;
            let base = &mut self.window_link_base;
            link_delta = net
                .link_traffic()
                .into_iter()
                .filter_map(|(link, c)| {
                    let prev = base.insert(link, c.flits).unwrap_or(0);
                    let d = c.flits.saturating_sub(prev);
                    (d > 0).then_some((link, d))
                })
                .collect();
        }
        IntervalPiece {
            snap,
            attrib_delta,
            link_delta,
            patterns: None,
        }
    }

    /// Scans every home's live directory entries at an interval boundary
    /// and folds the sharer-count distribution into the observatory;
    /// returns the window's sample when a stream will carry it.
    /// O(live entries) per boundary.
    fn sample_patterns(&mut self, clusters: &[ClusterNode]) -> Option<(u64, Vec<u64>)> {
        let cap = clusters.len();
        let mut win = vec![0u64; cap + 1];
        let mut live = 0u64;
        let mut sharers = NodeSet::new(cap);
        for c in clusters {
            c.dir.for_each_live(|_, e| {
                e.sharer_superset_into(&mut sharers);
                win[sharers.len().min(cap)] += 1;
                live += 1;
            });
        }
        self.obs.samples += 1;
        for (a, b) in self.obs.sharers.iter_mut().zip(&win) {
            *a += b;
        }
        self.streaming.then_some((live, win))
    }

    /// A stream was attached to the run: mirror every recorded event for
    /// the hub's pump and diff window traffic against the counters as of
    /// now.
    pub(crate) fn start_streaming(&mut self, net: &Network) {
        self.streaming = true;
        // A stream reads the lifecycle too — of a traced machine; an
        // untraced one has no tables for the hooks to index.
        self.lifecycle = self.on;
        self.tracer.set_mirror(true);
        self.window_attrib_base = self.attrib.counters();
        self.window_link_base = net
            .link_traffic()
            .into_iter()
            .map(|(link, c)| (link, c.flits))
            .collect();
    }

    /// The run's stream closed.
    pub(crate) fn stop_streaming(&mut self) {
        self.streaming = false;
        self.lifecycle = Self::config_reads_lifecycle(&self.cfg);
        self.tracer.set_mirror(false);
    }

    /// Empties the outboxes: everything this part owes its peers and the
    /// hub since the last barrier.
    pub(crate) fn ship(&mut self) -> Shipment {
        Shipment {
            notes: std::mem::take(&mut self.notes),
            pieces: std::mem::take(&mut self.pieces),
            mirror: self.tracer.take_mirror(),
        }
    }
}

/// One interval boundary being summed across parts.
#[derive(Clone)]
struct BoundaryAcc {
    snap: IntervalSnapshot,
    attrib: ClassTable,
    links: FastMap<(usize, usize), u64>,
    patterns: Option<(u64, Vec<u64>)>,
    contribs: usize,
}

/// One run's telemetry hub: the interval-boundary merge and the stream.
///
/// Ordering contract of the stream: events are emitted in the exact
/// post-hoc `(cycle, seq)` merge order. An event may be recorded with a
/// *future* cycle stamp but never a past one, so once the simulation clock
/// strictly passes a pending event's cycle, nothing that sorts before it
/// can still arrive — the pump ([`StreamPump`]) holds events until that
/// watermark clears them, and is the only place a line is rendered.
pub(crate) struct Hub {
    /// How many parts feed this hub (each owes one piece per boundary).
    parts: usize,
    /// Whether windows carry an `attrib_delta` record.
    attribution: bool,
    /// The pump in front of the attached sink (`None` = streaming off;
    /// boxed so the machines an explorer clones by the thousand, which
    /// never stream, carry a pointer rather than the pump's buffers).
    pump: Option<Box<StreamPump>>,
    /// Lines the sink reported shedding, read when the stream closed.
    shed: u64,
    /// Interval boundaries still being accumulated.
    boundaries: BTreeMap<Cycle, BoundaryAcc>,
    /// The next interval boundary the stream owes a record for. The
    /// stream must never emit an event at or past this cycle before the
    /// boundary's record: boundaries are deterministic multiples of the
    /// period, so the cap is known before any part ships a piece.
    next_due: Cycle,
}

/// Cloning a machine detaches the stream: exploration branches share one
/// history up to the fork, and two writers interleaving into one sink
/// would corrupt both orderings. The clone is inert (like a machine that
/// never attached a sink); re-attach explicitly to stream from it.
impl Clone for Hub {
    fn clone(&self) -> Self {
        Hub {
            pump: None,
            shed: 0,
            boundaries: self.boundaries.clone(),
            ..*self
        }
    }
}

impl Hub {
    /// The hub of a run over `parts` machine parts, `rec` being the
    /// (fresh) recorder of any one of them.
    pub(crate) fn new(rec: &Recorder, parts: usize) -> Self {
        Hub {
            parts,
            attribution: rec.cfg.attribution,
            pump: None,
            shed: 0,
            boundaries: BTreeMap::new(),
            next_due: rec.interval_next,
        }
    }

    /// Attaches `sink`: an optional `run_meta` record first, then whatever
    /// the parts record, closed by `run_end` at [`Hub::close`].
    pub(crate) fn attach(&mut self, sink: Box<dyn scd_trace::TraceSink>, run: Option<Json>) {
        let mut pump = StreamPump::new(sink);
        if let Some(run) = run {
            pump.emit_record(&scd_trace::run_meta_record(&run));
            pump.flush_sink();
        }
        self.pump = Some(Box::new(pump));
        self.shed = 0;
    }

    /// Whether a sink is currently attached.
    pub(crate) fn streaming(&self) -> bool {
        self.pump.is_some()
    }

    /// Lines the attached sink discarded, as it reported at close.
    pub(crate) fn shed(&self) -> u64 {
        self.shed
    }

    /// The whole-machine step: one event at `t` is a barrier at which the
    /// clock and the next pending time are both `t`. An early-out unless a
    /// boundary just closed or a stream is attached.
    pub(crate) fn step(&mut self, rec: &mut Recorder, t: Cycle) {
        if self.pump.is_none() && rec.pieces.is_empty() {
            return;
        }
        self.absorb(rec.pieces.drain(..), rec.tracer.drain_mirror());
        self.advance(t, Some(t), &mut rec.metrics.intervals);
    }

    /// Takes the hub's share of one part's shipment at a window barrier
    /// (the notes are the coordinator's to route).
    pub(crate) fn absorb_shipment(&mut self, mut s: Shipment) {
        self.absorb(s.pieces, s.mirror.drain(..));
    }

    /// Folds interval pieces into their boundary accumulators and queues
    /// freshly recorded events in the pump.
    fn absorb(
        &mut self,
        pieces: impl IntoIterator<Item = IntervalPiece>,
        mirror: std::vec::Drain<'_, TraceEvent>,
    ) {
        for piece in pieces {
            let acc = self
                .boundaries
                .entry(piece.snap.end)
                .or_insert_with(|| BoundaryAcc {
                    snap: IntervalSnapshot {
                        start: piece.snap.start,
                        end: piece.snap.end,
                        ..Default::default()
                    },
                    attrib: Default::default(),
                    links: FastMap::default(),
                    patterns: None,
                    contribs: 0,
                });
            acc.snap.messages += piece.snap.messages;
            acc.snap.retries += piece.snap.retries;
            acc.snap.nacks += piece.snap.nacks;
            acc.snap.occupancy += piece.snap.occupancy;
            acc.snap.ops_retired += piece.snap.ops_retired;
            for (a, b) in acc.attrib.iter_mut().zip(piece.attrib_delta.iter()) {
                *a = a.plus(*b);
            }
            for (link, d) in piece.link_delta {
                *acc.links.entry(link).or_insert(0) += d;
            }
            // Only the whole machine samples patterns (the observatory is
            // refused for N > 1), so there is nothing to sum.
            acc.patterns = acc.patterns.take().or(piece.patterns);
            acc.contribs += 1;
            debug_assert!(acc.contribs <= self.parts, "a part closed a boundary twice");
        }
        if let Some(pump) = self.pump.as_mut() {
            for ev in mirror {
                pump.push(ev);
            }
        }
    }

    /// Emits every fully-summed boundary the run has reached — a boundary
    /// only becomes a record once some event at or past it was processed,
    /// i.e. once `clock` (the highest event time processed anywhere) is at
    /// or past it — appending the merged snapshots to `intervals`; then
    /// moves the stream's watermark up to `next`, the earliest time
    /// anything can still be recorded at (`None` = the run drained).
    pub(crate) fn advance(
        &mut self,
        clock: Cycle,
        next: Option<Cycle>,
        intervals: &mut Vec<IntervalSnapshot>,
    ) {
        while let Some(entry) = self.boundaries.first_entry() {
            if *entry.key() > clock {
                break;
            }
            let acc = entry.remove();
            debug_assert_eq!(acc.contribs, self.parts, "boundary missing a part's piece");
            // Windows are one period wide.
            self.next_due = acc.snap.end + (acc.snap.end - acc.snap.start);
            intervals.push(acc.snap);
            if let Some(pump) = self.pump.as_mut() {
                let traffic = self
                    .attribution
                    .then(|| (&acc.attrib, acc.links.into_iter().collect()));
                stream_window(pump, &acc.snap, traffic, acc.patterns);
            }
        }
        if let Some(pump) = self.pump.as_mut() {
            // Safe watermark: nothing recorded from here on sorts below the
            // next pending event time, and no event at or past the next
            // *due* interval boundary may flush before that boundary's
            // record. `next_due` — not the accumulator map — is the cap:
            // boundaries are deterministic multiples of the period, so the
            // record for `next_due` is owed even before any part has
            // shipped a piece for it (trace events can carry cycles past
            // the window that recorded them).
            pump.flush_below(next.unwrap_or(Cycle::MAX).min(self.next_due));
        }
    }

    /// Flushes everything still pending, emits the closing `run_end`
    /// record and detaches the sink. No-op without one.
    pub(crate) fn close(&mut self, cycles: Cycle, recorded: u64, dropped: u64) {
        if let Some(pump) = self.pump.take() {
            self.shed = pump.close(cycles, recorded, dropped);
        }
    }
}

/// Streams one closed interval window: every event belonging to the
/// window first, then the `interval` record, then (with attribution on)
/// the window's per-class and per-link traffic — `traffic` carries the
/// deltas against the previous boundary — then the window's `patterns`
/// sample if the observatory took one.
fn stream_window(
    pump: &mut StreamPump,
    snap: &IntervalSnapshot,
    traffic: Option<(&ClassTable, LinkFlits)>,
    patterns: Option<(u64, Vec<u64>)>,
) {
    pump.flush_below(snap.end);
    pump.emit_record(&scd_trace::interval_record(snap));
    if let Some((class_delta, link_delta)) = traffic {
        let classes: Vec<(&'static str, Json)> = AttribClass::ALL
            .iter()
            .zip(class_delta)
            // Protocol-specific classes are omitted when idle this
            // window, keeping DASH streams byte-identical to v1.
            .filter(|(c, d)| !(c.optional() && d.messages == 0))
            .map(|(c, d)| (c.label(), d.to_json()))
            .collect();
        // Per-link flit deltas: the window's busiest movers, capped and
        // endpoint-sorted so the record is deterministic.
        const TOP_LINKS: usize = 32;
        let mut links: Vec<(usize, usize, u64)> = link_delta
            .into_iter()
            .map(|((src, dst), d)| (src, dst, d))
            .collect();
        links.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        links.truncate(TOP_LINKS);
        links.sort_by_key(|&(src, dst, _)| (src, dst));
        pump.emit_record(&scd_trace::attrib_delta_record(
            snap.start, snap.end, &classes, &links,
        ));
    }
    // Boundary flush so a live consumer tailing a file sink sees whole
    // windows, not BufWriter-sized chunks.
    pump.flush_sink();
    if let Some((live, sharers)) = patterns {
        pump.emit_record(&scd_trace::patterns_record(snap.start, snap.end, live, &sharers));
        pump.flush_sink();
    }
}

// ----------------------------------------------------------------------
// Machine-wide documents: one implementation each, folding over the parts
// of one machine. `Machine`'s methods pass itself as the only part.
// ----------------------------------------------------------------------

/// All retained trace events of `parts`, merged into the canonical
/// `(cycle, cluster, seq)` order and renumbered.
pub(crate) fn trace_events(parts: &[Machine]) -> Vec<TraceEvent> {
    Tracer::merged_from(parts.iter().map(|m| &m.eng.telemetry.tracer))
}

/// Events recorded / evicted-from-ring counts across `parts`.
pub(crate) fn trace_counts(parts: &[Machine]) -> (u64, u64) {
    parts.iter().fold((0, 0), |(r, d), m| {
        let t = &m.eng.telemetry.tracer;
        (r + t.recorded(), d + t.dropped())
    })
}

/// The `trace` section of the `scd-run-stats/v1` document: events
/// recorded vs evicted from the rings, so truncated history is never
/// silent. None when tracing is off. Lives outside [`RunStats`] so the
/// `stats` section stays bit-identical across trace configurations.
pub(crate) fn trace_json(parts: &[Machine]) -> Option<Json> {
    parts[0].eng.telemetry.on.then(|| {
        let (recorded, dropped) = trace_counts(parts);
        Json::obj()
            .with("recorded", Json::U64(recorded))
            .with("dropped_events", Json::U64(dropped))
    })
}

/// The full `scd-attrib/v1` document section: per-class byte/flit
/// counters plus the machine-side gauges only this side can see — the
/// busiest links with their channel occupancy, and (for sparse
/// organizations) directory set pressure. None when attribution is off.
/// Exact over parts: each message is attributed by exactly one part and
/// link counters sum.
pub(crate) fn attribution_json(parts: &[Machine], elapsed: Cycle) -> Option<Json> {
    let (first, rest) = parts.split_first()?;
    if !first.eng.telemetry.cfg.attribution {
        return None;
    }
    let mut attrib = first.eng.telemetry.attrib.clone();
    for m in rest {
        attrib.merge(&m.eng.telemetry.attrib);
    }
    let mut j = attrib.to_json();
    let horizon = elapsed.max(1) as f64;
    const TOP_LINKS: usize = 16;
    let all = merge_link_traffic(parts.iter().map(|m| m.eng.network.link_traffic()));
    let links: Vec<Json> = all
        .iter()
        .take(TOP_LINKS)
        .map(|((from, to), c)| {
            Json::obj()
                .with("from", Json::U64(*from as u64))
                .with("to", Json::U64(*to as u64))
                .with("messages", Json::U64(c.messages))
                .with("flits", Json::U64(c.flits))
                // Fraction of the horizon the channel was moving
                // flits (one flit-time per flit).
                .with("occupancy", Json::F64(c.flits as f64 / horizon))
        })
        .collect();
    j.set(
        "links",
        Json::obj()
            .with("tracked", Json::U64(all.len() as u64))
            .with("busiest", Json::Arr(links)),
    );
    // Sparse-directory set pressure: occupancy + replacement rate.
    let mut live = 0usize;
    let mut sparse: Option<scd_core::SparseStats> = None;
    for c in parts.iter().flat_map(|m| m.eng.owned_clusters()) {
        live += c.dir.live_entries();
        crate::stats::add_opt(&mut sparse, c.dir.sparse_stats());
    }
    if let Some(s) = sparse {
        let cfg = &first.eng.cfg;
        let capacity = match &cfg.organization {
            scd_core::Organization::Sparse { entries, .. } => *entries * cfg.clusters,
            _ => 0,
        };
        let mut sp = Json::obj()
            .with("capacity", Json::U64(capacity as u64))
            .with("live", Json::U64(live as u64));
        if capacity > 0 {
            sp.set("occupancy", Json::F64(live as f64 / capacity as f64));
        }
        sp.set("replacements", Json::U64(s.replacements));
        sp.set(
            "replacements_per_kcycle",
            Json::F64(s.replacements as f64 * 1000.0 / horizon),
        );
        j.set("sparse", sp);
    }
    Some(j)
}

/// What the closing `run_end` record reports for a run over `parts`: the
/// final cycle — the finish time, or the furthest clock of a run that
/// died — and the recorded/evicted event totals.
pub(crate) fn run_end(parts: &[Machine]) -> (Cycle, u64, u64) {
    let finish = parts.iter().map(|m| m.eng.finish_time).max().unwrap_or(0);
    let cycles = if finish > 0 {
        finish
    } else {
        parts.iter().map(|m| m.eng.queue.now()).max().unwrap_or(0)
    };
    let (recorded, dropped) = trace_counts(parts);
    (cycles, recorded, dropped)
}

impl Machine {
    /// Attaches `sink` and starts streaming: an optional `run_meta`
    /// record first, then trace events, interval windows, and
    /// attribution deltas as the run produces them, closed by a
    /// `run_end` record when the run finalizes (success or failure) or
    /// [`Machine::stream_close`] is called.
    ///
    /// Trace events only flow when the machine was built with
    /// `TraceConfig::ring_capacity > 0`; interval and attribution
    /// records follow their own `TraceConfig` switches. Cloning the
    /// machine detaches the stream on the clone.
    pub fn attach_stream(&mut self, sink: Box<dyn scd_trace::TraceSink>, run: Option<Json>) {
        self.eng.hub.attach(sink, run);
        self.eng.telemetry.start_streaming(&self.eng.network);
    }

    /// Whether a sink is currently attached.
    pub fn stream_active(&self) -> bool {
        self.eng.hub.streaming()
    }

    /// Lines the attached sink discarded (write errors, backpressure), as
    /// it reported when the stream closed. Nonzero means the stream on the
    /// other side of the sink is truncated; 0 while the stream is open.
    pub fn stream_shed_lines(&self) -> u64 {
        self.eng.hub.shed()
    }

    /// Flushes everything still pending, emits the closing `run_end`
    /// record (final cycle, recorded/evicted counters), and detaches the
    /// sink. Idempotent; runs automatically when the run finalizes —
    /// call it directly only to stop streaming early or after an
    /// aborted run.
    pub fn stream_close(&mut self) {
        if !self.eng.hub.streaming() {
            return;
        }
        self.eng.hub
            .absorb(None, self.eng.telemetry.tracer.drain_mirror());
        let (cycles, recorded, dropped) = run_end(std::slice::from_ref(self));
        self.eng.hub.close(cycles, recorded, dropped);
        self.eng.telemetry.stop_streaming();
    }

    /// All retained trace events, merged into one cycle-ordered history.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        trace_events(std::slice::from_ref(self))
    }

    /// The last `k` retained trace events of one cluster, oldest first.
    pub fn trace_tail(&self, cluster: usize, k: usize) -> Vec<TraceEvent> {
        self.eng.telemetry.tracer.tail(cluster, k)
    }

    /// Events recorded / evicted-from-ring counts for the run so far.
    pub fn trace_counts(&self) -> (u64, u64) {
        trace_counts(std::slice::from_ref(self))
    }

    /// The `trace` section of the `scd-run-stats/v1` document (None when
    /// tracing is off).
    pub fn trace_json(&self) -> Option<Json> {
        trace_json(std::slice::from_ref(self))
    }

    /// The metrics registry (empty unless `TraceConfig::metrics` was on).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.eng.telemetry.metrics
    }

    /// The traffic attribution (None unless `TraceConfig::attribution`
    /// was on).
    pub fn attribution(&self) -> Option<&Attribution> {
        self.eng.telemetry
            .cfg
            .attribution
            .then_some(&self.eng.telemetry.attrib)
    }

    /// The `scd-attrib/v1` document section (None when attribution is
    /// off). `elapsed` is the cycle horizon occupancies are normalized
    /// over (pass the run's final cycle).
    pub fn attribution_json(&self, elapsed: Cycle) -> Option<Json> {
        attribution_json(std::slice::from_ref(self), elapsed)
    }

    /// The `occupancy` section of the `scd-patterns/v1` document:
    /// sampled sharer-count distribution over live directory entries,
    /// write fan-out precision/waste (plus coarse-vector region-bit
    /// utilization when the scheme is `Dir_i CV_r`), and sparse
    /// replacement churn. None unless `TraceConfig::patterns` was on.
    pub fn occupancy_json(&self) -> Option<Json> {
        if !self.eng.telemetry.cfg.patterns {
            return None;
        }
        let o = &self.eng.telemetry.obs;
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|&c| Json::U64(c)).collect());
        let mut churn: Option<scd_core::ChurnStats> = None;
        for s in self.eng.clusters.iter().filter_map(|c| c.dir.churn_stats()) {
            churn.get_or_insert_with(Default::default).merge(&s);
        }
        let mut j = Json::obj()
            .with("samples", Json::U64(o.samples))
            .with("sharers", counts(&o.sharers))
            .with(
                "fanout",
                Json::obj()
                    .with("events", Json::U64(o.fanout_events))
                    .with("precise", Json::U64(o.fanout_precise))
                    .with("broadcast", Json::U64(o.fanout_broadcast))
                    .with("targets", Json::U64(o.fanout_targets))
                    .with("present", Json::U64(o.fanout_present)),
            );
        j.set(
            "coarse",
            if o.coarse_events > 0 {
                Json::obj()
                    .with("events", Json::U64(o.coarse_events))
                    .with("regions_set", Json::U64(o.coarse_regions))
                    .with("covered", Json::U64(o.coarse_covered))
                    .with("present", Json::U64(o.coarse_present))
            } else {
                Json::Null
            },
        );
        j.set(
            "churn",
            match churn {
                Some(c) => Json::obj()
                    .with("replacements", Json::U64(c.replacements))
                    .with("rerefs", Json::U64(c.rerefs))
                    .with("reref_distance", counts(&c.reref_distance)),
                None => Json::Null,
            },
        );
        Some(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_tango::Script;

    /// `cfg.trace = None` and `Some(TraceConfig::none())` are one code
    /// path, not two that happen to cost the same: both resolve to the
    /// inert recorder (hooks gated off, no per-cluster table allocated,
    /// a tracer without rings) under a hub that holds no pump. This is the
    /// fact the retired "< 2% disabled-path" timing guard stood for.
    #[test]
    fn untraced_and_trace_none_build_the_same_inert_recorder() {
        let plain = MachineConfig::tiny(4);
        assert!(plain.trace.is_none());
        for cfg in [plain.clone(), plain.with_trace(TraceConfig::none())] {
            let programs = (0..cfg.processors())
                .map(|_| Script::from(Vec::new()))
                .collect();
            let machine = Machine::new(cfg, programs);
            let rec = &machine.eng.telemetry;
            assert!(!rec.on, "every hook site gates on this flag");
            assert!(rec.txn_live.is_empty() && rec.txn_seq.is_empty());
            assert!(rec.txn_phase.is_empty() && rec.msg_cost.is_empty());
            assert!(rec.obs.sharers.is_empty());
            assert_eq!(rec.interval_next, Cycle::MAX, "no interval boundary is ever due");
            // A tracer without rings ignores what it is handed.
            let mut tracer = rec.tracer.clone();
            tracer.record(0, 1, EventKind::Nack { txn: 1, block: 0 });
            assert_eq!(tracer.recorded(), 0);
            assert!(!tracer.messages_enabled());
            assert!(machine.eng.hub.pump.is_none());
            assert!(!machine.stream_active(), "no sink was ever attached");
        }
    }

    /// A run over 4 clusters in which every processor writes a block its
    /// neighbour then reads: misses, invalidations and ownership
    /// transfers, so every lifecycle hook and phase is reached.
    fn sharing_run(trace: TraceConfig) -> (Machine, RunStats) {
        use scd_tango::Op;
        let cfg = MachineConfig::tiny(4).with_trace(trace);
        let procs = cfg.processors() as u64;
        let programs = (0..procs)
            .map(|p| {
                let block = |i: u64| (p + i) % procs * 16;
                let ops: Vec<Op> = (0..24)
                    .flat_map(|i| [Op::Write(block(i)), Op::Read(block(i + 1))])
                    .collect();
                Script::from(ops)
            })
            .collect();
        let mut machine = Machine::new(cfg, programs);
        let stats = machine.try_run().expect("run must quiesce");
        (machine, stats)
    }

    /// A run that retains no event builds none and says so: with only
    /// attribution (or intervals, or the observatory) on, the lifecycle
    /// hooks are gated off, the live-transaction tables stay empty and
    /// `trace.recorded` is 0 — while everything such a run is read for is
    /// what the fully traced run produces. The phase histograms are a
    /// reader of the lifecycle: `metrics` alone keeps it running.
    #[test]
    fn a_run_that_retains_no_events_builds_none() {
        let (full, full_stats) = sharing_run(TraceConfig::full(1 << 12));
        assert!(full.trace_counts().0 > 0);
        let reg = full.metrics();
        for (phase, h) in [
            ("read", &reg.read_latency),
            ("write", &reg.write_latency),
            ("issue->home", &reg.issue_to_home),
            ("home->fanout", &reg.home_to_fanout),
            ("fanout->reply", &reg.fanout_to_reply),
            ("home->reply", &reg.home_to_reply),
        ] {
            assert!(h.events() > 0, "the script never reached {phase}");
        }
        let attribution =
            |m: &Machine, s: &RunStats| m.attribution_json(s.cycles).map(|j| j.to_string());

        for quiet in [
            TraceConfig::none().with_attribution(true),
            TraceConfig::none().with_interval(500),
            TraceConfig::none().with_patterns(true).with_interval(500),
        ] {
            let (machine, stats) = sharing_run(quiet);
            let rec = &machine.eng.telemetry;
            assert!(rec.on && !rec.lifecycle, "{quiet:?}");
            assert!(rec.txn_live.iter().all(Vec::is_empty), "{quiet:?}");
            assert!(rec.txn_phase.is_empty() && rec.notes.is_empty(), "{quiet:?}");
            assert!(rec.txn_seq.iter().all(|&n| n == 0), "{quiet:?}");
            assert_eq!(machine.trace_counts(), (0, 0), "{quiet:?}");
            assert_eq!(machine.metrics().transactions(), 0, "{quiet:?}");
            assert_eq!(stats.to_json().to_string(), full_stats.to_json().to_string());
            if quiet.attribution {
                assert_eq!(attribution(&machine, &stats), attribution(&full, &full_stats));
            }
        }

        let metrics_only = TraceConfig {
            metrics: true,
            ..TraceConfig::none()
        };
        let (machine, _) = sharing_run(metrics_only);
        assert!(machine.eng.telemetry.lifecycle);
        assert_eq!(machine.trace_counts(), (0, 0), "no ring, no stream: nothing is built");
        let histograms = |m: &Machine| m.metrics().to_json().to_string();
        assert_eq!(histograms(&machine), histograms(&full), "every phase histogram");
    }
}
