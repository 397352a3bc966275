//! Telemetry (scd-trace): everything that watches the machine, kept
//! apart from the machine.
//!
//! Two types. A [`Recorder`] holds what is *recorded*: event rings,
//! live-transaction tables, traffic attribution, the directory
//! observatory, phase histograms and interval baselines, plus the closed
//! interval windows not yet handed on. A [`Hub`] holds the stream pump:
//! it is the one place records are ordered and rendered, and it turns
//! each closed window into the interval series and its stream records.
//!
//! The engine reaches telemetry only through the recorder's hooks. A hook
//! takes `&mut self` plus *shared* borrows of what it reads (`&Network`,
//! `&[ClusterNode]`, `&FaultCounters`, plain counters), so it cannot touch
//! the event queue, an RNG stream or a timing decision — which is why a
//! traced run retires the identical schedule (tests/telemetry.rs). Where a
//! hook's result belongs in engine-owned storage (the flit count for the
//! network's link table) the hook returns it and the engine applies it.
//! Every hook site costs one pre-computed branch when its facility is off.

use scd_trace::{
    AttribClass, AttribParams, Attribution, ClassCounters, EventKind, IntervalSnapshot, MsgCost,
    StreamPump, TraceConfig, Tracer, TxnTimeline,
};

use super::*;

/// One in-flight traced coherence transaction. Keyed by (requester
/// cluster, block), which is unique because the RAC holds one MSHR per
/// cluster/block pair; merged waiters join the existing transaction. The
/// home records its phases here too: it dies with its `txn_end`.
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

/// Per-class attribution counters, in [`AttribClass::ALL`] order.
type ClassTable = [ClassCounters; AttribClass::ALL.len()];
/// Flits per directed link `(from, to)`.
type LinkFlits = Vec<((usize, usize), u64)>;

/// One closed interval window: the machine's counter deltas over it and,
/// for a stream, its traffic deltas and occupancy sample.
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

/// The machine's telemetry state. Inert (and allocation-free) unless the
/// machine was built with an active [`TraceConfig`].
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
    /// Per-cluster bounded event rings (the engine's post-mortem reads
    /// their tails).
    pub(super) tracer: Tracer,
    /// Phase-latency histograms (only fed when `cfg.metrics`), and the
    /// interval series the hub appends to.
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
    txn_live: Vec<Vec<TxnLive>>,
    /// Per-requester-cluster transaction id counters. Ids encode the
    /// cluster in the high bits so each cluster hands them out locally.
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
    /// Closed interval windows waiting for the hub.
    pieces: Vec<IntervalPiece>,
}

impl Recorder {
    /// The recorder of a machine built with `cfg`.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let trace = cfg.trace.unwrap_or_else(TraceConfig::none);
        let on = trace.is_active();
        let params = AttribParams::with_block_bytes(cfg.block_bytes);
        let per_cluster = if on { cfg.clusters } else { 0 };
        Recorder {
            on,
            lifecycle: Self::config_reads_lifecycle(&trace),
            cfg: trace,
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

    /// Live traced transactions, machine-wide.
    pub(crate) fn live_txns(&self) -> usize {
        self.txn_live.iter().map(Vec::len).sum()
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

    /// A new coherence transaction issued its first request.
    pub(crate) fn txn_begin(&mut self, t: Cycle, cl: usize, block: u64, write: bool) {
        if !self.lifecycle || self.live(cl, block).is_some() {
            return;
        }
        // Transaction ids are minted per requester cluster (cluster in the
        // high bits, a cluster-local sequence below): the id a trace shows
        // is then a function of that cluster's own history, not of how
        // unrelated clusters interleave.
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
    }

    /// The home recorded a `HomeLookup` or `Fanout` phase of `requester`'s
    /// live transaction for `block`, at most once per transaction: queued
    /// replays and re-entrant processing don't re-record.
    pub(crate) fn home_phase(
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
        let Some(live) = self.live(requester, block) else {
            return;
        };
        // A delivery timestamped before the live transaction began is
        // predecessor traffic (a fault-duplicated or delayed request from
        // an earlier, completed transaction on the same (requester, block)
        // — observable because begins are stamped a cache-lookup ahead of
        // the pop that created them). It must not be attributed here, or
        // the exported lifecycle runs backwards.
        if t < live.issue {
            return;
        }
        let slot = match phase {
            Phase::HomeLookup => &mut live.home_lookup,
            Phase::Fanout => &mut live.fanout,
            _ => return,
        };
        if slot.is_some() {
            return;
        }
        *slot = Some(t);
        let txn = live.id;
        self.tracer
            .record(home, t, EventKind::TxnPhase { txn, block, phase });
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
    /// one [`IntervalPiece`] per boundary for the hub.
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
    /// unless attribution is on and a stream will carry them).
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
}

/// One run's telemetry hub: the interval series and the stream.
///
/// Ordering contract of the stream: events are emitted in the exact
/// post-hoc `(cycle, seq)` merge order. An event may be recorded with a
/// *future* cycle stamp but never a past one, so once the simulation clock
/// strictly passes a pending event's cycle, nothing that sorts before it
/// can still arrive — the pump ([`StreamPump`]) holds events until that
/// watermark clears them, and is the only place a line is rendered.
pub(crate) struct Hub {
    /// Whether windows carry an `attrib_delta` record.
    attribution: bool,
    /// The pump in front of the attached sink (`None` = streaming off;
    /// boxed so the machines an explorer clones by the thousand, which
    /// never stream, carry a pointer rather than the pump's buffers).
    pump: Option<Box<StreamPump>>,
    /// Lines the sink reported shedding, read when the stream closed.
    shed: u64,
}

/// Cloning a machine detaches the stream: exploration branches share one
/// history up to the fork, and two writers interleaving into one sink
/// would corrupt both orderings. The clone is inert (like a machine that
/// never attached a sink); re-attach explicitly to stream from it.
impl Clone for Hub {
    fn clone(&self) -> Self {
        Hub {
            attribution: self.attribution,
            pump: None,
            shed: 0,
        }
    }
}

impl Hub {
    /// The hub of the machine whose (fresh) recorder is `rec`.
    pub(crate) fn new(rec: &Recorder) -> Self {
        Hub {
            attribution: rec.cfg.attribution,
            pump: None,
            shed: 0,
        }
    }

    /// Attaches `sink`: an optional `run_meta` record first, then whatever
    /// the recorder records, closed by `run_end` at [`Hub::close`].
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

    /// One event popped at `t`, after the recorder closed every interval
    /// boundary at or below `t`: queue what it recorded, append each
    /// closed window to the interval series and stream it, then move the
    /// stream's watermark to `t` — nothing recorded from here on sorts
    /// below it, and the next boundary is past it. An early-out unless a
    /// boundary just closed or a stream is attached.
    pub(crate) fn step(&mut self, rec: &mut Recorder, t: Cycle) {
        if self.pump.is_none() && rec.pieces.is_empty() {
            return;
        }
        self.queue(rec);
        for piece in rec.pieces.drain(..) {
            rec.metrics.intervals.push(piece.snap);
            if let Some(pump) = self.pump.as_mut() {
                let traffic = self.attribution.then_some((&piece.attrib_delta, piece.link_delta));
                stream_window(pump, &piece.snap, traffic, piece.patterns);
            }
        }
        if let Some(pump) = self.pump.as_mut() {
            pump.flush_below(t);
        }
    }

    /// Queues the events `rec` recorded since the last call in the pump.
    fn queue(&mut self, rec: &mut Recorder) {
        if let Some(pump) = self.pump.as_mut() {
            for ev in rec.tracer.drain_mirror() {
                pump.push(ev);
            }
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
    /// record — the final cycle (the finish time, or the clock of a run
    /// that died) and the recorded/evicted counters — and detaches the
    /// sink. Idempotent; runs automatically when the run finalizes —
    /// call it directly only to stop streaming early or after an
    /// aborted run.
    pub fn stream_close(&mut self) {
        if !self.eng.hub.streaming() {
            return;
        }
        let eng = &mut self.eng;
        eng.hub.queue(&mut eng.telemetry);
        let cycles = if eng.finish_time > 0 {
            eng.finish_time
        } else {
            eng.queue.now()
        };
        let (recorded, dropped) = self.trace_counts();
        self.eng.hub.close(cycles, recorded, dropped);
        self.eng.telemetry.stop_streaming();
    }

    /// All retained trace events, merged into the canonical
    /// `(cycle, cluster, seq)` order and renumbered.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.eng.telemetry.tracer.merged()
    }

    /// The last `k` retained trace events of one cluster, oldest first.
    pub fn trace_tail(&self, cluster: usize, k: usize) -> Vec<TraceEvent> {
        self.eng.telemetry.tracer.tail(cluster, k)
    }

    /// Events recorded / evicted-from-ring counts for the run so far.
    pub fn trace_counts(&self) -> (u64, u64) {
        let t = &self.eng.telemetry.tracer;
        (t.recorded(), t.dropped())
    }

    /// The `trace` section of the `scd-run-stats/v1` document: events
    /// recorded vs evicted from the rings, so truncated history is never
    /// silent. None when tracing is off. Lives outside [`RunStats`] so the
    /// `stats` section stays bit-identical across trace configurations.
    pub fn trace_json(&self) -> Option<Json> {
        self.eng.telemetry.on.then(|| {
            let (recorded, dropped) = self.trace_counts();
            Json::obj()
                .with("recorded", Json::U64(recorded))
                .with("dropped_events", Json::U64(dropped))
        })
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

    /// The `scd-attrib/v1` document section: per-class byte/flit counters
    /// plus the machine-side gauges only this side can see — the busiest
    /// links with their channel occupancy, and (for sparse organizations)
    /// directory set pressure. None when attribution is off. `elapsed` is
    /// the cycle horizon occupancies are normalized over (pass the run's
    /// final cycle).
    pub fn attribution_json(&self, elapsed: Cycle) -> Option<Json> {
        let mut j = self.attribution()?.to_json();
        let horizon = elapsed.max(1) as f64;
        const TOP_LINKS: usize = 16;
        let all = self.eng.network.link_traffic();
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
        for c in &self.eng.clusters {
            live += c.dir.live_entries();
            crate::stats::add_opt(&mut sparse, c.dir.sparse_stats());
        }
        if let Some(s) = sparse {
            let cfg = &self.eng.cfg;
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
            assert!(rec.msg_cost.is_empty());
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
