//! Sharded execution: one machine, many cores, identical bytes.
//!
//! The 2D mesh is partitioned into contiguous cluster ranges, one per
//! worker thread. Each worker owns a full [`Machine`] whose non-owned
//! processors are inert, and the fleet advances under a **conservative
//! time window**: with `L` the minimum inter-shard message latency
//! ([`scd_noc::LatencyModel::min_remote_latency`]) and `M` the global
//! minimum pending event time, every shard may safely process all events
//! in `[M, M + L)` — any cross-shard message produced inside the window is
//! sent at some `t >= M` and arrives at `t + lat >= M + L`, i.e. never
//! inside the window that produced it (`deliver_or_export` asserts this).
//!
//! Determinism does not come from the barrier alone: every event carries a
//! canonical [`scd_sim::Stamp`] drawn from its *emitting* cluster's
//! monotone counter, and each shard's timing wheel orders same-cycle
//! events by stamp. A shard's local schedule is therefore the projection
//! of the one global `(cycle, stamp)` order onto its clusters, so stats,
//! traces, streamed documents, and BENCH baselines come out byte-identical
//! to the serial engine for any shard count (golden-tested in
//! `tests/shard.rs` and CI-gated).
//!
//! Boundary messages cross shards through bounded per-barrier exchanges:
//! workers park them in an outbox, the coordinator routes them, and the
//! destination worker merges them into its wheel in `(cycle, seq)` order
//! before the next window opens. Telemetry that spans shards (transaction
//! phase notes, interval pieces, mirror events for streaming) rides the
//! same barrier.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};

use scd_noc::merge_link_traffic;

use super::*;

/// The coordinator → worker message opening one window (or ending the
/// run).
enum WindowPlan {
    /// Process every local event strictly below `horizon`, after merging
    /// the routed deliveries and telemetry notes.
    Window {
        horizon: Cycle,
        inbounds: Vec<Outbound>,
        notes: Vec<TxnNote>,
    },
    /// The run is over (drained, errored, or watchdogged): apply any final
    /// notes and hand the machine back.
    Finish { notes: Vec<TxnNote> },
}

/// The worker → coordinator message closing one window.
struct WindowReport {
    /// Earliest local pending event (None when the local wheel is empty or
    /// the worker died).
    peek: Option<Cycle>,
    /// Time of the last event processed in the window just closed.
    last_pop: Option<Cycle>,
    /// Deliveries bound for clusters other shards own.
    outbounds: Vec<Outbound>,
    /// Telemetry notes bound for clusters other shards own.
    notes: Vec<TxnNote>,
    /// Closed interval windows (per-shard deltas; see [`IntervalPiece`]).
    pieces: Vec<IntervalPiece>,
    /// Freshly recorded trace events (only when a stream is attached).
    mirror: Vec<TraceEvent>,
    /// Local processors not yet Done.
    running: usize,
    /// Last local cycle at which an operation retired.
    last_progress: Cycle,
    /// The error that killed this worker's window, if any.
    error: Option<SimError>,
}

/// Runs one shard: report state, receive a window, process it, repeat.
/// After an error the worker keeps reporting (with an empty peek) so the
/// coordinator can wind the fleet down cleanly.
fn drive_worker(m: &mut Machine, rx: &Receiver<WindowPlan>, tx: &Sender<WindowReport>) {
    m.start();
    let mut last_pop = None;
    let mut error: Option<SimError> = None;
    loop {
        let report = WindowReport {
            peek: if error.is_some() {
                None
            } else {
                m.queue.peek_time()
            },
            last_pop: last_pop.take(),
            outbounds: std::mem::take(&mut m.outbox),
            notes: std::mem::take(&mut m.note_outbox),
            pieces: std::mem::take(&mut m.interval_pieces),
            mirror: m.tracer.drain_mirror().collect(),
            running: m.running,
            last_progress: m.last_progress,
            error: error.take(),
        };
        if tx.send(report).is_err() {
            return; // coordinator is gone
        }
        match rx.recv() {
            Ok(WindowPlan::Window {
                horizon,
                inbounds,
                notes,
            }) => {
                for ob in inbounds {
                    m.import_delivery(ob);
                }
                for n in notes {
                    m.apply_note(n);
                }
                match m.run_window(horizon) {
                    Ok(l) => last_pop = l,
                    Err(e) => error = Some(e),
                }
            }
            Ok(WindowPlan::Finish { notes }) => {
                for n in notes {
                    m.apply_note(n);
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// One interval boundary being summed across shards.
struct BoundaryAcc {
    snap: IntervalSnapshot,
    attrib: ClassTable,
    links: HashMap<(usize, usize), u64>,
    contribs: usize,
}

/// How the coordinator loop ended.
enum RunEnd {
    /// Every queue drained and nothing was in flight.
    Drained,
    /// A worker's window died; the error already names the failure.
    WorkerError { shard: usize, error: SimError },
    /// No shard retired an operation for a full watchdog span.
    Watchdog {
        shard: usize,
        at: Cycle,
        detail: String,
    },
}

/// A [`Machine`] split across worker threads under conservative
/// time-window synchronization.
///
/// Construct with [`ShardedMachine::new`], optionally attach a stream,
/// then [`try_run`](ShardedMachine::try_run). With `shards == 1` every
/// call delegates to the solo engine, so the sharded front-end is a strict
/// superset of the serial one. For `shards > 1` the run's outputs — stats,
/// metrics, traces, streams — are byte-identical to `shards == 1`.
pub struct ShardedMachine {
    /// Per-shard machines (workers borrow them during a run).
    machines: Vec<Machine>,
    /// `(first cluster, cluster count)` per shard.
    parts: Vec<(usize, usize)>,
    /// The conservative window width.
    lookahead: Cycle,
    /// Copied config the coordinator needs while workers hold the
    /// machines.
    clusters: usize,
    watchdog_cycles: Cycle,
    /// Whether traffic attribution is live (drives `attrib_delta`
    /// streaming).
    attrib_on: bool,
    /// The interval period (0 = no interval records).
    interval: Cycle,
    /// The next interval boundary the stream owes a record for. The
    /// stream must never emit an event at or past this cycle before the
    /// boundary's record: boundaries are deterministic multiples of the
    /// period, so the cap is known before any shard ships a piece.
    next_due: Cycle,
    /// The attached stream (coordinator-owned for `shards > 1`): the one
    /// pump every shard's mirror events funnel into, so the sharded run
    /// applies the solo machine's watermark rule and renumbering.
    stream: Option<StreamPump>,
    /// Lines the sink reported shedding when the stream closed.
    shed: u64,
    /// Merged metrics registry, built when the run completes.
    metrics: MetricsRegistry,
    /// Merged finish time (max over shards).
    finish_time: Cycle,
    /// Interval boundaries still being accumulated.
    boundaries: BTreeMap<Cycle, BoundaryAcc>,
    /// Summed interval snapshots, in boundary order.
    merged_intervals: Vec<IntervalSnapshot>,
    /// Highest event time processed anywhere (the serial run's clock
    /// high-water mark).
    t_so_far: Cycle,
}

impl ShardedMachine {
    /// Partitions `cfg.clusters` across `shards` contiguous ranges and
    /// builds one worker machine per range. Programs are distributed by
    /// [`ThreadProgram::fork`] — each shard runs its owned processors'
    /// programs; the rest stay inert.
    ///
    /// Fails (with a human-readable reason) when the configuration cannot
    /// be sharded deterministically: more shards than clusters, a latency
    /// model with zero lookahead, link contention (a single global
    /// resource), or the patterns observatory (it reads remote cache state
    /// at home-processing time).
    pub fn new(
        cfg: MachineConfig,
        programs: Vec<Box<dyn ThreadProgram>>,
        shards: usize,
    ) -> Result<ShardedMachine, String> {
        if shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if shards > cfg.clusters {
            return Err(format!(
                "{} shards exceed {} clusters (each shard needs at least one cluster)",
                shards, cfg.clusters
            ));
        }
        assert_eq!(
            programs.len(),
            cfg.clusters * cfg.procs_per_cluster,
            "one program per processor"
        );
        let lookahead = cfg.latency.min_remote_latency();
        if shards > 1 {
            if lookahead == 0 {
                return Err(
                    "latency model has zero minimum remote latency: no conservative \
                     lookahead exists, run with --shards 1"
                        .into(),
                );
            }
            if cfg.link_occupancy.is_some() {
                return Err(
                    "link contention models a single global resource and cannot be \
                     sharded; run with --shards 1"
                        .into(),
                );
            }
            if cfg.trace.as_ref().is_some_and(|t| t.patterns) {
                return Err(
                    "the patterns observatory samples remote cache state and cannot \
                     be sharded; run with --shards 1"
                        .into(),
                );
            }
        }
        let parts: Vec<(usize, usize)> = (0..shards)
            .map(|s| {
                let base = s * cfg.clusters / shards;
                let end = (s + 1) * cfg.clusters / shards;
                (base, end - base)
            })
            .collect();
        let machines: Vec<Machine> = parts
            .iter()
            .map(|&(base, count)| {
                let progs: Vec<Box<dyn ThreadProgram>> =
                    programs.iter().map(|p| p.fork()).collect();
                Machine::new_shard(cfg.clone(), progs, base, count)
            })
            .collect();
        let attrib_on = machines[0].attrib_active;
        let interval = if machines[0].trace_active {
            machines[0].trace_cfg.interval
        } else {
            0
        };
        Ok(ShardedMachine {
            machines,
            parts,
            lookahead,
            clusters: cfg.clusters,
            watchdog_cycles: cfg.watchdog_cycles,
            attrib_on,
            interval,
            next_due: interval,
            stream: None,
            shed: 0,
            metrics: MetricsRegistry::new(),
            finish_time: 0,
            boundaries: BTreeMap::new(),
            merged_intervals: Vec::new(),
            t_so_far: 0,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.machines.len()
    }

    /// The conservative window width (minimum inter-shard latency).
    pub fn lookahead(&self) -> Cycle {
        self.lookahead
    }

    /// The shard owning `cluster`.
    fn owner_of(&self, cluster: usize) -> usize {
        self.parts
            .iter()
            .position(|&(base, count)| cluster.wrapping_sub(base) < count)
            .expect("every cluster has an owner")
    }

    /// Attaches `sink`, emitting the optional `run_meta` record
    /// immediately — the same contract as [`Machine::attach_stream`]. For
    /// a sharded run the coordinator owns the sink and merges every
    /// worker's mirror events through one [`StreamPump`].
    pub fn attach_stream(&mut self, sink: Box<dyn scd_trace::TraceSink>, run: Option<Json>) {
        if self.machines.len() == 1 {
            self.machines[0].attach_stream(sink, run);
            return;
        }
        let mut pump = StreamPump::new(sink);
        if let Some(run) = run {
            pump.emit_record(&scd_trace::run_meta_record(&run));
            pump.flush_sink();
        }
        for m in &mut self.machines {
            m.tracer.set_mirror(true);
        }
        self.stream = Some(pump);
    }

    /// Lines the attached sink discarded — see
    /// [`Machine::stream_shed_lines`].
    pub fn stream_shed_lines(&self) -> u64 {
        if self.machines.len() == 1 {
            self.machines[0].stream_shed_lines()
        } else {
            self.shed
        }
    }

    /// Runs the partitioned machine to completion. Semantics mirror
    /// [`Machine::try_run`]; failure post-mortems name the stalled shard.
    pub fn try_run(&mut self) -> Result<RunStats, SimError> {
        if self.machines.len() == 1 {
            let stats = self.machines[0].try_run()?;
            self.finish_time = stats.cycles;
            return Ok(stats);
        }
        let n = self.machines.len();
        let machines = std::mem::take(&mut self.machines);

        let mut plan_txs: Vec<Sender<WindowPlan>> = Vec::with_capacity(n);
        let mut plan_rxs: Vec<Receiver<WindowPlan>> = Vec::with_capacity(n);
        let mut report_txs: Vec<Sender<WindowReport>> = Vec::with_capacity(n);
        let mut report_rxs: Vec<Receiver<WindowReport>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (ptx, prx) = channel();
            let (rtx, rrx) = channel();
            plan_txs.push(ptx);
            plan_rxs.push(prx);
            report_txs.push(rtx);
            report_rxs.push(rrx);
        }

        let (end, machines) = std::thread::scope(|scope| {
            let handles: Vec<_> = machines
                .into_iter()
                .zip(plan_rxs)
                .zip(report_txs)
                .map(|((mut m, prx), rtx)| {
                    scope.spawn(move || {
                        drive_worker(&mut m, &prx, &rtx);
                        m
                    })
                })
                .collect();
            let end = self.coordinate(&plan_txs, &report_rxs);
            drop(plan_txs);
            let machines: Vec<Machine> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            (end, machines)
        });
        self.machines = machines;
        self.finish(end)
    }

    /// Panicking wrapper around [`ShardedMachine::try_run`], mirroring
    /// [`Machine::run`].
    pub fn run(&mut self) -> RunStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// The barrier loop: gather reports in shard order, route boundary
    /// traffic, pick the next window `[M, M + L)`, repeat until every
    /// wheel drains (or something dies).
    fn coordinate(
        &mut self,
        plans: &[Sender<WindowPlan>],
        reports: &[Receiver<WindowReport>],
    ) -> RunEnd {
        let n = plans.len();
        let watchdog = self.watchdog_cycles;
        loop {
            let mut peeks: Vec<Option<Cycle>> = Vec::with_capacity(n);
            let mut outbounds: Vec<Outbound> = Vec::new();
            let mut notes: Vec<TxnNote> = Vec::new();
            let mut running_total = 0usize;
            let mut progress: Vec<Cycle> = Vec::with_capacity(n);
            let mut runnings: Vec<usize> = Vec::with_capacity(n);
            let mut error: Option<(usize, SimError)> = None;
            for (s, rx) in reports.iter().enumerate() {
                let Ok(r) = rx.recv() else {
                    // A worker can only hang up after a panic in scope;
                    // propagate as a join panic.
                    panic!("shard {s} worker hung up mid-run");
                };
                if let Some(t) = r.last_pop {
                    self.t_so_far = self.t_so_far.max(t);
                }
                peeks.push(r.peek);
                outbounds.extend(r.outbounds);
                notes.extend(r.notes);
                running_total += r.running;
                runnings.push(r.running);
                progress.push(r.last_progress);
                for p in r.pieces {
                    self.ingest_piece(p, n);
                }
                if let Some(pump) = self.stream.as_mut() {
                    for ev in r.mirror {
                        pump.push(ev);
                    }
                }
                if let Some(e) = r.error {
                    error.get_or_insert((s, e));
                }
            }
            if let Some((shard, error)) = error {
                finish_all(plans);
                return RunEnd::WorkerError { shard, error };
            }

            // Next window start: the earliest pending event anywhere,
            // including deliveries still crossing shards.
            let m_next = peeks
                .iter()
                .flatten()
                .copied()
                .chain(outbounds.iter().map(|ob| ob.deliver_at))
                .min();

            self.emit_ready_boundaries(m_next, n);

            let Some(m_next) = m_next else {
                // Fully drained: ship any leftover telemetry notes with the
                // shutdown so requester-side timelines stay complete.
                let mut note_bins = self.route_notes(notes);
                for (s, tx) in plans.iter().enumerate() {
                    let _ = tx.send(WindowPlan::Finish {
                        notes: std::mem::take(&mut note_bins[s]),
                    });
                }
                return RunEnd::Drained;
            };

            // The livelock watchdog is a *global* property (one shard's
            // procs legitimately idle while a remote shard works), so the
            // per-event check is disabled in sharded workers and the
            // coordinator evaluates it at barrier granularity instead.
            // `max_cycles` stays worker-side: the shard that pops the
            // offending event reports the failure with a full post-mortem.
            let global_progress = progress.iter().copied().max().unwrap_or(0);
            if watchdog > 0
                && running_total > 0
                && m_next.saturating_sub(global_progress) > watchdog
            {
                // Name the laggard: the stalled shard is the one whose own
                // processors have gone longest without retiring.
                let mut shard = 0;
                let mut best = Cycle::MAX;
                for s in 0..n {
                    if runnings[s] > 0 && progress[s] < best {
                        best = progress[s];
                        shard = s;
                    }
                }
                let detail = format!(
                    "no operation retired on any shard since cycle {global_progress} \
                     (watchdog window {watchdog}); shard {shard} (clusters \
                     {}..{}) stalled since cycle {}",
                    self.parts[shard].0,
                    self.parts[shard].0 + self.parts[shard].1,
                    progress[shard],
                );
                finish_all(plans);
                return RunEnd::Watchdog {
                    shard,
                    at: m_next,
                    detail,
                };
            }

            let horizon = m_next + self.lookahead;
            let mut delivery_bins: Vec<Vec<Outbound>> = vec![Vec::new(); n];
            for ob in outbounds {
                delivery_bins[self.owner_of(ob.msg.dst)].push(ob);
            }
            let mut note_bins = self.route_notes(notes);
            for (s, tx) in plans.iter().enumerate() {
                let plan = WindowPlan::Window {
                    horizon,
                    inbounds: std::mem::take(&mut delivery_bins[s]),
                    notes: std::mem::take(&mut note_bins[s]),
                };
                if tx.send(plan).is_err() {
                    panic!("shard {s} worker hung up mid-run");
                }
            }
        }
    }

    /// Routes telemetry notes to their target shards.
    fn route_notes(&self, notes: Vec<TxnNote>) -> Vec<Vec<TxnNote>> {
        let mut bins: Vec<Vec<TxnNote>> = vec![Vec::new(); self.parts.len()];
        for note in notes {
            let target = match &note {
                TxnNote::Begin { block, .. } => (*block as usize) % self.clusters,
                TxnNote::Phase { requester, .. } => *requester,
            };
            bins[self.owner_of(target)].push(note);
        }
        bins
    }

    /// Folds one shard's interval piece into its boundary accumulator.
    fn ingest_piece(&mut self, piece: IntervalPiece, shards: usize) {
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
                links: HashMap::new(),
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
        acc.contribs += 1;
        debug_assert!(acc.contribs <= shards, "a shard closed a boundary twice");
    }

    /// Emits every fully-summed boundary the run has reached — exactly the
    /// windows the solo engine would have closed by now (a boundary only
    /// becomes a record once some event at or past it was processed).
    fn emit_ready_boundaries(&mut self, m_next: Option<Cycle>, shards: usize) {
        while let Some(entry) = self.boundaries.first_entry() {
            if *entry.key() > self.t_so_far {
                break;
            }
            let acc = entry.remove();
            debug_assert_eq!(acc.contribs, shards, "boundary missing a shard's piece");
            self.next_due = acc.snap.end + self.interval;
            self.merged_intervals.push(acc.snap);
            if let Some(pump) = self.stream.as_mut() {
                let traffic = self
                    .attrib_on
                    .then(|| (&acc.attrib, acc.links.into_iter().collect()));
                stream_window(pump, &acc.snap, traffic);
            }
        }
        if let Some(stream) = self.stream.as_mut() {
            // Safe watermark: nothing recorded from here on sorts below the
            // next pending event time, and no event at or past the next
            // *due* interval boundary may flush before that boundary's
            // record. `next_due` — not the accumulator map — is the cap:
            // boundaries are deterministic multiples of the period, so the
            // record for `next_due` is owed even before any shard has
            // shipped a piece for it (trace events can carry cycles past
            // the window that recorded them).
            let next_due = if self.interval > 0 {
                self.next_due
            } else {
                Cycle::MAX
            };
            let cap = m_next.unwrap_or(Cycle::MAX).min(next_due);
            stream.flush_below(cap);
        }
    }

    /// Post-run: surface errors (naming the shard), replicate the solo
    /// engine's finalize checks across the fleet, close the merged stream,
    /// and merge the statistics.
    fn finish(&mut self, end: RunEnd) -> Result<RunStats, SimError> {
        // Note trailing telemetry: mirrors shipped with final reports were
        // ingested; tracers keep recorded/dropped totals.
        let recorded: u64 = self.machines.iter().map(|m| m.tracer.recorded()).sum();
        let dropped: u64 = self.machines.iter().map(|m| m.tracer.dropped()).sum();
        self.finish_time = self.machines.iter().map(|m| m.finish_time).max().unwrap_or(0);
        let close_cycles = if self.finish_time > 0 {
            self.finish_time
        } else {
            self.machines.iter().map(|m| m.queue.now()).max().unwrap_or(0)
        };

        let result: Result<(), SimError> = (|| {
            match end {
                RunEnd::WorkerError { shard, error } => {
                    return Err(self.name_shard(shard, error));
                }
                RunEnd::Watchdog { shard, at, detail } => {
                    let pm = self.machines[shard].post_mortem(at, detail);
                    return Err(SimError::LivelockWatchdog(pm));
                }
                RunEnd::Drained => {}
            }
            for (s, m) in self.machines.iter().enumerate() {
                if m.running != 0 {
                    let detail = format!(
                        "{} processors blocked with an empty event queue",
                        m.running
                    );
                    let pm = m.post_mortem(m.queue.now(), detail);
                    return Err(self.name_shard(s, SimError::Deadlock(pm)));
                }
                if !m.arena.is_empty() {
                    let detail = format!(
                        "{} message(s) still parked in the arena after the event \
                         queue drained",
                        m.arena.live()
                    );
                    let pm = m.post_mortem(m.queue.now(), detail);
                    return Err(self.name_shard(s, SimError::InvariantViolation(pm)));
                }
            }
            if self.machines[0].cfg.check_invariants {
                if let Err(e) = self.verify_quiescent_merged() {
                    let shard = e.cluster.map(|c| self.owner_of(c)).unwrap_or(0);
                    let pm = self.machines[shard]
                        .post_mortem(self.machines[shard].queue.now(), e.to_string());
                    return Err(self.name_shard(shard, SimError::InvariantViolation(pm)));
                }
            }
            Ok(())
        })();

        // Close the stream whether the run succeeded or not — a live
        // consumer gets the history up to the death plus an honest
        // run_end, exactly like the solo engine.
        if let Some(pump) = self.stream.take() {
            self.shed = pump.close(close_cycles, recorded, dropped);
            for m in &mut self.machines {
                m.tracer.set_mirror(false);
            }
        }
        result?;

        // Merge metrics: order-independent histogram sums plus the
        // boundary-ordered interval series the coordinator accumulated.
        let mut metrics = MetricsRegistry::new();
        for m in &self.machines {
            metrics.merge(&m.metrics);
        }
        metrics.intervals = std::mem::take(&mut self.merged_intervals);
        self.boundaries.clear();
        self.metrics = metrics;

        Ok(self.merge_stats())
    }

    /// Prefixes a shard identity into an error's post-mortem detail.
    fn name_shard(&self, shard: usize, error: SimError) -> SimError {
        let (base, count) = self.parts[shard];
        let tag = format!("shard {shard} (clusters {}..{}): ", base, base + count);
        let prefix = |mut pm: Box<PostMortem>| {
            pm.detail = format!("{tag}{}", pm.detail);
            pm
        };
        match error {
            SimError::Deadlock(pm) => SimError::Deadlock(prefix(pm)),
            SimError::MaxCycles(pm) => SimError::MaxCycles(prefix(pm)),
            SimError::InvariantViolation(pm) => SimError::InvariantViolation(prefix(pm)),
            SimError::LivelockWatchdog(pm) => SimError::LivelockWatchdog(prefix(pm)),
        }
    }

    /// The quiescent coherence check over the whole fleet: each cluster's
    /// view comes from its owning shard, so the machine-wide invariants
    /// (single writer, owner tracking, superset coverage) are verified
    /// across shard boundaries.
    fn verify_quiescent_merged(&self) -> Result<(), crate::checker::Violation> {
        let cfg = &self.machines[0].cfg;
        let views: Vec<ClusterView<'_>> = (0..cfg.clusters)
            .map(|c| {
                let owner = &self.machines[self.owner_of(c)];
                let node = &owner.clusters[c];
                ClusterView {
                    resident: node.caches.cluster_resident(),
                    node,
                }
            })
            .collect();
        crate::checker::verify_views(cfg, &views)
    }

    /// Sums per-shard [`RunStats`] into the machine-wide figures. Every
    /// counter is owned by exactly one shard (procs, clusters, and message
    /// sources partition), so plain sums — plus max for the clock-like
    /// fields — reproduce the serial run exactly.
    fn merge_stats(&self) -> RunStats {
        let mut parts = self.machines.iter().map(|m| m.collect());
        let mut total = parts.next().expect("at least one shard");
        for p in parts {
            total.cycles = total.cycles.max(p.cycles);
            total.traffic.merge(&p.traffic);
            total.invalidations.merge(&p.invalidations);
            total.shared_reads += p.shared_reads;
            total.shared_writes += p.shared_writes;
            total.sync_ops += p.sync_ops;
            total.network.merge(&p.network);
            total.sparse = merge_opt(total.sparse, p.sparse, |a, b| scd_core::SparseStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                fills: a.fills + b.fills,
                replacements: a.replacements + b.replacements,
            });
            total.overflow = merge_opt(total.overflow, p.overflow, |a, b| {
                scd_core::OverflowStats {
                    promotions: a.promotions + b.promotions,
                    demotions: a.demotions + b.demotions,
                    displacements: a.displacements + b.displacements,
                    fallback_evictions: a.fallback_evictions + b.fallback_evictions,
                }
            });
            total.l2_misses += p.l2_misses;
            total.lock_metrics.0 += p.lock_metrics.0;
            total.lock_metrics.1 += p.lock_metrics.1;
            total.queue_metrics.0 = total.queue_metrics.0.max(p.queue_metrics.0);
            total.queue_metrics.1 += p.queue_metrics.1;
            total.live_dir_entries += p.live_dir_entries;
            total.protocol.forwards += p.protocol.forwards;
            total.protocol.races += p.protocol.races;
            total.protocol.self_owned_parks += p.protocol.self_owned_parks;
            total.protocol.nb_evictions += p.protocol.nb_evictions;
            total.protocol.replacement_flushes += p.protocol.replacement_flushes;
            total.protocol.sparse_stalls += p.protocol.sparse_stalls;
            total.faults.nacks += p.faults.nacks;
            total.faults.retries += p.faults.retries;
            total.faults.duplicates += p.faults.duplicates;
            total.faults.strays_dropped += p.faults.strays_dropped;
            total.faults.delay_spikes += p.faults.delay_spikes;
            total.faults.reorders += p.faults.reorders;
            total.tardis = merge_opt(total.tardis, p.tardis, |a, b| {
                crate::stats::TardisCounters {
                    lease_fills: a.lease_fills + b.lease_fills,
                    renewals: a.renewals + b.renewals,
                    renew_refetches: a.renew_refetches + b.renew_refetches,
                    write_throughs: a.write_throughs + b.write_throughs,
                }
            });
            total.dls = merge_opt(total.dls, p.dls, |a, b| crate::stats::DlsCounters {
                llc_fills: a.llc_fills + b.llc_fills,
                llc_writes: a.llc_writes + b.llc_writes,
            });
            total.versions_assigned += p.versions_assigned;
            total.events_delivered += p.events_delivered;
            for (a, b) in total.stalls.mem_stall.iter_mut().zip(&p.stalls.mem_stall) {
                *a += b;
            }
            for (a, b) in total.stalls.sync_stall.iter_mut().zip(&p.stalls.sync_stall) {
                *a += b;
            }
            for (a, b) in total.stalls.finish.iter_mut().zip(&p.stalls.finish) {
                *a += b;
            }
        }
        total
    }

    /// The merged metrics registry (delegates to the solo machine for one
    /// shard).
    pub fn metrics(&self) -> &MetricsRegistry {
        if self.machines.len() == 1 {
            self.machines[0].metrics()
        } else {
            &self.metrics
        }
    }

    /// The merged `scd-attrib/v1` document — see
    /// [`Machine::attribution_json`]. Byte-identical to the solo run: each
    /// message is attributed by exactly one shard and link counters sum.
    pub fn attribution_json(&self, elapsed: Cycle) -> Option<Json> {
        if self.machines.len() == 1 {
            return self.machines[0].attribution_json(elapsed);
        }
        let first = &self.machines[0];
        if !first.attrib_active {
            return None;
        }
        let mut attrib = first.attrib.clone();
        for m in &self.machines[1..] {
            attrib.merge(&m.attrib);
        }
        let mut j = attrib.to_json();
        let horizon = elapsed.max(1) as f64;
        const TOP_LINKS: usize = 16;
        let all = merge_link_traffic(self.machines.iter().map(|m| m.network.link_traffic()));
        let links: Vec<Json> = all
            .iter()
            .take(TOP_LINKS)
            .map(|((from, to), c)| {
                Json::obj()
                    .with("from", Json::U64(*from as u64))
                    .with("to", Json::U64(*to as u64))
                    .with("messages", Json::U64(c.messages))
                    .with("flits", Json::U64(c.flits))
                    .with("occupancy", Json::F64(c.flits as f64 / horizon))
            })
            .collect();
        j.set(
            "links",
            Json::obj()
                .with("tracked", Json::U64(all.len() as u64))
                .with("busiest", Json::Arr(links)),
        );
        let mut live = 0usize;
        let mut sparse_sum: Option<scd_core::SparseStats> = None;
        for (s, m) in self.machines.iter().enumerate() {
            let (base, count) = self.parts[s];
            for c in &m.clusters[base..base + count] {
                live += c.dir.live_entries();
                if let Some(st) = c.dir.sparse_stats() {
                    let sum = sparse_sum.get_or_insert_with(Default::default);
                    sum.hits += st.hits;
                    sum.misses += st.misses;
                    sum.fills += st.fills;
                    sum.replacements += st.replacements;
                }
            }
        }
        if let Some(st) = sparse_sum {
            let cfg = &first.cfg;
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
            sp.set("replacements", Json::U64(st.replacements));
            sp.set(
                "replacements_per_kcycle",
                Json::F64(st.replacements as f64 * 1000.0 / horizon),
            );
            j.set("sparse", sp);
        }
        Some(j)
    }

    /// The fleet-wide value-oracle report — see
    /// [`Machine::value_oracle_report`]. Deferred loads resolve against
    /// the union of every shard's write log.
    pub fn value_oracle_report(&self) -> Option<super::oracle::ValueOracleReport> {
        if self.machines.len() == 1 {
            return self.machines[0].value_oracle_report();
        }
        if !self.machines[0].oracle.on {
            return None;
        }
        let mut merged = self.machines[0].oracle.clone();
        for m in &self.machines[1..] {
            merged.absorb(&m.oracle);
        }
        Some(merged.report())
    }

    /// All retained trace events across shards, merged into the canonical
    /// `(cycle, cluster, seq)` order and renumbered — identical to the
    /// solo machine's [`Machine::trace_events`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        Tracer::merged_from(self.machines.iter().map(|m| &m.tracer))
    }

    /// Events recorded / evicted across all shards.
    pub fn trace_counts(&self) -> (u64, u64) {
        let recorded = self.machines.iter().map(|m| m.tracer.recorded()).sum();
        let dropped = self.machines.iter().map(|m| m.tracer.dropped()).sum();
        (recorded, dropped)
    }

    /// The `trace` section of the stats document — see
    /// [`Machine::trace_json`].
    pub fn trace_json(&self) -> Option<Json> {
        self.machines[0].trace_active.then(|| {
            let (recorded, dropped) = self.trace_counts();
            Json::obj()
                .with("recorded", Json::U64(recorded))
                .with("dropped_events", Json::U64(dropped))
        })
    }

    /// The `patterns` section — always `None` for `shards > 1` (the
    /// observatory is rejected at construction); delegates for one shard.
    pub fn occupancy_json(&self) -> Option<Json> {
        if self.machines.len() == 1 {
            self.machines[0].occupancy_json()
        } else {
            None
        }
    }
}

/// Sends `Finish` (with no notes) to every worker.
fn finish_all(plans: &[Sender<WindowPlan>]) {
    for tx in plans {
        let _ = tx.send(WindowPlan::Finish { notes: Vec::new() });
    }
}

/// Merges two optional stat blocks with `f`, keeping either side alone.
fn merge_opt<T>(a: Option<T>, b: Option<T>, f: impl FnOnce(&T, &T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(&a, &b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}
