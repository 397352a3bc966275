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

use std::sync::mpsc::{channel, Receiver, Sender};

use super::telemetry::{self, Shipment, TxnNote};
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
    /// The run is over (drained, errored, or watchdogged): hand the
    /// machine back. Notes still in flight are dropped: they only steer
    /// the recording of later events, and there are none.
    Finish,
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
    /// What the shard's recorder owes its peers and the hub: transaction
    /// notes, closed interval windows, freshly recorded trace events.
    telemetry: Shipment,
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
    m.eng.start();
    let mut last_pop = None;
    let mut error: Option<SimError> = None;
    loop {
        let report = WindowReport {
            peek: if error.is_some() {
                None
            } else {
                m.eng.queue.peek_time()
            },
            last_pop: last_pop.take(),
            outbounds: std::mem::take(&mut m.eng.outbox),
            telemetry: m.eng.telemetry.ship(),
            running: m.eng.running,
            last_progress: m.eng.last_progress,
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
                    m.eng.import_delivery(ob);
                }
                for n in notes {
                    m.eng.telemetry.apply_note(n);
                }
                match m.run_window(horizon) {
                    Ok(l) => last_pop = l,
                    Err(e) => error = Some(e),
                }
            }
            Ok(WindowPlan::Finish) | Err(_) => return,
        }
    }
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
/// then [`try_run`](ShardedMachine::try_run). With `shards == 1` the run
/// *is* the solo engine's, so the sharded front-end is a strict superset
/// of the serial one; everything read back afterwards folds over the
/// parts, of which there may be one. For `shards > 1` the run's outputs —
/// stats, metrics, traces, streams — are byte-identical to `shards == 1`.
pub struct ShardedMachine {
    /// Per-shard machines (workers borrow them during a run).
    machines: Vec<Machine>,
    /// `(first cluster, cluster count)` per shard.
    parts: Vec<(usize, usize)>,
    /// The conservative window width.
    lookahead: Cycle,
    /// Copied config the coordinator needs while workers hold the
    /// machines.
    watchdog_cycles: Cycle,
    /// The run's telemetry hub when there are N > 1 parts (a single part
    /// keeps its own): every shard's mirror events and interval pieces
    /// funnel into it, so the sharded run applies the solo machine's
    /// watermark rule and renumbering.
    hub: telemetry::Hub,
    /// Merged metrics registry for N > 1: the hub appends the interval
    /// series as boundaries close; histograms are summed when the run
    /// completes.
    metrics: MetricsRegistry,
    /// Highest event time processed anywhere (the serial run's clock
    /// high-water mark).
    t_so_far: Cycle,
}

impl ShardedMachine {
    /// Partitions `cfg.clusters` across `shards` contiguous ranges and
    /// builds one worker machine per range. Every shard gets a clone of
    /// the scripts and runs its owned processors'; the rest stay inert.
    ///
    /// Fails (with a human-readable reason) when the configuration cannot
    /// be sharded deterministically: more shards than clusters, a latency
    /// model with zero lookahead, link contention (a single global
    /// resource), or the patterns observatory (it reads remote cache state
    /// at home-processing time).
    pub fn new(
        cfg: MachineConfig,
        programs: Vec<Script>,
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
            .map(|&(base, count)| Machine::new_shard(cfg.clone(), programs.clone(), base, count))
            .collect();
        Ok(ShardedMachine {
            hub: telemetry::Hub::new(&machines[0].eng.telemetry, shards),
            machines,
            parts,
            lookahead,
            watchdog_cycles: cfg.watchdog_cycles,
            metrics: MetricsRegistry::new(),
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

    /// Where the run's hub and merged registry live: with the machine
    /// when it is the whole machine, with the coordinator otherwise.
    fn run_state(&self) -> (&telemetry::Hub, &MetricsRegistry) {
        if self.machines.len() == 1 {
            (&self.machines[0].eng.hub, self.machines[0].metrics())
        } else {
            (&self.hub, &self.metrics)
        }
    }

    fn hub_mut(&mut self) -> &mut telemetry::Hub {
        if self.machines.len() == 1 {
            &mut self.machines[0].eng.hub
        } else {
            &mut self.hub
        }
    }

    /// Attaches `sink`, emitting the optional `run_meta` record
    /// immediately — the same contract as [`Machine::attach_stream`].
    pub fn attach_stream(&mut self, sink: Box<dyn scd_trace::TraceSink>, run: Option<Json>) {
        self.hub_mut().attach(sink, run);
        for m in &mut self.machines {
            m.eng.telemetry.start_streaming(&m.eng.network);
        }
    }

    /// Lines the attached sink discarded — see
    /// [`Machine::stream_shed_lines`].
    pub fn stream_shed_lines(&self) -> u64 {
        self.run_state().0.shed()
    }

    /// Runs the partitioned machine to completion. Semantics mirror
    /// [`Machine::try_run`]; failure post-mortems name the stalled shard.
    pub fn try_run(&mut self) -> Result<RunStats, SimError> {
        if self.machines.len() == 1 {
            return self.machines[0].try_run();
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
                let Ok(mut r) = rx.recv() else {
                    // A worker can only hang up after a panic in scope;
                    // propagate as a join panic.
                    panic!("shard {s} worker hung up mid-run");
                };
                if let Some(t) = r.last_pop {
                    self.t_so_far = self.t_so_far.max(t);
                }
                peeks.push(r.peek);
                outbounds.extend(r.outbounds);
                notes.append(&mut r.telemetry.notes);
                self.hub.absorb_shipment(r.telemetry);
                running_total += r.running;
                runnings.push(r.running);
                progress.push(r.last_progress);
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

            // Exactly the windows the solo engine would have closed by
            // now, then the stream's watermark up to the next window.
            self.hub
                .advance(self.t_so_far, m_next, &mut self.metrics.intervals);

            let Some(m_next) = m_next else {
                finish_all(plans);
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
            let mut note_bins: Vec<Vec<TxnNote>> = vec![Vec::new(); n];
            for note in notes {
                note_bins[self.owner_of(note.target())].push(note);
            }
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

    /// Post-run: surface errors (naming the shard), replicate the solo
    /// engine's finalize checks across the fleet, close the merged stream,
    /// and merge the statistics.
    fn finish(&mut self, end: RunEnd) -> Result<RunStats, SimError> {
        // Close the stream whether the run succeeded or not — a live
        // consumer gets the history up to the death plus an honest
        // run_end, exactly like the solo engine. Mirrors shipped with the
        // final reports are already in the hub.
        if self.hub.streaming() {
            let (cycles, recorded, dropped) = telemetry::run_end(&self.machines);
            self.hub.close(cycles, recorded, dropped);
            for m in &mut self.machines {
                m.eng.telemetry.stop_streaming();
            }
        }
        // Histogram sums are order-independent; the interval series is
        // already in boundary order.
        for m in &self.machines {
            self.metrics.merge(m.metrics());
        }
        match end {
            RunEnd::WorkerError { shard, error } => return Err(self.name_shard(shard, error)),
            RunEnd::Watchdog { shard, at, detail } => {
                let pm = self.machines[shard].eng.post_mortem(at, detail);
                return Err(SimError::LivelockWatchdog(pm));
            }
            RunEnd::Drained => {}
        }
        Machine::check_drained(&self.machines).map_err(|(s, e)| self.name_shard(s, e))?;
        let mut parts = self.machines.iter().map(Machine::collect);
        let mut total = parts.next().expect("at least one shard");
        for p in parts {
            total.merge(p);
        }
        Ok(total)
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

    /// The run's metrics registry — see [`Machine::metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        self.run_state().1
    }

    /// The `scd-attrib/v1` document — see [`Machine::attribution_json`].
    pub fn attribution_json(&self, elapsed: Cycle) -> Option<Json> {
        telemetry::attribution_json(&self.machines, elapsed)
    }

    /// The fleet-wide value-oracle report — see
    /// [`Machine::value_oracle_report`]. Deferred loads resolve against
    /// the union of every shard's write log.
    pub fn value_oracle_report(&self) -> Option<super::oracle::ValueOracleReport> {
        let (first, rest) = self.machines.split_first()?;
        if !first.eng.oracle.on {
            return None;
        }
        let mut merged = first.eng.oracle.clone();
        for m in rest {
            merged.absorb(&m.eng.oracle);
        }
        Some(merged.report())
    }

    /// All retained trace events across shards, merged into the canonical
    /// `(cycle, cluster, seq)` order and renumbered — see
    /// [`Machine::trace_events`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        telemetry::trace_events(&self.machines)
    }

    /// Events recorded / evicted across all shards.
    pub fn trace_counts(&self) -> (u64, u64) {
        telemetry::trace_counts(&self.machines)
    }

    /// The `trace` section of the stats document — see
    /// [`Machine::trace_json`].
    pub fn trace_json(&self) -> Option<Json> {
        telemetry::trace_json(&self.machines)
    }

    /// The `occupancy` section of the patterns document — see
    /// [`Machine::occupancy_json`]. The observatory is refused at
    /// construction for more than one shard, so only a whole machine ever
    /// has one to report.
    pub fn occupancy_json(&self) -> Option<Json> {
        self.machines[0].occupancy_json()
    }
}

/// Sends `Finish` to every worker.
fn finish_all(plans: &[Sender<WindowPlan>]) {
    for tx in plans {
        let _ = tx.send(WindowPlan::Finish);
    }
}
