//! Aggregated results of one simulation run.

use scd_core::{OverflowStats, SparseStats};
use scd_noc::NetworkStats;
use scd_stats::{Histogram, MessageClass, Traffic};
use scd_trace::{Json, MetricsRegistry};

/// Adds an optional stat block into an optional accumulator (`None` =
/// the block does not apply to this configuration).
pub(crate) fn add_opt<T: std::ops::AddAssign>(acc: &mut Option<T>, x: Option<T>) {
    match (acc.as_mut(), x) {
        (Some(a), Some(x)) => *a += x,
        (None, x) => *acc = x,
        (Some(_), None) => {}
    }
}

/// Counts of rare protocol paths, for observability in stress tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Requests forwarded to a dirty owner (3-cluster transactions).
    pub forwards: u64,
    /// Writeback races (forward bounced off an ex-owner).
    pub races: u64,
    /// Requests parked because the requester was the recorded owner.
    pub self_owned_parks: u64,
    /// `Dir_i NB` pointer-overflow evictions.
    pub nb_evictions: u64,
    /// Sparse-directory replacements that required flushes.
    pub replacement_flushes: u64,
    /// Requests stalled on a fully pinned sparse set.
    pub sparse_stalls: u64,
}

/// Tardis-backend event counters (DESIGN.md §16). `None` unless the run
/// used `ProtocolKind::Tardis`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TardisCounters {
    /// Lease-carrying read fills installed at requesters.
    pub lease_fills: u64,
    /// Lease renewal requests sent (expired lease on a resident line).
    pub renewals: u64,
    /// Renewals the home declined (the block had been rewritten), each
    /// forcing a refetch through the normal miss path.
    pub renew_refetches: u64,
    /// Writes written through to the home timestamp slice (every Tardis
    /// write; there is no exclusive-ownership fast path).
    pub write_throughs: u64,
}

/// DLS-backend event counters (DESIGN.md §16). `None` unless the run
/// used `ProtocolKind::Dls`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DlsCounters {
    /// Remote reads served from the home LLC slice (no requester fill).
    pub llc_fills: u64,
    /// Remote writes absorbed by the home LLC slice.
    pub llc_writes: u64,
}

/// Counts of injected faults and the protocol's recovery work. All zeros
/// when no fault plan is active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Requests the home refused with a transient NACK (injected or
    /// `SelfOwned` conversions under an active plan).
    pub nacks: u64,
    /// Requests reissued by a requester after a NACK.
    pub retries: u64,
    /// Extra deliveries injected by the duplication fault.
    pub duplicates: u64,
    /// Stray replies/NACKs dropped at the requester (duplicate service).
    pub strays_dropped: u64,
    /// Latency spikes injected by the delay fault.
    pub delay_spikes: u64,
    /// Messages jittered out of channel order by the reorder fault.
    pub reorders: u64,
}

/// Where simulated time went, per processor and in aggregate.
#[derive(Clone, Debug, Default)]
pub struct StallBreakdown {
    /// Cycles spent blocked on memory transactions, per processor.
    pub mem_stall: Vec<u64>,
    /// Cycles spent blocked on locks/barriers, per processor.
    pub sync_stall: Vec<u64>,
    /// Cycles from start to each processor's completion.
    pub finish: Vec<u64>,
}

impl StallBreakdown {
    /// Aggregate (busy, memory-stall, sync-stall) fractions of total
    /// processor-time.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total: u64 = self.finish.iter().sum();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let mem: u64 = self.mem_stall.iter().sum();
        let sync: u64 = self.sync_stall.iter().sum();
        let busy = total.saturating_sub(mem + sync);
        (
            busy as f64 / total as f64,
            mem as f64 / total as f64,
            sync as f64 / total as f64,
        )
    }
}

/// Everything the experiment harness reads off a finished run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Simulated execution time in cycles (when the last processor
    /// finished).
    pub cycles: u64,
    /// Network message counts by class.
    pub traffic: Traffic,
    /// Invalidation distribution: one event per directory write transaction
    /// (and per `Dir_i NB` read-caused eviction), weighted by the number of
    /// invalidation messages sent (Figures 3–6).
    pub invalidations: Histogram,
    /// Shared reads issued by the application.
    pub shared_reads: u64,
    /// Shared writes issued by the application.
    pub shared_writes: u64,
    /// Synchronization operations issued (lock/unlock/barrier).
    pub sync_ops: u64,
    /// Interconnect statistics (hop distribution).
    pub network: NetworkStats,
    /// Sum of sparse-directory statistics across all homes (None when the
    /// directory is complete).
    pub sparse: Option<SparseStats>,
    /// Sum of overflow-directory statistics across all homes (None unless
    /// the organization is `Organization::Overflow`).
    pub overflow: Option<OverflowStats>,
    /// Machine-wide L2 misses.
    pub l2_misses: u64,
    /// (lock grants, lock retry messages) across all homes.
    pub lock_metrics: (u64, u64),
    /// (max home queue depth, total queued requests) across all homes.
    pub queue_metrics: (usize, u64),
    /// Live directory entries at the end of the run (occupancy check).
    pub live_dir_entries: usize,
    /// Rare-path counters.
    pub protocol: ProtocolCounters,
    /// Tardis-backend counters (`None` for other protocols).
    pub tardis: Option<TardisCounters>,
    /// DLS-backend counters (`None` for other protocols).
    pub dls: Option<DlsCounters>,
    /// Fault-injection counters (all zero when no fault plan is active).
    pub faults: FaultCounters,
    /// Ownership-epoch versions assigned by the version oracle (0 when
    /// `track_versions` is off). Every write transaction that reaches a
    /// home directory creates one.
    pub versions_assigned: u64,
    /// Simulator events popped off the event queue over the whole run
    /// (processor steps, deliveries, replays). A host-side throughput
    /// denominator — deliberately NOT part of [`RunStats::to_json`]'s
    /// published schema, which records simulated behaviour only.
    pub events_delivered: u64,
    /// Per-processor time anatomy.
    pub stalls: StallBreakdown,
}

impl RunStats {
    /// Total shared references (Table 2's "shared refs").
    pub fn shared_refs(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// Execution time normalized to a baseline run.
    pub fn normalized_time(&self, baseline: &RunStats) -> f64 {
        self.cycles as f64 / baseline.cycles as f64
    }

    /// The core run statistics as a JSON object with insertion-ordered,
    /// stable field names. This is the `stats` section of the
    /// `scd-run-stats/v1` schema; field names and nesting are a published
    /// format (`scdsim --stats-json`, `BENCH_*.json`) — only add, never
    /// rename.
    pub fn to_json(&self) -> Json {
        let traffic = Json::obj()
            .with("requests", Json::U64(self.traffic.get(MessageClass::Request)))
            .with("replies", Json::U64(self.traffic.get(MessageClass::Reply)))
            .with(
                "invalidations",
                Json::U64(self.traffic.get(MessageClass::Invalidation)),
            )
            .with(
                "acks",
                Json::U64(self.traffic.get(MessageClass::Acknowledgement)),
            )
            .with("total", Json::U64(self.traffic.total()));
        let network = Json::obj()
            .with("messages", Json::U64(self.network.messages))
            .with("hops", Json::U64(self.network.hops))
            .with("mean_hops", Json::F64(self.network.mean_hops()))
            .with(
                "contention_cycles",
                Json::U64(self.network.contention_cycles),
            );
        let protocol = Json::obj()
            .with("forwards", Json::U64(self.protocol.forwards))
            .with("races", Json::U64(self.protocol.races))
            .with("self_owned_parks", Json::U64(self.protocol.self_owned_parks))
            .with("nb_evictions", Json::U64(self.protocol.nb_evictions))
            .with(
                "replacement_flushes",
                Json::U64(self.protocol.replacement_flushes),
            )
            .with("sparse_stalls", Json::U64(self.protocol.sparse_stalls));
        let faults = Json::obj()
            .with("nacks", Json::U64(self.faults.nacks))
            .with("retries", Json::U64(self.faults.retries))
            .with("duplicates", Json::U64(self.faults.duplicates))
            .with("strays_dropped", Json::U64(self.faults.strays_dropped))
            .with("delay_spikes", Json::U64(self.faults.delay_spikes))
            .with("reorders", Json::U64(self.faults.reorders));
        let (busy, mem, sync) = self.stalls.fractions();
        let anatomy = Json::obj()
            .with("busy", Json::F64(busy))
            .with("mem_stall", Json::F64(mem))
            .with("sync_stall", Json::F64(sync));
        let mut j = Json::obj()
            .with("cycles", Json::U64(self.cycles))
            .with("shared_reads", Json::U64(self.shared_reads))
            .with("shared_writes", Json::U64(self.shared_writes))
            .with("sync_ops", Json::U64(self.sync_ops))
            .with("l2_misses", Json::U64(self.l2_misses))
            .with("traffic", traffic)
            .with(
                "invalidations",
                Json::obj()
                    .with("events", Json::U64(self.invalidations.events()))
                    .with("total", Json::U64(self.invalidations.weight()))
                    .with("mean", Json::F64(self.invalidations.mean()))
                    .with("max", Json::U64(self.invalidations.max_value() as u64)),
            )
            .with("network", network)
            .with("protocol", protocol)
            .with("faults", faults)
            .with("anatomy", anatomy)
            .with("lock_grants", Json::U64(self.lock_metrics.0))
            .with("lock_retries", Json::U64(self.lock_metrics.1))
            .with("max_home_queue", Json::U64(self.queue_metrics.0 as u64))
            .with("queued_requests", Json::U64(self.queue_metrics.1))
            .with("live_dir_entries", Json::U64(self.live_dir_entries as u64))
            .with("versions_assigned", Json::U64(self.versions_assigned));
        if let Some(s) = &self.sparse {
            j.set(
                "sparse",
                Json::obj()
                    .with("hits", Json::U64(s.hits))
                    .with("misses", Json::U64(s.misses))
                    .with("fills", Json::U64(s.fills))
                    .with("replacements", Json::U64(s.replacements)),
            );
        }
        if let Some(o) = &self.overflow {
            j.set(
                "overflow",
                Json::obj()
                    .with("promotions", Json::U64(o.promotions))
                    .with("demotions", Json::U64(o.demotions))
                    .with("displacements", Json::U64(o.displacements))
                    .with("fallback_evictions", Json::U64(o.fallback_evictions)),
            );
        }
        if let Some(t) = &self.tardis {
            j.set(
                "tardis",
                Json::obj()
                    .with("lease_fills", Json::U64(t.lease_fills))
                    .with("renewals", Json::U64(t.renewals))
                    .with("renew_refetches", Json::U64(t.renew_refetches))
                    .with("write_throughs", Json::U64(t.write_throughs)),
            );
        }
        if let Some(d) = &self.dls {
            j.set(
                "dls",
                Json::obj()
                    .with("llc_fills", Json::U64(d.llc_fills))
                    .with("llc_writes", Json::U64(d.llc_writes)),
            );
        }
        j
    }

    /// The full `scd-run-stats/v1` document: schema tag, the core stats,
    /// the metrics registry (or `null` when metrics were off), the
    /// traffic attribution section (or `null` when attribution was off;
    /// see `Machine::attribution_json`), and the trace bookkeeping
    /// section (or `null` when tracing was off; see
    /// `Machine::trace_json` — its `dropped_events` counter is how ring
    /// eviction surfaces in exported documents), and the directory
    /// observatory section (or `null` when the patterns flag was off;
    /// see `PatternTable::section_json`). `meta` fields (app, scheme,
    /// seed, ...) are prepended under `run` when provided, so harnesses
    /// can label their outputs.
    pub fn to_json_document(
        &self,
        run: Option<Json>,
        metrics: Option<&MetricsRegistry>,
        attribution: Option<Json>,
        trace: Option<Json>,
        patterns: Option<Json>,
    ) -> Json {
        let mut j = Json::obj().with("schema", Json::Str(scd_trace::RUN_STATS_SCHEMA.into()));
        if let Some(run) = run {
            j.set("run", run);
        }
        j.set("stats", self.to_json());
        j.set(
            "metrics",
            metrics.map(MetricsRegistry::to_json).unwrap_or(Json::Null),
        );
        j.set("attribution", attribution.unwrap_or(Json::Null));
        j.set("trace", trace.unwrap_or(Json::Null));
        j.set("patterns", patterns.unwrap_or(Json::Null));
        j
    }
}
