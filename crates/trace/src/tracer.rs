//! The recording side: configuration and per-cluster bounded ring buffers.
//!
//! Follows the `FaultPlan` pattern from `scd-noc`: a [`TraceConfig`] is
//! pure configuration, inert by default, and a machine built without one
//! (or with an inactive one) must behave bit-identically to a build
//! without trace hooks. The embedder resolves [`TraceConfig::is_active`]
//! once into the flag its hook sites test — `scd-machine`'s telemetry
//! recorder does, and builds a [`Tracer::inert`] when it is false.

use scd_sim::RingLog;

use crate::event::{EventKind, TraceEvent};

/// What to record, and how much history to keep. The default records
/// nothing (all fields zero/false).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events retained per cluster (bounded ring). 0 records nothing.
    pub ring_capacity: usize,
    /// Record per-message send/deliver events (high volume; the
    /// transaction lifecycle events are always recorded when tracing is
    /// on).
    pub messages: bool,
    /// Collect the metrics registry (phase-latency histograms).
    pub metrics: bool,
    /// Interval time-series snapshot period in cycles. 0 disables
    /// snapshots.
    pub interval: u64,
    /// Collect per-class byte/flit traffic attribution and per-link
    /// occupancy counters (the `scd-attrib/v1` document section).
    pub attribution: bool,
    /// Run the directory observatory: `inval` trace events, interval
    /// sharer-distribution samples, fan-out precision/waste counters,
    /// and sparse-directory churn tracking (the `scd-patterns/v1`
    /// document).
    pub patterns: bool,
}

impl TraceConfig {
    /// A configuration recording nothing (identical to running without
    /// one).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any recording is enabled.
    pub fn is_active(&self) -> bool {
        self.ring_capacity > 0
            || self.metrics
            || self.interval > 0
            || self.attribution
            || self.patterns
    }

    /// Standard tracing: transaction lifecycle + messages into rings of
    /// `capacity` events per cluster, with the metrics registry and
    /// traffic attribution on.
    pub fn full(capacity: usize) -> Self {
        TraceConfig {
            ring_capacity: capacity,
            messages: true,
            metrics: true,
            interval: 0,
            attribution: true,
            patterns: false,
        }
    }

    /// Lifecycle-only tracing (no per-message events): much lower volume,
    /// still enough to reconstruct transaction histories.
    pub fn lifecycle(capacity: usize) -> Self {
        TraceConfig {
            ring_capacity: capacity,
            messages: false,
            metrics: true,
            interval: 0,
            attribution: false,
            patterns: false,
        }
    }

    /// Builder: set the interval-snapshot period.
    pub fn with_interval(mut self, cycles: u64) -> Self {
        self.interval = cycles;
        self
    }

    /// Builder: toggle traffic/occupancy attribution.
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Builder: toggle the directory observatory (sharing-pattern
    /// classifier events + occupancy telemetry).
    pub fn with_patterns(mut self, on: bool) -> Self {
        self.patterns = on;
        self
    }
}

/// Per-cluster bounded event recorder.
///
/// Each cluster owns a [`RingLog`] so a hot home cannot evict the history
/// of a quiet requester. Events carry a **per-cluster** sequence number at
/// record time; [`Tracer::merged`] re-establishes the global canonical
/// order `(cycle, cluster, per-cluster seq)` and renumbers `seq` to the
/// event's position in that order. Within one cluster the per-cluster seq
/// is the recording order (a valid causal order: the simulator records
/// effects after causes within a cycle); across clusters the cluster index
/// breaks same-cycle ties. The canonical order is a pure function of each
/// cluster's local history.
#[derive(Debug)]
pub struct Tracer {
    rings: Vec<RingLog<TraceEvent>>,
    /// Per-cluster recording counters (the `seq` stamped into events).
    lane_seq: Vec<u64>,
    /// Total events recorded across all clusters.
    recorded: u64,
    dropped: u64,
    messages: bool,
    /// Whether the streaming tap is armed.
    mirroring: bool,
    /// The streaming tap: while armed, every recorded event is also
    /// appended here (eviction-proof) for the machine's stream pump to
    /// drain.
    mirror: Vec<TraceEvent>,
}

/// Cloning resets the mirror: a cloned machine (exploration branching)
/// must not stream, and an undrained mirror would grow without bound.
/// Ring history, counters, and config are preserved.
impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            rings: self.rings.clone(),
            lane_seq: self.lane_seq.clone(),
            recorded: self.recorded,
            dropped: self.dropped,
            messages: self.messages,
            mirroring: false,
            mirror: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer over `clusters` ring buffers of `cfg.ring_capacity` each.
    pub fn new(clusters: usize, cfg: &TraceConfig) -> Self {
        Tracer {
            rings: (0..clusters)
                .map(|_| RingLog::new(cfg.ring_capacity))
                .collect(),
            lane_seq: vec![0; clusters],
            recorded: 0,
            dropped: 0,
            messages: cfg.messages,
            mirroring: false,
            mirror: Vec::new(),
        }
    }

    /// An inert tracer (capacity 0 everywhere); records nothing.
    pub fn inert() -> Self {
        Tracer {
            rings: Vec::new(),
            lane_seq: Vec::new(),
            recorded: 0,
            dropped: 0,
            messages: false,
            mirroring: false,
            mirror: Vec::new(),
        }
    }

    /// Arms (or disarms) the streaming mirror. While armed, every
    /// recorded event is also buffered for [`Tracer::drain_mirror`] —
    /// including events a full ring will evict, so a stream never loses
    /// what the rings lost.
    pub fn set_mirror(&mut self, on: bool) {
        self.mirroring = on;
        self.mirror = Vec::new();
    }

    /// Drains the mirrored events recorded since the last call (empty
    /// when the mirror is disarmed). The buffer keeps its capacity, so a
    /// pump that drains every event-loop iteration never re-allocates it.
    pub fn drain_mirror(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.mirror.drain(..)
    }

    /// Whether per-message events should be recorded.
    pub fn messages_enabled(&self) -> bool {
        self.messages
    }

    /// Records one event attributed to `cluster`. The event's `seq` is the
    /// cluster's local recording counter; [`Tracer::merged`] (or a stream
    /// emitter) renumbers it to the global canonical position.
    ///
    /// An event nobody will read — a ring of capacity 0 and no armed
    /// mirror — is not built, numbered or counted.
    pub fn record(&mut self, cluster: usize, cycle: u64, kind: EventKind) {
        let Some(ring) = self.rings.get_mut(cluster) else {
            return;
        };
        let retained = ring.capacity() > 0;
        if !retained && !self.mirroring {
            return;
        }
        self.lane_seq[cluster] += 1;
        self.recorded += 1;
        if retained && ring.len() == ring.capacity() {
            self.dropped += 1;
        }
        let ev = TraceEvent {
            seq: self.lane_seq[cluster],
            cycle,
            cluster: cluster as u32,
            kind,
        };
        if self.mirroring {
            self.mirror.push(ev.clone());
        }
        ring.push(ev);
    }

    /// Events recorded since the run began: retained in a ring (including
    /// any since evicted from it) or handed to an armed mirror.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from full rings (lost history).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The last `k` events of one cluster, oldest first.
    pub fn tail(&self, cluster: usize, k: usize) -> Vec<TraceEvent> {
        let Some(ring) = self.rings.get(cluster) else {
            return Vec::new();
        };
        ring.iter()
            .skip(ring.len().saturating_sub(k))
            .cloned()
            .collect()
    }

    /// All retained events merged into one global, canonically ordered
    /// history — `(cycle, cluster, per-cluster seq)` — with each event's
    /// `seq` renumbered to its 1-based position in that order.
    ///
    /// The result is allocated once at its exact length, and sorted in
    /// place: `(cycle, cluster, seq)` is unique (a cluster's `seq` counts
    /// its own events), so an unstable sort gives the stable order without
    /// a scratch buffer the size of the history.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all = Vec::with_capacity(self.rings.iter().map(|r| r.len()).sum());
        for r in &self.rings {
            all.extend(r.iter().cloned());
        }
        all.sort_unstable_by_key(|e| (e.cycle, e.cluster, e.seq));
        for (i, e) in all.iter_mut().enumerate() {
            e.seq = i as u64 + 1;
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn phase(txn: u64) -> EventKind {
        EventKind::TxnPhase {
            txn,
            block: 0,
            phase: Phase::HomeLookup,
        }
    }

    #[test]
    fn default_config_is_inert() {
        assert!(!TraceConfig::default().is_active());
        assert!(!TraceConfig::none().is_active());
        assert!(TraceConfig::full(16).is_active());
        assert!(TraceConfig::none().with_interval(100).is_active());
        assert!(TraceConfig::none().with_attribution(true).is_active());
        assert!(TraceConfig::none().with_patterns(true).is_active());
        assert!(TraceConfig::full(16).attribution);
        assert!(!TraceConfig::lifecycle(16).attribution);
        assert!(!TraceConfig::full(16).patterns, "observatory is opt-in");
    }

    #[test]
    fn merge_orders_by_cycle_then_cluster_and_renumbers() {
        let mut t = Tracer::new(2, &TraceConfig::full(8));
        t.record(1, 50, phase(1));
        t.record(0, 10, phase(2));
        t.record(0, 50, phase(3));
        let merged = t.merged();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].cycle, 10);
        // Same cycle: the lower cluster index wins, regardless of which
        // cluster recorded first.
        assert_eq!(merged[1].kind, phase(3));
        assert_eq!(merged[2].kind, phase(1));
        assert!(merged.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Seq is renumbered to the 1-based canonical position.
        assert_eq!(
            merged.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn rings_bound_history_per_cluster() {
        let mut t = Tracer::new(2, &TraceConfig::full(2));
        for i in 0..5 {
            t.record(0, i, phase(i));
        }
        t.record(1, 0, phase(99));
        // Cluster 0 overflowed but cluster 1's history survives.
        assert_eq!(t.merged().len(), 3);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.recorded(), 6);
        let tail = t.tail(0, 8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].cycle, 3, "oldest retained after eviction");
    }

    #[test]
    fn tail_takes_most_recent_k() {
        let mut t = Tracer::new(1, &TraceConfig::full(8));
        for i in 0..6 {
            t.record(0, i, phase(i));
        }
        let tail = t.tail(0, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].cycle, 4);
        assert_eq!(tail[1].cycle, 5);
    }

    #[test]
    fn mirror_survives_eviction_and_is_disarmed_by_clone() {
        let mut t = Tracer::new(1, &TraceConfig::full(2));
        t.set_mirror(true);
        for i in 0..5 {
            t.record(0, i, phase(i));
        }
        assert_eq!(t.drain_mirror().count(), 5, "mirror outlives the ring");
        assert_eq!(t.drain_mirror().count(), 0, "draining empties it");
        t.record(0, 9, phase(9));
        let mut clone = t.clone();
        assert_eq!(clone.recorded(), t.recorded());
        assert_eq!(t.drain_mirror().count(), 1, "original keeps streaming");
        clone.record(0, 10, phase(10));
        assert_eq!(clone.drain_mirror().count(), 0, "a clone does not stream");
    }

    /// Rings of capacity 0 (an attribution- or interval-only run) retain
    /// nothing, so nothing is numbered or counted — until a mirror is
    /// armed, and then the stream gets every event.
    #[test]
    fn a_ring_that_holds_nothing_counts_nothing_unless_mirrored() {
        let mut t = Tracer::new(2, &TraceConfig::none().with_attribution(true));
        t.record(0, 1, phase(1));
        assert_eq!((t.recorded(), t.dropped()), (0, 0));
        t.set_mirror(true);
        t.record(0, 2, phase(2));
        t.record(1, 2, phase(3));
        assert_eq!((t.recorded(), t.dropped()), (2, 0));
        let seqs: Vec<u64> = t.drain_mirror().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 1], "numbering starts with the first event built");
        assert!(t.merged().is_empty());
    }

    #[test]
    fn inert_tracer_records_nothing() {
        let mut t = Tracer::inert();
        t.record(0, 1, phase(1));
        assert_eq!(t.recorded(), 0);
        assert!(t.merged().is_empty());
        assert!(t.tail(0, 4).is_empty());
    }
}
