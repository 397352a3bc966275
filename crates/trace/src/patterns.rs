//! The directory observatory: per-block sharing-pattern classification
//! and the measured invalidation distribution.
//!
//! The paper's scheme trade-offs (how many pointers, when to broadcast,
//! how coarse a vector) are really claims about *how applications share
//! blocks*. This module measures that directly: a [`PatternTable`]
//! consumes the trace event stream and classifies every block's
//! write/invalidation lifecycle into the Weber–Gupta taxonomy the paper
//! builds on — read-only, migratory, producer–consumer, mostly-read,
//! widely-shared — while accumulating the run's measured invalidation
//! distribution (the Figure-2 data, from real runs instead of
//! Monte-Carlo).
//!
//! The classifier is a *pure function of the `(cycle, seq)`-ordered
//! event stream*: feeding it a live machine's merged events or the lines
//! of a recorded `--trace-out` file (decoded by [`TraceEvent::parse`],
//! which refuses a line the validator would) produces byte-identical
//! `scd-patterns/v1` documents
//! (`tests/telemetry.rs::online_patterns_match_trace_replay_byte_for_byte`
//! holds the two paths equal). Its inputs are
//! `txn_begin` events (who touches a block, read or write) and `inval`
//! events (how many sharers each directory decision invalidated); every
//! other event type passes through unobserved.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{EventKind, Jsonl, TraceEvent};
use crate::json::Json;
use crate::replay::{run_lines, RunLine};
use crate::schema::PATTERNS_SCHEMA;

/// Blocks the table tracks individually before new blocks fall into the
/// aggregate `untracked_events` counter (first-come, deterministic in
/// stream order). 64k blocks ≈ 4 MB of tracking state, far beyond the
/// scaled kernels' working sets.
pub const DEFAULT_MAX_BLOCKS: usize = 1 << 16;

/// Per-block detail rows exported in the document (the busiest blocks by
/// coherence-transaction count; the classifier still classifies every
/// tracked block for the `classes` totals).
pub const TOP_BLOCKS: usize = 32;

/// Distinct reading clusters at or above which a single-writer block is
/// `widely_shared` rather than `producer_consumer` (LU's pivot column:
/// one producer, a machine-wide consumer set that overflows limited
/// pointers on every fill).
pub const WIDELY_SHARED_MIN_READERS: usize = 8;

/// Mean invalidation fan-out at or above which a write-heavy
/// multi-writer block is `widely_shared`: large measured fan-outs are
/// exactly the regime where limited-pointer schemes degrade.
pub const WIDELY_SHARED_MIN_MEAN_INVAL: f64 = 4.0;

/// Coherence reads per write at or above which a multi-writer block is
/// `mostly_read` (LocusRoute's cost array: many readers between
/// occasional updates, each update invalidating whoever accumulated).
pub const MOSTLY_READ_MIN_READ_RATIO: f64 = 2.0;

/// Mean invalidation fan-out at or below which a multi-writer,
/// write-heavy block is `migratory` (MP3D's space cells: each write
/// invalidates at most the previous owner).
pub const MIGRATORY_MAX_MEAN_INVAL: f64 = 1.5;

/// The Weber–Gupta sharing classes (plus `private` for blocks only one
/// cluster ever touched).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternClass {
    /// Touched by a single cluster: no coherence behaviour to classify.
    Private,
    /// Never written during the observed window.
    ReadOnly,
    /// Written while many clusters hold it: large invalidation fan-outs.
    WidelyShared,
    /// Read-dominated with occasional multi-writer updates.
    MostlyRead,
    /// One writer, a stable set of consumers.
    ProducerConsumer,
    /// Ownership hops cluster to cluster; each write invalidates at most
    /// the previous holder.
    Migratory,
}

/// Every class in the stable output order of the `classes` object.
pub const PATTERN_CLASSES: [PatternClass; 6] = [
    PatternClass::ReadOnly,
    PatternClass::Migratory,
    PatternClass::ProducerConsumer,
    PatternClass::MostlyRead,
    PatternClass::WidelyShared,
    PatternClass::Private,
];

impl PatternClass {
    /// Stable schema name.
    pub fn label(self) -> &'static str {
        match self {
            PatternClass::Private => "private",
            PatternClass::ReadOnly => "read_only",
            PatternClass::WidelyShared => "widely_shared",
            PatternClass::MostlyRead => "mostly_read",
            PatternClass::ProducerConsumer => "producer_consumer",
            PatternClass::Migratory => "migratory",
        }
    }
}

/// One tracked block's accumulated lifecycle.
#[derive(Clone, Debug, Default)]
struct BlockTrack {
    reads: u64,
    writes: u64,
    readers: BTreeSet<u32>,
    writers: BTreeSet<u32>,
    inval_events: u64,
    inval_total: u64,
    inval_max: u64,
}

impl BlockTrack {
    fn mean_inval(&self) -> f64 {
        if self.inval_events == 0 {
            0.0
        } else {
            self.inval_total as f64 / self.inval_events as f64
        }
    }

    /// The classifier decision tree. Precedence matters: a single-writer
    /// block with a machine-wide consumer set is `widely_shared` (LU's
    /// pivot column stresses limited pointers exactly like a multi-writer
    /// hot block would), and `mostly_read` outranks fan-out-driven
    /// `widely_shared` because Weber–Gupta's mostly-read class *is*
    /// "rare writes, each invalidating many accumulated readers"
    /// (LocusRoute's cost array).
    fn classify(&self) -> PatternClass {
        let participants = self.readers.union(&self.writers).count();
        if participants <= 1 {
            return PatternClass::Private;
        }
        if self.writes == 0 {
            return PatternClass::ReadOnly;
        }
        if self.writers.len() == 1 {
            return if self.readers.len() >= WIDELY_SHARED_MIN_READERS {
                PatternClass::WidelyShared
            } else {
                PatternClass::ProducerConsumer
            };
        }
        if self.reads as f64 / self.writes as f64 >= MOSTLY_READ_MIN_READ_RATIO {
            return PatternClass::MostlyRead;
        }
        if self.mean_inval() >= WIDELY_SHARED_MIN_MEAN_INVAL {
            return PatternClass::WidelyShared;
        }
        if self.mean_inval() <= MIGRATORY_MAX_MEAN_INVAL {
            return PatternClass::Migratory;
        }
        // Multi-writer, write-heavy, mid-size fan-outs: closer to
        // widely-shared than to anything else in the taxonomy.
        PatternClass::WidelyShared
    }

    fn to_json(&self, block: u64) -> Json {
        Json::obj()
            .with("block", Json::U64(block))
            .with("class", Json::Str(self.classify().label().into()))
            .with("reads", Json::U64(self.reads))
            .with("writes", Json::U64(self.writes))
            .with("readers", Json::U64(self.readers.len() as u64))
            .with("writers", Json::U64(self.writers.len() as u64))
            .with(
                "invals",
                Json::obj()
                    .with("events", Json::U64(self.inval_events))
                    .with("total", Json::U64(self.inval_total))
                    .with("mean", Json::F64(self.mean_inval()))
                    .with("max", Json::U64(self.inval_max)),
            )
    }
}

/// The bounded, online sharing-pattern table.
#[derive(Clone, Debug)]
pub struct PatternTable {
    max_blocks: usize,
    blocks: BTreeMap<u64, BlockTrack>,
    /// Observations that fell outside the bounded table.
    untracked_events: u64,
    /// Events observed (all types, including pass-throughs).
    events: u64,
    inval_events: u64,
    inval_total: u64,
    inval_max: u64,
    /// `inval_dist[n]` = decisions that sent exactly `n` invalidations.
    inval_dist: Vec<u64>,
    inval_by_cause: BTreeMap<&'static str, u64>,
}

impl Default for PatternTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PatternTable {
    /// A table tracking up to [`DEFAULT_MAX_BLOCKS`] blocks.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_BLOCKS)
    }

    /// A table tracking up to `max_blocks` blocks individually; later
    /// blocks only feed the aggregate counters.
    pub fn with_capacity(max_blocks: usize) -> Self {
        PatternTable {
            max_blocks,
            blocks: BTreeMap::new(),
            untracked_events: 0,
            events: 0,
            inval_events: 0,
            inval_total: 0,
            inval_max: 0,
            inval_dist: Vec::new(),
            inval_by_cause: BTreeMap::new(),
        }
    }

    fn track(&mut self, block: u64) -> Option<&mut BlockTrack> {
        if !self.blocks.contains_key(&block) && self.blocks.len() >= self.max_blocks {
            return None;
        }
        Some(self.blocks.entry(block).or_default())
    }

    fn note_begin(&mut self, block: u64, cluster: u32, write: bool) {
        let Some(track) = self.track(block) else {
            self.untracked_events += 1;
            return;
        };
        if write {
            track.writes += 1;
            track.writers.insert(cluster);
        } else {
            track.reads += 1;
            track.readers.insert(cluster);
        }
    }

    fn note_inval(&mut self, block: u64, targets: u64, cause: &'static str) {
        self.inval_events += 1;
        self.inval_total += targets;
        self.inval_max = self.inval_max.max(targets);
        let idx = targets as usize;
        if self.inval_dist.len() <= idx {
            self.inval_dist.resize(idx + 1, 0);
        }
        self.inval_dist[idx] += 1;
        *self.inval_by_cause.entry(cause).or_insert(0) += 1;
        match self.track(block) {
            Some(track) => {
                track.inval_events += 1;
                track.inval_total += targets;
                track.inval_max = track.inval_max.max(targets);
            }
            None => self.untracked_events += 1,
        }
    }

    /// Observes one typed trace event in stream order — the entry point
    /// for a live machine's events. Only `txn_begin` and `inval` feed the
    /// table; every other kind passes through counted.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev.kind {
            EventKind::TxnBegin { block, write, .. } => self.note_begin(block, ev.cluster, write),
            EventKind::Inval {
                block,
                targets,
                cause,
            } => self.note_inval(block, targets as u64, cause),
            _ => {}
        }
    }

    /// Observes an event through its line view ([`TraceEvent::to_json`]),
    /// as [`PatternTable::observe`] does. Kept only for
    /// `benchmark/src/probes.rs` (ROADMAP.md 1(a)).
    pub fn observe_event(&mut self, ev: &Jsonl<'_>) {
        self.observe(ev.0);
    }

    /// Builds a table from a recorded run, a `--trace-out` trace or a
    /// single-run `--stream-out` stream: each event [`run_lines`] decodes is
    /// [`PatternTable::observe`]d. A line it refuses is an error naming it.
    pub fn from_trace(text: &str) -> Result<Self, String> {
        let mut table = PatternTable::new();
        for line in run_lines(text) {
            if let (_, RunLine::Event(ev)) = line? {
                table.observe(&ev);
            }
        }
        Ok(table)
    }

    /// Events observed so far (all types).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Blocks tracked individually.
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Tracked blocks per class, in [`PATTERN_CLASSES`] order.
    pub fn class_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: BTreeMap<PatternClass, u64> = BTreeMap::new();
        for track in self.blocks.values() {
            *counts.entry(track.classify()).or_insert(0) += 1;
        }
        PATTERN_CLASSES
            .iter()
            .map(|c| (c.label(), counts.get(c).copied().unwrap_or(0)))
            .collect()
    }

    /// The measured invalidation distribution: `dist[n]` = directory
    /// decisions that sent exactly `n` invalidations.
    pub fn inval_dist(&self) -> &[u64] {
        &self.inval_dist
    }

    /// Mean invalidations per recorded decision.
    pub fn inval_mean(&self) -> f64 {
        if self.inval_events == 0 {
            0.0
        } else {
            self.inval_total as f64 / self.inval_events as f64
        }
    }

    /// The classifier section: totals, per-class counts, and the
    /// busiest-block detail rows (ties broken by block id, so the output
    /// is deterministic for a given stream).
    fn classifier_json(&self) -> Json {
        let mut classes = Json::obj();
        for (label, count) in self.class_counts() {
            classes.set(label, Json::U64(count));
        }
        let mut busiest: Vec<(&u64, &BlockTrack)> = self.blocks.iter().collect();
        busiest.sort_by_key(|(block, t)| (std::cmp::Reverse(t.reads + t.writes), **block));
        let rows = busiest
            .into_iter()
            .take(TOP_BLOCKS)
            .map(|(block, t)| t.to_json(*block))
            .collect();
        Json::obj()
            .with("events", Json::U64(self.events))
            .with("tracked_blocks", Json::U64(self.blocks.len() as u64))
            .with("untracked_events", Json::U64(self.untracked_events))
            .with("classes", classes)
            .with("blocks", Json::Arr(rows))
    }

    fn invalidations_json(&self) -> Json {
        let mut by_cause = Json::obj();
        for (cause, count) in &self.inval_by_cause {
            by_cause.set(*cause, Json::U64(*count));
        }
        Json::obj()
            .with("events", Json::U64(self.inval_events))
            .with("total", Json::U64(self.inval_total))
            .with("mean", Json::F64(self.inval_mean()))
            .with("max", Json::U64(self.inval_max))
            .with(
                "dist",
                Json::Arr(self.inval_dist.iter().map(|&n| Json::U64(n)).collect()),
            )
            .with("by_cause", by_cause)
    }

    /// The `patterns` section embedded in `scd-run-stats/v1` documents:
    /// thresholds, classifier, and invalidation distribution (no schema
    /// tag, no occupancy — those belong to the standalone document).
    pub fn section_json(&self) -> Json {
        Json::obj()
            .with("thresholds", thresholds_json())
            .with("classifier", self.classifier_json())
            .with("invalidations", self.invalidations_json())
    }

    /// The full `scd-patterns/v1` document. `run` labels the document
    /// (same object as the stats document's `run`); `occupancy` is the
    /// machine-side directory telemetry (`Machine::occupancy_json`) and
    /// is `null` for trace-replay tables, which cannot see live
    /// directory state.
    pub fn document(&self, run: Option<Json>, occupancy: Option<Json>) -> Json {
        let mut j = Json::obj().with("schema", Json::Str(PATTERNS_SCHEMA.into()));
        j.set("run", run.unwrap_or(Json::Null));
        j.set("thresholds", thresholds_json());
        j.set("classifier", self.classifier_json());
        j.set("invalidations", self.invalidations_json());
        j.set("occupancy", occupancy.unwrap_or(Json::Null));
        j
    }
}

/// The classifier thresholds, echoed into every document so a reader can
/// tell which decision boundaries produced the classes.
pub fn thresholds_json() -> Json {
    Json::obj()
        .with(
            "widely_shared_min_readers",
            Json::U64(WIDELY_SHARED_MIN_READERS as u64),
        )
        .with(
            "widely_shared_min_mean_inval",
            Json::F64(WIDELY_SHARED_MIN_MEAN_INVAL),
        )
        .with(
            "mostly_read_min_read_ratio",
            Json::F64(MOSTLY_READ_MIN_READ_RATIO),
        )
        .with(
            "migratory_max_mean_inval",
            Json::F64(MIGRATORY_MAX_MEAN_INVAL),
        )
}

pub(crate) fn req_u64(obj: &Json, path: &str, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}.{key} missing or not an integer"))
}

/// Validates the classifier + invalidation body shared by the standalone
/// document and the stats-document `patterns` section: class counts sum
/// to the tracked blocks, the distribution sums to its event/total
/// counters, and the occupancy section (when present) is internally
/// consistent.
pub fn validate_patterns_section(j: &Json) -> Result<(), String> {
    let classifier = j.get("classifier").ok_or("missing `classifier`")?;
    let tracked = req_u64(classifier, "classifier", "tracked_blocks")?;
    req_u64(classifier, "classifier", "events")?;
    req_u64(classifier, "classifier", "untracked_events")?;
    let classes = classifier
        .get("classes")
        .ok_or("classifier.classes missing")?;
    let mut class_sum = 0u64;
    for class in PATTERN_CLASSES {
        class_sum += req_u64(classes, "classifier.classes", class.label())?;
    }
    if class_sum != tracked {
        return Err(format!(
            "classifier.classes sums to {class_sum} but {tracked} blocks are tracked"
        ));
    }
    let blocks = classifier
        .get("blocks")
        .and_then(Json::as_arr)
        .ok_or("classifier.blocks missing or not an array")?;
    if blocks.len() as u64 > tracked {
        return Err(format!(
            "classifier.blocks lists {} rows for {tracked} tracked blocks",
            blocks.len()
        ));
    }
    let labels: Vec<&str> = PATTERN_CLASSES.iter().map(|c| c.label()).collect();
    for row in blocks {
        let class = row
            .get("class")
            .and_then(Json::as_str)
            .ok_or("classifier.blocks[].class missing")?;
        if !labels.contains(&class) {
            return Err(format!("unknown pattern class `{class}`"));
        }
        req_u64(row, "classifier.blocks[]", "block")?;
    }

    let invals = j.get("invalidations").ok_or("missing `invalidations`")?;
    let events = req_u64(invals, "invalidations", "events")?;
    let total = req_u64(invals, "invalidations", "total")?;
    let max = req_u64(invals, "invalidations", "max")?;
    let dist = invals
        .get("dist")
        .and_then(Json::as_arr)
        .ok_or("invalidations.dist missing or not an array")?;
    let mut dist_events = 0u64;
    let mut dist_total = 0u64;
    for (n, count) in dist.iter().enumerate() {
        let count = count
            .as_u64()
            .ok_or_else(|| format!("invalidations.dist[{n}] not an integer"))?;
        dist_events += count;
        dist_total += n as u64 * count;
    }
    if dist_events != events || dist_total != total {
        return Err(format!(
            "invalidations.dist sums to {dist_events} events / {dist_total} sent, \
             but the counters say {events} / {total}"
        ));
    }
    if events > 0 && dist.len() as u64 != max + 1 {
        return Err(format!(
            "invalidations.dist has {} bins but max is {max}",
            dist.len()
        ));
    }

    if let Some(occ) = j.get("occupancy") {
        if *occ != Json::Null {
            validate_occupancy(occ)?;
        }
    }
    Ok(())
}

fn validate_occupancy(occ: &Json) -> Result<(), String> {
    req_u64(occ, "occupancy", "samples")?;
    occ.get("sharers")
        .and_then(Json::as_arr)
        .ok_or("occupancy.sharers missing or not an array")?;
    let fanout = occ.get("fanout").ok_or("occupancy.fanout missing")?;
    let events = req_u64(fanout, "occupancy.fanout", "events")?;
    let precise = req_u64(fanout, "occupancy.fanout", "precise")?;
    req_u64(fanout, "occupancy.fanout", "broadcast")?;
    let targets = req_u64(fanout, "occupancy.fanout", "targets")?;
    let present = req_u64(fanout, "occupancy.fanout", "present")?;
    if precise > events {
        return Err(format!(
            "occupancy.fanout.precise {precise} > events {events}"
        ));
    }
    if present > targets {
        return Err(format!(
            "occupancy.fanout.present {present} > targets {targets}"
        ));
    }
    if let Some(churn) = occ.get("churn") {
        if *churn != Json::Null {
            let replacements = req_u64(churn, "occupancy.churn", "replacements")?;
            let rerefs = req_u64(churn, "occupancy.churn", "rerefs")?;
            if rerefs > replacements {
                return Err(format!(
                    "occupancy.churn.rerefs {rerefs} > replacements {replacements}"
                ));
            }
        }
    }
    Ok(())
}

/// Validates a standalone `scd-patterns/v1` document.
pub fn validate_patterns_json(text: &str) -> Result<(), String> {
    let j = Json::parse(text)?;
    let schema = j
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != PATTERNS_SCHEMA {
        return Err(format!("unexpected schema `{schema}`"));
    }
    validate_patterns_section(&j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(seq: u64, cluster: u32, block: u64, write: bool) -> TraceEvent {
        TraceEvent {
            seq,
            cycle: seq * 10,
            cluster,
            kind: EventKind::TxnBegin {
                txn: seq,
                block,
                write,
            },
        }
    }

    fn inval(seq: u64, block: u64, targets: u32) -> TraceEvent {
        TraceEvent {
            seq,
            cycle: seq * 10,
            cluster: 0,
            kind: EventKind::Inval {
                block,
                targets,
                cause: crate::event::cause::WRITE,
            },
        }
    }

    fn classify_stream(events: &[TraceEvent]) -> PatternClass {
        let mut t = PatternTable::new();
        for ev in events {
            t.observe(ev);
        }
        assert_eq!(t.tracked_blocks(), 1);
        t.blocks.values().next().unwrap().classify()
    }

    #[test]
    fn classifies_the_taxonomy() {
        // Never written, several readers.
        assert_eq!(
            classify_stream(&[begin(1, 0, 8, false), begin(2, 1, 8, false)]),
            PatternClass::ReadOnly
        );
        // Only one cluster ever touches it.
        assert_eq!(
            classify_stream(&[begin(1, 3, 8, false), begin(2, 3, 8, true)]),
            PatternClass::Private
        );
        // Ownership hops: writes from many clusters, fan-out ≤ 1.
        assert_eq!(
            classify_stream(&[
                begin(1, 0, 8, true),
                begin(2, 1, 8, true),
                inval(3, 8, 1),
                begin(4, 2, 8, true),
                inval(5, 8, 1),
            ]),
            PatternClass::Migratory
        );
        // One writer, small consumer set, small fan-outs.
        assert_eq!(
            classify_stream(&[
                begin(1, 0, 8, true),
                begin(2, 1, 8, false),
                begin(3, 2, 8, false),
                begin(4, 0, 8, true),
                inval(5, 8, 2),
            ]),
            PatternClass::ProducerConsumer
        );
        // Read-dominated, multiple writers, modest fan-outs.
        assert_eq!(
            classify_stream(&[
                begin(1, 0, 8, true),
                begin(2, 1, 8, true),
                inval(3, 8, 2),
                begin(4, 0, 8, false),
                begin(5, 1, 8, false),
                begin(6, 2, 8, false),
                begin(7, 3, 8, false),
                begin(8, 4, 8, false),
                begin(9, 5, 8, false),
                begin(10, 6, 8, false),
                begin(11, 7, 8, false),
            ]),
            PatternClass::MostlyRead
        );
        // A single writer with a machine-wide consumer set is widely
        // shared (LU pivot), not producer-consumer: the sharer set is
        // what overflows limited pointers.
        let mut pivot: Vec<TraceEvent> = vec![begin(1, 0, 8, true)];
        for r in 0..WIDELY_SHARED_MIN_READERS as u32 {
            pivot.push(begin(2 + r as u64, r + 1, 8, false));
        }
        assert_eq!(classify_stream(&pivot), PatternClass::WidelyShared);
        // Write-heavy multi-writer block with large measured fan-outs.
        assert_eq!(
            classify_stream(&[
                begin(1, 1, 8, true),
                begin(2, 2, 8, true),
                inval(3, 8, 6),
                begin(4, 0, 8, true),
                inval(5, 8, 5),
            ]),
            PatternClass::WidelyShared
        );
    }

    #[test]
    fn distribution_and_document_are_consistent() {
        let mut t = PatternTable::new();
        for ev in [
            begin(1, 0, 8, true),
            inval(2, 8, 0),
            begin(3, 1, 8, true),
            inval(4, 8, 1),
            begin(5, 2, 16, true),
            inval(6, 16, 3),
        ] {
            t.observe(&ev);
        }
        assert_eq!(t.inval_dist(), &[1, 1, 0, 1]);
        assert!((t.inval_mean() - 4.0 / 3.0).abs() < 1e-9);
        let doc = t.document(None, None).to_string();
        validate_patterns_json(&doc).expect("document validates");
    }

    #[test]
    fn bounded_table_counts_overflow_deterministically() {
        let mut t = PatternTable::with_capacity(1);
        t.observe(&begin(1, 0, 8, false));
        t.observe(&begin(2, 1, 99, false));
        t.observe(&inval(3, 99, 2));
        assert_eq!(t.tracked_blocks(), 1);
        // Both the txn_begin and the per-block half of the inval fell
        // outside the table; the aggregate distribution still counts it.
        let doc = t.document(None, None);
        let classifier = doc.get("classifier").unwrap();
        assert_eq!(
            classifier.get("untracked_events").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(t.inval_dist(), &[0, 0, 1]);
        validate_patterns_json(&doc.to_string()).expect("still validates");
    }

    #[test]
    fn online_equals_replay_byte_for_byte() {
        let events = [
            begin(1, 0, 8, true),
            inval(2, 8, 1),
            begin(3, 1, 8, false),
            begin(4, 2, 16, false),
        ];
        let mut online = PatternTable::new();
        let mut text = Vec::new();
        for ev in &events {
            online.observe(ev);
            ev.write_jsonl(&mut text);
            text.push(b'\n');
        }
        let text = String::from_utf8(text).expect("the line writer emits UTF-8");
        let replay = PatternTable::from_trace(&text).expect("replay parses");
        assert_eq!(
            online.document(None, None).to_string(),
            replay.document(None, None).to_string()
        );
    }

    /// The line-view adapter observes what `observe` does: an event off the
    /// decoder's vocabulary passes through counted, a `txn_begin` is read.
    #[test]
    fn the_line_view_adapter_observes_as_observe_does() {
        let probe = TraceEvent {
            seq: 1,
            cycle: 3,
            cluster: 0,
            kind: EventKind::MsgSend {
                src: 0,
                dst: 1,
                msg: "ReadReq",
                class: "request",
                block: Some(8),
                hops: 2,
            },
        };
        let mut t = PatternTable::new();
        t.observe_event(&probe.to_json());
        t.observe_event(&begin(2, 1, 8, true).to_json());
        assert_eq!((t.events(), t.tracked_blocks()), (2, 1));
    }

    #[test]
    fn validation_rejects_inconsistent_documents() {
        let t = PatternTable::new();
        let good = t.document(None, None);
        let mut bad = good.clone();
        bad.set("schema", Json::Str("scd-other/v1".into()));
        assert!(validate_patterns_json(&bad.to_string()).is_err());
        let mut bad = good.clone();
        if let Some(inv) = bad.get("invalidations") {
            let mut inv = inv.clone();
            inv.set("events", Json::U64(7));
            bad.set("invalidations", inv);
        }
        let err = validate_patterns_json(&bad.to_string()).unwrap_err();
        assert!(err.contains("dist sums"), "{err}");
    }
}
