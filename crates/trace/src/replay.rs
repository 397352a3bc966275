//! Replay and validation of recorded JSONL transaction logs.
//!
//! A trace written by `scdsim --trace-out` can be re-read here and checked
//! against the protocol's lifecycle invariants: global cycle ordering,
//! per-transaction phase ordering (no reply before the request, no phase
//! before the begin), and monotonically backed-off retries. Because the
//! recorder uses *bounded* rings, a transaction's early events may have
//! been evicted; validation therefore checks ordering over the events that
//! are present rather than demanding a complete lifecycle.

use std::collections::BTreeMap;

use crate::event::{record, EventKind, Phase, TraceEvent, EVENT_TYPES};
use crate::json::{records, Fields, Json};
use crate::metrics::IntervalSnapshot;
use crate::patterns::req_u64;

/// One line of a recorded run, as [`run_line`] reads it.
#[derive(Debug, PartialEq)]
pub enum RunLine {
    /// A trace event.
    Event(TraceEvent),
    /// The window of a stream's `interval` record.
    Interval(IntervalSnapshot),
}

/// One line of a recorded run — a `--trace-out` trace or a single-run
/// `--stream-out` stream: an event decoded by [`TraceEvent::parse`], an
/// `interval` window by [`IntervalSnapshot::parse`], `None` for the other
/// single-run records. Anything else is an error, with the decoder's text.
pub fn run_line(line: &str) -> Result<Option<RunLine>, String> {
    // Only a line the event decoder refuses is read again, so a pure
    // trace costs what decoding it costs.
    TraceEvent::parse(line).map(|ev| Some(RunLine::Event(ev))).or_else(|refusal| {
        let Ok(fields) = Fields::parse(line) else { return Err(refusal) };
        match fields.get("type").and_then(|v| v.as_str()) {
            Some(record::INTERVAL) => {
                let window = fields.get("window").ok_or("interval without `window`")?;
                IntervalSnapshot::parse(window.raw()).map(|w| Some(RunLine::Interval(w)))
            }
            Some(record::RUN_META | record::ATTRIB_DELTA | record::PATTERNS | record::RUN_END) => {
                Ok(None)
            }
            _ => Err(refusal),
        }
    })
}

/// The lines of a recorded run in order, numbered from 1, each read by
/// [`run_line`]: the one reader of `PatternTable::from_trace` and
/// `scd-telemetry spans`. An error cites its line.
pub fn run_lines(text: &str) -> impl Iterator<Item = Result<(usize, RunLine), String>> + '_ {
    records(text).filter_map(|(line_no, line)| {
        let read = run_line(line).map_err(|e| format!("line {line_no}: {e}")).transpose()?;
        Some(read.map(|l| (line_no, l)))
    })
}

/// Aggregate of one validated trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events parsed.
    pub events: u64,
    /// Distinct transactions observed (any lifecycle event).
    pub transactions: u64,
    /// Transactions with both a begin and an end in the trace.
    pub completed: u64,
    /// Event counts by `type` label.
    pub by_type: BTreeMap<String, u64>,
}

/// What the lifecycle rules need to remember of one transaction. Lines
/// arrive in cycle order, so once a begin has been seen no later phase or
/// end can precede it; only the order of *kinds* is left to check.
#[derive(Default)]
struct TxnCheck {
    begin: Option<u64>,
    ended: bool,
    any_phase: bool,
    fanout_seen: bool,
    last_attempt: u32,
    last_backoff: u64,
    end_retries: Option<u32>,
    retry_events: u64,
}

/// The seqs seen so far, held as the highest one plus the unseen gaps
/// below it. A recorder's seqs are dense and reach the file nearly
/// sorted (a future-stamped begin is a few lines late), so the gaps stay
/// few and short-lived where a set of every seq would grow with the trace.
#[derive(Default)]
struct SeqSet {
    max: Option<u64>,
    /// Unseen ranges below `max`: start -> end (exclusive).
    gaps: BTreeMap<u64, u64>,
}

impl SeqSet {
    /// Adds `seq`; `false` when it was already there.
    fn insert(&mut self, seq: u64) -> bool {
        match self.max {
            Some(max) if seq <= max => {
                let Some((&start, &end)) = self.gaps.range(..=seq).next_back() else {
                    return false;
                };
                if seq >= end {
                    return false;
                }
                if start < seq {
                    self.gaps.insert(start, seq);
                } else {
                    self.gaps.remove(&start);
                }
                if seq + 1 < end {
                    self.gaps.insert(seq + 1, end);
                }
            }
            _ => {
                let unseen_from = self.max.map_or(0, |max| max + 1);
                if unseen_from < seq {
                    self.gaps.insert(unseen_from, seq);
                }
                self.max = Some(seq);
            }
        }
        true
    }
}

/// The ordering and lifecycle rules as a state machine over decoded
/// events (keys, types and labels are [`TraceEvent::parse`]'s to check):
/// [`validate_trace`] feeds it a file, `validate_stream` the event lines
/// of a stream as it meets them. It keeps one [`TxnCheck`] per
/// transaction and a [`SeqSet`], nothing per line.
#[derive(Default)]
pub(crate) struct TraceCheck {
    /// Counts in [`EVENT_TYPES`] order.
    by_type: [u64; EVENT_TYPES.len()],
    /// `(cycle, seq)` of the previous line.
    last: Option<(u64, u64)>,
    seen_seqs: SeqSet,
    txns: BTreeMap<u64, TxnCheck>,
}

impl TraceCheck {
    /// Checks one event. An error names the broken rule; the caller
    /// prefixes the event's line, as it does a decoding error.
    pub(crate) fn event(&mut self, ev: &TraceEvent) -> Result<(), String> {
        let (seq, cycle) = (ev.seq, ev.cycle);
        // The merge orders lines by (cycle, seq). Global seq order alone is
        // NOT monotone: an event can be recorded early with a future cycle
        // stamp (e.g. a txn_begin stamped with its post-lookup issue cycle),
        // so it sorts after events recorded later at earlier cycles. Seqs
        // are still globally unique.
        if !self.seen_seqs.insert(seq) {
            return Err(format!("seq {seq} repeats"));
        }
        if let Some((prev, prev_seq)) = self.last {
            if cycle < prev {
                let why = "merge must be cycle-ordered";
                return Err(format!("cycle {cycle} runs backwards from {prev} ({why})"));
            }
            if cycle == prev && seq <= prev_seq {
                return Err(format!("seq {seq} not strictly after {prev_seq} within cycle {cycle}"));
            }
        }
        self.last = Some((cycle, seq));
        self.by_type[ev.kind.index()] += 1;

        // Directory-side and message events carry no per-txn obligations.
        let (EventKind::TxnBegin { txn, .. }
        | EventKind::TxnPhase { txn, .. }
        | EventKind::TxnEnd { txn, .. }
        | EventKind::Nack { txn, .. }
        | EventKind::Retry { txn, .. }) = ev.kind
        else {
            return Ok(());
        };
        let check = self.txns.entry(txn).or_default();
        match ev.kind {
            EventKind::TxnBegin { .. } => {
                if check.begin.is_some() {
                    return Err(format!("txn {txn} began twice"));
                }
                if check.any_phase || check.ended {
                    return Err(format!("txn {txn} has lifecycle events before its begin"));
                }
                check.begin = Some(cycle);
            }
            EventKind::TxnPhase { phase, .. } => {
                if check.ended {
                    return Err(format!("txn {txn} phase `{}` after its end", phase.label()));
                }
                if phase == Phase::HomeLookup && check.fanout_seen {
                    return Err(format!("txn {txn} home_lookup after fanout"));
                }
                check.any_phase = true;
                check.fanout_seen |= phase == Phase::Fanout;
            }
            EventKind::TxnEnd { latency, retries, .. } => {
                if check.ended {
                    return Err(format!("txn {txn} ended twice"));
                }
                if let Some(b) = check.begin.filter(|b| b.checked_add(latency) != Some(cycle)) {
                    let span = format!("begin {b} / end {cycle}");
                    return Err(format!("txn {txn} latency {latency} inconsistent with {span}"));
                }
                check.ended = true;
                check.end_retries = Some(retries);
            }
            EventKind::Retry { attempt, backoff, .. } => {
                let (last_attempt, last_backoff) = (check.last_attempt, check.last_backoff);
                if attempt <= last_attempt {
                    return Err(format!(
                        "txn {txn} retry attempt {attempt} not after attempt {last_attempt}"
                    ));
                }
                if backoff < last_backoff {
                    return Err(format!(
                        "txn {txn} backoff shrank ({last_backoff} -> {backoff}); \
                         retries must back off monotonically"
                    ));
                }
                check.last_attempt = attempt;
                check.last_backoff = backoff;
                check.retry_events += 1;
            }
            // NACKs carry no per-txn ordering obligations beyond the
            // global cycle order checked above.
            _ => {}
        }
        Ok(())
    }

    /// The end-of-trace checks, then the summary.
    pub(crate) fn finish(self) -> Result<TraceSummary, String> {
        for (txn, check) in &self.txns {
            let events = check.retry_events;
            if let Some(end) = check.end_retries.filter(|&end| u64::from(end) < events) {
                let recorded = format!("{events} retry events were recorded");
                return Err(format!("txn {txn}: end reports {end} retries but {recorded}"));
            }
        }
        Ok(TraceSummary {
            events: self.by_type.iter().sum(),
            transactions: self.txns.len() as u64,
            completed: self
                .txns
                .values()
                .filter(|c| c.begin.is_some() && c.ended)
                .count() as u64,
            by_type: EVENT_TYPES
                .iter()
                .zip(self.by_type)
                .filter(|(_, n)| *n > 0)
                .map(|(ty, n)| (ty.to_string(), n))
                .collect(),
        })
    }
}

/// Parses and validates a JSONL trace, returning its summary.
///
/// Checks, in order:
/// 1. every non-empty line is an event [`TraceEvent::parse`] accepts, its
///    fields in type and range and its labels in their vocabularies;
/// 2. lines arrive in `(cycle, seq)` lexicographic order — `cycle`
///    non-decreasing, `seq` strictly increasing within a cycle — and no
///    `seq` repeats anywhere (the global cycle-ordered merge; global seq
///    order alone is not monotone, because an event can be recorded early
///    carrying a future cycle stamp);
/// 3. per transaction: at most one `txn_begin`/`txn_end`; no phase or end
///    ahead of the begin, no phase after the end (with 2, no lifecycle
///    event at a cycle earlier than the begin either); phases in
///    `home_lookup` → `fanout` order; an end's `latency` spans begin to end;
/// 4. per transaction: retry `attempt`s strictly increasing with
///    non-decreasing `backoff` (exponential backoff never shrinks), and a
///    `txn_end.retries` no smaller than the retry events observed.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let mut check = TraceCheck::default();
    for (line_no, line) in records(text) {
        TraceEvent::parse(line)
            .and_then(|ev| check.event(&ev))
            .map_err(|e| format!("line {line_no}: {e}"))?;
    }
    check.finish()
}

/// Validates a `--stats-json` document: schema tag plus the required
/// top-level sections with their load-bearing fields.
pub fn validate_stats_json(text: &str) -> Result<(), String> {
    let j = Json::parse(text)?;
    let schema = j
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != crate::schema::RUN_STATS_SCHEMA {
        return Err(format!("unexpected schema `{schema}`"));
    }
    let stats = j.get("stats").ok_or("missing `stats`")?;
    for key in ["cycles", "shared_reads", "shared_writes", "l2_misses"] {
        req_u64(stats, "stats", key)?;
    }
    let traffic = stats.get("traffic").ok_or("missing `stats.traffic`")?;
    let mut total = 0u64;
    for key in ["requests", "replies", "invalidations", "acks"] {
        total += traffic
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats.traffic.{key} missing"))?;
    }
    let declared = traffic
        .get("total")
        .and_then(Json::as_u64)
        .ok_or("stats.traffic.total missing")?;
    if declared != total {
        return Err(format!(
            "stats.traffic.total {declared} != sum of classes {total}"
        ));
    }
    if let Some(metrics) = j.get("metrics") {
        if *metrics != Json::Null {
            let ms = metrics
                .get("schema")
                .and_then(Json::as_str)
                .ok_or("metrics.schema missing")?;
            if ms != crate::schema::METRICS_SCHEMA {
                return Err(format!("unexpected metrics schema `{ms}`"));
            }
        }
    }
    if let Some(attrib) = j.get("attribution") {
        if *attrib != Json::Null {
            crate::attrib::validate_attrib_json(attrib)?;
        }
    }
    if let Some(patterns) = j.get("patterns") {
        if *patterns != Json::Null {
            crate::patterns::validate_patterns_section(patterns)?;
        }
    }
    if let Some(trace) = j.get("trace") {
        if *trace != Json::Null {
            let recorded = req_u64(trace, "trace", "recorded")?;
            let dropped = req_u64(trace, "trace", "dropped_events")?;
            if dropped > recorded {
                return Err(format!(
                    "trace.dropped_events {dropped} > trace.recorded {recorded}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, cycle: u64, kind: EventKind) -> String {
        TraceEvent {
            seq,
            cycle,
            cluster: 0,
            kind,
        }
        .to_json()
        .to_string()
    }

    #[test]
    fn seq_set_agrees_with_a_plain_set() {
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for spread in [4, 64, u64::MAX] {
            let (mut gaps, mut plain) = (SeqSet::default(), std::collections::BTreeSet::new());
            for _ in 0..2000 {
                // Clustered seqs with repeats, and the ends of the range.
                let seq = match next() % 16 {
                    0 => u64::MAX - next() % 3,
                    1 => next() % 3,
                    _ => (plain.len() as u64).wrapping_add(next() % spread),
                };
                assert_eq!(gaps.insert(seq), plain.insert(seq), "seq {seq}");
            }
        }
    }

    #[test]
    fn accepts_a_well_formed_lifecycle() {
        let text = [
            line(1, 10, EventKind::TxnBegin { txn: 1, block: 4, write: true }),
            line(2, 30, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::HomeLookup }),
            line(3, 45, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::Fanout }),
            line(4, 90, EventKind::TxnEnd { txn: 1, block: 4, latency: 80, retries: 0 }),
        ]
        .join("\n");
        let s = validate_trace(&text).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.transactions, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.by_type["txn_phase"], 2);
    }

    #[test]
    fn rejects_reply_before_request() {
        let text = [
            line(1, 50, EventKind::TxnBegin { txn: 1, block: 4, write: false }),
            line(2, 50, EventKind::TxnEnd { txn: 1, block: 4, latency: 0, retries: 0 }),
            line(3, 60, EventKind::TxnBegin { txn: 2, block: 8, write: false }),
        ]
        .join("\n");
        assert!(validate_trace(&text).is_ok());
        // An end whose cycle precedes its begin is a reply before request.
        let bad = [
            line(1, 50, EventKind::TxnBegin { txn: 1, block: 4, write: false }),
            // Hand-built line: merged order says cycle can't run backwards,
            // so model it as a same-cycle merge with inconsistent latency.
            line(2, 50, EventKind::TxnEnd { txn: 1, block: 4, latency: 10, retries: 0 }),
        ]
        .join("\n");
        let err = validate_trace(&bad).unwrap_err();
        assert!(err.contains("latency"), "{err}");
    }

    #[test]
    fn rejects_backwards_cycles_and_stale_seq() {
        let back = [
            line(1, 50, EventKind::Nack { txn: 1, block: 4 }),
            line(2, 40, EventKind::Nack { txn: 1, block: 4 }),
        ]
        .join("\n");
        assert!(validate_trace(&back).unwrap_err().contains("backwards"));
        let stale = [
            line(5, 50, EventKind::Nack { txn: 1, block: 4 }),
            line(5, 60, EventKind::Nack { txn: 1, block: 4 }),
        ]
        .join("\n");
        assert!(validate_trace(&stale).unwrap_err().contains("seq"));
    }

    #[test]
    fn rejects_shrinking_backoff() {
        let text = [
            line(1, 10, EventKind::TxnBegin { txn: 1, block: 4, write: true }),
            line(2, 20, EventKind::Retry { txn: 1, block: 4, attempt: 1, backoff: 15 }),
            line(3, 40, EventKind::Retry { txn: 1, block: 4, attempt: 2, backoff: 30 }),
            line(4, 80, EventKind::Retry { txn: 1, block: 4, attempt: 3, backoff: 15 }),
        ]
        .join("\n");
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("backoff shrank"), "{err}");
    }

    #[test]
    fn rejects_duplicate_attempts_and_double_lifecycle() {
        let dup = [
            line(1, 20, EventKind::Retry { txn: 1, block: 4, attempt: 1, backoff: 15 }),
            line(2, 40, EventKind::Retry { txn: 1, block: 4, attempt: 1, backoff: 15 }),
        ]
        .join("\n");
        assert!(validate_trace(&dup).unwrap_err().contains("attempt"));
        let twice = [
            line(1, 10, EventKind::TxnBegin { txn: 1, block: 4, write: false }),
            line(2, 20, EventKind::TxnBegin { txn: 1, block: 4, write: false }),
        ]
        .join("\n");
        assert!(validate_trace(&twice).unwrap_err().contains("twice"));
    }

    #[test]
    fn tolerates_truncated_history() {
        // Ring eviction can drop the begin: phases/end alone still validate.
        let text = [
            line(7, 100, EventKind::TxnPhase { txn: 3, block: 4, phase: Phase::HomeLookup }),
            line(9, 160, EventKind::TxnEnd { txn: 3, block: 4, latency: 70, retries: 0 }),
        ]
        .join("\n");
        let s = validate_trace(&text).unwrap();
        assert_eq!(s.transactions, 1);
        assert_eq!(s.completed, 0, "no begin observed");
    }

    #[test]
    fn rejects_malformed_lines_and_unknown_types() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace(r#"{"seq":1,"cycle":2}"#).is_err());
        assert!(
            validate_trace(r#"{"seq":1,"cycle":2,"cluster":0,"type":"mystery"}"#)
                .unwrap_err()
                .contains("unknown event type")
        );
    }

    #[test]
    fn stats_schema_validation() {
        let good = r#"{"schema":"scd-run-stats/v1","stats":{"cycles":10,
            "shared_reads":1,"shared_writes":2,"l2_misses":0,
            "traffic":{"requests":3,"replies":3,"invalidations":1,"acks":1,"total":8}},
            "metrics":null}"#;
        validate_stats_json(good).unwrap();
        let bad_total = good.replace(r#""total":8"#, r#""total":9"#);
        assert!(validate_stats_json(&bad_total).unwrap_err().contains("sum"));
        assert!(validate_stats_json(r#"{"schema":"other/v9"}"#).is_err());
        assert!(validate_stats_json("{}").is_err());
    }
}
