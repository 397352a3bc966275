//! Streaming sinks: incremental JSONL telemetry emitted *during* a run.
//!
//! The post-hoc exporters only speak after `Machine::run` returns; a sink
//! receives the same records line by line while the run is still in
//! flight. Three contracts:
//!
//! * **Byte compatibility.** Trace-event lines pushed through a sink are
//!   byte-identical to the lines a post-hoc `--trace-out` file would
//!   contain, in the same `(cycle, seq)` merge order (the machine holds
//!   future-stamped events back until the simulation clock passes them).
//!   When rings are large enough that nothing is evicted,
//!   [`extract_trace_lines`] over the stream equals the post-hoc file
//!   exactly; with eviction the stream is a strict superset — streaming
//!   never loses what the rings lost.
//! * **Inert when detached.** A machine with no sink attached behaves
//!   bit-identically to one that never had one: the tracer hands an event
//!   to a pump only while one is attached, and nothing else reads it.
//! * **Backpressure never blocks the simulation.** A sink that cannot
//!   keep up sheds *its own* load and counts it ([`TraceSink::dropped`]);
//!   it never stalls the caller.
//!
//! Stream-only records (`run_meta`, `interval`, `attrib_delta`,
//! `patterns`, `run_end`, and the sweep engine's `sweep_begin`/
//! `sweep_run`/`sweep_end`) share the JSONL transport and are
//! distinguished by their `type` field, which is disjoint from the nine
//! trace-event types.

use std::collections::BTreeSet;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use crate::event::{record, EventLine, TraceEvent, EVENT_TYPES};
use crate::json::{records, Fields, Json};
use crate::metrics::IntervalSnapshot;
use crate::replay::{TraceCheck, TraceSummary};

/// A consumer of rendered JSONL telemetry lines.
///
/// Implementations must never block the caller: the machine emits from
/// inside its event loop, so a slow consumer has to buffer or shed load
/// on its own side and account for what it shed via [`TraceSink::dropped`].
pub trait TraceSink: Send {
    /// Consumes one rendered JSONL line (no trailing newline).
    fn emit(&mut self, line: &str);

    /// Pushes any buffered lines to the underlying transport.
    fn flush(&mut self);

    /// Lines this sink discarded under backpressure (0 for lossless
    /// sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Lossless file sink: one JSONL line per [`TraceSink::emit`], buffered
/// through a [`std::io::BufWriter`]. Write errors are counted as dropped
/// lines rather than surfaced mid-run (the simulation must not fail
/// because a disk filled). A failed flush counts too: the lines it lost
/// were accepted into the buffer earlier, so it is the only place a
/// stream shorter than the buffer can report that it never reached disk.
pub struct JsonlFileSink {
    out: std::io::BufWriter<std::fs::File>,
    dropped: u64,
}

impl JsonlFileSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlFileSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            dropped: 0,
        })
    }
}

impl TraceSink for JsonlFileSink {
    fn emit(&mut self, line: &str) {
        if writeln!(self.out, "{line}").is_err() {
            self.dropped += 1;
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Drop for JsonlFileSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// In-memory sink for tests: lossless, shared via an
/// `Arc<Mutex<Vec<String>>>` handle that outlives the boxed sink.
#[derive(Default)]
pub struct BufferSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared line buffer (clone before boxing the sink).
    pub fn handle(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl TraceSink for BufferSink {
    fn emit(&mut self, line: &str) {
        self.lines.lock().unwrap().push(line.to_string());
    }

    fn flush(&mut self) {}
}

// ---------------------------------------------------------------------
// Stream-only record constructors. The schemas are part of the public
// JSONL surface: add fields, never rename.
// ---------------------------------------------------------------------

/// `run_meta`: the opening record of a single-run stream, carrying the
/// same `run` object the `scd-run-stats/v1` document embeds.
pub fn run_meta_record(run: &Json) -> Json {
    Json::obj()
        .with("type", Json::Str(record::RUN_META.into()))
        .with("run", run.clone())
}

/// `interval`: one window of the interval time series, emitted at its
/// closing boundary. Every trace event with `cycle < window.end`
/// precedes this record in the stream.
pub fn interval_record(snap: &IntervalSnapshot) -> Json {
    Json::obj()
        .with("type", Json::Str(record::INTERVAL.into()))
        .with("window", snap.to_json())
}

/// `attrib_delta`: per-class and per-link traffic accumulated during one
/// interval window (`classes` keys follow `AttribClass::label`; `links`
/// is capped to the busiest movers of the window, sorted by endpoint).
pub fn attrib_delta_record(
    start: u64,
    end: u64,
    classes: &[(&'static str, Json)],
    links: &[(usize, usize, u64)],
) -> Json {
    let mut cls = Json::obj();
    for (label, counters) in classes {
        cls.set(*label, counters.clone());
    }
    Json::obj()
        .with("type", Json::Str(record::ATTRIB_DELTA.into()))
        .with("start", Json::U64(start))
        .with("end", Json::U64(end))
        .with("classes", cls)
        .with(
            "links",
            Json::Arr(
                links
                    .iter()
                    .map(|(from, to, flits)| {
                        Json::obj()
                            .with("from", Json::U64(*from as u64))
                            .with("to", Json::U64(*to as u64))
                            .with("flits", Json::U64(*flits))
                    })
                    .collect(),
            ),
        )
}

/// `patterns`: one directory-occupancy sample, emitted at each interval
/// boundary when the observatory is on. `sharers[i]` counts live
/// directory entries currently recording `i` sharers (index 0 counts
/// dirty/single-owner entries as 1 — the histogram is over the sharer
/// superset each scheme would invalidate), trailing zeros trimmed.
pub fn patterns_record(start: u64, end: u64, live_entries: u64, sharers: &[u64]) -> Json {
    Json::obj()
        .with("type", Json::Str(record::PATTERNS.into()))
        .with("start", Json::U64(start))
        .with("end", Json::U64(end))
        .with("live_entries", Json::U64(live_entries))
        .with(
            "sharers",
            Json::Arr(sharers.iter().map(|&n| Json::U64(n)).collect()),
        )
}

/// `run_end`: the closing record of a single-run stream. `recorded` and
/// `dropped_events` mirror the tracer's counters, so a consumer can tell
/// how much ring history the post-hoc file will be missing.
pub fn run_end_record(cycles: u64, recorded: u64, dropped_events: u64) -> Json {
    Json::obj()
        .with("type", Json::Str(record::RUN_END.into()))
        .with("cycles", Json::U64(cycles))
        .with("recorded", Json::U64(recorded))
        .with("dropped_events", Json::U64(dropped_events))
}

/// Extracts the trace-event lines of a stream, verbatim and in order,
/// ready to diff byte-for-byte against a post-hoc `--trace-out` file.
/// Returns an empty string when the stream holds no events.
pub fn extract_trace_lines(stream: &str) -> String {
    // A stream is nearly all events: one reservation, never regrown.
    let mut out = String::with_capacity(stream.len());
    for (_, line) in records(stream) {
        if is_event_line(line) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Whether a JSONL line is a trace event (its `type` is one of
/// [`EVENT_TYPES`]) rather than a stream record.
pub fn is_event_line(line: &str) -> bool {
    let ev = EventLine::lex(line);
    ev.is_ok_and(|ev| ev.type_label().is_some_and(|ty| EVENT_TYPES.contains(&ty)))
}

/// What a validated stream contained.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Non-empty lines in the stream.
    pub lines: usize,
    /// Trace-event lines (also validated as a trace).
    pub events: usize,
    /// Interval records.
    pub intervals: usize,
    /// Attribution-delta records.
    pub attrib_deltas: usize,
    /// Directory-occupancy (`patterns`) sample records.
    pub patterns_samples: usize,
    /// Sweep per-run progress records.
    pub sweep_runs: usize,
    /// Whether a `run_end` record closed the stream.
    pub run_ended: bool,
    /// Whether a `sweep_end` record closed the stream.
    pub sweep_ended: bool,
    /// The embedded trace's summary (zeroed when the stream had no
    /// events).
    pub trace: TraceSummary,
}

pub(crate) fn req_u64(obj: &Fields<'_>, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("`{key}` missing or not an integer"))
}

/// Validates a streamed JSONL telemetry file: every line is a known
/// record, the embedded trace-event lines form a valid trace (all
/// [`crate::validate_trace`] invariants, checked as the lines go by and
/// reported under the stream's own line numbers), interval windows tile
/// and are ordered against the events around them, sweep progress counts
/// monotonically to its total, and a `run_end`/`sweep_end` record (if
/// present) is the final line.
pub fn validate_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut trace = TraceCheck::default();
    // A broken stream record anywhere outranks a broken event, so the
    // first trace error waits for the end of the stream.
    let mut trace_err = None;
    let mut last_interval_end: Option<u64> = None;
    let mut sweep_total: Option<u64> = None;
    let mut sweep_completed: u64 = 0;
    let mut sweep_indices: BTreeSet<u64> = BTreeSet::new();
    let mut closed_by: Option<&'static str> = None;

    // One line's checks; an error is prefixed with the line's number.
    let mut record = |line: &str, line_no: usize| -> Result<(), String> {
        if let Some(closer) = closed_by {
            return Err(format!("record after `{closer}`"));
        }
        summary.lines += 1;
        // Event lines (nearly all of a stream) are read once, records twice.
        let ev = EventLine::lex(line)?;
        let ty = ev.type_label().ok_or("missing `type`")?;
        if EVENT_TYPES.contains(&ty) {
            summary.events += 1;
            let cycle = ev.cycle().ok_or("`cycle` missing or not an integer")?;
            // Ordering guarantee: an interval record is emitted only after
            // every event of its window, so no event may surface later
            // with a cycle from inside an already-closed window.
            if let Some(end) = last_interval_end.filter(|&end| cycle < end) {
                return Err(format!("event at cycle {cycle} after the interval ending at {end}"));
            }
            if trace_err.is_none() {
                let checked = ev.decode().and_then(|event| trace.event(&event));
                trace_err = checked.map_err(|e| format!("line {line_no}: {e}")).err();
            }
            return Ok(());
        }
        let obj = Fields::parse(line)?;
        // A window `[start, end)`, which must not be empty.
        let nonempty = |what: &str, start: u64, end: u64| {
            if end <= start {
                return Err(format!("{what} window [{start}, {end}) is empty"));
            }
            Ok((start, end))
        };
        let window = |obj: &Fields<'_>, what: &str| {
            nonempty(what, req_u64(obj, "start")?, req_u64(obj, "end")?)
        };
        match ty {
            record::RUN_META => {
                obj.get("run").ok_or("run_meta without `run`")?;
            }
            record::INTERVAL => {
                summary.intervals += 1;
                let window = obj.get("window").ok_or("interval without `window`")?;
                let IntervalSnapshot { start, end, .. } = IntervalSnapshot::parse(window.raw())?;
                nonempty(record::INTERVAL, start, end)?;
                if let Some(prev) = last_interval_end.filter(|&prev| start != prev) {
                    return Err(format!("interval starts at {start}, previous ended at {prev}"));
                }
                last_interval_end = Some(end);
            }
            record::ATTRIB_DELTA => {
                summary.attrib_deltas += 1;
                window(&obj, record::ATTRIB_DELTA)?;
                obj.get("classes").ok_or("attrib_delta without `classes`")?;
            }
            record::PATTERNS => {
                summary.patterns_samples += 1;
                window(&obj, record::PATTERNS)?;
                let live = req_u64(&obj, "live_entries")?;
                let sharers = obj.get("sharers").and_then(|v| v.elements());
                let sharers = sharers.ok_or("patterns without `sharers`")?;
                let counted: u64 = sharers.filter_map(|n| n.as_u64()).sum();
                if counted > live {
                    let histogram = format!("patterns sharer histogram counts {counted} entries");
                    return Err(format!("{histogram} but only {live} are live"));
                }
            }
            record::RUN_END => {
                let recorded = req_u64(&obj, "recorded")?;
                let dropped = req_u64(&obj, "dropped_events")?;
                req_u64(&obj, "cycles")?;
                if dropped > recorded {
                    return Err(format!("run_end dropped_events {dropped} > recorded {recorded}"));
                }
                if (summary.events as u64) > recorded {
                    return Err(format!(
                        "stream carries {} events but run_end says {recorded} recorded",
                        summary.events
                    ));
                }
                summary.run_ended = true;
                closed_by = Some(record::RUN_END);
            }
            record::SWEEP_BEGIN => {
                let total = req_u64(&obj, "total")?;
                if total == 0 {
                    return Err("sweep_begin with total 0".into());
                }
                sweep_total = Some(total);
            }
            record::SWEEP_RUN => {
                summary.sweep_runs += 1;
                let total = sweep_total.ok_or("sweep_run before sweep_begin")?;
                let completed = req_u64(&obj, "completed")?;
                let index = req_u64(&obj, "index")?;
                if completed != sweep_completed + 1 || completed > total {
                    return Err(format!(
                        "sweep_run completed {completed} after {sweep_completed} (total {total})"
                    ));
                }
                if !sweep_indices.insert(index) {
                    return Err(format!("sweep_run index {index} repeats"));
                }
                sweep_completed = completed;
            }
            record::SWEEP_END => {
                let runs = req_u64(&obj, "runs")?;
                if runs != sweep_completed {
                    let records = format!("{sweep_completed} sweep_run records");
                    return Err(format!("sweep_end runs {runs} != {records}"));
                }
                summary.sweep_ended = true;
                closed_by = Some(record::SWEEP_END);
            }
            other => return Err(format!("unknown record type `{other}`")),
        }
        Ok(())
    };
    for (line_no, line) in records(text) {
        record(line, line_no).map_err(|e| format!("line {line_no}: {e}"))?;
    }
    summary.trace = trace_err
        .map_or_else(|| trace.finish(), Err)
        .map_err(|e| format!("embedded trace: {e}"))?;
    Ok(summary)
}

/// Renders one [`TraceEvent`] exactly as the streamed and post-hoc JSONL
/// surfaces do. The byte contract is [`TraceEvent::write_jsonl`]; this
/// wrapper is for callers that want an owned line and do not have a buffer
/// to reuse, [`TraceEvent::to_json`]'s view among them.
pub fn event_line(ev: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(160);
    ev.write_jsonl(&mut line);
    String::from_utf8(line).expect("the line writer emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn event(seq: u64, cycle: u64) -> TraceEvent {
        TraceEvent {
            seq,
            cycle,
            cluster: 0,
            kind: EventKind::TxnBegin {
                txn: seq,
                block: 8,
                write: false,
            },
        }
    }

    fn end_event(seq: u64, cycle: u64, txn: u64, begin: u64) -> TraceEvent {
        TraceEvent {
            seq,
            cycle,
            cluster: 0,
            kind: EventKind::TxnEnd {
                txn,
                block: 8,
                latency: cycle - begin,
                retries: 0,
            },
        }
    }

    /// A stream smaller than the `BufWriter` only meets the full disk at
    /// flush time; that must still count as shed output.
    #[test]
    fn file_sink_counts_a_failed_flush() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut sink = JsonlFileSink::create(full).expect("/dev/full opens for writing");
        sink.emit("a short line");
        assert_eq!(sink.dropped(), 0, "still buffered");
        sink.flush();
        assert!(sink.dropped() > 0, "ENOSPC at flush went uncounted");
    }

    #[test]
    fn buffer_sink_is_lossless_and_shared() {
        let sink = BufferSink::new();
        let handle = sink.handle();
        let mut boxed: Box<dyn TraceSink> = Box::new(sink);
        boxed.emit("a");
        boxed.emit("b");
        assert_eq!(boxed.dropped(), 0);
        assert_eq!(*handle.lock().unwrap(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn extraction_is_verbatim_and_order_preserving() {
        let ev1 = event_line(&event(1, 10));
        let ev2 = event_line(&end_event(2, 30, 1, 10));
        let stream = format!(
            "{}\n{ev1}\n{}\n{ev2}\n{}\n",
            run_meta_record(&Json::obj()),
            interval_record(&IntervalSnapshot {
                start: 0,
                end: 20,
                ..Default::default()
            }),
            run_end_record(30, 2, 0),
        );
        assert_eq!(extract_trace_lines(&stream), format!("{ev1}\n{ev2}\n"));
    }

    #[test]
    fn validates_a_well_formed_run_stream() {
        let stream = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            run_meta_record(&Json::obj().with("app", Json::Str("lu".into()))),
            event_line(&event(1, 10)),
            interval_record(&IntervalSnapshot { start: 0, end: 20, ..Default::default() }),
            event_line(&end_event(2, 30, 1, 10)),
            run_end_record(30, 2, 0),
        );
        let s = validate_stream(&stream).expect("valid stream");
        assert_eq!(s.events, 2);
        assert_eq!(s.intervals, 1);
        assert!(s.run_ended);
        assert_eq!(s.trace.events, 2);
        assert_eq!(s.trace.transactions, 1);
    }

    #[test]
    fn rejects_records_after_the_closing_record() {
        let stream = format!(
            "{}\n{}\n",
            run_end_record(10, 0, 0),
            event_line(&event(1, 5)),
        );
        let err = validate_stream(&stream).unwrap_err();
        assert!(err.contains("after `run_end`"), "{err}");
    }

    #[test]
    fn rejects_non_tiling_intervals() {
        let stream = format!(
            "{}\n{}\n",
            interval_record(&IntervalSnapshot { start: 0, end: 20, ..Default::default() }),
            interval_record(&IntervalSnapshot { start: 30, end: 40, ..Default::default() }),
        );
        let err = validate_stream(&stream).unwrap_err();
        assert!(err.contains("previous ended at 20"), "{err}");
    }

    #[test]
    fn rejects_overclaiming_drop_counts() {
        let err = validate_stream(&format!("{}\n", run_end_record(10, 3, 5))).unwrap_err();
        assert!(err.contains("dropped_events 5 > recorded 3"), "{err}");
    }

    #[test]
    fn validates_sweep_progress_records() {
        let begin = Json::obj()
            .with("type", Json::Str("sweep_begin".into()))
            .with("total", Json::U64(2))
            .with("jobs", Json::U64(1));
        let run = |i: u64, done: u64| {
            Json::obj()
                .with("type", Json::Str("sweep_run".into()))
                .with("index", Json::U64(i))
                .with("completed", Json::U64(done))
                .with("total", Json::U64(2))
        };
        let end = Json::obj()
            .with("type", Json::Str("sweep_end".into()))
            .with("runs", Json::U64(2));
        let ok = format!("{begin}\n{}\n{}\n{end}\n", run(0, 1), run(1, 2));
        let s = validate_stream(&ok).expect("valid sweep stream");
        assert_eq!(s.sweep_runs, 2);
        assert!(s.sweep_ended);

        let skipped = format!("{begin}\n{}\n", run(0, 2));
        assert!(validate_stream(&skipped).is_err(), "completed must count 1, 2, ...");
        let repeated = format!("{begin}\n{}\n{}\n", run(0, 1), run(0, 2));
        let err = validate_stream(&repeated).unwrap_err();
        assert!(err.contains("index 0 repeats"), "{err}");
    }

    #[test]
    fn validates_patterns_samples() {
        let ok = format!("{}\n", patterns_record(0, 100, 3, &[1, 2]));
        let s = validate_stream(&ok).expect("valid patterns record");
        assert_eq!(s.patterns_samples, 1);
        let over = format!("{}\n", patterns_record(0, 100, 1, &[1, 2]));
        let err = validate_stream(&over).unwrap_err();
        assert!(err.contains("only 1 are live"), "{err}");
        let empty = format!("{}\n", patterns_record(5, 5, 0, &[]));
        assert!(validate_stream(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn stream_record_types_stay_disjoint_from_event_types() {
        for ty in record::ALL {
            assert!(!EVENT_TYPES.contains(&ty), "`{ty}` collides with an event type");
        }
    }
}
