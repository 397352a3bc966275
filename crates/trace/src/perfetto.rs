//! Perfetto / chrome `trace_event` export of a span tree.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and ui.perfetto.dev load directly: one complete
//! (`"ph":"X"`) slice per transaction and phase, one nestable-async
//! (`"ph":"b"`/`"e"`) pair per message leaf — a message sent late in one
//! phase legitimately delivers inside the next, so it cannot live on the
//! synchronous slice stack — counter (`"ph":"C"`) tracks from the
//! interval time series, and metadata (`"ph":"M"`) naming the per-cluster
//! process rows. Timestamps are simulated cycles rendered in the format's
//! microsecond field — the viewer's "us" unit reads as cycles.
//!
//! Rendered straight into bytes with the trace writer's own decimal and
//! label writers (no tree per record; the build is offline, no serde),
//! checked as UTF-8 once when the document is complete, and paired with
//! [`validate_perfetto`], which walks the document record by record, so
//! CI can gate on schema well-formedness without a browser.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{push_label, push_u64};
use crate::json::{Fields, Lexer, Token, Utf8};
use crate::metrics::IntervalSnapshot;
use crate::span::{MsgSpan, SpanTree};

/// Thread id used for spans not owned by any transaction (orphan
/// messages). Transaction ids start at 1, so 0 never collides.
const BACKGROUND_TID: u64 = 0;

/// Starts a field: a comma unless it is its object's first, then the
/// key. Keys are this module's own literals, plain ASCII.
fn key(out: &mut Vec<u8>, key: &str) {
    if !out.ends_with(b"{") {
        out.push(b',');
    }
    out.push(b'"');
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
}

fn str_field(out: &mut Vec<u8>, k: &str, v: &str) {
    key(out, k);
    push_label(out, v);
}

fn u64_field(out: &mut Vec<u8>, k: &str, n: u64) {
    key(out, k);
    push_u64(out, n);
}

/// Opens the next record of `traceEvents` with the fields every kind
/// shares, in the schema's order: `name`, `cat`, `ph`, `id`, `pid`,
/// `tid`, `ts` (those it has). The caller adds the rest and the `}`.
#[allow(clippy::too_many_arguments)]
fn open_record(
    out: &mut Vec<u8>,
    name: &str,
    cat: Option<&str>,
    ph: &str,
    id: Option<u64>,
    pid: u64,
    tid: u64,
    ts: Option<u64>,
) {
    if !out.ends_with(b"[") {
        out.push(b',');
    }
    out.push(b'{');
    str_field(out, "name", name);
    if let Some(cat) = cat {
        str_field(out, "cat", cat);
    }
    str_field(out, "ph", ph);
    if let Some(id) = id {
        key(out, "id");
        write!(Utf8(out), "\"0x{id:x}\"").expect("writing to a Vec cannot fail");
    }
    u64_field(out, "pid", pid);
    u64_field(out, "tid", tid);
    if let Some(ts) = ts {
        u64_field(out, "ts", ts);
    }
}

fn async_msg_pair(out: &mut Vec<u8>, m: &MsgSpan, pid: u64, tid: u64, id: u64) {
    open_record(out, m.msg, Some("msg"), "b", Some(id), pid, tid, Some(m.send));
    key(out, "args");
    out.push(b'{');
    u64_field(out, "src", m.src as u64);
    u64_field(out, "dst", m.dst as u64);
    str_field(out, "class", m.class);
    u64_field(out, "hops", m.hops as u64);
    out.extend_from_slice(b"}}");
    let end = m.deliver.unwrap_or(m.send);
    open_record(out, m.msg, Some("msg"), "e", Some(id), pid, tid, Some(end));
    out.push(b'}');
}

fn process_name(out: &mut Vec<u8>, pid: u64, name: &str) {
    open_record(out, "process_name", None, "M", None, pid, 0, None);
    key(out, "args");
    out.push(b'{');
    str_field(out, "name", name);
    out.extend_from_slice(b"}}");
}

/// Renders a span tree (plus optional interval counters) as a chrome
/// `trace_event` JSON document.
///
/// Layout: one process row per cluster (pid = cluster id, named by an
/// `"M"` metadata record), one thread lane per transaction (tid = txn
/// id), so concurrent transactions of one cluster stack as parallel
/// tracks. Message leaves are nestable-async pairs on their transaction's
/// lane (in-flight time crosses phase boundaries); orphan messages ride a
/// `background` lane (tid 0) of their source cluster. Counter tracks
/// (`messages`, `retries`, `nacks`, `occupancy`) attach to a synthetic
/// pid one past the largest cluster.
pub fn to_perfetto(tree: &SpanTree, intervals: &[IntervalSnapshot]) -> String {
    let mut out = b"{\"traceEvents\":[".to_vec();
    let mut name = Vec::new();
    let mut max_pid = 0u64;
    let mut msg_id = 0u64;
    for t in &tree.txns {
        let pid = t.cluster as u64;
        max_pid = max_pid.max(pid);
        let end = t.end.unwrap_or_else(|| {
            t.phases.last().map(|p| p.end).unwrap_or(t.begin)
        });
        name.clear();
        name.extend_from_slice(if t.write { b"write blk#" } else { b"read blk#" });
        push_u64(&mut name, t.block);
        let name = std::str::from_utf8(&name).expect("a literal and a decimal");
        open_record(&mut out, name, Some("txn"), "X", None, pid, t.txn, Some(t.begin));
        u64_field(&mut out, "dur", end.saturating_sub(t.begin));
        key(&mut out, "args");
        out.push(b'{');
        u64_field(&mut out, "txn", t.txn);
        u64_field(&mut out, "block", t.block);
        u64_field(&mut out, "retries", t.retries as u64);
        u64_field(&mut out, "nacks", t.nacks as u64);
        key(&mut out, "complete");
        out.extend_from_slice(if t.end.is_some() { b"true}}" } else { b"false}}" });
        for p in &t.phases {
            open_record(&mut out, p.phase, Some("phase"), "X", None, pid, t.txn, Some(p.start));
            u64_field(&mut out, "dur", p.duration());
            out.extend_from_slice(b",\"args\":{}}");
            for m in &p.msgs {
                msg_id += 1;
                async_msg_pair(&mut out, m, pid, t.txn, msg_id);
            }
        }
    }
    for m in &tree.orphan_msgs {
        let pid = m.src as u64;
        max_pid = max_pid.max(pid);
        msg_id += 1;
        async_msg_pair(&mut out, m, pid, BACKGROUND_TID, msg_id);
    }
    // Metadata rows: name each cluster's process lane.
    let mut pids: Vec<u64> = tree.txns.iter().map(|t| t.cluster as u64).collect();
    pids.extend(tree.orphan_msgs.iter().map(|m| m.src as u64));
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        process_name(&mut out, pid, &format!("cluster {pid}"));
    }
    // Counter tracks from the interval time series, on their own pid.
    if !intervals.is_empty() {
        let counter_pid = max_pid + 1;
        process_name(&mut out, counter_pid, "machine counters");
        for s in intervals {
            for (name, value) in [
                ("messages", s.messages),
                ("retries", s.retries),
                ("nacks", s.nacks),
                ("occupancy", s.occupancy),
            ] {
                open_record(&mut out, name, None, "C", None, counter_pid, 0, Some(s.start));
                key(&mut out, "args");
                out.push(b'{');
                u64_field(&mut out, "value", value);
                out.extend_from_slice(b"}}");
            }
        }
    }
    out.extend_from_slice(
        b"],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles\"}}",
    );
    String::from_utf8(out).expect("the renderers write UTF-8")
}

/// Aggregate of one validated Perfetto document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfettoSummary {
    /// Total records in `traceEvents`.
    pub events: u64,
    /// Complete (`"X"`) slices.
    pub slices: u64,
    /// Matched nestable-async (`"b"`/`"e"`) pairs.
    pub async_ops: u64,
    /// Counter (`"C"`) samples.
    pub counters: u64,
    /// Metadata (`"M"`) records.
    pub meta: u64,
}

/// Validates a chrome `trace_event` JSON document: object format with a
/// `traceEvents` array; every record an object with a known `ph`
/// (`X`/`b`/`e`/`C`/`M`), `name`, `pid` and `tid`; `X` slices carry
/// integer `ts`/`dur`; every async `b` carries an `id` and is closed by a
/// matching `e` (same `pid`/`id`) no earlier than it began; `C` samples
/// carry `ts` and a numeric `args.value`; and within each `(pid, tid)`
/// lane the `X` slices obey stack discipline (properly nested, never
/// partially overlapping).
pub fn validate_perfetto(text: &str) -> Result<PerfettoSummary, String> {
    let mut check = PerfettoCheck::default();
    // A document that is not JSON is reported as that, wherever the
    // damage is, so a record's error waits until the text has been read.
    let mut record_err = None;
    // The first `traceEvents` field is the one `Json::get` would find.
    let mut events_found = None;
    let mut lexer = Lexer::new(text);
    let open = lexer.value()?;
    if open == Token::Obj {
        while let Some(key) = lexer.key()? {
            let value = lexer.value()?;
            if key == "traceEvents" && events_found.is_none() {
                let is_array = value == Token::Arr;
                events_found = Some(is_array);
                if is_array {
                    while lexer.element()? {
                        let record = Fields::read(&mut lexer)?;
                        if record_err.is_none() {
                            record_err = check.record(&record).err();
                        }
                    }
                    continue;
                }
            }
            lexer.skip(&value)?;
        }
    } else {
        lexer.skip(&open)?;
    }
    lexer.end()?;
    if events_found != Some(true) {
        return Err("missing `traceEvents` array".into());
    }
    match record_err {
        Some(e) => Err(e),
        None => check.finish(),
    }
}

/// What [`validate_perfetto`] keeps while the records go by: the open
/// async operations and the `X` slices, nothing per record otherwise.
#[derive(Default)]
struct PerfettoCheck<'a> {
    summary: PerfettoSummary,
    /// `X` slices as `(pid, tid, ts, dur)`.
    slices: Vec<(u64, u64, u64, u64)>,
    /// `(pid, id)` -> begin ts of an open async op.
    open_async: BTreeMap<(u64, Cow<'a, str>), u64>,
}

impl<'a> PerfettoCheck<'a> {
    fn record(&mut self, ev: &Fields<'a>) -> Result<(), String> {
        let i = self.summary.events;
        let at = |key: &str| format!("traceEvents[{i}]: missing or invalid `{key}`");
        let u64_of = |key: &str| ev.get(key).and_then(|v| v.as_u64()).ok_or_else(|| at(key));
        let str_of = |key: &str| match ev.get(key).map(|v| v.token()) {
            Some(Token::Str(s)) => Ok(s),
            _ => Err(at(key)),
        };
        let ph = str_of("ph")?;
        str_of("name")?;
        let pid = u64_of("pid")?;
        let tid = u64_of("tid")?;
        self.summary.events += 1;
        match ph.as_ref() {
            "X" => {
                self.slices.push((pid, tid, u64_of("ts")?, u64_of("dur")?));
                self.summary.slices += 1;
            }
            "b" | "e" => {
                let ts = u64_of("ts")?;
                let id = str_of("id")?;
                if ph == "b" {
                    if self.open_async.insert((pid, id.clone()), ts).is_some() {
                        return Err(format!(
                            "traceEvents[{i}]: async id `{id}` reopened on pid {pid}"
                        ));
                    }
                } else {
                    let begin = self.open_async.remove(&(pid, id.clone())).ok_or_else(|| {
                        format!("traceEvents[{i}]: async end `{id}` on pid {pid} without a begin")
                    })?;
                    if ts < begin {
                        return Err(format!(
                            "traceEvents[{i}]: async `{id}` ends at {ts} before its begin {begin}"
                        ));
                    }
                    self.summary.async_ops += 1;
                }
            }
            "C" => {
                u64_of("ts")?;
                let args = ev.get("args").map(|a| a.fields());
                let value = args.as_ref().and_then(|a| a.get("value"));
                if value.and_then(|v| v.as_f64()).is_none() {
                    return Err(at("args.value"));
                }
                self.summary.counters += 1;
            }
            "M" => self.summary.meta += 1,
            other => {
                return Err(format!("traceEvents[{i}]: unknown ph `{other}`"));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<PerfettoSummary, String> {
        if let Some(((pid, id), ts)) = self.open_async.into_iter().next() {
            return Err(format!(
                "async op `{id}` on pid {pid} (begun at {ts}) never ended"
            ));
        }
        // Stack discipline per lane: sort by lane, then (ts, widest
        // first), and require each slice to fit entirely inside whatever
        // encloses it.
        self.slices
            .sort_unstable_by_key(|&(pid, tid, ts, dur)| (pid, tid, ts, std::cmp::Reverse(dur)));
        let mut lane = None;
        let mut stack: Vec<u64> = Vec::new(); // enclosing end times
        for (pid, tid, ts, dur) in self.slices {
            if lane != Some((pid, tid)) {
                lane = Some((pid, tid));
                stack.clear();
            }
            while matches!(stack.last(), Some(&end) if end <= ts) {
                stack.pop();
            }
            let end = ts.saturating_add(dur);
            if let Some(&open) = stack.last() {
                if end > open {
                    return Err(format!(
                        "lane pid {pid} tid {tid}: slice [{ts}, {end}] straddles \
                         an enclosing slice ending at {open}"
                    ));
                }
            }
            stack.push(end);
        }
        Ok(self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Phase, TraceEvent};
    use crate::json::Json;

    fn ev(seq: u64, cycle: u64, cluster: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            cycle,
            cluster,
            kind,
        }
    }

    fn sample_tree() -> SpanTree {
        SpanTree::from_events(&[
            ev(1, 10, 0, EventKind::TxnBegin { txn: 1, block: 4, write: true }),
            ev(2, 10, 0, EventKind::MsgSend {
                src: 0,
                dst: 2,
                msg: "write_req",
                class: "request",
                block: Some(4),
                hops: 2,
            }),
            ev(3, 24, 2, EventKind::MsgDeliver {
                src: 0,
                dst: 2,
                msg: "write_req",
                block: Some(4),
            }),
            ev(4, 25, 0, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::HomeLookup }),
            ev(5, 60, 0, EventKind::TxnEnd { txn: 1, block: 4, latency: 50, retries: 0 }),
        ])
    }

    fn sample_intervals() -> [IntervalSnapshot; 1] {
        [IntervalSnapshot {
            start: 0,
            end: 1000,
            messages: 5,
            retries: 1,
            nacks: 1,
            occupancy: 2,
            ops_retired: 3,
        }]
    }

    #[test]
    fn export_validates_and_counts() {
        let text = to_perfetto(&sample_tree(), &sample_intervals());
        let s = validate_perfetto(&text).unwrap();
        // 1 txn + 2 phases = 3 slices; 1 msg = 1 async pair; 4 counters;
        // 2 meta (cluster 0 + counter process).
        assert_eq!(s.slices, 3);
        assert_eq!(s.async_ops, 1);
        assert_eq!(s.counters, 4);
        assert_eq!(s.meta, 2);
        assert_eq!(s.events, 11);
    }

    /// The document's bytes, as the `Json` tree this module used to build
    /// rendered them: `scd-telemetry spans --perfetto-out` files are
    /// compared across commits.
    #[test]
    fn export_bytes_are_pinned() {
        let golden = concat!(
            "{\"traceEvents\":[",
            r#"{"name":"write blk#4","cat":"txn","ph":"X","pid":0,"tid":1,"ts":10,"dur":50,"args":{"txn":1,"block":4,"retries":0,"nacks":0,"complete":true}},"#,
            r#"{"name":"issue","cat":"phase","ph":"X","pid":0,"tid":1,"ts":10,"dur":15,"args":{}},"#,
            r#"{"name":"write_req","cat":"msg","ph":"b","id":"0x1","pid":0,"tid":1,"ts":10,"args":{"src":0,"dst":2,"class":"request","hops":2}},"#,
            r#"{"name":"write_req","cat":"msg","ph":"e","id":"0x1","pid":0,"tid":1,"ts":24},"#,
            r#"{"name":"home_lookup","cat":"phase","ph":"X","pid":0,"tid":1,"ts":25,"dur":35,"args":{}},"#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"cluster 0"}},"#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"machine counters"}},"#,
            r#"{"name":"messages","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":5}},"#,
            r#"{"name":"retries","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":1}},"#,
            r#"{"name":"nacks","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":1}},"#,
            r#"{"name":"occupancy","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":2}}"#,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles\"}}",
        );
        assert_eq!(to_perfetto(&sample_tree(), &sample_intervals()), golden);
        assert_eq!(
            to_perfetto(&SpanTree::default(), &[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles\"}}"
        );
    }

    #[test]
    fn slices_nest_inside_the_txn_root() {
        let doc = Json::parse(&to_perfetto(&sample_tree(), &[])).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let root = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("txn"))
            .unwrap();
        assert_eq!(root.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(root.get("dur").and_then(Json::as_u64), Some(50));
        assert_eq!(root.get("tid").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn rejects_straddling_slices() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":1,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":1,"ts":5,"dur":10}
        ]}"#;
        let err = validate_perfetto(bad).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
        // Same spans on different lanes are fine.
        let ok = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":1,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":2,"ts":5,"dur":10}
        ]}"#;
        assert_eq!(validate_perfetto(ok).unwrap().slices, 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate_perfetto("[]").is_err(), "array format not accepted");
        assert!(validate_perfetto(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(
            validate_perfetto(
                r#"{"traceEvents":[{"name":"a","ph":"Q","pid":0,"tid":0}]}"#
            )
            .unwrap_err()
            .contains("unknown ph")
        );
        assert!(validate_perfetto(
            r#"{"traceEvents":[{"name":"c","ph":"C","pid":0,"tid":0,"ts":1,"args":{}}]}"#
        )
        .is_err());
        assert!(validate_perfetto(
            r#"{"traceEvents":[{"name":"m","ph":"b","id":"0x1","pid":0,"tid":0,"ts":1}]}"#
        )
        .unwrap_err()
        .contains("never ended"));
        assert!(validate_perfetto(
            r#"{"traceEvents":[{"name":"m","ph":"e","id":"0x1","pid":0,"tid":0,"ts":1}]}"#
        )
        .unwrap_err()
        .contains("without a begin"));
    }

    #[test]
    fn empty_tree_is_a_valid_document() {
        let s = validate_perfetto(&to_perfetto(&SpanTree::default(), &[])).unwrap();
        assert_eq!(s.events, 0);
    }
}
