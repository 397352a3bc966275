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
//! label writers and one set of literal fragments (no tree per record;
//! the build is offline, no serde), checked as UTF-8 once when the
//! document is complete, and paired with [`validate_perfetto`], which
//! walks the document record by record, so CI can gate on schema
//! well-formedness without a browser. The validator reads a record the
//! exporter wrote straight from its bytes and lexes any other.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::{push_label, push_u64, Exact, Fields, Lexer, Token};
use crate::metrics::IntervalSnapshot;
use crate::span::{MsgSpan, PhaseSpan, SpanTree, TxnSpan};

/// Thread id used for spans not owned by any transaction (orphan
/// messages). Transaction ids start at 1, so 0 never collides.
const BACKGROUND_TID: u64 = 0;

/// The document's fixed bytes, keys and punctuation included: the one set
/// the record writers emit and the exact-bytes reader ([`exact`])
/// compares. A record is a run of them with one value between each two;
/// each kind's own run from its `name` to its `pid` is one fragment.
mod key {
    crate::json::keys! {
        NAME = b"{\"name\":",
        TXN = b",\"cat\":\"txn\",\"ph\":\"X\",\"pid\":",
        PHASE = b",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":",
        BEGIN = b",\"cat\":\"msg\",\"ph\":\"b\",\"id\":\"0x",
        END = b",\"cat\":\"msg\",\"ph\":\"e\",\"id\":\"0x",
        META = b",\"ph\":\"M\",\"pid\":",
        COUNTER = b",\"ph\":\"C\",\"pid\":",
        ID_PID = b"\",\"pid\":",
        TID = b",\"tid\":", TS = b",\"ts\":", DUR = b",\"dur\":",
        TXN_ARGS = b",\"args\":{\"txn\":", BLOCK = b",\"block\":",
        RETRIES = b",\"retries\":", NACKS = b",\"nacks\":", COMPLETE = b",\"complete\":",
        NO_ARGS = b",\"args\":{}}",
        MSG_ARGS = b",\"args\":{\"src\":", DST = b",\"dst\":", CLASS = b",\"class\":",
        HOPS = b",\"hops\":",
        META_ARGS = b",\"args\":{\"name\":",
        VALUE_ARGS = b",\"args\":{\"value\":",
        CLOSE_ARGS = b"}}", CLOSE = b"}",
    }
}

// One writer per record kind: each appends the kind's fixed bytes from
// `key` with the values between them, in the schema's field order.

/// Starts the next record of `traceEvents`: a comma unless it is the
/// first, its `name`, then the kind's fragment.
fn open(out: &mut Vec<u8>, name: &str, kind: &[u8]) {
    if !out.ends_with(b"[") {
        out.push(b',');
    }
    out.extend_from_slice(key::NAME);
    push_label(out, name);
    out.extend_from_slice(kind);
}

fn u64_field(out: &mut Vec<u8>, key: &[u8], n: u64) {
    out.extend_from_slice(key);
    push_u64(out, n);
}

/// The `pid` (its key ends the kind's fragment) and the `tid`.
fn lane(out: &mut Vec<u8>, pid: u64, tid: u64) {
    push_u64(out, pid);
    u64_field(out, key::TID, tid);
}

/// Appends `n` in lower-case hex, as `{:x}` writes it: a digit per step,
/// from a stack buffer.
fn push_hex(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 16];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b"0123456789abcdef"[(n & 0xf) as usize];
        n >>= 4;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// A transaction's `X` slice, the root of its lane, named `name`.
fn txn_slice(out: &mut Vec<u8>, t: &TxnSpan, name: &str) {
    let end = t.end.unwrap_or_else(|| t.phases.last().map(|p| p.end).unwrap_or(t.begin));
    open(out, name, key::TXN);
    lane(out, t.cluster as u64, t.txn);
    u64_field(out, key::TS, t.begin);
    u64_field(out, key::DUR, end.saturating_sub(t.begin));
    u64_field(out, key::TXN_ARGS, t.txn);
    u64_field(out, key::BLOCK, t.block);
    u64_field(out, key::RETRIES, t.retries as u64);
    u64_field(out, key::NACKS, t.nacks as u64);
    out.extend_from_slice(key::COMPLETE);
    out.extend_from_slice(if t.end.is_some() { b"true" } else { b"false" });
    out.extend_from_slice(key::CLOSE_ARGS);
}

/// A phase's `X` slice on its transaction's lane.
fn phase_slice(out: &mut Vec<u8>, p: &PhaseSpan, pid: u64, tid: u64) {
    open(out, p.phase, key::PHASE);
    lane(out, pid, tid);
    u64_field(out, key::TS, p.start);
    u64_field(out, key::DUR, p.duration());
    out.extend_from_slice(key::NO_ARGS);
}

/// Opens a message's async record of `kind` ([`key::BEGIN`] or
/// [`key::END`]) through its `ts`; the fragment ends at the hex `id`'s
/// `0x`.
fn async_open(out: &mut Vec<u8>, m: &MsgSpan, kind: &[u8], id: u64, pid: u64, tid: u64, ts: u64) {
    open(out, m.msg, kind);
    push_hex(out, id);
    u64_field(out, key::ID_PID, pid);
    u64_field(out, key::TID, tid);
    u64_field(out, key::TS, ts);
}

/// A message's `b` and `e` records, on its transaction's lane.
fn async_msg_pair(out: &mut Vec<u8>, m: &MsgSpan, pid: u64, tid: u64, id: u64) {
    async_open(out, m, key::BEGIN, id, pid, tid, m.send);
    u64_field(out, key::MSG_ARGS, m.src as u64);
    u64_field(out, key::DST, m.dst as u64);
    out.extend_from_slice(key::CLASS);
    push_label(out, m.class);
    u64_field(out, key::HOPS, m.hops as u64);
    out.extend_from_slice(key::CLOSE_ARGS);
    async_open(out, m, key::END, id, pid, tid, m.deliver.unwrap_or(m.send));
    out.extend_from_slice(key::CLOSE);
}

/// An `M` record naming process row `pid`.
fn process_name(out: &mut Vec<u8>, pid: u64, name: &str) {
    open(out, "process_name", key::META);
    lane(out, pid, 0);
    out.extend_from_slice(key::META_ARGS);
    push_label(out, name);
    out.extend_from_slice(key::CLOSE_ARGS);
}

/// A `C` sample of counter track `name`.
fn counter(out: &mut Vec<u8>, name: &str, pid: u64, ts: u64, value: u64) {
    open(out, name, key::COUNTER);
    lane(out, pid, 0);
    u64_field(out, key::TS, ts);
    u64_field(out, key::VALUE_ARGS, value);
    out.extend_from_slice(key::CLOSE_ARGS);
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
    to_perfetto_numbered(tree, intervals, 0)
}

/// [`to_perfetto`] with the async ids counted up from `ids_after + 1`
/// instead of from 1, so a test can reach every width of the hex `id`.
/// Public for the tests that hold the exact-bytes reader to the writer,
/// not as an API.
#[doc(hidden)]
pub fn to_perfetto_numbered(
    tree: &SpanTree,
    intervals: &[IntervalSnapshot],
    ids_after: u64,
) -> String {
    let mut out = b"{\"traceEvents\":[".to_vec();
    let mut name = Vec::new();
    let mut max_pid = 0u64;
    let mut msg_id = ids_after;
    for t in &tree.txns {
        let pid = t.cluster as u64;
        max_pid = max_pid.max(pid);
        name.clear();
        name.extend_from_slice(if t.write { b"write blk#" } else { b"read blk#" });
        push_u64(&mut name, t.block);
        txn_slice(&mut out, t, std::str::from_utf8(&name).expect("a literal and a decimal"));
        for p in &t.phases {
            phase_slice(&mut out, p, pid, t.txn);
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
            counter(&mut out, "messages", counter_pid, s.start, s.messages);
            counter(&mut out, "retries", counter_pid, s.start, s.retries);
            counter(&mut out, "nacks", counter_pid, s.start, s.nacks);
            counter(&mut out, "occupancy", counter_pid, s.start, s.occupancy);
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
///
/// A record that is byte for byte one [`to_perfetto`] writes is read
/// directly; any other spelling goes through the lexer, which alone gives
/// errors, so the verdict and its text do not depend on which pass ran.
pub fn validate_perfetto(text: &str) -> Result<PerfettoSummary, String> {
    read(text, exact)
}

/// [`validate_perfetto`] with every record read through the lexer: the
/// reference the exact-bytes pass is held to. Public for those tests, not
/// as an API.
#[doc(hidden)]
pub fn read_lexed(text: &str) -> Result<PerfettoSummary, String> {
    read(text, |_| None)
}

/// How many `traceEvents` records [`validate_perfetto`] takes by the
/// exact-bytes pass, valid or not. Public for the tests that check it
/// takes every record [`to_perfetto`] writes.
#[doc(hidden)]
pub fn exact_records(text: &str) -> u64 {
    let taken = std::cell::Cell::new(0);
    let _ = read(text, |rest| {
        let record = exact(rest);
        taken.set(taken.get() + u64::from(record.is_some()));
        record
    });
    taken.get()
}

/// The one validating pass: each `traceEvents` record is read by `exact`
/// when it can be, else lexed, and checked once as a [`Record`].
fn read<'a>(
    text: &'a str,
    exact: impl Fn(&'a str) -> Option<(Record<'a>, usize)>,
) -> Result<PerfettoSummary, String> {
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
                        let record = match exact(lexer.rest()) {
                            Some((record, len)) => {
                                lexer.advance(len);
                                Ok(record)
                            }
                            None => {
                                let fields = Fields::read(&mut lexer)?;
                                if record_err.is_some() {
                                    continue;
                                }
                                Record::of(&fields, check.summary.events)
                            }
                        };
                        if record_err.is_none() {
                            record_err = record.and_then(|r| check.record(r)).err();
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

/// One `traceEvents` record, as much of it as the checks read: what both
/// passes produce and [`PerfettoCheck`] checks.
enum Record<'a> {
    /// An `X` slice: its lane and extent.
    Slice { pid: u64, tid: u64, ts: u64, dur: u64 },
    /// An async `b` (`begin`) or `e`.
    Async { begin: bool, pid: u64, id: Cow<'a, str>, ts: u64 },
    /// A `C` sample.
    Counter,
    /// An `M` record.
    Meta,
}

impl<'a> Record<'a> {
    /// The `i`-th record, lexed: every field it needs, checked in the
    /// order that gives the first error (`ph`, `name`, `pid`, `tid`, then
    /// the kind's own).
    fn of(ev: &Fields<'a>, i: u64) -> Result<Self, String> {
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
        Ok(match ph.as_ref() {
            "X" => Record::Slice { pid, tid, ts: u64_of("ts")?, dur: u64_of("dur")? },
            "b" | "e" => {
                let ts = u64_of("ts")?;
                Record::Async { begin: ph == "b", pid, id: str_of("id")?.clone(), ts }
            }
            "C" => {
                u64_of("ts")?;
                let args = ev.get("args").map(|a| a.fields());
                let value = args.as_ref().and_then(|a| a.get("value"));
                if value.and_then(|v| v.as_f64()).is_none() {
                    return Err(at("args.value"));
                }
                Record::Counter
            }
            "M" => Record::Meta,
            other => return Err(format!("traceEvents[{i}]: unknown ph `{other}`")),
        })
    }
}

/// After an async fragment, which ends inside the `id` at its `0x`: the
/// rest of the `id` and the lane up to the `ts`. Gives the id with its
/// `0x`, the pid and the ts.
#[inline(always)]
fn async_lane<'a>(r: &mut Exact<'a>, text: &'a str) -> Option<(&'a str, u64, u64)> {
    // The fragment's last two bytes are the `0x`; they and the quote are
    // ASCII, so each cut is a char boundary.
    let start = r.consumed() - 2;
    r.plain()?;
    let id = &text[start..r.consumed()];
    let pid = r.u64(key::ID_PID)?;
    r.u64(key::TID)?;
    Some((id, pid, r.u64(key::TS)?))
}

/// The `traceEvents` record at the start of `text` and its length, when it
/// is byte for byte one of the six layouts the writers above produce; the
/// bytes after it are the lexer's.
#[inline]
fn exact(text: &str) -> Option<(Record<'_>, usize)> {
    let mut r = Exact::new(text);
    r.string(key::NAME)?;
    // The kinds by how often the writer emits them.
    let record = if r.eat(key::BEGIN) {
        let (id, pid, ts) = async_lane(&mut r, text)?;
        r.u64(key::MSG_ARGS)?;
        r.u64(key::DST)?;
        r.string(key::CLASS)?;
        r.u64(key::HOPS)?;
        r.key(key::CLOSE_ARGS)?;
        Record::Async { begin: true, pid, id: Cow::Borrowed(id), ts }
    } else if r.eat(key::END) {
        let (id, pid, ts) = async_lane(&mut r, text)?;
        r.key(key::CLOSE)?;
        Record::Async { begin: false, pid, id: Cow::Borrowed(id), ts }
    } else if r.eat(key::PHASE) {
        let (pid, tid) = (r.num()?, r.u64(key::TID)?);
        let (ts, dur) = (r.u64(key::TS)?, r.u64(key::DUR)?);
        r.key(key::NO_ARGS)?;
        Record::Slice { pid, tid, ts, dur }
    } else if r.eat(key::TXN) {
        let (pid, tid) = (r.num()?, r.u64(key::TID)?);
        let (ts, dur) = (r.u64(key::TS)?, r.u64(key::DUR)?);
        r.u64(key::TXN_ARGS)?;
        r.u64(key::BLOCK)?;
        r.u64(key::RETRIES)?;
        r.u64(key::NACKS)?;
        r.flag(key::COMPLETE)?;
        r.key(key::CLOSE_ARGS)?;
        Record::Slice { pid, tid, ts, dur }
    } else if r.eat(key::COUNTER) {
        r.num()?;
        r.u64(key::TID)?;
        r.u64(key::TS)?;
        r.u64(key::VALUE_ARGS)?;
        r.key(key::CLOSE_ARGS)?;
        Record::Counter
    } else {
        r.key(key::META)?;
        r.num()?;
        r.u64(key::TID)?;
        r.string(key::META_ARGS)?;
        r.key(key::CLOSE_ARGS)?;
        Record::Meta
    };
    Some((record, r.consumed()))
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
    fn record(&mut self, record: Record<'a>) -> Result<(), String> {
        use std::collections::btree_map::Entry;
        let i = self.summary.events;
        self.summary.events += 1;
        match record {
            Record::Slice { pid, tid, ts, dur } => {
                self.slices.push((pid, tid, ts, dur));
                self.summary.slices += 1;
            }
            Record::Async { begin: true, pid, id, ts } => match self.open_async.entry((pid, id)) {
                Entry::Vacant(op) => {
                    op.insert(ts);
                }
                Entry::Occupied(op) => {
                    let id = &op.key().1;
                    return Err(format!("traceEvents[{i}]: async id `{id}` reopened on pid {pid}"));
                }
            },
            Record::Async { begin: false, pid, id, ts } => {
                let op = (pid, id);
                let begin = self.open_async.remove(&op);
                let id = op.1;
                let begin = begin.ok_or_else(|| {
                    format!("traceEvents[{i}]: async end `{id}` on pid {pid} without a begin")
                })?;
                if ts < begin {
                    return Err(format!(
                        "traceEvents[{i}]: async `{id}` ends at {ts} before its begin {begin}"
                    ));
                }
                self.summary.async_ops += 1;
            }
            Record::Counter => self.summary.counters += 1,
            Record::Meta => self.summary.meta += 1,
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
    fn hex_ids_are_written_as_format_writes_them() {
        for n in (0..64).flat_map(|s| [1u64 << s, (1u64 << s) - 1]).chain([u64::MAX]) {
            let mut out = Vec::new();
            push_hex(&mut out, n);
            assert_eq!(out, format!("{n:x}").into_bytes());
        }
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
