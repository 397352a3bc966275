//! The structured trace-event vocabulary.
//!
//! One [`TraceEvent`] records one observable step of the machine:
//! transaction lifecycle edges (begin, phase transition, end), NACK/retry
//! recovery, sparse-directory replacements, and raw message send/deliver
//! hops. Events carry a global sequence number (total order of recording)
//! and the simulated cycle, so per-cluster ring buffers can be merged back
//! into one causal history.

use std::fmt;

use scd_protocol::message;
use scd_stats::MessageClass;

use crate::json::{push_label, push_u64, Exact, Fields, Value};
use crate::sink::event_line;

/// A coherence-transaction lifecycle phase (the latency breakdown the
/// metrics registry histograms: issue → home lookup → invalidation
/// fan-out → reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The requester issued the request into the network.
    Issue,
    /// The home directory picked the request up (first service, not a
    /// queued replay).
    HomeLookup,
    /// The home sent the write's invalidation fan-out.
    Fanout,
    /// The requester observed the completing reply.
    Reply,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 4] = [Phase::Issue, Phase::HomeLookup, Phase::Fanout, Phase::Reply];

    /// Stable schema name.
    pub fn label(self) -> &'static str {
        ["issue", "home_lookup", "fanout", "reply"][self as usize]
    }
}

/// The `cause` labels of an [`EventKind::Inval`], the only ones
/// [`TraceEvent::parse`] accepts.
pub mod cause {
    /// A write's fan-out (or, with 0 targets, its ownership transfer).
    pub const WRITE: &str = "write";
    /// A `Dir_i NB` read-caused pointer eviction.
    pub const NB_EVICT: &str = "nb_evict";
    /// A sharing-writeback-close eviction.
    pub const SWB_EVICT: &str = "swb_evict";
    /// Every cause.
    pub const ALL: [&str; 3] = [WRITE, NB_EVICT, SWB_EVICT];
}

/// The `type`s of the stream-only records, which share the JSONL transport
/// with trace events and stay disjoint from [`EVENT_TYPES`], so a stream
/// splits into events and records.
pub mod record {
    /// The opening record of a single-run stream.
    pub const RUN_META: &str = "run_meta";
    /// One window of the interval time series.
    pub const INTERVAL: &str = "interval";
    /// One window's traffic, per class and per link.
    pub const ATTRIB_DELTA: &str = "attrib_delta";
    /// One directory-occupancy sample.
    pub const PATTERNS: &str = "patterns";
    /// The closing record of a single-run stream.
    pub const RUN_END: &str = "run_end";
    /// The opening record of a sweep stream.
    pub const SWEEP_BEGIN: &str = "sweep_begin";
    /// One finished run of a sweep.
    pub const SWEEP_RUN: &str = "sweep_run";
    /// The closing record of a sweep stream.
    pub const SWEEP_END: &str = "sweep_end";
    /// Every record type.
    pub const ALL: [&str; 8] =
        [RUN_META, INTERVAL, ATTRIB_DELTA, PATTERNS, RUN_END, SWEEP_BEGIN, SWEEP_RUN, SWEEP_END];
}

/// A field's key as the writer spells it, `,"name":`, in a byte array of
/// fixed length: the one spelling [`TraceEvent::write_jsonl`] emits and
/// [`read_exact`] compares in one constant-length step.
macro_rules! key {
    ($name:ident) => {{
        const KEY: &[u8; stringify!($name).len() + 4] =
            concat!(",\"", stringify!($name), "\":").as_bytes().first_chunk().unwrap();
        KEY
    }};
}

/// The first key, which opens the line.
const SEQ: &[u8; 7] = b"{\"seq\":";

/// One field on each path: its type's [`Field`] codec, or, for a
/// `&'static str` label, a [`Scalar::Label`] read by the resolver its row
/// names.
macro_rules! field {
    (scalar $v:ident: $ty:ty) => { Field::scalar($v) };
    (scalar $v:ident: $ty:ty as $named:ident) => { Some(Scalar::Label($v)) };
    (exact $r:ident, $f:ident: $ty:ty) => { <$ty as Field>::exact($r, key!($f)) };
    (exact $r:ident, $f:ident: $ty:ty as $named:ident) => { $r.label(key!($f), $named) };
    (lexed $l:ident $what:ident, $f:ident: $ty:ty) => { <$ty as Field>::lexed($l, stringify!($f)) };
    (lexed $l:ident $what:ident, $f:ident: $ty:ty as $named:ident) => {
        label($l, stringify!($f), $what, $named)
    };
}

/// Declares [`EventKind`] and everything that follows from its fields: a
/// row per kind gives its variant, its `type` label and its fields in
/// output order. [`EVENT_TYPES`], [`EventKind::index`], the writer and
/// both readers are generated from the rows. A field's type picks its
/// codec ([`Field`]); a `&'static str` label names the resolver of its
/// vocabulary after `as`.
macro_rules! events {
    ($($(#[$doc:meta])* $kind:ident = $label:literal {
        $($(#[$fdoc:meta])* $f:ident: $ty:ty $(as $named:ident)?,)*
    })*) => {
        /// What happened.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $kind { $($(#[$fdoc])* $f: $ty,)* },)*
        }

        /// The variants without their fields: a kind's position in
        /// [`EVENT_TYPES`].
        enum Row { $($kind,)* }

        /// The nine trace-event `type`s, in [`EventKind`] order. Stream-only
        /// [`record`] types stay disjoint from them.
        pub const EVENT_TYPES: [&str; [$($label),*].len()] = [$($label),*];

        impl EventKind {
            /// Position of this event type in [`EVENT_TYPES`].
            pub fn index(&self) -> usize {
                match self { $(EventKind::$kind { .. } => Row::$kind as usize,)* }
            }

            /// Appends the payload's fields, each key then value.
            #[inline(always)]
            fn write(&self, out: &mut Vec<u8>) {
                match *self {
                    $(EventKind::$kind { $($f),* } => {
                        $(if let Some(v) = field!(scalar $f: $ty $(as $named)?) {
                            v.write(key!($f), out);
                        })*
                    })*
                }
            }

            /// The payload of a `ty` line after its `type`, as the writer
            /// spells it.
            #[inline(always)]
            fn exact(ty: &str, r: &mut Exact<'_>) -> Option<Self> {
                Some(match ty {
                    $($label => EventKind::$kind { $($f: field!(exact r, $f: $ty $(as $named)?)?,)* },)*
                    _ => return None,
                })
            }

            /// The payload of a lexed `ty` line, fields checked in output
            /// order.
            fn lexed(ty: &str, fields: &Fields<'_>) -> Result<Self, String> {
                Ok(match ty {
                    $($label => EventKind::$kind {
                        $($f: field!(lexed fields ty, $f: $ty $(as $named)?)?,)*
                    },)*
                    other => return Err(format!("unknown event type `{other}`")),
                })
            }
        }
    };
}

events! {
    /// A coherence transaction (read or write miss) issued its request.
    TxnBegin = "txn_begin" {
        /// Transaction id, unique within the run.
        txn: u64,
        /// The block.
        block: u64,
        /// Whether this is a write/ownership transaction.
        write: bool,
    }
    /// A transaction crossed a lifecycle phase.
    TxnPhase = "txn_phase" {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// The phase entered.
        phase: Phase,
    }
    /// A transaction completed at its requester.
    TxnEnd = "txn_end" {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// Cycles from issue to completion.
        latency: u64,
        /// NACK-driven reissues the transaction absorbed.
        retries: u32,
    }
    /// The home refused a request with a transient NACK.
    Nack = "nack" {
        /// Transaction id (the requester's outstanding MSHR).
        txn: u64,
        /// The block.
        block: u64,
    }
    /// A requester reissued a NACKed request after exponential backoff.
    Retry = "retry" {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// Reissue ordinal, starting at 1.
        attempt: u32,
        /// Backoff delay in cycles before the reissue.
        backoff: u64,
    }
    /// The home directory decided an invalidation set: one event per
    /// directory write transaction (and per `Dir_i NB` pointer-overflow
    /// eviction), weighted by the invalidation messages sent. The
    /// event-stream mirror of the `RunStats::invalidations` histogram,
    /// and the raw input of the sharing-pattern classifier.
    Inval = "inval" {
        /// The block whose sharers were invalidated.
        block: u64,
        /// Invalidation messages sent (0 for a write that found a dirty
        /// owner to forward to — an ownership transfer, no fan-out).
        targets: u32,
        /// Why: one of the [`cause`] labels.
        cause: &'static str as cause_named,
    }
    /// A sparse-directory (or overflow wide-slot) entry was displaced and
    /// its covered copies flushed.
    Replacement = "replacement" {
        /// The victim block losing its entry.
        victim: u64,
        /// Clusters flushed.
        targets: u32,
        /// Whether the victim entry recorded a dirty owner.
        dirty: bool,
    }
    /// A protocol message entered the network.
    MsgSend = "msg_send" {
        /// Source cluster.
        src: u32,
        /// Destination cluster.
        dst: u32,
        /// Stable message-kind label ([`scd_protocol::MESSAGES`]).
        msg: &'static str as msg_named,
        /// The paper's traffic class label ([`MessageClass::label`]) of
        /// `msg`'s row.
        class: &'static str as class_named,
        /// The block concerned, if any.
        block: Option<u64>,
        /// Mesh hops the message traverses.
        hops: u32,
    }
    /// A protocol message reached its destination cluster.
    MsgDeliver = "msg_deliver" {
        /// Source cluster.
        src: u32,
        /// Destination cluster.
        dst: u32,
        /// Stable message-kind label.
        msg: &'static str as msg_named,
        /// The block concerned, if any.
        block: Option<u64>,
    }
}

impl EventKind {
    /// Stable schema name of this event type.
    pub fn label(&self) -> &'static str {
        EVENT_TYPES[self.index()]
    }

    /// What a row cannot say: a `msg_send`'s `class` is its `msg`'s paper
    /// class, the only one the recorder writes.
    fn check(&self) -> Result<(), String> {
        let EventKind::MsgSend { msg, class, .. } = *self else { return Ok(()) };
        let paper = message(msg).map_or("", |m| m.class.label());
        if class == paper {
            return Ok(());
        }
        Err(format!("msg_send `class` `{class}` is not `{msg}`'s class `{paper}`"))
    }
}

/// One recorded event: where and when, plus the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global recording order (strictly increasing across the whole run).
    pub seq: u64,
    /// Simulated cycle.
    pub cycle: u64,
    /// Cluster the event is attributed to (requester for transaction
    /// edges, home for directory-side events, src/dst for messages).
    pub cluster: u32,
    /// The payload.
    pub kind: EventKind,
}

/// A field's value as the writer spells it.
#[derive(Clone, Copy)]
enum Scalar {
    Int(u64),
    Flag(bool),
    Label(&'static str),
}

impl Scalar {
    /// Appends `key` and the value.
    #[inline(always)]
    fn write<const N: usize>(self, key: &[u8; N], out: &mut Vec<u8>) {
        out.extend_from_slice(key);
        match self {
            Scalar::Int(n) => push_u64(out, n),
            Scalar::Flag(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
            Scalar::Label(s) => push_label(out, s),
        }
    }
}

/// A field type's codec: the scalar the writer takes, and how each reader
/// takes it back.
trait Field: Copy {
    /// The value as written; `None` for an absent optional.
    fn scalar(self) -> Option<Scalar>;
    /// The value after `key` in the writer's spelling, else `None`.
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self>;
    /// The value under `key` of a lexed line, or why not.
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn scalar(self) -> Option<Scalar> {
        Some(Scalar::Int(self))
    }
    #[inline(always)]
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self> {
        r.u64(key)
    }
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String> {
        int(fields, key)
    }
}

impl Field for u32 {
    fn scalar(self) -> Option<Scalar> {
        Some(Scalar::Int(self.into()))
    }
    #[inline(always)]
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self> {
        r.u32(key)
    }
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String> {
        int(fields, key)
    }
}

impl Field for Option<u64> {
    fn scalar(self) -> Option<Scalar> {
        self.map(Scalar::Int)
    }
    #[inline(always)]
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self> {
        r.opt_u64(key)
    }
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String> {
        fields.get(key).map(|_| int(fields, key)).transpose()
    }
}

impl Field for bool {
    fn scalar(self) -> Option<Scalar> {
        Some(Scalar::Flag(self))
    }
    #[inline(always)]
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self> {
        r.flag(key)
    }
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String> {
        let flag = fields.get(key).and_then(Value::as_bool);
        flag.ok_or_else(|| format!("missing or non-boolean `{key}`"))
    }
}

impl Field for Phase {
    fn scalar(self) -> Option<Scalar> {
        Some(Scalar::Label(self.label()))
    }
    #[inline(always)]
    fn exact<const N: usize>(r: &mut Exact<'_>, key: &[u8; N]) -> Option<Self> {
        r.label(key, phase_named)
    }
    fn lexed(fields: &Fields<'_>, key: &str) -> Result<Self, String> {
        label(fields, key, key, phase_named)
    }
}

/// The vocabularies a label resolves against, shared by both readers.
fn phase_named(s: &str) -> Option<Phase> {
    Phase::ALL.into_iter().find(|p| p.label() == s)
}

fn cause_named(s: &str) -> Option<&'static str> {
    cause::ALL.into_iter().find(|c| *c == s)
}

fn msg_named(s: &str) -> Option<&'static str> {
    message(s).map(|m| m.label)
}

fn class_named(s: &str) -> Option<&'static str> {
    MessageClass::ALL.map(MessageClass::label).into_iter().find(|c| *c == s)
}

/// An integer field of a lexed line, in range for `T`.
fn int<T: TryFrom<u64>>(fields: &Fields<'_>, key: &str) -> Result<T, String> {
    let n = fields.get(key).and_then(Value::as_u64);
    let n = n.ok_or_else(|| format!("missing or non-integer `{key}`"))?;
    let range = || format!("`{key}` {n} out of range for {}", std::any::type_name::<T>());
    T::try_from(n).map_err(|_| range())
}

/// The label under `key`, resolved by `f`; missing, "`what` without `key`".
fn label<T>(
    fields: &Fields<'_>,
    key: &str,
    what: &str,
    f: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let s = fields.get(key).and_then(Value::as_str);
    let s = s.ok_or_else(|| format!("{what} without `{key}`"))?;
    f(s).ok_or_else(|| format!("unknown `{key}` label `{s}`"))
}

/// The exact-bytes reader alone: the event when `line` is byte for byte
/// a line [`TraceEvent::write_jsonl`] could have written (the keys in its
/// order, each value in its spelling, each label in its vocabulary),
/// `None` otherwise. Public for the tests that hold it to the lexer path,
/// not as an API.
#[doc(hidden)]
#[inline]
pub fn read_exact(line: &str) -> Option<TraceEvent> {
    let mut r = Exact::new(line);
    let (seq, cycle, cluster) = (r.u64(SEQ)?, r.u64(key!(cycle))?, r.u32(key!(cluster))?);
    let kind = EventKind::exact(r.label(key!(type), Some)?, &mut r)?;
    r.end()?;
    kind.check().ok()?;
    Some(TraceEvent { seq, cycle, cluster, kind })
}

/// The lexer path alone, as [`TraceEvent::parse`] takes it for a line
/// [`read_exact`] refuses. Public for the same tests.
#[doc(hidden)]
pub fn read_lexed(line: &str) -> Result<TraceEvent, String> {
    decode(&Fields::parse(line)?)
}

/// The typed event of a lexed line, fields checked in output order.
fn decode(fields: &Fields<'_>) -> Result<TraceEvent, String> {
    let (seq, cycle, cluster) = (int(fields, "seq")?, int(fields, "cycle")?, int(fields, "cluster")?);
    let ty = fields.get("type").and_then(Value::as_str).ok_or("missing `type`")?;
    let kind = EventKind::lexed(ty, fields)?;
    kind.check()?;
    Ok(TraceEvent { seq, cycle, cluster, kind })
}

/// One event line read in one pass: the event itself when the line is
/// the writer's exact bytes, else its lexed fields.
pub(crate) enum EventLine<'a> {
    /// [`TraceEvent::write_jsonl`]'s bytes, read by [`read_exact`].
    Exact(TraceEvent),
    /// Any other spelling, read by the lexer. Boxed: the fields are ten
    /// times the event's size, and only a line off the writer's bytes
    /// pays for them.
    Lexed(Box<Fields<'a>>),
}

impl<'a> EventLine<'a> {
    /// Reads `text` as one JSON document: the writer's bytes directly,
    /// anything else through the lexer, which alone gives errors.
    #[inline]
    pub(crate) fn lex(text: &'a str) -> Result<Self, String> {
        match read_exact(text) {
            Some(ev) => Ok(EventLine::Exact(ev)),
            None => Fields::parse(text).map(|fields| EventLine::Lexed(Box::new(fields))),
        }
    }

    /// The `type`, if the line has a string one.
    pub(crate) fn type_label(&self) -> Option<&str> {
        match self {
            EventLine::Exact(ev) => Some(ev.kind.label()),
            EventLine::Lexed(fields) => fields.get("type")?.as_str(),
        }
    }

    /// The `cycle`, if the line has an integer one.
    pub(crate) fn cycle(&self) -> Option<u64> {
        match self {
            EventLine::Exact(ev) => Some(ev.cycle),
            EventLine::Lexed(fields) => fields.get("cycle")?.as_u64(),
        }
    }

    /// The typed event.
    pub(crate) fn decode(self) -> Result<TraceEvent, String> {
        match self {
            EventLine::Exact(ev) => Ok(ev),
            EventLine::Lexed(fields) => decode(&fields),
        }
    }
}

impl TraceEvent {
    /// Appends the event's JSONL line (no trailing newline) to `out`.
    /// This is the byte contract of every streamed, exported and replayed
    /// trace line. The bytes are UTF-8 — ASCII punctuation, decimals and
    /// JSON-escaped labels — which a caller that needs a `str` checks once
    /// per line or per file rather than once per field. It allocates
    /// nothing beyond growing `out`, so a caller that reuses one buffer
    /// renders events without touching the heap.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        Scalar::Int(self.seq).write(SEQ, out);
        Scalar::Int(self.cycle).write(key!(cycle), out);
        Scalar::Int(self.cluster.into()).write(key!(cluster), out);
        Scalar::Label(self.kind.label()).write(key!(type), out);
        self.kind.write(out);
        out.push(b'}');
    }

    /// The event as its line, borrowed: the view's `Display` writes
    /// [`TraceEvent::write_jsonl`]'s bytes, so `to_json().to_string()` is
    /// the line. Kept for `benchmark/src` (ROADMAP.md 1(a)); a caller with
    /// a buffer to reuse calls the writer.
    pub fn to_json(&self) -> Jsonl<'_> {
        Jsonl(self)
    }

    /// Reads one JSONL line back, the inverse of [`TraceEvent::write_jsonl`]
    /// and the only reader of event payloads from text: every field's type
    /// and range, every label's vocabulary checked; no line number in errors.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        EventLine::lex(line)?.decode()
    }

    /// One-line human rendering for post-mortem tails.
    pub fn render(&self) -> String {
        format!("[{:>8}] #{} {:?}", self.cycle, self.seq, self.kind)
    }
}

/// A [`TraceEvent`] viewed as its JSONL line ([`TraceEvent::to_json`]).
#[derive(Debug)]
pub struct Jsonl<'a>(pub(crate) &'a TraceEvent);

impl fmt::Display for Jsonl<'_> {
    /// One buffer per line, handed to the formatter in one piece.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&event_line(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn jsonl_has_stable_envelope() {
        let ev = TraceEvent {
            seq: 3,
            cycle: 120,
            cluster: 2,
            kind: EventKind::TxnBegin {
                txn: 1,
                block: 64,
                write: true,
            },
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"seq":3,"cycle":120,"cluster":2,"type":"txn_begin","txn":1,"block":64,"write":true}"#
        );
    }

    #[test]
    fn every_kind_serializes_with_its_label() {
        let kinds = vec![
            EventKind::TxnBegin { txn: 1, block: 2, write: false },
            EventKind::TxnPhase { txn: 1, block: 2, phase: Phase::HomeLookup },
            EventKind::TxnEnd { txn: 1, block: 2, latency: 10, retries: 0 },
            EventKind::Nack { txn: 1, block: 2 },
            EventKind::Retry { txn: 1, block: 2, attempt: 1, backoff: 15 },
            EventKind::Inval { block: 2, targets: 3, cause: "write" },
            EventKind::Replacement { victim: 2, targets: 3, dirty: true },
            EventKind::MsgSend {
                src: 0, dst: 1, msg: "read_req", class: "request", block: Some(2), hops: 1,
            },
            EventKind::MsgDeliver { src: 0, dst: 1, msg: "read_req", block: Some(2) },
        ];
        for kind in kinds {
            let label = kind.label();
            let ev = TraceEvent { seq: 0, cycle: 0, cluster: 0, kind };
            let j = Json::parse(&ev.to_json().to_string()).expect("the line is JSON");
            assert_eq!(j.get("type").and_then(Json::as_str), Some(label));
        }
    }

    #[test]
    fn phase_labels_are_distinct() {
        let labels = [
            Phase::Issue.label(),
            Phase::HomeLookup.label(),
            Phase::Fanout.label(),
            Phase::Reply.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
