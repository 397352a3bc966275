//! The structured trace-event vocabulary.
//!
//! One [`TraceEvent`] records one observable step of the machine:
//! transaction lifecycle edges (begin, phase transition, end), NACK/retry
//! recovery, sparse-directory replacements, and raw message send/deliver
//! hops. Events carry a global sequence number (total order of recording)
//! and the simulated cycle, so per-cluster ring buffers can be merged back
//! into one causal history.

use scd_stats::MessageClass;

use crate::attrib::message;
use crate::json::{push_label, push_u64, Exact, Fields, Json, Key, Value};

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

/// The nine trace-event `type`s, in [`EventKind`] order. Stream-only record
/// types stay disjoint from them, so a stream splits into events and records.
pub const EVENT_TYPES: [&str; 9] = [
    "txn_begin", "txn_phase", "txn_end", "nack", "retry", "inval", "replacement", "msg_send",
    "msg_deliver",
];

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A coherence transaction (read or write miss) issued its request.
    TxnBegin {
        /// Transaction id, unique within the run.
        txn: u64,
        /// The block.
        block: u64,
        /// Whether this is a write/ownership transaction.
        write: bool,
    },
    /// A transaction crossed a lifecycle phase.
    TxnPhase {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// The phase entered.
        phase: Phase,
    },
    /// A transaction completed at its requester.
    TxnEnd {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// Cycles from issue to completion.
        latency: u64,
        /// NACK-driven reissues the transaction absorbed.
        retries: u32,
    },
    /// The home refused a request with a transient NACK.
    Nack {
        /// Transaction id (the requester's outstanding MSHR).
        txn: u64,
        /// The block.
        block: u64,
    },
    /// A requester reissued a NACKed request after exponential backoff.
    Retry {
        /// Transaction id.
        txn: u64,
        /// The block.
        block: u64,
        /// Reissue ordinal, starting at 1.
        attempt: u32,
        /// Backoff delay in cycles before the reissue.
        backoff: u64,
    },
    /// The home directory decided an invalidation set: one event per
    /// directory write transaction (and per `Dir_i NB` pointer-overflow
    /// eviction), weighted by the invalidation messages sent. The
    /// event-stream mirror of the `RunStats::invalidations` histogram,
    /// and the raw input of the sharing-pattern classifier.
    Inval {
        /// The block whose sharers were invalidated.
        block: u64,
        /// Invalidation messages sent (0 for a write that found a dirty
        /// owner to forward to — an ownership transfer, no fan-out).
        targets: u32,
        /// Why: one of the [`cause`] labels.
        cause: &'static str,
    },
    /// A sparse-directory (or overflow wide-slot) entry was displaced and
    /// its covered copies flushed.
    Replacement {
        /// The victim block losing its entry.
        victim: u64,
        /// Clusters flushed.
        targets: u32,
        /// Whether the victim entry recorded a dirty owner.
        dirty: bool,
    },
    /// A protocol message entered the network.
    MsgSend {
        /// Source cluster.
        src: u32,
        /// Destination cluster.
        dst: u32,
        /// Stable message-kind label ([`crate::attrib::MESSAGES`]).
        msg: &'static str,
        /// The paper's traffic class label ([`MessageClass::label`]).
        class: &'static str,
        /// The block concerned, if any.
        block: Option<u64>,
        /// Mesh hops the message traverses.
        hops: u32,
    },
    /// A protocol message reached its destination cluster.
    MsgDeliver {
        /// Source cluster.
        src: u32,
        /// Destination cluster.
        dst: u32,
        /// Stable message-kind label.
        msg: &'static str,
        /// The block concerned, if any.
        block: Option<u64>,
    },
}

impl EventKind {
    /// Position of this event type in [`EVENT_TYPES`].
    pub fn index(&self) -> usize {
        match self {
            EventKind::TxnBegin { .. } => 0,
            EventKind::TxnPhase { .. } => 1,
            EventKind::TxnEnd { .. } => 2,
            EventKind::Nack { .. } => 3,
            EventKind::Retry { .. } => 4,
            EventKind::Inval { .. } => 5,
            EventKind::Replacement { .. } => 6,
            EventKind::MsgSend { .. } => 7,
            EventKind::MsgDeliver { .. } => 8,
        }
    }

    /// Stable schema name of this event type.
    pub fn label(&self) -> &'static str {
        EVENT_TYPES[self.index()]
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

/// `walk`'s keys as the writer spells them, punctuation included: the one
/// set [`LineWriter`] emits and [`read_exact`] compares.
mod key {
    crate::json::keys! {
        SEQ = b"{\"seq\":", CYCLE = b",\"cycle\":", CLUSTER = b",\"cluster\":",
        TYPE = b",\"type\":", TXN = b",\"txn\":", BLOCK = b",\"block\":", WRITE = b",\"write\":",
        PHASE = b",\"phase\":", LATENCY = b",\"latency\":", RETRIES = b",\"retries\":",
        ATTEMPT = b",\"attempt\":", BACKOFF = b",\"backoff\":", TARGETS = b",\"targets\":",
        CAUSE = b",\"cause\":", VICTIM = b",\"victim\":", DIRTY = b",\"dirty\":",
        SRC = b",\"src\":", DST = b",\"dst\":", MSG = b",\"msg\":", CLASS = b",\"class\":",
        HOPS = b",\"hops\":",
    }
}

/// What [`TraceEvent::walk`] drives, a call per field in output order. A key
/// comes punctuated (`{"seq":`, `,"name":`) in a byte array of fixed length.
trait FieldVisitor {
    /// A counter, identifier or cycle.
    fn u64<const N: usize>(&mut self, key: &'static [u8; N], n: u64);
    /// A flag.
    fn boolean<const N: usize>(&mut self, key: &'static [u8; N], b: bool);
    /// A stable schema label.
    fn label<const N: usize>(&mut self, key: &'static [u8; N], s: &'static str);
}

/// The line writer: each field is its punctuated key, then its value.
struct LineWriter<'a>(&'a mut Vec<u8>);

impl FieldVisitor for LineWriter<'_> {
    #[inline(always)]
    fn u64<const N: usize>(&mut self, key: &'static [u8; N], n: u64) {
        self.0.extend_from_slice(key);
        push_u64(self.0, n);
    }

    #[inline(always)]
    fn boolean<const N: usize>(&mut self, key: &'static [u8; N], b: bool) {
        self.0.extend_from_slice(key);
        self.0.extend_from_slice(if b { b"true" } else { b"false" });
    }

    #[inline(always)]
    fn label<const N: usize>(&mut self, key: &'static [u8; N], s: &'static str) {
        self.0.extend_from_slice(key);
        push_label(self.0, s);
    }
}

/// The tree builder: a [`Json`] object's fields, named by the bare keys.
struct TreeBuilder(Vec<(Key, Json)>);

impl TreeBuilder {
    fn push(&mut self, key: &'static [u8], value: Json) {
        let name = std::str::from_utf8(&key[2..key.len() - 2]);
        self.0.push((Key::Borrowed(name.expect("keys are `walk`'s ASCII literals")), value));
    }
}

impl FieldVisitor for TreeBuilder {
    fn u64<const N: usize>(&mut self, key: &'static [u8; N], n: u64) {
        self.push(key, Json::U64(n));
    }

    fn boolean<const N: usize>(&mut self, key: &'static [u8; N], b: bool) {
        self.push(key, Json::Bool(b));
    }

    fn label<const N: usize>(&mut self, key: &'static [u8; N], s: &'static str) {
        self.push(key, Json::Str(s.into()));
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
    message(s).map(|m| m.0)
}

fn class_named(s: &str) -> Option<&'static str> {
    MessageClass::ALL.map(MessageClass::label).into_iter().find(|c| *c == s)
}

/// The exact-bytes reader alone: the event when `line` is byte for byte
/// a line `walk` and [`TraceEvent::write_jsonl`] could have written (the
/// keys in `walk`'s order, each value in the writer's spelling, each label
/// in its vocabulary), `None` otherwise. Public for the tests that hold it
/// to the lexer path, not as an API.
#[doc(hidden)]
#[inline]
pub fn read_exact(line: &str) -> Option<TraceEvent> {
    use EventKind::*;
    let mut r = Exact::new(line);
    let (seq, cycle, cluster) = (r.u64(key::SEQ)?, r.u64(key::CYCLE)?, r.u32(key::CLUSTER)?);
    let kind = match r.label(key::TYPE, Some)? {
        "txn_begin" => TxnBegin {
            txn: r.u64(key::TXN)?, block: r.u64(key::BLOCK)?, write: r.flag(key::WRITE)?,
        },
        "txn_phase" => TxnPhase {
            txn: r.u64(key::TXN)?, block: r.u64(key::BLOCK)?,
            phase: r.label(key::PHASE, phase_named)?,
        },
        "txn_end" => TxnEnd {
            txn: r.u64(key::TXN)?, block: r.u64(key::BLOCK)?,
            latency: r.u64(key::LATENCY)?, retries: r.u32(key::RETRIES)?,
        },
        "nack" => Nack { txn: r.u64(key::TXN)?, block: r.u64(key::BLOCK)? },
        "retry" => Retry {
            txn: r.u64(key::TXN)?, block: r.u64(key::BLOCK)?,
            attempt: r.u32(key::ATTEMPT)?, backoff: r.u64(key::BACKOFF)?,
        },
        "inval" => Inval {
            block: r.u64(key::BLOCK)?, targets: r.u32(key::TARGETS)?,
            cause: r.label(key::CAUSE, cause_named)?,
        },
        "replacement" => Replacement {
            victim: r.u64(key::VICTIM)?, targets: r.u32(key::TARGETS)?,
            dirty: r.flag(key::DIRTY)?,
        },
        "msg_send" => MsgSend {
            src: r.u32(key::SRC)?, dst: r.u32(key::DST)?, msg: r.label(key::MSG, msg_named)?,
            class: r.label(key::CLASS, class_named)?, block: r.opt_u64(key::BLOCK)?,
            hops: r.u32(key::HOPS)?,
        },
        "msg_deliver" => MsgDeliver {
            src: r.u32(key::SRC)?, dst: r.u32(key::DST)?, msg: r.label(key::MSG, msg_named)?,
            block: r.opt_u64(key::BLOCK)?,
        },
        _ => return None,
    };
    r.end()?;
    Some(TraceEvent { seq, cycle, cluster, kind })
}

/// The lexer path alone, as [`TraceEvent::parse`] takes it for a line
/// [`read_exact`] refuses. Public for the same tests.
#[doc(hidden)]
pub fn read_lexed(line: &str) -> Result<TraceEvent, String> {
    decode(&Fields::parse(line)?)
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

/// An integer field of a lexed line, in range for `T`.
fn int<T: TryFrom<u64>>(fields: &Fields<'_>, key: &str) -> Result<T, String> {
    let n = fields.get(key).and_then(Value::as_u64);
    let n = n.ok_or_else(|| format!("missing or non-integer `{key}`"))?;
    let range = || format!("`{key}` {n} out of range for {}", std::any::type_name::<T>());
    T::try_from(n).map_err(|_| range())
}

fn boolean(fields: &Fields<'_>, key: &str) -> Result<bool, String> {
    let flag = fields.get(key).and_then(Value::as_bool);
    flag.ok_or_else(|| format!("missing or non-boolean `{key}`"))
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

/// The typed event of a lexed line, a kind to a row, fields checked in
/// `walk`'s order.
fn decode(fields: &Fields<'_>) -> Result<TraceEvent, String> {
    use EventKind::*;
    let (long, short) = (|key| int::<u64>(fields, key), |key| int::<u32>(fields, key));
    let (seq, cycle, cluster) = (long("seq")?, long("cycle")?, short("cluster")?);
    let ty = fields.get("type").and_then(Value::as_str).ok_or("missing `type`")?;
    let (txn, block, flag) = (|| long("txn"), || long("block"), |key| boolean(fields, key));
    let phase = || label(fields, "phase", "phase", phase_named);
    let why = || label(fields, "cause", ty, cause_named);
    let msg = || label(fields, "msg", ty, msg_named);
    let opt_block = || fields.get("block").map(|_| long("block")).transpose();
    let class = || label(fields, "class", ty, class_named);
    let kind = match ty {
        "txn_begin" => TxnBegin { txn: txn()?, block: block()?, write: flag("write")? },
        "txn_phase" => TxnPhase { txn: txn()?, block: block()?, phase: phase()? },
        "txn_end" => TxnEnd {
            txn: txn()?, block: block()?,
            latency: long("latency")?, retries: short("retries")?,
        },
        "nack" => Nack { txn: txn()?, block: block()? },
        "retry" => Retry {
            txn: txn()?, block: block()?,
            attempt: short("attempt")?, backoff: long("backoff")?,
        },
        "inval" => Inval { block: block()?, targets: short("targets")?, cause: why()? },
        "replacement" => Replacement {
            victim: long("victim")?, targets: short("targets")?, dirty: flag("dirty")?,
        },
        "msg_send" => MsgSend {
            src: short("src")?, dst: short("dst")?, msg: msg()?, class: class()?,
            block: opt_block()?, hops: short("hops")?,
        },
        "msg_deliver" => MsgDeliver {
            src: short("src")?, dst: short("dst")?, msg: msg()?, block: opt_block()?,
        },
        other => return Err(format!("unknown event type `{other}`")),
    };
    Ok(TraceEvent { seq, cycle, cluster, kind })
}

impl TraceEvent {
    /// The event's schema: every key of its JSONL envelope with its
    /// value, in output order. This is the only place that says which
    /// fields an event kind has; [`TraceEvent::write_jsonl`] and
    /// [`TraceEvent::to_json`] are its two consumers, and
    /// [`TraceEvent::parse`] its inverse (held to it by the round-trip
    /// property in `tests/prop.rs`).
    #[inline(always)]
    fn walk(&self, f: &mut impl FieldVisitor) {
        f.u64(key::SEQ, self.seq);
        f.u64(key::CYCLE, self.cycle);
        f.u64(key::CLUSTER, self.cluster as u64);
        f.label(key::TYPE, self.kind.label());
        match self.kind {
            EventKind::TxnBegin { txn, block, write } => {
                f.u64(key::TXN, txn);
                f.u64(key::BLOCK, block);
                f.boolean(key::WRITE, write);
            }
            EventKind::TxnPhase { txn, block, phase } => {
                f.u64(key::TXN, txn);
                f.u64(key::BLOCK, block);
                f.label(key::PHASE, phase.label());
            }
            EventKind::TxnEnd {
                txn,
                block,
                latency,
                retries,
            } => {
                f.u64(key::TXN, txn);
                f.u64(key::BLOCK, block);
                f.u64(key::LATENCY, latency);
                f.u64(key::RETRIES, retries as u64);
            }
            EventKind::Nack { txn, block } => {
                f.u64(key::TXN, txn);
                f.u64(key::BLOCK, block);
            }
            EventKind::Retry {
                txn,
                block,
                attempt,
                backoff,
            } => {
                f.u64(key::TXN, txn);
                f.u64(key::BLOCK, block);
                f.u64(key::ATTEMPT, attempt as u64);
                f.u64(key::BACKOFF, backoff);
            }
            EventKind::Inval {
                block,
                targets,
                cause,
            } => {
                f.u64(key::BLOCK, block);
                f.u64(key::TARGETS, targets as u64);
                f.label(key::CAUSE, cause);
            }
            EventKind::Replacement {
                victim,
                targets,
                dirty,
            } => {
                f.u64(key::VICTIM, victim);
                f.u64(key::TARGETS, targets as u64);
                f.boolean(key::DIRTY, dirty);
            }
            EventKind::MsgSend {
                src,
                dst,
                msg,
                class,
                block,
                hops,
            } => {
                f.u64(key::SRC, src as u64);
                f.u64(key::DST, dst as u64);
                f.label(key::MSG, msg);
                f.label(key::CLASS, class);
                if let Some(b) = block {
                    f.u64(key::BLOCK, b);
                }
                f.u64(key::HOPS, hops as u64);
            }
            EventKind::MsgDeliver {
                src,
                dst,
                msg,
                block,
            } => {
                f.u64(key::SRC, src as u64);
                f.u64(key::DST, dst as u64);
                f.label(key::MSG, msg);
                if let Some(b) = block {
                    f.u64(key::BLOCK, b);
                }
            }
        }
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`.
    /// This is the byte contract of every streamed, exported and replayed
    /// trace line. The bytes are UTF-8 — ASCII punctuation, decimals and
    /// JSON-escaped labels — which a caller that needs a `str` checks once
    /// per line or per file rather than once per field. It allocates
    /// nothing beyond growing `out`, so a caller that reuses one buffer
    /// renders events without touching the heap.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        self.walk(&mut LineWriter(out));
        out.push(b'}');
    }

    /// The event as a [`Json`] object, for replay-side consumers and
    /// tests. `to_json().to_string()` equals [`TraceEvent::write_jsonl`]
    /// byte for byte (held by the property test in `tests/prop.rs`).
    pub fn to_json(&self) -> Json {
        let mut fields = TreeBuilder(Vec::with_capacity(10));
        self.walk(&mut fields);
        Json::Obj(fields.0)
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

#[cfg(test)]
mod tests {
    use super::*;

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
            let j = ev.to_json();
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
