//! The structured trace-event vocabulary.
//!
//! One [`TraceEvent`] records one observable step of the machine:
//! transaction lifecycle edges (begin, phase transition, end), NACK/retry
//! recovery, sparse-directory replacements, and raw message send/deliver
//! hops. Events carry a global sequence number (total order of recording)
//! and the simulated cycle, so per-cluster ring buffers can be merged back
//! into one causal history.

use crate::json::{write_escaped, Json};

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
    /// Stable schema name.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Issue => "issue",
            Phase::HomeLookup => "home_lookup",
            Phase::Fanout => "fanout",
            Phase::Reply => "reply",
        }
    }
}

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
        /// Why: `"write"` for a write fan-out, `"nb_evict"` for a
        /// `Dir_i NB` read-caused pointer eviction, `"swb_evict"` for a
        /// sharing-writeback-close eviction.
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
        /// Stable message-kind label (see `scd-protocol::MsgKind::label`).
        msg: &'static str,
        /// The paper's traffic class label.
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
    /// Stable schema name of this event type.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::TxnPhase { .. } => "txn_phase",
            EventKind::TxnEnd { .. } => "txn_end",
            EventKind::Nack { .. } => "nack",
            EventKind::Retry { .. } => "retry",
            EventKind::Inval { .. } => "inval",
            EventKind::Replacement { .. } => "replacement",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgDeliver { .. } => "msg_deliver",
        }
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

/// One field of an event's JSONL envelope, as [`TraceEvent::walk`] hands
/// it to a consumer.
#[derive(Clone, Copy)]
enum FieldValue {
    /// A counter, identifier or cycle.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A stable schema label.
    Str(&'static str),
}

impl From<FieldValue> for Json {
    fn from(v: FieldValue) -> Json {
        match v {
            FieldValue::U64(n) => Json::U64(n),
            FieldValue::Bool(b) => Json::Bool(b),
            FieldValue::Str(s) => Json::Str(s.into()),
        }
    }
}

/// Appends `n` in decimal from a stack buffer (no `fmt` machinery, no
/// heap). Inlined into each writer's field loop: the event writer ran
/// 10 % slower per line when sharing it with the Perfetto export made it
/// an out-of-line call.
#[inline]
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

impl TraceEvent {
    /// The event's schema: every key of its JSONL envelope with its
    /// value, in output order. This is the only place that says which
    /// fields an event kind has; [`TraceEvent::write_jsonl`] and
    /// [`TraceEvent::to_json`] are its two consumers.
    fn walk(&self, mut f: impl FnMut(&'static str, FieldValue)) {
        use FieldValue::{Bool, Str, U64};
        f("seq", U64(self.seq));
        f("cycle", U64(self.cycle));
        f("cluster", U64(self.cluster as u64));
        f("type", Str(self.kind.label()));
        match self.kind {
            EventKind::TxnBegin { txn, block, write } => {
                f("txn", U64(txn));
                f("block", U64(block));
                f("write", Bool(write));
            }
            EventKind::TxnPhase { txn, block, phase } => {
                f("txn", U64(txn));
                f("block", U64(block));
                f("phase", Str(phase.label()));
            }
            EventKind::TxnEnd {
                txn,
                block,
                latency,
                retries,
            } => {
                f("txn", U64(txn));
                f("block", U64(block));
                f("latency", U64(latency));
                f("retries", U64(retries as u64));
            }
            EventKind::Nack { txn, block } => {
                f("txn", U64(txn));
                f("block", U64(block));
            }
            EventKind::Retry {
                txn,
                block,
                attempt,
                backoff,
            } => {
                f("txn", U64(txn));
                f("block", U64(block));
                f("attempt", U64(attempt as u64));
                f("backoff", U64(backoff));
            }
            EventKind::Inval {
                block,
                targets,
                cause,
            } => {
                f("block", U64(block));
                f("targets", U64(targets as u64));
                f("cause", Str(cause));
            }
            EventKind::Replacement {
                victim,
                targets,
                dirty,
            } => {
                f("victim", U64(victim));
                f("targets", U64(targets as u64));
                f("dirty", Bool(dirty));
            }
            EventKind::MsgSend {
                src,
                dst,
                msg,
                class,
                block,
                hops,
            } => {
                f("src", U64(src as u64));
                f("dst", U64(dst as u64));
                f("msg", Str(msg));
                f("class", Str(class));
                if let Some(b) = block {
                    f("block", U64(b));
                }
                f("hops", U64(hops as u64));
            }
            EventKind::MsgDeliver {
                src,
                dst,
                msg,
                block,
            } => {
                f("src", U64(src as u64));
                f("dst", U64(dst as u64));
                f("msg", Str(msg));
                if let Some(b) = block {
                    f("block", U64(b));
                }
            }
        }
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`.
    /// This is the byte contract of every streamed, exported and replayed
    /// trace line. It allocates nothing beyond growing `out`, so a caller
    /// that reuses one buffer renders events without touching the heap.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        self.walk(|key, value| {
            if !first {
                out.push(',');
            }
            first = false;
            // Keys are `walk`'s own literals, plain ASCII; only values can
            // carry a caller's label and need the escaper.
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            match value {
                FieldValue::U64(n) => push_u64(out, n),
                FieldValue::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                FieldValue::Str(s) => {
                    write_escaped(out, s).expect("writing to a String cannot fail")
                }
            }
        });
        out.push('}');
    }

    /// The event as a [`Json`] object, for replay-side consumers and
    /// tests. `to_json().to_string()` equals [`TraceEvent::write_jsonl`]
    /// byte for byte (held by the property test in `tests/prop.rs`).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::with_capacity(10);
        self.walk(|key, value| fields.push((key.to_string(), value.into())));
        Json::Obj(fields)
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
