//! The structured trace-event vocabulary.
//!
//! One [`TraceEvent`] records one observable step of the machine:
//! transaction lifecycle edges (begin, phase transition, end), NACK/retry
//! recovery, sparse-directory replacements, and raw message send/deliver
//! hops. Events carry a global sequence number (total order of recording)
//! and the simulated cycle, so per-cluster ring buffers can be merged back
//! into one causal history.

use crate::json::{write_escaped, Json, Key, Utf8};

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

/// What [`TraceEvent::walk`] drives: one call per field of the JSONL
/// envelope, in output order.
///
/// A key arrives punctuated the way the line needs it — `{"seq":` for the
/// first field, `,"name":` for every other — as a byte array, so its
/// length is part of the call's type: the line writer's copy of a key is a
/// constant-length copy whether or not the call was inlined, and a
/// consumer that wants the bare name strips two bytes from each end
/// ([`bare_key`]).
trait FieldVisitor {
    /// A counter, identifier or cycle.
    fn u64<const N: usize>(&mut self, key: &'static [u8; N], n: u64);
    /// A flag.
    fn boolean<const N: usize>(&mut self, key: &'static [u8; N], b: bool);
    /// A stable schema label.
    fn label<const N: usize>(&mut self, key: &'static [u8; N], s: &'static str);
}

/// The name inside a punctuated key: `,"cycle":` is `cycle`.
fn bare_key(key: &'static [u8]) -> Key {
    let name = std::str::from_utf8(&key[2..key.len() - 2]);
    Key::Borrowed(name.expect("keys are `walk`'s ASCII literals"))
}

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `n` in decimal: two digits per division, from a stack buffer
/// (no `fmt` machinery, no heap). The one decimal writer of the crate's
/// renderers — every event line and every Perfetto record goes through it.
///
/// The digits land right-aligned in the first half of the buffer and
/// leave as one constant-length copy starting at the first digit, cut
/// back to the digit count: a 20-byte move the compiler inlines, where a
/// copy of exactly 1..=20 bytes is a call into `memcpy`.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    const WIDTH: usize = 20; // digits of `u64::MAX`
    let mut buf = [0u8; 2 * WIDTH];
    let mut i = WIDTH;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    let window: &[u8; WIDTH] = buf[i..i + WIDTH].try_into().expect("WIDTH bytes");
    let end = out.len() + (WIDTH - i);
    out.extend_from_slice(window);
    out.truncate(end);
}

/// Appends `s` as a quoted JSON string. A label the machine supplies is a
/// plain identifier: one scan, one copy. Only a string with a byte JSON
/// must escape goes through the escaper, so both paths produce [`Json`]'s
/// bytes.
#[inline]
pub(crate) fn push_label(out: &mut Vec<u8>, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        write_escaped(&mut Utf8(out), s).expect("writing to a Vec cannot fail");
    } else {
        out.push(b'"');
        out.extend_from_slice(s.as_bytes());
        out.push(b'"');
    }
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

/// The tree builder: the same fields as a [`Json`] object's.
struct TreeBuilder(Vec<(Key, Json)>);

impl FieldVisitor for TreeBuilder {
    fn u64<const N: usize>(&mut self, key: &'static [u8; N], n: u64) {
        self.0.push((bare_key(key), Json::U64(n)));
    }

    fn boolean<const N: usize>(&mut self, key: &'static [u8; N], b: bool) {
        self.0.push((bare_key(key), Json::Bool(b)));
    }

    fn label<const N: usize>(&mut self, key: &'static [u8; N], s: &'static str) {
        self.0.push((bare_key(key), Json::Str(s.into())));
    }
}

impl TraceEvent {
    /// The event's schema: every key of its JSONL envelope with its
    /// value, in output order. This is the only place that says which
    /// fields an event kind has; [`TraceEvent::write_jsonl`] and
    /// [`TraceEvent::to_json`] are its two consumers.
    #[inline(always)]
    fn walk(&self, f: &mut impl FieldVisitor) {
        f.u64(b"{\"seq\":", self.seq);
        f.u64(b",\"cycle\":", self.cycle);
        f.u64(b",\"cluster\":", self.cluster as u64);
        f.label(b",\"type\":", self.kind.label());
        match self.kind {
            EventKind::TxnBegin { txn, block, write } => {
                f.u64(b",\"txn\":", txn);
                f.u64(b",\"block\":", block);
                f.boolean(b",\"write\":", write);
            }
            EventKind::TxnPhase { txn, block, phase } => {
                f.u64(b",\"txn\":", txn);
                f.u64(b",\"block\":", block);
                f.label(b",\"phase\":", phase.label());
            }
            EventKind::TxnEnd {
                txn,
                block,
                latency,
                retries,
            } => {
                f.u64(b",\"txn\":", txn);
                f.u64(b",\"block\":", block);
                f.u64(b",\"latency\":", latency);
                f.u64(b",\"retries\":", retries as u64);
            }
            EventKind::Nack { txn, block } => {
                f.u64(b",\"txn\":", txn);
                f.u64(b",\"block\":", block);
            }
            EventKind::Retry {
                txn,
                block,
                attempt,
                backoff,
            } => {
                f.u64(b",\"txn\":", txn);
                f.u64(b",\"block\":", block);
                f.u64(b",\"attempt\":", attempt as u64);
                f.u64(b",\"backoff\":", backoff);
            }
            EventKind::Inval {
                block,
                targets,
                cause,
            } => {
                f.u64(b",\"block\":", block);
                f.u64(b",\"targets\":", targets as u64);
                f.label(b",\"cause\":", cause);
            }
            EventKind::Replacement {
                victim,
                targets,
                dirty,
            } => {
                f.u64(b",\"victim\":", victim);
                f.u64(b",\"targets\":", targets as u64);
                f.boolean(b",\"dirty\":", dirty);
            }
            EventKind::MsgSend {
                src,
                dst,
                msg,
                class,
                block,
                hops,
            } => {
                f.u64(b",\"src\":", src as u64);
                f.u64(b",\"dst\":", dst as u64);
                f.label(b",\"msg\":", msg);
                f.label(b",\"class\":", class);
                if let Some(b) = block {
                    f.u64(b",\"block\":", b);
                }
                f.u64(b",\"hops\":", hops as u64);
            }
            EventKind::MsgDeliver {
                src,
                dst,
                msg,
                block,
            } => {
                f.u64(b",\"src\":", src as u64);
                f.u64(b",\"dst\":", dst as u64);
                f.label(b",\"msg\":", msg);
                if let Some(b) = block {
                    f.u64(b",\"block\":", b);
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
