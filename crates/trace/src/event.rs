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
use crate::json::{write_escaped, Json, Key, Lexer, Utf8, Value};

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

/// `walk`'s keys as the writer spells them, punctuation included: the one
/// set [`LineWriter`] emits and the exact-bytes reader ([`Exact`]) compares.
mod key {
    macro_rules! keys {
        ($($name:ident = $bytes:literal,)*) => {
            $(pub(super) const $name: &[u8; $bytes.len()] = $bytes;)*
        };
    }

    keys! {
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

/// A cursor over a line as [`TraceEvent::write_jsonl`] writes it. Each
/// read compares the next bytes with what the writer would have put
/// there and gives `None` at the first difference, without saying why:
/// [`EventLine::lex`] then hands the line to the lexer, which does.
struct Exact<'a> {
    text: &'a str,
    /// What is left of `text` to read.
    rest: &'a [u8],
}

impl<'a> Exact<'a> {
    #[inline(always)]
    fn key<const N: usize>(&mut self, key: &[u8; N]) -> Option<()> {
        let (at, rest) = self.rest.split_first_chunk()?;
        (at == key).then(|| self.rest = rest)
    }

    /// `key`, then an integer as `push_u64` writes it, with no leading
    /// zero. Nineteen digits cannot overflow; a twentieth can, so that
    /// rare run is read again with the check.
    #[inline(always)]
    fn u64<const N: usize>(&mut self, key: &[u8; N]) -> Option<u64> {
        self.key(key)?;
        let digits = self.rest;
        let mut v = 0u64;
        let mut n = 0;
        while let Some(d) = digits.get(n).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            v = v.wrapping_mul(10).wrapping_add(d as u64);
            n += 1;
        }
        let v = match n {
            0 => return None,
            1 => v,
            _ if digits[0] == b'0' => return None,
            2..=19 => v,
            20 => std::str::from_utf8(&digits[..n]).ok()?.parse().ok()?,
            _ => return None,
        };
        self.rest = &digits[n..];
        Some(v)
    }

    #[inline(always)]
    fn u32<const N: usize>(&mut self, key: &[u8; N]) -> Option<u32> {
        self.u64(key)?.try_into().ok()
    }

    /// `key`, then the optional field's integer; `Some(None)` when the
    /// next key is another.
    #[inline(always)]
    fn opt_u64<const N: usize>(&mut self, key: &[u8; N]) -> Option<Option<u64>> {
        if self.rest.starts_with(key) {
            self.u64(key).map(Some)
        } else {
            Some(None)
        }
    }

    #[inline(always)]
    fn flag<const N: usize>(&mut self, key: &[u8; N]) -> Option<bool> {
        self.key(key)?;
        let (b, len) = match self.rest.first()? {
            b't' if self.rest.starts_with(b"true") => (true, 4),
            b'f' if self.rest.starts_with(b"false") => (false, 5),
            _ => return None,
        };
        self.rest = &self.rest[len..];
        Some(b)
    }

    /// `key`, then a quoted label resolved by `named`. Every vocabulary
    /// word is a plain identifier, so a label spelled with an escape (or
    /// holding a control byte) resolves to nothing here.
    #[inline(always)]
    fn label<T, const N: usize>(
        &mut self,
        key: &[u8; N],
        named: impl Fn(&'a str) -> Option<T>,
    ) -> Option<T> {
        self.key(key)?;
        let rest = self.rest.strip_prefix(b"\"")?;
        let len = closing_quote(rest)?;
        let start = self.text.len() - rest.len();
        self.rest = &rest[len + 1..];
        // Quotes are ASCII, so both cuts are char boundaries.
        named(&self.text[start..start + len])
    }

    /// The writer's `}`, the last byte of the line.
    #[inline(always)]
    fn end(&self) -> Option<()> {
        (self.rest == b"}").then_some(())
    }

    /// The event, when `text` is byte for byte a line `walk` and
    /// `write_jsonl` could have written: the keys in `walk`'s order, each
    /// value in the writer's spelling, each label in its vocabulary.
    #[inline]
    fn read(text: &'a str) -> Option<TraceEvent> {
        use EventKind::*;
        let mut r = Exact { text, rest: text.as_bytes() };
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
}

/// The first `"` in `bytes`, eight bytes to a step: a byte loop's exit
/// branch, taken once per label at a length it cannot predict, cost more
/// than the rest of the label. `x` is zero in the byte that held a quote,
/// and the lowest byte the zero-byte test flags is always a true zero.
#[inline(always)]
fn closing_quote(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut n = 0;
    while let Some(chunk) = bytes[n..].first_chunk::<8>() {
        let x = u64::from_le_bytes(*chunk) ^ (ONES * u64::from(b'"'));
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(n + zero.trailing_zeros() as usize / 8);
        }
        n += 8;
    }
    bytes[n..].iter().position(|&b| b == b'"').map(|at| n + at)
}

/// The exact-bytes reader alone: the event when `line` is byte for byte
/// what [`TraceEvent::write_jsonl`] writes, `None` otherwise. Public for
/// the tests that hold it to the lexer path, not as an API.
#[doc(hidden)]
pub fn read_exact(line: &str) -> Option<TraceEvent> {
    Exact::read(line)
}

/// The lexer path alone, as [`TraceEvent::parse`] takes it for a line
/// [`read_exact`] refuses. Public for the same tests.
#[doc(hidden)]
pub fn read_lexed(line: &str) -> Result<TraceEvent, String> {
    Slots::lex(line)?.decode()
}

/// Declares [`Slot`], one per envelope key, and [`KEYS`] from one list;
/// [`Slot::of`] is a `match`, so a key costs a few compares, not a scan.
macro_rules! slots {
    ($($slot:ident = $key:literal,)*) => {
        #[derive(Clone, Copy)]
        enum Slot { $($slot,)* }

        const KEYS: &[&str] = &[$($key,)*];

        impl Slot {
            #[inline]
            fn of(key: &str) -> Option<Slot> {
                match key { $($key => Some(Slot::$slot),)* _ => None }
            }
        }
    };
}

slots! {
    Seq = "seq", Cycle = "cycle", Cluster = "cluster", Type = "type", Txn = "txn",
    Block = "block", Write = "write", Phase = "phase", Latency = "latency",
    Retries = "retries", Attempt = "attempt", Backoff = "backoff", Targets = "targets",
    Cause = "cause", Victim = "victim", Dirty = "dirty", Src = "src", Dst = "dst",
    Msg = "msg", Class = "class", Hops = "hops",
}

/// One event line read in one pass: the event itself when the line is
/// the writer's exact bytes, else its lexed fields.
pub(crate) enum EventLine<'a> {
    /// [`TraceEvent::write_jsonl`]'s bytes, read by [`Exact`].
    Exact(TraceEvent),
    /// Any other spelling, read by the lexer. Boxed: the slots are ten
    /// times the event's size, and only a line off the writer's bytes
    /// pays for them.
    Lexed(Box<Slots<'a>>),
}

impl<'a> EventLine<'a> {
    /// Reads `text` as one JSON document: the writer's bytes directly,
    /// anything else through the lexer, which alone gives errors.
    #[inline]
    pub(crate) fn lex(text: &'a str) -> Result<Self, String> {
        match Exact::read(text) {
            Some(ev) => Ok(EventLine::Exact(ev)),
            None => Slots::lex(text).map(|slots| EventLine::Lexed(Box::new(slots))),
        }
    }

    /// The `type`, if the line has a string one.
    pub(crate) fn type_label(&self) -> Option<&str> {
        match self {
            EventLine::Exact(ev) => Some(ev.kind.label()),
            EventLine::Lexed(slots) => slots.get(Slot::Type)?.as_str(),
        }
    }

    /// The `cycle`, if the line has an integer one.
    pub(crate) fn cycle(&self) -> Option<u64> {
        match self {
            EventLine::Exact(ev) => Some(ev.cycle),
            EventLine::Lexed(slots) => slots.get(Slot::Cycle)?.as_u64(),
        }
    }

    /// The typed event.
    pub(crate) fn decode(self) -> Result<TraceEvent, String> {
        match self {
            EventLine::Exact(ev) => Ok(ev),
            EventLine::Lexed(slots) => slots.decode(),
        }
    }
}

/// A lexed line: the first value of each envelope key (as
/// [`crate::Fields::get`] finds it), typed by [`Slots::decode`].
pub(crate) struct Slots<'a>([Option<Value<'a>>; KEYS.len()]);

impl<'a> Slots<'a> {
    /// Lexes `text` as one JSON document; a non-object has no fields.
    #[inline]
    fn lex(text: &'a str) -> Result<Self, String> {
        let mut line = Slots([const { None }; KEYS.len()]);
        let mut lexer = Lexer::new(text);
        lexer.fields(|key, value| {
            if let Some(slot) = Slot::of(&key) {
                line.0[slot as usize].get_or_insert(value);
            }
        })?;
        lexer.end()?;
        Ok(line)
    }

    fn get(&self, slot: Slot) -> Option<&Value<'a>> {
        self.0[slot as usize].as_ref()
    }

    /// An integer field, in range for `T`.
    fn int<T: TryFrom<u64>>(&self, slot: Slot) -> Result<T, String> {
        let key = KEYS[slot as usize];
        let n = self.get(slot).and_then(Value::as_u64);
        let n = n.ok_or_else(|| format!("missing or non-integer `{key}`"))?;
        let range = || format!("`{key}` {n} out of range for {}", std::any::type_name::<T>());
        T::try_from(n).map_err(|_| range())
    }

    fn flag(&self, slot: Slot) -> Result<bool, String> {
        let flag = self.get(slot).and_then(Value::as_bool);
        flag.ok_or_else(|| format!("missing or non-boolean `{}`", KEYS[slot as usize]))
    }

    /// The label in `slot`, resolved by `f`; missing, "`what` without `key`".
    fn label<T>(&self, slot: Slot, what: &str, f: impl Fn(&str) -> Option<T>) -> Result<T, String> {
        let key = KEYS[slot as usize];
        let s = self.get(slot).and_then(Value::as_str);
        let s = s.ok_or_else(|| format!("{what} without `{key}`"))?;
        f(s).ok_or_else(|| format!("unknown `{key}` label `{s}`"))
    }

    /// The typed event, a kind to a row, fields checked in `walk`'s order.
    fn decode(&self) -> Result<TraceEvent, String> {
        use EventKind::*;
        use Slot as S;
        let (long, short) = (|s| self.int::<u64>(s), |s| self.int::<u32>(s));
        let (seq, cycle, cluster) = (long(S::Seq)?, long(S::Cycle)?, short(S::Cluster)?);
        let ty = self.get(S::Type).and_then(Value::as_str).ok_or("missing `type`")?;
        let (txn, block, flag) = (|| long(S::Txn), || long(S::Block), |s| self.flag(s));
        let phase = || self.label(S::Phase, "phase", phase_named);
        let why = || self.label(S::Cause, ty, cause_named);
        let msg = || self.label(S::Msg, ty, msg_named);
        let opt_block = || self.get(S::Block).map(|_| long(S::Block)).transpose();
        let class = || self.label(S::Class, ty, class_named);
        let kind = match ty {
            "txn_begin" => TxnBegin { txn: txn()?, block: block()?, write: flag(S::Write)? },
            "txn_phase" => TxnPhase { txn: txn()?, block: block()?, phase: phase()? },
            "txn_end" => TxnEnd {
                txn: txn()?, block: block()?,
                latency: long(S::Latency)?, retries: short(S::Retries)?,
            },
            "nack" => Nack { txn: txn()?, block: block()? },
            "retry" => Retry {
                txn: txn()?, block: block()?,
                attempt: short(S::Attempt)?, backoff: long(S::Backoff)?,
            },
            "inval" => Inval { block: block()?, targets: short(S::Targets)?, cause: why()? },
            "replacement" => Replacement {
                victim: long(S::Victim)?, targets: short(S::Targets)?, dirty: flag(S::Dirty)?,
            },
            "msg_send" => MsgSend {
                src: short(S::Src)?, dst: short(S::Dst)?, msg: msg()?, class: class()?,
                block: opt_block()?, hops: short(S::Hops)?,
            },
            "msg_deliver" => MsgDeliver {
                src: short(S::Src)?, dst: short(S::Dst)?, msg: msg()?, block: opt_block()?,
            },
            other => return Err(format!("unknown event type `{other}`")),
        };
        Ok(TraceEvent { seq, cycle, cluster, kind })
    }
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
