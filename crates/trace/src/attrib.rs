//! Traffic and occupancy attribution: *where the bytes went*.
//!
//! The paper's evaluation splits invalidation traffic out of total
//! traffic per scheme; this module refines that into the scheme-relevant
//! classes an analysis actually asks about — requests, data replies,
//! invalidations, acknowledgements, NACKs, replacement writebacks,
//! sparse-replacement flushes, and synchronization — each with a message
//! count, a byte count under a simple header+payload wire model, flits,
//! and flit·hops (the link-bandwidth integral).
//!
//! Classification keys off the *stable message labels*
//! (`scd-protocol::MsgKind::label`), so the same code attributes an
//! online run (the machine feeds labels as it sends) and an offline
//! trace ([`Attribution::from_events`]). The two agree exactly when the
//! trace recorded every send (unbounded rings, messages on).

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;

/// Schema tag of the attribution JSON document section (re-exported from
/// the consolidated [`crate::schema`] registry).
pub use crate::schema::ATTRIB_SCHEMA;

/// The attribution taxonomy. Finer than the paper's four network classes:
/// NACKs split out of replies, replacement writebacks out of requests,
/// and sparse-replacement flushes out of invalidations, because those are
/// exactly the flows the schemes trade against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttribClass {
    /// Read/write/upgrade requests, forwards, and race/transfer closers.
    Request,
    /// Data and ownership replies.
    Reply,
    /// Invalidations sent on a writer's behalf.
    Invalidation,
    /// Invalidation and flush acknowledgements.
    Ack,
    /// Transient refusals (the retry traffic the RAC absorbs).
    Nack,
    /// Replacement writebacks and sharing downgrades (cache-side
    /// evictions returning data to memory).
    Writeback,
    /// Sparse-directory / `Dir_i NB` replacement flushes (directory-side
    /// evictions invalidating covered copies).
    SparseFlush,
    /// Lock and barrier traffic.
    Sync,
    /// Tardis lease renewals (timestamp-only round trips that replace
    /// refetches — the traffic Tardis trades invalidations for).
    Renewal,
    /// DLS fills served from the home LLC slice to a non-caching remote
    /// reader (the repeat traffic DLS trades directory memory for).
    LlcFill,
}

impl AttribClass {
    /// Every class, in schema order. The first eight are the original
    /// `scd-attrib/v1` classes and are always emitted; the classes after
    /// them are protocol-specific and appear in documents only when
    /// nonzero, so DASH outputs are byte-identical to the 8-class era.
    pub const ALL: [AttribClass; 10] = [
        AttribClass::Request,
        AttribClass::Reply,
        AttribClass::Invalidation,
        AttribClass::Ack,
        AttribClass::Nack,
        AttribClass::Writeback,
        AttribClass::SparseFlush,
        AttribClass::Sync,
        AttribClass::Renewal,
        AttribClass::LlcFill,
    ];

    /// Stable schema name.
    pub fn label(self) -> &'static str {
        match self {
            AttribClass::Request => "requests",
            AttribClass::Reply => "replies",
            AttribClass::Invalidation => "invalidations",
            AttribClass::Ack => "acks",
            AttribClass::Nack => "nacks",
            AttribClass::Writeback => "writebacks",
            AttribClass::SparseFlush => "sparse_flushes",
            AttribClass::Sync => "sync",
            AttribClass::Renewal => "renewals",
            AttribClass::LlcFill => "llc_fills",
        }
    }

    /// Whether this class is omitted from documents when all-zero
    /// (protocol-specific classes added after `scd-attrib/v1` froze).
    pub fn optional(self) -> bool {
        matches!(self, AttribClass::Renewal | AttribClass::LlcFill)
    }

    /// Position in [`AttribClass::ALL`] (the variants are declared in
    /// schema order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Declares [`MESSAGES`] and [`message`] from one list of rows: the
/// look-up is a `match` over exactly the table's labels, not a scan.
macro_rules! messages {
    ($(($label:literal, $class:ident, $data:literal),)*) => {
        /// Every message kind as `(label, class, carries a block)`: the
        /// crate's one message vocabulary, held to `scd-protocol`'s
        /// `MsgKind::LABELS` by `crates/machine/tests/labels.rs`.
        pub const MESSAGES: &[(&str, AttribClass, bool)] =
            &[$(($label, AttribClass::$class, $data),)*];

        /// The [`MESSAGES`] row of a label.
        pub fn message(label: &str) -> Option<(&'static str, AttribClass, bool)> {
            match label { $($label => Some(($label, AttribClass::$class, $data)),)* _ => None }
        }
    };
}

messages! {
    ("read_req", Request, false),
    ("write_req", Request, false),
    ("writeback", Writeback, true),
    ("replacement_hint", Request, false),
    ("fwd_read", Request, false),
    ("fwd_write", Request, false),
    ("sharing_writeback", Writeback, true),
    ("ownership_transfer", Request, false),
    ("writeback_race", Request, false),
    ("read_reply", Reply, true),
    ("write_reply", Reply, true),
    ("transfer_reply", Reply, true),
    ("nack", Nack, false),
    ("inval", Invalidation, false),
    ("inval_ack", Ack, false),
    ("dir_flush", SparseFlush, false),
    ("dir_flush_ack", Ack, false),
    ("lock_req", Sync, false),
    ("lock_grant", Sync, false),
    ("lock_retry", Sync, false),
    ("unlock_req", Sync, false),
    ("barrier_arrive", Sync, false),
    ("barrier_release", Sync, false),
    ("tardis_read_req", Request, false),
    ("tardis_write_req", Request, false),
    ("tardis_read_reply", Reply, true),
    ("tardis_write_reply", Reply, true),
    ("renew_req", Renewal, false),
    ("renew_reply", Renewal, false),
    ("llc_fill", LlcFill, true),
    ("llc_write_ack", Reply, false),
}

/// What one message of a given label costs under a wire model: the
/// class it is charged to and its size. A pure function of
/// `(AttribParams, label)`, so a sender can resolve it once per label
/// ([`AttribParams::cost`]) and then record by value
/// ([`Attribution::record_class`]) with no string matching per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgCost {
    /// The class the message is charged to.
    pub class: AttribClass,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Flits on the wire.
    pub flits: u64,
}

/// The wire model: a fixed header per message, a data payload on the
/// labels that carry a block, and fixed-size flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttribParams {
    /// Bytes of header/command per message (address, type, identifiers).
    pub header_bytes: u64,
    /// Bytes of a data payload (the machine's block size).
    pub data_bytes: u64,
    /// Bytes per network flit.
    pub flit_bytes: u64,
}

impl Default for AttribParams {
    /// DASH-flavored defaults: 8-byte header, 16-byte blocks (the
    /// simulated machines' block size), 8-byte flits.
    fn default() -> Self {
        AttribParams {
            header_bytes: 8,
            data_bytes: 16,
            flit_bytes: 8,
        }
    }
}

impl AttribParams {
    /// The wire model with a machine's block size as the data payload.
    pub fn with_block_bytes(block_bytes: u64) -> Self {
        AttribParams {
            data_bytes: block_bytes,
            ..AttribParams::default()
        }
    }

    /// Everything [`Attribution::record`] derives from `label`, resolved
    /// with one [`MESSAGES`] lookup; an unknown label is a header-only
    /// request (a future protocol extension).
    pub fn cost(&self, label: &str) -> MsgCost {
        let (class, data) = message(label).map_or((AttribClass::Request, false), |m| (m.1, m.2));
        let bytes = self.header_bytes + if data { self.data_bytes } else { 0 };
        MsgCost {
            class,
            bytes,
            flits: bytes.div_ceil(self.flit_bytes.max(1)).max(1),
        }
    }
}

/// Accumulated counters of one attribution class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Messages sent.
    pub messages: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Flits on the wire.
    pub flits: u64,
    /// Flit·hops — each flit weighted by the links it crosses (the
    /// bandwidth the message actually consumed).
    pub flit_hops: u64,
}

impl ClassCounters {
    fn add(&mut self, bytes: u64, flits: u64, hops: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.flits += flits;
        self.flit_hops += flits * hops;
    }

    /// The counters as a JSON object — the per-class shape inside
    /// `scd-attrib/v1` and a streamed `attrib_delta`'s `classes` map.
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("messages", Json::U64(self.messages))
            .with("bytes", Json::U64(self.bytes))
            .with("flits", Json::U64(self.flits))
            .with("flit_hops", Json::U64(self.flit_hops))
    }

    /// Counter-wise difference against an `earlier` snapshot of the same
    /// class (saturating, so a stale baseline can't underflow).
    pub fn minus(self, earlier: ClassCounters) -> ClassCounters {
        ClassCounters {
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            flits: self.flits.saturating_sub(earlier.flits),
            flit_hops: self.flit_hops.saturating_sub(earlier.flit_hops),
        }
    }
}

/// The per-class traffic attribution of one run.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    params: AttribParams,
    classes: [ClassCounters; AttribClass::ALL.len()],
}

impl Attribution {
    /// An empty attribution under `params`.
    pub fn new(params: AttribParams) -> Self {
        Attribution {
            params,
            classes: Default::default(),
        }
    }

    /// The wire model in force.
    pub fn params(&self) -> AttribParams {
        self.params
    }

    /// Records one sent message by its stable label and hop count, and
    /// returns the flits it put on the wire (so callers can feed per-link
    /// accounting without re-deriving the model).
    pub fn record(&mut self, label: &str, hops: u32) -> u64 {
        self.record_class(self.params.cost(label), hops)
    }

    /// [`Attribution::record`] for a sender that resolved the label's
    /// [`MsgCost`] ahead of time (it must come from this attribution's
    /// own [`Attribution::params`]). Same accounting, no label matching.
    pub fn record_class(&mut self, cost: MsgCost, hops: u32) -> u64 {
        self.classes[cost.class.index()].add(cost.bytes, cost.flits, hops as u64);
        cost.flits
    }

    /// Counters of one class.
    pub fn class(&self, class: AttribClass) -> ClassCounters {
        self.classes[class.index()]
    }

    /// A snapshot of every class's counters, in [`AttribClass::ALL`]
    /// order — the baseline a streamed `attrib_delta` is diffed against
    /// (via [`ClassCounters::minus`]).
    pub fn counters(&self) -> [ClassCounters; AttribClass::ALL.len()] {
        self.classes
    }

    /// Sum over every class.
    pub fn totals(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for c in &self.classes {
            t.messages += c.messages;
            t.bytes += c.bytes;
            t.flits += c.flits;
            t.flit_hops += c.flit_hops;
        }
        t
    }

    /// Derives the attribution offline from a recorded event stream
    /// (every `msg_send` carries its label and hop count). Agrees with
    /// the online accounting when the trace is complete.
    pub fn from_events(events: &[TraceEvent], params: AttribParams) -> Self {
        let mut a = Attribution::new(params);
        for ev in events {
            if let EventKind::MsgSend { msg, hops, .. } = &ev.kind {
                a.record(msg, *hops);
            }
        }
        a
    }

    /// The `scd-attrib/v1` core: schema tag, wire model, per-class and
    /// total counters. Machine-side gauges (links, sparse pressure) are
    /// appended by the machine, which owns that state.
    pub fn to_json(&self) -> Json {
        let mut classes = Json::obj();
        for class in AttribClass::ALL {
            let c = self.class(class);
            if class.optional() && c.messages == 0 {
                continue;
            }
            classes.set(class.label(), c.to_json());
        }
        Json::obj()
            .with("schema", Json::Str(ATTRIB_SCHEMA.into()))
            .with(
                "params",
                Json::obj()
                    .with("header_bytes", Json::U64(self.params.header_bytes))
                    .with("data_bytes", Json::U64(self.params.data_bytes))
                    .with("flit_bytes", Json::U64(self.params.flit_bytes)),
            )
            .with("classes", classes)
            .with("totals", self.totals().to_json())
    }
}

/// Validates an `scd-attrib/v1` section: schema tag, every class present
/// with its counters, and totals equal to the per-class sums.
pub fn validate_attrib_json(j: &Json) -> Result<(), String> {
    let schema = j
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("attribution: missing `schema`")?;
    if schema != ATTRIB_SCHEMA {
        return Err(format!("attribution: unexpected schema `{schema}`"));
    }
    let classes = j.get("classes").ok_or("attribution: missing `classes`")?;
    let mut sums = [0u64; 4];
    for class in AttribClass::ALL {
        let c = match classes.get(class.label()) {
            Some(c) => c,
            // Protocol-specific classes are omitted when all-zero.
            None if class.optional() => continue,
            None => {
                return Err(format!(
                    "attribution: missing class `{}`",
                    class.label()
                ))
            }
        };
        for (i, key) in ["messages", "bytes", "flits", "flit_hops"].iter().enumerate() {
            sums[i] += c.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("attribution: classes.{}.{key} missing", class.label())
            })?;
        }
    }
    let totals = j.get("totals").ok_or("attribution: missing `totals`")?;
    for (i, key) in ["messages", "bytes", "flits", "flit_hops"].iter().enumerate() {
        let declared = totals
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("attribution: totals.{key} missing"))?;
        if declared != sums[i] {
            return Err(format!(
                "attribution: totals.{key} {declared} != sum of classes {}",
                sums[i]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_scheme_relevant_flows() {
        use AttribClass::*;
        let classify = |label| AttribParams::default().cost(label).class;
        assert_eq!(classify("read_req"), Request);
        assert_eq!(classify("fwd_write"), Request);
        assert_eq!(classify("read_reply"), Reply);
        assert_eq!(classify("nack"), Nack);
        assert_eq!(classify("inval"), Invalidation);
        assert_eq!(classify("inval_ack"), Ack);
        assert_eq!(classify("dir_flush_ack"), Ack);
        assert_eq!(classify("writeback"), Writeback);
        assert_eq!(classify("sharing_writeback"), Writeback);
        assert_eq!(classify("dir_flush"), SparseFlush);
        assert_eq!(classify("barrier_release"), Sync);
        assert_eq!(classify("renew_req"), Renewal);
        assert_eq!(classify("renew_reply"), Renewal);
        assert_eq!(classify("llc_fill"), LlcFill);
        assert_eq!(classify("llc_write_ack"), Reply);
        assert_eq!(classify("tardis_read_req"), Request);
        assert_eq!(classify("tardis_read_reply"), Reply);
        assert_eq!(classify("tardis_write_reply"), Reply);
        let labels: std::collections::HashSet<_> =
            AttribClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), AttribClass::ALL.len());
        for (i, c) in AttribClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} is declared out of schema order");
        }
    }

    #[test]
    fn optional_classes_are_omitted_when_zero_but_validate_when_present() {
        // A DASH-era mix: no renewals / LLC fills → the document carries
        // exactly the original eight classes (byte-compat with v1 docs).
        let mut dash = Attribution::new(AttribParams::default());
        dash.record("read_req", 1);
        let j = dash.to_json();
        validate_attrib_json(&j).unwrap();
        assert!(j.get("classes").unwrap().get("renewals").is_none());
        assert!(j.get("classes").unwrap().get("llc_fills").is_none());
        // A Tardis/DLS mix: both classes appear and count toward totals.
        let mut t = Attribution::new(AttribParams::default());
        t.record("renew_req", 2);
        t.record("renew_reply", 2);
        t.record("llc_fill", 3);
        let j = t.to_json();
        validate_attrib_json(&j).unwrap();
        let classes = j.get("classes").unwrap();
        assert_eq!(
            classes.get("renewals").unwrap().get("messages").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            classes.get("llc_fills").unwrap().get("messages").and_then(Json::as_u64),
            Some(1)
        );
        // llc_fill carries a data payload; renewals are header-only.
        assert!(message("llc_fill").is_some_and(|m| m.2));
        assert!(!message("renew_req").is_some_and(|m| m.2));
    }

    #[test]
    fn wire_model_charges_data_payloads() {
        let p = AttribParams::default();
        let size = |p: AttribParams, label| (p.cost(label).bytes, p.cost(label).flits);
        assert_eq!(size(p, "read_req"), (8, 1), "header only");
        assert_eq!(size(p, "read_reply"), (24, 3), "header + block");
        assert_eq!(size(AttribParams::with_block_bytes(64), "writeback"), (72, 9));
    }

    #[test]
    fn record_accumulates_and_reports_flits() {
        let mut a = Attribution::new(AttribParams::default());
        assert_eq!(a.record("read_req", 3), 1);
        assert_eq!(a.record("read_reply", 3), 3);
        assert_eq!(a.record("nack", 2), 1);
        let req = a.class(AttribClass::Request);
        assert_eq!((req.messages, req.bytes, req.flits, req.flit_hops), (1, 8, 1, 3));
        let rep = a.class(AttribClass::Reply);
        assert_eq!((rep.messages, rep.bytes, rep.flits, rep.flit_hops), (1, 24, 3, 9));
        assert_eq!(a.class(AttribClass::Nack).flit_hops, 2);
        let t = a.totals();
        assert_eq!((t.messages, t.bytes, t.flits, t.flit_hops), (3, 40, 5, 14));
    }

    #[test]
    fn offline_derivation_matches_online_recording() {
        use crate::event::{EventKind, TraceEvent};
        let sends = [("write_req", 2u32), ("inval", 1), ("inval_ack", 1), ("write_reply", 2)];
        let mut online = Attribution::new(AttribParams::default());
        let mut events = Vec::new();
        for (i, (label, hops)) in sends.iter().enumerate() {
            online.record(label, *hops);
            events.push(TraceEvent {
                seq: i as u64 + 1,
                cycle: i as u64,
                cluster: 0,
                kind: EventKind::MsgSend {
                    src: 0,
                    dst: 1,
                    msg: label,
                    class: "x",
                    block: Some(1),
                    hops: *hops,
                },
            });
        }
        let offline = Attribution::from_events(&events, AttribParams::default());
        assert_eq!(online.to_json().to_string(), offline.to_json().to_string());
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let mut a = Attribution::new(AttribParams::default());
        a.record("read_req", 1);
        a.record("dir_flush", 2);
        a.record("dir_flush_ack", 2);
        let j = a.to_json();
        validate_attrib_json(&j).unwrap();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        // Doctored totals fail.
        let mut bad = j.clone();
        bad.set(
            "totals",
            Json::obj()
                .with("messages", Json::U64(99))
                .with("bytes", Json::U64(0))
                .with("flits", Json::U64(0))
                .with("flit_hops", Json::U64(0)),
        );
        assert!(validate_attrib_json(&bad).unwrap_err().contains("totals"));
        assert!(validate_attrib_json(&Json::obj()).is_err());
    }
}
