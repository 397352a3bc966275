//! Property tests for the two JSON contracts of the crate.
//!
//! Writing: the allocation-free writer ([`TraceEvent::write_jsonl`]) and
//! the `Json` tree ([`TraceEvent::to_json`]) are two consumers of one
//! schema table and must agree on every byte, for every event kind, at the
//! edges of every field; and the decoders ([`TraceEvent::parse`],
//! [`IntervalSnapshot::parse`]) read every line of the machine's
//! vocabulary, and every interval window, back to what was written.
//!
//! Reading: the tree ([`Json::parse`]) and the flat view ([`Fields`]) are
//! two folds over one lexer and must agree on every document — what they
//! accept, what they find, and the error they give. Under
//! [`TraceEvent::parse`], the exact-bytes reader must take every line the
//! writer writes, and on any other line must leave the answer to the
//! lexer path: the same event or the same error text.
//!
//! [`validate_perfetto`] has the same two passes: its exact-bytes reader
//! must take every record [`to_perfetto`] writes, and on any other
//! document leave the verdict and its text to the lexer.
//!
//! And the ordering contract between them: the live stream
//! ([`StreamPump`]) must emit the lines the post-hoc merge
//! ([`Tracer::merged`]) exports, in its order, without seeing the future.

use proptest::prelude::*;
use proptest::TestRng;
use scd_stats::MessageClass;
use scd_protocol::{message, MESSAGES};
use scd_trace::event::{cause, read_exact, read_lexed};
use scd_trace::json::Value;
use scd_trace::perfetto::{self, exact_records, to_perfetto_numbered};
use scd_trace::{
    event_line, interval_record, run_end_record, to_perfetto, validate_perfetto, BufferSink,
    EventKind, Fields, IntervalSnapshot, Json, MsgSpan, Phase, PhaseSpan, SpanTree, StreamPump,
    TraceConfig, TraceEvent, Tracer, TxnSpan,
};

/// Field values biased to the edges a decimal formatter gets wrong.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(9u64),
        Just(10u64),
        Just(10_000_000_000_000_000_000u64),
        any::<u64>(),
        0u64..100_000,
    ]
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 0u32..64]
}

/// Labels as the machine supplies them, plus ones a careless caller could
/// pass (the fields are `pub &'static str`): the writer must escape
/// exactly as `Json`'s `Display` does.
fn label() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("read_req"),
        Just("write"),
        Just(""),
        Just("quo\"te"),
        Just("back\\slash\n\ttab"),
        Just("ctl\u{1}\u{1f}"),
        Just("caf\u{e9} \u{1f980}"),
        // Longer than any line buffer one would size by looking at real
        // traces: 300 plain bytes, and 64 bytes that each take the
        // escaper's six-byte `\u00XX` form.
        Just(leaked("plain_label.".repeat(25))),
        Just(leaked((0..64u8).map(|i| char::from(1 + i % 8)).collect())),
    ]
}

/// The event fields are `&'static str`; a test that wants a computed label
/// leaks it.
fn leaked(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::Issue),
        Just(Phase::HomeLookup),
        Just(Phase::Fanout),
        Just(Phase::Reply),
    ]
}

fn block() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), edge_u64().prop_map(Some)]
}

/// A message, class or cause label strategy.
type Labels = BoxedStrategy<&'static str>;

/// Every event kind at the edges of its fields, with `(msg, class)` and
/// `cause` labels drawn from the given strategies.
fn kind_over(
    msg_class: BoxedStrategy<(&'static str, &'static str)>,
    cause: Labels,
) -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (edge_u64(), edge_u64(), any::<bool>())
            .prop_map(|(txn, block, write)| EventKind::TxnBegin { txn, block, write }),
        (edge_u64(), edge_u64(), phase()).prop_map(|(txn, block, phase)| EventKind::TxnPhase {
            txn,
            block,
            phase
        }),
        (edge_u64(), edge_u64(), edge_u64(), edge_u32()).prop_map(
            |(txn, block, latency, retries)| EventKind::TxnEnd {
                txn,
                block,
                latency,
                retries
            }
        ),
        (edge_u64(), edge_u64()).prop_map(|(txn, block)| EventKind::Nack { txn, block }),
        (edge_u64(), edge_u64(), edge_u32(), edge_u64()).prop_map(
            |(txn, block, attempt, backoff)| EventKind::Retry {
                txn,
                block,
                attempt,
                backoff
            }
        ),
        (edge_u64(), edge_u32(), cause).prop_map(|(block, targets, cause)| EventKind::Inval {
            block,
            targets,
            cause
        }),
        (edge_u64(), edge_u32(), any::<bool>()).prop_map(|(victim, targets, dirty)| {
            EventKind::Replacement {
                victim,
                targets,
                dirty,
            }
        }),
        (edge_u32(), edge_u32(), msg_class.clone(), block(), edge_u32())
            .prop_map(|(src, dst, (msg, class), block, hops)| EventKind::MsgSend {
                src,
                dst,
                msg,
                class,
                block,
                hops
            }),
        (edge_u32(), edge_u32(), msg_class, block()).prop_map(|(src, dst, (msg, _), block)| {
            EventKind::MsgDeliver {
                src,
                dst,
                msg,
                block,
            }
        }),
    ]
}

/// Labels as a careless caller could pass them: what the writer must
/// escape.
fn kind() -> impl Strategy<Value = EventKind> {
    kind_over((label(), label()).boxed(), label().boxed())
}

/// One of `labels`, uniformly.
fn one_of(labels: Vec<&'static str>) -> Labels {
    (0..labels.len()).prop_map(move |i| labels[i]).boxed()
}

/// Labels as the machine supplies them: the vocabularies the decoder
/// accepts, each message with its own class.
fn vocabulary_kind() -> impl Strategy<Value = EventKind> {
    let msg_class = (0..MESSAGES.len()).prop_map(|i| (MESSAGES[i].label, MESSAGES[i].class.label()));
    kind_over(msg_class.boxed(), one_of(cause::ALL.to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn writer_and_json_tree_agree_on_every_byte(
        seq in edge_u64(),
        cycle in edge_u64(),
        cluster in edge_u32(),
        kind in kind(),
    ) {
        let ev = TraceEvent { seq, cycle, cluster, kind };
        // Appends: whatever the buffer held stays put.
        let mut line = b"prefix".to_vec();
        ev.write_jsonl(&mut line);
        let line = line.strip_prefix(b"prefix").expect("the writer only appends");
        let line = std::str::from_utf8(line).expect("the writer emits UTF-8");
        prop_assert_eq!(line, ev.to_json().to_string());
        prop_assert_eq!(line, event_line(&ev));
        prop_assert_eq!(Json::parse(line).expect("the line is JSON"), ev.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// The decoder is the writer's inverse over every event the machine
    /// can record.
    #[test]
    fn the_decoder_inverts_the_writer(
        seq in edge_u64(),
        cycle in edge_u64(),
        cluster in edge_u32(),
        kind in vocabulary_kind(),
    ) {
        let ev = TraceEvent { seq, cycle, cluster, kind };
        prop_assert_eq!(TraceEvent::parse(&event_line(&ev)), Ok(ev));
    }

    /// The exact-bytes reader takes every line the writer writes. A
    /// reader that fell back to the lexer would still pass the round trip
    /// above; this is the property that catches it.
    #[test]
    fn the_exact_reader_takes_every_written_line(
        seq in edge_u64(),
        cycle in edge_u64(),
        cluster in edge_u32(),
        kind in vocabulary_kind(),
    ) {
        let ev = TraceEvent { seq, cycle, cluster, kind };
        prop_assert_eq!(read_exact(&event_line(&ev)), Some(ev));
    }

    /// The window decoder is the inverse of `IntervalSnapshot::to_json`,
    /// field for field.
    #[test]
    fn the_window_decoder_inverts_to_json(
        start in edge_u64(),
        end in edge_u64(),
        messages in edge_u64(),
        retries in edge_u64(),
        nacks in edge_u64(),
        occupancy in edge_u64(),
        ops_retired in edge_u64(),
    ) {
        let s = IntervalSnapshot { start, end, messages, retries, nacks, occupancy, ops_retired };
        prop_assert_eq!(IntervalSnapshot::parse(&s.to_json().to_string()), Ok(s));
    }
}

/// The strategies above must actually reach all nine kinds (a
/// `prop_oneof!` arm dropped in an edit would silently shrink the
/// properties).
#[test]
fn the_kind_strategy_covers_every_event_type() {
    let mut all = scd_trace::EVENT_TYPES.to_vec();
    all.sort_unstable();
    let kinds: [BoxedStrategy<EventKind>; 2] = [kind().boxed(), vocabulary_kind().boxed()];
    for strategy in kinds {
        let mut rng = proptest::TestRng::new(1);
        let seen: std::collections::BTreeSet<&str> = (0..2000)
            .map(|_| strategy.generate(&mut rng).label())
            .collect();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
    }
}

/// Every label of every vocabulary, through the exact reader: each
/// message kind with its class, with and without a `block`, on both
/// message events; each phase; each cause.
#[test]
fn the_exact_reader_takes_every_label() {
    let mut kinds: Vec<EventKind> = Phase::ALL
        .into_iter()
        .map(|phase| EventKind::TxnPhase { txn: 1, block: 2, phase })
        .chain(cause::ALL.map(|cause| EventKind::Inval { block: 2, targets: 3, cause }))
        .collect();
    for msg in MESSAGES.iter().map(|m| m.label) {
        for block in [None, Some(7), Some(u64::MAX)] {
            kinds.push(EventKind::MsgDeliver { src: 0, dst: u32::MAX, msg, block });
            let class = message(msg).expect("a MESSAGES label").class.label();
            kinds.push(EventKind::MsgSend { src: 1, dst: 0, msg, class, block, hops: 9 });
        }
    }
    for kind in kinds {
        let ev = TraceEvent { seq: 10, cycle: u64::MAX, cluster: u32::MAX, kind };
        assert_eq!(read_exact(&event_line(&ev)), Some(ev.clone()), "{}", event_line(&ev));
    }
}

/// A line's `(key, value)` texts, in order.
type FieldTexts = Vec<(String, String)>;

/// A written line as its `(key, value)` texts. Vocabulary labels hold no
/// `,`, `:` or `"`, so the cuts are exact.
fn fields_of(line: &str) -> FieldTexts {
    let body = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')).expect("an object");
    let field = |f: &str| {
        let (k, v) = f.split_once(':').expect("`key:value`");
        (k.to_string(), v.to_string())
    };
    body.split(',').map(field).collect()
}

/// `fields` written back, with `colon` and `comma` after each separator.
fn line_of(fields: &[(String, String)], colon: &str, comma: &str) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}:{colon}{v}")).collect();
    format!("{{{}}}", fields.join(&format!(",{comma}")))
}

/// Spellings of `line` that are not the writer's bytes: each one a place
/// where an exact-bytes reader could go wrong.
fn perturbations(line: &str) -> Vec<String> {
    const U32_KEYS: [&str; 7] = ["cluster", "retries", "attempt", "targets", "src", "dst", "hops"];
    let fields = fields_of(line);
    let n = fields.len();
    let mut out = vec![
        line_of(&fields, " ", ""),
        line_of(&fields, "", " "),
        line_of(&fields, "\t", "\n"),
        format!("{line} "),
        format!(" {line}"),
        format!("{line}}}"),
        format!("{line}{line}"),
    ];
    let mut edit = |f: &dyn Fn(&mut FieldTexts)| {
        let mut copy = fields.clone();
        f(&mut copy);
        out.push(line_of(&copy, "", ""));
    };
    for i in 0..n {
        let (key, value) = &fields[i];
        let bare = key.trim_matches('"');
        if i + 1 < n {
            edit(&|f| f.swap(i, i + 1));
        }
        // A duplicate key: right after the first with another value (the
        // first one wins), and again at the end.
        edit(&|f| f.insert(i + 1, (key.clone(), "7".into())));
        edit(&|f| f.push((key.clone(), value.clone())));
        edit(&|f| {
            f.remove(i);
        });
        if value.bytes().all(|b| b.is_ascii_digit()) {
            edit(&|f| f[i].1 = format!("{value}.0"));
            edit(&|f| f[i].1 = format!("0{value}"));
            edit(&|f| f[i].1 = format!("{value}e0"));
            edit(&|f| f[i].1 = format!("\"{value}\""));
            if U32_KEYS.contains(&bare) {
                edit(&|f| f[i].1 = (1u64 << 32).to_string());
            }
        }
        if let Some(label) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
            let mut chars = label.chars();
            let first = chars.next().expect("vocabulary labels are not empty");
            let rest = chars.as_str();
            edit(&|f| f[i].1 = format!("\"\\u{:04x}{rest}\"", first as u32));
            edit(&|f| f[i].1 = format!("\"{label}\t\""));
            edit(&|f| f[i].1 = format!("\"{}\"", label.to_uppercase()));
        }
        if value == "true" || value == "false" {
            edit(&|f| f[i].1 = "1".into());
        }
    }
    out.extend((0..line.len()).map(|cut| line[..cut].to_string()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Off the writer's bytes, `parse` answers what the lexer path alone
    /// answers: the same event, or the same error text. Whitespace, key
    /// order, a duplicate key, `2.0` or `02` for `2`, an escaped or
    /// unknown label, `2^32` in a `u32` field, bytes after the `}` and
    /// every truncation.
    #[test]
    fn off_the_written_bytes_parse_is_the_lexer_path(
        seq in edge_u64(),
        cycle in edge_u64(),
        cluster in edge_u32(),
        kind in vocabulary_kind(),
    ) {
        let line = event_line(&TraceEvent { seq, cycle, cluster, kind });
        for bad in perturbations(&line) {
            prop_assert_eq!(TraceEvent::parse(&bad), read_lexed(&bad), "{}", bad);
        }
    }
}

/// One exact line per event kind, every numeric field at its type's
/// maximum and the optional `block` of both message kinds absent. Captured
/// from the closure-driven writer this one replaced: the schema's key
/// order, punctuation and widest decimals, byte for byte.
#[test]
fn golden_line_per_event_kind() {
    const W: u64 = u64::MAX;
    const H: u32 = u32::MAX;
    let golden = [
        (
            EventKind::TxnBegin { txn: W, block: W, write: true },
            r#""type":"txn_begin","txn":18446744073709551615,"block":18446744073709551615,"write":true}"#,
        ),
        (
            EventKind::TxnPhase { txn: W, block: W, phase: Phase::HomeLookup },
            r#""type":"txn_phase","txn":18446744073709551615,"block":18446744073709551615,"phase":"home_lookup"}"#,
        ),
        (
            EventKind::TxnEnd { txn: W, block: W, latency: W, retries: H },
            r#""type":"txn_end","txn":18446744073709551615,"block":18446744073709551615,"latency":18446744073709551615,"retries":4294967295}"#,
        ),
        (
            EventKind::Nack { txn: W, block: W },
            r#""type":"nack","txn":18446744073709551615,"block":18446744073709551615}"#,
        ),
        (
            EventKind::Retry { txn: W, block: W, attempt: H, backoff: W },
            r#""type":"retry","txn":18446744073709551615,"block":18446744073709551615,"attempt":4294967295,"backoff":18446744073709551615}"#,
        ),
        (
            EventKind::Inval { block: W, targets: H, cause: "nb_evict" },
            r#""type":"inval","block":18446744073709551615,"targets":4294967295,"cause":"nb_evict"}"#,
        ),
        (
            EventKind::Replacement { victim: W, targets: H, dirty: false },
            r#""type":"replacement","victim":18446744073709551615,"targets":4294967295,"dirty":false}"#,
        ),
        (
            EventKind::MsgSend {
                src: H,
                dst: H,
                msg: "read_req",
                class: "request",
                block: None,
                hops: H,
            },
            r#""type":"msg_send","src":4294967295,"dst":4294967295,"msg":"read_req","class":"request","hops":4294967295}"#,
        ),
        (
            EventKind::MsgDeliver { src: H, dst: H, msg: "inval_ack", block: None },
            r#""type":"msg_deliver","src":4294967295,"dst":4294967295,"msg":"inval_ack"}"#,
        ),
    ];
    assert_eq!(golden.len(), scd_trace::EVENT_TYPES.len());
    for (kind, tail) in golden {
        let ev = TraceEvent { seq: W, cycle: W, cluster: H, kind };
        let want = format!(
            r#"{{"seq":18446744073709551615,"cycle":18446744073709551615,"cluster":4294967295,{tail}"#
        );
        assert_eq!(event_line(&ev), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The pump against the post-hoc merge. A run is a sequence of
    /// barriers: the clock (highest time processed) moves, events are
    /// recorded at or ahead of the earliest time still open — on any
    /// cluster, same-cycle ties across clusters, one cluster going forward
    /// then back, stamps past the reorder structure's near window — the
    /// interval boundaries the clock reached stream their record, and the
    /// watermark moves to the next open time, capped at the next boundary
    /// still owed (where it stalls while the clock lags behind). The sink
    /// must receive `Tracer::merged`'s lines with each record in place.
    #[test]
    fn pump_streams_the_post_hoc_merge(seed in any::<u64>()) {
        const CLUSTERS: u64 = 5;
        let mut rng = TestRng::new(seed);
        let pick = |rng: &mut TestRng, from: &[u64]| from[rng.below(from.len() as u64) as usize];
        let mut tracer = Tracer::new(CLUSTERS as usize, &TraceConfig::full(1 << 12));
        let sink = BufferSink::new();
        let lines = sink.handle();
        tracer.attach(StreamPump::new(Box::new(sink)));

        let period = 16 + rng.below(300);
        let mut next_due = period;
        // (boundary, rendered record) of every record streamed.
        let mut records: Vec<(u64, String)> = Vec::new();
        // Earliest time anything can still be recorded at.
        let mut open = 0u64;
        let mut recorded = 0u64;
        for _ in 0..1 + rng.below(80) {
            // The window's handlers: each pops at or after `open` and
            // stamps what it records at or ahead of its pop.
            let clock = open + pick(&mut rng, &[0, 0, 1, 5, 30]);
            for _ in 0..rng.below(6) {
                let at = open + pick(&mut rng, &[0, 0, 0, 1, 1, 7, 40, 40, 1023, 1024, 2500]);
                recorded += 1;
                tracer.record(
                    rng.below(CLUSTERS) as usize,
                    at,
                    EventKind::Nack { txn: recorded, block: at },
                );
            }
            // The barrier: boundaries the clock reached, then the
            // watermark up to the next open time.
            open = clock + pick(&mut rng, &[0, 1, 1, 3, 40, 700, 1500]);
            let pump = tracer.pump().expect("attached above");
            while next_due <= clock {
                pump.flush_below(next_due);
                let record = interval_record(&IntervalSnapshot {
                    start: next_due - period,
                    end: next_due,
                    ..Default::default()
                });
                pump.emit_record(&record);
                records.push((next_due, record.to_string()));
                next_due += period;
            }
            pump.flush_below(open.min(next_due));
        }
        prop_assert_eq!(tracer.detach().expect("attached above").close(open, recorded, 0), 0);

        // Post hoc: the merged history, each record ahead of the first
        // event at or past its boundary, `run_end` last.
        let mut want = Vec::new();
        let mut records = records.into_iter().peekable();
        for ev in tracer.merged() {
            while let Some((_, record)) = records.next_if(|(boundary, _)| *boundary <= ev.cycle) {
                want.push(record);
            }
            want.push(event_line(&ev));
        }
        want.extend(records.map(|(_, record)| record));
        want.push(run_end_record(open, recorded, 0).to_string());
        prop_assert_eq!(&*lines.lock().unwrap(), &want);
    }
}

/// Strings that exercise the escaper and the lexer's borrowed/owned split.
const TEXTS: [&str; 10] = [
    "",
    "type",
    "plain ascii",
    "quo\"te",
    "back\\slash\n\ttab\r",
    "ctl\u{1}\u{1f}\u{8}\u{c}",
    "caf\u{e9} \u{65e5}\u{672c} \u{1f980}",
    "/solidus",
    "{\"not\":[a,record]}",
    "\u{10ffff}",
];

fn arbitrary_json(rng: &mut TestRng, depth: u32) -> Json {
    let text = |rng: &mut TestRng| TEXTS[rng.below(TEXTS.len() as u64) as usize].to_string();
    match rng.below(if depth < 3 { 10 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::U64([0, 7, u64::MAX, 10_000_000_000_000_000_000][rng.below(4) as usize]),
        3 => Json::U64(rng.next_u64() >> rng.below(64)),
        4 => Json::F64([-0.5, 2.0, 1e300, -1.25e-7, 18446744073709551616.0][rng.below(5) as usize]),
        5 => Json::F64((rng.unit() - 0.5) * 1e6),
        6 => Json::Str(text(rng)),
        7 => Json::Arr((0..rng.below(4)).map(|_| arbitrary_json(rng, depth + 1)).collect()),
        // Objects, twice as likely as arrays; keys may repeat.
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (text(rng).into(), arbitrary_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// `Json`'s `Display`, with whitespace wherever the grammar allows it and
/// floats sometimes in exponent form.
fn render_loosely(j: &Json, rng: &mut TestRng, out: &mut String) {
    let ws = |rng: &mut TestRng, out: &mut String| {
        for _ in 0..rng.below(3).saturating_sub(1) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4) as usize]);
        }
    };
    ws(rng, out);
    match j {
        Json::F64(v) if rng.below(2) == 0 => {
            let plain = format!("{v:e}");
            let marks: &[&str] = if plain.contains("e-") { &["e", "E"] } else { &["e", "E", "e+"] };
            out.push_str(&plain.replace('e', marks[rng.below(marks.len() as u64) as usize]));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_loosely(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&Json::Str(k.to_string()).to_string());
                ws(rng, out);
                out.push(':');
                render_loosely(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
    ws(rng, out);
}

/// The scalar a flat-view value holds, as the tree would hold it.
fn scalar_of(v: &Value<'_>) -> Option<Json> {
    use scd_trace::json::Token;
    Some(match v.token() {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(*b),
        Token::U64(n) => Json::U64(*n),
        Token::F64(x) => Json::F64(*x),
        Token::Str(s) => Json::Str(s.to_string()),
        Token::Arr | Token::Obj => return None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn tree_and_flat_view_agree_on_every_document(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        // Mostly records (objects), sometimes any value at the top.
        let doc = match rng.below(4) {
            0 => arbitrary_json(&mut rng, 0),
            _ => Json::Obj(
                (0..rng.below(16))
                    .map(|_| (TEXTS[rng.below(TEXTS.len() as u64) as usize].into(), arbitrary_json(&mut rng, 1)))
                    .collect(),
            ),
        };
        let mut text = String::new();
        render_loosely(&doc, &mut rng, &mut text);

        let tree = Json::parse(&text).expect("a rendered document parses");
        prop_assert_eq!(&tree, &doc);
        let flat = Fields::parse(&text).expect("both folds accept it");
        for (key, _) in tree.field_map().into_iter().flatten() {
            let want = tree.get(key).expect("the key came from the tree");
            let got = flat.get(key).expect("the flat view finds every key");
            // The value's text is the subtree, readable again by either fold.
            prop_assert_eq!(&Json::parse(got.raw()).expect("raw text is JSON"), want);
            if let Some(scalar) = scalar_of(got) {
                prop_assert_eq!(&scalar, want);
            }
            prop_assert_eq!(got.as_u64(), want.as_u64());
            prop_assert_eq!(got.as_f64(), want.as_f64());
            prop_assert_eq!(got.as_str(), want.as_str());
            prop_assert_eq!(got.as_bool(), want.as_bool());
            let items = got.elements().map(|it| it.map(|v| Json::parse(v.raw()).unwrap()).collect::<Vec<_>>());
            prop_assert_eq!(items.as_deref(), want.as_arr());
            let nested = got.fields();
            for inner in want.field_map().into_iter().flatten().map(|(k, _)| k) {
                let inner_got = nested.get(inner).expect("the nested view finds every key");
                prop_assert_eq!(&Json::parse(inner_got.raw()).unwrap(), want.get(inner).unwrap());
            }
        }
        prop_assert!(flat.get("no such key").is_none());

        // Damage: every truncation and one corruption per byte. The folds
        // share the lexer, so they reject alike and say the same thing.
        let verdicts = |bad: &str| (Json::parse(bad).err(), Fields::parse(bad).err());
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let (tree_err, flat_err) = verdicts(&text[..cut]);
            prop_assert_eq!(&tree_err, &flat_err, "truncated at {}: {:?}", cut, &text[..cut]);
        }
        for at in (0..text.len()).filter(|&i| text.as_bytes()[i].is_ascii()) {
            let with = b"\"\\{}[],:x0- \x01"[rng.below(13) as usize];
            let mut bytes = text.clone().into_bytes();
            bytes[at] = with;
            let bad = String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8 valid");
            let (tree_err, flat_err) = verdicts(&bad);
            prop_assert_eq!(&tree_err, &flat_err, "byte {} -> {:?}: {:?}", at, with as char, bad);
        }
    }
}

/// Message labels: the vocabulary, as the machine supplies it.
fn message_label() -> Labels {
    one_of(MESSAGES.iter().map(|m| m.label).collect())
}

fn class_label() -> Labels {
    one_of(MessageClass::ALL.iter().map(|c| c.label()).collect())
}

/// Names the exporter writes as they are: the vocabularies, and labels a
/// careless caller could pass that still need no escape.
fn plain_label() -> Labels {
    prop_oneof![
        message_label(),
        one_of(Phase::ALL.iter().map(|p| p.label()).collect()),
        Just(""),
        Just("caf\u{e9} \u{1f980}"),
        Just(leaked("plain_label.".repeat(25))),
    ]
    .boxed()
}

fn msg_span(name: Labels) -> impl Strategy<Value = MsgSpan> {
    (
        (edge_u32(), edge_u32()),
        name,
        prop_oneof![class_label(), plain_label()],
        block(),
        edge_u64(),
        prop::option::of(edge_u64()),
        edge_u32(),
    )
        .prop_map(|((src, dst), msg, class, block, send, deliver, hops)| MsgSpan {
            msg,
            class,
            src,
            dst,
            block,
            send,
            deliver,
            hops,
        })
}

/// Span trees at the edges of every field the exporter writes, shaped or
/// not like a real run's: the exact-bytes reader reads layouts, not
/// verdicts.
fn span_tree() -> impl Strategy<Value = SpanTree> {
    let msgs = prop::collection::vec(msg_span(plain_label()), 0..3);
    let phase = (plain_label(), edge_u64(), edge_u64(), msgs)
        .prop_map(|(phase, start, end, msgs)| PhaseSpan { phase, start, end, msgs });
    let txn = (
        (edge_u64(), edge_u32()),
        edge_u64(),
        any::<bool>(),
        edge_u64(),
        prop::option::of(edge_u64()),
        (edge_u32(), edge_u32()),
        prop::collection::vec(phase, 0..3),
    )
        .prop_map(|((txn, cluster), block, write, begin, end, (retries, nacks), phases)| TxnSpan {
            txn,
            cluster,
            block,
            write,
            begin,
            end,
            retries,
            nacks,
            phases,
        });
    (prop::collection::vec(txn, 0..4), prop::collection::vec(msg_span(plain_label()), 0..3))
        .prop_map(|(txns, orphan_msgs)| SpanTree { txns, orphan_msgs, truncated: 0 })
}

fn intervals() -> impl Strategy<Value = Vec<IntervalSnapshot>> {
    let window = (edge_u64(), edge_u64(), edge_u64(), edge_u64(), edge_u64(), edge_u64())
        .prop_map(|(start, messages, retries, nacks, occupancy, ops_retired)| IntervalSnapshot {
            start,
            end: start.saturating_add(500),
            messages,
            retries,
            nacks,
            occupancy,
            ops_retired,
        });
    prop::collection::vec(window, 0..3)
}

/// The records [`to_perfetto`] writes for `tree`, counted from the tree.
fn records_of(tree: &SpanTree, intervals: &[IntervalSnapshot]) -> u64 {
    let mut pids: Vec<u32> = tree.txns.iter().map(|t| t.cluster).collect();
    pids.extend(tree.orphan_msgs.iter().map(|m| m.src));
    pids.sort_unstable();
    pids.dedup();
    let phases: usize = tree.txns.iter().map(|t| t.phases.len()).sum();
    let msgs = tree.txns.iter().map(|t| t.msgs().count()).sum::<usize>() + tree.orphan_msgs.len();
    let counters = if intervals.is_empty() { 0 } else { 1 + 4 * intervals.len() };
    (tree.txns.len() + phases + 2 * msgs + pids.len() + counters) as u64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every record the exporter writes — each of the six kinds, every
    /// number at its type's edges, `complete` both ways, ids of every hex
    /// width, empty trees — is taken by the exact-bytes reader, and the
    /// verdict is the lexer path's. A reader that fell back in silence
    /// would pass every other test.
    #[test]
    fn the_exact_reader_takes_every_perfetto_record(
        tree in span_tree(),
        intervals in intervals(),
        width in 0u32..17,
    ) {
        // The first id has `width + 1` hex digits, up to sixteen: the
        // messages of one tree cannot count past `u64::MAX`.
        let ids_after = match width {
            0 => 0,
            16 => u64::MAX - 64,
            w => 1u64 << (4 * w),
        };
        for tree in [&tree, &SpanTree::default()] {
            let text = to_perfetto_numbered(tree, &intervals, ids_after);
            prop_assert_eq!(exact_records(&text), records_of(tree, &intervals), "{}", text);
            prop_assert_eq!(validate_perfetto(&text), perfetto::read_lexed(&text), "{}", text);
        }
    }
}

/// A message drawn for [`valid_tree`]: labels, offset of its send into
/// its phase, flight time and hops.
type DrawnMsg = (&'static str, &'static str, u64, u64, u32);

fn drawn_msg((msg, class, at, flight, hops): DrawnMsg, from: u64) -> MsgSpan {
    MsgSpan {
        msg,
        class,
        src: hops,
        dst: 0,
        block: Some(at),
        send: from + at,
        deliver: Some(from + at + flight),
        hops,
    }
}

/// A valid span tree in the shape of a real run's: transactions on their
/// own lanes, phases tiling each one, every message delivered no earlier
/// than it was sent. Built from drawn lengths.
fn valid_tree() -> impl Strategy<Value = SpanTree> {
    let msg = (message_label(), class_label(), 0u64..8, 0u64..40, 0u32..4);
    let txn = (
        (0u32..3, any::<bool>()),
        0u64..2_000,
        prop::collection::vec(0u64..30, 1..4),
        prop::collection::vec(msg.clone(), 0..3),
        any::<bool>(),
    );
    let txns = prop::collection::vec(txn, 0..3);
    (txns, prop::collection::vec(msg, 0..2)).prop_map(|(txns, orphans)| {
        let txns = txns
            .into_iter()
            .enumerate()
            .map(|(i, ((cluster, write), begin, lengths, msgs, complete))| {
                let mut phases: Vec<PhaseSpan> = Vec::new();
                let mut start = begin;
                for (p, len) in lengths.into_iter().enumerate() {
                    let phase = Phase::ALL[p % Phase::ALL.len()].label();
                    phases.push(PhaseSpan { phase, start, end: start + len, msgs: Vec::new() });
                    start += len;
                }
                for (m, drawn) in msgs.into_iter().enumerate() {
                    let slot = m % phases.len();
                    let at = phases[slot].start;
                    phases[slot].msgs.push(drawn_msg(drawn, at));
                }
                TxnSpan {
                    txn: i as u64 + 1,
                    cluster,
                    block: begin,
                    write,
                    begin,
                    end: complete.then_some(start),
                    retries: 0,
                    nacks: cluster,
                    phases,
                }
            })
            .collect();
        let orphan_msgs = orphans.into_iter().map(|m| drawn_msg(m, 5)).collect();
        SpanTree { txns, orphan_msgs, truncated: 0 }
    })
}

/// A document as its records' texts, between the writer's fixed head and
/// tail. Vocabulary names hold no `,{"name":`, so the cuts are exact.
fn records_of_doc(text: &str) -> (&str, Vec<String>, &str) {
    let head = "{\"traceEvents\":[";
    let tail = &text[text.rfind("],\"displayTimeUnit\"").expect("the writer's tail")..];
    let body = &text[head.len()..text.len() - tail.len()];
    let records = if body.is_empty() {
        Vec::new()
    } else {
        let mut records = body.split(",{\"name\":");
        let first = records.next().map(str::to_string);
        first.into_iter().chain(records.map(|r| format!("{{\"name\":{r}"))).collect()
    };
    (head, records, tail)
}

/// A record's top-level `key:value` texts, in order: its commas outside
/// the nested `args`. Vocabulary names hold no `,` or brace.
fn record_fields(record: &str) -> FieldTexts {
    let body = &record[1..record.len() - 1];
    let mut fields = Vec::new();
    let (mut depth, mut from) = (0, 0);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b',' if depth == 0 => {
                fields.push(&body[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[from..]);
    fields
        .into_iter()
        .map(|f| {
            let (k, v) = f.split_once(':').expect("`key:value`");
            (k.to_string(), v.to_string())
        })
        .collect()
}

/// Spellings of a valid document that are not the exporter's bytes, or
/// not valid: each a place where the exact-bytes pass could part from
/// the lexer's. One record changed at a time, so the rest stay on the
/// exact path and both passes feed one check.
fn perfetto_perturbations(text: &str) -> Vec<String> {
    let (head, records, tail) = records_of_doc(text);
    let doc = |records: &[String]| format!("{head}{}{tail}", records.join(","));
    let mut out = vec![
        text.replace("\":", "\": "),
        text.replace(",\"", ", \""),
        text.replace(",{", ",\n {"),
    ];
    for (r, record) in records.iter().enumerate() {
        let fields = record_fields(record);
        let mut edit = |f: &dyn Fn(&mut FieldTexts)| {
            let mut copy = fields.clone();
            f(&mut copy);
            let body: Vec<String> = copy.iter().map(|(k, v)| format!("{k}:{v}")).collect();
            let mut all = records.clone();
            all[r] = format!("{{{}}}", body.join(","));
            out.push(doc(&all));
        };
        edit(&|f| f[0].1.insert(0, ' '));
        edit(&|f| f.push(("\"extra\"".into(), "{\"a\":[1,2.5]}".into())));
        for i in 0..fields.len() {
            let (key, value) = &fields[i];
            if i + 1 < fields.len() {
                edit(&|f| f.swap(i, i + 1));
            }
            edit(&|f| f.insert(i + 1, (key.clone(), "7".into())));
            edit(&|f| f.push((key.clone(), value.clone())));
            edit(&|f| {
                f.remove(i);
            });
            if value.bytes().all(|b| b.is_ascii_digit()) {
                edit(&|f| f[i].1 = format!("{value}.0"));
                edit(&|f| f[i].1 = format!("0{value}"));
                edit(&|f| f[i].1 = format!("\"{value}\""));
            }
            if let Some(name) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                if let Some(first) = name.chars().next() {
                    let rest = &name[first.len_utf8()..];
                    edit(&|f| f[i].1 = format!("\"\\u{:04x}{rest}\"", first as u32));
                }
                edit(&|f| f[i].1 = format!("\"{}\"", name.to_uppercase()));
                edit(&|f| f[i].1 = format!("\"{name}\t\""));
            }
            if value.starts_with("{\"value\":") {
                edit(&|f| f[i].1 = value.replace('}', ".5}"));
            }
        }
        // Out of order or out of place: an `e` before its `b`, a `b`
        // reopened, a record dropped, a slice widened past its parent.
        if r + 1 < records.len() {
            let mut swapped = records.clone();
            swapped.swap(r, r + 1);
            out.push(doc(&swapped));
        }
        let mut twice = records.clone();
        twice.insert(r, record.clone());
        out.push(doc(&twice));
        let mut dropped = records.clone();
        dropped.remove(r);
        out.push(doc(&dropped));
        if let Some(at) = record.find(",\"dur\":") {
            let mut wide = records.clone();
            wide[r] = format!("{}1000000{}", &record[..at + 7], &record[at + 7..]);
            out.push(doc(&wide));
        }
    }
    let cuts = (0..text.len()).filter(|&i| text.is_char_boundary(i));
    out.extend(cuts.map(|cut| text[..cut].to_string()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Off the exporter's bytes, `validate_perfetto` answers what the
    /// lexer path alone answers: the same summary or the same error text.
    /// Whitespace, swapped, duplicate, missing and extra keys, `1.0` for
    /// an integer, `0` before digits, a float counter value, an escaped,
    /// upper-cased or control-holding name or id, an `e` before its `b`, a
    /// reopened id, a dropped record, straddling slices, and every
    /// truncation.
    #[test]
    fn off_the_exporter_bytes_validate_perfetto_is_the_lexer_path(
        tree in valid_tree(),
        intervals in intervals(),
    ) {
        let text = to_perfetto(&tree, &intervals);
        let summary = validate_perfetto(&text);
        prop_assert!(summary.is_ok(), "{:?}\n{}", summary, text);
        prop_assert_eq!(exact_records(&text), summary.unwrap().events);
        for bad in perfetto_perturbations(&text) {
            prop_assert_eq!(validate_perfetto(&bad), perfetto::read_lexed(&bad), "{}", bad);
        }
    }
}
