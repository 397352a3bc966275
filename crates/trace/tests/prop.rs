//! Property tests for the two JSON contracts of the crate.
//!
//! Writing: the allocation-free writer ([`TraceEvent::write_jsonl`]) and
//! the `Json` tree ([`TraceEvent::to_json`]) are two consumers of one
//! field walk and must agree on every byte, for every event kind, at the
//! edges of every field; and the decoder ([`TraceEvent::parse`]) reads
//! every line of the machine's vocabulary back to its event.
//!
//! Reading: the tree ([`Json::parse`]) and the flat view ([`Fields`]) are
//! two folds over one lexer and must agree on every document — what they
//! accept, what they find, and the error they give.
//!
//! And the ordering contract between them: the live stream
//! ([`StreamPump`]) must emit the lines the post-hoc merge
//! ([`Tracer::merged`]) exports, in its order, without seeing the future.

use proptest::prelude::*;
use proptest::TestRng;
use scd_stats::MessageClass;
use scd_trace::attrib::MESSAGES;
use scd_trace::event::cause;
use scd_trace::json::Value;
use scd_trace::{
    event_line, interval_record, run_end_record, BufferSink, EventKind, Fields,
    IntervalSnapshot, Json, Phase, StreamPump, TraceConfig, TraceEvent, Tracer,
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

/// Every event kind at the edges of its fields, with `msg`, `class` and
/// `cause` labels drawn from the given strategies.
fn kind_over(msg: Labels, class: Labels, cause: Labels) -> impl Strategy<Value = EventKind> {
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
        (
            edge_u32(),
            edge_u32(),
            msg.clone(),
            class,
            block(),
            edge_u32()
        )
            .prop_map(|(src, dst, msg, class, block, hops)| EventKind::MsgSend {
                src,
                dst,
                msg,
                class,
                block,
                hops
            }),
        (edge_u32(), edge_u32(), msg, block()).prop_map(|(src, dst, msg, block)| {
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
    kind_over(label().boxed(), label().boxed(), label().boxed())
}

/// One of `labels`, uniformly.
fn one_of(labels: Vec<&'static str>) -> Labels {
    (0..labels.len()).prop_map(move |i| labels[i]).boxed()
}

/// Labels as the machine supplies them: the vocabularies the decoder
/// accepts.
fn vocabulary_kind() -> impl Strategy<Value = EventKind> {
    kind_over(
        one_of(MESSAGES.iter().map(|m| m.0).collect()),
        one_of(MessageClass::ALL.iter().map(|c| c.label()).collect()),
        one_of(cause::ALL.to_vec()),
    )
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
