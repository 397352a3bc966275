//! Property test for the trace line contract: the allocation-free writer
//! ([`TraceEvent::write_jsonl`]) and the `Json` tree ([`TraceEvent::to_json`])
//! are two consumers of one field walk and must agree on every byte, for
//! every event kind, at the edges of every field.

use proptest::prelude::*;
use scd_trace::{event_line, EventKind, Json, Phase, TraceEvent};

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
    ]
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

fn kind() -> impl Strategy<Value = EventKind> {
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
        (edge_u64(), edge_u32(), label()).prop_map(|(block, targets, cause)| EventKind::Inval {
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
            label(),
            label(),
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
        (edge_u32(), edge_u32(), label(), block()).prop_map(|(src, dst, msg, block)| {
            EventKind::MsgDeliver {
                src,
                dst,
                msg,
                block,
            }
        }),
    ]
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
        let mut line = String::from("prefix");
        ev.write_jsonl(&mut line);
        let line = line.strip_prefix("prefix").expect("the writer only appends");
        prop_assert_eq!(line, ev.to_json().to_string());
        prop_assert_eq!(line, event_line(&ev));
        prop_assert_eq!(Json::parse(line).expect("the line is JSON"), ev.to_json());
    }
}

/// The strategy above must actually reach all nine kinds (a `prop_oneof!`
/// arm dropped in an edit would silently shrink the property).
#[test]
fn the_kind_strategy_covers_every_event_type() {
    let mut rng = proptest::TestRng::new(1);
    let strategy = kind();
    let seen: std::collections::BTreeSet<&str> = (0..2000)
        .map(|_| strategy.generate(&mut rng).label())
        .collect();
    let mut all = scd_trace::EVENT_TYPES.to_vec();
    all.sort_unstable();
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}
