//! Accept/reject table for the three record readers: one case per error
//! branch of `validate_trace`, `validate_stream` and `validate_perfetto`,
//! each asserting the whole error text. The texts are what `scd-telemetry
//! validate` prints and what `tests/cli.rs` looks for in its stderr, so a
//! rewrite of the readers must keep them. All but two cases were written
//! against the tree-building readers and passed there; the two are the
//! fixes the single-pass readers made: embedded events cited by the
//! stream's line numbers, and an out-of-range retry attempt refused rather
//! than truncated. The typed decoder (`TraceEvent::parse`) added the rows
//! of `validate_trace_rejects_what_the_writer_cannot_produce`.

use scd_trace::{
    event_line, run_lines, validate_perfetto, validate_stream, validate_trace, EventKind,
    IntervalSnapshot, Phase, RunLine, TraceEvent,
};

fn ev(seq: u64, cycle: u64, kind: EventKind) -> String {
    event_line(&TraceEvent {
        seq,
        cycle,
        cluster: 0,
        kind,
    })
}

fn begin(seq: u64, cycle: u64, txn: u64) -> String {
    ev(seq, cycle, EventKind::TxnBegin { txn, block: 4, write: true })
}

fn phase(seq: u64, cycle: u64, txn: u64, phase: Phase) -> String {
    ev(seq, cycle, EventKind::TxnPhase { txn, block: 4, phase })
}

fn end(seq: u64, cycle: u64, txn: u64, latency: u64, retries: u32) -> String {
    ev(seq, cycle, EventKind::TxnEnd { txn, block: 4, latency, retries })
}

fn retry(seq: u64, cycle: u64, attempt: u32, backoff: u64) -> String {
    ev(seq, cycle, EventKind::Retry { txn: 1, block: 4, attempt, backoff })
}

fn nack(seq: u64, cycle: u64) -> String {
    ev(seq, cycle, EventKind::Nack { txn: 1, block: 4 })
}

/// Runs every `(lines, expected error)` case through `validate`.
fn reject_table<T: std::fmt::Debug>(
    validate: impl Fn(&str) -> Result<T, String>,
    cases: &[(Vec<String>, &str)],
) {
    for (lines, want) in cases {
        let text = lines.join("\n");
        match validate(&text) {
            Ok(summary) => panic!("accepted, wanted `{want}`: {summary:?}\n{text}"),
            Err(got) => assert_eq!(&got, want, "\n{text}"),
        }
    }
}

fn s(line: &str) -> String {
    line.to_string()
}

#[test]
fn validate_trace_rejects_with_the_documented_texts() {
    let cases: Vec<(Vec<String>, &str)> = vec![
        (vec![s("not json")], "line 1: bad literal at byte 0"),
        (vec![begin(1, 5, 1), s("{\"seq\":2,")], "line 2: expected `\"` at byte 9 (found `∅`)"),
        (vec![s(r#"{"cycle":2,"cluster":0,"type":"nack","txn":1}"#)], "line 1: missing or non-integer `seq`"),
        (vec![s(r#"{"seq":"1","cycle":2,"cluster":0,"type":"nack"}"#)], "line 1: missing or non-integer `seq`"),
        (vec![s(r#"{"seq":1,"cluster":0,"type":"nack","txn":1}"#)], "line 1: missing or non-integer `cycle`"),
        (vec![s(r#"{"seq":1,"cycle":2.5,"cluster":0,"type":"nack"}"#)], "line 1: missing or non-integer `cycle`"),
        (vec![s(r#"{"seq":1,"cycle":2,"type":"nack","txn":1}"#)], "line 1: missing or non-integer `cluster`"),
        (vec![s(r#"{"seq":1,"cycle":2,"cluster":0}"#)], "line 1: missing `type`"),
        (vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":7}"#)], "line 1: missing `type`"),
        (vec![s("[1,2]")], "line 1: missing or non-integer `seq`"),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"mystery"}"#)],
            "line 1: unknown event type `mystery`",
        ),
        (vec![nack(5, 50), s(""), nack(5, 60)], "line 3: seq 5 repeats"),
        (
            vec![nack(1, 50), nack(2, 40)],
            "line 2: cycle 40 runs backwards from 50 (merge must be cycle-ordered)",
        ),
        (
            vec![nack(7, 50), nack(3, 50)],
            "line 2: seq 3 not strictly after 7 within cycle 50",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"inval","targets":1,"cause":"write"}"#)],
            "line 1: missing or non-integer `block`",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"inval","block":8,"cause":"write"}"#)],
            "line 1: missing or non-integer `targets`",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"inval","block":8,"targets":1}"#)],
            "line 1: inval without `cause`",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"nack","block":8}"#)],
            "line 1: missing or non-integer `txn`",
        ),
        (vec![begin(1, 10, 1), begin(2, 20, 1)], "line 2: txn 1 began twice"),
        (
            vec![phase(1, 10, 1, Phase::HomeLookup), begin(2, 20, 1)],
            "line 2: txn 1 has lifecycle events before its begin",
        ),
        (
            vec![end(1, 10, 1, 0, 0), begin(2, 20, 1)],
            "line 2: txn 1 has lifecycle events before its begin",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"txn_phase","txn":1,"block":4}"#)],
            "line 1: phase without `phase`",
        ),
        (
            vec![end(1, 10, 1, 0, 0), phase(2, 20, 1, Phase::Reply)],
            "line 2: txn 1 phase `reply` after its end",
        ),
        (
            vec![phase(1, 10, 1, Phase::Fanout), phase(2, 20, 1, Phase::HomeLookup)],
            "line 2: txn 1 home_lookup after fanout",
        ),
        (vec![end(1, 10, 1, 0, 0), end(2, 20, 1, 0, 0)], "line 2: txn 1 ended twice"),
        (
            vec![
                begin(1, 10, 1),
                s(r#"{"seq":2,"cycle":20,"cluster":0,"type":"txn_end","txn":1,"block":4,"retries":0}"#),
            ],
            "line 2: missing or non-integer `latency`",
        ),
        (
            vec![begin(1, 10, 1), end(2, 20, 1, 11, 0)],
            "line 2: txn 1 latency 11 inconsistent with begin 10 / end 20",
        ),
        (
            vec![s(r#"{"seq":2,"cycle":20,"cluster":0,"type":"txn_end","txn":1,"block":4,"latency":3}"#)],
            "line 1: missing or non-integer `retries`",
        ),
        (
            vec![s(r#"{"seq":2,"cycle":20,"cluster":0,"type":"retry","txn":1,"block":4,"backoff":3}"#)],
            "line 1: missing or non-integer `attempt`",
        ),
        (
            vec![s(r#"{"seq":2,"cycle":20,"cluster":0,"type":"retry","txn":1,"block":4,"attempt":1}"#)],
            "line 1: missing or non-integer `backoff`",
        ),
        (
            vec![retry(1, 20, 2, 15), retry(2, 40, 2, 15)],
            "line 2: txn 1 retry attempt 2 not after attempt 2",
        ),
        // No silent truncation: 2^32 + 1 is not "attempt 1" again, it is
        // not an attempt at all.
        (
            vec![
                s(r#"{"seq":1,"cycle":20,"cluster":0,"type":"retry","txn":1,"block":4,"attempt":4294967297,"backoff":3}"#),
                s(r#"{"seq":2,"cycle":21,"cluster":0,"type":"retry","txn":1,"block":4,"attempt":2,"backoff":3}"#),
            ],
            "line 1: `attempt` 4294967297 out of range for u32",
        ),
        (
            vec![retry(1, 20, 1, 30), retry(2, 40, 2, 15)],
            "line 2: txn 1 backoff shrank (30 -> 15); retries must back off monotonically",
        ),
        (
            vec![retry(1, 20, 1, 15), retry(2, 40, 2, 15), end(3, 50, 1, 0, 1)],
            "txn 1: end reports 1 retries but 2 retry events were recorded",
        ),
    ];
    reject_table(validate_trace, &cases);
}

/// What the typed decoder adds to the table: every field is read as its
/// type and range, and every label against its vocabulary.
#[test]
fn validate_trace_rejects_what_the_writer_cannot_produce() {
    let line = |tail: &str| vec![format!(r#"{{"seq":1,"cycle":2,"cluster":0,{tail}}}"#)];
    let send = r#""type":"msg_send","src":0,"dst":1"#;
    let cases: Vec<(Vec<String>, &str)> = vec![
        (
            line(&format!(r#"{send},"msg":"ReadReq","class":"requests","hops":1"#)),
            "line 1: unknown `msg` label `ReadReq`",
        ),
        (
            line(&format!(r#"{send},"msg":"read_req","class":"request","hops":1"#)),
            "line 1: unknown `class` label `request`",
        ),
        (
            line(&format!(r#"{send},"msg":"read_req","class":"requests","block":8"#)),
            "line 1: missing or non-integer `hops`",
        ),
        (line(&format!(r#"{send},"class":"requests","hops":1"#)), "line 1: msg_send without `msg`"),
        (
            line(&format!(r#"{send},"msg":"read_req","class":"invalidations","hops":1"#)),
            "line 1: msg_send `class` `invalidations` is not `read_req`'s class `requests`",
        ),
        (
            line(r#""type":"msg_deliver","src":0,"dst":1,"msg":"inval","block":"8""#),
            "line 1: missing or non-integer `block`",
        ),
        (
            line(r#""type":"inval","block":8,"targets":1,"cause":"unknown""#),
            "line 1: unknown `cause` label `unknown`",
        ),
        (
            line(r#""type":"txn_phase","txn":1,"block":4,"phase":"warp""#),
            "line 1: unknown `phase` label `warp`",
        ),
        (
            line(r#""type":"txn_begin","txn":1,"block":4"#),
            "line 1: missing or non-boolean `write`",
        ),
        (
            line(r#""type":"inval","block":8,"targets":4294967296,"cause":"write""#),
            "line 1: `targets` 4294967296 out of range for u32",
        ),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":4294967296,"type":"nack","txn":1,"block":4}"#)],
            "line 1: `cluster` 4294967296 out of range for u32",
        ),
        (
            line(r#""type":"txn_end","txn":1,"block":4,"latency":9,"retries":-1"#),
            "line 1: missing or non-integer `retries`",
        ),
        // What RFC 8259 forbids, refused by the lexer where it goes wrong.
        (
            vec![s(r#"{"seq":01,"cycle":2,"cluster":0,"type":"nack","txn":1,"block":4}"#)],
            "line 1: bad number `01` at byte 8",
        ),
        (
            line(r#""type":"nack","txn":1.,"block":4"#),
            "line 1: bad number `1.` at byte 53",
        ),
        (
            line(r#""type":"nack","txn":1,"block":1e999"#),
            "line 1: number `1e999` out of range at byte 61",
        ),
        (
            line("\"type\":\"na\tck\",\"txn\":1,\"block\":4"),
            "line 1: unescaped control character at byte 41",
        ),
    ];
    reject_table(validate_trace, &cases);
}

#[test]
fn validate_trace_accepts_what_the_recorder_can_produce() {
    // A begin stamped with a future cycle sorts after events recorded
    // later (seq order is not monotone), rings may have evicted a begin,
    // and blank lines are skipped.
    let text = [
        nack(9, 5),
        begin(2, 10, 1),
        phase(3, 10, 1, Phase::HomeLookup),
        phase(4, 12, 1, Phase::Fanout),
        retry(5, 13, 1, 8),
        retry(6, 14, 2, 8),
        String::new(),
        end(7, 30, 1, 20, 2),
        end(8, 31, 2, 99, 0),
    ]
    .join("\n");
    let summary = validate_trace(&text).expect("valid trace");
    assert_eq!(
        format!("{summary:?}"),
        "TraceSummary { events: 8, transactions: 2, completed: 1, by_type: \
         {\"nack\": 1, \"retry\": 2, \"txn_begin\": 1, \"txn_end\": 2, \"txn_phase\": 2} }"
    );
    assert_eq!(validate_trace("").expect("empty trace"), Default::default());
}

const INTERVAL_0_20: &str = r#"{"type":"interval","window":{"start":0,"end":20,"messages":0,"retries":0,"nacks":0,"occupancy":0,"ops_retired":0}}"#;

#[test]
fn validate_stream_rejects_with_the_documented_texts() {
    let cases: Vec<(Vec<String>, &str)> = vec![
        (
            vec![s(r#"{"type":"run_end","cycles":1,"recorded":0,"dropped_events":0}"#), begin(1, 5, 1)],
            "line 2: record after `run_end`",
        ),
        (
            vec![s(r#"{"type":"sweep_end","runs":0}"#), s(r#"{"type":"sweep_end","runs":0}"#)],
            "line 2: record after `sweep_end`",
        ),
        (vec![s(INTERVAL_0_20), s("{\"type\":")], "line 2: unexpected `∅` at byte 8"),
        (
            vec![s(INTERVAL_0_20), s(r#"{"seq":1,"cycle":020,"cluster":0,"type":"nack","txn":1,"block":4}"#)],
            "line 2: bad number `020` at byte 18",
        ),
        (vec![s(r#"{"run":{}}"#)], "line 1: missing `type`"),
        (
            vec![s(r#"{"seq":1,"cluster":0,"type":"nack","txn":1}"#)],
            "line 1: `cycle` missing or not an integer",
        ),
        (
            vec![s(INTERVAL_0_20), nack(1, 19)],
            "line 2: event at cycle 19 after the interval ending at 20",
        ),
        (vec![s(r#"{"type":"run_meta"}"#)], "line 1: run_meta without `run`"),
        (vec![s(r#"{"type":"interval"}"#)], "line 1: interval without `window`"),
        (
            vec![s(r#"{"type":"interval","window":{"end":20}}"#)],
            "line 1: `start` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"interval","window":{"start":0}}"#)],
            "line 1: `end` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"interval","window":{"start":0,"end":20,"messages":0,"retries":0,"nacks":0,"occupancy":0}}"#)],
            "line 1: `ops_retired` missing or not an integer",
        ),
        (
            vec![INTERVAL_0_20.replace(r#""start":0,"end":20"#, r#""start":20,"end":20"#)],
            "line 1: interval window [20, 20) is empty",
        ),
        (
            vec![s(INTERVAL_0_20), INTERVAL_0_20.replace(r#""start":0,"end":20"#, r#""start":30,"end":40"#)],
            "line 2: interval starts at 30, previous ended at 20",
        ),
        (
            vec![s(r#"{"type":"attrib_delta","end":5,"classes":{}}"#)],
            "line 1: `start` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"attrib_delta","start":0,"classes":{}}"#)],
            "line 1: `end` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"attrib_delta","start":5,"end":5,"classes":{}}"#)],
            "line 1: attrib_delta window [5, 5) is empty",
        ),
        (
            vec![s(r#"{"type":"attrib_delta","start":0,"end":5}"#)],
            "line 1: attrib_delta without `classes`",
        ),
        (
            vec![s(r#"{"type":"patterns","end":5,"live_entries":0,"sharers":[]}"#)],
            "line 1: `start` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"patterns","start":0,"live_entries":0,"sharers":[]}"#)],
            "line 1: `end` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"patterns","start":5,"end":4,"live_entries":0,"sharers":[]}"#)],
            "line 1: patterns window [5, 4) is empty",
        ),
        (
            vec![s(r#"{"type":"patterns","start":0,"end":5,"sharers":[]}"#)],
            "line 1: `live_entries` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"patterns","start":0,"end":5,"live_entries":3}"#)],
            "line 1: patterns without `sharers`",
        ),
        (
            vec![s(r#"{"type":"patterns","start":0,"end":5,"live_entries":3,"sharers":{}}"#)],
            "line 1: patterns without `sharers`",
        ),
        (
            vec![s(r#"{"type":"patterns","start":0,"end":5,"live_entries":2,"sharers":[1,"x",2]}"#)],
            "line 1: patterns sharer histogram counts 3 entries but only 2 are live",
        ),
        (
            vec![s(r#"{"type":"run_end","cycles":1,"dropped_events":0}"#)],
            "line 1: `recorded` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"run_end","cycles":1,"recorded":0}"#)],
            "line 1: `dropped_events` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"run_end","recorded":0,"dropped_events":0}"#)],
            "line 1: `cycles` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"run_end","cycles":1,"recorded":3,"dropped_events":5}"#)],
            "line 1: run_end dropped_events 5 > recorded 3",
        ),
        (
            vec![nack(1, 5), nack(2, 6), s(r#"{"type":"run_end","cycles":9,"recorded":1,"dropped_events":0}"#)],
            "line 3: stream carries 2 events but run_end says 1 recorded",
        ),
        (vec![s(r#"{"type":"sweep_begin"}"#)], "line 1: `total` missing or not an integer"),
        (vec![s(r#"{"type":"sweep_begin","total":0}"#)], "line 1: sweep_begin with total 0"),
        (
            vec![s(r#"{"type":"sweep_run","index":0,"completed":1}"#)],
            "line 1: sweep_run before sweep_begin",
        ),
        (
            vec![s(r#"{"type":"sweep_begin","total":2}"#), s(r#"{"type":"sweep_run","index":0}"#)],
            "line 2: `completed` missing or not an integer",
        ),
        (
            vec![s(r#"{"type":"sweep_begin","total":2}"#), s(r#"{"type":"sweep_run","completed":1}"#)],
            "line 2: `index` missing or not an integer",
        ),
        (
            vec![
                s(r#"{"type":"sweep_begin","total":2}"#),
                s(r#"{"type":"sweep_run","index":0,"completed":2}"#),
            ],
            "line 2: sweep_run completed 2 after 0 (total 2)",
        ),
        (
            vec![
                s(r#"{"type":"sweep_begin","total":1}"#),
                s(r#"{"type":"sweep_run","index":0,"completed":1}"#),
                s(r#"{"type":"sweep_run","index":1,"completed":2}"#),
            ],
            "line 3: sweep_run completed 2 after 1 (total 1)",
        ),
        (
            vec![
                s(r#"{"type":"sweep_begin","total":2}"#),
                s(r#"{"type":"sweep_run","index":0,"completed":1}"#),
                s(r#"{"type":"sweep_run","index":0,"completed":2}"#),
            ],
            "line 3: sweep_run index 0 repeats",
        ),
        (vec![s(r#"{"type":"sweep_end"}"#)], "line 1: `runs` missing or not an integer"),
        (
            vec![s(r#"{"type":"sweep_end","runs":3}"#)],
            "line 1: sweep_end runs 3 != 0 sweep_run records",
        ),
        (vec![s(r#"{"type":"mystery"}"#)], "line 1: unknown record type `mystery`"),
        // The embedded events are held to every `validate_trace` rule; the
        // end-of-trace check has no line to cite.
        (
            vec![retry(1, 20, 1, 15), retry(2, 40, 2, 15), end(3, 50, 1, 0, 1)],
            "embedded trace: txn 1: end reports 1 retries but 2 retry events were recorded",
        ),
    ];
    reject_table(validate_stream, &cases);
}

/// A broken embedded event is cited by its line in the stream the user
/// is looking at, not by its position among the event lines.
#[test]
fn validate_stream_cites_the_streams_own_line_numbers() {
    let preamble = [
        s(r#"{"type":"run_meta","run":{"app":"lu"}}"#),
        nack(1, 30),
        s(INTERVAL_0_20),
        s(r#"{"type":"attrib_delta","start":0,"end":20,"classes":{}}"#),
        s(r#"{"type":"patterns","start":0,"end":20,"live_entries":0,"sharers":[]}"#),
        String::new(),
    ];
    let cases: Vec<(Vec<String>, &str)> = vec![
        (
            [&preamble[..], &[nack(2, 25)]].concat(),
            "embedded trace: line 7: cycle 25 runs backwards from 30 (merge must be cycle-ordered)",
        ),
        (
            [&preamble[..], &[nack(2, 40), nack(1, 50)]].concat(),
            "embedded trace: line 8: seq 1 repeats",
        ),
        (
            [&preamble[..], &[s(r#"{"seq":2,"cycle":40,"cluster":0,"type":"txn_phase","txn":1,"block":4,"phase":"warp"}"#)]].concat(),
            "embedded trace: line 7: unknown `phase` label `warp`",
        ),
        // A stream record broken further down still outranks it.
        (
            [&preamble[..], &[nack(2, 25), s(r#"{"type":"mystery"}"#)]].concat(),
            "line 8: unknown record type `mystery`",
        ),
    ];
    reject_table(validate_stream, &cases);
}

#[test]
fn validate_stream_accepts_and_summarises_every_record_type() {
    let text = [
        s(r#"{"type":"run_meta","run":{"app":"lu"}}"#),
        begin(1, 10, 1),
        s(INTERVAL_0_20),
        s(r#"{"type":"attrib_delta","start":0,"end":20,"classes":{},"links":[]}"#),
        s(r#"{"type":"patterns","start":0,"end":20,"live_entries":3,"sharers":[1,2]}"#),
        String::new(),
        end(2, 30, 1, 20, 0),
        s(r#"{"type":"run_end","cycles":30,"recorded":2,"dropped_events":0}"#),
    ]
    .join("\n");
    let summary = validate_stream(&text).expect("valid stream");
    assert_eq!(
        format!("{summary:?}"),
        "StreamSummary { lines: 7, events: 2, intervals: 1, attrib_deltas: 1, \
         patterns_samples: 1, sweep_runs: 0, run_ended: true, sweep_ended: false, \
         trace: TraceSummary { events: 2, transactions: 1, completed: 1, \
         by_type: {\"txn_begin\": 1, \"txn_end\": 1} } }"
    );
}

/// `run_lines` reads a trace and a single-run stream alike: events and
/// interval windows in order under their own line numbers, the other
/// single-run records skipped. Anything else is an error citing its line,
/// a broken event with the decoder's text.
#[test]
fn run_lines_reads_a_trace_or_a_single_run_stream() {
    let stream = [
        s(r#"{"type":"run_meta","run":{"app":"lu"}}"#),
        begin(1, 10, 1),
        s(INTERVAL_0_20),
        s(r#"{"type":"attrib_delta","start":0,"end":20,"classes":{},"links":[]}"#),
        s(r#"{"type":"patterns","start":0,"end":20,"live_entries":3,"sharers":[1,2]}"#),
        String::new(),
        end(2, 30, 1, 20, 0),
        s(r#"{"type":"run_end","cycles":30,"recorded":2,"dropped_events":0}"#),
    ]
    .join("\n");
    let lines: Vec<(usize, RunLine)> = run_lines(&stream).collect::<Result<_, _>>().unwrap();
    let event = |line: &str| RunLine::Event(TraceEvent::parse(line).unwrap());
    let window = IntervalSnapshot { start: 0, end: 20, ..Default::default() };
    assert_eq!(
        lines,
        [(2, event(&begin(1, 10, 1))), (3, RunLine::Interval(window)), (7, event(&end(2, 30, 1, 20, 0)))]
    );

    let cases: Vec<(Vec<String>, &str)> = vec![
        (vec![begin(1, 10, 1), s("not json")], "line 2: bad literal at byte 0"),
        (
            vec![s(r#"{"seq":1,"cycle":2,"cluster":0,"type":"txn_begin","txn":1,"block":4}"#)],
            "line 1: missing or non-boolean `write`",
        ),
        (vec![s(r#"{"type":"interval"}"#)], "line 1: interval without `window`"),
        (
            vec![s(r#"{"type":"interval","window":{"start":0,"end":20}}"#)],
            "line 1: `messages` missing or not an integer",
        ),
        (vec![s(r#"{"type":"sweep_begin","total":2}"#)], "line 1: missing or non-integer `seq`"),
    ];
    let read = |text: &str| run_lines(text).collect::<Result<Vec<_>, _>>();
    reject_table(read, &cases);
}

fn perfetto_doc(records: &str) -> Vec<String> {
    vec![format!("{{\"traceEvents\":[{records}]}}")]
}

#[test]
fn validate_perfetto_rejects_with_the_documented_texts() {
    let cases: Vec<(Vec<String>, &str)> = vec![
        (vec![s(r#"{"traceEvents":[{"name":"a"}"#)], "expected `,` or `]` at byte 28"),
        (vec![s("[]")], "missing `traceEvents` array"),
        (vec![s(r#"{"displayTimeUnit":"ns"}"#)], "missing `traceEvents` array"),
        (vec![s(r#"{"traceEvents":{}}"#)], "missing `traceEvents` array"),
        (perfetto_doc(r#"{"name":"a","pid":0,"tid":0}"#), "traceEvents[0]: missing or invalid `ph`"),
        (perfetto_doc("7"), "traceEvents[0]: missing or invalid `ph`"),
        (perfetto_doc(r#"{"ph":"M","pid":0,"tid":0}"#), "traceEvents[0]: missing or invalid `name`"),
        (perfetto_doc(r#"{"name":"a","ph":"M","tid":0}"#), "traceEvents[0]: missing or invalid `pid`"),
        (perfetto_doc(r#"{"name":"a","ph":"M","pid":0}"#), "traceEvents[0]: missing or invalid `tid`"),
        (
            perfetto_doc(r#"{"name":"a","ph":"M","pid":0,"tid":0},{"name":"a","ph":"X","pid":0,"tid":0,"dur":1}"#),
            "traceEvents[1]: missing or invalid `ts`",
        ),
        (
            perfetto_doc(r#"{"name":"a","ph":"X","pid":0,"tid":0,"ts":1}"#),
            "traceEvents[0]: missing or invalid `dur`",
        ),
        (
            perfetto_doc(r#"{"name":"m","ph":"b","id":"0x1","pid":0,"tid":0}"#),
            "traceEvents[0]: missing or invalid `ts`",
        ),
        (
            perfetto_doc(r#"{"name":"m","ph":"e","pid":0,"tid":0,"ts":1}"#),
            "traceEvents[0]: missing or invalid `id`",
        ),
        (
            perfetto_doc(
                r#"{"name":"m","ph":"b","id":"0x1","pid":0,"tid":0,"ts":1},{"name":"m","ph":"b","id":"0x1","pid":0,"tid":0,"ts":2}"#,
            ),
            "traceEvents[1]: async id `0x1` reopened on pid 0",
        ),
        (
            perfetto_doc(r#"{"name":"m","ph":"e","id":"0x1","pid":3,"tid":0,"ts":1}"#),
            "traceEvents[0]: async end `0x1` on pid 3 without a begin",
        ),
        (
            perfetto_doc(
                r#"{"name":"m","ph":"b","id":"0x1","pid":0,"tid":0,"ts":9},{"name":"m","ph":"e","id":"0x1","pid":0,"tid":0,"ts":4}"#,
            ),
            "traceEvents[1]: async `0x1` ends at 4 before its begin 9",
        ),
        (
            perfetto_doc(r#"{"name":"c","ph":"C","pid":0,"tid":0,"args":{"value":1}}"#),
            "traceEvents[0]: missing or invalid `ts`",
        ),
        (
            perfetto_doc(r#"{"name":"c","ph":"C","pid":0,"tid":0,"ts":1,"args":{}}"#),
            "traceEvents[0]: missing or invalid `args.value`",
        ),
        (
            perfetto_doc(r#"{"name":"c","ph":"C","pid":0,"tid":0,"ts":1}"#),
            "traceEvents[0]: missing or invalid `args.value`",
        ),
        (
            perfetto_doc(r#"{"name":"a","ph":"Q","pid":0,"tid":0}"#),
            "traceEvents[0]: unknown ph `Q`",
        ),
        (
            perfetto_doc(
                r#"{"name":"m","ph":"b","id":"0x2","pid":1,"tid":0,"ts":5},{"name":"m","ph":"b","id":"0x1","pid":1,"tid":0,"ts":7}"#,
            ),
            "async op `0x1` on pid 1 (begun at 7) never ended",
        ),
        (
            perfetto_doc(
                r#"{"name":"a","ph":"X","pid":0,"tid":1,"ts":0,"dur":10},{"name":"b","ph":"X","pid":0,"tid":1,"ts":5,"dur":10}"#,
            ),
            "lane pid 0 tid 1: slice [5, 15] straddles an enclosing slice ending at 10",
        ),
    ];
    reject_table(validate_perfetto, &cases);
}

#[test]
fn validate_perfetto_accepts_and_counts_every_record_kind() {
    let doc = r#"{"traceEvents":[
        {"name":"write blk#4","cat":"txn","ph":"X","pid":0,"tid":1,"ts":0,"dur":10,"args":{"txn":1}},
        {"name":"issue","ph":"X","pid":0,"tid":1,"ts":0,"dur":10},
        {"name":"m","ph":"b","id":"0x1","pid":0,"tid":1,"ts":2},
        {"name":"m","ph":"e","id":"0x1","pid":0,"tid":1,"ts":2},
        {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"cluster 0"}},
        {"name":"messages","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":1.5}}
    ],"displayTimeUnit":"ns"}"#;
    assert_eq!(
        format!("{:?}", validate_perfetto(doc).expect("valid document")),
        "PerfettoSummary { events: 6, slices: 2, async_ops: 1, counters: 1, meta: 1 }"
    );
}
