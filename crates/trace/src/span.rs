//! Causal span trees: the profiler's view of a trace.
//!
//! A flat event stream (see [`crate::event`]) answers *what happened*;
//! a span tree answers *where the time went*. [`SpanTree::from_events`]
//! folds a cycle-ordered event slice into one root span per coherence
//! transaction, child spans per lifecycle phase, and leaf spans per
//! protocol message (send → deliver, with hop counts), so exporters
//! ([`crate::perfetto`]) and flamegraph folding can render causality
//! directly.
//!
//! Because the recorder uses bounded rings, a trace may be *truncated*:
//! events can reference transactions whose `txn_begin` was evicted. The
//! builder counts those rather than failing; [`SpanTree::check`] offers
//! the strict well-formedness judgment for tests that record with rings
//! large enough to hold the whole run.

use std::collections::hash_map::Entry;

use scd_core::FastMap;

use crate::event::{EventKind, TraceEvent};

/// A message leaf span: one protocol message's flight.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgSpan {
    /// Stable message-kind label (`scd-protocol::MsgKind::label`).
    pub msg: &'static str,
    /// The paper's traffic class label.
    pub class: &'static str,
    /// Source cluster.
    pub src: u32,
    /// Destination cluster.
    pub dst: u32,
    /// The block concerned, if any.
    pub block: Option<u64>,
    /// Cycle the message entered the network.
    pub send: u64,
    /// Cycle it reached its destination (None if the deliver event was
    /// evicted or the message was in flight when the run stopped).
    pub deliver: Option<u64>,
    /// Mesh hops traversed.
    pub hops: u32,
}

impl MsgSpan {
    /// Flight time in cycles (0 when the deliver was not observed).
    pub fn flight(&self) -> u64 {
        self.deliver.map_or(0, |d| d.saturating_sub(self.send))
    }
}

/// A per-phase child span: one segment of a transaction's lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Stable phase label (`issue`, `home_lookup`, `fanout`).
    pub phase: &'static str,
    /// First cycle of the segment (inclusive).
    pub start: u64,
    /// Last cycle of the segment (the next phase's start, or the
    /// transaction end).
    pub end: u64,
    /// Message leaves whose send falls inside this segment.
    pub msgs: Vec<MsgSpan>,
}

impl PhaseSpan {
    /// Segment duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A transaction root span.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnSpan {
    /// Transaction id (unique within the run).
    pub txn: u64,
    /// Requester cluster.
    pub cluster: u32,
    /// The block.
    pub block: u64,
    /// Whether this was a write/ownership transaction.
    pub write: bool,
    /// Issue cycle.
    pub begin: u64,
    /// Completion cycle (None when the run stopped mid-flight or the end
    /// event was evicted).
    pub end: Option<u64>,
    /// NACK-driven reissues reported by the end event.
    pub retries: u32,
    /// NACK events observed for this transaction.
    pub nacks: u32,
    /// Per-phase child spans, in time order, tiling `[begin, end]`.
    pub phases: Vec<PhaseSpan>,
}

impl TxnSpan {
    /// End-to-end latency (0 when the end was not observed).
    pub fn latency(&self) -> u64 {
        self.end.map_or(0, |e| e.saturating_sub(self.begin))
    }

    /// All message leaves across every phase.
    pub fn msgs(&self) -> impl Iterator<Item = &MsgSpan> {
        self.phases.iter().flat_map(|p| p.msgs.iter())
    }
}

/// The derived span forest of one trace.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// One root per transaction, ordered by begin cycle (ties by txn id).
    pub txns: Vec<TxnSpan>,
    /// Messages that belong to no live transaction (sync traffic,
    /// replacement flushes, evictions, or sends whose owner's begin was
    /// evicted).
    pub orphan_msgs: Vec<MsgSpan>,
    /// Lifecycle events referencing transactions whose `txn_begin` was
    /// evicted from the rings (truncated history, not an error).
    pub truncated: u64,
}

/// No index: the end of a `next` chain.
const NIL: usize = usize::MAX;

/// What matches a deliver to its send: `(src, dst, msg, block)`.
type MsgKey = (u32, u32, &'static str, Option<u64>);

struct TxnBuild {
    span: TxnSpan,
    /// `(phase label, cycle)` marks; the begin contributes `issue`.
    marks: Vec<(&'static str, u64)>,
    /// Arena indices of attached message leaves.
    msgs: Vec<usize>,
}

impl SpanTree {
    /// Derives the span forest from a cycle-ordered event slice (the
    /// output of `Tracer::merged` / `Machine::trace_events`).
    ///
    /// Message attribution: a send is attached to the live transaction on
    /// the same block whose requester is the message's source or
    /// destination (most recently begun wins a tie); everything else —
    /// sync traffic, replacement flushes, plain evictions — lands in
    /// [`SpanTree::orphan_msgs`].
    pub fn from_events(events: &[TraceEvent]) -> SpanTree {
        // The working maps are `FastMap`s: the workspace's fixed hasher,
        // fast on these small keys and with no per-process seed, so they
        // allocate and free in the same order every call and leave the
        // allocator's free lists, and the process's peak resident set, the
        // same from one run to the next. Their keys come from a recorded
        // trace, but a file crafted to collide slows only its own replay.
        let mut arena: Vec<MsgSpan> = Vec::new();
        // Beside the arena: the next undelivered message of the same key.
        let mut next: Vec<usize> = Vec::new();
        // (src, dst, msg, block) -> (head, tail) of the FIFO of its
        // undelivered arena indices, linked through `next`; a key leaves
        // the map when its last message delivers.
        let mut pending: FastMap<MsgKey, (usize, usize)> = FastMap::default();
        let mut live: FastMap<u64, TxnBuild> = FastMap::default();
        // block -> live txn ids, in begin order; a block leaves the map
        // when its last live transaction ends.
        let mut by_block: FastMap<u64, Vec<u64>> = FastMap::default();
        let mut done: Vec<TxnBuild> = Vec::new();
        let mut orphan_idx: Vec<usize> = Vec::new();
        let mut truncated = 0u64;

        for ev in events {
            match &ev.kind {
                EventKind::TxnBegin { txn, block, write } => {
                    live.insert(
                        *txn,
                        TxnBuild {
                            span: TxnSpan {
                                txn: *txn,
                                cluster: ev.cluster,
                                block: *block,
                                write: *write,
                                begin: ev.cycle,
                                end: None,
                                retries: 0,
                                nacks: 0,
                                phases: Vec::new(),
                            },
                            marks: vec![("issue", ev.cycle)],
                            msgs: Vec::new(),
                        },
                    );
                    by_block.entry(*block).or_default().push(*txn);
                }
                EventKind::TxnPhase { txn, phase, .. } => match live.get_mut(txn) {
                    Some(b) => b.marks.push((phase.label(), ev.cycle)),
                    None => truncated += 1,
                },
                EventKind::Nack { txn, .. } => match live.get_mut(txn) {
                    Some(b) => b.span.nacks += 1,
                    None => truncated += 1,
                },
                EventKind::Retry { txn, .. } => {
                    if !live.contains_key(txn) {
                        truncated += 1;
                    }
                }
                EventKind::TxnEnd { txn, retries, .. } => match live.remove(txn) {
                    Some(mut b) => {
                        b.span.end = Some(ev.cycle);
                        b.span.retries = *retries;
                        if let Entry::Occupied(mut ids) = by_block.entry(b.span.block) {
                            ids.get_mut().retain(|id| id != txn);
                            if ids.get().is_empty() {
                                ids.remove();
                            }
                        }
                        done.push(b);
                    }
                    None => truncated += 1,
                },
                EventKind::MsgSend {
                    src,
                    dst,
                    msg,
                    class,
                    block,
                    hops,
                } => {
                    let idx = arena.len();
                    arena.push(MsgSpan {
                        msg,
                        class,
                        src: *src,
                        dst: *dst,
                        block: *block,
                        send: ev.cycle,
                        deliver: None,
                        hops: *hops,
                    });
                    next.push(NIL);
                    match pending.entry((*src, *dst, msg, *block)) {
                        Entry::Occupied(mut q) => {
                            let tail = &mut q.get_mut().1;
                            next[*tail] = idx;
                            *tail = idx;
                        }
                        Entry::Vacant(q) => {
                            q.insert((idx, idx));
                        }
                    }
                    // Owner search, newest live txn on the block first:
                    // requester endpoint match, then a write txn (the
                    // fan-out invals/acks a home sends on a requester's
                    // behalf touch third-party clusters), then anything.
                    let owner = block.and_then(|b| by_block.get(&b)).and_then(|ids| {
                        let newest = |pred: &dyn Fn(&TxnBuild) -> bool| {
                            ids.iter()
                                .rev()
                                .find(|id| live.get(id).is_some_and(pred))
                                .copied()
                        };
                        newest(&|t| t.span.cluster == *src || t.span.cluster == *dst)
                            .or_else(|| newest(&|t| t.span.write))
                            .or_else(|| newest(&|_| true))
                    });
                    match owner.and_then(|id| live.get_mut(&id)) {
                        Some(b) => b.msgs.push(idx),
                        None => orphan_idx.push(idx),
                    }
                }
                EventKind::MsgDeliver {
                    src,
                    dst,
                    msg,
                    block,
                } => {
                    if let Entry::Occupied(mut q) = pending.entry((*src, *dst, msg, *block)) {
                        let (head, tail) = *q.get();
                        arena[head].deliver = Some(ev.cycle);
                        if head == tail {
                            q.remove();
                        } else {
                            q.get_mut().0 = next[head];
                        }
                    }
                }
                // Directory-side observatory events carry no span
                // structure: invalidation decisions are already visible
                // as fan-out messages when message tracing is on.
                EventKind::Inval { .. } => {}
                EventKind::Replacement { .. } => {}
            }
        }

        // Transactions still live at the end of the trace keep `end: None`.
        done.extend(live.into_values());
        done.sort_by_key(|b| (b.span.begin, b.span.txn));

        let mut tree = SpanTree {
            truncated,
            ..SpanTree::default()
        };
        for mut b in done {
            b.marks.sort_by_key(|&(_, c)| c);
            let close = b.span.end.unwrap_or_else(|| {
                // No end observed: close phases at the last activity seen.
                b.marks
                    .last()
                    .map(|&(_, c)| c)
                    .unwrap_or(b.span.begin)
                    .max(b.msgs.iter().map(|&i| arena[i].send).max().unwrap_or(0))
            });
            for (i, &(phase, start)) in b.marks.iter().enumerate() {
                let end = b.marks.get(i + 1).map_or(close, |&(_, c)| c);
                b.span.phases.push(PhaseSpan {
                    phase,
                    start,
                    end,
                    msgs: Vec::new(),
                });
            }
            for &idx in &b.msgs {
                let m = arena[idx].clone();
                // Last phase whose start is at or before the send; sends
                // on a boundary belong to the phase they initiate.
                let slot = b
                    .span
                    .phases
                    .iter()
                    .rposition(|p| p.start <= m.send)
                    .unwrap_or(0);
                b.span.phases[slot].msgs.push(m);
            }
            tree.txns.push(b.span);
        }
        tree.orphan_msgs = orphan_idx.into_iter().map(|i| arena[i].clone()).collect();
        tree
    }

    /// Transactions whose end was observed.
    pub fn completed(&self) -> usize {
        self.txns.iter().filter(|t| t.end.is_some()).count()
    }

    /// Message leaves attached to transactions.
    pub fn attributed_msgs(&self) -> usize {
        self.txns.iter().map(|t| t.msgs().count()).sum()
    }

    /// Strict well-formedness judgment, for traces recorded with rings
    /// large enough to avoid eviction:
    ///
    /// 1. every `txn_begin` has a matching `txn_end` (no dangling roots)
    ///    and no lifecycle event was truncated;
    /// 2. phase child spans tile `[begin, end]` contiguously and in time
    ///    order;
    /// 3. every message leaf nests inside its phase span (send within the
    ///    segment) and delivers no earlier than it sends.
    pub fn check(&self) -> Result<(), String> {
        if self.truncated > 0 {
            return Err(format!(
                "{} lifecycle events reference evicted transactions",
                self.truncated
            ));
        }
        for t in &self.txns {
            let end = t
                .end
                .ok_or_else(|| format!("txn {}: begin without end", t.txn))?;
            if end < t.begin {
                return Err(format!("txn {}: ends before it begins", t.txn));
            }
            if t.phases.is_empty() {
                return Err(format!("txn {}: no phase spans", t.txn));
            }
            if t.phases[0].start != t.begin {
                return Err(format!(
                    "txn {}: first phase starts at {} not begin {}",
                    t.txn, t.phases[0].start, t.begin
                ));
            }
            if t.phases[t.phases.len() - 1].end != end {
                return Err(format!(
                    "txn {}: last phase ends at {} not end {}",
                    t.txn,
                    t.phases[t.phases.len() - 1].end,
                    end
                ));
            }
            for w in t.phases.windows(2) {
                if w[0].end != w[1].start {
                    return Err(format!(
                        "txn {}: phase `{}` [{}, {}] does not abut `{}` at {}",
                        t.txn, w[0].phase, w[0].start, w[0].end, w[1].phase, w[1].start
                    ));
                }
            }
            for p in &t.phases {
                if p.end < p.start {
                    return Err(format!(
                        "txn {}: phase `{}` runs backwards",
                        t.txn, p.phase
                    ));
                }
                for m in &p.msgs {
                    if m.send < p.start || m.send > p.end {
                        return Err(format!(
                            "txn {}: msg `{}` sent at {} outside phase `{}` [{}, {}]",
                            t.txn, m.msg, m.send, p.phase, p.start, p.end
                        ));
                    }
                    if let Some(d) = m.deliver {
                        if d < m.send {
                            return Err(format!(
                                "txn {}: msg `{}` delivered at {} before send {}",
                                t.txn, m.msg, d, m.send
                            ));
                        }
                    }
                }
            }
        }
        for m in &self.orphan_msgs {
            if let Some(d) = m.deliver {
                if d < m.send {
                    return Err(format!(
                        "orphan msg `{}` delivered at {} before send {}",
                        m.msg, d, m.send
                    ));
                }
            }
        }
        Ok(())
    }

    /// Folded-stack rendering for flamegraph tooling: one line per stack,
    /// `frame;frame;frame weight`, weights in cycles. Root frames are the
    /// transaction kind (`read`/`write`), children the phase labels, and
    /// leaves the message kinds (weighted by flight time; the phase frame
    /// keeps its remaining self-time). Deterministic: stacks are sorted.
    pub fn to_folded(&self) -> String {
        // A stack is its frames: root, phase (none for background
        // traffic) and message leaf (none for a phase's self-time).
        type Stack = (&'static str, Option<&'static str>, Option<&'static str>);
        let mut weights: FastMap<Stack, u64> = FastMap::default();
        let mut add = |stack: Stack, weight: u64| {
            if weight > 0 {
                *weights.entry(stack).or_insert(0) += weight;
            }
        };
        for t in &self.txns {
            let root = if t.write { "write" } else { "read" };
            for p in &t.phases {
                let mut in_flight = 0u64;
                for m in &p.msgs {
                    add((root, Some(p.phase), Some(m.msg)), m.flight());
                    in_flight += m.flight();
                }
                add((root, Some(p.phase), None), p.duration().saturating_sub(in_flight));
            }
        }
        for m in &self.orphan_msgs {
            add(("background", None, Some(m.msg)), m.flight());
        }
        // Rendered once per distinct stack, then sorted as text: labels
        // are free-form, so two stacks can render alike, and one label can
        // be a prefix of another, which orders differently as a frame.
        let mut lines: Vec<(String, u64)> = weights
            .into_iter()
            .map(|((root, phase, msg), weight)| {
                let mut stack = root.to_string();
                if let Some(phase) = phase {
                    stack.push(';');
                    stack.push_str(phase);
                }
                if let Some(msg) = msg {
                    stack.push_str(";msg:");
                    stack.push_str(msg);
                }
                (stack, weight)
            })
            .collect();
        lines.sort_unstable();
        let mut out = String::new();
        let mut lines = lines.into_iter().peekable();
        while let Some((stack, mut weight)) = lines.next() {
            while let Some((_, more)) = lines.next_if(|(next, _)| *next == stack) {
                weight += more;
            }
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn ev(seq: u64, cycle: u64, cluster: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            cycle,
            cluster,
            kind,
        }
    }

    fn send(src: u32, dst: u32, msg: &'static str, class: &'static str, block: u64) -> EventKind {
        EventKind::MsgSend {
            src,
            dst,
            msg,
            class,
            block: Some(block),
            hops: 2,
        }
    }

    fn deliver(src: u32, dst: u32, msg: &'static str, block: u64) -> EventKind {
        EventKind::MsgDeliver {
            src,
            dst,
            msg,
            block: Some(block),
        }
    }

    /// One write transaction: issue at 10, home lookup at 25, fan-out at
    /// 30, end at 60, with a request, an inval and its ack attached.
    fn write_txn_events() -> Vec<TraceEvent> {
        vec![
            ev(1, 10, 0, EventKind::TxnBegin { txn: 1, block: 4, write: true }),
            ev(2, 10, 0, send(0, 2, "write_req", "request", 4)),
            ev(3, 24, 2, deliver(0, 2, "write_req", 4)),
            ev(4, 25, 0, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::HomeLookup }),
            ev(5, 30, 0, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::Fanout }),
            ev(6, 30, 2, send(2, 3, "inval", "invalidation", 4)),
            ev(7, 44, 3, deliver(2, 3, "inval", 4)),
            ev(8, 44, 3, send(3, 0, "inval_ack", "ack", 4)),
            ev(9, 58, 0, deliver(3, 0, "inval_ack", 4)),
            ev(10, 60, 0, EventKind::TxnEnd { txn: 1, block: 4, latency: 50, retries: 0 }),
        ]
    }

    #[test]
    fn builds_a_three_level_tree() {
        let tree = SpanTree::from_events(&write_txn_events());
        assert_eq!(tree.txns.len(), 1);
        assert!(tree.orphan_msgs.is_empty());
        assert_eq!(tree.truncated, 0);
        let t = &tree.txns[0];
        assert_eq!((t.txn, t.block, t.write), (1, 4, true));
        assert_eq!((t.begin, t.end), (10, Some(60)));
        assert_eq!(t.latency(), 50);
        let labels: Vec<_> = t.phases.iter().map(|p| p.phase).collect();
        assert_eq!(labels, ["issue", "home_lookup", "fanout"]);
        assert_eq!(t.phases[0].duration(), 15);
        assert_eq!(t.phases[1].duration(), 5);
        assert_eq!(t.phases[2].duration(), 30);
        // Messages nest in the phase covering their send cycle.
        assert_eq!(t.phases[0].msgs.len(), 1, "write_req in issue");
        assert_eq!(t.phases[2].msgs.len(), 2, "inval + ack in fanout");
        let req = &t.phases[0].msgs[0];
        assert_eq!(req.msg, "write_req");
        assert_eq!(req.deliver, Some(24));
        assert_eq!(req.flight(), 14);
        tree.check().unwrap();
    }

    #[test]
    fn sync_and_unmatched_messages_are_orphans() {
        let events = vec![
            ev(1, 5, 0, EventKind::MsgSend {
                src: 0,
                dst: 1,
                msg: "lock_req",
                class: "request",
                block: None,
                hops: 1,
            }),
            ev(2, 7, 2, send(2, 3, "writeback", "request", 9)),
        ];
        let tree = SpanTree::from_events(&events);
        assert!(tree.txns.is_empty());
        assert_eq!(tree.orphan_msgs.len(), 2);
        tree.check().unwrap();
    }

    #[test]
    fn message_attribution_prefers_requester_then_write_txn() {
        // Two live transactions on the same block: the reply to cluster 0
        // attaches to txn 1 by requester match, and the third-party inval
        // (home 2 -> sharer 5, neither a requester) falls back to the live
        // *write* txn rather than the newer read.
        let events = vec![
            ev(1, 10, 0, EventKind::TxnBegin { txn: 1, block: 4, write: true }),
            ev(2, 12, 7, EventKind::TxnBegin { txn: 2, block: 4, write: false }),
            ev(3, 20, 2, send(2, 0, "write_reply", "reply", 4)),
            ev(4, 21, 2, send(2, 5, "inval", "invalidation", 4)),
        ];
        let tree = SpanTree::from_events(&events);
        let t1 = tree.txns.iter().find(|t| t.txn == 1).unwrap();
        let msgs: Vec<_> = t1.msgs().map(|m| m.msg).collect();
        assert_eq!(msgs, ["write_reply", "inval"]);
        let t2 = tree.txns.iter().find(|t| t.txn == 2).unwrap();
        assert_eq!(t2.msgs().count(), 0);
        assert!(tree.orphan_msgs.is_empty());
    }

    #[test]
    fn truncated_history_is_counted_not_fatal() {
        let events = vec![ev(
            9,
            100,
            0,
            EventKind::TxnEnd { txn: 3, block: 4, latency: 70, retries: 1 },
        )];
        let tree = SpanTree::from_events(&events);
        assert_eq!(tree.truncated, 1);
        assert!(tree.check().is_err());
    }

    #[test]
    fn dangling_begin_fails_the_strict_check() {
        let events = vec![ev(
            1,
            10,
            0,
            EventKind::TxnBegin { txn: 1, block: 4, write: false },
        )];
        let tree = SpanTree::from_events(&events);
        assert_eq!(tree.completed(), 0);
        let err = tree.check().unwrap_err();
        assert!(err.contains("begin without end"), "{err}");
    }

    #[test]
    fn folded_stacks_are_deterministic_and_weighted_in_cycles() {
        let tree = SpanTree::from_events(&write_txn_events());
        let folded = tree.to_folded();
        let lines: Vec<_> = folded.lines().collect();
        assert!(lines.contains(&"write;issue;msg:write_req 14"), "{folded}");
        assert!(lines.contains(&"write;fanout;msg:inval 14"), "{folded}");
        assert!(lines.contains(&"write;fanout;msg:inval_ack 14"), "{folded}");
        // issue self-time: 15 cycle phase minus 14 in flight.
        assert!(lines.contains(&"write;issue 1"), "{folded}");
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "stacks sorted for determinism");
        // Total weight never exceeds the txn's wall-clock budget.
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert!(total <= 50, "{total} cycles folded from a 50-cycle txn");
    }

    /// Two messages of one `(src, dst, msg, block)` in flight at once: the
    /// delivers are matched to the sends first in, first out, and a key
    /// sent again after its queue emptied starts a new one.
    #[test]
    fn same_key_messages_deliver_in_send_order() {
        let events = vec![
            ev(1, 10, 2, send(2, 3, "inval", "invalidation", 4)),
            ev(2, 12, 2, send(2, 3, "inval", "invalidation", 4)),
            ev(3, 13, 2, send(2, 3, "inval", "invalidation", 5)),
            ev(4, 20, 3, deliver(2, 3, "inval", 4)),
            ev(5, 21, 3, deliver(2, 3, "inval", 5)),
            ev(6, 25, 3, deliver(2, 3, "inval", 4)),
            ev(7, 30, 2, send(2, 3, "inval", "invalidation", 4)),
            ev(8, 41, 3, deliver(2, 3, "inval", 4)),
            ev(9, 42, 3, deliver(2, 3, "inval", 4)),
        ];
        let tree = SpanTree::from_events(&events);
        let flights: Vec<_> = tree.orphan_msgs.iter().map(|m| (m.send, m.deliver)).collect();
        assert_eq!(flights, [(10, Some(20)), (12, Some(25)), (13, Some(21)), (30, Some(41))]);
        tree.check().unwrap();
    }

    #[test]
    fn unfinished_txn_closes_at_last_activity() {
        let events = vec![
            ev(1, 10, 0, EventKind::TxnBegin { txn: 1, block: 4, write: false }),
            ev(2, 25, 0, EventKind::TxnPhase { txn: 1, block: 4, phase: Phase::HomeLookup }),
        ];
        let tree = SpanTree::from_events(&events);
        let t = &tree.txns[0];
        assert_eq!(t.end, None);
        assert_eq!(t.phases.last().unwrap().end, 25);
    }
}
