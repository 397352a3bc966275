//! Property-based tests for the event queue and RNG.

use proptest::prelude::*;
use scd_sim::{EventQueue, SimRng, Stamp};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The reference model: exactly the `BinaryHeap<Reverse<(time, seq)>>`
/// structure the timing wheel replaced. Kept deliberately naive — its
/// correctness is obvious, so agreement transfers confidence to the wheel.
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    now: u64,
    seq: u64,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    fn schedule(&mut self, delay: u64, event: usize) {
        let time = self
            .now
            .checked_add(delay)
            .expect("model delays never overflow in these tests");
        self.schedule_at(time, event);
    }

    fn schedule_at(&mut self, time: u64, event: usize) {
        assert!(time >= self.now);
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.now = time;
        Some((time, event))
    }

    fn pending(&self) -> usize {
        self.heap.len()
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// The `(time, stamp)`-ordered reference for the stamped API: a `BTreeMap`
/// iterates in exactly the delivery order the queue promises, so every
/// view of the queue (pops, ready set, pending walk) can be read off it.
#[derive(Clone)]
struct StampModel {
    pending: BTreeMap<(u64, Stamp), usize>,
    now: u64,
    seq: u64,
    delivered: u64,
}

/// One step of a queue script. `delay` is relative to the clock at the
/// moment the step runs; `pick` selects within the ready set.
#[derive(Clone, Copy, Debug)]
enum QueueOp {
    /// `schedule(delay, id)`: the FIFO stamp.
    Fifo { delay: u64 },
    /// `schedule_at_stamped(now + delay, Stamp { lane, seq }, id)`.
    Stamped { delay: u64, lane: u32, rank: u64 },
    /// `pop()`.
    Pop,
    /// `ready_set()` compared, then `pop_ready(pick % len)`. The ready set
    /// is only ever read directly before a pop, as the explorer does:
    /// `ready_set` may advance the ring's window past the clock, and the
    /// queue refuses a schedule that lands behind the window.
    PopReady { pick: usize },
    /// `clone_from` the queue into a spare with another history (see
    /// [`queue_with_history`]), hold the refill to a clone, and go on in
    /// the refilled queue.
    CloneFrom { history: u64 },
}

/// A queue the script never touched: events of its own, in ring slots and
/// in the overflow level, some of them popped, left pending across a
/// window several cycles wide, so a spare refilled from the script's
/// queue holds occupied slots that queue lacks.
fn queue_with_history(history: u64) -> EventQueue<usize> {
    let mut rng = SimRng::new(history);
    let mut q = EventQueue::new();
    for id in 0..48 {
        let delay = if rng.below(4) == 0 {
            2000 + rng.below(5000)
        } else {
            rng.below(900)
        };
        q.schedule(delay, 9_000_000 + id);
        if rng.below(6) == 0 {
            q.pop();
        }
    }
    q
}

/// Pops `a` and `b` dry side by side, holding their ready sets, pending
/// walks and pops equal at every step.
fn same_views(mut a: EventQueue<usize>, mut b: EventQueue<usize>) -> Result<(), TestCaseError> {
    loop {
        let ready = |q: &mut EventQueue<usize>| {
            q.ready_set()
                .map(|(t, evs)| (t, evs.copied().collect::<Vec<_>>()))
        };
        prop_assert_eq!(ready(&mut a), ready(&mut b));
        let pending = |q: &EventQueue<usize>| {
            let mut walked = Vec::new();
            q.for_each_pending(|t, &id| walked.push((t, id)));
            walked
        };
        prop_assert_eq!(pending(&a), pending(&b));
        let popped = a.pop();
        prop_assert_eq!(popped, b.pop());
        if popped.is_none() {
            return Ok(());
        }
    }
}

fn queue_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<QueueOp>> {
    // Zero delays (same-cycle ties), the near ring, the window edge and the
    // overflow level several windows out, which forces cascades.
    let delay = || prop_oneof![Just(0u64), 0u64..8, 1000u64..1100, 4000u64..100_000];
    // `rank` leads the lane's sequence number, so stamps of one lane and
    // cycle arrive out of order.
    let stamped = || {
        let parts = (delay(), 0u32..3, 0u64..4);
        parts.prop_map(|(delay, lane, rank)| QueueOp::Stamped { delay, lane, rank })
    };
    prop::collection::vec(
        prop_oneof![
            delay().prop_map(|delay| QueueOp::Fifo { delay }),
            stamped(),
            stamped(),
            Just(QueueOp::Pop),
            (0usize..8).prop_map(|pick| QueueOp::PopReady { pick }),
            any::<u64>().prop_map(|history| QueueOp::CloneFrom { history }),
        ],
        len,
    )
}

impl StampModel {
    fn new() -> Self {
        StampModel {
            pending: BTreeMap::new(),
            now: 0,
            seq: 0,
            delivered: 0,
        }
    }

    fn ready(&self) -> Vec<((u64, Stamp), usize)> {
        let Some((&(t, _), _)) = self.pending.first_key_value() else {
            return Vec::new();
        };
        self.pending
            .range((t, Stamp { lane: 0, seq: 0 })..)
            .take_while(|(k, _)| k.0 == t)
            .map(|(&k, &id)| (k, id))
            .collect()
    }

    fn deliver(&mut self, key: (u64, Stamp)) -> Option<(u64, usize)> {
        let id = self.pending.remove(&key)?;
        self.now = key.0;
        self.delivered += 1;
        Some((key.0, id))
    }

    /// Runs `op` on the queue and on the model and holds every view of the
    /// queue to the model. `id` is the event payload and makes lane stamps
    /// unique.
    fn step(
        &mut self,
        q: &mut EventQueue<usize>,
        op: QueueOp,
        id: usize,
    ) -> Result<(), TestCaseError> {
        match op {
            QueueOp::Fifo { delay } => {
                q.schedule(delay, id);
                let stamp = Stamp {
                    lane: u32::MAX,
                    seq: self.seq,
                };
                self.seq += 1;
                self.pending.insert((self.now + delay, stamp), id);
            }
            QueueOp::Stamped { delay, lane, rank } => {
                let stamp = Stamp {
                    lane,
                    seq: rank * 1_000_000 + id as u64,
                };
                q.schedule_at_stamped(self.now + delay, stamp, id);
                self.pending.insert((self.now + delay, stamp), id);
            }
            QueueOp::Pop => {
                let first = self.pending.first_key_value().map(|(&k, _)| k);
                prop_assert_eq!(q.pop(), first.and_then(|k| self.deliver(k)));
            }
            QueueOp::PopReady { pick } => {
                let ready = self.ready();
                let seen = q
                    .ready_set()
                    .map(|(t, evs)| (t, evs.into_iter().copied().collect::<Vec<_>>()));
                let want = ready
                    .first()
                    .map(|&((t, _), _)| (t, ready.iter().map(|&(_, id)| id).collect::<Vec<_>>()));
                prop_assert_eq!(seen, want);
                prop_assert_eq!(q.pop_ready(ready.len()), None);
                if !ready.is_empty() {
                    let (key, _) = ready[pick % ready.len()];
                    prop_assert_eq!(q.pop_ready(pick % ready.len()), self.deliver(key));
                }
            }
            QueueOp::CloneFrom { history } => {
                let refill = |q: &EventQueue<usize>| {
                    let mut spare = queue_with_history(history);
                    spare.clone_from(q);
                    spare
                };
                same_views(q.clone(), refill(q))?;
                *q = refill(q);
            }
        }
        self.agrees(q)
    }

    fn agrees(&self, q: &EventQueue<usize>) -> Result<(), TestCaseError> {
        prop_assert_eq!(q.now(), self.now);
        prop_assert_eq!(q.delivered(), self.delivered);
        prop_assert_eq!(q.pending(), self.pending.len());
        prop_assert_eq!(q.is_empty(), self.pending.is_empty());
        prop_assert_eq!(
            q.peek_time(),
            self.pending.first_key_value().map(|(&(t, _), _)| t)
        );
        let mut walked = Vec::new();
        q.for_each_pending(|t, &id| walked.push((t, id)));
        let want: Vec<(u64, usize)> = self.pending.iter().map(|(&(t, _), &id)| (t, id)).collect();
        prop_assert_eq!(walked, want);
        Ok(())
    }

    /// Pops the queue dry against the model.
    fn drain(&mut self, q: &mut EventQueue<usize>) -> Result<(), TestCaseError> {
        while !self.pending.is_empty() {
            self.step(q, QueueOp::Pop, 0)?;
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.ready_set().map(|(t, _)| t), None);
        Ok(())
    }
}

/// The `checked_add` overflow diagnosis from PR 4 must survive the wheel
/// rewrite: a delay that would wrap the clock panics with the overflow
/// message, not with "scheduled in the past" or a silent wrap.
#[test]
fn overflow_panic_message_survives_the_wheel() {
    let err = std::panic::catch_unwind(|| {
        let mut q = EventQueue::new();
        q.schedule_at(7, 0u8);
        q.pop();
        q.schedule(u64::MAX, 1u8);
    })
    .expect_err("wrapping delay must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(
        msg.contains("overflows the cycle clock"),
        "wrong diagnosis: {msg}"
    );
}

proptest! {
    #[test]
    fn pops_are_time_sorted_and_fifo_within_ties(
        times in prop::collection::vec(0u64..1000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        let mut count = 0;
        while let Some((t, id)) = q.pop() {
            count += 1;
            prop_assert_eq!(t, times[id], "event delivered at its scheduled time");
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((t, id));
        }
        prop_assert_eq!(count, times.len());
        prop_assert_eq!(q.delivered(), times.len() as u64);
    }

    #[test]
    fn interleaved_schedule_and_pop_never_time_travels(
        script in prop::collection::vec((0u64..50, any::<bool>()), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut popped_at = Vec::new();
        for (delay, do_pop) in script {
            q.schedule(delay, ());
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    popped_at.push(t);
                }
            }
        }
        while let Some((t, ())) = q.pop() {
            popped_at.push(t);
        }
        for w in popped_at.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn rng_below_is_always_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// The timing wheel must be observationally identical to the naive
    /// comparison-heap it replaced: same `(time, FIFO)` pop order under
    /// arbitrary schedule/pop interleavings. Delays are drawn to straddle
    /// every interesting regime — zero (same-cycle ties), within the
    /// near-future ring, exactly at and around the ring-size boundary
    /// (wheel wrap), and far-future values that exercise the overflow
    /// cascade.
    #[test]
    fn wheel_matches_binary_heap_model(
        script in prop::collection::vec(
            (
                prop_oneof![
                    Just(0u64),
                    0u64..8,
                    1000u64..1100,      // straddles the 1024-slot boundary
                    4000u64..100_000,   // overflow level, multiple windows out
                ],
                0usize..3, // pops attempted after this schedule
            ),
            1..200,
        )
    ) {
        let mut wheel = EventQueue::new();
        let mut model = HeapModel::new();
        for (id, &(delay, pops)) in script.iter().enumerate() {
            wheel.schedule(delay, id);
            model.schedule(delay, id);
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), model.pop());
                prop_assert_eq!(wheel.now(), model.now);
                prop_assert_eq!(wheel.pending(), model.pending());
                prop_assert_eq!(wheel.peek_time(), model.peek_time());
            }
        }
        loop {
            let (w, m) = (wheel.pop(), model.pop());
            prop_assert_eq!(w, m);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.delivered(), script.len() as u64);
    }

    /// A clone is a second queue, not a second view of one: after a shared
    /// prefix (cascades, out-of-order lane stamps, mid-bucket removals,
    /// buckets emptied and refilled) the original and its clone run
    /// different suffixes, and each stays equal to its own model in every
    /// view — so neither sees an event, a freed bucket or a clock advance of
    /// the other's. Both are then popped dry.
    #[test]
    fn clone_then_diverge_matches_the_stamp_model(
        prefix in queue_ops(0..120),
        suffix_a in queue_ops(1..120),
        suffix_b in queue_ops(1..120),
    ) {
        let mut q = EventQueue::new();
        let mut model = StampModel::new();
        for (id, &op) in prefix.iter().enumerate() {
            model.step(&mut q, op, id)?;
        }
        let (mut q2, mut model2) = (q.clone(), model.clone());
        model2.agrees(&q2)?;
        // Interleaved, so a structure shared between the copies would be
        // written by one between two reads of the other.
        for i in 0..suffix_a.len().max(suffix_b.len()) {
            if let Some(&op) = suffix_a.get(i) {
                model.step(&mut q, op, 1_000 + i)?;
            }
            if let Some(&op) = suffix_b.get(i) {
                model2.step(&mut q2, op, 2_000 + i)?;
            }
        }
        // A clone taken late, of a queue that has freed and reused buckets.
        let (mut q3, mut model3) = (q.clone(), model.clone());
        drop(q);
        model3.drain(&mut q3)?;
        model2.drain(&mut q2)?;
    }

    /// Same-cycle bursts at a wheel-wrap boundary: many events for the
    /// same few cycles right around a multiple of the ring size must pop
    /// in global schedule order within each cycle.
    #[test]
    fn wheel_fifo_ties_at_wrap_boundary(
        offsets in prop::collection::vec(1022u64..1027, 1..120)
    ) {
        let mut wheel = EventQueue::new();
        let mut model = HeapModel::new();
        for (id, &t) in offsets.iter().enumerate() {
            wheel.schedule_at(t, id);
            model.schedule_at(t, id);
        }
        for _ in 0..offsets.len() {
            prop_assert_eq!(wheel.pop(), model.pop());
        }
        prop_assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn rng_streams_reproduce(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..50)) {
        let mut r = SimRng::new(seed);
        let mut orig = v.clone();
        r.shuffle(&mut v);
        orig.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(orig, v);
    }
}
