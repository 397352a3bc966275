//! Time-ordered event queue with deterministic same-cycle tie-breaking.
//!
//! Implemented as a **hierarchical timing wheel** rather than a comparison
//! heap: the near future lives in a power-of-two ring of buckets indexed by
//! `cycle & WHEEL_MASK`, and everything beyond the current window sits in a
//! far-future overflow level that is cascaded into the ring when the wheel
//! catches up. `schedule`/`pop` are O(1) amortized (the heap paid O(log n)
//! comparisons per operation), which matters because every simulated
//! message, processor step and replay goes through this queue.
//!
//! # Delivery order
//!
//! Events are delivered in `(time, stamp)` order, where the [`Stamp`] is a
//! `(lane, seq)` pair:
//!
//! * [`EventQueue::schedule`]/[`EventQueue::schedule_at`] assign the
//!   sentinel lane `u32::MAX` and a global schedule counter, which makes
//!   same-cycle delivery FIFO in schedule order — the classic heap
//!   tie-break, and the behaviour every pre-existing caller sees.
//! * [`EventQueue::schedule_at_stamped`] lets the caller supply the stamp.
//!   The machine uses per-lane (per-cluster) monotone counters so the
//!   same-cycle order is a pure function of each lane's local history —
//!   independent of the global interleaving in which the schedules were
//!   issued.
//!
//! Structurally: the ring window is always `WHEEL_SLOTS` cycles and aligned
//! to a multiple of `WHEEL_SLOTS`, so within one window a bucket holds
//! events of exactly **one** cycle value — scanning buckets upward from
//! `now`'s slot enumerates pending times in increasing order. Within a
//! bucket, events are kept sorted by stamp (insertion finds the position;
//! the append fast path covers FIFO callers), so popping from the front
//! yields the bucket minimum.
//!
//! # Representation
//!
//! A slot owns no storage. Every event in the ring is a node of one
//! **slab** (`Vec<Node>`), a bucket is a singly linked list through the
//! nodes' `next` indices, and the ring itself is a table of `(head, tail)`
//! node indices, one pair per slot. A delivered event's node goes onto a
//! free list threaded through the same `next` field and is the first to be
//! reused, so a machine with a few dozen events in flight keeps working in
//! the same few cache lines, and nothing is allocated once the slab has
//! reached the run's high-water mark.
//!
//! What this buys beyond the pop: `clone` is two flat copies — the slab
//! (pending events plus the free nodes, a `memcpy` when `E: Copy`) and the
//! 8 KB link table — `drop` frees two blocks, and
//! [`EventQueue::for_each_pending`] walks occupied slots only. None of them
//! visits `WHEEL_SLOTS` buckets, which is what a model checker that clones
//! a machine per explored state used to pay for.
//!
//! Stamp-sorted insertion walks the bucket's list when the append fast
//! path does not apply. A bucket is the events of *one* cycle, a handful
//! on the machines this simulates; the `VecDeque` buckets this replaced
//! binary-searched the position and then shifted the tail, which is linear
//! as well.

/// Simulation time, in processor cycles.
pub type Cycle = u64;

/// Deterministic same-cycle delivery rank: events scheduled for the same
/// cycle are delivered in ascending `(lane, seq)` order.
///
/// Callers that don't care use the plain `schedule` APIs, which stamp
/// events with the sentinel lane `u32::MAX` and a global counter (FIFO).
/// Callers that need an interleaving-independent order (the machine, and
/// the stream pump behind it) stamp each event from a per-lane monotone
/// counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    /// The emitting lane (a cluster index in the machine; `u32::MAX` for
    /// plain FIFO schedules).
    pub lane: u32,
    /// Monotone sequence number within the lane.
    pub seq: u64,
}

impl Stamp {
    /// The sentinel stamp used by the plain `schedule` APIs: sorts after
    /// every lane-stamped event of the same cycle, FIFO among itself.
    fn fifo(seq: u64) -> Self {
        Stamp {
            lane: u32::MAX,
            seq,
        }
    }
}

/// log2 of the near-future ring size.
const WHEEL_BITS: u32 = 10;
/// Near-future ring size: the wheel covers `[wheel_base, wheel_base + 1024)`.
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Slot index mask (`cycle & WHEEL_MASK` is the bucket of `cycle`).
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
/// Words in the bucket-occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// The null node index: end of a bucket's list, end of the free list, and
/// the `head`/`tail` of an empty slot. The slab never grows to this index.
const NIL: u32 = u32::MAX;

/// An event in the overflow level, or on its way into the ring.
#[derive(Clone)]
struct Scheduled<E> {
    time: Cycle,
    /// Same-cycle delivery rank (see [`Stamp`]).
    stamp: Stamp,
    event: E,
}

/// One slab entry: an event in a ring bucket, or a free node.
#[derive(Clone, Copy)]
struct Node<E> {
    time: Cycle,
    stamp: Stamp,
    /// `None` exactly while the node is on the free list.
    event: Option<E>,
    /// The bucket's next event in stamp order, or the next free node.
    next: u32,
}

impl<E> Node<E> {
    fn event(&self) -> &E {
        self.event.as_ref().expect("linked node holds no event")
    }
}

/// A slot's bucket: first and last node of its list, `NIL` when empty.
#[derive(Clone, Copy)]
struct Links {
    head: u32,
    tail: u32,
}

const EMPTY: Links = Links {
    head: NIL,
    tail: NIL,
};

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same cycle are delivered in the order they were
/// scheduled, so simulations are reproducible regardless of queue internals.
///
/// ```
/// use scd_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(10, "late");
/// q.schedule(5, "early");
/// q.schedule(5, "early-second");
/// assert_eq!(q.pop(), Some((5, "early")));
/// assert_eq!(q.pop(), Some((5, "early-second")));
/// assert_eq!(q.now(), 5);
/// assert_eq!(q.pop(), Some((10, "late")));
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Near-future ring: the list at `ring[i]` holds the events of the
    /// unique cycle `t` in the current window with `t & WHEEL_MASK == i`,
    /// in stamp order.
    ring: Box<[Links; WHEEL_SLOTS]>,
    /// The ring's events and the free nodes, linked by index.
    nodes: Vec<Node<E>>,
    /// First free node (`NIL` when every node is in a bucket).
    free_head: u32,
    /// One bit per slot: set iff the slot's bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Events at or beyond `wheel_base + WHEEL_SLOTS`, in schedule order.
    overflow: Vec<Scheduled<E>>,
    /// Minimum time in `overflow` (`u64::MAX` when empty).
    overflow_min: Cycle,
    /// Start of the ring's window; always a multiple of `WHEEL_SLOTS`.
    wheel_base: Cycle,
    /// Events currently in the ring (as opposed to the overflow level).
    in_wheel: usize,
    now: Cycle,
    seq: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            ring: Box::new([EMPTY; WHEEL_SLOTS]),
            nodes: Vec::new(),
            free_head: NIL,
            occupied: [0; WHEEL_WORDS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            wheel_base: 0,
            in_wheel: 0,
            now: 0,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current simulation time: the delivery time of the last popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Whether `time` falls inside the ring's current window. Written as a
    /// subtraction so the window that ends at `u64::MAX` needs no special
    /// case.
    fn in_window(&self, time: Cycle) -> bool {
        time >= self.wheel_base && time - self.wheel_base <= WHEEL_MASK
    }

    /// The events of a slot's bucket, in delivery order.
    fn bucket(&self, slot: usize) -> impl Iterator<Item = &Node<E>> + Clone {
        let at = |n: u32| self.nodes.get(n as usize);
        std::iter::successors(at(self.ring[slot].head), move |node| at(node.next))
    }

    /// Points the link after `prev` in `slot`'s list — the slot's head
    /// when `prev` is `NIL` — at `to`.
    fn relink(&mut self, slot: usize, prev: u32, to: u32) {
        if prev == NIL {
            self.ring[slot].head = to;
        } else {
            self.nodes[prev as usize].next = to;
        }
    }

    fn bucket_push(&mut self, s: Scheduled<E>) {
        let slot = (s.time & WHEEL_MASK) as usize;
        let Links { head, tail } = self.ring[slot];
        let node = Node {
            time: s.time,
            stamp: s.stamp,
            event: Some(s.event),
            next: NIL,
        };
        let n = if self.free_head == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1)
                .ok()
                .filter(|&n| n != NIL)
                .expect("event slab outgrew its u32 links")
        } else {
            let n = self.free_head;
            self.free_head = std::mem::replace(&mut self.nodes[n as usize], node).next;
            n
        };
        if head == NIL {
            self.ring[slot] = Links { head: n, tail: n };
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            // One time value per bucket within a window — a cheap always-on
            // check (this is the invariant that makes the bucket the
            // same-cycle ready set). Was debug-only; promoted after the
            // debug-only-check class of bugs this module has already paid
            // for.
            assert!(
                self.nodes[head as usize].time == s.time,
                "bucket holds mixed cycles ({} vs {})",
                self.nodes[head as usize].time,
                s.time
            );
            // Keep the bucket sorted by stamp. FIFO callers always append
            // (their stamps are globally monotone), so the common case is
            // O(1); a lane-stamped event that arrives out of order goes in
            // front of the first later stamp (the tail's, at the latest).
            if self.nodes[tail as usize].stamp <= s.stamp {
                self.nodes[tail as usize].next = n;
                self.ring[slot].tail = n;
            } else {
                let (mut prev, mut at) = (NIL, head);
                while self.nodes[at as usize].stamp <= s.stamp {
                    (prev, at) = (at, self.nodes[at as usize].next);
                }
                self.nodes[n as usize].next = at;
                self.relink(slot, prev, n);
            }
        }
        self.in_wheel += 1;
    }

    /// Unlinks the `idx`-th event of `slot`'s bucket, frees its node and
    /// delivers it: the clock moves to its time, never backwards (see
    /// [`EventQueue::pop`]). `None` (and no change) if the bucket has no
    /// such event.
    fn deliver(&mut self, slot: usize, idx: usize) -> Option<(Cycle, E)> {
        let (mut prev, mut at) = (NIL, self.ring[slot].head);
        for _ in 0..idx {
            if at == NIL {
                break;
            }
            (prev, at) = (at, self.nodes[at as usize].next);
        }
        if at == NIL {
            return None;
        }
        let next = self.nodes[at as usize].next;
        self.relink(slot, prev, next);
        if next == NIL {
            self.ring[slot].tail = prev;
            if prev == NIL {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        let node = &mut self.nodes[at as usize];
        let (time, event) = (node.time, node.event.take());
        node.next = self.free_head;
        self.free_head = at;
        self.in_wheel -= 1;
        self.now = self.now.max(time);
        self.delivered += 1;
        Some((time, event.expect("linked node holds no event")))
    }

    /// Schedules `event` to fire `delay` cycles from now.
    ///
    /// # Panics
    /// If `now + delay` overflows the cycle clock. The unchecked add used
    /// to wrap in release builds (e.g. a runaway exponential backoff), and
    /// the wrapped time then tripped [`EventQueue::schedule_at`]'s
    /// "scheduled in the past" panic — a misleading diagnosis for what is
    /// really a delay-overflow bug at the call site.
    pub fn schedule(&mut self, delay: Cycle, event: E) {
        let time = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "event delay overflows the cycle clock (now {} + delay {delay})",
                self.now
            )
        });
        self.schedule_at(time, event);
    }

    /// Schedules `event` at absolute cycle `time`.
    ///
    /// # Panics
    /// If `time` is in the past — causality violations are always bugs.
    pub fn schedule_at(&mut self, time: Cycle, event: E) {
        let stamp = Stamp::fifo(self.seq);
        self.seq += 1;
        self.schedule_at_stamped(time, stamp, event);
    }

    /// Schedules `event` at absolute cycle `time` with an explicit
    /// same-cycle delivery [`Stamp`]. Events of one cycle are delivered in
    /// ascending stamp order regardless of the order they were scheduled.
    ///
    /// # Panics
    /// If `time` is in the past — causality violations are always bugs.
    pub fn schedule_at_stamped(&mut self, time: Cycle, stamp: Stamp, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past ({time} < {})",
            self.now
        );
        let s = Scheduled { time, stamp, event };
        if self.in_window(time) {
            self.bucket_push(s);
        } else {
            // `ready_set` can move the window past the clock (it cascades
            // without popping); a schedule behind the window would then sit
            // in the overflow level *before* the ring's events, which no
            // reader of this queue expects.
            assert!(
                time > self.wheel_base,
                "event scheduled behind the wheel window ({time} < {})",
                self.wheel_base
            );
            self.overflow_min = self.overflow_min.min(time);
            self.overflow.push(s);
        }
    }

    /// First occupied bucket at or after `start` in wrapped slot order.
    /// Only called while the ring holds at least one event.
    fn next_occupied(&self, start: usize) -> usize {
        // Always-on: if `in_wheel` accounting drifted, the scan below would
        // spin forever on an all-zero bitmap.
        assert!(self.in_wheel > 0, "in_wheel accounting out of sync");
        let mut word = start / 64;
        let masked = self.occupied[word] & (!0u64 << (start % 64));
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
        }
        loop {
            word = (word + 1) % WHEEL_WORDS;
            if self.occupied[word] != 0 {
                return word * 64 + self.occupied[word].trailing_zeros() as usize;
            }
        }
    }

    /// Advances the window to the one containing the earliest overflow
    /// event and cascades every overflow event that now fits into the ring.
    /// Only called when the ring is empty and the overflow level is not.
    /// Sorted bucket insertion makes the cascade order-independent: buckets
    /// end up stamp-sorted whatever order the overflow level held.
    fn cascade(&mut self) {
        assert_eq!(self.in_wheel, 0, "cascade with a non-empty ring");
        assert!(!self.overflow.is_empty(), "cascade with an empty overflow");
        let base = self.overflow_min & !WHEEL_MASK;
        assert!(base > self.wheel_base, "cascade must advance the window");
        self.wheel_base = base;
        self.overflow_min = u64::MAX;
        let pending = std::mem::take(&mut self.overflow);
        for s in pending {
            if self.in_window(s.time) {
                self.bucket_push(s);
            } else {
                self.overflow_min = self.overflow_min.min(s.time);
                self.overflow.push(s);
            }
        }
        // Was debug-only; a cascade that strands the minimum in overflow
        // would silently reorder deliveries.
        assert!(self.in_wheel > 0, "cascade must land the minimum");
    }

    /// Delivers the next event, advancing the clock to its time.
    ///
    /// An event whose time is behind the clock (only a corrupted queue
    /// holds one: every schedule refuses the past) is delivered with its
    /// own time and leaves the clock where it was, so `time < now()` after
    /// the pop reports it; the caller decides how to fail.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let slot = self.front_slot()?;
        Some(
            self.deliver(slot, 0)
                .expect("occupancy bit set on empty bucket"),
        )
    }

    /// Bucket index of the earliest pending event, cascading the overflow
    /// level into the ring first if necessary. `None` when empty.
    fn front_slot(&mut self) -> Option<usize> {
        if self.in_wheel == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.cascade();
        }
        let start = (self.now.max(self.wheel_base) & WHEEL_MASK) as usize;
        Some(self.next_occupied(start))
    }

    /// The **ready set**: every event scheduled for the earliest pending
    /// cycle, in delivery (stamp) order, without consuming any of them.
    ///
    /// Because a ring bucket holds events of exactly one cycle value (see
    /// module docs), the ready set is simply the earliest occupied bucket;
    /// this cascades the far-future level first when the ring is empty.
    /// Exploration tooling uses this to enumerate the same-cycle delivery
    /// choices a run could make; the events are walked in place (clone the
    /// iterator to walk them again), not collected.
    pub fn ready_set(&mut self) -> Option<(Cycle, impl Iterator<Item = &E> + Clone)> {
        let slot = self.front_slot()?;
        let time = self.peek_slot(slot);
        Some((time, self.bucket(slot).map(Node::event)))
    }

    /// Delivers the `idx`-th event of the ready set (delivery order within
    /// the earliest cycle), advancing the clock to its time as
    /// [`EventQueue::pop`] does. `pop_ready(0)` is
    /// exactly [`EventQueue::pop`]; larger indices let an explorer branch
    /// over alternative same-cycle delivery orders. Returns `None` if the
    /// queue is empty or `idx` is out of range.
    pub fn pop_ready(&mut self, idx: usize) -> Option<(Cycle, E)> {
        let slot = self.front_slot()?;
        self.deliver(slot, idx)
    }

    /// Visits every pending event in delivery order (time-sorted, stamp
    /// order within a cycle) as `(time, &event)`. Intended for state
    /// inspection and canonical fingerprinting.
    ///
    /// The ring is already in that order — the window is aligned, so
    /// ascending occupied slots are ascending cycles, and a bucket's list
    /// is stamp-sorted — and every overflow event is later than the
    /// window; only the overflow level, kept in schedule order, is sorted
    /// here.
    pub fn for_each_pending(&self, mut f: impl FnMut(Cycle, &E)) {
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for node in self.bucket(slot) {
                    f(node.time, node.event());
                }
            }
        }
        let mut far: Vec<&Scheduled<E>> = self.overflow.iter().collect();
        far.sort_by_key(|s| (s.time, s.stamp));
        for s in far {
            f(s.time, &s.event);
        }
    }

    /// Moves the clock to `time` without delivering anything, stranding any
    /// pending event before `time` behind it. A corruption for tests of
    /// the callers' `time < now()` check; no simulation calls it.
    #[doc(hidden)]
    pub fn warp_clock(&mut self, time: Cycle) {
        self.now = time;
    }

    /// Delivery time of the next event without consuming it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.in_wheel == 0 {
            return (!self.overflow.is_empty()).then_some(self.overflow_min);
        }
        let start = (self.now.max(self.wheel_base) & WHEEL_MASK) as usize;
        Some(self.peek_slot(self.next_occupied(start)))
    }

    /// The cycle an occupied slot holds.
    fn peek_slot(&self, slot: usize) -> Cycle {
        let head = self.bucket(slot).next();
        head.expect("occupancy bit set on empty bucket").time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, 'c');
        q.schedule_at(10, 'a');
        q.schedule_at(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn an_event_behind_the_clock_is_reported_not_rewound_to() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 'a');
        q.schedule_at(5000, 'b');
        q.warp_clock(50);
        assert_eq!(q.pop(), Some((10, 'a')), "delivered with its own time");
        assert_eq!(q.now(), 50, "the clock does not move backwards");
        assert_eq!(q.pop(), Some((5000, 'b')));
        assert_eq!(q.now(), 5000);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.pop();
        assert_eq!(q.now(), 5);
        q.schedule(0, 2); // same-cycle scheduling is allowed
        assert_eq!(q.pop(), Some((5, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 1);
        q.pop();
        q.schedule_at(3, 2);
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(100, 'x');
        q.pop();
        q.schedule(50, 'y');
        assert_eq!(q.pop(), Some((150, 'y')));
    }

    /// A huge relative delay must be diagnosed as an overflow, not as the
    /// wrapped clock's "scheduled in the past" (release builds previously
    /// wrapped `now + delay` silently).
    #[test]
    #[should_panic(expected = "overflows the cycle clock")]
    fn overflowing_delay_panics_with_overflow_message() {
        let mut q = EventQueue::new();
        q.schedule_at(100, 1);
        q.pop(); // now == 100, so u64::MAX wraps if added unchecked
        q.schedule(u64::MAX, 2);
    }

    #[test]
    fn pending_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 1);
        assert_eq!(q.pending(), 2);
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert!(!q.is_empty());
    }

    /// Events straddling a window boundary (multiples of the wheel size)
    /// still come out in time order.
    #[test]
    fn wheel_wrap_boundary_is_seamless() {
        let mut q = EventQueue::new();
        let w = WHEEL_SLOTS as u64;
        for &t in &[w + 1, w - 1, w, 2 * w + 3, 1] {
            q.schedule_at(t, t);
        }
        let mut last = 0;
        let mut n = 0;
        while let Some((t, e)) = q.pop() {
            assert_eq!(t, e);
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 5);
    }

    /// Overflow events cascade into the ring ahead of any later schedule
    /// for the same cycle, preserving FIFO by global schedule order.
    #[test]
    fn cascade_preserves_fifo_against_direct_schedules() {
        let mut q = EventQueue::new();
        let far = 5 * WHEEL_SLOTS as u64 + 17;
        q.schedule_at(far, "overflowed-first");
        q.schedule_at(1, "near");
        assert_eq!(q.pop(), Some((1, "near")));
        // Still in the first window: `far` is overflow, this pop cascades.
        q.schedule_at(far, "scheduled-later");
        assert_eq!(q.pop(), Some((far, "overflowed-first")));
        assert_eq!(q.pop(), Some((far, "scheduled-later")));
    }

    /// Far-future events (many windows ahead) are reached directly, not by
    /// stepping the wheel through empty windows.
    #[test]
    fn sparse_far_future_events_are_reached() {
        let mut q = EventQueue::new();
        q.schedule_at(10_000_000, 'z');
        q.schedule_at(u64::MAX, 'w');
        assert_eq!(q.peek_time(), Some(10_000_000));
        assert_eq!(q.pop(), Some((10_000_000, 'z')));
        assert_eq!(q.pop(), Some((u64::MAX, 'w')));
        assert_eq!(q.pop(), None);
    }

    /// The ready set is the full same-cycle FIFO bucket, and `pop_ready`
    /// can deliver it in any order while later cycles stay untouched.
    #[test]
    fn ready_set_exposes_same_cycle_choices() {
        let mut q = EventQueue::new();
        q.schedule_at(5, 'a');
        q.schedule_at(5, 'b');
        q.schedule_at(5, 'c');
        q.schedule_at(9, 'z');
        let (t, ready) = q.ready_set().unwrap();
        assert_eq!(t, 5);
        assert_eq!(ready.collect::<Vec<_>>(), vec![&'a', &'b', &'c']);
        assert_eq!(q.pop_ready(1), Some((5, 'b')));
        assert_eq!(q.pop_ready(1), Some((5, 'c')));
        assert_eq!(q.pop_ready(0), Some((5, 'a')));
        let (t, ready) = q.ready_set().unwrap();
        assert_eq!((t, ready.collect::<Vec<_>>()), (9, vec![&'z']));
        assert_eq!(q.pop_ready(3), None); // out of range leaves the queue intact
        assert_eq!(q.pop(), Some((9, 'z')));
        assert!(q.ready_set().is_none());
    }

    /// `ready_set` cascades the far-future level, and a cloned queue
    /// replays identically to the original.
    #[test]
    fn ready_set_cascades_and_clone_replays() {
        let mut q = EventQueue::new();
        let far = 3 * WHEEL_SLOTS as u64 + 11;
        q.schedule_at(far, 1u32);
        q.schedule_at(far, 2u32);
        let mut dup = q.clone();
        let (t, ready) = q.ready_set().unwrap();
        assert_eq!((t, ready.count()), (far, 2));
        assert_eq!(q.pop_ready(1), Some((far, 2)));
        assert_eq!(dup.pop(), Some((far, 1)));
        assert_eq!(dup.pop(), Some((far, 2)));
        assert_eq!(q.pop(), Some((far, 1)));
    }

    /// `for_each_pending` visits events in delivery order across the ring
    /// and the overflow level.
    #[test]
    fn pending_iteration_is_delivery_ordered() {
        let mut q = EventQueue::new();
        let far = 2 * WHEEL_SLOTS as u64;
        q.schedule_at(far, 30);
        q.schedule_at(4, 10);
        q.schedule_at(4, 11);
        q.schedule_at(9, 20);
        let mut seen = Vec::new();
        q.for_each_pending(|t, &e| seen.push((t, e)));
        assert_eq!(seen, vec![(4, 10), (4, 11), (9, 20), (far, 30)]);
    }

    fn st(lane: u32, seq: u64) -> Stamp {
        Stamp { lane, seq }
    }

    /// Lane-stamped events of one cycle come out in stamp order regardless
    /// of the order they were scheduled — the property the machine relies
    /// on for interleaving-independent delivery.
    #[test]
    fn stamped_events_sort_within_a_cycle() {
        let mut q = EventQueue::new();
        q.schedule_at_stamped(5, st(2, 0), "c2");
        q.schedule_at_stamped(5, st(0, 1), "a1");
        q.schedule_at_stamped(5, st(1, 0), "b0");
        q.schedule_at_stamped(5, st(0, 0), "a0");
        q.schedule_at_stamped(3, st(9, 9), "early");
        assert_eq!(q.pop(), Some((3, "early")));
        assert_eq!(q.pop(), Some((5, "a0")));
        assert_eq!(q.pop(), Some((5, "a1")));
        assert_eq!(q.pop(), Some((5, "b0")));
        assert_eq!(q.pop(), Some((5, "c2")));
    }

    /// Plain schedules use the sentinel lane, so they sort after every
    /// lane-stamped event of the same cycle and stay FIFO among themselves.
    #[test]
    fn plain_schedules_sort_after_stamped_and_stay_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(7, "plain-first");
        q.schedule_at_stamped(7, st(3, 100), "stamped");
        q.schedule_at(7, "plain-second");
        assert_eq!(q.pop(), Some((7, "stamped")));
        assert_eq!(q.pop(), Some((7, "plain-first")));
        assert_eq!(q.pop(), Some((7, "plain-second")));
    }

    /// Stamp order survives the overflow cascade: far-future events land in
    /// their bucket sorted even though the overflow level held them in
    /// schedule order.
    #[test]
    fn cascade_restores_stamp_order() {
        let mut q = EventQueue::new();
        let far = 4 * WHEEL_SLOTS as u64 + 9;
        q.schedule_at_stamped(far, st(5, 0), 50u32);
        q.schedule_at_stamped(far, st(1, 1), 11);
        q.schedule_at_stamped(far, st(1, 0), 10);
        assert_eq!(q.pop(), Some((far, 10)));
        assert_eq!(q.pop(), Some((far, 11)));
        assert_eq!(q.pop(), Some((far, 50)));
    }

    /// `for_each_pending` and `ready_set` both present stamp order.
    #[test]
    fn pending_and_ready_views_use_stamp_order() {
        let mut q = EventQueue::new();
        q.schedule_at_stamped(4, st(1, 0), 'b');
        q.schedule_at_stamped(4, st(0, 7), 'a');
        q.schedule_at_stamped(8, st(0, 8), 'z');
        let mut seen = Vec::new();
        q.for_each_pending(|t, &e| seen.push((t, e)));
        assert_eq!(seen, vec![(4, 'a'), (4, 'b'), (8, 'z')]);
        let (t, ready) = q.ready_set().unwrap();
        assert_eq!(t, 4);
        assert_eq!(ready.collect::<Vec<_>>(), vec![&'a', &'b']);
    }

    /// Interleaved schedule/pop churn with mixed near/far delays matches a
    /// simple sorted-model expectation (time order, FIFO ties).
    #[test]
    fn churn_keeps_time_and_fifo_order() {
        let mut q = EventQueue::new();
        let mut id = 0u64;
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let delays = [0u64, 1, 7, 1023, 1024, 1025, 4096, 70_000];
        for round in 0..500u64 {
            for (i, &d) in delays.iter().enumerate() {
                if !(round + i as u64).is_multiple_of(3) {
                    q.schedule(d, id);
                    id += 1;
                }
            }
            if let Some((t, e)) = q.pop() {
                popped.push((t, e));
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t, e));
        }
        assert_eq!(popped.len() as u64, id);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated: {w:?}");
        }
        // FIFO among same-time events: ids strictly increase within a tie.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated: {w:?}");
            }
        }
    }
}
