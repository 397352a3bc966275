//! A fixed-capacity ring buffer of recent items.
//!
//! The machine keeps the last N simulator events in one of these so a
//! failed run (deadlock, livelock, invariant violation) can include the
//! event tail in its post-mortem. Pushing is O(1) and never allocates
//! after the buffer fills; the history is recovered oldest-first.

/// A bounded log that keeps only the most recent `capacity` items.
#[derive(Debug)]
pub struct RingLog<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index the next push writes to (wraps once `buf` is full).
    head: usize,
}

impl<T: Clone> Clone for RingLog<T> {
    fn clone(&self) -> Self {
        RingLog {
            buf: self.buf.clone(),
            capacity: self.capacity,
            head: self.head,
        }
    }

    /// Refills `self`'s buffer in place rather than allocating a new one.
    fn clone_from(&mut self, source: &Self) {
        let RingLog {
            buf,
            capacity,
            head,
        } = self;
        buf.clone_from(&source.buf);
        *capacity = source.capacity;
        *head = source.head;
    }
}

/// Slots a log reserves when it is built. A capacity is a bound, not a
/// reservation: a log this size or smaller never allocates after `new`,
/// while a larger one — a trace ring sized so that nothing is ever
/// evicted — grows as it fills, because most of it is never written.
/// Reserving such a ring whole cost 23 MB per cluster for a ring of 2^18
/// trace events, and freeing blocks of that size makes the allocator
/// serve every later buffer of up to 32 MB from one fragmenting heap.
const EAGER_SLOTS: usize = 4096;

impl<T> RingLog<T> {
    /// A log keeping the last `capacity` items. Capacity 0 disables the
    /// log entirely: pushes are no-ops and iteration is empty.
    pub fn new(capacity: usize) -> Self {
        RingLog {
            buf: Vec::with_capacity(capacity.min(EAGER_SLOTS)),
            capacity,
            head: 0,
        }
    }

    /// The maximum number of items retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no items have been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records an item, evicting the oldest once full.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Iterates the retained items oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut log = RingLog::new(3);
        for i in 0..2 {
            log.push(i);
        }
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        for i in 2..7 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut log = RingLog::new(0);
        log.push(1);
        log.push(2);
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
    }

    /// A log larger than its eager reservation grows to its capacity and
    /// only then wraps.
    #[test]
    fn a_large_log_grows_to_its_capacity_then_wraps() {
        let capacity = EAGER_SLOTS + 3;
        let mut log = RingLog::new(capacity);
        for i in 0..capacity + 10 {
            log.push(i);
        }
        assert_eq!(log.len(), capacity);
        let kept: Vec<usize> = log.iter().copied().collect();
        assert_eq!(kept, (10..capacity + 10).collect::<Vec<_>>());
    }

    #[test]
    fn exact_boundary() {
        let mut log = RingLog::new(2);
        log.push("a");
        log.push("b");
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec!["a", "b"]);
        log.push("c");
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec!["b", "c"]);
    }
}
