//! Message-traffic accounting by class.

/// The four message classes of the DASH protocol description (§5):
/// "Request messages are sent by the caches to request data or ownership.
/// Reply messages are sent by the directories to grant ownership and/or
/// send data. Invalidation messages are sent by the directories to
/// invalidate a block. Acknowledgement messages are sent by caches in
/// response to invalidations."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Cache → directory: read/ownership requests and writebacks (the paper
    /// folds writebacks into the request class in Figures 7–10).
    Request,
    /// Directory/owner → cache: data and/or ownership grants.
    Reply,
    /// Directory → cache: invalidate a block.
    Invalidation,
    /// Cache → requester/RAC: invalidation acknowledgement.
    Acknowledgement,
}

impl MessageClass {
    /// All classes, in reporting order.
    pub const ALL: [MessageClass; 4] = [
        MessageClass::Request,
        MessageClass::Reply,
        MessageClass::Invalidation,
        MessageClass::Acknowledgement,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Request => "requests",
            MessageClass::Reply => "replies",
            MessageClass::Invalidation => "invalidations",
            MessageClass::Acknowledgement => "acks",
        }
    }
}

/// Per-class message counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    counts: [u64; 4],
}

impl Traffic {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(class: MessageClass) -> usize {
        match class {
            MessageClass::Request => 0,
            MessageClass::Reply => 1,
            MessageClass::Invalidation => 2,
            MessageClass::Acknowledgement => 3,
        }
    }

    /// Records one message of `class`.
    pub fn record(&mut self, class: MessageClass) {
        self.counts[Self::idx(class)] += 1;
    }

    /// Count for one class.
    pub fn get(&self, class: MessageClass) -> u64 {
        self.counts[Self::idx(class)]
    }

    /// Total messages across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Invalidations + acknowledgements (the paper plots them as one band).
    pub fn coherence(&self) -> u64 {
        self.get(MessageClass::Invalidation) + self.get(MessageClass::Acknowledgement)
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &Traffic) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
        }
    }
}

impl std::fmt::Display for Traffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "req={} rep={} inval={} ack={} (total {})",
            self.get(MessageClass::Request),
            self.get(MessageClass::Reply),
            self.get(MessageClass::Invalidation),
            self.get(MessageClass::Acknowledgement),
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut t = Traffic::new();
        t.record(MessageClass::Request);
        for _ in 0..5 {
            t.record(MessageClass::Invalidation);
            t.record(MessageClass::Acknowledgement);
        }
        assert_eq!(t.get(MessageClass::Request), 1);
        assert_eq!(t.get(MessageClass::Reply), 0);
        assert_eq!(t.coherence(), 10);
        assert_eq!(t.total(), 11);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Traffic::new();
        a.record(MessageClass::Reply);
        let mut b = Traffic::new();
        b.record(MessageClass::Reply);
        b.record(MessageClass::Reply);
        b.record(MessageClass::Request);
        a.merge(&b);
        assert_eq!(a.get(MessageClass::Reply), 3);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn display_is_compact() {
        let mut t = Traffic::new();
        t.record(MessageClass::Request);
        assert_eq!(format!("{t}"), "req=1 rep=0 inval=0 ack=0 (total 1)");
    }
}
