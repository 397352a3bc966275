//! Message-traffic accounting by class: the paper's four network classes
//! and the finer attribution taxonomy.

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

/// The attribution taxonomy of `scd-trace`'s traffic documents. Finer
/// than the paper's four network classes: NACKs split out of replies,
/// replacement writebacks out of requests, and sparse-replacement flushes
/// out of invalidations, because those are exactly the flows the schemes
/// trade against each other.
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
    /// Every class, in schema order (the variants are declared in it, so
    /// `class as usize` is its position here). The first eight are the
    /// original `scd-attrib/v1` classes and are always emitted; the
    /// classes after them are protocol-specific and appear in documents
    /// only when nonzero, so DASH outputs are byte-identical to the
    /// 8-class era.
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
