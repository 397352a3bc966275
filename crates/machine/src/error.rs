//! Graceful failure reporting: [`SimError`] and its [`PostMortem`].
//!
//! A run that cannot complete — deadlock, cycle-budget exhaustion, a
//! program misusing synchronization, a coherence invariant violation, an
//! inconsistent engine, or the forward-progress watchdog firing —
//! used to abort with a bare `panic!`. [`crate::Machine::try_run`] instead
//! returns a [`SimError`] carrying a structured snapshot of the machine at
//! the moment of failure: which processors were blocked and on what,
//! per-cluster MSHR and home-serializer state, the tail of the event log,
//! and the protocol/fault counters. [`crate::Machine::run`] remains a thin
//! wrapper that panics with the formatted post-mortem, so infallible
//! callers keep their one-liner.

use crate::stats::{FaultCounters, ProtocolCounters};

/// One blocked (or otherwise unfinished) processor at failure time.
#[derive(Clone, Debug)]
pub struct BlockedProc {
    /// Global processor index.
    pub proc: usize,
    /// `Running`/`Blocked` status text.
    pub status: String,
    /// Debug rendering of the operation it was executing, if any.
    pub pending: Option<String>,
    /// Cycle at which it blocked (meaningful when status is `Blocked`).
    pub blocked_since: u64,
}

/// One cluster with protocol state still in flight at failure time.
#[derive(Clone, Debug)]
pub struct ClusterDiag {
    /// Cluster index.
    pub cluster: usize,
    /// Outstanding MSHRs in its Remote Access Cache.
    pub mshrs: usize,
    /// Busy home-serializer blocks: `(block, reason, queued requests)`.
    pub busy: Vec<(u64, String, usize)>,
}

/// Snapshot of the machine at the moment a run failed.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// Simulated cycle of the failure.
    pub cycle: u64,
    /// Processors not yet finished.
    pub running: usize,
    /// Every unfinished processor, with what it was stuck on.
    pub blocked_procs: Vec<BlockedProc>,
    /// Every cluster with outstanding MSHRs or busy home blocks.
    pub clusters: Vec<ClusterDiag>,
    /// The last events the engine processed, oldest first (capacity set by
    /// `MachineConfig::event_log`; empty when disabled).
    pub recent_events: Vec<String>,
    /// Per-cluster trace tails for clusters with protocol state still in
    /// flight: `(cluster, rendered events, oldest first)`. Populated only
    /// when the machine ran with an active `TraceConfig`.
    pub trace_tails: Vec<(usize, Vec<String>)>,
    /// Trace events evicted from full rings before the failure: when
    /// nonzero, the tails above (and any exported trace) are missing
    /// that much history.
    pub dropped_events: u64,
    /// Rare-path protocol counters at failure time.
    pub counters: ProtocolCounters,
    /// Fault-injection counters at failure time.
    pub faults: FaultCounters,
    /// Failure-specific detail (e.g. the violated invariant).
    pub detail: String,
}

impl std::fmt::Display for PostMortem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "at cycle {}: {}", self.cycle, self.detail)?;
        writeln!(f, "  processors unfinished: {}", self.running)?;
        for p in &self.blocked_procs {
            write!(f, "  proc {}: {}", p.proc, p.status)?;
            if let Some(op) = &p.pending {
                write!(f, " on {op}")?;
            }
            if p.status == "Blocked" {
                write!(f, " since cycle {}", p.blocked_since)?;
            }
            writeln!(f)?;
        }
        for c in &self.clusters {
            writeln!(f, "  cluster {}: {} MSHRs, busy: {:?}", c.cluster, c.mshrs, c.busy)?;
        }
        writeln!(f, "  counters: {:?}", self.counters)?;
        if self.faults != FaultCounters::default() {
            writeln!(f, "  faults: {:?}", self.faults)?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} events:", self.recent_events.len())?;
            for ev in &self.recent_events {
                writeln!(f, "    {ev}")?;
            }
        }
        for (cluster, tail) in &self.trace_tails {
            writeln!(f, "  cluster {cluster} trace tail ({} events):", tail.len())?;
            for ev in tail {
                writeln!(f, "    {ev}")?;
            }
        }
        if self.dropped_events > 0 {
            writeln!(
                f,
                "  trace rings evicted {} events (history above is truncated)",
                self.dropped_events
            )?;
        }
        Ok(())
    }
}

/// Why a simulation run could not complete.
///
/// The snapshot is boxed so the `Result` a run returns stays pointer-sized
/// on the (hot, always-`Ok`) success path.
#[derive(Clone, Debug)]
pub enum SimError {
    /// Processors were still blocked when the event queue drained.
    Deadlock(Box<PostMortem>),
    /// Simulated time exceeded `MachineConfig::max_cycles`.
    MaxCycles(Box<PostMortem>),
    /// A `Script` misused synchronization (e.g. released a lock it does
    /// not hold): a bug in the workload, not in coherence.
    Program(Box<PostMortem>),
    /// Coherence broke: the version oracle saw a regression, or the
    /// backend's quiescent check failed.
    Invariant(Box<PostMortem>),
    /// The engine is inconsistent (a stale message handle, a retry with no
    /// pending op, a payload left in the arena, the clock moving
    /// backwards): a bug in the simulator.
    Internal(Box<PostMortem>),
    /// No operation retired for `MachineConfig::watchdog_cycles` cycles
    /// while processors were still unfinished (livelock — e.g. an
    /// unbounded NACK/retry storm).
    LivelockWatchdog(Box<PostMortem>),
}

impl SimError {
    /// The post-mortem snapshot, whatever the failure kind.
    pub fn post_mortem(&self) -> &PostMortem {
        match self {
            SimError::Deadlock(pm)
            | SimError::MaxCycles(pm)
            | SimError::Program(pm)
            | SimError::Invariant(pm)
            | SimError::Internal(pm)
            | SimError::LivelockWatchdog(pm) => pm,
        }
    }

    /// Short machine-readable failure kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock(_) => "deadlock",
            SimError::MaxCycles(_) => "max-cycles",
            SimError::Program(_) => "program-error",
            SimError::Invariant(_) => "invariant-violation",
            SimError::Internal(_) => "internal-error",
            SimError::LivelockWatchdog(_) => "livelock-watchdog",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let headline = match self {
            SimError::Deadlock(_) => "deadlock: processors blocked with an empty event queue",
            SimError::MaxCycles(_) => "simulation exceeded max_cycles",
            SimError::Program(_) => "program error: a script misused synchronization",
            SimError::Invariant(_) => "coherence invariant violated",
            SimError::Internal(_) => "internal error: the simulator's state is inconsistent",
            SimError::LivelockWatchdog(_) => {
                "livelock watchdog: no operation retired within the watchdog window"
            }
        };
        write!(f, "{headline}\n{}", self.post_mortem())
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> Box<PostMortem> {
        Box::new(PostMortem {
            cycle: 123,
            running: 1,
            blocked_procs: vec![BlockedProc {
                proc: 3,
                status: "Blocked".into(),
                pending: Some("Read(64)".into()),
                blocked_since: 100,
            }],
            clusters: vec![ClusterDiag {
                cluster: 0,
                mshrs: 1,
                busy: vec![(4, "AwaitClose".into(), 2)],
            }],
            recent_events: vec!["[120] Deliver(..)".into()],
            trace_tails: vec![(0, vec!["[     110] #7 TxnBegin { .. }".into()])],
            dropped_events: 42,
            counters: ProtocolCounters::default(),
            faults: FaultCounters::default(),
            detail: "1 processors blocked".into(),
        })
    }

    #[test]
    fn display_names_the_blocked_processor() {
        let err = SimError::Deadlock(pm());
        let text = err.to_string();
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("proc 3"), "{text}");
        assert!(text.contains("Read(64)"), "{text}");
        assert!(text.contains("cluster 0"), "{text}");
        assert!(text.contains("[120]"), "{text}");
        assert!(text.contains("trace tail (1 events)"), "{text}");
        assert!(text.contains("TxnBegin"), "{text}");
        assert!(text.contains("evicted 42 events"), "{text}");
    }

    #[test]
    fn kinds_are_distinct() {
        assert_eq!(SimError::Deadlock(pm()).kind(), "deadlock");
        assert_eq!(SimError::MaxCycles(pm()).kind(), "max-cycles");
        assert_eq!(SimError::Program(pm()).kind(), "program-error");
        assert_eq!(SimError::Invariant(pm()).kind(), "invariant-violation");
        assert_eq!(SimError::Internal(pm()).kind(), "internal-error");
        assert_eq!(
            SimError::LivelockWatchdog(pm()).kind(),
            "livelock-watchdog"
        );
    }

    #[test]
    fn post_mortem_accessor_reaches_every_variant() {
        for err in [
            SimError::Deadlock(pm()),
            SimError::MaxCycles(pm()),
            SimError::Program(pm()),
            SimError::Invariant(pm()),
            SimError::Internal(pm()),
            SimError::LivelockWatchdog(pm()),
        ] {
            assert_eq!(err.post_mortem().cycle, 123);
        }
    }

    /// Each kind opens with its own headline, and only `Invariant` says
    /// coherence broke.
    #[test]
    fn each_kind_has_its_own_headline() {
        for (err, headline) in [
            (SimError::Deadlock(pm()), "deadlock: processors blocked with an empty event queue"),
            (SimError::MaxCycles(pm()), "simulation exceeded max_cycles"),
            (SimError::Program(pm()), "program error: a script misused synchronization"),
            (SimError::Invariant(pm()), "coherence invariant violated"),
            (SimError::Internal(pm()), "internal error: the simulator's state is inconsistent"),
            (
                SimError::LivelockWatchdog(pm()),
                "livelock watchdog: no operation retired within the watchdog window",
            ),
        ] {
            let text = err.to_string();
            assert_eq!(text.lines().next(), Some(headline), "{}", err.kind());
            let coherence = matches!(err, SimError::Invariant(_));
            assert_eq!(headline.contains("coherence"), coherence, "{}", err.kind());
        }
    }
}
