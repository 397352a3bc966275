//! The coherence backend a machine runs: the one place a
//! [`ProtocolKind`] is turned into behaviour.
//!
//! [`Backend::new`] builds the state of the configured protocol and
//! nothing of the other two; every other method forwards to it. The
//! engine-facing surface is small: what a processor access does inside
//! the cluster (`mem_access`), which request a miss sends
//! (`request_kind`), what a protocol message does on arrival (`deliver`,
//! `replay`), the timestamps Tardis piggybacks on synchronization (the
//! six `*_pts` hooks, inert elsewhere), and what the protocol contributes
//! to statistics, state digests and invariant checks.

use std::hash::Hasher;

use super::dash::DashState;
use super::dls::DlsState;
use super::tardis::TardisState;
use super::*;
use crate::checker::{self, Violation};
use crate::config::ProtocolKind;
use crate::stats::{DlsCounters, TardisCounters};

/// The state only one protocol reads, and the handlers that read it.
#[derive(Clone)]
pub(crate) enum Backend {
    /// The paper's directory-based invalidation protocol.
    Dash(DashState),
    /// Timestamp coherence: leases instead of sharer lists.
    Tardis(TardisState),
    /// Directoryless shared LLC; home-local accesses run on DASH state.
    Dls(DlsState),
}

impl Backend {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        match cfg.protocol {
            ProtocolKind::Dash => Backend::Dash(DashState::new(cfg.clusters)),
            ProtocolKind::Tardis => Backend::Tardis(TardisState::new(cfg.clusters)),
            ProtocolKind::Dls => Backend::Dls(DlsState::new(cfg.clusters)),
        }
    }

    /// Whether the home acts on a `ReplacementHint` (Tardis keeps no
    /// sharer list a hint could prune, and does not accept the message).
    pub(crate) fn takes_hints(&self) -> bool {
        !matches!(self, Backend::Tardis(_))
    }

    /// Processor `p` accesses `block`: resolves what the cluster can
    /// satisfy itself and returns `Some(at)` when the miss must be issued
    /// through the RAC at cycle `at`.
    #[inline]
    pub(crate) fn mem_access(&mut self, m: &mut Engine, t: Cycle, p: usize, block: u64, kind: MshrKind) -> Option<Cycle> {
        match self {
            Backend::Dash(s) => s.mem_access(m, t, p, block, kind),
            Backend::Tardis(s) => s.mem_access(m, t, p, block, kind),
            Backend::Dls(s) => s.mem_access(m, t, p, block, kind),
        }
    }

    /// The request cluster `cl`'s miss on `block` sends to the home —
    /// called when the miss is first issued and again when a NACK makes
    /// the requester reissue it.
    pub(crate) fn request_kind(&self, cl: usize, block: u64, write: bool) -> MsgKind {
        match self {
            Backend::Tardis(s) => s.request_kind(cl, block, write),
            _ if write => MsgKind::WriteReq { block },
            _ => MsgKind::ReadReq { block },
        }
    }

    /// Delivers a protocol-specific message.
    ///
    /// # Panics
    /// If the kind belongs to another backend (a routing bug).
    #[inline]
    pub(crate) fn deliver(&mut self, m: &mut Engine, t: Cycle, msg: Msg) {
        let handled = match self {
            Backend::Dash(s) => s.deliver(m, t, msg),
            Backend::Tardis(s) => s.deliver(m, t, msg),
            Backend::Dls(s) => s.deliver(m, t, msg),
        };
        assert!(
            handled,
            "message {:?} not handled by {} backend",
            msg.kind.label(),
            m.cfg.protocol.name()
        );
    }

    /// A request parked at `home` came off the serializer. Only protocols
    /// that queue at the home ever see one: DASH always, DLS behind a
    /// home-local write.
    pub(crate) fn replay(&mut self, m: &mut Engine, t: Cycle, home: usize, req: QueuedReq) {
        match self {
            Backend::Dash(s) => s.home_request(m, t, home, req),
            Backend::Dls(s) => s.replay(m, t, home, req),
            Backend::Tardis(_) => unreachable!("tardis never queues home requests"),
        }
    }

    /// Live directory-equivalent entries (the paper's memory-overhead
    /// metric): directory entries for DASH, timestamp lines for Tardis,
    /// none for the directoryless LLC.
    pub(crate) fn live_entries(&self, clusters: &[ClusterNode]) -> usize {
        match self {
            Backend::Dash(_) => clusters.iter().map(|c| c.dir.live_entries()).sum(),
            Backend::Tardis(s) => s.nodes.iter().map(|n| n.lines.iter().count()).sum(),
            Backend::Dls(_) => 0,
        }
    }

    /// The backend's own event counters, for `RunStats::{tardis, dls}`.
    pub(crate) fn counters(&self) -> (Option<TardisCounters>, Option<DlsCounters>) {
        match self {
            Backend::Dash(_) => (None, None),
            Backend::Tardis(s) => (Some(s.counters), None),
            Backend::Dls(s) => (None, Some(s.counters)),
        }
    }

    /// Folds the backend's behaviour-steering state into a state digest
    /// (counters are metrics and stay out).
    pub(crate) fn digest(&self, h: &mut (impl Hasher + Default)) {
        match self {
            Backend::Dash(s) => s.digest(h),
            Backend::Tardis(s) => s.digest(h),
            Backend::Dls(s) => s.dash.digest(h),
        }
    }

    /// The protocol's formulation of "one writer at a time" over the
    /// drained machine `m` (see `crate::checker`): the full contract,
    /// including no home block left busy and an empty directory under the
    /// directoryless protocols.
    pub(crate) fn check(m: &Machine) -> Result<(), Violation> {
        let (cfg, views) = (&m.eng.cfg, m.checker_view());
        checker::verify_idle(&views)?;
        if !matches!(m.backend, Backend::Dash(_)) {
            checker::verify_empty_directory(&views)?;
        }
        match &m.backend {
            Backend::Dash(_) => checker::verify_dash_views(cfg, &views),
            Backend::Tardis(s) => checker::verify_tardis_views(cfg, &views, &s.nodes),
            Backend::Dls(_) => checker::verify_dls_views(cfg, &views),
        }
    }

    /// The subset of [`Backend::check`] that holds at every reachable
    /// state, over one whole machine. It reports what `check`'s walks
    /// would report first, but builds no views: it runs once per explored
    /// state, and allocates only to describe a violation.
    pub(crate) fn check_step(m: &Machine) -> Result<(), Violation> {
        let (cfg, clusters) = (&m.eng.cfg, &m.eng.clusters[..]);
        match &m.backend {
            Backend::Dash(_) => checker::verify_dash_step(clusters),
            Backend::Tardis(s) => checker::verify_tardis_step(cfg, clusters, &s.nodes),
            Backend::Dls(_) => checker::verify_dls_step(cfg, clusters),
        }
    }

    // --------------------------------------------------------------
    // Timestamp piggybacks on the engine's synchronization messages:
    // Tardis orders `pts` through lock handoffs and barrier releases
    // (see the hooks' own docs in `tardis.rs`); the other backends carry
    // zeros.
    // --------------------------------------------------------------

    fn tardis(&self) -> Option<&TardisState> {
        match self {
            Backend::Tardis(s) => Some(s),
            _ => None,
        }
    }

    fn tardis_mut(&mut self) -> Option<&mut TardisState> {
        match self {
            Backend::Tardis(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn sync_pts(&self, cl: usize) -> u64 {
        self.tardis().map_or(0, |s| s.sync_pts(cl))
    }

    pub(crate) fn absorb_pts(&mut self, cl: usize, pts: u64) {
        if let Some(s) = self.tardis_mut() {
            s.absorb_pts(cl, pts);
        }
    }

    pub(crate) fn note_lock_pts(&mut self, home: usize, lock: u32, pts: u64) {
        if let Some(s) = self.tardis_mut() {
            s.note_lock_pts(home, lock, pts);
        }
    }

    pub(crate) fn lock_grant_pts(&self, home: usize, lock: u32) -> u64 {
        self.tardis().map_or(0, |s| s.lock_grant_pts(home, lock))
    }

    pub(crate) fn note_barrier_pts(&mut self, home: usize, barrier: u32, pts: u64) {
        if let Some(s) = self.tardis_mut() {
            s.note_barrier_pts(home, barrier, pts);
        }
    }

    pub(crate) fn take_barrier_pts(&mut self, home: usize, barrier: u32) -> u64 {
        self.tardis_mut().map_or(0, |s| s.take_barrier_pts(home, barrier))
    }
}
