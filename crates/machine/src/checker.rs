//! Coherence invariant verification, per protocol backend.
//!
//! Two entry points, both dispatched by the machine's backend
//! (`Backend::check`) so every protocol is held to its own formulation of
//! "one writer at a time":
//!
//! * [`verify_quiescent`] — after a run drains (no processors running, no
//!   messages in flight). Under **DASH** the following must hold for
//!   every block cached anywhere:
//!
//!   1. **Single writer**: at most one cluster holds the block dirty.
//!   2. **Owner tracking**: if a *non-home* cluster holds the block dirty,
//!      the home directory entry is dirty and names that cluster as owner.
//!   3. **Superset tracking**: every non-home cluster holding any copy is
//!      covered by the home entry's sharer superset (stale coverage of
//!      silently-evicted copies is allowed; *missing* coverage never is).
//!   4. No home block is left busy, and the home cluster itself is never
//!      recorded in its own directory.
//!
//!   Under **Tardis** the single-writer guarantee is temporal, not
//!   spatial: no line is ever dirty (writes are written through), every
//!   resident copy carries a lease, and a lease over a superseded
//!   version must already be expired relative to the home's write
//!   timestamp — `lease.wts < home.wts` implies `home.wts > lease.rts`,
//!   the "single writer per timestamp range" invariant. The directory
//!   must stay empty (timestamps replace it).
//!
//!   Under **DLS** there is nothing to keep coherent: no non-home
//!   cluster may hold any copy, the directory must stay empty, and at
//!   quiescence a home-resident copy must carry the block's current
//!   version (a remote write that failed to invalidate the home's
//!   cached copy leaves a stale version behind — the seeded
//!   `DlsSkipWriteback` bug).
//!
//! * [`verify_step`] — the subset that holds at *every* reachable state,
//!   transient ones included, which the exploration API checks after each
//!   transition. (DASH directory agreement is deliberately *not* checked
//!   mid-flight: entries legitimately lead or trail the caches while
//!   requests, invalidations, and writebacks are in the air; likewise the
//!   DLS version check waits for quiescence because a granted write's
//!   fill may still be in the air.)
//!
//! Violations are reported as a structured [`Violation`] carrying the
//! offending cluster and block so tooling — `scd-check` counterexamples,
//! post-mortems — can locate the fault without parsing prose.

use std::collections::BTreeMap;

use scd_mem::{ClusterCaches, LineState};

use crate::config::MachineConfig;
use crate::machine::{Backend, ClusterNode, Machine, TardisNode};

/// One invariant violation, locating the fault when known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending cluster, when the invariant is about one cluster.
    pub cluster: Option<usize>,
    /// The offending block address, when the invariant is about one block.
    pub block: Option<u64>,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl Violation {
    fn for_cluster(cluster: usize, detail: String) -> Self {
        Violation {
            cluster: Some(cluster),
            block: None,
            detail,
        }
    }

    fn for_block(block: u64, detail: String) -> Self {
        Violation {
            cluster: None,
            block: Some(block),
            detail,
        }
    }

    fn locate(cluster: usize, block: u64, detail: String) -> Self {
        Violation {
            cluster: Some(cluster),
            block: Some(block),
            detail,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.cluster, self.block) {
            (Some(c), Some(b)) => write!(f, "cluster {c}, block {b}: {}", self.detail),
            (Some(c), None) => write!(f, "cluster {c}: {}", self.detail),
            (None, Some(b)) => write!(f, "block {b}: {}", self.detail),
            (None, None) => f.write_str(&self.detail),
        }
    }
}

impl std::error::Error for Violation {}

/// Machine-wide residency: block -> (dirty holders, all holders), in block
/// order so the first violation reported is always the same one; each
/// holder list is in cluster order.
fn residency(clusters: &[ClusterNode]) -> BTreeMap<u64, (Vec<usize>, Vec<usize>)> {
    let mut map: BTreeMap<u64, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (cl, c) in clusters.iter().enumerate() {
        c.caches.for_each_resident(|block, state| {
            let e = map.entry(block).or_default();
            if state == LineState::Dirty {
                e.0.push(cl);
            }
            e.1.push(cl);
        });
    }
    map
}

/// The violation `check` reports for the lowest block resident in
/// `caches` (with the highest state the cluster holds it in): the first a
/// walk of the cluster's resident blocks in block order would meet,
/// found without sorting them.
fn first_resident_violation(
    caches: &ClusterCaches,
    check: impl Fn(u64, LineState) -> Result<(), Violation>,
) -> Result<(), Violation> {
    let mut first: Option<(u64, Violation)> = None;
    caches.for_each_resident(|block, state| {
        if first.as_ref().is_none_or(|&(b, _)| block < b) {
            if let Err(v) = check(block, state) {
                first = Some((block, v));
            }
        }
    });
    first.map_or(Ok(()), |(_, v)| Err(v))
}

/// Verifies the quiescent invariants; returns the first violation found.
pub fn verify_quiescent(machine: &Machine) -> Result<(), Violation> {
    Backend::check(machine)
}

/// Verifies the every-state invariants — the subset of each protocol's
/// contract that holds at *every* reachable state, transients included.
/// Safe to call at any point during a run or exploration.
pub fn verify_step(machine: &Machine) -> Result<(), Violation> {
    Backend::check_step(machine)
}

/// No home block may still be busy once the machine has quiesced.
pub(crate) fn verify_idle(clusters: &[ClusterNode]) -> Result<(), Violation> {
    for (cl, c) in clusters.iter().enumerate() {
        let busy = c.ser.busy_blocks();
        if busy != 0 {
            return Err(Violation::for_cluster(
                cl,
                format!("still has {busy} busy blocks after quiesce"),
            ));
        }
    }
    Ok(())
}

/// Directoryless protocols must keep the directory that way: Tardis
/// replaces it with timestamps, DLS with the absence of remote copies.
pub(crate) fn verify_empty_directory(clusters: &[ClusterNode]) -> Result<(), Violation> {
    for (cl, c) in clusters.iter().enumerate() {
        let live = c.dir.live_entries();
        if live != 0 {
            return Err(Violation::for_cluster(
                cl,
                format!("directory holds {live} entries under a directoryless protocol"),
            ));
        }
    }
    Ok(())
}

/// DASH quiescent invariants (see the module docs).
pub(crate) fn verify_dash(cfg: &MachineConfig, clusters: &[ClusterNode]) -> Result<(), Violation> {
    for (block, (dirty, holders)) in residency(clusters) {
        if dirty.len() > 1 {
            return Err(Violation::for_block(
                block,
                format!("multiple dirty holders {dirty:?}"),
            ));
        }
        let home = cfg.home_of(block);
        // The directory is keyed by the home-local block index.
        let entry = clusters[home].dir.probe(cfg.dir_key(block));

        if let Some(e) = entry {
            // Precise representations never record the home cluster; a
            // coarse region / composite / broadcast superset may *cover* it
            // incidentally, which is fine (the home strips itself from
            // invalidation targets).
            if e.is_precise() && e.covers(home as u16) {
                return Err(Violation::locate(
                    home,
                    block,
                    format!("home cluster {home} recorded in its own directory"),
                ));
            }
        }

        if let Some(&owner) = dirty.first() {
            if owner != home {
                match entry {
                    None => {
                        return Err(Violation::locate(
                            owner,
                            block,
                            format!("cluster {owner} dirty but home {home} has no entry"),
                        ));
                    }
                    Some(e) => {
                        if !e.is_dirty() || e.owner() != Some(owner as u16) {
                            return Err(Violation::locate(
                                owner,
                                block,
                                format!(
                                    "cluster {owner} dirty but entry says {:?}/{:?}",
                                    e.state(),
                                    e.owner()
                                ),
                            ));
                        }
                    }
                }
            }
        }

        for &h in holders.iter() {
            if h == home {
                continue; // home copies are bus-tracked, not directory-tracked
            }
            match entry {
                None => {
                    return Err(Violation::locate(
                        h,
                        block,
                        format!("cluster {h} holds a copy but home {home} has no entry"),
                    ));
                }
                Some(e) => {
                    if !e.covers(h as u16) {
                        return Err(Violation::locate(
                            h,
                            block,
                            format!(
                                "cluster {h} holds a copy not covered by the entry \
                                 (superset {:?})",
                                e.sharer_superset()
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// DASH every-state invariants: at most one dirty holder per block, and
/// a dirty copy is exclusive (no other cluster caches the block at all).
/// Both fail exactly when a block held dirty somewhere is held by more
/// than one cluster; the lowest such block is reported.
pub(crate) fn verify_dash_step(clusters: &[ClusterNode]) -> Result<(), Violation> {
    let holders = |block| clusters.iter().filter(|c| c.caches.holds(block)).count();
    let mut first: Option<u64> = None;
    for c in clusters {
        c.caches.for_each_resident(|block, state| {
            if state == LineState::Dirty && first.is_none_or(|b| block < b) && holders(block) > 1 {
                first = Some(block);
            }
        });
    }
    let Some(block) = first else {
        return Ok(());
    };
    let dirty: Vec<usize> = (0..clusters.len())
        .filter(|&c| clusters[c].caches.holds_dirty(block))
        .collect();
    if dirty.len() > 1 {
        return Err(Violation::for_block(
            block,
            format!("multiple dirty holders {dirty:?}"),
        ));
    }
    let owner = dirty[0];
    let others: Vec<usize> = (0..clusters.len())
        .filter(|&c| c != owner && clusters[c].caches.holds(block))
        .collect();
    Err(Violation::locate(
        owner,
        block,
        format!(
            "cluster {owner} holds the block dirty while clusters {others:?} \
             still hold copies (dirty implies exclusive)"
        ),
    ))
}

/// Tardis invariants — temporal single-writer, valid at every reachable
/// state (writes only ever *raise* the home's `wts` past every granted
/// lease horizon, so there is no transient window to excuse):
///
/// 1. No line is ever dirty: Tardis writes through to the home.
/// 2. Every resident copy carries a lease, and its home timestamp line
///    satisfies `rts >= wts`.
/// 3. A lease's version never leads the home (`lease.wts <= home.wts`),
///    and a lease over a *superseded* version is already expired:
///    `lease.wts < home.wts` implies `home.wts > lease.rts`. A write
///    that bumps `wts` without jumping past the granted read horizon
///    (the seeded `TardisSkipWtsBump` bug) leaves a live lease on the
///    stale version and trips this check.
///
/// `nodes` is each cluster's timestamp state, indexed like `clusters`.
pub(crate) fn verify_tardis_step(
    cfg: &MachineConfig,
    clusters: &[ClusterNode],
    nodes: &[TardisNode],
) -> Result<(), Violation> {
    for (cl, c) in clusters.iter().enumerate() {
        first_resident_violation(&c.caches, |block, state| {
            tardis_copy(cfg, nodes, cl, block, state)
        })?;
    }
    Ok(())
}

/// The Tardis invariants for cluster `cl`'s copy of `block`.
fn tardis_copy(
    cfg: &MachineConfig,
    nodes: &[TardisNode],
    cl: usize,
    block: u64,
    state: LineState,
) -> Result<(), Violation> {
    if state == LineState::Dirty {
        return Err(Violation::locate(
            cl,
            block,
            "dirty line under Tardis (writes must write through)".to_string(),
        ));
    }
    let Some(&(lwts, lrts)) = nodes[cl].lease.get(&block) else {
        return Err(Violation::locate(
            cl,
            block,
            "resident copy without a lease".to_string(),
        ));
    };
    let home = cfg.home_of(block);
    let line = nodes[home].lines.value(cfg.dir_key(block));
    if line == Default::default() {
        return Err(Violation::locate(
            cl,
            block,
            format!("lease ({lwts},{lrts}) but home {home} has no timestamp line"),
        ));
    }
    if line.rts < line.wts {
        return Err(Violation::locate(
            home,
            block,
            format!("home timestamps inverted (wts {} > rts {})", line.wts, line.rts),
        ));
    }
    if lwts > line.wts {
        return Err(Violation::locate(
            cl,
            block,
            format!("lease version {lwts} leads the home's wts {}", line.wts),
        ));
    }
    if lwts < line.wts && line.wts <= lrts {
        return Err(Violation::locate(
            cl,
            block,
            format!(
                "live lease ({lwts},{lrts}) over a superseded version \
                 (home wts {}): two writers share a timestamp range",
                line.wts
            ),
        ));
    }
    Ok(())
}

/// DLS invariants: no non-home cluster ever holds a copy, and (at
/// quiescence, which is when this runs — a granted write's fill may still
/// be in flight mid-run) a home-resident copy carries the block's current
/// version.
pub(crate) fn verify_dls(cfg: &MachineConfig, clusters: &[ClusterNode]) -> Result<(), Violation> {
    for (cl, c) in clusters.iter().enumerate() {
        first_resident_violation(&c.caches, |block, _| {
            dls_copy(cfg, cl, block)?;
            let cur = c.cur_version.value(cfg.dir_key(block));
            let line = c.line_version.get(&block).copied().unwrap_or(0);
            if line != cur {
                return Err(Violation::locate(
                    cl,
                    block,
                    format!(
                        "home copy at version {line} but the slice is at {cur} \
                         (a remote write missed the home invalidation)"
                    ),
                ));
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// The DLS invariant that holds at every state: only the home caches.
pub(crate) fn verify_dls_step(cfg: &MachineConfig, clusters: &[ClusterNode]) -> Result<(), Violation> {
    for (cl, c) in clusters.iter().enumerate() {
        first_resident_violation(&c.caches, |block, _| dls_copy(cfg, cl, block))?;
    }
    Ok(())
}

/// Cluster `cl` may hold `block` under DLS only as its home.
fn dls_copy(cfg: &MachineConfig, cl: usize, block: u64) -> Result<(), Violation> {
    let home = cfg.home_of(block);
    if home != cl {
        return Err(Violation::locate(
            cl,
            block,
            format!("non-home copy under DLS (home is cluster {home})"),
        ));
    }
    Ok(())
}
