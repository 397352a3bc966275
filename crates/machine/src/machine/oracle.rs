//! The machine's oracles: one set of observation hooks, two checks.
//!
//! Every protocol backend reports the same two facts through the hooks
//! here — "processor `p` performed a write to `block`" and "processor
//! `p`'s load observed `block`" — each at the version epoch its
//! cluster's `line_version` records. Two oracles read those facts:
//!
//! * The **version oracle** (on with `MachineConfig::check_invariants`)
//!   keeps, per cluster and block, the highest version that cluster has
//!   observed. An observation below it means a stale copy survived an
//!   invalidation it should not have; the oracle keeps the first such
//!   regression and `process_event` reports it as a
//!   `SimError::InvariantViolation` with a post-mortem.
//! * The **value oracle** (on with `MachineConfig::value_oracle`) builds
//!   a symbolic memory image. Values are never simulated; a write is
//!   identified by its *tag* `(proc, seq)`, which is
//!   protocol-independent (version epochs are not: Tardis assigns one
//!   per write, DASH one per ownership epoch). Resolving every load and
//!   the final per-block state to tags yields a memory image two
//!   different protocols can be compared on — the differential oracle in
//!   `tests/protocol_differential.rs` asserts dash, tardis and dls
//!   produce identical images and identical per-load tags on the same
//!   program. It is a separate switch because its per-load log grows
//!   with the run and is cloned with every explored state.
//!
//! Resolution is *deferred* when it has to be: a load records the tag of
//! the write it observed when that tag is already known, and otherwise
//! the `(block, epoch)` it observed, which is looked up after the run. A
//! load can observe an epoch whose write has not yet *retired* at its
//! writer: under Tardis and DLS the home takes a write-through, assigns
//! its epoch and serves it to other readers before the writer's
//! acknowledgement — the moment `oracle_write` logs the tag — gets back.
//! Only a racy load can land in that window (the unit test below pins
//! one); the barrier-ordered differential kernels never do, and ROADMAP
//! item 3's store-buffering and message-passing outcomes will be read
//! through this path. The one case that must resolve
//! eagerly is a load followed by a same-epoch overwrite (a silent DASH
//! dirty-write hit by a cluster-local peer), which would otherwise
//! resolve to the later write's tag; so a load resolves immediately
//! whenever the epoch's tag is already known.
//!
//! The cross-protocol *equality* is only meaningful for **data-race-free
//! programs**: a racy load may legitimately observe different writes
//! under different protocols, so the differential kernels are
//! barrier-ordered. Both oracles are off by default and cost nothing
//! when off; neither changes a message or a timing.

use super::*;
use std::collections::BTreeMap;

/// One recorded load observation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ReadRec {
    /// Resolved at read time (the writing proc's tag was known locally).
    Resolved((usize, u64)),
    /// Deferred to post-run resolution: the `(block, epoch)` observed.
    Deferred(u64, u64),
}

/// The machine-side oracle state.
#[derive(Debug, Default)]
pub(crate) struct Oracle {
    /// Pre-computed `versions || values`, checked once per hook.
    on: bool,
    /// Pre-computed `cfg.check_invariants`: the version oracle.
    versions: bool,
    /// Pre-computed `cfg.value_oracle`: the value oracle.
    pub(crate) values: bool,
    /// `(cluster, block)` -> highest version that cluster has observed.
    pub(crate) observed: FastMap<(usize, u64), u64>,
    /// The first version regression seen, until the run loop reports it.
    pub(crate) regression: Option<String>,
    /// `(block, epoch)` -> tag of the latest write in that epoch.
    pub(crate) mem: FastMap<(u64, u64), (usize, u64)>,
    /// Per global processor: its loads, in program order.
    pub(crate) reads: Vec<Vec<ReadRec>>,
    /// Per global processor: how many writes it has performed.
    pub(crate) wseq: Vec<u64>,
}

scd_core::clone_fields!(Oracle { on, versions, values, observed, regression, mem, reads, wseq });

impl Oracle {
    pub(crate) fn new(versions: bool, values: bool, procs: usize) -> Self {
        Oracle {
            on: versions || values,
            versions,
            values,
            observed: FastMap::default(),
            regression: None,
            mem: FastMap::default(),
            reads: vec![Vec::new(); procs],
            wseq: vec![0; procs],
        }
    }

    /// Version oracle: cluster `cl` observed `block` at version `v`. A
    /// version below one the cluster has already seen is a regression;
    /// the first is kept for the run loop to report.
    fn observe(&mut self, cl: usize, block: u64, v: u64) {
        let last = self.observed.entry((cl, block)).or_insert(0);
        if v >= *last {
            *last = v;
        } else if self.regression.is_none() {
            self.regression = Some(format!(
                "version oracle: cluster {cl} observed block {block} at version {v} \
                 after already seeing version {last}"
            ));
        }
    }

    /// Resolves the log into a comparable report. Call only after the
    /// run is complete.
    pub(crate) fn report(&self) -> ValueOracleReport {
        let mut best: FastMap<u64, u64> = FastMap::default();
        let mut image: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for (&(b, e), &tag) in &self.mem {
            let cur = best.entry(b).or_insert(0);
            if e >= *cur {
                *cur = e;
                image.insert(b, tag);
            }
        }
        let loads = self
            .reads
            .iter()
            .map(|log| {
                log.iter()
                    .map(|r| match *r {
                        ReadRec::Resolved(tag) => Some(tag),
                        ReadRec::Deferred(b, e) => self.mem.get(&(b, e)).copied(),
                    })
                    .collect()
            })
            .collect();
        ValueOracleReport { image, loads }
    }
}

/// The resolved value-oracle outcome of one run, comparable across
/// protocols and (for race-free programs) schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueOracleReport {
    /// Final memory image: block -> tag `(proc, seq)` of the last write
    /// (blocks never written are absent — initial memory).
    pub image: BTreeMap<u64, (usize, u64)>,
    /// Per global processor, its shared loads in program order: the tag
    /// of the write each observed (`None` = initial memory).
    pub loads: Vec<Vec<Option<(usize, u64)>>>,
}

impl Engine {
    /// The version `p`'s cluster holds `block` at, observed by `p`: the
    /// resident copy's, or, for a fill consumed without caching (DLS),
    /// the one the reply just set.
    fn oracle_observe(&mut self, p: usize, block: u64) -> u64 {
        let cl = self.cluster_of(p);
        let v = self.line_version(cl, block);
        if self.oracle.versions {
            self.oracle.observe(cl, block, v);
        }
        v
    }

    /// Hook: processor `p` performed a write to `block`, creating (or
    /// extending, for a silent same-epoch rewrite) the version epoch its
    /// cluster's `line_version` now records.
    pub(crate) fn oracle_write(&mut self, p: usize, block: u64) {
        if !self.oracle.on {
            return;
        }
        let epoch = self.oracle_observe(p, block);
        if self.oracle.values {
            let seq = self.oracle.wseq[p] + 1;
            self.oracle.wseq[p] = seq;
            self.oracle.mem.insert((block, epoch), (p, seq));
        }
    }

    /// Hook: processor `p`'s load observed `block`.
    pub(crate) fn oracle_read(&mut self, p: usize, block: u64) {
        if !self.oracle.on {
            return;
        }
        let epoch = self.oracle_observe(p, block);
        if self.oracle.values {
            let rec = match self.oracle.mem.get(&(block, epoch)) {
                Some(&tag) => ReadRec::Resolved(tag),
                None => ReadRec::Deferred(block, epoch),
            };
            self.oracle.reads[p].push(rec);
        }
    }
}

impl Machine {
    /// The resolved value-oracle report, or `None` when the oracle was
    /// off (`MachineConfig::value_oracle`). Meaningful only after the
    /// run completed; see the module docs for the race-free caveat.
    pub fn value_oracle_report(&self) -> Option<ValueOracleReport> {
        self.eng.oracle.values.then(|| self.eng.oracle.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    /// A load can observe a write that has not retired at its writer:
    /// under DLS the home's LLC slice takes a stream of remote writes and
    /// serves each new epoch to a reader on the home cluster before the
    /// writer's acknowledgement gets back. Such a load is recorded
    /// `Deferred` and resolves to the write's tag only after the run.
    #[test]
    fn a_load_can_observe_a_write_before_it_retires() {
        let mut cfg = MachineConfig::tiny(2).with_protocol(ProtocolKind::Dls);
        cfg.value_oracle = true;
        let addr = (0..)
            .map(|b| b * cfg.block_bytes)
            .find(|&a| cfg.home_of(cfg.block_of(a)) == 1)
            .expect("cluster 1 is home to some block");
        let programs = vec![
            Script::from(vec![Op::Write(addr); 16]),
            Script::from(vec![Op::Read(addr); 64]),
        ];
        let mut m = Machine::new(cfg, programs);
        m.try_run().expect("run must quiesce");
        let report = m.value_oracle_report().expect("oracle was on");
        let early = m.eng.oracle.reads[1]
            .iter()
            .zip(&report.loads[1])
            .filter(|(rec, tag)| matches!(rec, ReadRec::Deferred(..)) && tag.is_some())
            .count();
        assert!(early > 0, "no load saw the write before it retired: {:?}", report.loads[1]);
    }
}
