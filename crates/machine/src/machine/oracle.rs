//! The cross-protocol value oracle: a symbolic memory image.
//!
//! Every protocol backend reports the same two facts through the hooks
//! here — "processor `p` performed its `n`-th write to `block`,
//! creating version epoch `e`" and "processor `p`'s load of `block`
//! observed epoch `e`". Values are never simulated; a write is
//! identified by its *tag* `(proc, seq)`, which is protocol-independent
//! (version epochs are not: Tardis assigns one per write, DASH one per
//! ownership epoch). Resolving every load and the final per-block state
//! to tags yields a memory image two different protocols can be
//! compared on — the differential oracle in
//! `tests/protocol_differential.rs` asserts dash, tardis and dls
//! produce identical images and identical per-load tags on the same
//! program.
//!
//! Resolution is *post-run*: a load usually records the `(block,
//! epoch)` it observed and looks the tag up after the machine (or every
//! shard) has quiesced, because under sharding the write that produced
//! an epoch may retire on another worker. The one case that must
//! resolve eagerly is a load followed by a same-epoch overwrite (a
//! silent DASH dirty-write hit by a cluster-local peer — necessarily
//! the same shard), so a load resolves immediately whenever the epoch's
//! tag is already known locally.
//!
//! The oracle is only meaningful for **data-race-free programs**: a
//! racy load may legitimately observe different writes under different
//! protocols (or different shard counts), so the differential kernels
//! are barrier-ordered. It is off by default
//! (`MachineConfig::value_oracle`) and costs nothing when off.

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

/// The machine-side oracle state (one per machine / shard; merged
/// across shards before reporting).
#[derive(Clone, Debug, Default)]
pub(crate) struct ValueOracle {
    /// Pre-computed `cfg.value_oracle`, checked once per hook.
    pub(crate) on: bool,
    /// `(block, epoch)` -> tag of the latest write in that epoch.
    pub(crate) mem: FastMap<(u64, u64), (usize, u64)>,
    /// Per global processor: its loads, in program order.
    pub(crate) reads: Vec<Vec<ReadRec>>,
    /// Per global processor: how many writes it has performed.
    pub(crate) wseq: Vec<u64>,
}

impl ValueOracle {
    pub(crate) fn new(on: bool, procs: usize) -> Self {
        ValueOracle {
            on,
            mem: FastMap::default(),
            reads: vec![Vec::new(); procs],
            wseq: vec![0; procs],
        }
    }

    /// Folds another shard's oracle into this one. Exact because the
    /// logs partition: each processor's reads/writes retire on its
    /// owning shard, and a `(block, epoch)` tag is only ever rewritten
    /// (silent same-epoch dirty hit) by the cluster that created it.
    pub(crate) fn absorb(&mut self, other: &ValueOracle) {
        for (&k, &v) in &other.mem {
            self.mem.insert(k, v);
        }
        for (p, log) in other.reads.iter().enumerate() {
            if !log.is_empty() {
                self.reads[p] = log.clone();
            }
        }
        for (p, &s) in other.wseq.iter().enumerate() {
            if s > 0 {
                self.wseq[p] = s;
            }
        }
    }

    /// Resolves the log into a comparable report. Call only after the
    /// run (and any cross-shard merge) is complete.
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
/// protocols, shard counts, and (for race-free programs) schedules.
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
    /// Hook: processor `p` performed a write to `block` creating (or
    /// extending, for a silent same-epoch rewrite) version `epoch`.
    pub(crate) fn oracle_write(&mut self, p: usize, block: u64, epoch: u64) {
        if !self.oracle.on {
            return;
        }
        let seq = self.oracle.wseq[p] + 1;
        self.oracle.wseq[p] = seq;
        self.oracle.mem.insert((block, epoch), (p, seq));
    }

    /// Hook: processor `p`'s load observed `block` at the epoch its
    /// cluster's `line_version` records — the resident copy's, or, for a
    /// fill consumed without caching (DLS), the one the reply just set.
    pub(crate) fn oracle_read(&mut self, p: usize, block: u64) {
        if !self.oracle.on {
            return;
        }
        let epoch = self.line_version(self.cluster_of(p), block);
        let rec = match self.oracle.mem.get(&(block, epoch)) {
            Some(&tag) => ReadRec::Resolved(tag),
            None => ReadRec::Deferred(block, epoch),
        };
        self.oracle.reads[p].push(rec);
    }
}

impl Machine {
    /// The resolved value-oracle report, or `None` when the oracle was
    /// off (`MachineConfig::value_oracle`). Meaningful only after the
    /// run completed; see the module docs for the race-free caveat.
    pub fn value_oracle_report(&self) -> Option<ValueOracleReport> {
        self.eng.oracle.on.then(|| self.eng.oracle.report())
    }
}
