//! Shared plumbing for application generators.

use scd_tango::{Op, Script};
use std::sync::Arc;

/// Coherence block size all generators lay data out for (the paper's 16 B).
pub const BLOCK_BYTES: u64 = 16;

/// Size of one shared word (all four applications use 8-byte data).
pub const WORD: u64 = 8;

/// A generated application run: one operation stream per processor plus
/// the Table 2 self-characterization.
///
/// The streams sit behind [`Arc`]s, so cloning an `AppRun` — or taking its
/// [`scripts`](AppRun::scripts) for yet another simulation — shares the
/// (potentially multi-megabyte) op vectors instead of copying them. A
/// generated run is immutable reference data: the parallel sweep engine
/// hands one instance to every worker thread.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Application name as the paper spells it.
    pub name: &'static str,
    /// Per-processor operation streams (shared, immutable).
    pub programs: Vec<Arc<[Op]>>,
    /// Bytes of shared space touched (Table 2's "shared space").
    pub shared_bytes: u64,
}

impl AppRun {
    /// Wraps freshly generated per-processor streams.
    pub fn new(name: &'static str, programs: Vec<Vec<Op>>, shared_bytes: u64) -> Self {
        AppRun {
            name,
            programs: programs.into_iter().map(Arc::from).collect(),
            shared_bytes,
        }
    }

    /// One fresh [`Script`] per processor, for `Machine::new` (cheap: the
    /// underlying op vectors are shared, not copied).
    pub fn scripts(&self) -> Vec<Script> {
        self.programs.iter().cloned().map(Script::from).collect()
    }

    // The frozen `benchmark/src/workloads.rs` calls this name three times;
    // it goes with the next `benchmark`-archetype PR (see ROADMAP.md).
    #[doc(hidden)]
    pub fn boxed_programs(&self) -> Vec<Script> {
        self.scripts()
    }

    /// Shared references (reads + writes) across all processors.
    pub fn shared_refs(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|ops| ops.iter())
            .filter(|op| op.is_reference())
            .count() as u64
    }

    /// Reads across all processors.
    pub fn reads(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|ops| ops.iter())
            .filter(|op| matches!(op, Op::Read(_)))
            .count() as u64
    }

    /// Writes across all processors.
    pub fn writes(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|ops| ops.iter())
            .filter(|op| matches!(op, Op::Write(_)))
            .count() as u64
    }

    /// Synchronization operations across all processors.
    pub fn sync_ops(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|ops| ops.iter())
            .filter(|op| op.is_sync())
            .count() as u64
    }
}

/// Scales `v` by `f`, keeping at least `min`.
pub(crate) fn scaled_dim(v: usize, f: f64, min: usize) -> usize {
    ((v as f64 * f).round() as usize).max(min)
}

#[cfg(test)]
pub(crate) mod testutil {
    use scd_tango::Op;

    /// Asserts every processor issues the same barriers in the same order
    /// (a mismatched barrier would deadlock the machine).
    pub fn assert_barriers_aligned<P: std::ops::Deref<Target = [Op]>>(programs: &[P]) {
        let barrier_seq = |ops: &[Op]| {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Barrier(b) => Some(*b),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let first = barrier_seq(&programs[0]);
        for (p, ops) in programs.iter().enumerate().skip(1) {
            assert_eq!(
                barrier_seq(ops),
                first,
                "processor {p} disagrees on barrier sequence"
            );
        }
    }

    /// Asserts lock/unlock pairs balance per processor.
    pub fn assert_locks_balanced<P: std::ops::Deref<Target = [Op]>>(programs: &[P]) {
        for (p, ops) in programs.iter().enumerate() {
            let mut held = std::collections::HashSet::new();
            for op in ops.iter() {
                match op {
                    Op::Lock(l) => assert!(held.insert(*l), "proc {p} re-locks {l}"),
                    Op::Unlock(l) => {
                        assert!(held.remove(l), "proc {p} unlocks unheld {l}")
                    }
                    _ => {}
                }
            }
            assert!(held.is_empty(), "proc {p} finishes holding {held:?}");
        }
    }

    /// Asserts all references fall inside the declared shared space.
    pub fn assert_addresses_in_bounds<P: std::ops::Deref<Target = [Op]>>(
        programs: &[P],
        shared_bytes: u64,
    ) {
        for (p, ops) in programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Read(a) | Op::Write(a) = op {
                    assert!(
                        *a < shared_bytes,
                        "proc {p} references {a:#x} beyond shared space {shared_bytes:#x}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_tango::Op;

    #[test]
    fn apprun_counters() {
        let run = AppRun::new(
            "x",
            vec![
                vec![Op::Read(0), Op::Write(8), Op::Lock(0), Op::Unlock(0)],
                vec![Op::Read(16), Op::Compute(5)],
            ],
            64,
        );
        assert_eq!(run.shared_refs(), 3);
        assert_eq!(run.reads(), 2);
        assert_eq!(run.writes(), 1);
        assert_eq!(run.sync_ops(), 2);
        assert_eq!(run.scripts().len(), 2);
    }

    /// Cloning an `AppRun` (and taking its scripts) shares the op streams
    /// rather than copying them — the invariant the parallel sweep engine
    /// relies on to hand one generated program set to many workers.
    #[test]
    fn apprun_clones_share_streams() {
        let run = AppRun::new("x", vec![vec![Op::Read(0); 100]], 16);
        let clone = run.clone();
        assert!(Arc::ptr_eq(&run.programs[0], &clone.programs[0]));
        let _scripts = run.scripts();
        assert_eq!(Arc::strong_count(&run.programs[0]), 3, "clone + scripts share");
    }
}
