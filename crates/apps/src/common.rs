//! Shared plumbing for application generators.

use scd_tango::{Op, Program, Script};

/// Coherence block size all generators lay data out for (the paper's 16 B).
pub const BLOCK_BYTES: u64 = 16;

/// Size of one shared word (all four applications use 8-byte data).
pub const WORD: u64 = 8;

/// A generated application run: one operation stream per processor plus
/// the Table 2 self-characterization.
///
/// The streams are shared [`Program`]s, so cloning an `AppRun` — or taking
/// its [`scripts`](AppRun::scripts) for yet another simulation — shares
/// the (potentially multi-megabyte) op words instead of copying them. A
/// generated run is immutable reference data: the parallel sweep engine
/// hands one instance to every worker thread.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Application name as the paper spells it.
    pub name: &'static str,
    /// Per-processor operation streams (shared, immutable).
    pub programs: Vec<Program>,
    /// Bytes of shared space touched (Table 2's "shared space").
    pub shared_bytes: u64,
}

impl AppRun {
    /// Wraps freshly generated per-processor streams.
    pub fn new(name: &'static str, programs: Vec<Vec<Op>>, shared_bytes: u64) -> Self {
        AppRun {
            name,
            programs: programs.into_iter().map(Program::from).collect(),
            shared_bytes,
        }
    }

    /// One fresh [`Script`] per processor, for `Machine::new` (cheap: the
    /// underlying programs are shared, not copied).
    pub fn scripts(&self) -> Vec<Script> {
        self.programs.iter().cloned().map(Script::from).collect()
    }

    // The frozen `benchmark/src/workloads.rs` calls this name three times;
    // it goes with the next `benchmark`-archetype PR (see ROADMAP.md).
    #[doc(hidden)]
    pub fn boxed_programs(&self) -> Vec<Script> {
        self.scripts()
    }

    /// Ops across all processors that `pick` selects.
    fn count(&self, pick: impl Fn(Op) -> bool) -> u64 {
        self.programs.iter().flat_map(Program::iter).filter(|&op| pick(op)).count() as u64
    }

    /// Shared references (reads + writes) across all processors.
    pub fn shared_refs(&self) -> u64 {
        self.count(|op| matches!(op, Op::Read(_) | Op::Write(_)))
    }

    /// Reads across all processors.
    pub fn reads(&self) -> u64 {
        self.count(|op| matches!(op, Op::Read(_)))
    }

    /// Writes across all processors.
    pub fn writes(&self) -> u64 {
        self.count(|op| matches!(op, Op::Write(_)))
    }

    /// Synchronization operations across all processors.
    pub fn sync_ops(&self) -> u64 {
        self.count(|op| matches!(op, Op::Lock(_) | Op::Unlock(_) | Op::Barrier(_)))
    }
}

/// Scales `v` by `f`, keeping at least `min`.
pub(crate) fn scaled_dim(v: usize, f: f64, min: usize) -> usize {
    ((v as f64 * f).round() as usize).max(min)
}

#[cfg(test)]
pub(crate) mod testutil {
    use scd_tango::{Op, Program};

    /// Asserts every processor issues the same barriers in the same order
    /// (a mismatched barrier would deadlock the machine).
    pub fn assert_barriers_aligned(programs: &[Program]) {
        let barrier_seq = |ops: &Program| {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Barrier(b) => Some(b),
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
    pub fn assert_locks_balanced(programs: &[Program]) {
        for (p, ops) in programs.iter().enumerate() {
            let mut held = std::collections::HashSet::new();
            for op in ops.iter() {
                match op {
                    Op::Lock(l) => assert!(held.insert(l), "proc {p} re-locks {l}"),
                    Op::Unlock(l) => {
                        assert!(held.remove(&l), "proc {p} unlocks unheld {l}")
                    }
                    _ => {}
                }
            }
            assert!(held.is_empty(), "proc {p} finishes holding {held:?}");
        }
    }

    /// Asserts all references fall inside the declared shared space.
    pub fn assert_addresses_in_bounds(programs: &[Program], shared_bytes: u64) {
        for (p, ops) in programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Read(a) | Op::Write(a) = op {
                    assert!(
                        a < shared_bytes,
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
}
