//! LU — dense L-U factorization (numerical domain).
//!
//! Column-cyclic decomposition without pivoting, the classic SPLASH-style
//! kernel. At step `k` the owner of column `k` scales it; after a barrier,
//! **every** processor reads column `k` (the pivot column) to update its
//! own columns `j > k`.
//!
//! This is the paper's exemplar of actively read-shared data: "In LU each
//! matrix column is read by all processors just after the pivot step. This
//! data is actively shared between many processors and Dir_NB does very
//! poorly" (§6.2).

use scd_sim::SimRng;
use scd_tango::{AddressSpace, Op};

use crate::common::{scaled_dim, AppRun, BLOCK_BYTES, WORD};

/// LU problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuParams {
    /// Matrix dimension (n x n, column-major).
    pub n: usize,
    /// Private compute cycles charged per element update.
    pub update_cost: u64,
}

impl Default for LuParams {
    fn default() -> Self {
        LuParams {
            n: 72,
            update_cost: 4,
        }
    }
}

impl LuParams {
    /// Default size scaled by `f` (for quick tests and sweeps).
    pub fn scaled(f: f64) -> Self {
        LuParams {
            n: scaled_dim(72, f, 8),
            ..Default::default()
        }
    }
}

/// Generates an LU run for `procs` processors.
pub fn lu(params: &LuParams, procs: usize, _seed: u64) -> AppRun {
    let n = params.n;
    let mut space = AddressSpace::new(BLOCK_BYTES);
    // Column-major n x n matrix of 8-byte elements: column k is contiguous,
    // so the pivot column is a run of n/2 blocks every processor reads.
    let matrix = space.alloc("matrix", (n * n) as u64 * WORD);
    let elem = |col: usize, row: usize| matrix.elem((col * n + row) as u64, WORD);

    // The RNG is unused (LU's schedule is static) but kept in the signature
    // for uniformity across the four applications.
    let _ = SimRng::new(0);

    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); procs];
    for k in 0..n.saturating_sub(1) {
        let owner = k % procs;
        // Pivot step: the owner scales column k below the diagonal.
        for row in k + 1..n {
            programs[owner].push(Op::Read(elem(k, row)));
            programs[owner].push(Op::Compute(params.update_cost));
            programs[owner].push(Op::Write(elem(k, row)));
        }
        // Everyone waits for the pivot column.
        for prog in programs.iter_mut() {
            prog.push(Op::Barrier(0));
        }
        // Update phase: each processor updates its own columns j > k using
        // the (read-shared) pivot column.
        for j in k + 1..n {
            let p = j % procs;
            for row in k + 1..n {
                programs[p].push(Op::Read(elem(k, row))); // pivot column
                programs[p].push(Op::Read(elem(j, row)));
                programs[p].push(Op::Compute(params.update_cost));
                programs[p].push(Op::Write(elem(j, row)));
            }
        }
        // The next pivot step must not start before updates finish.
        for prog in programs.iter_mut() {
            prog.push(Op::Barrier(0));
        }
    }

    AppRun::new("LU", programs, space.total_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::*;
    use std::collections::HashSet;

    fn small() -> AppRun {
        lu(&LuParams { n: 12, update_cost: 2 }, 4, 1)
    }

    #[test]
    fn structure_is_wellformed() {
        let run = small();
        assert_eq!(run.programs.len(), 4);
        assert_barriers_aligned(&run.programs);
        assert_locks_balanced(&run.programs);
        assert_addresses_in_bounds(&run.programs, run.shared_bytes);
    }

    #[test]
    fn pivot_column_is_read_by_every_processor() {
        let run = lu(&LuParams { n: 16, update_cost: 1 }, 4, 1);
        let n = 16u64;
        // Element (col 0, row 5) of the pivot column for k = 0.
        let pivot_addr = 5 * WORD;
        let _ = n;
        let readers: HashSet<usize> = run
            .programs
            .iter()
            .enumerate()
            .filter(|(_, ops)| ops.iter().any(|op| matches!(op, Op::Read(a) if a == pivot_addr)))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(readers.len(), 4, "all processors read the pivot column");
    }

    #[test]
    fn columns_are_written_only_by_their_owner_after_pivot() {
        let run = small();
        let n = 12usize;
        // Column j's elements are written by proc j % 4 only.
        for (p, ops) in run.programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Write(a) = op {
                    let idx = a / WORD;
                    let col = (idx as usize) / n;
                    assert_eq!(
                        col % 4,
                        p,
                        "column {col} written by non-owner processor {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn reads_exceed_writes_roughly_two_to_one() {
        let run = lu(&LuParams::default(), 32, 1);
        let ratio = run.reads() as f64 / run.writes() as f64;
        // Update phase: 2 reads per write; pivot phase: 1 read per write.
        assert!((1.8..2.2).contains(&ratio), "read/write ratio {ratio}");
    }

    #[test]
    fn scaling_shrinks_the_problem() {
        let big = lu(&LuParams::scaled(1.0), 8, 1);
        let small = lu(&LuParams::scaled(0.25), 8, 1);
        assert!(small.shared_refs() < big.shared_refs() / 10);
        assert!(small.shared_bytes < big.shared_bytes);
    }

    #[test]
    fn deterministic() {
        let a = lu(&LuParams::default(), 8, 7);
        let b = lu(&LuParams::default(), 8, 7);
        assert_eq!(a.programs, b.programs);
    }
}
