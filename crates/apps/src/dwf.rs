//! DWF — wavefront string matching against gene databases (medical
//! domain).
//!
//! A dynamic-programming alignment: a score grid is computed in wavefront
//! order, banded by rows across processors. Each cell reads the read-only
//! *pattern* and *library* arrays — shared by **all** processes for the
//! whole run ("The pattern and library arrays are constantly read by all
//! the processes during the run", §6.2), which punishes `Dir_i NB` — plus
//! its three DP neighbors, one of which crosses a band boundary
//! (producer-consumer sharing with exactly one neighbor).
//!
//! Because only the active anti-diagonal of blocks is live at any moment,
//! DWF "is a wave-front algorithm that has a relatively small working set"
//! (§6.3.1), which is why even very sparse directories handle it well.

use scd_tango::{AddressSpace, Op};

use crate::common::{scaled_dim, AppRun, BLOCK_BYTES, WORD};

/// DWF problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct DwfParams {
    /// Pattern length = grid rows (split into `procs` bands).
    pub rows: usize,
    /// Library length = grid columns (split into column blocks).
    pub cols: usize,
    /// Number of column blocks in the wavefront schedule.
    pub col_blocks: usize,
    /// Private compute cycles per cell.
    pub cell_cost: u64,
}

impl Default for DwfParams {
    fn default() -> Self {
        DwfParams {
            rows: 160,
            cols: 320,
            col_blocks: 16,
            cell_cost: 3,
        }
    }
}

impl DwfParams {
    /// Default size scaled by `f`.
    pub fn scaled(f: f64) -> Self {
        DwfParams {
            rows: scaled_dim(160, f, 8),
            cols: scaled_dim(320, f, 16),
            col_blocks: scaled_dim(16, f.sqrt(), 4),
            ..Default::default()
        }
    }
}

/// Generates a DWF run for `procs` processors.
pub fn dwf(params: &DwfParams, procs: usize, _seed: u64) -> AppRun {
    let rows = params.rows.max(procs); // at least one row per band
    let cols = params.cols;
    let col_blocks = params.col_blocks.min(cols).max(1);

    let mut space = AddressSpace::new(BLOCK_BYTES);
    let pattern = space.alloc("pattern", rows as u64 * WORD);
    let library = space.alloc("library", cols as u64 * WORD);
    // Row-major score grid so band-boundary rows are contiguous.
    let grid = space.alloc("grid", (rows * cols) as u64 * WORD);
    let cell = |r: usize, c: usize| grid.elem((r * cols + c) as u64, WORD);

    let band = rows / procs; // rows per processor band (bands own [p*band ..))
    let block_w = cols / col_blocks;

    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); procs];
    // Wavefront schedule: in step s, band p computes column block (s - p).
    // A barrier per step keeps the anti-diagonal aligned (the original uses
    // finer-grained flags; the sharing pattern is identical).
    let steps = procs + col_blocks - 1;
    for s in 0..steps {
        for (p, prog) in programs.iter_mut().enumerate() {
            if s >= p && s - p < col_blocks {
                let cb = s - p;
                let r0 = p * band;
                let r1 = if p == procs - 1 { rows } else { r0 + band };
                let c0 = cb * block_w;
                let c1 = if cb == col_blocks - 1 {
                    cols
                } else {
                    c0 + block_w
                };
                for r in r0..r1 {
                    for c in c0..c1 {
                        // Read-only arrays shared by everyone. The matcher
                        // probes its scoring profile across the whole
                        // pattern (not just row r), so every band keeps
                        // the entire pattern array live — the "constantly
                        // read by all the processes" behaviour of §6.2.
                        let probe = (r * 7 + c) % rows;
                        prog.push(Op::Read(pattern.elem(probe as u64, WORD)));
                        prog.push(Op::Read(library.elem(c as u64, WORD)));
                        // DP dependencies: up (may cross the band boundary),
                        // left, and the cell itself.
                        if r > 0 {
                            prog.push(Op::Read(cell(r - 1, c)));
                        }
                        if c > 0 {
                            prog.push(Op::Read(cell(r, c - 1)));
                        }
                        prog.push(Op::Compute(params.cell_cost));
                        prog.push(Op::Write(cell(r, c)));
                    }
                }
            }
        }
        for prog in programs.iter_mut() {
            prog.push(Op::Barrier(0));
        }
    }

    AppRun::new("DWF", programs, space.total_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::*;
    use std::collections::HashSet;

    fn small() -> AppRun {
        dwf(
            &DwfParams {
                rows: 16,
                cols: 32,
                col_blocks: 4,
                cell_cost: 1,
            },
            4,
            1,
        )
    }

    #[test]
    fn structure_is_wellformed() {
        let run = small();
        assert_barriers_aligned(&run.programs);
        assert_addresses_in_bounds(&run.programs, run.shared_bytes);
    }

    #[test]
    fn every_cell_is_written_exactly_once() {
        let run = small();
        let mut written = std::collections::HashMap::new();
        for ops in &run.programs {
            for op in ops.iter() {
                if let Op::Write(a) = op {
                    *written.entry(a).or_insert(0u32) += 1;
                }
            }
        }
        assert_eq!(written.len(), 16 * 32, "all grid cells computed");
        assert!(written.values().all(|&c| c == 1), "no double writes");
    }

    #[test]
    fn pattern_and_library_read_by_all_processors() {
        let run = small();
        // pattern occupies the first 16 words, library the next region.
        let readers: HashSet<usize> = run
            .programs
            .iter()
            .enumerate()
            .filter(|(_, ops)| {
                ops.iter()
                    .any(|op| matches!(op, Op::Read(a) if a < 16 * WORD))
            })
            .map(|(p, _)| p)
            .collect();
        // Every band reads its own pattern rows; the *library* row is the
        // one read by everyone.
        let lib_base = {
            // pattern rounded up to blocks, then library starts.
            (16 * WORD).div_ceil(BLOCK_BYTES) * BLOCK_BYTES
        };
        let lib_readers: HashSet<usize> = run
            .programs
            .iter()
            .enumerate()
            .filter(|(_, ops)| {
                ops.iter().any(
                    |op| matches!(op, Op::Read(a) if a >= lib_base && a < lib_base + 32 * WORD),
                )
            })
            .map(|(p, _)| p)
            .collect();
        assert_eq!(lib_readers.len(), 4, "library read by all bands");
        assert!(!readers.is_empty());
    }

    #[test]
    fn band_boundaries_create_producer_consumer_pairs() {
        let run = small();
        // Band 1 (rows 4..8) reads row 3, which band 0 wrote.
        let boundary_row_addr = |c: u64| {
            // grid base + (3 * cols + c) * WORD
            let grid_base = run.shared_bytes - (16 * 32) as u64 * WORD;
            grid_base + (3 * 32 + c) * WORD
        };
        let band1_reads_boundary = run.programs[1]
            .iter()
            .any(|op| matches!(op, Op::Read(a) if (0..32).any(|c| a == boundary_row_addr(c))));
        assert!(band1_reads_boundary);
    }

    #[test]
    fn deterministic_and_scalable() {
        let a = dwf(&DwfParams::default(), 8, 3);
        let b = dwf(&DwfParams::default(), 8, 3);
        assert_eq!(a.programs, b.programs);
        let small = dwf(&DwfParams::scaled(0.25), 8, 3);
        assert!(small.shared_refs() < a.shared_refs());
    }
}
