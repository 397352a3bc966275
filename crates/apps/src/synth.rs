//! Synthetic sharing-pattern workloads.
//!
//! Controlled versions of the access patterns the real applications mix
//! together, for isolating scheme behaviour:
//!
//! * [`SharingPattern::WideRead`] — every block read by a fixed number of
//!   processors, then written by one: the Figure-2 experiment run through
//!   the *full machine* instead of the Monte-Carlo model, which lets the
//!   two be cross-validated (`repro fig2_machine`);
//! * [`SharingPattern::Migratory`] — blocks handed from processor to
//!   processor, read-modify-write (MP3D's cells);
//! * [`SharingPattern::ProducerConsumer`] — one writer, one reader per
//!   block (DWF's band boundaries).

use scd_sim::SimRng;
use scd_tango::{AddressSpace, Op};

use crate::common::{AppRun, BLOCK_BYTES, WORD};

/// Which synthetic pattern to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingPattern {
    /// Each block is read by exactly `sharers` distinct processors, then
    /// written by a processor that is neither a sharer nor the block's
    /// home cluster (the Figure 2 event model).
    WideRead {
        /// Number of readers per block before the write.
        sharers: usize,
    },
    /// Each block migrates: processors take turns read-modify-writing it.
    Migratory,
    /// Fixed producer/consumer pairs per block.
    ProducerConsumer,
}

/// Parameters for [`synth`].
#[derive(Clone, Copy, Debug)]
pub struct SynthParams {
    /// The pattern.
    pub pattern: SharingPattern,
    /// Number of distinct blocks cycled through.
    pub blocks: usize,
    /// Pattern repetitions.
    pub rounds: usize,
}

/// Generates a synthetic run for `procs` processors.
///
/// The schedule is phase-structured with barriers so the sharer sets are
/// exact when the write happens (no replacement noise: callers should use
/// caches large enough to hold `blocks`).
pub fn synth(params: &SynthParams, procs: usize, seed: u64) -> AppRun {
    let mut space = AddressSpace::new(BLOCK_BYTES);
    let data = space.alloc("synth", params.blocks as u64 * BLOCK_BYTES);
    let addr = |b: usize| data.elem(b as u64 * 2, WORD);
    let mut rng = SimRng::new(seed ^ 0x517_417);
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); procs];

    for round in 0..params.rounds {
        match params.pattern {
            SharingPattern::WideRead { sharers } => {
                assert!(
                    sharers + 2 <= procs,
                    "need room for home and writer outside the sharer set"
                );
                for b in 0..params.blocks {
                    // Home cluster of the block under round-robin
                    // interleaving with procs == clusters: addr(b) is byte
                    // b*16, i.e. block number b.
                    let home = b % procs;
                    let mut candidates: Vec<usize> =
                        (0..procs).filter(|&p| p != home).collect();
                    rng.shuffle(&mut candidates);
                    let writer = candidates[0];
                    for &p in &candidates[1..=sharers] {
                        programs[p].push(Op::Read(addr(b)));
                    }
                    for (p, prog) in programs.iter_mut().enumerate() {
                        prog.push(Op::Barrier(((round * 2) % 4) as u32));
                        let _ = p;
                    }
                    programs[writer].push(Op::Write(addr(b)));
                    for prog in programs.iter_mut() {
                        prog.push(Op::Barrier(((round * 2 + 1) % 4) as u32));
                    }
                }
            }
            SharingPattern::Migratory => {
                for b in 0..params.blocks {
                    let p = (b + round) % procs;
                    programs[p].push(Op::Read(addr(b)));
                    programs[p].push(Op::Compute(4));
                    programs[p].push(Op::Write(addr(b)));
                }
                for prog in programs.iter_mut() {
                    prog.push(Op::Barrier((round % 2) as u32));
                }
            }
            SharingPattern::ProducerConsumer => {
                for b in 0..params.blocks {
                    let producer = b % procs;
                    let consumer = (b + 1) % procs;
                    programs[producer].push(Op::Write(addr(b)));
                    programs[consumer].push(Op::Compute(2));
                }
                for prog in programs.iter_mut() {
                    prog.push(Op::Barrier((round % 2) as u32));
                }
                for b in 0..params.blocks {
                    let consumer = (b + 1) % procs;
                    programs[consumer].push(Op::Read(addr(b)));
                }
                for prog in programs.iter_mut() {
                    prog.push(Op::Barrier(((round + 1) % 2) as u32));
                }
            }
        }
    }

    AppRun::new("Synthetic", programs, space.total_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::*;
    use std::collections::HashSet;

    #[test]
    fn wide_read_has_exact_sharer_counts() {
        let params = SynthParams {
            pattern: SharingPattern::WideRead { sharers: 3 },
            blocks: 8,
            rounds: 1,
        };
        let run = synth(&params, 8, 1);
        assert_barriers_aligned(&run.programs);
        assert_addresses_in_bounds(&run.programs, run.shared_bytes);
        // Every block gets exactly 3 readers and 1 writer.
        for b in 0..8u64 {
            let a = b * 16;
            let readers: HashSet<usize> = run
                .programs
                .iter()
                .enumerate()
                .filter(|(_, ops)| ops.iter().any(|o| matches!(o, Op::Read(x) if x == a)))
                .map(|(p, _)| p)
                .collect();
            let writers: HashSet<usize> = run
                .programs
                .iter()
                .enumerate()
                .filter(|(_, ops)| ops.iter().any(|o| matches!(o, Op::Write(x) if x == a)))
                .map(|(p, _)| p)
                .collect();
            assert_eq!(readers.len(), 3, "block {b}");
            assert_eq!(writers.len(), 1, "block {b}");
            assert!(readers.is_disjoint(&writers));
            // Neither readers nor writer include the home cluster.
            let home = (b % 8) as usize;
            assert!(!readers.contains(&home) && !writers.contains(&home));
        }
    }

    #[test]
    fn migratory_blocks_rotate_owners() {
        let params = SynthParams {
            pattern: SharingPattern::Migratory,
            blocks: 4,
            rounds: 3,
        };
        let run = synth(&params, 4, 1);
        assert_barriers_aligned(&run.programs);
        // Block 0's writers across rounds: procs 0, 1, 2.
        let writers: Vec<usize> = run
            .programs
            .iter()
            .enumerate()
            .filter(|(_, ops)| ops.iter().any(|o| matches!(o, Op::Write(0))))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(writers, vec![0, 1, 2]);
    }

    #[test]
    fn producer_consumer_pairs_are_fixed() {
        let params = SynthParams {
            pattern: SharingPattern::ProducerConsumer,
            blocks: 6,
            rounds: 2,
        };
        let run = synth(&params, 3, 1);
        assert_barriers_aligned(&run.programs);
        assert!(run.reads() == run.writes());
    }
}
