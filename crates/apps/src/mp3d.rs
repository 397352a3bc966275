//! MP3D — 3-dimensional rarefied-flow particle simulation (aeronautics).
//!
//! Particles are statically partitioned across processors; each time step a
//! processor moves its own particles (read-modify-write of per-particle
//! state, effectively private) and updates the *space cell* each particle
//! occupies (read-modify-write of a shared counter). Particles drift
//! slowly, so a cell is touched by the one or two processors whose
//! particles currently overlap it — the migratory, low-sharer pattern that
//! "all schemes can handle well" (§6.2). Occasional collisions take a
//! per-cell lock.

use scd_sim::SimRng;
use scd_tango::{AddressSpace, Op};

use crate::common::{scaled_dim, AppRun, BLOCK_BYTES, WORD};

/// MP3D problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Mp3dParams {
    /// Total number of particles (split evenly across processors).
    pub particles: usize,
    /// Space-cell array length (1-D flattening of the 3-D grid).
    pub cells: usize,
    /// Simulated time steps.
    pub steps: usize,
    /// Probability a particle move triggers a collision (lock + extra
    /// cell work).
    pub collision_rate: f64,
    /// Private compute cycles per particle move.
    pub move_cost: u64,
}

impl Default for Mp3dParams {
    fn default() -> Self {
        Mp3dParams {
            particles: 6144,
            cells: 2048,
            steps: 8,
            collision_rate: 0.05,
            move_cost: 6,
        }
    }
}

impl Mp3dParams {
    /// Default size scaled by `f`.
    pub fn scaled(f: f64) -> Self {
        Mp3dParams {
            particles: scaled_dim(6144, f, 64),
            cells: scaled_dim(2048, f, 64),
            steps: scaled_dim(8, f.sqrt(), 2),
            ..Default::default()
        }
    }
}

/// Generates an MP3D run for `procs` processors.
pub fn mp3d(params: &Mp3dParams, procs: usize, seed: u64) -> AppRun {
    let n = params.particles / procs * procs; // even split
    let per_proc = n / procs;
    let cells = params.cells;

    let mut space = AddressSpace::new(BLOCK_BYTES);
    // Particle records: 32 bytes (position+velocity), i.e. two 16-B blocks.
    let particles = space.alloc("particles", n as u64 * 32);
    let cell_arr = space.alloc("cells", cells as u64 * WORD);

    let mut root = SimRng::new(seed ^ 0x3D);
    // Each particle starts inside its owner's spatial slab so cells are
    // mostly single-owner; drift makes boundary cells two-owner.
    let slab = cells / procs;
    let mut positions: Vec<usize> = (0..n)
        .map(|i| {
            let owner = i / per_proc;
            let base = owner * slab;
            base + root.index(slab.max(1))
        })
        .collect();

    let mut rngs: Vec<SimRng> = (0..procs).map(|p| root.fork(p as u64)).collect();
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); procs];

    for _step in 0..params.steps {
        for (p, prog) in programs.iter_mut().enumerate() {
            let rng = &mut rngs[p];
            #[allow(clippy::needless_range_loop)] // i indexes both the shared
            // positions vector and the particle address arithmetic
            for i in p * per_proc..(p + 1) * per_proc {
                // Move the particle: read+write its own record (2 words in
                // distinct blocks so the record's true footprint shows).
                prog.push(Op::Read(particles.elem(i as u64 * 4, WORD)));
                prog.push(Op::Read(particles.elem(i as u64 * 4 + 2, WORD)));
                prog.push(Op::Compute(params.move_cost));
                prog.push(Op::Write(particles.elem(i as u64 * 4, WORD)));

                // Drift: -1, 0, or +1 cells, clamped to the grid.
                let delta = rng.index(3) as i64 - 1;
                let pos = (positions[i] as i64 + delta).clamp(0, cells as i64 - 1) as usize;
                positions[i] = pos;

                // Update the occupied space cell (migratory shared data).
                let addr = cell_arr.elem(pos as u64, WORD);
                prog.push(Op::Read(addr));
                prog.push(Op::Write(addr));

                // Occasional collision: serialize on the cell's lock and do
                // extra cell work.
                if rng.chance(params.collision_rate) {
                    let lock = (pos % 64) as u32;
                    prog.push(Op::Lock(lock));
                    prog.push(Op::Read(addr));
                    prog.push(Op::Compute(params.move_cost));
                    prog.push(Op::Write(addr));
                    prog.push(Op::Unlock(lock));
                }
            }
        }
        for prog in programs.iter_mut() {
            prog.push(Op::Barrier(0));
        }
    }

    AppRun::new("MP3D", programs, space.total_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::*;
    use std::collections::{HashMap, HashSet};

    fn small() -> AppRun {
        mp3d(
            &Mp3dParams {
                particles: 256,
                cells: 128,
                steps: 3,
                collision_rate: 0.1,
                move_cost: 2,
            },
            4,
            42,
        )
    }

    #[test]
    fn structure_is_wellformed() {
        let run = small();
        assert_barriers_aligned(&run.programs);
        assert_locks_balanced(&run.programs);
        assert_addresses_in_bounds(&run.programs, run.shared_bytes);
    }

    #[test]
    fn particles_are_private_to_their_owner() {
        let run = small();
        // Particle records live in the first 256*32 bytes.
        let particle_bytes = 256 * 32u64;
        let mut writers: HashMap<u64, HashSet<usize>> = HashMap::new();
        for (p, ops) in run.programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Write(a) = op {
                    if a < particle_bytes {
                        writers.entry(a).or_default().insert(p);
                    }
                }
            }
        }
        assert!(
            writers.values().all(|s| s.len() == 1),
            "particle state written by exactly one processor"
        );
    }

    #[test]
    fn cells_are_shared_by_few_processors() {
        let run = small();
        let particle_bytes = 256 * 32u64;
        let mut writers: HashMap<u64, HashSet<usize>> = HashMap::new();
        for (p, ops) in run.programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Write(a) = op {
                    if a >= particle_bytes {
                        writers.entry(a).or_default().insert(p);
                    }
                }
            }
        }
        let sharded: Vec<usize> = writers.values().map(|s| s.len()).collect();
        let avg = sharded.iter().sum::<usize>() as f64 / sharded.len() as f64;
        assert!(
            avg < 2.2,
            "space cells should average <= ~2 writers, got {avg}"
        );
        assert!(
            sharded.iter().any(|&c| c >= 2),
            "boundary cells must be shared by neighbors"
        );
    }

    #[test]
    fn collisions_take_locks() {
        let run = small();
        assert!(run.sync_ops() > 6, "locks + barriers present");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.programs, b.programs);
        let c = mp3d(
            &Mp3dParams {
                particles: 256,
                cells: 128,
                steps: 3,
                collision_rate: 0.1,
                move_cost: 2,
            },
            4,
            43,
        );
        assert_ne!(a.programs, c.programs, "different seed, different run");
    }
}
