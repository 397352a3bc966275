//! LocusRoute — commercial-quality standard-cell router (VLSI-CAD domain).
//!
//! The central data structure is a global *cost array* over the routing
//! grid. Wires are distributed to processors by geographic region, with
//! deliberate overlap so that "several processors working on the same
//! geographical region" share each region's cost cells (§6.2). Routing a
//! wire evaluates a few candidate paths (reads along each) and then claims
//! the cheapest (writes along it).
//!
//! The resulting sharer counts sit just above a small pointer count — the
//! regime where `Dir_i B` broadcasts constantly, while `Dir_i NB`'s
//! pointer-overflow evictions "often do not cause re-reads" because the
//! router has moved on to other wires. LocusRoute is the one application
//! in the paper where `Dir_NB` beats `Dir_B`.

use scd_sim::SimRng;
use scd_tango::{AddressSpace, Op};

use crate::common::{scaled_dim, AppRun, BLOCK_BYTES, WORD};

/// LocusRoute problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct LocusRouteParams {
    /// Cost-array width (routing channels).
    pub width: usize,
    /// Cost-array height (routing tracks).
    pub height: usize,
    /// Number of geographic regions (vertical strips).
    pub regions: usize,
    /// Processors that work wires of each region (sharing degree).
    pub procs_per_region: usize,
    /// Total wires to route.
    pub wires: usize,
    /// Candidate paths evaluated per wire.
    pub candidates: usize,
    /// Private compute cycles per examined cell.
    pub eval_cost: u64,
}

impl Default for LocusRouteParams {
    fn default() -> Self {
        LocusRouteParams {
            width: 256,
            height: 32,
            regions: 8,
            procs_per_region: 5,
            wires: 2560,
            candidates: 4,
            eval_cost: 2,
        }
    }
}

impl LocusRouteParams {
    /// Default size scaled by `f`.
    pub fn scaled(f: f64) -> Self {
        LocusRouteParams {
            width: scaled_dim(256, f, 32),
            height: scaled_dim(32, f.sqrt(), 8),
            wires: scaled_dim(2560, f, 64),
            ..Default::default()
        }
    }
}

/// Generates a LocusRoute run for `procs` processors.
pub fn locusroute(params: &LocusRouteParams, procs: usize, seed: u64) -> AppRun {
    let (w, h) = (params.width, params.height);
    let regions = params.regions.min(procs).max(1);
    let strip = w / regions;
    let sharing = params.procs_per_region.min(procs).max(1);

    let mut space = AddressSpace::new(BLOCK_BYTES);
    let cost = space.alloc("cost_array", (w * h) as u64 * WORD);
    // Per-wire bounding boxes / net descriptions, read-mostly.
    let wires_region = space.alloc("wires", params.wires as u64 * 2 * WORD);
    let cost_at = |x: usize, y: usize| cost.elem((x * h + y) as u64, WORD);

    let mut root = SimRng::new(seed ^ 0x10C05);
    let mut rngs: Vec<SimRng> = (0..procs).map(|p| root.fork(p as u64)).collect();
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); procs];

    // Wire assignment: wire i belongs to region (i % regions) and is routed
    // by one of that region's `sharing` processors, round-robin. Processor
    // group for region g is {g*sharing, g*sharing+1, ...} mod procs —
    // `sharing` distinct processors that repeatedly revisit the same strip.
    for i in 0..params.wires {
        let g = i % regions;
        let member = (i / regions) % sharing;
        let p = (g * sharing + member) % procs;
        let rng = &mut rngs[p];
        let prog = &mut programs[p];

        // Read the wire description.
        prog.push(Op::Read(wires_region.elem(i as u64 * 2, WORD)));

        // Wire endpoints inside the strip (occasionally spilling one strip
        // to the right, as real nets do).
        let x0 = g * strip + rng.index(strip);
        let spill = rng.chance(0.2) && g + 1 < regions;
        let x1_strip = if spill { g + 1 } else { g };
        let x1 = x1_strip * strip + rng.index(strip);
        let (xa, xb) = (x0.min(x1), x0.max(x1));
        let y0 = rng.index(h);
        let y1 = rng.index(h);

        // Evaluate candidate paths: L-shaped routes at different bend rows.
        let mut bends = Vec::with_capacity(params.candidates);
        for _ in 0..params.candidates {
            bends.push(rng.index(h));
        }
        for &bend in &bends {
            for x in xa..=xb {
                prog.push(Op::Read(cost_at(x, bend)));
                prog.push(Op::Compute(params.eval_cost));
            }
            let (ya, yb) = (y0.min(bend), y0.max(bend));
            for y in ya..=yb {
                prog.push(Op::Read(cost_at(xa, y)));
            }
        }

        // Claim the chosen path: write cost cells along it.
        let chosen = bends[rng.index(bends.len())];
        for x in xa..=xb {
            prog.push(Op::Read(cost_at(x, chosen)));
            prog.push(Op::Write(cost_at(x, chosen)));
        }
        let (ya, yb) = (y1.min(chosen), y1.max(chosen));
        for y in ya..=yb {
            prog.push(Op::Read(cost_at(xb, y)));
            prog.push(Op::Write(cost_at(xb, y)));
        }
    }

    AppRun::new("LocusRoute", programs, space.total_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::*;
    use std::collections::{HashMap, HashSet};

    fn small() -> AppRun {
        locusroute(
            &LocusRouteParams {
                width: 64,
                height: 16,
                regions: 4,
                procs_per_region: 3,
                wires: 120,
                candidates: 2,
                eval_cost: 1,
            },
            8,
            11,
        )
    }

    #[test]
    fn structure_is_wellformed() {
        let run = small();
        assert_barriers_aligned(&run.programs); // vacuous (no barriers) but consistent
        assert_locks_balanced(&run.programs);
        assert_addresses_in_bounds(&run.programs, run.shared_bytes);
    }

    #[test]
    fn regions_are_shared_by_several_processors() {
        let run = small();
        // Map cost-array addresses back to strips; cost array starts at 0.
        let cost_bytes = 64 * 16 * WORD;
        let strip_w = 16usize; // 64 / 4 regions
        let mut touchers: HashMap<usize, HashSet<usize>> = HashMap::new();
        for (p, ops) in run.programs.iter().enumerate() {
            for op in ops.iter() {
                if let Op::Read(a) | Op::Write(a) = op {
                    if a < cost_bytes {
                        let x = (a / WORD) as usize / 16; // column = idx / h
                        touchers.entry(x / strip_w).or_default().insert(p);
                    }
                }
            }
        }
        for (g, procs) in &touchers {
            assert!(
                procs.len() >= 3,
                "region {g} touched by {procs:?} — expected >= procs_per_region"
            );
            // Spill wires let the left neighbor's group read into this
            // strip, so the ceiling is two groups' worth.
            assert!(
                procs.len() <= 6,
                "region {g} touched by {} procs — sharing should stay moderate",
                procs.len()
            );
        }
    }

    #[test]
    fn reads_heavily_outnumber_writes() {
        let run = locusroute(&LocusRouteParams::default(), 32, 1);
        let ratio = run.reads() as f64 / run.writes() as f64;
        assert!(
            ratio > 2.5,
            "path evaluation is read-dominated, got ratio {ratio}"
        );
    }

    #[test]
    fn work_is_spread_across_processors() {
        let run = small();
        let busy = run.programs.iter().filter(|p| p.iter().next().is_some()).count();
        assert!(busy >= 7, "only {busy}/8 processors got wires");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.programs, b.programs);
    }
}
