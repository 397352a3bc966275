//! Shared between `config_fuzz` (the generative property test) and
//! `config_fuzz_regressions` (its promoted failure seeds): one fuzz
//! configuration vector and the builder that turns it into a full machine
//! run with the version oracle and quiescent checker enabled.

use scd::core::{Replacement, Scheme};
use scd::machine::{Machine, MachineConfig};
use scd::noc::LatencyModel;
use scd::sim::SimRng;
use scd::tango::{Op, Script};

/// One point in the fuzzed configuration space.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    pub clusters: usize,
    pub ppc: usize,
    pub l2_blocks: usize,
    pub l2_ways: usize,
    pub scheme: Scheme,
    /// Directory organization: 0 complete, 1 sparse, 2 overflow.
    pub org: u8,
    pub mesh: bool,
    pub contention: Option<u64>,
    pub hints: bool,
    pub serial: bool,
    pub blocks: u64,
    pub write_ratio: f64,
    pub locks: bool,
    pub seed: u64,
}

pub fn build_and_run(fz: &FuzzConfig) -> scd::machine::RunStats {
    let mut cfg = MachineConfig::tiny(fz.clusters);
    cfg.procs_per_cluster = fz.ppc;
    cfg.l2_blocks = fz.l2_blocks;
    cfg.l2_ways = fz.l2_ways;
    cfg.l1_blocks = (fz.l2_blocks / 4).max(1);
    cfg.l1_ways = 1;
    cfg.scheme = fz.scheme;
    cfg = match fz.org {
        1 => cfg.with_sparse(4, 2, Replacement::Lru),
        2 => {
            let i = fz.scheme.pointer_count().unwrap_or(2).min(4);
            cfg.with_overflow(i, 4, 2, Replacement::Random)
        }
        _ => cfg,
    };
    if fz.mesh {
        cfg.latency = LatencyModel::Mesh {
            fixed: 13,
            per_hop: 1,
        };
    }
    cfg.link_occupancy = fz.contention;
    cfg.replacement_hints = fz.hints;
    cfg.serial_invalidations = fz.serial;
    // tiny() already enables check_invariants, and with it the version oracle.

    let procs = cfg.processors();
    let mut root = SimRng::new(fz.seed);
    let programs: Vec<Script> = (0..procs)
        .map(|p| {
            let mut rng = root.fork(p as u64);
            let mut ops = Vec::new();
            let mut held: Option<u32> = None;
            for _ in 0..150 {
                if fz.locks && held.is_none() && rng.chance(0.05) {
                    let l = rng.below(3) as u32;
                    ops.push(Op::Lock(l));
                    held = Some(l);
                }
                let a = rng.below(fz.blocks) * 16;
                if rng.chance(fz.write_ratio) {
                    ops.push(Op::Write(a));
                } else {
                    ops.push(Op::Read(a));
                }
                if let Some(l) = held {
                    if rng.chance(0.5) {
                        ops.push(Op::Unlock(l));
                        held = None;
                    }
                }
                if rng.chance(0.1) {
                    ops.push(Op::Compute(rng.below(15)));
                }
            }
            if let Some(l) = held {
                ops.push(Op::Unlock(l));
            }
            Script::from(ops)
        })
        .collect();
    Machine::new(cfg, programs).run()
}
