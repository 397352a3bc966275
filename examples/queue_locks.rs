//! §7 directory-based queue locks: when the waiter vector degrades to a
//! coarse vector, a release wakes a whole region of processors to retry.
//!
//! ```sh
//! cargo run --release --example queue_locks
//! ```

use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use scd::tango::{Op, Script};

fn main() {
    let clusters = 16;
    let iters = 20;
    println!(
        "{clusters} clusters hammer one lock {iters}x each; the waiter vector\n\
         representation follows the machine's directory scheme.\n"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>11}",
        "waiter vector", "cycles", "grants", "retries", "lock msgs"
    );
    for (name, scheme) in [
        ("full bit vector", Scheme::FullVector),
        ("coarse vector (r=4)", Scheme::dir_cv(2, 4)),
        ("coarse vector (r=8)", Scheme::dir_cv(2, 8)),
    ] {
        let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
        cfg.clusters = clusters;
        cfg.check_invariants = true;
        let programs: Vec<Script> = (0..clusters)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..iters {
                    ops.extend([Op::Lock(3), Op::Compute(30), Op::Unlock(3)]);
                }
                Script::from(ops)
            })
            .collect();
        let stats = Machine::new(cfg, programs).run();
        let (grants, retries) = stats.lock_metrics;
        println!(
            "{:<24} {:>9} {:>8} {:>9} {:>11}",
            name,
            stats.cycles,
            grants,
            retries,
            stats.traffic.total()
        );
    }
    println!(
        "\nEvery acquire is still granted exactly once (mutual exclusion is\n\
         checker-enforced); coarse vectors trade extra retry messages for\n\
         directory storage, as §7 describes."
    );
}
