//! Quickstart: build a DASH machine, run a small LU factorization under
//! two directory schemes, and compare the resulting coherence traffic.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use scd::apps::{lu, LuParams};
use scd::core::Scheme;
use scd::machine::{Machine, MachineConfig};
use scd::stats::MessageClass;

fn main() {
    // The paper's evaluation machine: 32 processors in 32 clusters,
    // 16-byte blocks, 64 KB L1 / 256 KB L2, mesh interconnect.
    let base = MachineConfig::paper_32();

    // A modest LU problem (48x48 matrix, column-cyclic across 32 procs).
    let app = lu(
        &LuParams {
            n: 48,
            update_cost: 4,
        },
        base.processors(),
        42,
    );
    println!(
        "workload: {} — {} shared refs ({} reads / {} writes), {} KB shared data\n",
        app.name,
        app.shared_refs(),
        app.reads(),
        app.writes(),
        app.shared_bytes / 1024
    );

    for (label, scheme) in [
        ("Dir32  (full bit vector)   ", Scheme::FullVector),
        ("Dir3CV2 (coarse vector)    ", Scheme::dir_cv(3, 2)),
        ("Dir3B  (broadcast)         ", Scheme::dir_b(3)),
        ("Dir3NB (non-broadcast)     ", Scheme::dir_nb(3)),
    ] {
        let cfg = base.clone().with_scheme(scheme);
        let stats = Machine::new(cfg, app.scripts()).run();
        println!(
            "{label} {:>9} cycles | {:>7} req {:>7} rep {:>6} inval {:>6} ack",
            stats.cycles,
            stats.traffic.get(MessageClass::Request),
            stats.traffic.get(MessageClass::Reply),
            stats.traffic.get(MessageClass::Invalidation),
            stats.traffic.get(MessageClass::Acknowledgement),
        );
    }
    println!(
        "\nDir3NB pays for LU's read-shared pivot column with pointer-eviction\n\
         invalidations and re-read misses; the other schemes track it exactly."
    );
}
