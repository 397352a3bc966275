//! Sparse directories in action: shrink the directory to a small cache of
//! entries (no backing store) and watch the storage/traffic trade-off.
//!
//! ```sh
//! cargo run --release --example sparse_directory
//! ```

use scd::apps::{dwf, DwfParams};
use scd::core::{overhead, DirectoryChoice, MachineSpec, Replacement, Scheme};
use scd::machine::{Machine, MachineConfig};

fn main() {
    // Workload with a data set much larger than the (scaled) caches, per
    // the paper's §6.3 methodology.
    let app = dwf(&DwfParams::scaled(0.6), 32, 7);
    let dataset_blocks = app.shared_bytes / 16;
    let total_cache = (dataset_blocks / 8) as usize;
    let base = MachineConfig::paper_32().with_scaled_caches(total_cache.max(256));
    println!(
        "DWF: {} KB data set, {} cache blocks machine-wide\n",
        app.shared_bytes / 1024,
        base.total_cache_blocks()
    );

    // Non-sparse baseline, then sparse directories of shrinking size.
    let baseline = Machine::new(base.clone(), app.scripts()).run();
    println!(
        "{:<24} {:>10} {:>10} {:>13} {:>13}",
        "directory", "entries", "cycles", "traffic", "replacements"
    );
    println!(
        "{:<24} {:>10} {:>10} {:>13} {:>13}",
        "complete (1 per block)",
        "per-block",
        baseline.cycles,
        baseline.traffic.total(),
        0
    );
    for factor in [4usize, 2, 1] {
        let entries_per_home = (base.total_cache_blocks() * factor / base.clusters)
            .div_ceil(4)
            * 4;
        let cfg = base
            .clone()
            .with_sparse(entries_per_home, 4, Replacement::Lru);
        let stats = Machine::new(cfg, app.scripts()).run();
        println!(
            "{:<24} {:>10} {:>10} {:>13} {:>13}",
            format!("sparse, size factor {factor}"),
            entries_per_home * base.clusters,
            stats.cycles,
            stats.traffic.total(),
            stats.sparse.map_or(0, |s| s.replacements),
        );
    }

    // And the Table-1 style storage argument for a real machine.
    println!("\nStorage at scale (256 procs, 16 MB memory/proc, full bit vector):");
    let spec = MachineSpec::paper_defaults(64);
    for sparsity in [1u64, 4, 16, 64] {
        let r = overhead(
            &spec,
            &DirectoryChoice {
                scheme: Scheme::FullVector,
                sparsity,
            },
        );
        println!(
            "  sparsity {sparsity:>2}: {:>6.2}% of main memory ({:.1}x smaller than complete)",
            r.overhead * 100.0,
            r.savings_vs_full
        );
    }
}
