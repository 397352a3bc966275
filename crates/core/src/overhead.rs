//! Directory memory overhead accounting (paper §3, §4.2, Table 1).
//!
//! The second scalability requirement for directory schemes is that the
//! hardware overhead — dominated by directory memory — grows at most
//! linearly with machine size. This module reproduces the paper's
//! arithmetic: bits per entry for each scheme, tag bits for sparse
//! directories, total directory memory, and the overhead expressed as a
//! fraction of main memory.

use crate::scheme::Scheme;

/// Physical dimensions of a machine, following Table 1's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Number of clusters (directory state is per cluster).
    pub clusters: usize,
    /// Processors per cluster (DASH uses 4).
    pub procs_per_cluster: usize,
    /// Main memory per processor, bytes (paper: 16 MB).
    pub mem_per_proc: u64,
    /// Cache per processor, bytes (paper: 256 KB secondary cache).
    pub cache_per_proc: u64,
    /// Coherence block size, bytes (paper: 16 B).
    pub block_bytes: u64,
}

impl MachineSpec {
    /// The paper's per-processor provisioning: 16 MB memory, 256 KB cache,
    /// 16-byte blocks, 4 processors per cluster.
    pub fn paper_defaults(clusters: usize) -> Self {
        MachineSpec {
            clusters,
            procs_per_cluster: 4,
            mem_per_proc: 16 << 20,
            cache_per_proc: 256 << 10,
            block_bytes: 16,
        }
    }

    /// Total processor count.
    pub fn processors(&self) -> usize {
        self.clusters * self.procs_per_cluster
    }

    /// Total main memory, bytes.
    pub fn total_memory(&self) -> u64 {
        self.mem_per_proc * self.processors() as u64
    }

    /// Total cache, bytes.
    pub fn total_cache(&self) -> u64 {
        self.cache_per_proc * self.processors() as u64
    }

    /// Number of memory blocks in the machine.
    pub fn memory_blocks(&self) -> u64 {
        self.total_memory() / self.block_bytes
    }
}

/// A directory provisioning choice to be costed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectoryChoice {
    /// Entry format.
    pub scheme: Scheme,
    /// Memory blocks per directory entry: 1 = complete directory, `s` > 1 =
    /// sparse directory with sparsity `s` (paper's "ratio of main memory
    /// blocks to directory entries").
    pub sparsity: u64,
}

/// Cost breakdown produced by [`overhead`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadReport {
    /// State bits (sharer representation) per entry.
    pub state_bits: usize,
    /// Dirty bit (always 1, kept separate for readability).
    pub dirty_bits: usize,
    /// Tag bits per entry (0 for complete directories; `ceil(log2 sparsity)`
    /// for sparse ones, per the paper's sparsity-64 example).
    pub tag_bits: usize,
    /// Total bits per entry.
    pub entry_bits: usize,
    /// Number of directory entries in the machine.
    pub entries: u64,
    /// Total directory memory, bits.
    pub total_bits: u64,
    /// Directory memory as a fraction of main memory.
    pub overhead: f64,
    /// Memory saved relative to a complete full-bit-vector directory
    /// ("savings factor"; the paper's sparsity-64 example yields ~54).
    pub savings_vs_full: f64,
}

/// Bits of tag needed to disambiguate `sparsity` blocks per slot.
fn tag_bits_for(sparsity: u64) -> usize {
    if sparsity <= 1 {
        0
    } else {
        64 - (sparsity - 1).leading_zeros() as usize
    }
}

/// Computes the directory memory overhead of `choice` on `spec`.
pub fn overhead(spec: &MachineSpec, choice: &DirectoryChoice) -> OverheadReport {
    assert!(choice.sparsity >= 1, "sparsity must be at least 1");
    let state_bits = choice.scheme.state_bits(spec.clusters);
    let tag_bits = tag_bits_for(choice.sparsity);
    let entry_bits = state_bits + 1 + tag_bits;
    let entries = spec.memory_blocks() / choice.sparsity;
    let total_bits = entry_bits as u64 * entries;
    let main_bits = spec.total_memory() * 8;
    let overhead_frac = total_bits as f64 / main_bits as f64;

    let full_entry_bits = (Scheme::FullVector.state_bits(spec.clusters) + 1) as u64;
    let full_total = full_entry_bits * spec.memory_blocks();
    OverheadReport {
        state_bits,
        dirty_bits: 1,
        tag_bits,
        entry_bits,
        entries,
        total_bits,
        overhead: overhead_frac,
        savings_vs_full: full_total as f64 / total_bits as f64,
    }
}

/// One row of Table 1, rendered by the `table1` experiment binary.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Machine dimensions.
    pub spec: MachineSpec,
    /// Directory provisioning.
    pub choice: DirectoryChoice,
    /// Display label (e.g. "sparse Dir64").
    pub label: String,
    /// Computed cost.
    pub report: OverheadReport,
}

/// The three sample machine configurations of Table 1.
pub fn table1_rows() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    // 16 clusters x 4 = 64 processors, complete Dir16 (the DASH prototype).
    let spec = MachineSpec::paper_defaults(16);
    let choice = DirectoryChoice {
        scheme: Scheme::FullVector,
        sparsity: 1,
    };
    rows.push(Table1Row {
        spec,
        choice,
        label: format!("Dir{}", spec.clusters),
        report: overhead(&spec, &choice),
    });
    // 64 clusters x 4 = 256 processors, sparse (sparsity 4) Dir64.
    let spec = MachineSpec::paper_defaults(64);
    let choice = DirectoryChoice {
        scheme: Scheme::FullVector,
        sparsity: 4,
    };
    rows.push(Table1Row {
        spec,
        choice,
        label: format!("sparse Dir{}", spec.clusters),
        report: overhead(&spec, &choice),
    });
    // 256 clusters x 4 = 1024 processors, sparse (sparsity 4) Dir8CV4.
    let spec = MachineSpec::paper_defaults(256);
    let choice = DirectoryChoice {
        scheme: Scheme::dir_cv(8, 4),
        sparsity: 4,
    };
    rows.push(Table1Row {
        spec,
        choice,
        label: "sparse Dir8CV4".to_string(),
        report: overhead(&spec, &choice),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_prototype_overhead_is_13_3_percent() {
        // 17 bits per 16-byte (128-bit) block = 13.28%.
        let spec = MachineSpec::paper_defaults(16);
        let choice = DirectoryChoice {
            scheme: Scheme::FullVector,
            sparsity: 1,
        };
        let r = overhead(&spec, &choice);
        assert_eq!(r.entry_bits, 17);
        assert!((r.overhead - 17.0 / 128.0).abs() < 1e-12);
        assert!((r.overhead * 100.0 - 13.28).abs() < 0.01);
    }

    #[test]
    fn sparsity_64_savings_factor_matches_paper() {
        // Paper §5: 32-cluster machine, full vector, sparsity 64:
        // 33 bits/block -> 39 bits per 64 blocks, savings factor ~54.
        let mut spec = MachineSpec::paper_defaults(32);
        spec.procs_per_cluster = 1; // the evaluation runs use 32 procs = 32 clusters
        let choice = DirectoryChoice {
            scheme: Scheme::FullVector,
            sparsity: 64,
        };
        let r = overhead(&spec, &choice);
        assert_eq!(r.state_bits, 32);
        assert_eq!(r.tag_bits, 6);
        assert_eq!(r.entry_bits, 39);
        let savings = 33.0 * 64.0 / 39.0;
        assert!((r.savings_vs_full - savings).abs() < 1e-9, "{r:?}");
        assert!(r.savings_vs_full > 54.0 && r.savings_vs_full < 54.2);
    }

    #[test]
    fn table1_overheads_are_around_13_percent() {
        for row in table1_rows() {
            assert!(
                row.report.overhead > 0.12 && row.report.overhead < 0.14,
                "{}: overhead {:.3} out of band",
                row.label,
                row.report.overhead
            );
        }
    }

    #[test]
    fn table1_machines_match_paper_dimensions() {
        let rows = table1_rows();
        assert_eq!(rows[0].spec.processors(), 64);
        assert_eq!(rows[0].spec.total_memory(), 1 << 30); // 1 GB
        assert_eq!(rows[1].spec.processors(), 256);
        assert_eq!(rows[2].spec.processors(), 1024);
        assert_eq!(rows[2].spec.total_cache(), 256 << 20); // 256 MB
    }

    #[test]
    fn sparsity_reduces_memory_by_orders_of_magnitude() {
        let spec = MachineSpec::paper_defaults(64);
        let complete = overhead(
            &spec,
            &DirectoryChoice {
                scheme: Scheme::FullVector,
                sparsity: 1,
            },
        );
        let sparse = overhead(
            &spec,
            &DirectoryChoice {
                scheme: Scheme::FullVector,
                sparsity: 64,
            },
        );
        let ratio = complete.total_bits as f64 / sparse.total_bits as f64;
        assert!(
            (50.0..70.0).contains(&ratio),
            "one-to-two orders of magnitude expected, got {ratio}"
        );
    }

    #[test]
    fn tag_bits_round_up() {
        assert_eq!(tag_bits_for(1), 0);
        assert_eq!(tag_bits_for(2), 1);
        assert_eq!(tag_bits_for(4), 2);
        assert_eq!(tag_bits_for(5), 3);
        assert_eq!(tag_bits_for(64), 6);
    }
}
