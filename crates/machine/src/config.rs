//! Machine configuration and the paper's standard presets.

use scd_core::{Organization, Replacement, Scheme, MAX_POINTERS};
use scd_noc::{FaultPlan, LatencyModel};
use scd_trace::TraceConfig;

/// Which coherence protocol family the machine speaks (DESIGN.md §16).
///
/// All three backends run on the same engine — event wheel, NoC, caches,
/// fault injector, tracing/attribution — so runs on identical
/// op streams compare directory memory × traffic × latency across
/// protocol families.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// DASH-style invalidation protocol with a home directory (the
    /// paper's family: Dir_i B/NB/X, coarse vectors, sparse/overflow
    /// organizations).
    #[default]
    Dash,
    /// Tardis-style timestamp coherence: per-block (wts, rts) counters
    /// at the home, lease-based reads, no sharer lists and no
    /// invalidation fan-out; writes bump the write timestamp past every
    /// outstanding lease. Modeled without the exclusive-ownership
    /// optimization — writes write through to the home slice.
    Tardis,
    /// Directoryless shared LLC baseline: no directory state at all;
    /// every remote miss resolves at the home LLC slice and remote
    /// clusters never cache shared data.
    Dls,
}

impl ProtocolKind {
    /// Stable lower-case name (CLI `--protocol` values, sweep ids).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Dash => "dash",
            ProtocolKind::Tardis => "tardis",
            ProtocolKind::Dls => "dls",
        }
    }

    /// Parses a CLI name; accepts `dash`, `tardis`, `dls`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dash" => Ok(ProtocolKind::Dash),
            "tardis" => Ok(ProtocolKind::Tardis),
            "dls" => Ok(ProtocolKind::Dls),
            other => Err(format!(
                "unknown protocol `{other}` (known: dash, tardis, dls)"
            )),
        }
    }

    /// All backends, in canonical order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Dash, ProtocolKind::Tardis, ProtocolKind::Dls];
}

/// Fixed-cost timing parameters, calibrated so that the three canonical
/// DASH latencies come out near the paper's §5 numbers: local misses
/// "on the order of 23 processor cycles", remote two-cluster misses
/// "about 60 cycles", three-cluster (dirty-remote) misses "about 80".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Primary-cache hit, cycles.
    pub l1_hit: u64,
    /// Secondary-cache hit (also the miss-detection cost and the cache
    /// access charge at a forwarding owner), cycles.
    pub l2_hit: u64,
    /// Cluster bus arbitration + main-memory/directory access, cycles.
    pub bus_memory: u64,
    /// Directory lookup/occupancy when only state (no data) is touched.
    pub dir_lookup: u64,
    /// Local processing of a synchronization operation.
    pub sync_op: u64,
}

/// The machine's timing, the same in every configuration. A 23-cycle
/// local miss is `l2_hit` (miss detection) + `bus_memory`.
pub const TIMING: Timing = Timing {
    l1_hit: 1,
    l2_hit: 8,
    bus_memory: 15,
    dir_lookup: 8,
    sync_op: 2,
};

/// Full description of a simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of clusters (home/directory nodes).
    pub clusters: usize,
    /// Processors per cluster (the paper's runs use 1; DASH hardware has 4).
    pub procs_per_cluster: usize,
    /// Coherence block size in bytes (paper: 16).
    pub block_bytes: u64,
    /// L1 capacity in blocks.
    pub l1_blocks: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 capacity in blocks.
    pub l2_blocks: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Directory entry format.
    pub scheme: Scheme,
    /// Directory organization (complete or sparse).
    pub organization: Organization,
    /// Interconnect latency model.
    pub latency: LatencyModel,
    /// Seeds the machine's own random streams: the random victims of
    /// sparse and overflow directories, and fault injection. Workloads
    /// take their seed from their generator, not from here, and no binary
    /// sets it: every run keeps `paper_32`'s `0x5CD`. Deriving it from the
    /// run seed (ROADMAP item 3) waits on a steady benchmark RSS (item
    /// 1(b)): with it at 0x1, 0x2, 0x77, 0xD45B or 0x12345, the
    /// benchmark's `telemetry_replay` peaked at 169.2–169.6 MB, against
    /// 149.4–149.7 MB at `0x5CD`.
    pub seed: u64,
    /// Abort the run if simulated time exceeds this many cycles (deadlock /
    /// runaway guard). 0 disables the limit.
    pub max_cycles: u64,
    /// Verify coherence invariants: the quiescent checker when the machine
    /// drains, and the *version oracle* on every observation — no cluster
    /// may ever read an older version of a block than it has already seen
    /// (catches stale-copy and lost-invalidation bugs directly). Costs a
    /// hash lookup per reference; on in `tiny()`, off in `paper_32()`.
    pub check_invariants: bool,
    /// Model link contention in the mesh: each message holds every link of
    /// its route for this many cycles and queues behind earlier traffic.
    /// `None` = latency-only network (the paper's effective model).
    pub link_occupancy: Option<u64>,
    /// Send replacement hints: when a cluster silently drops a clean
    /// (shared) L2 line, notify the home so precise directory
    /// representations can un-record the sharer. Trades hint messages for
    /// fewer extraneous invalidations — an optional mechanism in
    /// DASH-class designs, off in the paper's evaluation.
    pub replacement_hints: bool,
    /// Model §3.3's cache-based linked-list (SCI-style) invalidation
    /// behaviour: a write's invalidations are sent one at a time, each only
    /// after the previous acknowledgement returns ("the list is unraveled
    /// one by one"), instead of being pumped into the network at once.
    pub serial_invalidations: bool,
    /// Deterministic fault injection (NACKs, duplicates, latency spikes,
    /// reorders), driven by a stream forked from `seed`. `None` leaves the
    /// run bit-identical to a machine without fault hooks.
    pub fault_plan: Option<FaultPlan>,
    /// Forward-progress watchdog: fail the run with
    /// `SimError::LivelockWatchdog` if no processor retires an operation
    /// for this many cycles while any is unfinished. 0 disables it.
    pub watchdog_cycles: u64,
    /// Structured transaction tracing and the metrics registry
    /// (`scd-trace`). `None` — like an inactive config — leaves the run
    /// bit-identical to a machine without trace hooks.
    pub trace: Option<TraceConfig>,
    /// Coherence protocol backend (DESIGN.md §16).
    pub protocol: ProtocolKind,
    /// Record a protocol-independent value oracle: every retired write
    /// is tagged `(writer, write-seq)` and every retired read logs which
    /// write it observed, so the differential harness can assert that
    /// two protocols produce identical final memory images and load
    /// values on the same (race-free) program. Off by default — leaves
    /// the run bit-identical to a machine without the oracle.
    pub value_oracle: bool,
}

impl MachineConfig {
    /// The paper's evaluation configuration (§6.2): 32 processors in 32
    /// clusters of 1, 16-byte blocks, 64 KB direct-mapped L1 and 256 KB
    /// 4-way L2 per processor, complete full-bit-vector directory, mesh
    /// interconnect.
    pub fn paper_32() -> Self {
        MachineConfig {
            clusters: 32,
            procs_per_cluster: 1,
            block_bytes: 16,
            l1_blocks: (64 << 10) / 16,
            l1_ways: 1,
            l2_blocks: (256 << 10) / 16,
            l2_ways: 4,
            scheme: Scheme::FullVector,
            organization: Organization::Complete,
            latency: LatencyModel::Mesh {
                fixed: 13,
                per_hop: 1,
            },
            seed: 0x5CD,
            max_cycles: 0,
            check_invariants: false,
            link_occupancy: None,
            replacement_hints: false,
            serial_invalidations: false,
            fault_plan: None,
            watchdog_cycles: 0,
            trace: None,
            protocol: ProtocolKind::Dash,
            value_oracle: false,
        }
    }

    /// A small machine for unit/integration tests: everything shrunk so
    /// interesting cases (evictions, conflicts) occur quickly.
    pub fn tiny(clusters: usize) -> Self {
        MachineConfig {
            clusters,
            l1_blocks: 4,
            l2_blocks: 16,
            l2_ways: 2,
            latency: LatencyModel::Uniform { latency: 10 },
            max_cycles: 50_000_000,
            check_invariants: true,
            ..Self::paper_32()
        }
    }

    /// Replaces the directory scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Switches to a sparse directory with the given total entries,
    /// associativity and replacement policy (§6.3).
    pub fn with_sparse(mut self, entries: usize, ways: usize, policy: Replacement) -> Self {
        self.organization = Organization::Sparse {
            entries,
            ways,
            policy,
        };
        self
    }

    /// Switches to an overflow directory (§7 future work): `i`-pointer
    /// small entries per block plus `wide_entries` full-vector slots per
    /// home, `wide_ways`-associative. It sets the scheme to `Dir_i NB`, the
    /// small entries' format (entry-level operations such as `make_dirty`
    /// honour it), the only one [`MachineConfig::validate`] accepts here.
    pub fn with_overflow(
        mut self,
        i: usize,
        wide_entries: usize,
        wide_ways: usize,
        policy: Replacement,
    ) -> Self {
        self.organization = Organization::Overflow {
            i,
            wide_entries,
            wide_ways,
            policy,
        };
        self.scheme = Scheme::dir_nb(i);
        self
    }

    /// Scales both cache levels so the machine-wide L2 capacity totals
    /// `total_cache_blocks` (the §6.3 scaled-cache methodology: keep the
    /// data-set-to-cache ratio of a full-size run).
    pub fn with_scaled_caches(mut self, total_cache_blocks: usize) -> Self {
        let procs = self.clusters * self.procs_per_cluster;
        let per_proc = (total_cache_blocks / procs).max(4);
        // Keep L1 at 1/4 of L2, at least one set of each associativity.
        self.l2_ways = self.l2_ways.min(per_proc);
        self.l2_blocks = per_proc / self.l2_ways * self.l2_ways;
        let l1 = (per_proc / 4).max(1);
        self.l1_ways = 1;
        self.l1_blocks = l1;
        self
    }

    /// Replaces the coherence protocol backend.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Enables transaction tracing / the metrics registry.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Checks the geometry the constructors downstream would otherwise
    /// assert on (cluster and processor counts, cache and directory
    /// shapes, pointer counts, a fault plan's cycle bounds) and that an
    /// overflow organization runs its `Dir_i NB` entries. The error is
    /// `refused configuration: `, the field and its value.
    /// [`Machine::try_new`](crate::Machine::try_new) calls it on every
    /// machine; `scdsim` and the sweep engine call it before generating
    /// programs sized by it.
    pub fn validate(&self) -> Result<(), String> {
        self.check_geometry().map_err(|e| format!("refused configuration: {e}"))
    }

    fn check_geometry(&self) -> Result<(), String> {
        let sets = |what: &str, blocks: usize, ways: usize| {
            if ways >= 1 && blocks >= ways && blocks.is_multiple_of(ways) {
                Ok(())
            } else {
                Err(format!(
                    "{what} = {blocks}:{ways} (the first must be a positive multiple of the \
                     second, the associativity)"
                ))
            }
        };
        let pointers = |what: &str, i: usize| {
            if (1..=MAX_POINTERS).contains(&i) {
                Ok(())
            } else {
                Err(format!("{what} = {i} (want 1..={MAX_POINTERS})"))
            }
        };
        if !(1..=u16::MAX as usize).contains(&self.clusters) {
            return Err(format!("clusters = {} (want 1..={})", self.clusters, u16::MAX));
        }
        if self.procs_per_cluster == 0 {
            return Err("procs_per_cluster = 0 (want at least 1)".into());
        }
        if self.block_bytes == 0 {
            return Err("block_bytes = 0 (want at least 1)".into());
        }
        sets("l1_blocks:l1_ways", self.l1_blocks, self.l1_ways)?;
        sets("l2_blocks:l2_ways", self.l2_blocks, self.l2_ways)?;
        let organization = match self.organization {
            Organization::Complete => None,
            Organization::Sparse { entries, ways, .. } => {
                sets("sparse entries:ways", entries, ways)?;
                Some("sparse")
            }
            Organization::Overflow {
                i,
                wide_entries,
                wide_ways,
                ..
            } => {
                pointers("overflow pointer count", i)?;
                sets("overflow wide entries:ways", wide_entries, wide_ways)?;
                if self.scheme != Scheme::dir_nb(i) {
                    let (asked, nb) = (self.scheme.name(self.clusters), Scheme::dir_nb(i).name(self.clusters));
                    return Err(format!(
                        "scheme = {asked} under organization = overflow (its entries are {nb}; want that scheme)"
                    ));
                }
                Some("overflow")
            }
        };
        if let Some(org) = organization.filter(|_| self.protocol != ProtocolKind::Dash) {
            return Err(format!(
                "organization = {org} under protocol = {} (only dash reads a directory \
                 organization; want complete)",
                self.protocol.name()
            ));
        }
        if let Some(i) = self.scheme.pointer_count() {
            pointers("scheme pointer count", i)?;
        }
        if let Scheme::CoarseVector { r: 0, .. } = self.scheme {
            return Err("scheme coarse-vector region size = 0 (want at least 1)".into());
        }
        self.fault_plan.as_ref().map_or(Ok(()), FaultPlan::validate)
    }

    /// Total processors.
    pub fn processors(&self) -> usize {
        self.clusters * self.procs_per_cluster
    }

    /// Machine-wide L2 capacity in blocks ("size factor 1" for sparse
    /// directories).
    pub fn total_cache_blocks(&self) -> usize {
        self.l2_blocks * self.processors()
    }

    /// Byte address to block number.
    pub fn block_of(&self, addr: u64) -> u64 {
        let b = self.block_bytes;
        if b.is_power_of_two() {
            addr >> b.trailing_zeros()
        } else {
            addr / b
        }
    }

    /// Home cluster of a block: round-robin interleaving across clusters,
    /// as in the paper's simulator ("main memory is evenly distributed
    /// across all clusters and allocated to the clusters using a
    /// round-robin scheme").
    pub fn home_of(&self, block: u64) -> usize {
        let c = self.clusters as u64;
        (if c.is_power_of_two() { block & (c - 1) } else { block % c }) as usize
    }

    /// Directory-store key for `block`: the *home-local* block index.
    ///
    /// Memory is block-interleaved round-robin across clusters, so a home's
    /// blocks are all congruent mod `clusters`; indexing the (sparse)
    /// directory with raw block numbers would alias a home's entire memory
    /// into a single set. The quotient is also dense — a home's `k`-th
    /// block has key `k` — which is what lets home-side tables be indexed
    /// by it directly.
    ///
    /// Both mappings are a mask or a shift when `clusters` is a power of
    /// two, as the paper's machines are; other counts divide.
    pub fn dir_key(&self, block: u64) -> u64 {
        let c = self.clusters as u64;
        if c.is_power_of_two() {
            block >> c.trailing_zeros()
        } else {
            block / c
        }
    }

    /// Home cluster of lock `l`.
    pub fn lock_home(&self, l: u32) -> usize {
        l as usize % self.clusters
    }

    /// Home cluster of barrier `b`.
    pub fn barrier_home(&self, b: u32) -> usize {
        b as usize % self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_32_matches_evaluation_setup() {
        let c = MachineConfig::paper_32();
        assert_eq!(c.processors(), 32);
        assert_eq!(c.block_bytes, 16);
        assert_eq!(c.l1_blocks * 16, 64 << 10);
        assert_eq!(c.l2_blocks * 16, 256 << 10);
        assert_eq!(c.total_cache_blocks(), 32 * (256 << 10) / 16);
    }

    #[test]
    fn canonical_latencies_are_near_paper_values() {
        let c = MachineConfig::paper_32();
        let t = TIMING;
        // Local miss: detect + bus/memory.
        let local = t.l2_hit + t.bus_memory;
        assert_eq!(local, 23);
        // Remote clean miss: detect + net + memory + net (mean net latency
        // on the 8x4 mesh is fixed + per_hop * mean_distance ~= 17).
        let mesh = scd_noc::Mesh::near_square(32);
        let (fixed, per_hop) = match c.latency {
            LatencyModel::Mesh { fixed, per_hop } => (fixed, per_hop),
            _ => unreachable!(),
        };
        let pairs = (0..32).flat_map(|a| (0..32).map(move |b| (a, b)));
        let hops: usize = pairs.map(|(a, b)| mesh.distance(a, b)).sum();
        let mean_distance = hops as f64 / (32.0 * 31.0);
        let net = fixed as f64 + per_hop as f64 * mean_distance;
        let remote2 = t.l2_hit as f64 + net + t.bus_memory as f64 + net;
        assert!(
            (55.0..65.0).contains(&remote2),
            "2-cluster latency ~60 expected, got {remote2}"
        );
        let remote3 =
            t.l2_hit as f64 + net + t.dir_lookup as f64 + net + t.l2_hit as f64 + net;
        assert!(
            (70.0..90.0).contains(&remote3),
            "3-cluster latency ~80 expected, got {remote3}"
        );
    }

    #[test]
    fn block_and_home_mapping() {
        let c = MachineConfig::paper_32();
        assert_eq!(c.block_of(0), 0);
        assert_eq!(c.block_of(15), 0);
        assert_eq!(c.block_of(16), 1);
        assert_eq!(c.home_of(0), 0);
        assert_eq!(c.home_of(33), 1);
    }

    #[test]
    fn shift_and_mask_mappings_equal_division() {
        for clusters in [1, 3, 32, 64] {
            for block_bytes in [16, 24] {
                let c = MachineConfig {
                    clusters,
                    block_bytes,
                    ..MachineConfig::paper_32()
                };
                let n = clusters as u64;
                let samples = (0..4096).chain([u64::MAX - 1, u64::MAX, 1 << 40, (1 << 40) + 7]);
                for x in samples {
                    assert_eq!(c.home_of(x), (x % n) as usize, "home_of({x}) at {clusters}");
                    assert_eq!(c.dir_key(x), x / n, "dir_key({x}) at {clusters}");
                    assert_eq!(c.block_of(x), x / block_bytes, "block_of({x}) at {block_bytes}");
                }
            }
        }
    }

    #[test]
    fn scaled_caches_hit_target() {
        let c = MachineConfig::paper_32().with_scaled_caches(4096);
        assert_eq!(c.total_cache_blocks(), 4096);
        assert!(c.l1_blocks <= c.l2_blocks);
    }
}
