//! Cross-protocol differential harness: DASH, Tardis and DLS are three
//! implementations of the same sequentially-consistent-for-race-free-
//! programs contract, so on a race-free barrier-ordered kernel all three
//! must produce the *same final memory image* and the *same value at
//! every load* — even though their message patterns, lease/renewal
//! behavior and directory contents differ wildly. The value oracle tags
//! every store with `(proc, per-proc write sequence)` and records what
//! every load observed; comparing whole [`ValueOracleReport`]s across
//! protocols is therefore a per-reference equivalence proof for the
//! execution, not just a final-state check.
//!
//! The same oracle equality is asserted under an injected fault plan
//! (NACKs force the retry paths of all three protocols; duplicates,
//! delays and reorders force the stray-reply drop).

use std::sync::Arc;

use scd::machine::{Machine, MachineConfig, ProtocolKind, RunStats, ValueOracleReport};
use scd::noc::FaultPlan;
use scd::tango::{Op, Script};
use scd::trace::{AttribClass, Attribution, TraceConfig};

const CLUSTERS: usize = 6;

/// Byte address of block `b` under the tiny geometry (16-byte blocks).
fn a(b: u64) -> u64 {
    b * 16
}

/// One kernel: a name plus one shared op stream per processor. The
/// streams live behind `Arc` so every protocol/fault variant runs
/// the *same* reference sequence without re-generating or copying it.
struct Kernel {
    name: &'static str,
    streams: Vec<Arc<[Op]>>,
}

impl Kernel {
    fn new(name: &'static str, per_proc: Vec<Vec<Op>>) -> Self {
        assert_eq!(per_proc.len(), CLUSTERS);
        Kernel {
            name,
            streams: per_proc.into_iter().map(Into::into).collect(),
        }
    }

    fn programs(&self) -> Vec<Script> {
        self.streams.iter().cloned().map(Script::from).collect()
    }
}

/// LU-like panel factorization: in phase `k` processor `k` produces the
/// pivot block, a barrier publishes it, and every processor consumes it
/// into a privately-owned (but remotely-homed, so DLS round-trips) panel
/// block. A final phase re-reads the long-untouched phase-0 pivot: by
/// then every processor's Tardis timestamp has been dragged far past the
/// original lease, while the pivot's write timestamp never moved — the
/// exact shape that must resolve as a successful lease renewal.
fn lu_like() -> Kernel {
    let per_proc = (0..CLUSTERS)
        .map(|p| {
            let panel = 6 + ((p as u64 + 1) % CLUSTERS as u64);
            let mut ops = Vec::new();
            for k in 0..4u64 {
                if p as u64 == k {
                    ops.push(Op::Write(a(k)));
                }
                ops.push(Op::Barrier(2 * k as u32));
                ops.push(Op::Read(a(k)));
                ops.push(Op::Read(a(panel)));
                ops.push(Op::Write(a(panel)));
                ops.push(Op::Barrier(2 * k as u32 + 1));
            }
            ops.push(Op::Barrier(98));
            ops.push(Op::Read(a(0)));
            ops
        })
        .collect();
    Kernel::new("lu-like", per_proc)
}

/// Ring stencil: each processor owns one block (homed three clusters
/// away, so DLS writes round-trip); every iteration writes the owned
/// block, then (after a barrier) reads both neighbors' blocks.
fn stencil() -> Kernel {
    let n = CLUSTERS as u64;
    let owned = |p: u64| (p + 3) % n;
    let per_proc = (0..n)
        .map(|p| {
            let mut ops = Vec::new();
            for t in 0..4u32 {
                ops.push(Op::Write(a(owned(p))));
                ops.push(Op::Barrier(8 + 2 * t));
                ops.push(Op::Read(a(owned((p + n - 1) % n))));
                ops.push(Op::Read(a(owned((p + 1) % n))));
                ops.push(Op::Barrier(9 + 2 * t));
            }
            ops
        })
        .collect();
    Kernel::new("stencil", per_proc)
}

/// Two-level tree reduction: six leaves combine into three partials,
/// the partials into one root, and everybody reads the root back.
fn reduce() -> Kernel {
    let per_proc = (0..CLUSTERS as u64)
        .map(|p| {
            let mut ops = vec![Op::Write(a(p)), Op::Barrier(40)];
            if p < 3 {
                ops.push(Op::Read(a(2 * p)));
                ops.push(Op::Read(a(2 * p + 1)));
                ops.push(Op::Write(a(6 + p)));
            }
            ops.push(Op::Barrier(41));
            if p == 0 {
                for b in 6..9 {
                    ops.push(Op::Read(a(b)));
                }
                ops.push(Op::Write(a(9)));
            }
            ops.push(Op::Barrier(42));
            ops.push(Op::Read(a(9)));
            ops
        })
        .collect();
    Kernel::new("reduce", per_proc)
}

/// Migratory counter: a lock-protected read-modify-write pair hops from
/// cluster to cluster (one holder per barrier round, so the write order
/// — and therefore the oracle image — is deterministic), then everyone
/// reads the final values.
fn migratory() -> Kernel {
    let per_proc = (0..CLUSTERS)
        .map(|p| {
            let mut ops = Vec::new();
            for r in 0..CLUSTERS {
                if p == r {
                    ops.extend([
                        Op::Lock(0),
                        Op::Read(a(0)),
                        Op::Write(a(0)),
                        Op::Read(a(1)),
                        Op::Write(a(1)),
                        Op::Unlock(0),
                    ]);
                }
                ops.push(Op::Barrier(50 + r as u32));
            }
            ops.push(Op::Read(a(0)));
            ops.push(Op::Read(a(1)));
            ops
        })
        .collect();
    Kernel::new("migratory", per_proc)
}

fn kernels() -> Vec<Kernel> {
    vec![lu_like(), stencil(), reduce(), migratory()]
}

fn config(protocol: ProtocolKind) -> MachineConfig {
    MachineConfig::tiny(CLUSTERS)
        .with_protocol(protocol)
        .with_value_oracle()
}

fn run_solo(kernel: &Kernel, cfg: MachineConfig) -> (ValueOracleReport, RunStats) {
    let mut m = Machine::new(cfg, kernel.programs());
    let stats = m
        .try_run()
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    let report = m.value_oracle_report().expect("oracle was enabled");
    (report, stats)
}

/// The core differential oracle: for each kernel, Tardis and DLS must
/// reproduce DASH's final memory image and every individual load value.
#[test]
fn four_kernels_agree_across_all_three_protocols() {
    for kernel in kernels() {
        let (dash, _) = run_solo(&kernel, config(ProtocolKind::Dash));
        assert!(!dash.image.is_empty(), "{}: kernel wrote nothing", kernel.name);

        let (tardis, ts) = run_solo(&kernel, config(ProtocolKind::Tardis));
        assert_eq!(dash, tardis, "{}: tardis diverged from dash", kernel.name);
        let tc = ts.tardis.expect("tardis counters present");
        assert!(tc.lease_fills > 0, "{}: no lease ever granted", kernel.name);
        assert!(tc.write_throughs > 0, "{}: no write-through", kernel.name);

        let (dls, ds) = run_solo(&kernel, config(ProtocolKind::Dls));
        assert_eq!(dash, dls, "{}: dls diverged from dash", kernel.name);
        let dc = ds.dls.expect("dls counters present");
        assert!(dc.llc_fills > 0, "{}: no remote read reached the LLC", kernel.name);
        assert!(dc.llc_writes > 0, "{}: no remote write reached the LLC", kernel.name);
    }
}

/// Injected NACKs exercise every protocol's retry path without being
/// allowed to change a single observed value: the kernels are race-free,
/// so delay-equivalent perturbations must be value-invisible.
#[test]
fn nack_fault_plan_preserves_the_differential() {
    let kernel = stencil();
    let (baseline, _) = run_solo(&kernel, config(ProtocolKind::Dash));
    let mut nacks = 0;
    for protocol in ProtocolKind::ALL {
        let cfg = config(protocol).with_fault(FaultPlan::nack(0.2));
        let (faulty, stats) = run_solo(&kernel, cfg);
        assert_eq!(
            baseline, faulty,
            "{}: {protocol:?} diverged under NACK injection",
            kernel.name
        );
        nacks += stats.faults.nacks;
    }
    assert!(nacks > 0, "fault plan never fired");
}

/// Duplicated, delayed and reordered requests reach the one place a read
/// reply meets its MSHR (`requester::read_reply`): under every protocol a
/// duplicated read is serviced twice and its second reply — `ReadReply`,
/// `TardisReadReply` or `LlcFill` — must be dropped as a stray, again
/// without changing a single observed value.
#[test]
fn dup_delay_reorder_fault_plan_preserves_the_differential() {
    let plan = FaultPlan::parse("dup:0.3,delay:0.2:40,reorder:0.2:30").expect("valid plan");
    for kernel in kernels() {
        let (baseline, _) = run_solo(&kernel, config(ProtocolKind::Dash));
        for protocol in ProtocolKind::ALL {
            let (faulty, stats) = run_solo(&kernel, config(protocol).with_fault(plan));
            assert_eq!(
                baseline, faulty,
                "{}: {protocol:?} diverged under dup+delay+reorder",
                kernel.name
            );
            let f = stats.faults;
            assert!(f.duplicates > 0, "{}: {protocol:?} duplicated nothing", kernel.name);
            assert!(
                f.strays_dropped > 0,
                "{}: {protocol:?} dropped no stray ({f:?})",
                kernel.name
            );
            assert!(f.delay_spikes + f.reorders > 0, "{}: {protocol:?}", kernel.name);
        }
    }
}

/// Satellite attribution gate for the new protocols: the online
/// send-hook classification (which feeds the Tardis `renewal` and DLS
/// `llc_fill` classes) must agree class-for-class with an offline pass
/// over the recorded event stream.
#[test]
fn tardis_and_dls_attribution_agree_online_and_offline() {
    for protocol in [ProtocolKind::Tardis, ProtocolKind::Dls] {
        let kernel = lu_like();
        let cfg = config(protocol).with_trace(TraceConfig::full(1 << 16));
        let mut m = Machine::new(cfg, kernel.programs());
        m.try_run().unwrap_or_else(|e| panic!("{protocol:?}: {e}"));
        let (_, dropped) = m.trace_counts();
        assert_eq!(dropped, 0, "ring too small; offline pass would be partial");
        let online = m.attribution().expect("full tracing enables attribution");
        let offline = Attribution::from_events(&m.trace_events(), online.params());
        assert_eq!(online.totals(), offline.totals(), "{protocol:?}");
        for class in AttribClass::ALL {
            assert_eq!(
                online.class(class),
                offline.class(class),
                "{protocol:?}: {}",
                class.label()
            );
        }
        let exercised = match protocol {
            ProtocolKind::Tardis => AttribClass::Renewal,
            _ => AttribClass::LlcFill,
        };
        assert!(
            online.class(exercised).messages > 0,
            "{protocol:?}: its own attribution class never fired"
        );
    }
}
