//! The first litmus above three clusters. It lives here and not in
//! `corpus()` because the benchmark's `check_corpus` work is defined by the
//! corpus: message passing with a second reader, on four clusters, with
//! both blocks homed at the idle fourth so every copy the writer must
//! invalidate is directory-tracked and the fan-out reaches two sharers.

use scd_check::{explore, scenarios, ExploreConfig, Litmus};
use scd_machine::{FaultEdges, Mutation, ProtocolKind};
use scd_tango::Op::{Read, Write};

/// data = block 3, flag = block 7 (16-byte blocks), both homed at cluster 3.
fn message_passing_two_readers(fault_budget: u32) -> Litmus {
    let (data, flag) = (3 * 16, 7 * 16);
    Litmus {
        name: "message-passing-two-readers",
        summary: "MP on four clusters: one writer, two polling readers, idle home",
        clusters: 4,
        programs: vec![
            [Write(data), Write(flag)].into(),
            [Read(flag), Read(data), Read(flag)].into(),
            [Read(data), Read(flag)].into(),
            [].into(),
        ],
        faults: FaultEdges {
            nack: true,
            delay: Some(40),
            dup: Some(40),
        },
        fault_budget,
    }
}

/// The litmus's own edges and budget, default bounds.
fn cfg_for(l: &Litmus) -> ExploreConfig {
    ExploreConfig {
        faults: l.faults,
        fault_budget: l.fault_budget,
        ..ExploreConfig::default()
    }
}

/// Explores the litmus under every scenario, clean and untruncated, and
/// returns the states visited, which the callers pin.
fn explores_clean(l: &Litmus) -> u64 {
    let cfg = cfg_for(l);
    let mut visited = 0;
    for sc in scenarios() {
        let out = explore(&|| l.build(&sc, None, false), &cfg);
        assert!(
            out.violation.is_none(),
            "{}: {}",
            sc.label,
            out.violation.unwrap().error
        );
        assert!(!out.truncated, "{} truncated", sc.label);
        assert!(out.leaves > 0);
        visited += out.visited;
    }
    visited
}

#[test]
fn four_clusters_one_fault_explores_clean() {
    assert_eq!(explores_clean(&message_passing_two_readers(1)), 12_804);
}

/// About 5,000 states per scenario, half a minute in a debug build: it runs
/// under `cargo test --release --workspace -- --include-ignored`.
#[test]
#[ignore = "68k states; run in release"]
fn four_clusters_two_faults_explores_clean() {
    assert_eq!(explores_clean(&message_passing_two_readers(2)), 67_925);
}

/// The seeded skip-invalidation bug is still caught with the extra
/// cluster, on every directory scenario.
#[test]
fn four_clusters_skip_inval_is_caught_on_every_dash_scenario() {
    let l = message_passing_two_readers(1);
    let cfg = cfg_for(&l);
    for sc in scenarios() {
        if sc.protocol != ProtocolKind::Dash {
            continue;
        }
        let out = explore(&|| l.build(&sc, Some(Mutation::SkipInval), false), &cfg);
        let found = out
            .violation
            .unwrap_or_else(|| panic!("{}: skip-inval survived {} states", sc.label, out.visited));
        assert!(
            found.error.contains("block"),
            "{}: {}",
            sc.label,
            found.error
        );
    }
}
